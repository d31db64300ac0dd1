"""The benchmark's tracer must keep finding the functions it wraps."""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_trace_bindings_resolve():
    # spans.py replaces each (module, attr) by a wrapper under the name the
    # calling module binds; a refactor that drops one breaks `--trace 1`
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for module, attr, name in spans.BINDINGS:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr} ({name})"
