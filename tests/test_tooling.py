"""The benchmark's tracer must keep finding the functions it wraps, and its
workloads must pass their own checks."""

import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    path = PERFBENCH / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trace_bindings_resolve():
    # spans.py replaces each (module, attr) by a wrapper under the name the
    # calling module binds; a refactor that drops one breaks `--trace 1`
    spans = _load("spans")
    for module, attr, name in spans.BINDINGS:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr} ({name})"


def test_analyze_block_passes_its_checks():
    # one whole block: 8 cavity points (one of them ideal) x 16 labels
    workload = _load("workloads").Analyze(seed=1)
    assert workload.block == 128
    for i in range(workload.block):
        arg = workload.make_input(i)
        assert workload.check(arg, workload.op(arg)), f"op {i}: {arg}"
