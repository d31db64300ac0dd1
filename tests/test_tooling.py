"""The benchmark's tracer must keep finding the functions it wraps, its
workloads must pass their own checks, and the demos must run."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


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


# demo 05 writes into demos/out, so it stays out
@pytest.mark.parametrize("demo", ["01", "02", "03", "04"])
def test_demo_runs(demo):
    (script,) = (ROOT / "demos").glob(f"{demo}_*.py")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(script)], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
