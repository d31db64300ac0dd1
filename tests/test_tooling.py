"""The benchmark's tracer must keep finding the functions it wraps, its
workloads must pass their own checks, the BENCH file writer must
assemble its reports right, the committed BENCH files must hold the
record it writes, the README's code names must exist, and the demos
must run."""

import ast
import importlib
import importlib.util
import json
import os
import pkgutil
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def _load(name: str, directory: Path = PERFBENCH):
    path = directory / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"{directory.name}_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trace_bindings_resolve():
    # spans.py replaces each (module, attr) by a wrapper under the name the
    # calling module binds; a refactor that drops one breaks `--trace 1`
    spans = _load("spans")
    for module, attr, name in spans.BINDINGS:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr} ({name})"


def test_every_import_is_used_or_traced():
    # a name that a module imports and never uses is dead code, unless the
    # tracer wraps it under that module's binding
    bound = {(module.__name__, attr) for module, attr, _ in _load("spans").BINDINGS}
    unused = []
    for path in sorted((ROOT / "src" / "hyperbell").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {alias.asname or alias.name.split(".")[0]
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.stem}.{name}" for name in sorted(imported - used)
                   if (f"hyperbell.{path.stem}", name) not in bound]
    assert unused == []


def test_analyze_block_passes_its_checks():
    # one whole block: 8 cavity points (one of them ideal) x 16 labels
    workload = _load("workloads").Analyze(seed=1)
    assert workload.block == 128
    for i in range(workload.block):
        arg = workload.make_input(i)
        assert workload.check(arg, workload.op(arg)), f"op {i}: {arg}"


def _canned_run(seed: int, commit: str, items_per_s: float, call_p50_ms: float,
                failed: int = 0) -> str:
    """Standard output of one perfbench/run.py --trace 0 run, shortened."""
    context = {"workload": "sweep", "seed": seed, "seconds": 20.0, "trace": 0,
               "nproc": 2, "commit": commit}
    metrics = {"setup_s": {"value": 0.5, "unit": "s"},
               "items_per_s": {"value": items_per_s, "unit": "1/s"},
               "call_p50_ms": {"value": call_p50_ms, "unit": "ms"},
               "peak_rss_mb": {"value": 40.0, "unit": "MB"}}
    return "\n".join([
        "# times scaled to the reference kernel's nominal speed; raw in brackets",
        f"sweep_points_per_s       {items_per_s} 1/s",
        "# context " + json.dumps(context),
        f"failed_ratio             {failed / 12:.4g}  ({failed}/12)",
        json.dumps({"correct": failed == 0, "attempted": 12, "failed": failed,
                    "metrics": metrics}),
    ]) + "\n"


def test_bench_compare_assembles_reports():
    bench = _load("bench_compare", ROOT / "tools")
    # a gain is claimed on ten pairs of runs
    assert len(bench.SEEDS) == 10
    directions = bench._directions(json.loads((ROOT / "BENCHMARK.json").read_text()))
    assert directions["items_per_s"] == "higher" and directions["call_p50_ms"] == "lower"
    parent_items, change_items = (100.0, 110.0, 90.0, 105.0), (250.0, 240.0, 95.0, 260.0)
    pairs = [{"seed": seed, "first": "parent" if seed % 2 else "change",
              "parent": bench.parse_run(_canned_run(seed, "p", a, 1000.0 / a)),
              "change": bench.parse_run(_canned_run(seed, "c", b, 1000.0 / b))}
             for seed, a, b in zip((1, 2, 3, 4), parent_items, change_items)]
    entry = bench.summarize(pairs, directions)
    assert entry["seeds"] == [1, 2, 3, 4]
    assert entry["context"]["parent"]["commit"] == "p"
    assert entry["context"]["change"]["seed"] == 1
    assert entry["failed"] == {"parent": 0, "change": 0}
    assert entry["attempted"] == {"parent": 48, "change": 48}
    assert entry["median"]["parent"]["items_per_s"] == 102.5
    assert entry["median"]["change"]["items_per_s"] == 245.0
    assert entry["quartiles"]["parent"]["items_per_s"] == [97.5, 106.25]
    assert entry["change_over_parent"]["items_per_s"] == 245.0 / 102.5
    assert entry["change_over_parent"]["setup_s"] == 1.0
    # better is higher for throughput and lower for latency; a tie is not better
    assert entry["change_better_pairs"]["items_per_s"] == 4
    assert entry["change_better_pairs"]["call_p50_ms"] == 4
    assert entry["change_better_pairs"]["peak_rss_mb"] == 0
    assert json.loads(json.dumps(entry)) == entry


def test_bench_compare_counts_source_lines(tmp_path):
    bench = _load("bench_compare", ROOT / "tools")
    package = tmp_path / "src" / "hyperbell"
    package.mkdir(parents=True)
    (package / "a.py").write_text("x = 1\n\ny = 2\n")
    (package / "b.py").write_text("z = 3\n")
    (package / "notes.txt").write_text("not counted\n")
    assert bench.src_lines(tmp_path) == 4
    # the repository's own count agrees with wc -l's total
    files = sorted(str(path) for path in (ROOT / "src" / "hyperbell").glob("*.py"))
    wc = subprocess.run(["wc", "-l", *files], capture_output=True, text=True, check=True)
    assert bench.src_lines(ROOT) == int(wc.stdout.splitlines()[-1].split()[0])


@pytest.mark.parametrize("scales, want", [
    ([1.3] * 10, "gain"),  # better in 10 of 10 pairs, by far more than the parent's IQR
    ([1.3] * 9 + [0.99], "gain"),  # 9 of 10 is enough
    ([1.3] * 8 + [0.99] * 2, "within bound"),  # 8 of 10 is not
    ([1.02] * 10, "within bound"),  # better in every pair, by less than the IQR
    ([0.95] * 10, "within bound"),  # worse, by less than the bound
    ([0.8] * 10, "worse"),  # worse by more than the bound
])
def test_bench_compare_verdicts(scales, want):
    bench = _load("bench_compare", ROOT / "tools")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent_items = [100.0 + k for k in range(10)]  # interquartile range 4.5
    pairs = [{"seed": seed, "first": "parent",
              "parent": bench.parse_run(_canned_run(seed, "p", a, 1000.0 / a)),
              "change": bench.parse_run(_canned_run(seed, "c", a * x, 1000.0 / (a * x)))}
             for seed, a, x in zip(bench.SEEDS, parent_items, scales)]
    entry = bench.summarize(pairs, bench._directions(benchmark))
    # call_p50_ms moves with items_per_s; setup and memory do not move
    assert bench.verdicts(entry, benchmark["end_to_end"]) == {
        "setup_s": "within bound", "items_per_s": want, "call_p50_ms": want,
        "peak_rss_mb": "within bound"}
    entry["verdict"] = bench.verdicts(entry, benchmark["end_to_end"])
    header, *rows = bench.verdict_table({"sweep": entry}).splitlines()
    assert header.split() == ["workload", "metric", "parent", "change", "change/parent",
                              "better", "verdict"]
    assert [row.split()[:2] for row in rows] == [["sweep", name] for name in entry["verdict"]]
    assert rows[1].endswith(want) and rows[1].split()[5] == f"{entry['change_better_pairs']['items_per_s']}/10"


@pytest.mark.parametrize("parent_failed, change_failed, want", [
    (0, 0, "within bound"),  # no failed op on either side
    (3, 2, "within bound"),  # fewer failed ops than the parent
    (1, 1, "within bound"),  # as many
    (0, 1, "worse"),  # one failed op where the parent had none
])
def test_bench_compare_failed_share(parent_failed, change_failed, want):
    bench = _load("bench_compare", ROOT / "tools")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    # the failures fall in the first pair; each run attempts 12 ops
    pairs = [{"seed": seed, "first": "parent",
              "parent": bench.parse_run(_canned_run(seed, "p", 100.0, 10.0,
                                                    parent_failed if k == 0 else 0)),
              "change": bench.parse_run(_canned_run(seed, "c", 100.0, 10.0,
                                                    change_failed if k == 0 else 0))}
             for k, seed in enumerate(bench.SEEDS)]
    entry = bench.summarize(pairs, bench._directions(benchmark))
    assert entry["failed_share"] == {"parent": parent_failed / 120,
                                     "change": change_failed / 120}
    assert bench.failed_share_verdict(entry) == want
    entry["verdict"] = bench.verdicts(entry, benchmark["end_to_end"])
    entry["verdict"]["failed_share"] = bench.failed_share_verdict(entry)
    *_, row = bench.verdict_table({"sweep": entry}).splitlines()
    assert row.split() == ["sweep", "failed_share", f"{parent_failed / 120:.6g}",
                           f"{change_failed / 120:.6g}", "-", "-", *want.split()]
    assert json.loads(json.dumps(entry)) == entry


def test_committed_bench_files_hold_their_record():
    # the BENCH files are the performance record: per workload, ten pairs of
    # runs and the medians, quartiles and verdicts that the pairs give; the
    # writer added verdicts in BENCH_13, the failed share in BENCH_14 and the
    # source line counts in BENCH_15
    bench = _load("bench_compare", ROOT / "tools")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    directions = bench._directions(benchmark)
    files = sorted((int(path.stem.split("_")[1]), path) for path in ROOT.glob("BENCH_*.json"))
    assert files and files[0][0] == 10
    for n, path in files:
        record = json.loads(path.read_text())
        assert list(record["workloads"]) == [w["name"] for w in benchmark["workloads"]], n
        for workload, entry in record["workloads"].items():
            where = f"{path.name} {workload}"
            assert len(set(entry["seeds"])) == len(entry["pairs"]) == 10, where
            assert [pair["seed"] for pair in entry["pairs"]] == entry["seeds"], where
            for side in ("parent", "change"):
                assert set(entry["median"][side]) == set(entry["quartiles"][side]) \
                    == set(directions), (where, side)
            summary = bench.summarize(entry["pairs"], directions)
            for key in ("median", "quartiles", "change_over_parent", "change_better_pairs"):
                assert entry[key] == summary[key], (where, key)
            if n >= 13:
                want = bench.verdicts(entry, benchmark["end_to_end"])
                if n >= 14:
                    assert entry["failed_share"] == summary["failed_share"], where
                    want["failed_share"] = bench.failed_share_verdict(entry)
                assert entry["verdict"] == want, where
        if n >= 15:
            assert set(record["src_lines"]) == {"parent", "change"}, n
            assert all(isinstance(v, int) and v > 0 for v in record["src_lines"].values()), n


def test_readme_code_names_resolve():
    # the README names code as `module.name` of a hyperbell submodule or as a
    # bare `_private` name; a rename or a deletion must take the README along
    import hyperbell

    modules = {info.name: importlib.import_module(f"hyperbell.{info.name}")
               for info in pkgutil.iter_modules(hyperbell.__path__)}
    checked = 0
    for name in re.findall(r"`([^`\n]+)`", (ROOT / "README.md").read_text(encoding="utf-8")):
        qualified = re.fullmatch(r"(\w+)\.(\w+)", name)
        if qualified and qualified[1] in modules:
            assert hasattr(modules[qualified[1]], qualified[2]), name
        elif re.fullmatch(r"_\w+", name):
            assert any(hasattr(module, name) for module in modules.values()), name
        else:
            continue
        checked += 1
    assert checked


@pytest.mark.parametrize("demo", ["01", "02", "03", "04", "05"])
def test_demo_runs(demo, tmp_path):
    # each demo runs as a copy in tmp_path, next to the circuit file that demo 03
    # reads, so demo 05 writes its CSV and SVG files under tmp_path, not demos/out
    (script,) = (ROOT / "demos").glob(f"{demo}_*.py")
    for path in (script, ROOT / "demos" / "hbsg.circ"):
        shutil.copy(path, tmp_path)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(tmp_path / script.name)], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    if demo == "05":
        written = {"sweep.csv", "sweep_eta_sim.svg", "sweep_leakage_rate.svg"}
        assert {p.name for p in (tmp_path / "out").iterdir()} == written
