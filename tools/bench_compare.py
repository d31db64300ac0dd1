"""Benchmark a parent commit against the working tree and write a BENCH file.

Run from the repository root:

    python3 tools/bench_compare.py --out BENCH_<n>.json

Run it before committing the change: the parent is HEAD, whose committed
files are exported with ``git archive`` into a temporary directory, and
the change is the working tree as it is. For each workload of
BENCHMARK.json and each of the seeds 11-20, both sides run
``perfbench/run.py --trace 0`` for the benchmark's ``run_seconds``, the
side that goes first alternating from seed to seed. Of each run the
script keeps the ``# context`` line and the last line, the JSON report.
The BENCH file holds, per workload, the seeds, every pair of reports,
and per side the median and quartiles of each end-to-end metric, with
the change's median over the parent's, the number of pairs in which the
change did better, and a verdict per metric:

- ``gain``: the change did better in at least 9 of 10 pairs, and its
  median is better than the parent's by more than the parent's
  interquartile range;
- ``worse``: the change's median is worse than the parent's by more than
  the metric's ``bound`` in BENCHMARK.json, a share of the parent's;
- ``within bound`` otherwise.

Per workload it also keeps each side's failed share, the failed ops over
the attempted ones summed over the pairs, with the verdict ``worse``
when the change's share is larger than the parent's and ``within
bound`` otherwise.

The file also records ``src_lines``: the lines of ``src/hyperbell/*.py``
in the exported parent and in the working tree, the net line count by
which a simplification is scored. The script ends with a table of the
medians and verdicts, and the two line counts under it. Stdlib only.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONTEXT_PREFIX = "# context "
PARENT = "HEAD"
SEEDS = range(11, 21)
COMMIT_NOTE = ("context.commit is the HEAD of the checkout a run started in, not the "
               "side's code: null for the parent, exported without .git, and the "
               "parent's own hash for the change, which runs in the working tree.")


def parse_run(stdout: str) -> dict:
    """The context and the report of one perfbench/run.py run."""
    lines = stdout.strip().splitlines()
    (context,) = [json.loads(ln[len(CONTEXT_PREFIX):]) for ln in lines
                  if ln.startswith(CONTEXT_PREFIX)]
    return {"context": context, "report": json.loads(lines[-1])}


def _directions(benchmark: dict) -> dict[str, str]:
    return {m["name"]: m["better"] for m in benchmark["end_to_end"]}


def summarize(pairs: list[dict], directions: dict[str, str]) -> dict:
    """One workload's entry from its pairs of runs.

    A pair is {"seed", "first": "parent" | "change", "parent": run,
    "change": run}, each run as parse_run returns it.
    """
    sides = ("parent", "change")
    values = {side: {name: [p[side]["report"]["metrics"][name]["value"] for p in pairs]
                     for name in directions} for side in sides}
    entry = {
        "seeds": [p["seed"] for p in pairs],
        "context": {side: pairs[0][side]["context"] for side in sides},
        "failed": {side: sum(p[side]["report"]["failed"] for p in pairs) for side in sides},
        "attempted": {side: sum(p[side]["report"]["attempted"] for p in pairs)
                      for side in sides},
        "median": {side: {name: statistics.median(v) for name, v in values[side].items()}
                   for side in sides},
        "quartiles": {side: {name: _quartiles(v) for name, v in values[side].items()}
                      for side in sides},
    }
    entry["failed_share"] = {side: entry["failed"][side] / entry["attempted"][side]
                             if entry["attempted"][side] else 0.0 for side in sides}
    entry["change_over_parent"] = {
        name: entry["median"]["change"][name] / entry["median"]["parent"][name]
        for name in directions}
    entry["change_better_pairs"] = {
        name: sum((c < p) if better == "lower" else (c > p)
                  for p, c in zip(values["parent"][name], values["change"][name]))
        for name, better in directions.items()}
    entry["pairs"] = pairs
    return entry


def verdicts(entry: dict, end_to_end: list[dict]) -> dict[str, str]:
    """The verdict on each end-to-end metric of a summarized workload entry."""
    out = {}
    n = len(entry["seeds"])
    for metric in end_to_end:
        name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
        parent, change = entry["median"]["parent"][name], entry["median"]["change"][name]
        q1, q3 = entry["quartiles"]["parent"][name]
        if 10 * entry["change_better_pairs"][name] >= 9 * n and sign * (change - parent) > q3 - q1:
            out[name] = "gain"
        elif sign * (change - parent) < -metric["bound"] * abs(parent):
            out[name] = "worse"
        else:
            out[name] = "within bound"
    return out


def failed_share_verdict(entry: dict) -> str:
    """``worse`` if the change failed a larger share of its ops than the parent."""
    share = entry["failed_share"]
    return "worse" if share["change"] > share["parent"] else "within bound"


def verdict_table(workloads: dict) -> str:
    """One row per workload and verdict: the end-to-end metrics' medians and
    better pairs, and the failed share of each side."""
    rows = [("workload", "metric", "parent", "change", "change/parent", "better", "verdict")]
    for workload, entry in workloads.items():
        n = len(entry["seeds"])
        for name, verdict in entry["verdict"].items():
            if name == "failed_share":
                rows.append((workload, name, f"{entry[name]['parent']:.6g}",
                             f"{entry[name]['change']:.6g}", "-", "-", verdict))
                continue
            rows.append((workload, name, f"{entry['median']['parent'][name]:.6g}",
                         f"{entry['median']['change'][name]:.6g}",
                         f"{entry['change_over_parent'][name]:.4f}",
                         f"{entry['change_better_pairs'][name]}/{n}", verdict))
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    return "\n".join("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
                     for row in rows)


def src_lines(checkout: Path) -> int:
    """Lines of src/hyperbell/*.py in a checkout, counted as ``wc -l`` does."""
    return sum(path.read_bytes().count(b"\n")
               for path in (checkout / "src" / "hyperbell").glob("*.py"))


def _quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def _git(*args: str, **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          **kwargs)


def _export(rev: str, into: Path) -> str:
    """Extract the committed files of rev into a directory; return its hash."""
    sha = _git("rev-parse", "--verify", f"{rev}^{{commit}}", text=True).stdout.strip()
    archive = _git("archive", "--format=tar", sha).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into)
    return sha


def _run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} in {checkout}: exit "
                           f"{done.returncode}\n{done.stderr[-2000:]}")
    return parse_run(done.stdout)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--out", required=True, type=Path)
    args = ap.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    directions = _directions(benchmark)
    seconds = float(benchmark["run_seconds"])
    dirty = bool(_git("status", "--porcelain", text=True).stdout)
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        parent_sha = _export(PARENT, Path(tmp))
        checkouts = {"parent": Path(tmp), "change": ROOT}
        out = {
            "command": f"python3 perfbench/run.py --workload W --seed S "
                       f"--seconds {seconds:g} --trace 0",
            "parent": parent_sha,
            "change": parent_sha + ("+working-tree" if dirty else ""),
            "note": COMMIT_NOTE,
            "src_lines": {side: src_lines(path) for side, path in checkouts.items()},
            "workloads": {},
        }
        for workload in (w["name"] for w in benchmark["workloads"]):
            pairs = []
            for k, seed in enumerate(SEEDS):
                order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = _run(checkouts[side], workload, seed, seconds)
                    print(f"{workload} seed {seed} {side}: " + ", ".join(
                        f"{name} {m['value']:.6g}"
                        for name, m in pair[side]["report"]["metrics"].items()),
                        flush=True)
                pairs.append(pair)
            entry = summarize(pairs, directions)
            entry["verdict"] = verdicts(entry, benchmark["end_to_end"])
            entry["verdict"]["failed_share"] = failed_share_verdict(entry)
            out["workloads"][workload] = entry
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    print(verdict_table(out["workloads"]))
    lines = out["src_lines"]
    print(f"src/hyperbell lines: parent {lines['parent']}, change {lines['change']} "
          f"({lines['change'] - lines['parent']:+d})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
