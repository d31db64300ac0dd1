"""hyperbell benchmark: seeded closed-loop workloads, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload sweep|analyze|circuits \
        --seed N --seconds S --trace 0|1

One caller in one process issues each op when the previous one returns.
The script runs the workload in fresh interpreters with ``PYTHONPATH=src``
and BLAS and OpenMP pinned to one thread. With ``--trace 0`` it splits
the run over CHILDREN interpreters and reports the end-to-end metrics:
set-up time, throughput, median op latency and peak RSS, with times
scaled by the reference kernel (see reference.py). With ``--trace 1`` one
interpreter runs every op untraced and traced and reports per-layer
metrics derived from spans, which it writes to
``perfbench/out/trace-<workload>.jsonl``. The last line of standard
output is a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CHILDREN = 5             # fresh interpreters per untraced run
FIRST_OP_STRIDE = 1 << 20  # child k starts at op k * stride: whole blocks, no overlap
DEADLINE_S = 170.0       # the whole run, children included
SETUP_REFERENCE_S = 0.25   # reference kernel burst after set-up
REFERENCE_TICK_S = 0.025   # one reference unit per tick while ops run
REFERENCE_MARGIN_S = 0.25  # an op is scaled by the units this close to it
TAIL_LADDER = (0.999, 0.99, 0.9)
TAIL_MIN_BEYOND = 10

WORKLOAD_NAMES = ("sweep", "analyze", "circuits")
ITEM_NAMES = {"sweep": "sweep_points_per_s", "analyze": "hbsa_runs_per_s",
              "circuits": "circuit_runs_per_s"}
END_TO_END_UNITS = {"setup_s": "s", "items_per_s": "1/s", "call_p50_ms": "ms",
                    "peak_rss_mb": "MB"}


def per_layer_unit(name: str) -> str:
    for suffix, unit in (("_ms", "ms"), ("_ratio", "ratio"), ("_bytes", "bytes")):
        if name.endswith(suffix):
            return unit
    return "count"


# ---------------------------------------------------------------------------
# child: one fresh interpreter that sets up, warms up and runs ops

def _monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _run_one(workload, index: int, tracer=None) -> tuple[bool, float, float]:
    """Run op ``index``; time only the op, check its output afterwards.

    Returns (passed, op start, op seconds).
    """
    arg = workload.make_input(index)
    start = time.perf_counter()
    try:
        if tracer is None:
            out = workload.op(arg)
        else:
            out = tracer.run_op(index, workload.op, arg)
    except Exception:
        elapsed = time.perf_counter() - start
        traceback.print_exc()
        return False, start, elapsed
    elapsed = time.perf_counter() - start
    try:
        ok = bool(workload.check(arg, out))
    except Exception:
        traceback.print_exc()
        ok = False
    if not ok:
        print(f"{workload.name}: op {index} failed its check", file=sys.stderr)
    return ok, start, elapsed


def _measure(workload, first_op: int, seconds: float) -> dict:
    """Closed loop for ``seconds``, rounded up to whole blocks of ops.

    The reference kernel samples the machine's speed on a timer meanwhile;
    its own time is taken out of each op's, and each op is scaled by the
    speed measured around it.
    """
    import resource

    from reference import ReferenceClock

    clock = ReferenceClock()
    spans, failed = [], 0
    with clock.sampling(REFERENCE_TICK_S):
        start = time.perf_counter()
        index = first_op
        while True:
            ok, op_start, elapsed = _run_one(workload, index)
            spans.append((op_start, elapsed))
            failed += not ok
            index += 1
            if index % workload.block == 0 and time.perf_counter() - start >= seconds:
                break
    raw, scaled = [], []
    for op_start, elapsed in spans:
        op_end = op_start + elapsed
        net = elapsed - clock.seconds_within(op_start, op_end)
        raw.append(net)
        scaled.append(net * clock.speed_near(op_start, op_end, REFERENCE_MARGIN_S))
    return {
        "attempted": len(spans),
        "failed": failed,
        "items": workload.items_per_op * len(spans),
        "raw_s": raw,
        "scaled_s": scaled,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _measure_traced(workload, seconds: float, context: dict) -> dict:
    """Run each op untraced and traced, in alternating order, for whole
    blocks of ops until ``seconds`` have passed.

    The two runs of an op follow each other, so their time ratio is the
    tracing overhead with little of the host's drift in it. Counts come
    from the first block only, a seed-fixed set of ops, so they repeat
    exactly from run to run.
    """
    from spans import Tracer, layer_metrics

    tracer = Tracer()
    seconds_by_pass = {False: 0.0, True: 0.0}
    failed = index = 0
    start = time.perf_counter()
    while index % workload.block or time.perf_counter() - start < seconds:
        for traced in ((False, True) if index % 2 == 0 else (True, False)):
            if traced:
                tracer.install()
            try:
                ok, _, elapsed = _run_one(workload, index, tracer if traced else None)
            finally:
                tracer.uninstall()
            seconds_by_pass[traced] += elapsed
            failed += not ok
        index += 1
    metrics = layer_metrics(tracer, set(range(workload.block)), index)
    metrics["trace.overhead_ratio"] = seconds_by_pass[False] / seconds_by_pass[True]
    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    tracer.write_jsonl(out_dir / f"trace-{workload.name}.jsonl",
                       dict(context, traced_ops=index, count_ops=workload.block))
    return {"attempted": 2 * index, "failed": failed, "layers": metrics}


def child(args) -> int:
    import hyperbell

    if not Path(hyperbell.__file__).resolve().is_relative_to(SRC):
        print(f"hyperbell imported from {hyperbell.__file__}, not from {SRC}",
              file=sys.stderr)
        return 3
    import numpy

    from reference import ReferenceClock
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    warm_ok, _, _ = _run_one(workload, -1)  # own random stream, never a timed input
    gc.collect()
    raw_setup_s = _monotonic() - args.t0
    clock = ReferenceClock()
    clock.run_for(SETUP_REFERENCE_S)
    report = {"setup_s": raw_setup_s * clock.speed, "raw_setup_s": raw_setup_s,
              "warmup_ok": warm_ok,
              "python": platform.python_version(), "numpy": numpy.__version__}
    if args.trace:
        context = {"workload": args.workload, "seed": args.seed}
        report.update(_measure_traced(workload, args.seconds, context))
    else:
        report.update(_measure(workload, args.first_op, args.seconds))
    print(json.dumps(report))
    return 0


# ---------------------------------------------------------------------------
# parent: the children, the report

def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _run_child(args, seconds: float, first_op: int, deadline: float) -> dict:
    remaining = deadline - _monotonic()
    if remaining <= 0:
        raise RuntimeError("deadline passed before the last child started")
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--child",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--trace", str(args.trace),
           "--first-op", str(first_op), "--t0", repr(_monotonic())]
    proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE,
                          text=True, timeout=remaining, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"child exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("child printed no report")
    return json.loads(lines[-1])


def _commit() -> str | None:
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).is_file():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _tail(scaled: list[float], raw: list[float]) -> dict | None:
    """Highest ladder percentile with at least TAIL_MIN_BEYOND samples beyond it."""
    n = len(scaled)
    for p in TAIL_LADDER:
        rank = math.ceil(p * n)
        if n - rank >= TAIL_MIN_BEYOND:
            return {"percentile": p, "ms": sorted(scaled)[rank - 1] * 1e3,
                    "raw_ms": sorted(raw)[rank - 1] * 1e3, "count": n}
    return None


def _end_to_end(workload: str, reports: list[dict]) -> dict:
    """Pool the children's ops and print the end-to-end report lines."""
    items = sum(r["items"] for r in reports)
    scaled = [t for r in reports for t in r["scaled_s"]]
    raw = [t for r in reports for t in r["raw_s"]]
    values = {
        "setup_s": statistics.median(r["setup_s"] for r in reports),
        "items_per_s": items / sum(scaled),
        "call_p50_ms": statistics.median(scaled) * 1e3,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reports),
    }
    print("# times scaled to the reference kernel's nominal speed; raw in brackets")
    print(f"{ITEM_NAMES[workload]:24s} {values['items_per_s']:.6g} 1/s  "
          f"[{items / sum(raw):.6g}]  (items_per_s)")
    print(f"{'call_p50_ms':24s} {values['call_p50_ms']:.6g} ms  "
          f"[{statistics.median(raw) * 1e3:.6g}]  (n={len(scaled)})")
    tail = _tail(scaled, raw)
    if tail:
        print(f"{'call_tail_ms':24s} {tail['ms']:.6g} ms  [{tail['raw_ms']:.6g}]  "
              f"(p{100 * tail['percentile']:g}, n={tail['count']})")
    else:
        print(f"{'call_tail_ms':24s} omitted: {len(scaled)} ops leave fewer than "
              f"{TAIL_MIN_BEYOND} beyond p90")
    print(f"{'setup_s':24s} {values['setup_s']:.6g} s  "
          f"[{statistics.median(r['raw_setup_s'] for r in reports):.6g}]  "
          f"(median of {len(reports)} fresh interpreters)")
    print(f"{'peak_rss_mb':24s} {values['peak_rss_mb']:.6g} MB  "
          f"(median of {len(reports)})")
    return {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in values.items()}


def parent(args) -> int:
    if not (SRC / "hyperbell" / "__init__.py").is_file():
        print(f"no hyperbell sources under {SRC}", file=sys.stderr)
        return 2
    deadline = _monotonic() + DEADLINE_S
    if args.trace:
        reports = [_run_child(args, args.seconds, 0, deadline)]
    else:
        reports = [_run_child(args, args.seconds / CHILDREN, k * FIRST_OP_STRIDE, deadline)
                   for k in range(CHILDREN)]
    context = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "nproc": os.cpu_count(),
               "cpu_affinity": len(os.sched_getaffinity(0)), "cpu": _cpu_model(),
               "python": reports[0]["python"], "numpy": reports[0]["numpy"],
               "commit": _commit()}
    print("# context " + json.dumps(context))
    # every child's warm-up op is checked and counted too
    attempted = sum(r["attempted"] + 1 for r in reports)
    failed = sum(r["failed"] + (not r["warmup_ok"]) for r in reports)
    if args.trace:
        metrics = {name: {"value": value, "unit": per_layer_unit(name)}
                   for name, value in reports[0]["layers"].items()}
        for name, m in metrics.items():
            print(f"{name:48s} {m['value']:.6g} {m['unit']}")
    else:
        metrics = _end_to_end(args.workload, reports)
    print(f"{'failed_ratio':24s} {failed / attempted:.6g}  ({failed}/{attempted})")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--first-op", type=int, default=0, help=argparse.SUPPRESS)
    ap.add_argument("--t0", type=float, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        return child(args)
    try:
        return parent(args)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
