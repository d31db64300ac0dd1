"""Spans around hyperbell's layer boundaries, installed from outside.

The tracer replaces a public function under the name its calling module
binds (``analysis.run_circuit_tracked``, ``optics.element_matrix`` as
looked up by ``_compile``, ...) with a wrapper that records one span per
call: name, start and end (ns), parent span and op index. Spans stay in
memory and are written as JSON lines by ``write_jsonl``. Nothing under
``src/`` changes; uninstalling restores the original bindings.
"""

from __future__ import annotations

import functools
import json
from array import array
from collections import defaultdict
from time import perf_counter_ns

from hyperbell import analysis, hilbert, optics, protocols

# branches whose clean (never leaked) weight is below the runner's own
# branch-drop threshold do not count as carrying clean weight
CLEAN_WEIGHT_MIN = 1e-26

# (module, name bound there, span name)
BINDINGS = (
    (analysis, "run_sweep", "analysis.run_sweep"),
    (analysis, "sweep_point", "analysis.sweep_point"),
    (analysis, "reflection_coefficients", "cavity.reflection_coefficients"),
    (analysis, "hbsg_statistics", "analysis.hbsg_statistics"),
    (analysis, "run_circuit_tracked", "optics.run_circuit_tracked"),
    (analysis, "overlap", "hilbert.overlap"),
    (analysis, "emit_csv", "analysis.emit_csv"),
    (analysis, "emit_svg_heatmap", "analysis.emit_svg_heatmap"),
    (protocols, "run_hbsa", "protocols.run_hbsa"),
    (protocols, "classify", "protocols.classify"),
    (protocols, "hbsa_input", "protocols.hbsa_input"),
    (protocols, "run_circuit_tracked", "optics.run_circuit_tracked"),
    (protocols, "parse_circuit", "optics.parse_circuit"),
    (protocols, "apply_single_photon_op", "hilbert.apply_single_photon_op"),
    (protocols, "overlap", "hilbert.overlap"),
    (protocols, "product_state", "hilbert.product_state"),
    (protocols, "spin_vector", "hilbert.spin_vector"),
    (protocols, "zero_state", "hilbert.zero_state"),
    (optics, "element_matrix", "optics.element_matrix"),
    (optics, "parse_circuit", "optics.parse_circuit"),
    (optics, "run_circuit_tracked", "optics.run_circuit_tracked"),
    (hilbert, "product_state", "hilbert.product_state"),
)


def _runner_counts(run) -> dict:
    return {
        "branches": len(run.branches),
        "layers": sum(len(b.layers) for b in run.branches),
        "clean": sum(b.clean_weight > CLEAN_WEIGHT_MIN for b in run.branches),
    }


def _text_bytes(text: str) -> dict:
    return {"bytes": len(text.encode("utf-8"))}


# counts read off a call's result; the reading is its own "trace.inspect"
# span, so it is charged to neither the call nor its caller
INSPECTORS = {
    "optics.run_circuit_tracked": _runner_counts,
    "analysis.emit_csv": _text_bytes,
    "analysis.emit_svg_heatmap": _text_bytes,
}


class Tracer:
    """Span recorder; span ``i`` is (name, start, end, parent, op, counts).

    Spans live in flat integer arrays: compact, and never traversed by the
    garbage collector, however long the traced run.
    """

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op_of = array("q")
        self.counts: dict[int, dict] = {}
        self.op = -1
        self._name_ids: dict[str, int] = {}
        self._stack: list[int] = []
        self._saved: list = []

    def span(self, i: int) -> tuple:
        return (self.names[self.name_id[i]], self.start[i], self.end[i],
                self.parent[i], self.op_of[i], self.counts.get(i))

    def install(self):
        for module, attr, name in BINDINGS:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def run_op(self, index: int, fn, arg):
        """Run one op under a root span named ``bench.op``."""
        self.op = index
        try:
            return self._wrap("bench.op", fn)(arg)
        finally:
            self.op = -1

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, name, fn):
        # locals only on the hot path: one span costs a few microseconds
        name_id, inspect_id = self._intern(name), self._intern("trace.inspect")
        inspect = INSPECTORS.get(name)
        starts, ends, stack = self.start, self.end, self._stack
        add_name, add_parent = self.name_id.append, self.parent.append
        add_op, add_start, add_end = self.op_of.append, self.start.append, self.end.append
        tracer = self

        def open_span(span_name_id):
            index = len(starts)
            add_name(span_name_id)
            add_parent(stack[-1] if stack else -1)
            add_op(tracer.op)
            add_end(0)
            stack.append(index)
            add_start(perf_counter_ns())
            return index

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = open_span(name_id)
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter_ns()
                stack.pop()
            if inspect is not None:
                probe = open_span(inspect_id)
                tracer.counts[index] = inspect(out)
                ends[probe] = perf_counter_ns()
                stack.pop()
            return out

        return traced

    def write_jsonl(self, path, header: dict):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"header": header}) + "\n")
            for i in range(len(self.start)):
                name, start, end, parent, op, counts = self.span(i)
                rec = {"id": i, "name": name, "start_ns": start, "end_ns": end,
                       "parent": parent, "op": op}
                if counts:
                    rec["counts"] = counts
                fh.write(json.dumps(rec) + "\n")


def self_times_ns(tracer: Tracer) -> list[int]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for start, end in zip(tracer.start, tracer.end)]
    for i, parent in enumerate(tracer.parent):
        if parent >= 0:
            own[parent] -= tracer.end[i] - tracer.start[i]
    return own


def layer_metrics(tracer: Tracer, count_ops: set[int], n_timed_ops: int) -> dict:
    """Per-op layer metrics from the tracer's spans.

    Counts (calls, branches, layers, bytes) come from the ops in
    ``count_ops`` only, a seed-fixed set, so they repeat exactly from run
    to run; self times are averaged over all ``n_timed_ops`` traced ops.
    """
    self_ns = defaultdict(int)
    calls = defaultdict(int)
    counts = defaultdict(int)
    for i, own in enumerate(self_times_ns(tracer)):
        name, _, _, _, op, extra = tracer.span(i)
        layer = "hilbert" if name.startswith("hilbert.") else name
        self_ns[layer] += own
        if op in count_ops:
            calls[layer] += 1
            for key, value in (extra or {}).items():
                counts[(layer, key)] += value
    n = len(count_ops)

    def per_op_ms(layer):
        return self_ns[layer] / n_timed_ops / 1e6

    runner = "optics.run_circuit_tracked"
    out = {}
    for layer in ("optics.element_matrix", runner, "optics.parse_circuit",
                  "cavity.reflection_coefficients"):
        out[f"{layer}.calls"] = calls[layer] / n
        out[f"{layer}.self_ms"] = per_op_ms(layer)
    out[f"{runner}.branches_out"] = counts[(runner, "branches")] / n
    out[f"{runner}.layers_out"] = counts[(runner, "layers")] / n
    branches = counts[(runner, "branches")]
    out[f"{runner}.clean_branch_ratio"] = (
        counts[(runner, "clean")] / branches if branches else 0.0)
    for layer in ("analysis.sweep_point", "analysis.hbsg_statistics",
                  "analysis.emit_csv", "analysis.emit_svg_heatmap"):
        out[f"{layer}.self_ms"] = per_op_ms(layer)
    out["analysis.output_bytes"] = (counts[("analysis.emit_csv", "bytes")]
                                    + counts[("analysis.emit_svg_heatmap", "bytes")]) / n
    out["protocols.run_hbsa.self_ms"] = per_op_ms("protocols.run_hbsa")
    out["protocols.classify.calls"] = calls["protocols.classify"] / n
    out["protocols.classify.self_ms"] = per_op_ms("protocols.classify")
    out["protocols.hbsa_input.self_ms"] = per_op_ms("protocols.hbsa_input")
    out["hilbert.calls"] = calls["hilbert"] / n
    out["hilbert.self_ms"] = per_op_ms("hilbert")
    return out
