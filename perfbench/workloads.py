"""The three benchmark workloads: seeded inputs, the timed op, its check.

Each workload maps an op index to an input with its own seeded random
stream, so op ``i`` of seed ``s`` is the same on every run and any range
of indices can be replayed or skipped. Runs cover whole blocks of
``block`` ops, inside which the mix of input classes is fixed. Input
generation and the correctness check run outside the timed op. Every call into hyperbell
goes through a module attribute, so the tracer's wrappers see it.
"""

from __future__ import annotations

import random

from hyperbell import analysis, cavity, hilbert, optics, protocols

GRID_STEPS = 41
LABELS_PER_POINT = 16
POINTS_PER_IDEAL = 8     # one analysis point in eight uses IDEAL_PAIR
PROB_TOL = 1e-10

# (paths of photon A, paths of photon B, op count, detectors, spin
# measurements) per circuit class; op i uses class (i // 2) % 8, so each
# class runs at both pairs. Fixing the measurement and quantum-dot counts
# per class keeps the branch and leak-layer counts, and so the cost, of a
# block of circuits steady.
CIRCUIT_SHAPES = ((2, 2, 20, 1, 1), (3, 3, 24, 2, 1), (4, 4, 28, 3, 2),
                  (5, 5, 32, 2, 2), (2, 5, 26, 3, 1), (5, 2, 26, 1, 2),
                  (3, 4, 36, 2, 1), (4, 3, 36, 3, 2))
PASSIVE_KINDS = ("cpbs", "pbs", "bs", "hp", "z", "wfc")
QD_KINDS = ("qdarm", "parity")
DETECTOR_KINDS = ("detector", "heralded")


def _rng(seed: int, stream: str, index: int) -> random.Random:
    return random.Random(f"{seed}:{stream}:{index}")


def _lossy_pair(rng: random.Random) -> cavity.ReflectionPair:
    """A cavity point of the default sweep domain with g > 0."""
    kappa_s = rng.uniform(0.0, 1.0)
    g_over_sum = rng.uniform(0.05, 2.5)
    params = cavity.CavityParams(g=g_over_sum * (kappa_s + 1.0), kappa_s=kappa_s,
                                 gamma=rng.uniform(0.05, 0.15))
    return cavity.reflection_coefficients(params)


class Sweep:
    """One ``hyperbell sweep --svg`` on a fresh seeded 41x41 grid per op."""

    name = "sweep"
    items_per_op = GRID_STEPS * GRID_STEPS
    block = 1

    def __init__(self, seed: int):
        self.seed = seed

    def make_input(self, i: int) -> analysis.SweepGrid:
        rng = _rng(self.seed, "grid", i)
        return analysis.SweepGrid.regular(
            ks_min=rng.uniform(0.0, 0.1), ks_max=rng.uniform(0.8, 1.2),
            ks_steps=GRID_STEPS,
            g_min=0.0, g_max=rng.uniform(2.0, 3.0), g_steps=GRID_STEPS,
            gamma_over_kappa=rng.uniform(0.05, 0.15))

    @staticmethod
    def op(grid):
        records = analysis.run_sweep(grid)
        return records, analysis.emit_csv(records), analysis.emit_svg_heatmap(records)

    @staticmethod
    def check(grid, out) -> bool:
        records, csv_text, _ = out
        if len(records) != GRID_STEPS * GRID_STEPS:
            return False
        for r in records:
            if abs(r.eta_simulated - abs((r.r_o - r.r_h) / 2) ** 8) > PROB_TOL:
                return False
        return analysis.parse_csv(csv_text) == records


class Analyze:
    """``run_hbsa`` over all 16 labels, in seeded order, per cavity point."""

    name = "analyze"
    items_per_op = 1
    block = LABELS_PER_POINT * POINTS_PER_IDEAL

    def __init__(self, seed: int):
        self.seed = seed

    def make_input(self, i: int):
        point, k = divmod(i, LABELS_PER_POINT)
        group, slot = divmod(point, POINTS_PER_IDEAL)
        if slot == _rng(self.seed, "ideal-slot", group).randrange(POINTS_PER_IDEAL):
            pair = cavity.IDEAL_PAIR
        else:
            pair = _lossy_pair(_rng(self.seed, "point", point))
        labels = protocols.all_labels()
        _rng(self.seed, "label-order", point).shuffle(labels)
        return labels[k], pair

    @staticmethod
    def op(arg):
        label, pair = arg
        return protocols.run_hbsa(label, pair)

    @staticmethod
    def check(arg, branches) -> bool:
        label, pair = arg
        eta = abs(pair.success_amplitude) ** 8
        if abs(sum(b.clean_weight for b in branches) - eta) > PROB_TOL:
            return False
        return all(b.classified == label for b in branches
                   if b.clean_weight > PROB_TOL * eta)


def random_circuit(rng: random.Random, n_a: int, n_b: int, n_ops: int,
                   n_detectors: int, n_spins: int) -> str:
    """Circuit text over every element kind and both block modes.

    It holds ``n_detectors`` detectors or heralded blocks, ``n_spins``
    spin measurements and ``n_ops // 4`` bare or parity quantum-dot arms
    at random places, so a run has at most 2**(n_detectors + n_spins)
    branches; the other ops are passive elements.
    """
    paths = {"A": [f"a{k}" for k in range(n_a)], "B": [f"b{k}" for k in range(n_b)]}
    n_qd = n_ops // 4
    kinds = ([rng.choice(DETECTOR_KINDS) for _ in range(n_detectors)]
             + ["measure_spin"] * n_spins
             + [rng.choice(QD_KINDS) for _ in range(n_qd)]
             + [rng.choice(PASSIVE_KINDS)
                for _ in range(n_ops - n_detectors - n_spins - n_qd)])
    rng.shuffle(kinds)
    lines = [f"qd Q1 basis={rng.choice('+-')}", f"qd Q2 basis={rng.choice('+-')}",
             f"photon A paths={','.join(paths['A'])}",
             f"photon B paths={','.join(paths['B'])}"]
    detectors = 0
    for kind in kinds:
        photon = rng.choice("AB")
        ps = paths[photon]
        qd = rng.choice(("Q1", "Q2"))
        at = f"photon={photon} path={rng.choice(ps)}"
        if kind in ("hp", "z"):
            lines.append(f"op {kind} {at}")
        elif kind == "qdarm":
            lines.append(f"op qdarm {at} qd={qd}")
        elif kind == "wfc":
            lines.append(f"op wfc {at}" + (f" qd={qd}" if rng.random() < 0.5 else ""))
        elif kind == "pbs":
            lines.append(f"op pbs {at} out={','.join(rng.sample(ps, 2))}")
        elif kind == "bs":
            ins = rng.sample(ps, 2)
            rest = [q for q in ps if q not in ins]
            outs = rng.sample(rest, 2) if len(rest) >= 2 and rng.random() < 0.5 \
                else rng.sample(ins, 2)
            lines.append(f"op bs photon={photon} in={','.join(ins)} out={','.join(outs)}")
        elif kind == "cpbs":
            ins = rng.sample(ps, rng.choice((1, 2)))
            outs = rng.sample(ps, 2) if len(ins) == 1 else rng.sample(ins, 2)
            lines.append(f"op cpbs photon={photon} in={','.join(ins)} out={','.join(outs)}")
        elif kind == "parity":
            lines.append(f"block mode=parity qd={qd} {at}")
        elif kind == "detector":
            lines.append(f"op detector {at} label=k{detectors}")
            detectors += 1
        elif kind == "heralded":
            lines.append(f"block mode=heralded qd={qd} {at} label=k{detectors}")
            detectors += 1
        else:
            lines.append(f"op measure_spin qd={qd}")
    return "\n".join(lines) + "\n"


class Circuits:
    """Parse a fresh circuit text and run it once from a seeded product input."""

    name = "circuits"
    items_per_op = 1
    block = 2 * len(CIRCUIT_SHAPES) * 8

    def __init__(self, seed: int):
        self.seed = seed

    def make_input(self, i: int):
        rng = _rng(self.seed, "circuit", i)
        n_a, n_b, n_ops, n_detectors, n_spins = CIRCUIT_SHAPES[(i // 2) % len(CIRCUIT_SHAPES)]
        text = random_circuit(rng, n_a, n_b, n_ops, n_detectors, n_spins)
        product = (rng.choice("RLHV"), f"a{rng.randrange(n_a)}",
                   rng.choice("RLHV"), f"b{rng.randrange(n_b)}",
                   rng.choice(("+", "-", "up", "down")),
                   rng.choice(("+", "-", "up", "down")))
        pair = cavity.IDEAL_PAIR if i % 2 == 0 else _lossy_pair(rng)
        return text, product, pair

    @staticmethod
    def op(arg):
        text, product, pair = arg
        circuit = optics.parse_circuit(text)
        state = hilbert.product_state(circuit.layout(), *product)
        return state, optics.run_circuit_tracked(circuit, state, pair)

    @staticmethod
    def check(arg, out) -> bool:
        _, _, pair = arg
        state, run = out
        total = sum(tb.probability for tb in run.branches)
        if pair == cavity.IDEAL_PAIR:
            return abs(total - state.norm2) <= PROB_TOL
        return total <= state.norm2 + PROB_TOL


WORKLOADS = {w.name: w for w in (Sweep, Analyze, Circuits)}
