"""Acceptance suite: one test per release criterion, printing a PASS line
with the measured numbers once the criterion's assertions hold."""

import math
import time

import mpmath
import numpy as np

from conftest import measure_op, random_state
from hyperbell.analysis import (
    SweepGrid,
    efficiency_closed_form,
    hbsa_leakage_rate,
    hbsg_branch_report,
    hbsg_statistics,
    run_sweep,
)
from hyperbell.blocks import BlockConfig, heralded_block
from hyperbell.cavity import (
    IDEAL_PAIR,
    CavityParams,
    DephasingParams,
    dephasing_penalty,
    reflection_coefficients,
)
from hyperbell.hilbert import (
    HybridState,
    StateLayout,
    apply_single_photon_op,
    apply_spin_conditional_op,
    overlap,
    product_state,
)
from hyperbell.optics import (
    Element,
    ElementKind,
    element_matrix,
    parse_circuit,
    serialize_circuit,
)
from hyperbell.protocols import (
    HBSG_OUTPUT_RAILS,
    SPIN_TO_SPATIAL,
    all_labels,
    apply_local_correction,
    hbsa_input,
    hbsa_layout,
    make_bell,
    run_hbsa,
    run_hbsa_stage1,
    run_hbsg,
)
from test_optics import random_circuit_text

EXAMPLE_PARAMS = CavityParams(g=1.0, kappa_s=0.0, gamma=0.1)


def test_criterion_1_reflection_coefficients():
    """Resonant coefficients match an independent high-precision oracle."""
    reflection_coefficients(EXAMPLE_PARAMS)  # warm up
    t0 = time.perf_counter()
    pair = reflection_coefficients(EXAMPLE_PARAMS)
    elapsed = time.perf_counter() - t0
    with mpmath.workdps(50):
        x = mpmath.mpc(0.05, 0.0)
        y = mpmath.mpc(0.5, 0.0)
        oracle = complex(1 - 1.0 * x / (x * y + 1.0))
    assert pair.r_o == -1.0 + 0.0j
    assert abs(pair.r_h - 0.951220) < 1e-6
    assert abs(pair.r_h - oracle) < 1e-15
    assert elapsed < 1e-3
    print(f"\nPASS criterion 1: r_o={pair.r_o.real}, r_h={pair.r_h.real:.9f} "
          f"(oracle {oracle.real:.9f}), runtime {elapsed * 1e6:.1f} us")


def test_criterion_2_heralded_block():
    """Block success/herald probabilities and output fidelity."""
    layout = StateLayout(photons=("A", "B"), paths=(("a1",), ("b1",)))
    state = product_state(layout, "L", "a1", "R", "b1", "+", "+")
    pair = reflection_coefficients(EXAMPLE_PARAMS)
    branches = {b.record[0][1]: b
                for b in heralded_block(state, "A", "a1", BlockConfig(qd=1, pair=pair))}
    p_success = branches["no_click"].probability
    p_herald = branches["click"].probability
    target = product_state(layout, "R", "a1", "R", "b1", "-", "+")
    fid = abs(overlap(target, branches["no_click"].residual)) ** 2
    assert abs(p_success - 0.951815) < 1e-6
    assert abs(p_herald - 0.000595) < 1e-6
    assert fid >= 1 - 1e-12
    ideal = {b.record[0][1]: b.probability
             for b in heralded_block(state, "A", "a1",
                                     BlockConfig(qd=1, pair=IDEAL_PAIR))}
    assert abs(ideal["no_click"] - 1.0) < 1e-12
    assert ideal.get("click", 0.0) < 1e-12
    print(f"\nPASS criterion 2: success={p_success:.9f}, herald={p_herald:.9f}, "
          f"fidelity={fid:.15f}, ideal=(1, 0)")


def test_criterion_3_deterministic_generation():
    """Four quarter-probability branches, all 16 states via corrections."""
    branches = run_hbsg(IDEAL_PAIR)
    assert len(branches) == 4
    for b in branches:
        assert abs(b.probability - 0.25) < 1e-10
        target = make_bell(b.label.pol, b.label.spatial, b.state.layout,
                           rails=HBSG_OUTPUT_RAILS, spins=(b.spins.e1, b.spins.e2))
        assert abs(overlap(target, b.state)) ** 2 >= 1 - 1e-12
    corrected = 0
    for b in branches:
        for target_label in all_labels():
            out = apply_local_correction(b.state, b.label, target_label,
                                         rails=HBSG_OUTPUT_RAILS)
            target = make_bell(target_label.pol, target_label.spatial,
                               b.state.layout, rails=HBSG_OUTPUT_RAILS,
                               spins=(b.spins.e1, b.spins.e2))
            assert abs(overlap(target, out)) ** 2 >= 1 - 1e-12
            corrected += 1
    print(f"\nPASS criterion 3: 4 branches at p=1/4, fidelity 1; "
          f"{corrected} corrected targets reached")


def test_criterion_4_spatial_recording_table():
    """Stage-1 spin outcomes reproduce the parity/phase table for all 16."""
    expected = {v: k for k, v in SPIN_TO_SPATIAL.items()}
    for label in all_labels():
        res = run_hbsa_stage1(hbsa_input(label))
        assert (res.spins.e1, res.spins.e2) == expected[label.spatial]
        target = make_bell(label.pol, label.spatial, hbsa_layout(),
                           spins=expected[label.spatial])
        assert abs(overlap(target, res.state.normalized())) ** 2 >= 1 - 1e-12
    print("\nPASS criterion 4: 16/16 spin records match, photonic fidelity 1")


def test_criterion_5_classifier_exhaustive():
    """Every branch of every basis input classifies back to its input."""
    t0 = time.perf_counter()
    checked = 0
    for label in all_labels():
        branches = run_hbsa(label)
        group_patterns = set()
        for b in branches:
            assert b.classified == label
            group_patterns.add((b.pattern.a, b.pattern.b))
            checked += 1
        assert len(group_patterns) == 4  # one four-pattern group per input
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"\nPASS criterion 5: {checked} branches, 100% correct, "
          f"runtime {elapsed:.3f} s")


def test_criterion_6_efficiency_formula():
    """Simulated efficiency equals the closed form over a 21x21 grid."""
    grid = SweepGrid.regular(ks_steps=21, g_steps=21)
    records = run_sweep(grid)
    max_err = 0.0
    for r in records:
        pair = reflection_coefficients(CavityParams(
            g=r.g_over_sum * (1 + r.kappa_s_over_kappa),
            kappa_s=r.kappa_s_over_kappa, gamma=0.1))
        assert abs(r.eta_closed_form - efficiency_closed_form(pair)) < 1e-15
        max_err = max(max_err, abs(r.eta_simulated - r.eta_closed_form))
        assert abs(r.eta_simulated - r.eta_closed_form) <= 1e-10
    spot = next(r for r in records
                if r.kappa_s_over_kappa == 0.0 and r.g_over_sum == 1.0)
    assert abs(spot.eta_simulated - 0.820742) <= 1e-5
    # qualitative shape: nondecreasing along coupling, nonincreasing along leakage
    by_ks = {}
    for r in records:
        by_ks.setdefault(r.kappa_s_over_kappa, []).append(r)
    for row in by_ks.values():
        etas = [r.eta_simulated for r in sorted(row, key=lambda r: r.g_over_sum)]
        assert all(b >= a - 1e-12 for a, b in zip(etas, etas[1:]))
    by_g = {}
    for r in records:
        by_g.setdefault(r.g_over_sum, []).append(r)
    for col in by_g.values():
        etas = [r.eta_simulated for r in sorted(col, key=lambda r: r.kappa_s_over_kappa)]
        assert all(b <= a + 1e-12 for a, b in zip(etas, etas[1:]))
    t0 = time.perf_counter()
    run_sweep(SweepGrid.regular())  # default 101 x 101
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"\nPASS criterion 6: max |eta_sim - eta_closed| = {max_err:.2e}, "
          f"spot value {spot.eta_simulated:.6f}, 101x101 sweep in {elapsed:.1f} s")


def test_criterion_7_unit_fidelity_and_leak_scaling():
    """Conditional fidelity 1 everywhere; analysis leakage scales as |h|^2."""
    grid = SweepGrid.regular(ks_steps=21, g_steps=21)
    worst_fid = 1.0
    for ks in grid.kappa_s_over_kappa:
        for g in grid.g_over_sum:
            pair = reflection_coefficients(CavityParams(
                g=g * (1 + ks), kappa_s=ks, gamma=0.1))
            stats = hbsg_statistics(pair)
            assert abs(stats.conditional_fidelity - 1.0) <= 1e-12
            worst_fid = min(worst_fid, stats.conditional_fidelity)
    # per-branch cross-check at a few grid points
    for ks, g in ((0.0, 1.0), (0.5, 1.25), (1.0, 2.5)):
        pair = reflection_coefficients(CavityParams(g=g * (1 + ks), kappa_s=ks,
                                                    gamma=0.1))
        for _, _, fid in hbsg_branch_report(pair):
            assert fid >= 1 - 1e-12
    # analysis leakage: first-order coefficient 4 |h|^2/|s|^2, factor-2 envelope
    checked = 0
    for ks in grid.kappa_s_over_kappa[::4]:
        for g in grid.g_over_sum[::4]:
            pair = reflection_coefficients(CavityParams(g=g * (1 + ks),
                                                        kappa_s=ks, gamma=0.1))
            s2 = abs(pair.success_amplitude) ** 2
            h2 = abs(pair.herald_amplitude) ** 2
            if s2 < 1e-12:
                continue
            rate = hbsa_leakage_rate(pair)
            pred = 4 * h2 / s2
            assert rate <= 2 * pred
            if pred <= 0.2:  # first-order validity region
                assert rate >= 0.5 * pred
            checked += 1
    # the rate vanishes with the herald amplitude
    lossless = reflection_coefficients(CavityParams(g=1.0, gamma=0.0))
    assert abs(lossless.herald_amplitude) < 1e-15
    assert hbsa_leakage_rate(lossless) < 1e-20
    print(f"\nPASS criterion 7: conditional fidelity >= {worst_fid:.15f} on 21x21; "
          f"leak scaling within factor 2 at {checked} points")


def test_criterion_8_dephasing_penalty():
    """Exciton-dephasing fidelity reduction at the published lifetimes."""
    penalty = dephasing_penalty(DephasingParams(tau=20.0, big_gamma=300.0))
    assert abs(penalty - 0.06449) <= 1e-5
    assert penalty < 0.10
    print(f"\nPASS criterion 8: penalty(20 ps, 300 ps) = {penalty:.6f} < 0.10")


def _random_passive_element(layout, rng):
    paths = layout.paths[0]
    kind = rng.choice(["hp", "z", "bs", "cpbs", "pbs"])
    if kind in ("hp", "z"):
        return Element(ElementKind(kind), photon="A", path=str(rng.choice(paths)))
    if kind == "bs":
        pair = [str(p) for p in rng.choice(paths, size=2, replace=False)]
        return Element(ElementKind.BS, photon="A", in_paths=tuple(pair),
                       out_paths=tuple(pair if rng.random() < 0.5 else pair[::-1]))
    if kind == "cpbs":
        ins = [str(p) for p in rng.choice(paths, size=int(rng.integers(1, 3)),
                                          replace=False)]
        outs = [str(p) for p in rng.choice(paths, size=2, replace=False)]
        return Element(ElementKind.CPBS, photon="A", in_paths=tuple(ins),
                       out_paths=tuple(outs))
    outs = [str(p) for p in rng.choice(paths, size=2, replace=False)]
    return Element(ElementKind.PBS, photon="A", path=str(rng.choice(paths)),
                   out_paths=tuple(outs))


def test_criterion_9_property_suites():
    """Unitarity, linearity, measurement completeness, parser round trip;
    1000 randomized cases each."""
    rng = np.random.default_rng(987654321)
    layout = StateLayout(photons=("A", "B"),
                         paths=(("a1", "a2", "a3"), ("b1", "b2")))

    for _ in range(1000):  # passive-element unitarity
        mat = element_matrix(_random_passive_element(layout, rng), layout)
        assert np.allclose(mat.conj().T @ mat, np.eye(mat.shape[0]), atol=1e-12)

    for _ in range(1000):  # linearity of operator application
        x = random_state(layout, rng)
        y = random_state(layout, rng)
        a, b = rng.normal(size=2) + 1j * rng.normal(size=2)
        combo = HybridState(layout, a * x.amps + b * y.amps)
        if rng.random() < 0.5:
            photon, n = ("A", 3) if rng.random() < 0.5 else ("B", 2)
            op = rng.normal(size=(2 * n, 2 * n)) + 1j * rng.normal(size=(2 * n, 2 * n))
            lhs = apply_single_photon_op(combo, photon, op).amps
            rhs = (a * apply_single_photon_op(x, photon, op).amps
                   + b * apply_single_photon_op(y, photon, op).amps)
        else:
            op = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            spin = int(rng.integers(1, 3))
            lhs = apply_spin_conditional_op(combo, "A", spin, op, "a1").amps
            rhs = (a * apply_spin_conditional_op(x, "A", spin, op, "a1").amps
                   + b * apply_spin_conditional_op(y, "A", spin, op, "a1").amps)
        assert np.allclose(lhs, rhs, atol=1e-12)

    for _ in range(1000):  # measurement completeness on subnormalized states
        state = random_state(layout, rng)
        state = HybridState(layout, state.amps * rng.uniform(0.2, 1.0))
        if rng.random() < 0.5:
            op = f"measure_spin qd=QD{int(rng.integers(1, 3))}"
        else:
            photon = "A" if rng.random() < 0.5 else "B"
            path = str(rng.choice(layout.paths[0 if photon == "A" else 1]))
            op = f"detector photon={photon} path={path} label=D"
        branches = measure_op(state, op)
        assert abs(sum(br.probability for br in branches) - state.norm2) < 1e-10

    for _ in range(1000):  # parser round trip
        text = random_circuit_text(rng)
        c1 = parse_circuit(text)
        serialized = serialize_circuit(c1)
        c2 = parse_circuit(serialized)
        assert c1 == c2
        assert serialize_circuit(c2) == serialized

    print("\nPASS criterion 9: unitarity, linearity, completeness, "
          "round trip: 1000 cases each")
