import dataclasses
import inspect
import math
import warnings
from collections import Counter

import numpy as np
import pytest

from test_records import _superposition
from hyperbell.cavity import IDEAL_PAIR, CavityParams, ReflectionPair, reflection_coefficients
from hyperbell.errors import (
    ConfigurationError,
    InconsistentOutcomeError,
    NumericDomainError,
    PreconditionError,
)
from hyperbell.hilbert import HybridState, overlap, product_state
from hyperbell.optics import (
    _BRANCH_DROP,
    ElementKind,
    _evaluate,
    _surviving,
    _weight,
    layer_s_degrees,
    monomial_support,
    parse_circuit,
    run_circuit_tracked,
    serialize_circuit,
)
from hyperbell import protocols
from hyperbell.protocols import (
    Bell,
    DetectorPattern,
    HBSG_OUTPUT_RAILS,
    HBSG_OUTPUT_TABLE,
    HbsaBranch,
    HyperBellLabel,
    SPIN_TO_SPATIAL,
    SpinOutcome,
    all_labels,
    apply_local_correction,
    classification_table,
    classify,
    hbsa_full_circuit,
    hbsa_input,
    hbsa_layout,
    hbsg_circuit,
    hbsg_input,
    make_bell,
    parse_label,
    run_hbsa,
    run_hbsa_stage1,
    run_hbsg,
)

SQ2 = np.sqrt(2.0)
EXAMPLE_PAIR = reflection_coefficients(CavityParams(g=1.0, gamma=0.1))
_LAST_DETECTOR = "op detector photon=B path=b2m label=b2-\n"  # HBSA_FULL_TEXT's last line


class TestMakeBell:
    def test_phi_plus_phi_plus_amplitudes(self, small_layout):
        state = make_bell(Bell.PHI_PLUS, Bell.PHI_PLUS, small_layout,
                          spins=("up", "up"))
        # (RR + LL)(a1b1 + a2b2)/2 on the (up, up) spin configuration
        expected = {
            (0, 0, 0, 0), (0, 1, 0, 1), (1, 0, 1, 0), (1, 1, 1, 1),
        }
        for idx in np.ndindex(2, 2, 2, 2):
            amp = state.amps[idx[0], idx[1], idx[2], idx[3], 0, 0]
            want = 0.5 if idx in expected else 0.0
            assert abs(amp - want) < 1e-15

    def test_distinct_labels_orthogonal(self, small_layout):
        a = make_bell(Bell.PSI_PLUS, Bell.PHI_MINUS, small_layout)
        b = make_bell(Bell.PSI_PLUS, Bell.PSI_MINUS, small_layout)
        assert abs(overlap(a, b)) < 1e-15

    def test_sixteen_states_form_orthonormal_basis(self, small_layout):
        # oracle: the 16x16 Gram matrix must be the identity
        states = [make_bell(l.pol, l.spatial, small_layout) for l in all_labels()]
        gram = np.array([[overlap(a, b) for b in states] for a in states])
        np.testing.assert_allclose(gram, np.eye(16), atol=1e-14)

    def test_rail_pair_repeating_a_path_rejected(self, small_layout):
        # both rail components on one path would not be a Bell state
        label = HyperBellLabel(Bell.PHI_PLUS, Bell.PHI_PLUS)
        for rails in ((("a1", "a1"), ("b1", "b2")), (("a1", "a2"), ("b2", "b2"))):
            with pytest.raises(ConfigurationError, match="repeats a path"):
                make_bell(label.pol, label.spatial, small_layout, rails)
            with pytest.raises(ConfigurationError, match="repeats a path"):
                apply_local_correction(make_bell(label.pol, label.spatial, small_layout),
                                       label, label, rails)

    def test_parse_label(self):
        assert parse_label("phi+,psi-") == HyperBellLabel(Bell.PHI_PLUS, Bell.PSI_MINUS)
        with pytest.raises(ConfigurationError):
            parse_label("phi+")
        with pytest.raises(ConfigurationError):
            parse_label("tau+,phi-")


class TestHbsg:
    def test_overflow_is_numeric_domain_error(self):
        # at r_o = r_h = 1e200, s = 0 and h^2 overflows: the runner dropped the
        # branches of weight nan and returned none
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericDomainError, match="overflows"):
                run_hbsg(ReflectionPair(1e200, 1e200))
        # |r| > 1 stays legal where nothing overflows
        branches = run_hbsg(ReflectionPair(1e30, 1e30))
        assert branches and all(math.isfinite(b.probability) for b in branches)

    def test_heralded_branch_has_no_label(self):
        branches = run_hbsg(EXAMPLE_PAIR)
        heralded = [b for b in branches if b.heralds]
        assert heralded and all(b.label is None for b in heralded)
        assert all(b.label == HBSG_OUTPUT_TABLE[b.spins.e1, b.spins.e2]
                   for b in branches if not b.heralds)

    def test_ideal_run_four_quarter_branches(self):
        branches = run_hbsg()
        assert len(branches) == 4
        seen = set()
        for b in branches:
            assert not b.heralds
            assert abs(b.probability - 0.25) < 1e-10
            target = make_bell(b.label.pol, b.label.spatial, b.state.layout,
                               rails=HBSG_OUTPUT_RAILS,
                               spins=(b.spins.e1, b.spins.e2))
            assert abs(overlap(target, b.state)) ** 2 >= 1 - 1e-12
            seen.add((b.spins.e1, b.spins.e2))
        assert seen == set(HBSG_OUTPUT_TABLE)

    def test_ideal_run_has_zero_herald_probability(self):
        circuit = hbsg_circuit()
        run = run_circuit_tracked(circuit, hbsg_input(circuit), IDEAL_PAIR)
        assert sum(run.click_probability.values()) < 1e-20

    def test_example_pair_total_success(self):
        branches = run_hbsg(EXAMPLE_PAIR)
        success = sum(b.clean_weight for b in branches if not b.heralds)
        assert abs(success - (40 / 41) ** 8) < 1e-12
        assert abs(success - 0.820742) < 1e-5

    def test_output_correspondence_is_the_published_table(self):
        assert HBSG_OUTPUT_TABLE[("+", "+")] == HyperBellLabel(Bell.PHI_PLUS, Bell.PHI_PLUS)
        assert HBSG_OUTPUT_TABLE[("+", "-")] == HyperBellLabel(Bell.PSI_MINUS, Bell.PSI_MINUS)
        assert HBSG_OUTPUT_TABLE[("-", "+")] == HyperBellLabel(Bell.PSI_PLUS, Bell.PHI_MINUS)
        assert HBSG_OUTPUT_TABLE[("-", "-")] == HyperBellLabel(Bell.PHI_MINUS, Bell.PSI_PLUS)

    def test_state_before_rail_interference(self):
        # checkpoint: definite polarization per rail, spin 1 carrying parity
        circuit = hbsg_circuit()
        first_bs = next(i for i, el in enumerate(circuit.ops)
                        if el.kind == ElementKind.BS)
        truncated = dataclasses.replace(circuit, ops=circuit.ops[:first_bs])
        run = run_circuit_tracked(truncated, hbsg_input(circuit), IDEAL_PAIR)
        (branch,) = run.branches
        state = branch.physical_state()
        layout = circuit.layout()
        expected = HybridState(layout, 0.5 * (
            product_state(layout, "L", "a1", "L", "b1", "+", "+").amps
            + product_state(layout, "L", "a1", "R", "b2", "-", "+").amps
            + product_state(layout, "R", "a2", "L", "b1", "-", "+").amps
            + product_state(layout, "R", "a2", "R", "b2", "+", "+").amps))
        # term-for-term equality after removing the global phase
        phase = overlap(expected, state)
        np.testing.assert_allclose(state.amps, phase * expected.amps, atol=1e-12)
        assert abs(abs(phase) - 1.0) < 1e-12

    def test_serialized_circuit_round_trips(self):
        circuit = hbsg_circuit()
        assert parse_circuit(serialize_circuit(circuit)) == circuit

    def test_heralds_add_no_paths(self):
        # each stage-1 herald is an L detector on the block's own path
        circuit = hbsg_circuit()
        assert circuit.layout().shape == (2, 4, 2, 4, 2, 2)
        lines = serialize_circuit(circuit).splitlines()
        assert "photon A paths=a1,a2,c1,c2" in lines
        assert "op detector photon=A path=a1 label=D1A pol=L" in lines
        assert "op detector photon=B path=b1 label=D1B pol=L" in lines

    def test_shipped_circuit_file_matches_builtin(self):
        from pathlib import Path

        path = Path(__file__).resolve().parent.parent / "demos" / "hbsg.circ"
        assert parse_circuit(path.read_text()) == hbsg_circuit()

    def test_shipped_circuit_file_round_trips(self):
        # demos/hbsg.circ serializes to the same canonical text as HBSG_CIRCUIT_TEXT,
        # and that text parses back to the circuit
        from pathlib import Path

        path = Path(__file__).resolve().parent.parent / "demos" / "hbsg.circ"
        text = serialize_circuit(parse_circuit(path.read_text()))
        assert text == serialize_circuit(parse_circuit(protocols.HBSG_CIRCUIT_TEXT))
        assert parse_circuit(text) == hbsg_circuit()
        assert serialize_circuit(parse_circuit(text)) == text


@pytest.fixture(scope="module")
def generated():
    return {(b.spins.e1, b.spins.e2): b for b in run_hbsg()}


class TestLocalCorrection:

    def test_identity_correction(self, generated):
        b = generated[("+", "+")]
        out = apply_local_correction(b.state, b.label, b.label,
                                     rails=HBSG_OUTPUT_RAILS)
        np.testing.assert_allclose(out.amps, b.state.amps, atol=1e-12)

    def test_polarization_bit_flip_example(self, small_layout):
        state = make_bell(Bell.PHI_PLUS, Bell.PHI_PLUS, small_layout)
        out = apply_local_correction(
            state, HyperBellLabel(Bell.PHI_PLUS, Bell.PHI_PLUS),
            HyperBellLabel(Bell.PSI_PLUS, Bell.PHI_PLUS))
        # oracle: direct matrix application (X on photon A polarization)
        x = np.kron(np.array([[0, 1], [1, 0]]), np.eye(2)).astype(complex)
        from hyperbell.hilbert import apply_single_photon_op

        oracle = apply_single_photon_op(state, "A", x)
        np.testing.assert_allclose(out.amps, oracle.amps, atol=1e-14)
        target = make_bell(Bell.PSI_PLUS, Bell.PHI_PLUS, small_layout)
        assert abs(overlap(target, out)) ** 2 >= 1 - 1e-12

    def test_spatial_phase_flip_example(self, small_layout):
        state = make_bell(Bell.PHI_PLUS, Bell.PHI_PLUS, small_layout)
        out = apply_local_correction(
            state, HyperBellLabel(Bell.PHI_PLUS, Bell.PHI_PLUS),
            HyperBellLabel(Bell.PHI_PLUS, Bell.PHI_MINUS))
        # oracle: pi phase on the second rail of photon A
        z = np.kron(np.eye(2), np.diag([1.0, -1.0])).astype(complex)
        from hyperbell.hilbert import apply_single_photon_op

        oracle = apply_single_photon_op(state, "A", z)
        np.testing.assert_allclose(out.amps, oracle.amps, atol=1e-14)
        target = make_bell(Bell.PHI_PLUS, Bell.PHI_MINUS, small_layout)
        assert abs(overlap(target, out)) ** 2 >= 1 - 1e-12

    def test_all_sixteen_reachable_from_each_generated_state(self, generated):
        for b in generated.values():
            spins = (b.spins.e1, b.spins.e2)
            # the generated state's own phase, which the correction keeps
            phase = overlap(make_bell(b.label.pol, b.label.spatial, b.state.layout,
                                      rails=HBSG_OUTPUT_RAILS, spins=spins), b.state)
            for target_label in all_labels():
                out = apply_local_correction(b.state, b.label, target_label,
                                             rails=HBSG_OUTPUT_RAILS)
                target = make_bell(target_label.pol, target_label.spatial,
                                   b.state.layout, rails=HBSG_OUTPUT_RAILS,
                                   spins=spins)
                assert abs(overlap(target, out)) ** 2 >= 1 - 1e-12
                np.testing.assert_allclose(out.amps, phase * target.amps, rtol=0, atol=1e-12)

    def test_corrections_are_exact(self):
        # amplitude by amplitude, global phase included, for all 256 pairs
        for frm in all_labels():
            state = make_bell(frm.pol, frm.spatial)
            for to in all_labels():
                out = apply_local_correction(state, frm, to)
                np.testing.assert_allclose(out.amps, make_bell(to.pol, to.spatial).amps,
                                           rtol=0, atol=1e-12, err_msg=f"{frm} -> {to}")

    def test_wrong_source_label_rejected(self, generated):
        b = generated[("+", "+")]
        wrong = HyperBellLabel(Bell.PSI_MINUS, Bell.PHI_PLUS)
        with pytest.raises(PreconditionError):
            apply_local_correction(b.state, wrong, wrong, rails=HBSG_OUTPUT_RAILS)

    def test_zero_state_rejected(self, small_layout):
        label = HyperBellLabel(Bell.PHI_PLUS, Bell.PHI_PLUS)
        with pytest.raises(PreconditionError, match="^cannot correct a zero state$"):
            apply_local_correction(HybridState(small_layout, np.zeros(small_layout.shape)),
                                   label, label)

    def test_photons_entangled_with_the_spins_rejected(self, small_layout):
        # (phi+,phi+ with spins ++) + (psi+,phi+ with spins --): no photonic factor
        label = HyperBellLabel(Bell.PHI_PLUS, Bell.PHI_PLUS)
        amps = (make_bell(Bell.PHI_PLUS, Bell.PHI_PLUS, small_layout).amps
                + make_bell(Bell.PSI_PLUS, Bell.PHI_PLUS, small_layout, spins=("-", "-")).amps)
        with pytest.raises(PreconditionError, match="does not factor into photons"):
            apply_local_correction(HybridState(small_layout, amps / SQ2), label, label)


class TestHbsaStage1:
    def test_overflow_is_numeric_domain_error(self):
        # stage 1 ends in a passage: its no-click branch weighed nan at 1e200
        state = hbsa_input(HyperBellLabel(Bell.PHI_PLUS, Bell.PHI_PLUS))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericDomainError, match="overflows"):
                run_hbsa_stage1(state, ReflectionPair(1e200, 1e200))
        res = run_hbsa_stage1(state, ReflectionPair(1e30, 1e30))  # |r| > 1 is legal here
        assert res.clean_weight == 0.0 and math.isfinite(res.leaked_weight)

    def test_even_parity_inputs(self):
        for pol in (Bell.PHI_PLUS, Bell.PHI_MINUS):
            res = run_hbsa_stage1(hbsa_input(HyperBellLabel(pol, Bell.PHI_PLUS)))
            assert res.spins == SpinOutcome("+", "+")

    def test_odd_phase_inputs(self):
        for pol in (Bell.PSI_PLUS, Bell.PSI_MINUS):
            res = run_hbsa_stage1(hbsa_input(HyperBellLabel(pol, Bell.PSI_MINUS)))
            assert res.spins == SpinOutcome("-", "-")

    def test_photonic_state_restored_for_all_inputs(self):
        for label in all_labels():
            res = run_hbsa_stage1(hbsa_input(label))
            expected_spins = {v: k for k, v in SPIN_TO_SPATIAL.items()}[label.spatial]
            assert (res.spins.e1, res.spins.e2) == expected_spins
            target = make_bell(label.pol, label.spatial, hbsa_layout(),
                               spins=expected_spins)
            fid = abs(overlap(target, res.state.normalized())) ** 2
            assert fid >= 1 - 1e-12

    def test_superposition_entangles_spin_with_parity(self):
        # linearity oracle: the superposition run equals the sum of basis runs
        layout = hbsa_layout()
        a = hbsa_input(HyperBellLabel(Bell.PHI_PLUS, Bell.PHI_PLUS))
        b = hbsa_input(HyperBellLabel(Bell.PHI_PLUS, Bell.PSI_PLUS))
        mixed = HybridState(layout, (a.amps + b.amps) / SQ2)
        res = run_hbsa_stage1(mixed)
        assert res.spins is None  # spin 1 is entangled with spatial parity
        out_a = run_hbsa_stage1(a).state
        out_b = run_hbsa_stage1(b).state
        np.testing.assert_allclose(res.state.amps,
                                   (out_a.amps + out_b.amps) / SQ2, atol=1e-12)


    def test_fully_absorbing_dots_give_zero_state(self):
        pair = reflection_coefficients(CavityParams(g=0.0, kappa_s=1.0))
        res = run_hbsa_stage1(hbsa_input(HyperBellLabel(Bell.PHI_PLUS, Bell.PHI_PLUS)), pair)
        assert not res.state.amps.any()
        assert res.spins is None
        assert res.clean_weight == res.leaked_weight == 0.0


class TestSpbsm:
    def test_single_photon_bell_state_hits_one_detector(self):
        # the readout alone: the analysis circuit's ops after its spin measurements
        full = hbsa_full_circuit()
        kinds = [el.kind for el in full.ops]
        last_spin = len(kinds) - 1 - kinds[::-1].index(ElementKind.MEASURE_SPIN)
        readout = dataclasses.replace(full, ops=full.ops[last_spin + 1:])
        layout = hbsa_layout()
        # photon A in (R a2 + L a1)/sqrt2, photon B parked in R b1
        amps = (product_state(layout, "R", "a2", "R", "b1").amps
                + product_state(layout, "L", "a1", "R", "b1").amps) / SQ2
        run = run_circuit_tracked(readout, HybridState(layout, amps), IDEAL_PAIR)
        a_marginal = {}
        for tb in run.branches:
            (a_click,) = (name for name, _ in tb.record if name.startswith("a"))
            a_marginal[a_click] = a_marginal.get(a_click, 0.0) + tb.probability
        assert abs(a_marginal["a1+"] - 1.0) < 1e-12

    def test_phi_plus_phi_plus_patterns(self):
        branches = run_hbsa(HyperBellLabel(Bell.PHI_PLUS, Bell.PHI_PLUS), IDEAL_PAIR)
        expected = {("a1+", "b1+"), ("a1-", "b1-"), ("a2+", "b2+"), ("a2-", "b2-")}
        got = {(b.pattern.a, b.pattern.b): b.probability for b in branches}
        assert set(got) == expected
        assert {b.spins for b in branches} == {SpinOutcome("+", "+")}
        for prob in got.values():
            assert abs(prob - 0.25) < 1e-12

    def test_psi_minus_phi_plus_patterns_against_enumeration(self):
        # oracle: expand the state in the single-photon Bell bases directly;
        # at the ideal pair stage 1 leaves the photons as they are
        layout = hbsa_layout()
        label = HyperBellLabel(Bell.PSI_MINUS, Bell.PHI_PLUS)
        state = hbsa_input(label)
        sp_bell = {
            "1+": [("R", "a2", 1), ("L", "a1", 1)],
            "1-": [("R", "a2", 1), ("L", "a1", -1)],
            "2+": [("R", "a1", 1), ("L", "a2", 1)],
            "2-": [("R", "a1", 1), ("L", "a2", -1)],
        }
        expected = {}
        for ka, terms_a in sp_bell.items():
            for kb, terms_b in sp_bell.items():
                amp = 0.0
                for pol_a, path_a, sign_a in terms_a:
                    for pol_b, path_b, sign_b in terms_b:
                        basis = product_state(
                            layout, pol_a, path_a, pol_b,
                            path_b.replace("a", "b"), "+", "+")
                        amp += sign_a * sign_b / 2 * overlap(basis, state)
                if abs(amp) > 1e-12:
                    expected[(f"a{ka}", f"b{kb}")] = abs(amp) ** 2
        branches = run_hbsa(label, IDEAL_PAIR)
        got = {(b.pattern.a, b.pattern.b): b.probability for b in branches}
        assert set(got) == set(expected)
        for key, prob in got.items():
            assert abs(prob - expected[key]) < 1e-10

    def test_pattern_probabilities_sum_to_norm(self):
        # r_h = -r_o leaves no leak (h = 0): every passage multiplies each
        # photon by s, four times, so the branches carry |s|^8 of the norm
        pair = ReflectionPair(0.9 * np.exp(0.3j), -0.9 * np.exp(0.3j))
        state = hbsa_input(HyperBellLabel(Bell.PSI_PLUS, Bell.PSI_MINUS))
        scaled = HybridState(state.layout, 0.6 * state.amps)
        total = sum(b.probability for b in run_hbsa(scaled, pair))
        assert abs(total - scaled.norm2 * abs(pair.success_amplitude) ** 8) < 1e-10


class TestClassifier:
    def test_worked_example_one(self):
        label = classify(SpinOutcome("+", "+"), DetectorPattern("a1+", "b1+"))
        assert label == HyperBellLabel(Bell.PHI_PLUS, Bell.PHI_PLUS)

    def test_worked_example_two(self):
        label = classify(SpinOutcome("+", "+"), DetectorPattern("a1-", "b2+"))
        assert label == HyperBellLabel(Bell.PSI_MINUS, Bell.PHI_PLUS)

    def test_exhaustive_round_trip(self):
        for label in all_labels():
            for branch in run_hbsa(label):
                assert branch.classified == label

    def test_table_has_64_unambiguous_rows(self):
        rows = classification_table()
        assert len(rows) == 64
        keys = {(r[0].e1, r[0].e2, r[1].a, r[1].b) for r in rows}
        assert len(keys) == 64

    def test_every_spatial_group_partitions_patterns(self):
        # for each spatial label the 16 patterns split 4/4/4/4 by polarization
        rows = classification_table()
        for spatial in Bell:
            counts = {}
            for spins, pattern, label in rows:
                if SPIN_TO_SPATIAL[(spins.e1, spins.e2)] == spatial:
                    counts[label.pol] = counts.get(label.pol, 0) + 1
            assert counts == {pol: 4 for pol in Bell}

    @pytest.mark.parametrize("e1, e2", [("x", "+"), ("+", "up"), ("", "-")])
    def test_spin_outcome_must_be_plus_or_minus(self, e1, e2):
        with pytest.raises(ConfigurationError, match="^spin outcomes must be '\\+' or '-'$"):
            SpinOutcome(e1, e2)

    def test_invalid_pattern_rejected(self):
        spins = SpinOutcome("+", "+")
        with pytest.raises(ConfigurationError, match=r"invalid detector pattern \(a3\+, b1\+\)"):
            classify(spins, DetectorPattern("a3+", "b1+"))
        # each name belongs to one photon's detectors
        with pytest.raises(ConfigurationError, match=r"invalid detector pattern \(b1\+, a1\+\)"):
            classify(spins, DetectorPattern("b1+", "a1+"))


    @pytest.mark.parametrize("fill", [0.0, 1.0], ids=["no-owner", "two-owners"])
    def test_unowned_or_shared_branch_raises_at_build(self, monkeypatch, fill):
        monkeypatch.setattr(protocols, "_read_out", lambda amps, *_: np.full((16, 64, 4), fill))
        protocols._readout.cache_clear()
        try:
            with pytest.raises(InconsistentOutcomeError, match="readout branch"):
                protocols._readout(protocols.HBSA_FULL_TEXT)
        finally:
            monkeypatch.undo()
            protocols._readout.cache_clear()


class TestRealisticHbsa:
    def test_survival_probability_matches_efficiency(self):
        branches = run_hbsa(HyperBellLabel(Bell.PHI_PLUS, Bell.PHI_PLUS),
                            EXAMPLE_PAIR)
        clean = sum(b.clean_weight for b in branches)
        assert abs(clean - (40 / 41) ** 8) < 1e-12

    def test_misclassification_only_from_leakage(self):
        branches = run_hbsa(HyperBellLabel(Bell.PSI_PLUS, Bell.PHI_MINUS),
                            EXAMPLE_PAIR)
        wrong = 0.0
        for b in branches:
            if b.classified != HyperBellLabel(Bell.PSI_PLUS, Bell.PHI_MINUS):
                wrong += b.probability
                # the unleaked component never lands in a wrong branch
                assert b.clean_weight < 1e-20
        leaked = sum(b.leaked_weight for b in branches)
        # up to interference between leak orders, wrong weight is leak weight
        assert wrong <= 1.1 * leaked

    def test_non_finite_pair_is_numeric_domain_error(self):
        label = HyperBellLabel(Bell.PHI_PLUS, Bell.PHI_PLUS)
        for bad in (math.nan, math.inf):
            with pytest.raises(NumericDomainError, match="must be finite"):
                run_hbsa(label, ReflectionPair(bad, 1.0))
            with pytest.raises(NumericDomainError, match="must be finite"):
                run_hbsg(ReflectionPair(1.0, bad))

    def test_overflow_is_numeric_domain_error(self):
        label = HyperBellLabel(Bell.PHI_PLUS, Bell.PHI_PLUS)
        # at 1e200, h^4 overflows in Python's complex power; at 1e40, h^4 is
        # finite and its squared modulus is not
        for pair in (ReflectionPair(1e200, 1e200), ReflectionPair(1e40, 1e40)):
            with np.errstate(over="ignore", invalid="ignore"):
                for given in (label, hbsa_input(label)):
                    with pytest.raises(NumericDomainError, match="overflows"):
                        run_hbsa(given, pair)
        # |r| > 1 stays legal where nothing overflows: at s = 0 only the h^4
        # layer is nonzero, so every weight scales as |h|^8
        big, unit = (run_hbsa(label, ReflectionPair(r, r)) for r in (1e30, 1.0))
        assert big and all(b.clean_weight == 0.0 for b in big)
        assert math.isclose(sum(b.leaked_weight for b in big),
                            1e240 * sum(b.leaked_weight for b in unit), rel_tol=1e-12)

    @pytest.mark.parametrize("label, pair", [
        ("psi-,phi+", ReflectionPair(1e40, 1e40)),  # |h^4|^2 overflows
        ("psi-,phi+", ReflectionPair(1e40, -1e40)),  # |s^4|^2 overflows
        ("psi-,phi+", ReflectionPair(1e200j, 1e200)),  # h^4 overflows
        ("phi+,psi-", ReflectionPair(1e50 + 1e125j, -1e50 + 1e125j)),  # s^2 h^2 is inf
        ("psi-,phi+", ReflectionPair(3e78 - 1e78j, 0)),  # s^4 is nan + nan j, with no error
    ], ids=["h-square", "s-square", "h-power", "product", "nan-power"])
    def test_overflow_raises_before_numpy_warns(self, label, pair):
        # the layer values are bounded in Python, so no NumPy step overflows
        label = parse_label(label)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for given in (label, hbsa_input(label)):
                with pytest.raises(NumericDomainError, match="overflows"):
                    run_hbsa(given, pair)


    def test_overflow_of_the_summed_probabilities(self):
        # every layer's |v|^2 is finite, below 2.2e307, but the branch probabilities
        # overflow: the final check raises, not the bound on the layer values
        label = HyperBellLabel(Bell.PHI_PLUS, Bell.PHI_PLUS)
        pair = ReflectionPair(complex(3.35e38, 3.35e38), 6.7e37)
        s, h = complex(pair.success_amplitude), complex(pair.herald_amplitude)
        monomials = protocols._hbsa_support(label, protocols.HBSA_FULL_TEXT)[0]
        assert all(math.isfinite(abs(s ** i * h ** k) ** 2) for i, k in monomials)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericDomainError, match="^run_hbsa overflows at") as info:
                run_hbsa(label, pair)
        assert not info.value.__suppress_context__  # not raised "from None" by the bound


def _full_circuit_rows(state, pair):
    """(spins, pattern, classification, probability, clean, leaked) of every
    branch of the runner forking the whole analysis circuit."""
    rows = []
    for tb in run_circuit_tracked(hbsa_full_circuit(), state, pair).branches:
        spins = tb.spin_results()
        a, b = (name for name, outcome in tb.record if outcome == "click")
        outcome, pattern = SpinOutcome(spins["QD1"], spins["QD2"]), DetectorPattern(a, b)
        rows.append((outcome, pattern, classify(outcome, pattern), tb.probability,
                     tb.clean_weight, tb.leaked_weight))
    return rows


def _assert_matches_full_circuit(branches, rows):
    assert [(b.spins, b.pattern, b.classified) for b in branches] == [r[:3] for r in rows]
    for b, (*_, probability, clean, leaked) in zip(branches, rows):
        assert abs(b.probability - probability) < 1e-12
        assert abs(b.clean_weight - clean) < 1e-12
        assert abs(b.leaked_weight - leaked) < 1e-12


def _lossy_pairs(seed, n):
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(n):
        kappa_s = rng.uniform(0.0, 1.0)
        pairs.append(reflection_coefficients(CavityParams(
            g=rng.uniform(0.05, 2.5) * (1 + kappa_s), kappa_s=kappa_s,
            gamma=rng.uniform(0.05, 0.15), omega=rng.uniform(-0.5, 0.5))))
    return pairs


class TestHbsaForms:
    """run_hbsa evaluates per-label forms; the reference is the runner on the
    full analysis circuit."""

    @pytest.mark.parametrize("pair", [IDEAL_PAIR, EXAMPLE_PAIR, *_lossy_pairs(8, 4)],
                             ids=["ideal", "example", "lossy0", "lossy1", "lossy2", "lossy3"])
    def test_matches_full_circuit_run(self, pair):
        for label in all_labels():
            _assert_matches_full_circuit(run_hbsa(label, pair),
                                         _full_circuit_rows(hbsa_input(label), pair))

    def test_absorbing_dots_leave_no_branch(self):
        # g = 0 and kappa_s = kappa give r_o = r_h = 0, so s = h = 0
        pair = reflection_coefficients(CavityParams(g=0.0, kappa_s=1.0))
        for label in all_labels():
            assert run_hbsa(label, pair) == []
            assert _full_circuit_rows(hbsa_input(label), pair) == []

    def test_state_input_is_the_same_combination_of_label_forms(self):
        labels = all_labels()
        coeffs = {labels[1]: 0.6, labels[6]: 0.48j, labels[15]: -0.64}
        amps = sum(c * hbsa_input(label).amps for label, c in coeffs.items())
        state = HybridState(hbsa_layout(), amps)
        for pair in (EXAMPLE_PAIR, *_lossy_pairs(9, 2)):
            _assert_matches_full_circuit(run_hbsa(state, pair),
                                         _full_circuit_rows(state, pair))
        # a basis input given as a state is its label, exactly: both run the
        # same stage 1 on the same state
        for pair in (EXAMPLE_PAIR, *_ORACLE_PAIRS.values()):
            for label in labels:
                assert run_hbsa(hbsa_input(label), pair) == run_hbsa(label, pair), label
        assert run_hbsa(HybridState(hbsa_layout(), 0 * amps), EXAMPLE_PAIR) == []

    def test_state_outside_the_basis_span_rejected(self):
        label = HyperBellLabel(Bell.PHI_PLUS, Bell.PSI_MINUS)
        layout = hbsa_layout()
        flipped = make_bell(label.pol, label.spatial, layout, spins=("+", "-"))
        with pytest.raises(ConfigurationError, match="16 analysis basis inputs"):
            run_hbsa(flipped)
        # 1e-10 of the squared norm outside the span is too much
        leak = np.sqrt(1e-10) * flipped.amps
        with pytest.raises(ConfigurationError, match="16 analysis basis inputs"):
            run_hbsa(HybridState(layout, hbsa_input(label).amps + leak))
        with pytest.raises(ConfigurationError, match="layout"):
            run_hbsa(make_bell(label.pol, label.spatial))

    def test_forms_built_once_per_label(self, monkeypatch):
        label = HyperBellLabel(Bell.PSI_PLUS, Bell.PHI_MINUS)
        built = []
        forms = protocols._hbsa_forms
        monkeypatch.setattr(protocols, "_hbsa_forms",
                            lambda state, text: built.append(text) or forms(state, text))
        protocols._hbsa_support.cache_clear()
        run_hbsa(label, EXAMPLE_PAIR)
        run_hbsa(label, IDEAL_PAIR)
        # run_hbsa reads the label's support, derived once from forms built once
        info = protocols._hbsa_support.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 1, 1)
        assert built == [protocols.HBSA_FULL_TEXT]


def _dense_hbsa(forms, pair):
    """The oracle for run_hbsa: every monomial and branch of the forms
    evaluated at the pair, then the runner's drop rule."""
    layers = _evaluate(forms, pair.success_amplitude, pair.herald_amplitude)[0]
    weights = (layers.real ** 2 + layers.imag ** 2).sum(axis=2)  # [h-degree, branch]
    dropped = ~_surviving(weights)[0]
    layers[dropped] = 0.0
    weights[dropped] = 0.0
    total, amps = weights.sum(axis=0), layers.sum(axis=0)
    probability = (amps.real ** 2 + amps.imag ** 2).sum(axis=1)
    _, rows = protocols._readout(protocols.HBSA_FULL_TEXT)
    return [HbsaBranch(*rows[b][:2], float(probability[b]), rows[b][-1],
                       float(weights[0, b]), float(total[b] - weights[0, b]))
            for b in range(len(total)) if total[b] > _BRANCH_DROP]


def _assert_matches_oracle(got, want):
    assert [(b.spins, b.pattern, b.classified) for b in got] == \
        [(b.spins, b.pattern, b.classified) for b in want]
    for g, w in zip(got, want):
        for name in ("probability", "clean_weight", "leaked_weight"):
            assert abs(getattr(g, name) - getattr(w, name)) <= 1e-15, name


def _lossless_pairs(seed, n):
    rng = np.random.default_rng(seed)
    return [ReflectionPair(np.exp(1j * rng.uniform(0, 2 * np.pi)),
                           np.exp(1j * rng.uniform(0, 2 * np.pi))) for _ in range(n)]


_ORACLE_PAIRS = {
    "ideal": IDEAL_PAIR,
    "absorbing": reflection_coefficients(CavityParams(g=0.0, kappa_s=1.0)),
    **{f"lossless{k}": pair for k, pair in enumerate(_lossless_pairs(17, 2))},
    **{f"lossy{k}": pair for k, pair in enumerate(_lossy_pairs(18, 3))},
    "gain": ReflectionPair(1.3 * np.exp(0.4j), -0.7 + 0.6j),  # |r_o| > 1
}


class TestHbsaSupport:
    """run_hbsa evaluates each input's forms only on their support; the
    reference is the dense evaluation of the whole forms."""

    @pytest.mark.parametrize("pair", _ORACLE_PAIRS.values(), ids=_ORACLE_PAIRS)
    def test_matches_dense_evaluation(self, pair):
        text = protocols.HBSA_FULL_TEXT
        for label in all_labels():
            _assert_matches_oracle(run_hbsa(label, pair),
                                   _dense_hbsa(protocols._hbsa_forms(hbsa_input(label), text), pair))
        state = _superposition()  # the superposition input of hbsa_branches_golden.json
        _assert_matches_oracle(run_hbsa(state, pair),
                               _dense_hbsa(protocols._hbsa_forms(state, text), pair))

    def test_forms_vanish_off_total_degree_four(self):
        h_degrees = Counter()
        for label in all_labels():
            forms = protocols._hbsa_forms(hbsa_input(label), protocols.HBSA_FULL_TEXT)
            i, k = np.indices(forms.shape[:2])
            assert not forms[i + k != 4].any(), label
            # one monomial per leak layer: s^(4-k) h^k for every h-degree k
            mask, rows = monomial_support(forms)
            assert np.argwhere(mask).tolist() == [[4 - k, k]
                                                  for k in reversed(range(forms.shape[1]))]
            assert 30 <= len(rows) <= 64
            h_degrees[forms.shape[1]] += 1
        assert h_degrees == {5: 8, 4: 4, 3: 4}

    def test_support_built_once_per_label_and_read_only(self):
        protocols._hbsa_support.cache_clear()
        for _ in range(2):
            for label in all_labels():
                run_hbsa(label, EXAMPLE_PAIR)
        info = protocols._hbsa_support.cache_info()
        assert (info.misses, info.hits, info.currsize) == (16, 16, 16)
        for label in all_labels():
            monomials, norms, coef, *columns = protocols._hbsa_support(
                label, protocols.HBSA_FULL_TEXT)
            # one monomial s^(4-k) h^k per h-degree k on every label
            assert monomials == tuple((4 - k, k) for k in range(len(monomials)))
            # coefficients branch-major, [branch, layer, pol]; norms [layer, branch]
            assert coef.shape == norms.T.shape + (4,)
            assert coef.flags.c_contiguous
            assert len(monomials) == len(norms)
            np.testing.assert_array_equal(norms, (np.abs(coef) ** 2).sum(axis=2).T)
            for a in (norms, coef):
                assert not a.flags.writeable
                with pytest.raises(ValueError):
                    a[0] = 0
            assert [len(column) for column in columns] == [coef.shape[0]] * 3
            assert all(isinstance(column, tuple) for column in columns)

    def test_mixed_kept_layers_match_dense_evaluation(self):
        # at a lossy pair one label's branches keep different layers: a top
        # layer holding only rounding residue goes where another branch keeps it
        text = protocols.HBSA_FULL_TEXT
        label = HyperBellLabel(Bell.PHI_MINUS, Bell.PHI_PLUS)
        pair = EXAMPLE_PAIR
        monomials, norms, *_ = protocols._hbsa_support(label, text)
        s, h = pair.success_amplitude, pair.herald_amplitude
        weights = np.array([abs(s ** i * h ** k) ** 2 for i, k in monomials])[:, None] * norms
        kept = _surviving(weights)[0]
        residue_dropped = ~kept & (norms > 0) & (norms < 1e-30)
        assert (residue_dropped.any(axis=1) & (kept & (norms > 1e-30)).any(axis=1)).any()
        _assert_matches_oracle(run_hbsa(label, pair),
                               _dense_hbsa(protocols._hbsa_forms(hbsa_input(label), text), pair))
        # the ideal, absorbing and |r| > 1 pairs are test_matches_dense_evaluation's
        zero = HybridState(hbsa_layout(), np.zeros_like(hbsa_input(label).amps))
        zero_forms = protocols._hbsa_forms(zero, text)
        for p in (pair, *_ORACLE_PAIRS.values()):
            assert run_hbsa(zero, p) == _dense_hbsa(zero_forms, p) == []

    def test_input_of_another_type_rejected(self):
        for bad in ("phi+,phi+", None, hbsa_input(all_labels()[0]).amps):
            with pytest.raises(ConfigurationError, match="HyperBellLabel or a HybridState"):
                run_hbsa(bad, EXAMPLE_PAIR)

    def test_several_s_degrees_per_layer_raise(self):
        # no analysis input has them, so the forms are made up: two labels'
        # forms, one of them shifted up by one s-degree
        text = protocols.HBSA_FULL_TEXT
        f, g = (protocols._hbsa_forms(hbsa_input(label), text) for label in all_labels()[:2])
        forms = np.zeros((f.shape[0] + 1,) + f.shape[1:], dtype=complex)
        forms[:-1] += f
        forms[1:, :g.shape[1]] += 0.5j * g
        with pytest.raises(ConfigurationError, match="several s-degrees"):
            protocols._support(forms, text)
        protocols._support(f, text)  # f alone has one s-degree per layer


class TestLeakPins:
    """The first-order leak coefficients, read off the polynomial forms: with
    c_ik the coefficient of s^i h^k, ||c_31||^2 / ||c_40||^2."""

    FIRST_ORDER = {  # an integer for each label
        "phi+,phi+": 4, "phi+,phi-": 3, "phi+,psi+": 3, "phi+,psi-": 2,
        "phi-,phi+": 0, "phi-,phi-": 1, "phi-,psi+": 1, "phi-,psi-": 2,
        "psi+,phi+": 4, "psi+,phi-": 3, "psi+,psi+": 3, "psi+,psi-": 2,
        "psi-,phi+": 0, "psi-,phi-": 1, "psi-,psi+": 1, "psi-,psi-": 2,
    }

    def test_hbsa_first_order_leak_is_an_integer_per_label(self):
        assert sorted(self.FIRST_ORDER) == sorted(str(label) for label in all_labels())
        for label in all_labels():
            forms = protocols._hbsa_forms(hbsa_input(label), protocols.HBSA_FULL_TEXT)
            ratio = _weight(forms[3, 1]) / _weight(forms[4, 0])
            assert abs(ratio - self.FIRST_ORDER[str(label)]) < 1e-12, label

    def test_bare_hbsg_no_click_support_and_ratios(self):
        c, _ = protocols._no_click(hbsg_circuit(), hbsg_input())
        mask, _ = monomial_support(c)
        assert {tuple(ik) for ik in np.argwhere(mask).tolist()} == {(4, 0), (3, 1), (2, 2)}
        assert abs(_weight(c[3, 1]) / _weight(c[4, 0]) - 3 / 2) < 1e-12
        assert abs(_weight(c[2, 2]) / _weight(c[4, 0]) - 1 / 4) < 1e-12

    def test_bare_hbsg_generation_monomials(self):
        from hyperbell import analysis

        layers, clicks = analysis._generation_forms(protocols.HBSG_CIRCUIT_TEXT)
        assert layers[:2].T.tolist() == [[4, 0], [3, 1], [2, 2]]
        np.testing.assert_allclose(layers[2] / layers[2, 0], [1, 3 / 2, 1 / 4],
                                   rtol=0, atol=1e-12)
        assert clicks[:2].T.tolist() == [[0, 1], [1, 1]]  # D1A, then D1B
        _assert_lossless_output_is_unleaked_layer(protocols.HBSG_CIRCUIT_TEXT)

    def test_generation_text_with_no_herald_detector_has_no_click(self):
        # each heralded block replaced by a waveform corrector on its path:
        # nothing can click, so the herald rate is 0 at every pair
        from hyperbell import analysis

        text = protocols.HBSG_CIRCUIT_TEXT
        for photon, path, label in (("A", "a1", "D1A"), ("B", "b1", "D1B")):
            text = text.replace(f"block mode=heralded qd=QD1 photon={photon} path={path} "
                                f"label={label}", f"op wfc photon={photon} path={path}")
        assert "heralded" not in text
        layers, clicks = analysis._generation_forms(text)
        assert clicks.shape == (3, 0)
        assert layers[:2].T.tolist() == [[4, 0], [3, 1], [2, 2]]
        s, h = np.array([0.9, 0.5j, 0.0]), np.array([0.1, 0.3, 1.0])
        assert analysis._monomial_weights(clicks, s, h).sum(axis=0).tolist() == [0.0] * 3

    def test_unmatched_qd_rail_is_a_configuration_error(self):
        # without photon A's first waveform corrector its two rails leave the
        # first stage with different powers of s
        from hyperbell import analysis

        text = protocols.HBSG_CIRCUIT_TEXT.replace("op wfc photon=A path=a2\n", "", 1)
        assert text != protocols.HBSG_CIRCUIT_TEXT
        circuit = protocols._parsed(text)
        c, clicks = protocols._no_click(circuit, hbsg_input(circuit))
        assert np.flatnonzero(monomial_support(c)[0][:, 0]).tolist() == [3, 4]
        (d1b,) = clicks["D1B"]
        mask, _ = monomial_support(d1b[:, 1:])  # past the h^0 residue
        assert (np.argwhere(mask) + [0, 1]).tolist() == [[0, 1], [1, 1]]
        with pytest.raises(ConfigurationError, match="several s-degrees"):
            analysis._generation_forms(text)

    def test_herald_click_without_a_leak_is_an_inconsistent_outcome(self):
        # a detector on the corrected R rail fires with no leak: its coefficients sit at h^0
        from hyperbell import analysis

        wfc = "op wfc photon=A path=a2\n"
        text = protocols.HBSG_CIRCUIT_TEXT.replace(
            wfc, wfc + "op detector photon=A path=a2 label=X\n", 1)
        with pytest.raises(InconsistentOutcomeError, match="^herald click without a leak"):
            analysis._generation_forms(text)

    def test_click_with_several_monomials_is_a_configuration_error(self, monkeypatch):
        from hyperbell import analysis

        def no_click(circuit, state):
            c, clicks = protocols._no_click(circuit, state)
            (d1b,) = clicks["D1B"]
            return c, {**clicks, "D1B": [np.concatenate([d1b, d1b[:, 1:]], axis=1)]}  # s h^2

        monkeypatch.setattr(analysis, "_no_click", no_click)
        with pytest.raises(ConfigurationError, match="several monomials"):
            analysis._generation_forms.__wrapped__(protocols.HBSG_CIRCUIT_TEXT)


def _assert_lossless_output_is_unleaked_layer(text):
    """At the lossless pair h = 0 and s = -1, so a generation text's no-click
    branch there is its unleaked layer (-1)^i c[i, 0], one s-degree i
    (layer_s_degrees): the sweep's conditional fidelity is 1 by construction."""
    circuit = protocols._parsed(text)
    c, _ = protocols._no_click(circuit, hbsg_input(circuit))
    i0 = layer_s_degrees(c)[0]
    at_pair, _ = protocols._no_click(circuit, hbsg_input(circuit), IDEAL_PAIR)
    np.testing.assert_allclose(at_pair, (-1) ** i0 * c[None, None, i0, 0], rtol=0, atol=1e-12)


class TestCircuitText:
    """The analyzer and generator rules are keyed by their circuit text, and
    read stage 1 by its no-click branch."""

    def test_equivalent_analysis_text_gives_the_same_rules(self):
        # QD1's passages of photon A and photon B commute, so moving photon
        # B's two stage-1 lines ahead of photon A's changes no rule
        lines_a = "block mode=parity qd=QD1 photon=A path=a1\nop wfc photon=A path=a2\n"
        lines_b = "block mode=parity qd=QD1 photon=B path=b1\nop wfc photon=B path=b2\n"
        bare = protocols.HBSA_FULL_TEXT
        text = bare.replace(lines_a + lines_b, lines_b + lines_a)
        assert text != bare
        assert ([row[:2] + row[-1:] for row in protocols._readout(text)[1]]
                == [row[:2] + row[-1:] for row in protocols._readout(bare)[1]])
        protocols._hbsa_support.cache_clear()
        for label in all_labels():
            state = hbsa_input(label)
            np.testing.assert_allclose(protocols._hbsa_forms(state, text),
                                       protocols._hbsa_forms(state, bare), rtol=0, atol=1e-15)
            got, want = (protocols._hbsa_support(label, t) for t in (text, bare))
            assert got[0] == want[0]  # the monomials
            for g, w in zip(got[1:3], want[1:3]):  # the norms and the coefficients
                np.testing.assert_allclose(g, w, rtol=0, atol=1e-15)
            assert got[3:] == want[3:]
        assert protocols._hbsa_support.cache_info().currsize == 32

    def test_other_detector_labels_give_the_same_rows_and_support(self):
        # the readout table reads each text's own labels
        bare = protocols.HBSA_FULL_TEXT
        text = bare.replace("label=a1+", "label=x1+")
        assert text != bare
        rename = {"a1+": "x1+"}
        want = [(spins, DetectorPattern(rename.get(p.a, p.a), p.b), label)
                for spins, p, *_, label in protocols._readout(bare)[1]]
        rows = protocols._readout(text)[1]
        assert [(spins, p, label) for spins, p, *_, label in rows] == want
        assert any(p.a == "x1+" for _, p, *_ in rows)
        for label in all_labels():
            got, base = (protocols._hbsa_support(label, t) for t in (text, bare))
            assert got[0] == base[0]  # the monomials
            for g, w in zip(got[1:3], base[1:3]):  # the norms and the coefficients
                np.testing.assert_array_equal(g, w)
            assert got[3] == base[3] and got[5] == base[5]  # spins and labels
            assert got[4] == tuple(DetectorPattern(rename.get(p.a, p.a), p.b) for p in base[4])

    def test_equivalent_generation_text_gives_the_same_factors(self):
        from hyperbell import analysis

        bare = protocols.HBSG_CIRCUIT_TEXT
        rail = "op bs photon=A in=a1,a2 out=c1,c2\n"
        text = bare.replace(rail, rail + "op z photon=A path=c1\n" * 2)
        assert text != bare
        # layers, then clicks; rows: s-degree, h-degree, weight
        for got, want in zip(analysis._generation_forms(text), analysis._generation_forms(bare)):
            np.testing.assert_array_equal(got[:2], want[:2])
            np.testing.assert_allclose(got[2], want[2], rtol=0, atol=1e-15)
        for t in (text, bare):
            _assert_lossless_output_is_unleaked_layer(t)

    def test_dropped_no_click_branch_is_zero(self):
        # g = 0 and kappa_s = kappa give r_o = r_h = 0, so the runner drops
        # every branch of stage 1
        pair = reflection_coefficients(CavityParams(g=0.0, kappa_s=1.0))
        assert (pair.r_o, pair.r_h) == (0, 0)
        c, clicks = protocols._no_click(hbsg_circuit(), hbsg_input(), pair)
        assert c.shape == (1, 1) + hbsg_input().amps.shape
        assert not c.any()
        assert list(clicks) == ["D1A", "D1B"]
        assert not any(a.any() for cs in clicks.values() for a in cs)
        # so the analyzer's stage 1 leaves a zero state
        stage1 = run_hbsa_stage1(hbsa_input(all_labels()[0]), pair)
        assert not stage1.state.amps.any() and stage1.spins is None
        assert (stage1.clean_weight, stage1.leaked_weight) == (0.0, 0.0)

    @pytest.mark.parametrize("pair", [EXAMPLE_PAIR, IDEAL_PAIR], ids=["lossy", "ideal"])
    def test_no_click_clicks_are_coefficients_in_both_modes(self, pair):
        state = hbsg_input()
        _, at_pair = protocols._no_click(hbsg_circuit(), state, pair)
        _, poly = protocols._no_click(hbsg_circuit(), state)
        assert list(at_pair) == list(poly) == ["D1A", "D1B"]
        s, h = pair.success_amplitude, pair.herald_amplitude
        for label in poly:
            for cs in (at_pair[label], poly[label]):
                assert isinstance(cs, list) and cs
                assert all(a.shape[2:] == state.amps.shape for a in cs)
            want = sum(_weight(_evaluate(c, s, h).sum(axis=(0, 1))) for c in poly[label])
            got = sum(_weight(c.sum(axis=(0, 1))) for c in at_pair[label])
            assert got == pytest.approx(want, rel=0, abs=1e-12)

    def test_circuit_without_spin_measurement_is_a_configuration_error(self):
        text = "".join(line for line in protocols.HBSG_CIRCUIT_TEXT.splitlines(True)
                       if not line.startswith("op measure_spin"))
        with pytest.raises(ConfigurationError, match="no measure_spin"):
            protocols._no_click(parse_circuit(text), hbsg_input())
        with pytest.raises(ConfigurationError, match="no measure_spin"):
            protocols._readout(text)

    @pytest.mark.parametrize("edit", [
        ("op measure_spin qd=QD2\n", "op measure_spin qd=QD2\nop wfc photon=A path=a1\n"),
        ("op measure_spin qd=QD2\n", ""),
        ("op measure_spin qd=QD2\n", "op measure_spin qd=QD2\nop measure_spin qd=QD1\n"),
        (_LAST_DETECTOR, _LAST_DETECTOR + "op bs photon=A in=a1p,c1 out=a1p,c1\n"),
        (_LAST_DETECTOR, _LAST_DETECTOR + "op bs photon=A in=a1p,a2p out=a1p,a2p\n"),
    ], ids=["wfc-in-readout", "qd2-unmeasured", "qd1-measured-twice",
            "passive-op-after-detector", "paths-mixed-after-detection"])
    def test_readout_it_cannot_read_is_a_configuration_error(self, edit):
        text = protocols.HBSA_FULL_TEXT.replace(*edit)
        assert text != protocols.HBSA_FULL_TEXT
        parse_circuit(text)  # a valid circuit, but not a readout _read_out can apply
        with pytest.raises(ConfigurationError, match="analysis readout"):
            protocols._readout(text)

    def test_readout_of_one_declared_qd_is_a_configuration_error(self):
        # the readout projects two spin slots, so QD2 must be declared and measured
        text = "".join(line for line in protocols.HBSA_FULL_TEXT.splitlines(True)
                       if "QD2" not in line)
        assert [qd.name for qd in parse_circuit(text).qds] == ["QD1"]
        with pytest.raises(ConfigurationError, match="analysis readout"):
            protocols._readout(text)

    def test_text_rules_take_no_default_text(self):
        from hyperbell import analysis

        rules = [protocols._readout, protocols._hbsa_forms, protocols._hbsa_support,
                 protocols._support, analysis._generation_forms]
        for rule in rules:
            param = inspect.signature(rule).parameters["text"]
            assert param.default is inspect.Parameter.empty, rule.__name__
