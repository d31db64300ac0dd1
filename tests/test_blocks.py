import numpy as np
import pytest

from conftest import random_state
from hyperbell.blocks import BlockConfig, heralded_block
from hyperbell.cavity import (
    IDEAL_PAIR,
    CavityParams,
    ReflectionPair,
    reflection_coefficients,
    reflection_operator,
)
from hyperbell.errors import NumericDomainError, PreconditionError
from hyperbell.hilbert import HybridState, apply_spin_conditional_op, overlap, product_state
from hyperbell.optics import parse_circuit, run_circuit_tracked

EXAMPLE_PAIR = reflection_coefficients(CavityParams(g=1.0, gamma=0.1))
SQ2 = np.sqrt(2.0)


def arm_oracle_4x4(pair):
    """Independent composition Hp . reflection . Hp on (pol (x) spin)."""
    hp4 = np.kron(np.array([[1, 1], [1, -1]]) / SQ2, np.eye(2)).astype(complex)
    return hp4 @ reflection_operator(pair) @ hp4


class TestHeraldedBlock:
    def test_ideal_block_is_deterministic(self, small_layout):
        state = product_state(small_layout, "L", "a1", "R", "b1", "+", "+")
        branches = heralded_block(state, "A", "a1", BlockConfig(qd=1, pair=IDEAL_PAIR))
        assert len(branches) == 1
        (branch,) = branches
        assert branch.record == (("D", "no_click"),)
        assert abs(branch.probability - 1.0) < 1e-12
        target = product_state(small_layout, "R", "a1", "R", "b1", "-", "+")
        assert abs(abs(overlap(target, branch.residual)) - 1.0) < 1e-12

    def test_example_pair_probabilities(self, small_layout):
        state = product_state(small_layout, "L", "a1", "R", "b1", "+", "+")
        branches = heralded_block(state, "A", "a1",
                                  BlockConfig(qd=1, pair=EXAMPLE_PAIR))
        by = {b.record[0][1]: b for b in branches}
        assert abs(by["no_click"].probability - 0.951815) < 1e-6
        assert abs(by["click"].probability - 0.000595) < 1e-6
        target = product_state(small_layout, "R", "a1", "R", "b1", "-", "+")
        assert abs(abs(overlap(target, by["no_click"].residual)) - 1.0) < 1e-12
        # herald branch keeps polarization and spin unchanged
        herald_target = product_state(small_layout, "L", "a1", "R", "b1", "+", "+")
        assert abs(abs(overlap(herald_target, by["click"].residual)) - 1.0) < 1e-12

    def test_spin_up_input_against_matrix_oracle(self, small_layout):
        # oracle: the composed 4x4 arm matrix applied to the (L, up) column,
        # then split into R (success) and L (herald) components
        pair = EXAMPLE_PAIR
        col = arm_oracle_4x4(pair)[:, 2]  # input index 2 = (L, up)
        success_oracle = (
            col[0] * product_state(small_layout, "R", "a1", "R", "b1", "up", "+").amps
            + col[1] * product_state(small_layout, "R", "a1", "R", "b1", "down", "+").amps)
        state = product_state(small_layout, "L", "a1", "R", "b1", "up", "+")
        branches = heralded_block(state, "A", "a1", BlockConfig(qd=1, pair=pair))
        success = [b for b in branches if b.record[0][1] == "no_click"][0]
        np.testing.assert_allclose(
            success.residual.amps * np.sqrt(success.probability),
            success_oracle, atol=1e-12)
        # sigma_z leaves the up spin alone: the success output keeps spin up
        target = product_state(small_layout, "R", "a1", "R", "b1", "up", "+")
        assert abs(abs(overlap(target, success.residual)) - 1.0) < 1e-12

    def test_overflow_is_numeric_domain_error(self, small_layout):
        # at 1e200 both branches came back with probability inf and zeroed states
        state = product_state(small_layout, "L", "a1", "R", "b1", "+", "+")
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericDomainError, match="overflows"):
                heralded_block(state, "A", "a1", BlockConfig(1, ReflectionPair(1e200, 1e200)))
        # |r| > 1 stays legal where nothing overflows
        branches = heralded_block(state, "A", "a1", BlockConfig(1, ReflectionPair(1e30, 1e30)))
        by = {b.record[0][1]: b.probability for b in branches}
        assert by["click"] == pytest.approx(1e60) and np.isfinite(list(by.values())).all()

    def test_r_amplitude_on_path_rejected(self, small_layout):
        state = product_state(small_layout, "R", "a1", "R", "b1", "+", "+")
        with pytest.raises(PreconditionError):
            heralded_block(state, "A", "a1", BlockConfig(qd=1, pair=IDEAL_PAIR))

    def test_off_path_amplitude_passes_by(self, small_layout):
        state = product_state(small_layout, "L", {"a1": 1 / SQ2, "a2": 1 / SQ2},
                              "R", "b1", "+", "+")
        branches = heralded_block(state, "A", "a1",
                                  BlockConfig(qd=1, pair=IDEAL_PAIR))
        (branch,) = branches
        # a2 amplitude untouched, a1 amplitude converted to R with spin flip
        expected = (product_state(small_layout, "L", "a2", "R", "b1", "+", "+").amps
                    - product_state(small_layout, "R", "a1", "R", "b1", "-", "+").amps
                    ) / SQ2
        np.testing.assert_allclose(
            branch.residual.amps * np.sqrt(branch.probability), expected,
            atol=1e-12)

    def test_completeness_for_unit_modulus_pairs(self, small_layout, rng):
        for _ in range(50):
            theta, phi = rng.uniform(0, 2 * np.pi, size=2)
            pair = ReflectionPair(r_o=np.exp(1j * theta), r_h=np.exp(1j * phi))
            state = product_state(small_layout, "L", "a1", "R", "b1",
                                  rng.normal(size=2) + 1j * rng.normal(size=2),
                                  "+")
            state = HybridState(small_layout, state.amps / np.sqrt(state.norm2))
            branches = heralded_block(state, "A", "a1", BlockConfig(qd=1, pair=pair))
            assert abs(sum(b.probability for b in branches) - 1.0) < 1e-10

    def test_success_amplitude_magnitude(self, small_layout, rng):
        for _ in range(20):
            pair = ReflectionPair(
                r_o=rng.normal() + 1j * rng.normal(),
                r_h=rng.normal() + 1j * rng.normal())
            spin = rng.normal(size=2) + 1j * rng.normal(size=2)
            spin /= np.linalg.norm(spin)
            state = product_state(small_layout, "L", "a1", "R", "b1", spin, "+")
            branches = heralded_block(state, "A", "a1",
                                      BlockConfig(qd=1, pair=pair))
            success = [b for b in branches if b.record[0][1] == "no_click"]
            expected = abs(pair.success_amplitude) ** 2
            got = success[0].probability if success else 0.0
            assert abs(got - expected) < 1e-10


def parity_gate(state, photon, path, qd, pair):
    """One ``block mode=parity`` on the bound path, run by the runner on the
    state's own layout with spins QD1 and QD2: the gate's single branch."""
    layout = state.layout
    circuit = parse_circuit(
        "qd QD1 basis=+\nqd QD2 basis=+\n"
        + "".join(f"photon {name} paths={','.join(paths)}\n"
                  for name, paths in zip(layout.photons, layout.paths))
        + f"block mode=parity qd=QD{qd} photon={photon} path={path}\n")
    (branch,) = run_circuit_tracked(circuit, state, pair).branches
    return branch.physical_state()


class TestParityGate:
    def test_ideal_on_phi_plus(self, small_layout):
        state = product_state(small_layout, "R", "a1", "R", "b1", "+", "+")
        out = parity_gate(state, "A", "a1", 1, IDEAL_PAIR)
        expected = -product_state(small_layout, "R", "a1", "R", "b1", "-", "+").amps
        np.testing.assert_allclose(out.amps, expected, atol=1e-12)

    def test_ideal_involution(self, small_layout, rng):
        state = random_state(small_layout, rng)
        out = parity_gate(parity_gate(state, "A", "a1", 1, IDEAL_PAIR), "A", "a1", 1, IDEAL_PAIR)
        np.testing.assert_allclose(out.amps, state.amps, atol=1e-12)

    @staticmethod
    def closed_form(pair):
        s, h = pair.success_amplitude, pair.herald_amplitude
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        sz = np.diag([1.0, -1.0]).astype(complex)
        return h * np.kron(sx, np.eye(2)) + s * np.kron(np.eye(2), sz)

    def test_closed_form_action(self, small_layout, rng):
        # the gate must equal h * pol-flip + s * spin-X-flip on the bound path
        pair = ReflectionPair(r_o=rng.normal() + 1j * rng.normal(),
                              r_h=rng.normal() + 1j * rng.normal())
        state = random_state(small_layout, rng)
        out = parity_gate(state, "A", "a1", 1, pair)
        oracle = apply_spin_conditional_op(state, "A", 1, self.closed_form(pair), "a1")
        np.testing.assert_allclose(out.amps, oracle.amps, atol=1e-12)
        # and so on photon B's second rail with QD2, at pairs and states
        # drawn as TestBlockMatchesMacro draws them
        for _ in range(20):
            pair = TestBlockMatchesMacro.random_pair(rng)
            state = random_state(small_layout, rng)
            out = parity_gate(state, "B", "b2", 2, pair)
            oracle = apply_spin_conditional_op(state, "B", 2, self.closed_form(pair), "b2")
            np.testing.assert_allclose(out.amps, oracle.amps, atol=1e-12)

    def test_fully_absorbed_arm_gives_zero_state(self, small_layout):
        # r_o = r_h = 0 (g = 0, kappa_s = kappa): nothing leaves the bound path
        pair = reflection_coefficients(CavityParams(g=0.0, kappa_s=1.0))
        state = product_state(small_layout, "L", "a1", "R", "b1", "+", "+")
        assert heralded_block(state, "A", "a1", BlockConfig(qd=1, pair=pair)) == []
        out = parity_gate(state, "A", "a1", 1, pair)
        assert out.layout == small_layout
        assert not out.amps.any()

    def test_parity_recording_on_odd_spatial_state(self):
        # two passages on the rails of an odd spatial state flip the spin once
        from hyperbell.protocols import Bell, make_bell

        for pol in (Bell.PHI_PLUS, Bell.PHI_MINUS):
            state = make_bell(pol, Bell.PSI_PLUS)
            out = parity_gate(state, "A", "a1", 1, IDEAL_PAIR)
            out = parity_gate(out, "B", "b1", 1, IDEAL_PAIR)
            target = make_bell(pol, Bell.PSI_PLUS, spins=("-", "+"))
            assert abs(abs(overlap(target, out)) - 1.0) < 1e-12

    def test_even_passage_count_restores_spin(self, small_layout):
        # even-parity spatial component: spin flipped twice, i.e. unchanged
        from hyperbell.protocols import Bell, make_bell

        state = make_bell(Bell.PSI_MINUS, Bell.PHI_MINUS)
        out = parity_gate(parity_gate(state, "A", "a1", 1, IDEAL_PAIR), "B", "b1", 1, IDEAL_PAIR)
        target = make_bell(Bell.PSI_MINUS, Bell.PHI_MINUS, spins=("+", "+"))
        assert abs(abs(overlap(target, out)) - 1.0) < 1e-12


class TestBlockMatchesMacro:
    """The Python API and the circuit-language block macro agree."""

    MACRO = ("qd QD1 basis=+\nqd QD2 basis=+\n"
             "photon A paths=a1,a2\nphoton B paths=b1,b2\n"
             "block mode={mode} qd=QD2 photon=B path=b2{label}\n")

    @staticmethod
    def random_pair(rng):
        r_o, r_h = rng.uniform(0, 1, size=2) * np.exp(1j * rng.uniform(0, 2 * np.pi, size=2))
        return ReflectionPair(r_o=r_o, r_h=r_h)

    def test_heralded_block(self, small_layout, rng):
        circuit = parse_circuit(self.MACRO.format(mode="heralded", label=" label=D"))
        assert circuit.layout() == small_layout
        for _ in range(20):
            pair = self.random_pair(rng)
            spins = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            # L on the bound path b2, any polarization off it
            pol_b1 = rng.normal(size=2) + 1j * rng.normal(size=2)
            amps = (product_state(small_layout, "R", "a1", pol_b1, "b1", *spins).amps
                    + product_state(small_layout, "H", "a2", "L", "b2", *spins).amps)
            state = HybridState(small_layout, amps)
            by = {b.record[0][1]: b for b in heralded_block(
                state, "B", "b2", BlockConfig(qd=2, pair=pair))}
            run = run_circuit_tracked(circuit, state, pair)
            macro = {b.record: b for b in run.branches}
            assert set(macro) == {(("D", "click"),), ()}
            assert abs(by["click"].probability - run.click_probability["D"]) < 1e-12
            for outcome, record in (("click", (("D", "click"),)), ("no_click", ())):
                assert abs(by[outcome].probability - macro[record].probability) < 1e-12
                np.testing.assert_allclose(
                    by[outcome].residual.amps * np.sqrt(by[outcome].probability),
                    macro[record].physical_state().amps, atol=1e-12)
