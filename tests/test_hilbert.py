import math
import re

import numpy as np
import pytest

from conftest import measure_op, random_state
from hyperbell.errors import ConfigurationError
from hyperbell.hilbert import (
    POL_H,
    POL_L,
    POL_R,
    POL_V,
    SPIN_MINUS,
    SPIN_PLUS,
    _SPIN_X_PROJ,
    HybridState,
    StateLayout,
    _apply_photon_matrix,
    _apply_spin_matrix,
    _path_slice,
    _polspin,
    _project_path,
    _x_amplitudes,
    apply_single_photon_op,
    apply_spin_conditional_op,
    format_state,
    overlap,
    pol_vector,
    product_state,
    spin_vector,
    zero_state,
)

SQ2 = np.sqrt(2.0)


class TestPolarizationBasis:
    def test_linear_basis_from_circular(self):
        np.testing.assert_allclose(POL_H, (POL_R + POL_L) / SQ2)
        np.testing.assert_allclose(POL_V, (POL_R - POL_L) / SQ2)

    def test_round_trip_is_identity(self):
        # circular -> linear -> circular
        h = np.array([[1, 1], [1, -1]]) / SQ2
        np.testing.assert_allclose(h @ h, np.eye(2), atol=1e-15)

    def test_linear_basis_orthonormal(self):
        assert abs(np.vdot(POL_H, POL_V)) < 1e-15
        assert abs(np.vdot(POL_H, POL_H) - 1) < 1e-15


class TestSpinXBasis:
    @pytest.mark.parametrize("e, v", [("+", SPIN_PLUS), ("-", SPIN_MINUS)])
    def test_projector_is_outer_product_of_x_vector(self, e, v):
        np.testing.assert_allclose(_SPIN_X_PROJ[e], np.outer(v, v.conj()), rtol=0, atol=2e-16)

    def test_x_amplitudes_are_overlaps_with_the_x_products(self, rng):
        shape = (3, 2) + (2,) * 6  # two leading degree axes, as on runner coefficients
        amps = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        x = _x_amplitudes(amps)
        for i, u in enumerate((SPIN_PLUS, SPIN_MINUS)):
            for j, v in enumerate((SPIN_PLUS, SPIN_MINUS)):
                overlaps = amps.reshape(-1, 4) @ np.kron(u, v).conj()
                np.testing.assert_allclose(x[..., i, j].ravel(), overlaps, rtol=0, atol=1e-15)

    def test_derived_vectors_and_projectors_equal_their_literals_bit_for_bit(self):
        # the literals the X basis was once written as; int64 views count signed zeros
        literals = [
            (SPIN_PLUS, np.array([1.0, 1.0], dtype=complex) / SQ2),
            (SPIN_MINUS, np.array([1.0, -1.0], dtype=complex) / SQ2),
            (_SPIN_X_PROJ["+"], np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)),
            (_SPIN_X_PROJ["-"], np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)),
        ]
        assert list(_SPIN_X_PROJ) == ["+", "-"]
        for derived, literal in literals:
            assert derived.dtype == literal.dtype and derived.shape == literal.shape
            np.testing.assert_array_equal(derived.view(np.int64), literal.view(np.int64))


class TestLayout:
    def test_shape(self, small_layout):
        assert small_layout.shape == (2, 2, 2, 2, 2, 2)
        assert math.prod(small_layout.shape) == 64

    def test_unknown_path_rejected(self, small_layout):
        with pytest.raises(ConfigurationError):
            small_layout.path_index("A", "zz")
        with pytest.raises(ConfigurationError):
            small_layout.path_index("C", "a1")

    def test_duplicate_paths_rejected(self):
        with pytest.raises(ConfigurationError):
            StateLayout(photons=("A", "B"), paths=(("a1", "a1"), ("b1",)))


class TestApplySinglePhotonOp:
    def test_identity_is_bit_identical(self, small_layout, rng):
        state = random_state(small_layout, rng)
        out = apply_single_photon_op(state, "A", np.eye(4, dtype=complex))
        assert np.array_equal(out.amps, state.amps)

    def test_polarization_bit_flip(self, small_layout):
        # Z = |R><L| + |L><R| on every path of photon A
        state = product_state(small_layout, "R", "a1", "R", "b1")
        z = np.kron(np.array([[0, 1], [1, 0]]), np.eye(2)).astype(complex)
        out = apply_single_photon_op(state, "A", z)
        expected = product_state(small_layout, "L", "a1", "R", "b1")
        np.testing.assert_allclose(out.amps, expected.amps, atol=1e-15)

    def test_contraction_never_grows_norm(self, small_layout, rng):
        # brute-force oracle: embed the op in the full space and compare
        for _ in range(50):
            state = random_state(small_layout, rng)
            m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            u, s, vh = np.linalg.svd(m)
            op = u @ np.diag(np.minimum(s, 1.0)) @ vh
            out = apply_single_photon_op(state, "A", op)
            assert out.norm2 <= 1 + 1e-12
            full = np.kron(op, np.eye(16, dtype=complex))
            oracle = full @ state.amps.reshape(-1)
            np.testing.assert_allclose(out.amps.reshape(-1), oracle, atol=1e-12)

    def test_photon_b_oracle(self, small_layout, rng):
        # same embedding oracle for the second photon slot
        state = random_state(small_layout, rng)
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        out = apply_single_photon_op(state, "B", m)
        moved = np.moveaxis(state.amps, (2, 3), (0, 1)).reshape(4, -1)
        oracle = np.moveaxis((m @ moved).reshape(2, 2, 2, 2, 2, 2), (0, 1), (2, 3))
        np.testing.assert_allclose(out.amps, oracle, atol=1e-12)

    def test_wrong_shape_rejected(self, small_layout, rng):
        with pytest.raises(ConfigurationError):
            apply_single_photon_op(random_state(small_layout, rng), "A", np.eye(6))

    def test_linearity(self, small_layout, rng):
        for _ in range(20):
            x = random_state(small_layout, rng)
            y = random_state(small_layout, rng)
            a, b = rng.normal(size=2) + 1j * rng.normal(size=2)
            op = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            lhs = apply_single_photon_op(
                HybridState(small_layout, a * x.amps + b * y.amps), "A", op)
            rhs = (a * apply_single_photon_op(x, "A", op).amps
                   + b * apply_single_photon_op(y, "A", op).amps)
            np.testing.assert_allclose(lhs.amps, rhs, atol=1e-12)


class TestApplySpinConditionalOp:
    def test_diagonal_reflection_on_r_up(self, small_layout):
        r_o, r_h = -0.8 + 0.1j, 0.9 - 0.2j
        op = np.diag([r_o, r_h, r_h, r_o])
        state = product_state(small_layout, "R", "a1", "R", "b1", "up", "up")
        out = apply_spin_conditional_op(state, "A", 1, op, "a1")
        np.testing.assert_allclose(out.amps, r_o * state.amps, atol=1e-15)

    def test_disjoint_path_untouched(self, small_layout):
        op = np.diag([-1.0, 1.0, 1.0, -1.0]).astype(complex)
        state = product_state(small_layout, "R", "a2", "R", "b1", "up", "up")
        out = apply_spin_conditional_op(state, "A", 1, op, "a1")
        assert np.array_equal(out.amps, state.amps)

    def test_ideal_reflection_squares_to_identity(self, small_layout, rng):
        # oracle: the matrix square, computed independently
        op = np.diag([-1.0, 1.0, 1.0, -1.0]).astype(complex)
        np.testing.assert_allclose(op @ op, np.eye(4), atol=1e-15)
        state = random_state(small_layout, rng)
        out = apply_spin_conditional_op(
            apply_spin_conditional_op(state, "A", 1, op, "a1"), "A", 1, op, "a1")
        np.testing.assert_allclose(out.amps, state.amps, atol=1e-12)

    def test_acts_on_chosen_spin(self, small_layout):
        op = np.diag([1.0, -1.0, -1.0, 1.0]).astype(complex)  # pol_z (x) spin_z
        state = product_state(small_layout, "R", "a1", "R", "b1", "+", "+")
        out = apply_spin_conditional_op(state, "A", 2, op, "a1")
        expected = product_state(small_layout, "R", "a1", "R", "b1", "+", "-")
        np.testing.assert_allclose(out.amps, expected.amps, atol=1e-15)


class TestKernelsBatchLeadingAxes:
    def test_leading_axes_match_per_slice(self, rng):
        # the runner applies each kernel once to a branch's whole
        # [s-degree, h-degree, *state] coefficient array
        layout = StateLayout(photons=("A", "B"), paths=(("a1", "a2", "a3"), ("b1", "b2")))

        def cplx(*shape):
            return rng.normal(size=shape) + 1j * rng.normal(size=shape)

        amps = cplx(3, 2, *layout.shape)

        def assert_batched(kernel):
            batched = kernel(amps)
            for i, k in np.ndindex(3, 2):
                np.testing.assert_allclose(batched[i, k], kernel(amps[i, k]),
                                           rtol=0, atol=1e-13)

        for slot in (0, 1):
            d = 2 * len(layout.paths[slot])
            mat, mat2 = cplx(d, d), cplx(2, 2)
            assert_batched(lambda a: _apply_photon_matrix(a, slot, mat))
            assert_batched(lambda a: _apply_spin_matrix(a, slot, mat2))
            for path_idx in range(len(layout.paths[slot])):
                on_path = _path_slice(slot, path_idx)
                assert_batched(lambda a: _project_path(a, slot, path_idx))
                for spin_slot in (0, 1):
                    mat4 = cplx(4, 4)
                    assert_batched(lambda a: _polspin(a[on_path], slot, spin_slot, mat4))


class TestMeasure:
    """Measurement is the runner's: each case runs a one-op circuit."""

    def test_spin_x_eigenstate(self, small_layout):
        state = product_state(small_layout, "R", "a1", "R", "b1", "+", "+")
        branches = measure_op(state, "measure_spin qd=QD1")
        assert len(branches) == 1
        assert branches[0].record == (("QD1", "+"),)
        assert abs(branches[0].probability - 1.0) < 1e-12

    def test_spin_x_on_up_is_fifty_fifty(self, small_layout):
        state = product_state(small_layout, "R", "a1", "R", "b1", "up", "+")
        branches = measure_op(state, "measure_spin qd=QD1")
        assert sorted(b.record[0][1] for b in branches) == ["+", "-"]
        for b in branches:
            assert abs(b.probability - 0.5) < 1e-12
            # the collapsed state is an eigenstate: measuring again repeats the outcome
            (again,) = measure_op(b.physical_state().normalized(), "measure_spin qd=QD1")
            assert again.record == b.record
            assert abs(again.probability - 1.0) < 1e-12

    def test_generated_state_gives_four_quarter_branches(self, small_layout):
        # the four-term hyperentangled output, spins correlated with the state
        from hyperbell.protocols import Bell, make_bell

        terms = [
            (Bell.PHI_PLUS, Bell.PHI_PLUS, ("+", "+")),
            (Bell.PSI_MINUS, Bell.PSI_MINUS, ("+", "-")),
            (Bell.PSI_PLUS, Bell.PHI_MINUS, ("-", "+")),
            (Bell.PHI_MINUS, Bell.PSI_PLUS, ("-", "-")),
        ]
        amps = sum(0.5 * make_bell(p, s, small_layout, spins=sp).amps
                   for p, s, sp in terms)
        state = HybridState(small_layout, amps)
        assert abs(state.norm2 - 1.0) < 1e-12
        joint = []
        for b1 in measure_op(state, "measure_spin qd=QD1"):
            for b2 in measure_op(b1.physical_state().normalized(), "measure_spin qd=QD2"):
                joint.append((b1.record + b2.record,
                              b1.probability * b2.probability))
        assert len(joint) == 4
        for _, p in joint:
            assert abs(p - 0.25) < 1e-10

    def test_detector_click_and_no_click(self, small_layout):
        state = product_state(small_layout, "R", {"a1": 1 / SQ2, "a2": 1j / SQ2},
                              "R", "b1")
        branches = measure_op(state, "detector photon=A path=a1 label=D")
        by_record = {b.record: b for b in branches}
        # a silent detector adds no record entry
        assert set(by_record) == {(("D", "click"),), ()}
        assert abs(by_record[(("D", "click"),)].probability - 0.5) < 1e-12
        assert abs(by_record[()].probability - 0.5) < 1e-12

    def test_completeness_preserves_subnormalized_weight(self, small_layout, rng):
        state = random_state(small_layout, rng)
        state = HybridState(small_layout, 0.7 * state.amps)
        branches = measure_op(state, "measure_spin qd=QD2")
        assert abs(sum(b.probability for b in branches) - state.norm2) < 1e-10


class TestOverlap:
    def test_self_overlap_of_normalized_state(self, small_layout, rng):
        x = random_state(small_layout, rng)
        assert abs(overlap(x, x) - 1.0) < 1e-12

    def test_orthogonal_bell_states(self, small_layout):
        from hyperbell.protocols import Bell, make_bell

        a = make_bell(Bell.PHI_PLUS, Bell.PHI_PLUS, small_layout)
        b = make_bell(Bell.PHI_MINUS, Bell.PHI_PLUS, small_layout)
        assert abs(overlap(a, b)) < 1e-15

    def test_block_output_matches_target(self, small_layout):
        # ideal heralded block output vs |R>|phi->
        from hyperbell.blocks import BlockConfig, heralded_block
        from hyperbell.cavity import IDEAL_PAIR

        state = product_state(small_layout, "L", "a1", "R", "b1", "+", "+")
        branches = heralded_block(state, "A", "a1",
                                  BlockConfig(qd=1, pair=IDEAL_PAIR))
        assert len(branches) == 1  # herald branch has zero probability
        target = product_state(small_layout, "R", "a1", "R", "b1", "-", "+")
        assert abs(abs(overlap(target, branches[0].residual)) - 1.0) < 1e-12

    def test_layout_mismatch_rejected(self, small_layout, rng):
        other = StateLayout(photons=("A", "B"), paths=(("a1",), ("b1",)))
        with pytest.raises(ConfigurationError):
            overlap(random_state(small_layout, rng),
                    product_state(other, "R", "a1", "R", "b1"))


class TestFormatState:
    def test_single_term(self, small_layout):
        state = product_state(small_layout, "R", "a1", "L", "b2", "+", "-")
        text = format_state(state)
        assert text == "+1.000000|R a1; L b2; +->"

    def test_zero_state(self, small_layout):
        assert format_state(zero_state(small_layout)) == "0"


class TestInvalidInputs:
    """Each invalid argument of the public state API is a ConfigurationError."""

    @pytest.mark.parametrize("make, message", [
        (lambda: pol_vector("X"), "unknown polarization 'X'"),
        (lambda: spin_vector("sideways"), "unknown spin state 'sideways'"),
        (lambda: pol_vector([1, 0, 0]), "polarization vector must have length 2"),
        (lambda: spin_vector([[1, 0]]), "spin vector must have length 2"),
        (lambda: StateLayout(photons=("A", "A"), paths=(("a1",), ("b1",))),
         "two distinct photon names"),
    ], ids=["pol-name", "spin-name", "pol-length", "spin-shape", "same-photon-names"])
    def test_factor_and_layout_errors(self, make, message):
        with pytest.raises(ConfigurationError, match=message):
            make()

    @pytest.mark.parametrize("vector", [[None, 1], [np.nan, 1], [1, np.inf], ["x", 1], ["1", 0]],
                             ids=["none", "nan", "inf", "str", "numeric-str"])
    def test_a_non_finite_factor_vector_is_rejected(self, small_layout, vector):
        message = f"spin vector must have length 2 and finite entries: {vector!r}"
        with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
            product_state(small_layout, "H", "a1", "H", "b1", spin1=vector)
        with pytest.raises(ConfigurationError, match="^polarization vector must have length 2"):
            product_state(small_layout, vector, "a1", "H", "b1")

    def test_path_vector_takes_an_array_of_the_photon_length(self, small_layout):
        v = small_layout.path_vector("B", [0.6, 0.8j])
        assert v.dtype == complex and v.tolist() == [0.6, 0.8j]
        with pytest.raises(ConfigurationError, match="photon 'B' must have length 2"):
            small_layout.path_vector("B", [1.0, 0.0, 0.0])

    @pytest.mark.parametrize("path", [{"a1": float("nan")}, {"a2": None}, [np.inf, 0],
                                      [None, 1], ["x", 1], ["1", 0], [[1], [1, 0]]],
                             ids=["nan-map", "none-map", "inf", "none", "str", "numeric-str",
                                  "ragged"])
    def test_a_path_vector_entry_not_a_finite_number_is_rejected(self, small_layout, path):
        message = f"path vector for photon 'A' must have length 2 and finite entries: {path!r}"
        with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
            small_layout.path_vector("A", path)
        with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
            product_state(small_layout, "H", path, "H", "b1")

    def test_amplitude_shape_must_match_the_layout(self, small_layout):
        with pytest.raises(ConfigurationError, match="does not match layout shape"):
            HybridState(small_layout, np.zeros((2, 2, 2, 2, 2)))

    def test_zero_state_cannot_be_normalized(self, small_layout):
        with pytest.raises(ConfigurationError, match="cannot normalize a zero state"):
            zero_state(small_layout).normalized()

    @pytest.mark.parametrize("spin, op, message", [
        (0, np.eye(4), "spin must be 1 or 2"),
        (3, np.eye(4), "spin must be 1 or 2"),
        (1, np.eye(2), "spin-conditional operator must be 4x4"),
    ], ids=["spin-0", "spin-3", "op-2x2"])
    def test_spin_conditional_op_arguments(self, small_layout, spin, op, message):
        state = product_state(small_layout, "R", "a1", "R", "b1")
        with pytest.raises(ConfigurationError, match=message):
            apply_spin_conditional_op(state, "A", spin, op, "a1")
