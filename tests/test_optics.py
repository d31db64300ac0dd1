import numpy as np
import pytest

from conftest import random_state
from hyperbell.cavity import IDEAL_PAIR, CavityParams, ReflectionPair, reflection_coefficients
from hyperbell.errors import ConfigurationError
from hyperbell.hilbert import (
    HybridState,
    StateLayout,
    apply_single_photon_op,
    overlap,
    product_state,
)
from hyperbell.optics import (
    Circuit,
    Element,
    ElementKind,
    bs_matrix,
    cpbs_matrix,
    element_matrix,
    hp_matrix,
    parse_circuit,
    pbs_matrix,
    run_circuit,
    run_circuit_tracked,
    serialize_circuit,
    wfc_matrix,
    z_matrix,
)

SQ2 = np.sqrt(2.0)
EXAMPLE_PAIR = reflection_coefficients(CavityParams(g=1.0, gamma=0.1))


class TestHalfWavePlate:
    def test_involution(self, small_layout, rng):
        state = random_state(small_layout, rng)
        hp = hp_matrix(small_layout, "A", "a1")
        out = apply_single_photon_op(apply_single_photon_op(state, "A", hp), "A", hp)
        np.testing.assert_allclose(out.amps, state.amps, atol=1e-12)

    def test_l_to_difference(self, small_layout):
        state = product_state(small_layout, "L", "a1", "R", "b1")
        out = apply_single_photon_op(state, "A", hp_matrix(small_layout, "A", "a1"))
        expected = (product_state(small_layout, "R", "a1", "R", "b1").amps
                    - product_state(small_layout, "L", "a1", "R", "b1").amps) / SQ2
        np.testing.assert_allclose(out.amps, expected, atol=1e-15)

    def test_disjoint_path_untouched(self, small_layout):
        state = product_state(small_layout, "R", "a2", "R", "b1")
        out = apply_single_photon_op(state, "A", hp_matrix(small_layout, "A", "a1"))
        assert np.array_equal(out.amps, state.amps)


class TestBeamSplitter:
    def test_involution(self, small_layout, rng):
        state = random_state(small_layout, rng)
        bs = bs_matrix(small_layout, "A", ("a1", "a2"), ("a1", "a2"))
        out = apply_single_photon_op(apply_single_photon_op(state, "A", bs), "A", bs)
        np.testing.assert_allclose(out.amps, state.amps, atol=1e-12)

    def test_constructive_interference(self, small_layout):
        state = product_state(small_layout, "R", {"a1": 1 / SQ2, "a2": 1 / SQ2},
                              "R", "b1")
        out = apply_single_photon_op(
            state, "A", bs_matrix(small_layout, "A", ("a1", "a2"), ("a1", "a2")))
        expected = product_state(small_layout, "R", "a1", "R", "b1")
        np.testing.assert_allclose(out.amps, expected.amps, atol=1e-15)

    def test_antisymmetric_spatial_state_invariant(self):
        # oracle: apply the 4x4 path-pair product matrix directly
        layout = StateLayout(photons=("A", "B"),
                             paths=(("a1", "a2", "c1", "c2"), ("b1", "b2", "d1", "d2")))
        from hyperbell.protocols import Bell, make_bell

        psi_minus = make_bell(Bell.PHI_PLUS, Bell.PSI_MINUS, layout)
        out = apply_single_photon_op(
            psi_minus, "A", bs_matrix(layout, "A", ("a1", "a2"), ("c1", "c2")))
        out = apply_single_photon_op(
            out, "B", bs_matrix(layout, "B", ("b1", "b2"), ("d1", "d2")))
        h = np.array([[1, 1], [1, -1]]) / SQ2
        spatial_in = np.array([0, 1, -1, 0]) / SQ2  # a1 b2 - a2 b1
        spatial_out = np.kron(h, h) @ spatial_in  # rail-pair oracle
        np.testing.assert_allclose(spatial_out, -spatial_in, atol=1e-15)
        target = make_bell(Bell.PHI_PLUS, Bell.PSI_MINUS, layout,
                           rails=(("c1", "c2"), ("d1", "d2")))
        assert abs(abs(overlap(target, out)) - 1.0) < 1e-12

    def test_fresh_output_ports_move_amplitude(self):
        layout = StateLayout(photons=("A", "B"),
                             paths=(("a1", "a2", "c1", "c2"), ("b1",)))
        state = product_state(layout, "R", "a1", "R", "b1")
        out = apply_single_photon_op(
            state, "A", bs_matrix(layout, "A", ("a1", "a2"), ("c1", "c2")))
        expected = product_state(layout, "R", {"c1": 1 / SQ2, "c2": 1 / SQ2},
                                 "R", "b1")
        np.testing.assert_allclose(out.amps, expected.amps, atol=1e-15)

    def test_partial_overlap_rejected(self, small_layout):
        with pytest.raises(ConfigurationError):
            bs_matrix(small_layout, "A", ("a1", "a2"), ("a1", "b1"))


class TestCircularPBS:
    def test_r_transmits_to_cross_port(self, small_layout):
        state = product_state(small_layout, "R", "a1", "R", "b1")
        out = apply_single_photon_op(
            state, "A", cpbs_matrix(small_layout, "A", ("a1",), ("a1", "a2")))
        expected = product_state(small_layout, "R", "a2", "R", "b1")
        np.testing.assert_allclose(out.amps, expected.amps, atol=1e-15)

    def test_h_input_splits_across_ports(self, small_layout):
        state = product_state(small_layout, "H", "a1", "R", "b1")
        out = apply_single_photon_op(
            state, "A", cpbs_matrix(small_layout, "A", ("a1",), ("a1", "a2")))
        expected = (product_state(small_layout, "R", "a2", "R", "b1").amps
                    + product_state(small_layout, "L", "a1", "R", "b1").amps) / SQ2
        np.testing.assert_allclose(out.amps, expected, atol=1e-15)

    def test_single_photon_bell_merges_to_h(self, small_layout):
        # (R a2 + L a1)/sqrt2 -> H on port 1
        state = HybridState(small_layout, (
            product_state(small_layout, "R", "a2", "R", "b1").amps
            + product_state(small_layout, "L", "a1", "R", "b1").amps) / SQ2)
        out = apply_single_photon_op(
            state, "A", cpbs_matrix(small_layout, "A", ("a1", "a2"), ("a1", "a2")))
        expected = product_state(small_layout, "H", "a1", "R", "b1")
        np.testing.assert_allclose(out.amps, expected.amps, atol=1e-15)

    def test_duplicate_output_rejected(self, small_layout):
        with pytest.raises(ConfigurationError):
            cpbs_matrix(small_layout, "A", ("a1", "a2"), ("a1", "a1"))


class TestLinearPBS:
    def test_h_transmits(self, small_layout):
        state = product_state(small_layout, "H", "a1", "R", "b1")
        out = apply_single_photon_op(
            state, "A", pbs_matrix(small_layout, "A", "a1", ("a1", "a2")))
        expected = product_state(small_layout, "H", "a1", "R", "b1")
        np.testing.assert_allclose(out.amps, expected.amps, atol=1e-15)

    def test_v_reflects(self, small_layout):
        state = product_state(small_layout, "V", "a1", "R", "b1")
        out = apply_single_photon_op(
            state, "A", pbs_matrix(small_layout, "A", "a1", ("a1", "a2")))
        expected = product_state(small_layout, "V", "a2", "R", "b1")
        np.testing.assert_allclose(out.amps, expected.amps, atol=1e-15)

    def test_r_splits_into_h_and_v(self, small_layout):
        state = product_state(small_layout, "R", "a1", "R", "b1")
        out = apply_single_photon_op(
            state, "A", pbs_matrix(small_layout, "A", "a1", ("a1", "a2")))
        expected = (product_state(small_layout, "H", "a1", "R", "b1").amps
                    + product_state(small_layout, "V", "a2", "R", "b1").amps) / SQ2
        np.testing.assert_allclose(out.amps, expected, atol=1e-15)


class TestZAndWfc:
    def test_z_flips_polarization(self, small_layout):
        state = product_state(small_layout, "R", "a1", "R", "b1")
        out = apply_single_photon_op(state, "A", z_matrix(small_layout, "A", "a1"))
        expected = product_state(small_layout, "L", "a1", "R", "b1")
        np.testing.assert_allclose(out.amps, expected.amps, atol=1e-15)

    def test_z_involution_and_disjoint_path(self, small_layout, rng):
        state = random_state(small_layout, rng)
        z = z_matrix(small_layout, "A", "a1")
        np.testing.assert_allclose(
            apply_single_photon_op(apply_single_photon_op(state, "A", z), "A", z).amps,
            state.amps, atol=1e-13)
        on_a2 = product_state(small_layout, "R", "a2", "R", "b1")
        assert np.array_equal(apply_single_photon_op(on_a2, "A", z).amps, on_a2.amps)

    def test_wfc_ideal_pair_preserves_norm(self, small_layout):
        state = product_state(small_layout, "R", "a1", "R", "b1")
        out = apply_single_photon_op(
            state, "A", wfc_matrix(small_layout, "A", "a1", IDEAL_PAIR))
        np.testing.assert_allclose(out.amps, -state.amps, atol=1e-15)

    def test_wfc_example_pair_scaling(self, small_layout):
        state = product_state(small_layout, "R", "a1", "R", "b1")
        out = apply_single_photon_op(
            state, "A", wfc_matrix(small_layout, "A", "a1", EXAMPLE_PAIR))
        np.testing.assert_allclose(out.amps, -0.975610 * state.amps, atol=1e-6)
        assert abs(out.norm2 - abs(EXAMPLE_PAIR.success_amplitude) ** 2) < 1e-12

    def test_wfc_and_reflection_are_contractions(self, small_layout, rng):
        # neither may grow the squared norm while |r_o|, |r_h| <= 1
        from hyperbell.cavity import reflection_operator
        from hyperbell.hilbert import apply_spin_conditional_op

        for _ in range(100):
            r_o = rng.uniform(0, 1) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            r_h = rng.uniform(0, 1) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            pair = ReflectionPair(r_o=r_o, r_h=r_h)
            state = random_state(small_layout, rng)
            wfc = wfc_matrix(small_layout, "A", "a1", pair)
            assert apply_single_photon_op(state, "A", wfc).norm2 <= 1 + 1e-12
            reflected = apply_spin_conditional_op(
                state, "B", 2, reflection_operator(pair), "b2")
            assert reflected.norm2 <= 1 + 1e-12


class TestElementUnitarity:
    @pytest.mark.parametrize("builder", [
        lambda lo: Element(ElementKind.HP, photon="A", path="a1"),
        lambda lo: Element(ElementKind.Z, photon="A", path="a2"),
        lambda lo: Element(ElementKind.BS, photon="A",
                           in_paths=("a1", "a2"), out_paths=("a1", "a2")),
        lambda lo: Element(ElementKind.CPBS, photon="A",
                           in_paths=("a1",), out_paths=("a1", "a2")),
        lambda lo: Element(ElementKind.CPBS, photon="A",
                           in_paths=("a1", "a2"), out_paths=("a1", "a2")),
        lambda lo: Element(ElementKind.PBS, photon="A", path="a1",
                           out_paths=("a1", "a2")),
    ])
    def test_passive_elements_unitary(self, small_layout, builder):
        mat = element_matrix(builder(small_layout), small_layout)
        np.testing.assert_allclose(mat.conj().T @ mat, np.eye(mat.shape[0]),
                                   atol=1e-12)


# ---------------------------------------------------------------------------
# parser

BLOCK_CIRCUIT = """\
# error-heralded block acting on photon A
qd QD1 basis=+
photon A paths=a1
photon B paths=b1
block mode=heralded qd=QD1 photon=A path=a1 label=D
"""


class TestParser:
    def test_empty_file(self):
        circuit = parse_circuit("")
        assert circuit == Circuit()

    def test_comments_and_blank_lines_ignored(self):
        circuit = parse_circuit("\n# only a comment\n   \n")
        assert circuit.ops == ()

    def test_single_bs_line(self):
        text = ("photon A paths=a1,a2,c1,c2\nphoton B paths=b1\n"
                "op bs photon=A in=a1,a2 out=c1,c2\n")
        circuit = parse_circuit(text)
        assert circuit.ops == (Element(ElementKind.BS, photon="A",
                                       in_paths=("a1", "a2"),
                                       out_paths=("c1", "c2")),)

    def test_block_macro_expansion(self):
        circuit = parse_circuit(BLOCK_CIRCUIT)
        kinds = [el.kind for el in circuit.ops]
        assert kinds == [ElementKind.HP, ElementKind.QDARM, ElementKind.HP,
                         ElementKind.CPBS, ElementKind.DETECTOR]
        assert circuit.photons[0].paths == ("a1", "hD")

    def test_syntax_error_reports_line_number(self):
        with pytest.raises(ConfigurationError, match="line 2"):
            parse_circuit("photon A paths=a1\nop hp photon=A path\n")

    def test_dangling_path_reference(self):
        with pytest.raises(ConfigurationError, match="dangling path"):
            parse_circuit("photon A paths=a1\nop hp photon=A path=zz\n")

    def test_duplicate_qd_id(self):
        with pytest.raises(ConfigurationError, match="duplicate QD"):
            parse_circuit("qd Q basis=+\nqd Q basis=-\n")

    def test_undeclared_photon(self):
        with pytest.raises(ConfigurationError, match="undeclared photon"):
            parse_circuit("op hp photon=A path=a1\n")

    def test_unknown_keyword(self):
        with pytest.raises(ConfigurationError, match="line 1"):
            parse_circuit("wire A paths=a1\n")

    def test_unknown_element_kind(self):
        with pytest.raises(ConfigurationError, match="unknown element kind"):
            parse_circuit("photon A paths=a1\nop warp photon=A path=a1\n")

    def test_round_trip_identity(self):
        c1 = parse_circuit(BLOCK_CIRCUIT)
        text = serialize_circuit(c1)
        c2 = parse_circuit(text)
        assert c1 == c2
        assert serialize_circuit(c2) == text


# ---------------------------------------------------------------------------
# runner

def _two_photon_circuit(ops_text: str) -> Circuit:
    return parse_circuit(
        "qd QD1 basis=+\nqd QD2 basis=+\n"
        "photon A paths=a1,a2\nphoton B paths=b1,b2\n" + ops_text)


class TestRunCircuit:
    def test_passive_only_single_branch(self, rng):
        circuit = _two_photon_circuit("op hp photon=A path=a1\n"
                                      "op bs photon=B in=b1,b2 out=b1,b2\n")
        state = random_state(circuit.layout(), rng)
        branches = run_circuit(circuit, state)
        assert len(branches) == 1
        assert branches[0].record == ()
        assert abs(branches[0].probability - state.norm2) < 1e-10

    def test_block_circuit_two_branches(self):
        circuit = parse_circuit(BLOCK_CIRCUIT)
        state = product_state(circuit.layout(), "L", "a1", "R", "b1", "+", "+")
        branches = run_circuit(circuit, state, EXAMPLE_PAIR)
        records = {b.record: b.probability for b in branches}
        assert set(records) == {(), (("D", "click"),)}
        assert abs(records[()] - (40 / 41) ** 2) < 1e-12
        assert abs(records[(("D", "click"),)] - (1 / 41) ** 2) < 1e-12

    def test_branch_completeness_with_measurements(self, rng):
        circuit = _two_photon_circuit(
            "op hp photon=A path=a1\n"
            "op detector photon=A path=a2 label=DA\n"
            "op measure_spin qd=QD1\n"
            "op measure_spin qd=QD2\n")
        state = random_state(circuit.layout(), rng)
        branches = run_circuit(circuit, state)
        assert abs(sum(b.probability for b in branches) - state.norm2) < 1e-10

    def test_full_generation_circuit_completeness_at_ideal(self):
        from hyperbell.protocols import hbsg_circuit, hbsg_input

        circuit = hbsg_circuit()
        branches = run_circuit(circuit, hbsg_input(circuit), IDEAL_PAIR)
        assert abs(sum(b.probability for b in branches) - 1.0) < 1e-10

    def test_layout_mismatch_rejected(self, small_layout, rng):
        circuit = parse_circuit("photon A paths=a1,a2,a3\nphoton B paths=b1,b2\n")
        with pytest.raises(ConfigurationError):
            run_circuit(circuit, random_state(small_layout, rng))

    def test_qdarm_matches_direct_operator(self, rng):
        # tracked layers must sum to the bare reflection-operator action
        from hyperbell.cavity import reflection_operator
        from hyperbell.hilbert import apply_spin_conditional_op

        circuit = _two_photon_circuit("op qdarm photon=A path=a1 qd=QD1\n")
        state = random_state(circuit.layout(), rng)
        run = run_circuit_tracked(circuit, state, EXAMPLE_PAIR)
        assert len(run.branches) == 1
        direct = apply_spin_conditional_op(
            state, "A", 1, reflection_operator(EXAMPLE_PAIR), "a1")
        np.testing.assert_allclose(run.branches[0].physical_state().amps,
                                   direct.amps, atol=1e-12)

    def test_click_probability_recorded_at_detection_time(self):
        # a lossy element after the detector must not change the click rate
        circuit = _two_photon_circuit(
            "op detector photon=A path=a2 label=DA\n"
            "op wfc photon=B path=b1\n")
        layout = circuit.layout()
        state = product_state(layout, "R", {"a1": 0.6, "a2": 0.8}, "R", "b1")
        run = run_circuit_tracked(circuit, state,
                                  ReflectionPair(r_o=-0.5, r_h=0.5))
        assert abs(run.click_probability["DA"] - 0.64) < 1e-12


# ---------------------------------------------------------------------------
# random circuits (shared with the acceptance suite)

def random_circuit_text(rng) -> str:
    lines = []
    n_qd = int(rng.integers(0, 3))
    qds = [f"QD{i + 1}" for i in range(n_qd)]
    for name in qds:
        lines.append(f"qd {name} basis={rng.choice(['+', '-'])}")
    paths = {}
    for name, prefix in (("A", "a"), ("B", "b")):
        paths[name] = [f"{prefix}{i}" for i in range(int(rng.integers(2, 5)))]
        lines.append(f"photon {name} paths={','.join(paths[name])}")
    n_det = 0
    for _ in range(int(rng.integers(0, 9))):
        photon = str(rng.choice(["A", "B"]))
        pool = paths[photon]
        kind = str(rng.choice(["hp", "z", "wfc", "bs", "cpbs", "pbs", "qdarm",
                               "detector", "measure_spin", "block"]))
        if kind in ("qdarm", "measure_spin", "block") and not qds:
            kind = "hp"
        if kind in ("hp", "z", "wfc"):
            lines.append(f"op {kind} photon={photon} path={rng.choice(pool)}")
        elif kind == "bs":
            pair = list(rng.choice(pool, size=2, replace=False))
            out = pair if rng.random() < 0.5 else pair[::-1]
            lines.append(f"op bs photon={photon} in={pair[0]},{pair[1]} "
                         f"out={out[0]},{out[1]}")
        elif kind == "cpbs":
            n_in = int(rng.integers(1, 3))
            ins = list(rng.choice(pool, size=n_in, replace=False))
            outs = list(rng.choice(pool, size=2, replace=False))
            lines.append(f"op cpbs photon={photon} in={','.join(ins)} "
                         f"out={outs[0]},{outs[1]}")
        elif kind == "pbs":
            p = rng.choice(pool)
            outs = list(rng.choice(pool, size=2, replace=False))
            lines.append(f"op pbs photon={photon} path={p} out={outs[0]},{outs[1]}")
        elif kind == "qdarm":
            lines.append(f"op qdarm photon={photon} path={rng.choice(pool)} "
                         f"qd={rng.choice(qds)}")
        elif kind == "detector":
            n_det += 1
            lines.append(f"op detector photon={photon} path={rng.choice(pool)} "
                         f"label=DET{n_det}")
        elif kind == "measure_spin":
            lines.append(f"op measure_spin qd={rng.choice(qds)}")
        else:
            mode = str(rng.choice(["heralded", "parity"]))
            p = rng.choice(pool)
            if mode == "heralded":
                n_det += 1
                lines.append(f"block mode=heralded qd={rng.choice(qds)} "
                             f"photon={photon} path={p} label=DET{n_det}")
            else:
                lines.append(f"block mode=parity qd={rng.choice(qds)} "
                             f"photon={photon} path={p}")
    return "\n".join(lines) + "\n"


class TestRandomCircuitRoundTrip:
    def test_round_trip_sample(self, rng):
        for _ in range(100):
            text = random_circuit_text(rng)
            c1 = parse_circuit(text)
            serialized = serialize_circuit(c1)
            c2 = parse_circuit(serialized)
            assert c1 == c2
            assert serialize_circuit(c2) == serialized
