import random
import re
from dataclasses import replace
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from conftest import apply_op, evaluate, one_op_circuit, polynomial_run_at, random_state
from hyperbell import optics
from hyperbell.cavity import IDEAL_PAIR, CavityParams, ReflectionPair, reflection_coefficients
from hyperbell.errors import ConfigurationError, NumericDomainError
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
    PhotonDecl,
    QDDecl,
    element_matrix,
    parse_circuit,
    run_circuit_tracked,
    serialize_circuit,
)
from hyperbell.protocols import HBSA_FULL_TEXT, HBSG_CIRCUIT_TEXT

SQ2 = np.sqrt(2.0)
EXAMPLE_PAIR = reflection_coefficients(CavityParams(g=1.0, gamma=0.1))
HP_A1 = Element(ElementKind.HP, photon="A", path="a1")
Z_A1 = Element(ElementKind.Z, photon="A", path="a1")
BS_A = Element(ElementKind.BS, photon="A", in_paths=("a1", "a2"), out_paths=("a1", "a2"))
CPBS_A1 = Element(ElementKind.CPBS, photon="A", in_paths=("a1",), out_paths=("a1", "a2"))
PBS_A1 = Element(ElementKind.PBS, photon="A", path="a1", out_paths=("a1", "a2"))
NOT_STR = "fields and paths must be str or tuples of str: "  # the element type rule's message


class TestHalfWavePlate:
    def test_involution(self, small_layout, rng):
        state = random_state(small_layout, rng)
        hp = element_matrix(HP_A1, small_layout)
        out = apply_single_photon_op(apply_single_photon_op(state, "A", hp), "A", hp)
        np.testing.assert_allclose(out.amps, state.amps, atol=1e-12)

    def test_l_to_difference(self, small_layout):
        state = product_state(small_layout, "L", "a1", "R", "b1")
        out = apply_single_photon_op(state, "A", element_matrix(HP_A1, small_layout))
        expected = (product_state(small_layout, "R", "a1", "R", "b1").amps
                    - product_state(small_layout, "L", "a1", "R", "b1").amps) / SQ2
        np.testing.assert_allclose(out.amps, expected, atol=1e-15)

    def test_disjoint_path_untouched(self, small_layout):
        state = product_state(small_layout, "R", "a2", "R", "b1")
        out = apply_single_photon_op(state, "A", element_matrix(HP_A1, small_layout))
        assert np.array_equal(out.amps, state.amps)


class TestBeamSplitter:
    def test_involution(self, small_layout, rng):
        state = random_state(small_layout, rng)
        bs = element_matrix(BS_A, small_layout)
        out = apply_single_photon_op(apply_single_photon_op(state, "A", bs), "A", bs)
        np.testing.assert_allclose(out.amps, state.amps, atol=1e-12)

    def test_constructive_interference(self, small_layout):
        state = product_state(small_layout, "R", {"a1": 1 / SQ2, "a2": 1 / SQ2},
                              "R", "b1")
        out = apply_single_photon_op(state, "A", element_matrix(BS_A, small_layout))
        expected = product_state(small_layout, "R", "a1", "R", "b1")
        np.testing.assert_allclose(out.amps, expected.amps, atol=1e-15)

    def test_antisymmetric_spatial_state_invariant(self):
        # oracle: apply the 4x4 path-pair product matrix directly
        layout = StateLayout(photons=("A", "B"),
                             paths=(("a1", "a2", "c1", "c2"), ("b1", "b2", "d1", "d2")))
        from hyperbell.protocols import Bell, make_bell

        psi_minus = make_bell(Bell.PHI_PLUS, Bell.PSI_MINUS, layout)
        bs_a = Element(ElementKind.BS, photon="A", in_paths=("a1", "a2"), out_paths=("c1", "c2"))
        bs_b = Element(ElementKind.BS, photon="B", in_paths=("b1", "b2"), out_paths=("d1", "d2"))
        out = apply_single_photon_op(psi_minus, "A", element_matrix(bs_a, layout))
        out = apply_single_photon_op(out, "B", element_matrix(bs_b, layout))
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
        bs = Element(ElementKind.BS, photon="A", in_paths=("a1", "a2"), out_paths=("c1", "c2"))
        out = apply_single_photon_op(state, "A", element_matrix(bs, layout))
        expected = product_state(layout, "R", {"c1": 1 / SQ2, "c2": 1 / SQ2},
                                 "R", "b1")
        np.testing.assert_allclose(out.amps, expected.amps, atol=1e-15)

    def test_partial_overlap_rejected(self, small_layout):
        with pytest.raises(ConfigurationError):
            element_matrix(Element(ElementKind.BS, photon="A", in_paths=("a1", "a2"),
                                   out_paths=("a1", "b1")), small_layout)


class TestCircularPBS:
    def test_r_transmits_to_cross_port(self, small_layout):
        state = product_state(small_layout, "R", "a1", "R", "b1")
        out = apply_single_photon_op(state, "A", element_matrix(CPBS_A1, small_layout))
        expected = product_state(small_layout, "R", "a2", "R", "b1")
        np.testing.assert_allclose(out.amps, expected.amps, atol=1e-15)

    def test_h_input_splits_across_ports(self, small_layout):
        state = product_state(small_layout, "H", "a1", "R", "b1")
        out = apply_single_photon_op(state, "A", element_matrix(CPBS_A1, small_layout))
        expected = (product_state(small_layout, "R", "a2", "R", "b1").amps
                    + product_state(small_layout, "L", "a1", "R", "b1").amps) / SQ2
        np.testing.assert_allclose(out.amps, expected, atol=1e-15)

    def test_single_photon_bell_merges_to_h(self, small_layout):
        # (R a2 + L a1)/sqrt2 -> H on port 1
        state = HybridState(small_layout, (
            product_state(small_layout, "R", "a2", "R", "b1").amps
            + product_state(small_layout, "L", "a1", "R", "b1").amps) / SQ2)
        cpbs = Element(ElementKind.CPBS, photon="A", in_paths=("a1", "a2"), out_paths=("a1", "a2"))
        out = apply_single_photon_op(state, "A", element_matrix(cpbs, small_layout))
        expected = product_state(small_layout, "H", "a1", "R", "b1")
        np.testing.assert_allclose(out.amps, expected.amps, atol=1e-15)

    def test_duplicate_output_rejected(self, small_layout):
        with pytest.raises(ConfigurationError):
            element_matrix(Element(ElementKind.CPBS, photon="A", in_paths=("a1", "a2"),
                                   out_paths=("a1", "a1")), small_layout)


class TestLinearPBS:
    def test_h_transmits(self, small_layout):
        state = product_state(small_layout, "H", "a1", "R", "b1")
        out = apply_single_photon_op(state, "A", element_matrix(PBS_A1, small_layout))
        expected = product_state(small_layout, "H", "a1", "R", "b1")
        np.testing.assert_allclose(out.amps, expected.amps, atol=1e-15)

    def test_v_reflects(self, small_layout):
        state = product_state(small_layout, "V", "a1", "R", "b1")
        out = apply_single_photon_op(state, "A", element_matrix(PBS_A1, small_layout))
        expected = product_state(small_layout, "V", "a2", "R", "b1")
        np.testing.assert_allclose(out.amps, expected.amps, atol=1e-15)

    def test_r_splits_into_h_and_v(self, small_layout):
        state = product_state(small_layout, "R", "a1", "R", "b1")
        out = apply_single_photon_op(state, "A", element_matrix(PBS_A1, small_layout))
        expected = (product_state(small_layout, "H", "a1", "R", "b1").amps
                    + product_state(small_layout, "V", "a2", "R", "b1").amps) / SQ2
        np.testing.assert_allclose(out.amps, expected, atol=1e-15)


class TestZAndWfc:
    def test_z_flips_polarization(self, small_layout):
        state = product_state(small_layout, "R", "a1", "R", "b1")
        out = apply_single_photon_op(state, "A", element_matrix(Z_A1, small_layout))
        expected = product_state(small_layout, "L", "a1", "R", "b1")
        np.testing.assert_allclose(out.amps, expected.amps, atol=1e-15)

    def test_z_involution_and_disjoint_path(self, small_layout, rng):
        state = random_state(small_layout, rng)
        z = element_matrix(Z_A1, small_layout)
        np.testing.assert_allclose(
            apply_single_photon_op(apply_single_photon_op(state, "A", z), "A", z).amps,
            state.amps, atol=1e-13)
        on_a2 = product_state(small_layout, "R", "a2", "R", "b1")
        assert np.array_equal(apply_single_photon_op(on_a2, "A", z).amps, on_a2.amps)

    def test_wfc_ideal_pair_preserves_norm(self, small_layout):
        state = product_state(small_layout, "R", "a1", "R", "b1")
        out = apply_op(state, "wfc photon=A path=a1", IDEAL_PAIR)
        np.testing.assert_allclose(out.amps, -state.amps, atol=1e-15)

    def test_wfc_example_pair_scaling(self, small_layout):
        state = product_state(small_layout, "R", "a1", "R", "b1")
        out = apply_op(state, "wfc photon=A path=a1", EXAMPLE_PAIR)
        np.testing.assert_allclose(out.amps, -0.975610 * state.amps, atol=1e-6)
        assert abs(out.norm2 - abs(EXAMPLE_PAIR.success_amplitude) ** 2) < 1e-12
        on_a2 = product_state(small_layout, "R", "a2", "R", "b1")
        assert np.array_equal(apply_op(on_a2, "wfc photon=A path=a1", EXAMPLE_PAIR).amps,
                              on_a2.amps)

    def test_wfc_and_reflection_are_contractions(self, small_layout, rng):
        # neither may grow the squared norm while |r_o|, |r_h| <= 1
        from hyperbell.cavity import reflection_operator
        from hyperbell.hilbert import apply_spin_conditional_op

        for _ in range(100):
            r_o = rng.uniform(0, 1) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            r_h = rng.uniform(0, 1) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            pair = ReflectionPair(r_o=r_o, r_h=r_h)
            state = random_state(small_layout, rng)
            assert apply_op(state, "wfc photon=A path=a1", pair).norm2 <= 1 + 1e-12
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


class TestElementMatrixCache:
    """element_matrix checks every element and builds each matrix once per
    (kind, path count, port indices)."""

    def test_result_is_read_only(self, small_layout):
        mat = element_matrix(BS_A, small_layout)
        assert not mat.flags.writeable
        with pytest.raises(ValueError):
            mat[0, 0] = 0.0

    def test_equal_ports_on_equal_path_counts_share_one_matrix(self, small_layout):
        other = StateLayout(photons=("C", "D"), paths=(("c1", "c2"), ("d1", "d2", "d3")))
        for kind, path in ((ElementKind.HP, "a1"), (ElementKind.Z, "a2")):
            assert (element_matrix(Element(kind, photon="A", path=path), small_layout)
                    is element_matrix(Element(kind, photon="C", path="c" + path[1]), other))
        bs_c = Element(ElementKind.BS, photon="C", in_paths=("c1", "c2"), out_paths=("c1", "c2"))
        assert element_matrix(BS_A, small_layout) is element_matrix(bs_c, other)

    @pytest.mark.parametrize("el", [BS_A, CPBS_A1, PBS_A1], ids=["bs", "cpbs", "pbs"])
    def test_list_ports_are_a_configuration_error(self, small_layout, el):
        listed = el._replace(in_paths=el.in_paths and list(el.in_paths),
                             out_paths=list(el.out_paths))
        for _ in range(2):
            with pytest.raises(ConfigurationError, match=f"^{re.escape(NOT_STR)}"):
                element_matrix(listed, small_layout)

    @pytest.mark.parametrize("el", [
        HP_A1._replace(out_paths=("a1", "a2")),
        BS_A._replace(out_paths=("a1", "a1")),
    ], ids=["off-field", "port-rule"])
    def test_bad_element_raises_on_every_call(self, small_layout, el):
        for _ in range(2):
            with pytest.raises(ConfigurationError):
                element_matrix(el, small_layout)


class TestElementCheckCache:
    """_check_element caches a passing check on the element, its photon's paths and
    whether its QD is declared, so a verdict in one context never answers another."""

    @pytest.mark.parametrize("el, good, bad, message", [
        (HP_A1._replace(path="a2"), ({"A": ("a1", "a2")}, ()), ({"A": ("a1",)}, ()),
         "dangling path reference 'a2' for photon 'A'"),
        (Element(ElementKind.QDARM, photon="A", path="a1", qd="QD1"),
         ({"A": ("a1",)}, {"QD1"}), ({"A": ("a1",)}, {"QD2"}), "undeclared QD 'QD1'"),
        (HP_A1, ({"A": ("a1",)}, ()), ({"B": ("a1",)}, ()), "undeclared photon 'A'"),
    ], ids=["path", "qd", "photon"])
    @pytest.mark.parametrize("bad_first", [False, True], ids=["good-first", "bad-first"])
    def test_no_verdict_leaks_between_contexts(self, el, good, bad, message, bad_first):
        optics._checked.cache_clear()
        for context in (bad, good) if bad_first else (good, bad):
            if context is good:
                optics._check_element(el, *context)
                continue
            for _ in range(2):  # a check that raised is not cached, and raises again
                with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
                    optics._check_element(el, *context)
        assert optics._checked.cache_info().currsize == 1

    def test_list_ports_are_checked_uncached(self):
        optics._checked.cache_clear()
        listed = BS_A._replace(in_paths=["a1", "a2"], out_paths=["a1", "a2"])
        for el, paths in ((listed, {"A": ("a1", "a2")}), (listed, {"A": ("a1",)}),
                          (BS_A, {"A": ["a1", "a2"]})):
            with pytest.raises(ConfigurationError, match=f"^{re.escape(NOT_STR)}"):
                optics._check_element(el, paths, ())
        assert optics._checked.cache_info().currsize == 0

    @pytest.mark.parametrize("el", [
        BS_A._replace(in_paths=["a1", "a2"], out_paths=["a1", "a2"]),
        Element(ElementKind.MEASURE_SPIN, qd=["QD1"]),
        Element(ElementKind.DETECTOR, photon="A", path="a1", label=["D"]),
        HP_A1._replace(photon=["A"]),
        BS_A._replace(in_paths=5),
    ], ids=["list-ports", "qd", "label", "photon", "int-ports"])
    def test_a_field_not_a_string_or_string_tuple_fails_a_run(self, small_layout, rng, el):
        circuit = replace(one_op_circuit(small_layout, "hp photon=A path=a1"), ops=(el,))
        with pytest.raises(ConfigurationError, match=f"^{re.escape(NOT_STR)}"):
            run_circuit_tracked(circuit, random_state(small_layout, rng))

    @pytest.mark.parametrize("el, message", [
        (BS_A._replace(kind="bs", out_paths=("a1", "a1")),
         "bs binds two distinct inputs and two distinct outputs"),
        (HP_A1._replace(kind=5), "unknown element kind 5"),
        (HP_A1._replace(kind="nope"), "unknown element kind 'nope'"),
        (HP_A1._replace(kind="qdarm", qd="QD1"), "element kind qdarm has no single-photon matrix"),
    ], ids=["str-bs", "int", "unknown-str", "str-qdarm"])
    def test_a_kind_not_an_element_kind_is_checked(self, small_layout, rng, el, message):
        # a string that names a kind is that kind; any other value is the parser's error
        with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
            element_matrix(el, small_layout)
        circuit = replace(one_op_circuit(small_layout, "hp photon=A path=a1"), ops=(el,))
        if "single-photon" not in message:
            with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
                run_circuit_tracked(circuit, random_state(small_layout, rng))
        if "unknown" in message:
            with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
                serialize_circuit(circuit)

    def test_a_kind_named_by_a_string_runs_as_that_kind(self, small_layout, rng):
        named = replace(one_op_circuit(small_layout, "hp photon=A path=a1"),
                        ops=(HP_A1._replace(kind="hp"),))
        state = random_state(small_layout, rng)
        np.testing.assert_array_equal(element_matrix(named.ops[0], small_layout),
                                      element_matrix(HP_A1, small_layout))
        (got,), (want,) = (run_circuit_tracked(c, state).branches
                           for c in (named, replace(named, ops=(HP_A1,))))
        np.testing.assert_array_equal(got.layers[0], want.layers[0])
        assert serialize_circuit(named).endswith("op hp photon=A path=a1\n")


# ---------------------------------------------------------------------------
# parser

class TestLineCache:
    """parse_circuit caches the elements of each op or block line on its text and the
    declarations before it, and claims detector labels per circuit."""

    @pytest.mark.parametrize("line, good, bad, message", [
        ("op hp photon=A path=a2", "photon A paths=a1,a2", "photon A paths=a1",
         "dangling path reference 'a2' for photon 'A'"),
        ("op qdarm photon=A path=a1 qd=QD1", "qd QD1 basis=+\nphoton A paths=a1",
         "qd QD2 basis=+\nphoton A paths=a1", "undeclared QD 'QD1'"),
        ("op hp photon=A path=a1", "photon A paths=a1", "photon C paths=a1",
         "undeclared photon 'A'"),
    ], ids=["path", "qd", "photon"])
    @pytest.mark.parametrize("bad_first", [False, True], ids=["good-first", "bad-first"])
    def test_no_line_leaks_between_declarations(self, line, good, bad, message, bad_first):
        optics._elements.cache_clear()
        for decls in (bad, good) if bad_first else (good, bad):
            text = f"{decls}\nphoton B paths=b1\n  {line}  # a comment\n"
            for _ in range(2):  # a line that raised is not cached, and raises again
                if decls is good:
                    kind, *fields = line.split()[1:]
                    fields = dict(field.split("=") for field in fields)
                    assert parse_circuit(text).ops == (Element(ElementKind(kind), **fields),)
                    continue
                with pytest.raises(ConfigurationError, match=(
                        f"^line {text.count(chr(10))}: {re.escape(message)}$")):
                    parse_circuit(text)
        assert optics._elements.cache_info().currsize == 1

    def test_equal_elements_of_kept_lines_share_one_object(self):
        decls = "qd QD1 basis=+\nphoton A paths=a1\nphoton B paths=b1\n"
        hp, *_ = parse_circuit(decls + "op hp photon=A path=a1 # one hp\n").ops
        block = parse_circuit(decls + "block mode=parity qd=QD1 photon=A path=a1\n").ops
        assert block[0] is hp and block[2] is hp

    @pytest.mark.parametrize("line", ["op detector photon=A path=a1 label=D",
                                      "block mode=heralded qd=QD1 photon=A path=a1 label=D"],
                             ids=["detector", "heralded-block"])
    def test_a_repeated_detector_line_claims_its_label_again(self, line):
        text = f"qd QD1 basis=+\nphoton A paths=a1\nphoton B paths=b1\n{line}\n"
        for _ in range(2):  # its labels are claimed per circuit, the line cached or not
            assert len(parse_circuit(text).ops) in (1, 4)
            with pytest.raises(ConfigurationError, match="^line 5: duplicate detector label 'D'$"):
                parse_circuit(text + line)

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
        assert circuit.ops == (
            Element(ElementKind.HP, photon="A", path="a1"),
            Element(ElementKind.QDARM, photon="A", path="a1", qd="QD1"),
            Element(ElementKind.HP, photon="A", path="a1"),
            Element(ElementKind.DETECTOR, photon="A", path="a1", label="D", pol="L"))
        assert circuit.photons[0].paths == ("a1",)

    def test_heralded_blocks_take_any_labels(self):
        # labels a1+ and a1- on one photon, and label D next to a declared
        # path hD: no label claims a path, so all of them parse and run
        h2 = abs(EXAMPLE_PAIR.herald_amplitude) ** 2
        cases = [
            ("a1,a2", {"a1": 0.6, "a2": 0.8},
             "block mode=heralded qd=QD1 photon=A path=a1 label=a1+\n"
             "block mode=heralded qd=QD1 photon=A path=a2 label=a1-\n",
             {"a1+": 0.36 * h2, "a1-": 0.64 * h2}),
            ("a1,hD", "a1", "block mode=heralded qd=QD1 photon=A path=a1 label=D\n",
             {"D": h2}),
        ]
        for paths, path_a, blocks, want in cases:
            circuit = parse_circuit(f"qd QD1 basis=+\nphoton A paths={paths}\n"
                                    f"photon B paths=b1\n{blocks}")
            assert circuit.photons[0].paths == tuple(paths.split(","))
            state = product_state(circuit.layout(), "L", path_a, "R", "b1")
            run = run_circuit_tracked(circuit, state, EXAMPLE_PAIR)
            assert run.click_probability.keys() == want.keys()
            for label, p in want.items():
                assert abs(run.click_probability[label] - p) < 1e-12

    @pytest.mark.parametrize("first, second", [
        ("op detector photon=A path=a1 label=D", "op detector photon=B path=b1 label=D"),
        ("block mode=heralded qd=QD1 photon=A path=a1 label=D",
         "block mode=heralded qd=QD1 photon=A path=a2 label=D"),
        ("op detector photon=A path=a2 label=D",
         "block mode=heralded qd=QD1 photon=A path=a1 label=D"),
    ], ids=["plain-plain", "block-block", "plain-block"])
    def test_duplicate_detector_label_rejected(self, first, second):
        # distinct detectors with one label would give distinct branches one record
        with pytest.raises(ConfigurationError, match="^line 5: duplicate detector label 'D'"):
            parse_circuit("qd QD1 basis=+\nphoton A paths=a1,a2\nphoton B paths=b1\n"
                          f"{first}\n{second}\n")

    @pytest.mark.parametrize("pol", ["R", "L"])
    def test_detector_pol_accepted(self, pol):
        circuit = parse_circuit("photon A paths=a1\nphoton B paths=b1\n"
                                f"op detector photon=A path=a1 label=D pol={pol}\n")
        assert circuit.ops == (Element(ElementKind.DETECTOR, photon="A", path="a1",
                                       label="D", pol=pol),)

    @pytest.mark.parametrize("line", [
        "op detector photon=A path=a1 label=D pol=H",
        "op detector photon=A path=a1 label=D pol=l",
        "op hp photon=A path=a1 pol=L",
        "op z photon=A path=a1 pol=L",
        "op wfc photon=A path=a1 pol=R",
        "op qdarm photon=A path=a1 qd=QD1 pol=L",
        "op bs photon=A in=a1,a2 out=a1,a2 pol=L",
        "op cpbs photon=A in=a1 out=a1,a2 pol=R",
        "op pbs photon=A path=a1 out=a1,a2 pol=L",
        "op measure_spin qd=QD1 pol=L",
        "block mode=heralded qd=QD1 photon=A path=a1 label=D pol=L",
    ])
    def test_pol_rejected(self, line):
        with pytest.raises(ConfigurationError, match="^line 4: .*pol"):
            parse_circuit("qd QD1 basis=+\nphoton A paths=a1,a2\nphoton B paths=b1\n"
                          f"{line}\n")

    @pytest.mark.parametrize("op, el", [
        ("bs photon=A in=a1,a1 out=a1,a2",
         Element(ElementKind.BS, photon="A", in_paths=("a1", "a1"), out_paths=("a1", "a2"))),
        ("bs photon=A in=a1,a2 out=a2,a3",
         Element(ElementKind.BS, photon="A", in_paths=("a1", "a2"), out_paths=("a2", "a3"))),
        ("cpbs photon=A in=a1,a1 out=a1,a2",
         Element(ElementKind.CPBS, photon="A", in_paths=("a1", "a1"), out_paths=("a1", "a2"))),
        ("cpbs photon=A in=a1 out=a2,a2",
         Element(ElementKind.CPBS, photon="A", in_paths=("a1",), out_paths=("a2", "a2"))),
        ("pbs photon=A path=a1 out=a2,a2",
         Element(ElementKind.PBS, photon="A", path="a1", out_paths=("a2", "a2"))),
    ])
    def test_port_rule_enforced_at_parse_and_build(self, op, el):
        # a port shape the matrix builders reject fails at parse time, on its line
        decls = "qd QD1 basis=+\nphoton A paths=a1,a2,a3\nphoton B paths=b1\n"
        with pytest.raises(ConfigurationError, match="^line 4: "):
            parse_circuit(f"{decls}op {op}\n")
        with pytest.raises(ConfigurationError):
            element_matrix(el, parse_circuit(decls).layout())

    @pytest.mark.parametrize("el", [
        Element(ElementKind.BS, photon="A", out_paths=("a1", "a2")),
        Element(ElementKind.CPBS, photon="A", out_paths=("a1", "a2")),
        Element(ElementKind.PBS, photon="A", path="a1"),
    ])
    def test_missing_port_rejected_at_build(self, small_layout, el):
        # a hand-built splitter may leave out ports that every parsed one has
        with pytest.raises(ConfigurationError):
            element_matrix(el, small_layout)

    @pytest.mark.parametrize("el, message", [
        (Element(ElementKind.CPBS, photon="A", path="a1", out_paths=("a1", "a2")),
         "key 'path' not allowed for op cpbs"),
        (Element(ElementKind.PBS, photon="A", in_paths=("a1",), out_paths=("a1", "a2")),
         "key 'in' not allowed for op pbs"),
        (Element(ElementKind.BS, photon="A", path="a1", in_paths=("a1", "a2"),
                 out_paths=("a1", "a2")), "key 'path' not allowed for op bs"),
        (Element(ElementKind.HP, photon="A", path="a1", out_paths=("a1", "a2")),
         "key 'out' not allowed for op hp"),
        (Element(ElementKind.Z, photon="A", path="a1", in_paths=("a1",)),
         "key 'in' not allowed for op z"),
        (Element(ElementKind.CPBS, photon="A", out_paths=("a1", "a2")),
         "cpbs binds one or two distinct inputs and two distinct outputs"),
    ], ids=["cpbs-path", "pbs-in", "bs-path", "hp-out", "z-in", "cpbs-no-input"])
    def test_fields_checked_against_kind_keys_at_build(self, small_layout, el, message):
        # a hand-built element holds only the keys its kind's line takes, as
        # the parser requires; a cpbs with no input breaks the port rule
        with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
            element_matrix(el, small_layout)

    @pytest.mark.parametrize("lines, lineno, message", [
        ("op hp photon=A", 4, "op hp requires path="),
        ("op hp photon=A path=a1 foo=x", 4, "key 'foo' not allowed for op hp"),
        ("op hp photon=A path=", 4, "empty key or value in 'path='"),
        ("op hp photon=A photon=A path=a1", 4, "duplicate key 'photon'"),
        ("qd Q! basis=+", 4, "invalid qd name 'Q!'"),
        ("qd Q2 basis=x", 4, "qd needs basis="),
        ("qd Q2 basis=+\nqd Q3 basis=+", 5, "at most two QDs are supported"),
        ("photon C paths=c1", 4, "at most two photons are supported"),
        ("block mode=both qd=QD1 photon=A path=a1", 4, "block mode must be heralded or parity"),
        ("block mode=parity qd=QD1 photon=A path=a1 label=D", 4, "parity block takes no label"),
        ("block mode=heralded qd=QD1 photon=A path=a1", 4, "heralded block requires label="),
        ("op qdarm photon=A path=a1 qd=QD9", 4, "undeclared QD 'QD9'"),
        ("op", 4, "op needs a kind"),
    ])
    def test_error_names_its_line(self, lines, lineno, message):
        with pytest.raises(ConfigurationError, match=f"^line {lineno}: {re.escape(message)}"):
            parse_circuit("qd QD1 basis=+\nphoton A paths=a1,a2\nphoton B paths=b1\n"
                          f"{lines}\n")

    @pytest.mark.parametrize("text, message", [
        ("qd basis=+", "qd needs a name"),
        ("photon", "photon needs a name"),
        ("photon A paths=a1,a1", "duplicate path in ['a1', 'a1']"),
        ("qd Q basis=+ paths=a1", "key 'paths' not allowed for qd"),
        ("photon A", "photon requires paths="),
        ("block qd=QD1 photon=A path=a1", "block requires mode="),
        ("block mode=parity qd=QD1 photon=A path=a1 pol=L", "key 'pol' not allowed for block"),
    ], ids=["qd-name", "photon-name", "photon-paths", "qd-key", "photon-paths-missing",
            "block-mode-missing", "block-key"])
    def test_declaration_and_block_errors_name_their_line(self, text, message):
        # the key rule (_check_keys) reads every kind of line by its head
        with pytest.raises(ConfigurationError, match=f"^line 1: {re.escape(message)}$"):
            parse_circuit(f"{text}\n")

    def test_readme_example_parses(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("## Circuit files", 1)[1]
        example = section.split("```\n", 2)[1]
        circuit = parse_circuit(example)
        assert parse_circuit(serialize_circuit(circuit)) == circuit

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

    def test_pol_round_trip(self):
        text = ("photon A paths=a1\nphoton B paths=b1\n"
                "op detector photon=A path=a1 label=D1 pol=L\n"
                "op detector photon=B path=b1 label=D2 pol=R\n"
                "op detector photon=B path=b1 label=D3\n")
        circuit = parse_circuit(text)
        assert serialize_circuit(circuit) == text
        assert parse_circuit(serialize_circuit(circuit)) == circuit


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
        branches = run_circuit_tracked(circuit, state).branches
        assert len(branches) == 1
        assert branches[0].record == ()
        assert abs(branches[0].probability - state.norm2) < 1e-10

    def test_block_circuit_two_branches(self):
        circuit = parse_circuit(BLOCK_CIRCUIT)
        state = product_state(circuit.layout(), "L", "a1", "R", "b1", "+", "+")
        branches = run_circuit_tracked(circuit, state, EXAMPLE_PAIR).branches
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
        branches = run_circuit_tracked(circuit, state).branches
        assert abs(sum(b.probability for b in branches) - state.norm2) < 1e-10

    def test_full_generation_circuit_completeness_at_ideal(self):
        from hyperbell.protocols import hbsg_input

        circuit = parse_circuit(HBSG_CIRCUIT_TEXT)
        branches = run_circuit_tracked(circuit, hbsg_input(circuit), IDEAL_PAIR).branches
        assert abs(sum(b.probability for b in branches) - 1.0) < 1e-10

    def test_layout_mismatch_rejected(self, small_layout, rng):
        circuit = parse_circuit("photon A paths=a1,a2,a3\nphoton B paths=b1,b2\n")
        with pytest.raises(ConfigurationError):
            run_circuit_tracked(circuit, random_state(small_layout, rng))

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

    def test_click_probability_counts_first_clicks(self):
        # both detectors can fire on one branch; DB counts only where DA stayed
        # silent, so the clicks sum to the probability of at least one click
        circuit = _two_photon_circuit(
            "op wfc photon=B path=b2\n"
            "op detector photon=A path=a2 label=DA\n"
            "op detector photon=B path=b2 label=DB\n")
        state = product_state(circuit.layout(), "R", {"a1": 0.3 ** 0.5, "a2": 0.7 ** 0.5},
                              "R", {"b1": 0.4 ** 0.5, "b2": 0.6 ** 0.5})
        pair = ReflectionPair(r_o=-0.5, r_h=0.5)  # wfc keeps |s|^2 = 1/4 of b2
        want = {(("DA", "click"), ("DB", "click")): 0.7 * 0.15, (("DA", "click"),): 0.7 * 0.4,
                (("DB", "click"),): 0.3 * 0.15, (): 0.3 * 0.4}
        at_least_one = sum(p for record, p in want.items() if record)
        run, poly = (run_circuit_tracked(circuit, state, pair),
                     polynomial_run_at(circuit, state, pair))
        for r in (run, poly):
            assert abs(r.click_probability["DA"] - 0.7 * 0.55) < 1e-12
            assert abs(r.click_probability["DB"] - 0.3 * 0.15) < 1e-12
            assert abs(sum(r.click_probability.values()) - at_least_one) < 1e-12
        got = {b.record: b.probability for b in run.branches}
        assert set(got) == set(want)  # the branch where both fired is kept
        for record, p in want.items():
            assert abs(got[record] - p) < 1e-12
        # the polynomial mode stops each branch at its first click
        (clean,) = poly.branches
        assert clean.record == () and abs(clean.probability - want[()]) < 1e-12

    @pytest.mark.parametrize("el, message", [
        (Element(ElementKind.DETECTOR, photon="A", path="a1", label="D", pol="X"),
         "detector pol must be R or L, got 'X'"),
        (Element(ElementKind.DETECTOR, photon="A", path="a1"), "op detector requires label="),
        (Element(ElementKind.QDARM, photon="A", path="a1", qd="QD1", out_paths=("a1", "a2")),
         "key 'out' not allowed for op qdarm"),
        (Element(ElementKind.WFC, photon="A", path="a1", label="D"),
         "key 'label' not allowed for op wfc"),
        (Element(ElementKind.MEASURE_SPIN, path="a1", qd="QD1"),
         "key 'path' not allowed for op measure_spin"),
    ], ids=["detector-pol", "detector-no-label", "qdarm-out", "wfc-label", "measure-spin-path"])
    def test_hand_built_element_checked_against_its_kind(self, rng, el, message):
        # _compile checks each element with _check_element, the one checker
        # that parsing and element_matrix call too
        circuit = _two_photon_circuit("")
        circuit = Circuit(circuit.qds, circuit.photons, (el,))
        with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
            run_circuit_tracked(circuit, random_state(circuit.layout(), rng))

    @pytest.mark.parametrize("el, message", [
        (Element(ElementKind.HP, photon="C", path="a1"), "undeclared photon 'C'"),
        (Element(ElementKind.CPBS, photon="A", in_paths=("a1",), out_paths=("a2", "a3")),
         "dangling path reference 'a3' for photon 'A'"),
        (Element(ElementKind.PBS, photon="B", path="b3", out_paths=("b1", "b2")),
         "dangling path reference 'b3' for photon 'B'"),
        (Element(ElementKind.QDARM, photon="A", path="a1", qd="QD9"), "undeclared QD 'QD9'"),
        (Element(ElementKind.WFC, photon="B", path="b1", qd="QD9"), "undeclared QD 'QD9'"),
        (Element(ElementKind.DETECTOR, photon="A", path="a3", label="D"),
         "dangling path reference 'a3' for photon 'A'"),
        (Element(ElementKind.MEASURE_SPIN, photon="C", qd="QD1"), "undeclared photon 'C'"),
        (Element(ElementKind.MEASURE_SPIN, qd="QD9"), "undeclared QD 'QD9'"),
    ], ids=["hp-photon", "cpbs-out", "pbs-path", "qdarm-qd", "wfc-qd", "detector-path",
            "measure-spin-photon", "measure-spin-qd"])
    def test_hand_built_undeclared_name_gets_the_parser_message(self, rng, el, message):
        # a passive element is checked by element_matrix, any other by the runner;
        # both raise what parsing the element's line raises
        circuit = _two_photon_circuit("")
        circuit = Circuit(circuit.qds, circuit.photons, (el,))
        with pytest.raises(ConfigurationError, match=f"^line 5: {re.escape(message)}$"):
            parse_circuit(serialize_circuit(circuit))
        with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
            if el.kind in {ElementKind.HP, ElementKind.CPBS, ElementKind.PBS}:
                element_matrix(el, circuit.layout())
            else:
                run_circuit_tracked(circuit, random_state(circuit.layout(), rng))

    @pytest.mark.parametrize("el, message", [
        (Element(ElementKind.HP, photon=5, path="a1"), "undeclared photon 5"),
        (HP_A1._replace(path=["a1"]), NOT_STR + str(HP_A1._replace(path=["a1"]))),
        (Element(ElementKind.QDARM, photon="A", path="a1", qd="QD9"), "undeclared QD 'QD9'"),
    ], ids=["int-photon", "list-path", "undeclared-qd"])
    def test_serializing_a_bad_op_names_its_line(self, el, message):
        # _compile's check, named by the line that the op would take in the text
        circuit = _two_photon_circuit("op hp photon=A path=a1\n")
        circuit = Circuit(circuit.qds, circuit.photons, circuit.ops + (el,))
        with pytest.raises(ConfigurationError, match=f"^line 6: {re.escape(message)}$"):
            serialize_circuit(circuit)

    @pytest.mark.parametrize("photon_a, qd1, message", [
        (PhotonDecl(["A"], ("a1", "a2")), None, "invalid photon name ['A']"),
        (PhotonDecl("A", ["a1", "a2"]), None,
         "photon paths must be a tuple of names, got ['a1', 'a2']"),
        (PhotonDecl("A", ("a1", 2)), None, "invalid path name 2"),
        (PhotonDecl("A b", ("a1", "a2")), None, "invalid photon name 'A b'"),
        (None, QDDecl(["QD1"], "+"), "invalid qd name ['QD1']"),
        (None, QDDecl("QD1", "x"), "qd needs basis=+|-"),
    ], ids=["list-photon", "list-paths", "int-path", "spaced-photon", "list-qd", "bad-basis"])
    def test_a_bad_declaration_gets_the_parsers_message(self, rng, photon_a, qd1, message):
        # one check of declared names and paths, for serializing and for running
        circuit = _two_photon_circuit("op hp photon=B path=b1\n")
        circuit = replace(circuit, qds=(qd1 or circuit.qds[0], circuit.qds[1]),
                          photons=(photon_a or circuit.photons[0], circuit.photons[1]))
        with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
            serialize_circuit(circuit)
        with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
            run_circuit_tracked(circuit, HybridState(
                circuit.layout(), np.zeros(circuit.layout().shape, dtype=complex)))

    _CLASHES = pytest.mark.parametrize("qds, photons, lineno, message", [
        (("QD1", "QD1"), None, 2, "duplicate QD id 'QD1'"),
        (("QD1", "QD2", "QD3"), None, 3, "at most two QDs are supported"),
        (None, (("A", ("a1",)), ("A", ("b1",))), 4, "duplicate photon id 'A'"),
        (None, (("A", ("a1",)), ("B", ("b1",)), ("C", ("c1",))), 5,
         "at most two photons are supported"),
        (None, (("A", ()), ("B", ("b1",))), 3, "empty key or value in 'paths='"),
    ], ids=["duplicate-qd", "third-qd", "duplicate-photon", "third-photon", "empty-paths"])

    @staticmethod
    def _redeclared(qds, photons) -> Circuit:
        """A two-photon circuit with the QDs (basis +) or photons (name, paths) replaced."""
        circuit = _two_photon_circuit("op hp photon=B path=b1\n")
        return replace(
            circuit,
            qds=circuit.qds if qds is None else tuple(QDDecl(name, "+") for name in qds),
            photons=circuit.photons if photons is None else tuple(
                PhotonDecl(name, paths) for name, paths in photons))

    @_CLASHES
    def test_serializing_clashing_declarations_gets_the_parsers_message(self, qds, photons,
                                                                         lineno, message):
        # the parser's rules between declarations (no name twice, at most two of a kind)
        # and on a photon's path list: the text that serializing would write fails to parse
        circuit = self._redeclared(qds, photons)
        text = "".join(f"qd {qd.name} basis=+\n" for qd in circuit.qds) + "".join(
            f"photon {ph.name} paths={','.join(ph.paths)}\n" for ph in circuit.photons)
        with pytest.raises(ConfigurationError, match=f"^line {lineno}: {re.escape(message)}$"):
            parse_circuit(text)
        with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
            serialize_circuit(circuit)

    @_CLASHES
    def test_running_clashing_declarations_gets_the_parsers_message(self, rng, qds, photons,
                                                                     lineno, message):
        # the same rules hold at run time, ahead of the layout's own messages
        state = random_state(_two_photon_circuit("").layout(), rng)
        with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
            run_circuit_tracked(self._redeclared(qds, photons), state)

    def test_hand_built_detectors_keep_the_label_rule(self, rng):
        # two detectors labelled D: parsing the serialized circuit names the second
        # one's line, and running the circuit raises the same message
        circuit = _two_photon_circuit("op detector photon=A path=a1 label=D\n")
        circuit = Circuit(circuit.qds, circuit.photons, circuit.ops * 2)
        message = "duplicate detector label 'D'"
        with pytest.raises(ConfigurationError, match=f"^line 6: {message}$"):
            parse_circuit(serialize_circuit(circuit))
        with pytest.raises(ConfigurationError, match=f"^{message}$"):
            run_circuit_tracked(circuit, random_state(circuit.layout(), rng))

    def test_circuit_needs_two_photons(self):
        with pytest.raises(ConfigurationError, match="^circuit must declare exactly two photons$"):
            parse_circuit("photon A paths=a1\n").layout()

    def test_hand_built_circuit_is_read_declarations_layout_ops_state(self, rng):
        # _compile reads a circuit in one order, and the run checks the state's layout last
        circuit = _two_photon_circuit("op hp photon=A path=a1\n")
        state = random_state(circuit.layout(), rng)
        one_photon = replace(circuit, photons=circuit.photons[:1])
        with pytest.raises(ConfigurationError, match="^circuit must declare exactly two photons$"):
            run_circuit_tracked(one_photon, state)
        with pytest.raises(ConfigurationError, match="^duplicate QD id 'QD1'$"):
            run_circuit_tracked(replace(one_photon, qds=circuit.qds[:1] * 2), state)
        bad_op = replace(circuit, ops=(circuit.ops[0]._replace(path="a3"),))
        other = random_state(replace(circuit.layout(), photons=("A", "C")), rng)
        with pytest.raises(ConfigurationError, match="^dangling path reference 'a3'"):
            run_circuit_tracked(bad_op, other)

    def test_hand_built_third_qd_is_rejected_at_run(self, rng):
        # the parser stops at two QDs; a hand-built circuit may declare a third
        circuit = _two_photon_circuit("")
        qds = circuit.qds + (QDDecl("QD3", "+"),)
        ops = (Element(ElementKind.MEASURE_SPIN, qd="QD3"),)
        with pytest.raises(ConfigurationError, match="^at most two QDs are supported$"):
            run_circuit_tracked(Circuit(qds, circuit.photons, ops),
                                random_state(circuit.layout(), rng))

    @pytest.mark.parametrize("kind", ["wfc", "qdarm", "detector", "measure_spin"])
    def test_element_matrix_of_an_active_kind_is_rejected(self, small_layout, kind):
        with pytest.raises(ConfigurationError, match=f"^element kind {kind} has no single"):
            element_matrix(Element(ElementKind(kind), photon="A", path="a1"), small_layout)

    def test_overflowing_weight_is_numeric_domain_error(self, rng):
        # at r_o = r_h = 1e200, s = 0 and h^2 overflows: the measured branch
        # weighs inf or nan, and the stage ending in a qdarm returns it
        circuit = parse_circuit(BLOCK_CIRCUIT)
        state = product_state(circuit.layout(), "L", "a1", "R", "b1", "+", "+")
        arm = Circuit(circuit.qds, circuit.photons, circuit.ops[:3])
        for c in (circuit, arm):
            with np.errstate(over="ignore", invalid="ignore"):
                with pytest.raises(NumericDomainError, match="overflows"):
                    run_circuit_tracked(c, state, ReflectionPair(1e200, 1e200))
            # |r| > 1 stays legal where nothing overflows
            run = run_circuit_tracked(c, state, ReflectionPair(1e30, 1e30))
            assert all(np.isfinite(b.probability) for b in run.branches)


class TestDropRule:
    """optics._surviving, the drop rule on layer weights that run_hbsa and
    hbsg_statistics_grid apply, keeps the layers that the runner's _trim
    keeps and the branches that the runner keeps."""

    @staticmethod
    def _coefficients(rng, s_len):
        """Arrays [s, h, 3] of random layers, each at a scale from 1 down to
        well below the drop threshold, some with trailing layers of residue
        only, and the all-zero and single-layer ones."""
        arrays = [np.zeros((s_len, 4, 3), dtype=complex), np.zeros((s_len, 1, 3), dtype=complex)]
        for _ in range(300):
            h_len = int(rng.integers(1, 6))
            shape = (s_len, h_len, 3)
            c = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            c *= 10.0 ** rng.uniform(-16, 0, size=(1, h_len, 1))
            c[:, h_len - int(rng.integers(0, h_len)):] *= 1e-10  # residue-only top layers
            arrays.append(c)
        return arrays

    @staticmethod
    def _assert_agrees(weights, c):
        kept, clean, leaked, live = optics._surviving(weights)
        trimmed = optics._trim(c)
        assert kept.tolist() == [k < trimmed.shape[1] for k in range(c.shape[1])]
        assert clean == weights[0]
        assert leaked == pytest.approx(weights[1:trimmed.shape[1]].sum(), rel=1e-12, abs=0)
        assert live == (optics._weight(trimmed) > optics._BRANCH_DROP)

    def test_agrees_with_trim_at_a_pair(self, rng):
        for c in self._coefficients(rng, 1):
            self._assert_agrees(np.array([optics._weight(layer) for layer in c[0]]), c)

    def test_agrees_with_trim_on_monomials(self, rng):
        # the polynomial form as run_hbsa reads it: one s-degree per layer, its
        # monomial's weight at a pair times the layer's squared norm
        for c in self._coefficients(rng, 3):
            degrees = rng.integers(0, 3, size=c.shape[1])
            c[np.arange(3)[:, None] != degrees] = 0.0
            norms = np.array([optics._weight(c[:, k]) for k in range(c.shape[1])])
            s, h = rng.normal(size=2) + 1j * rng.normal(size=2)
            weights = np.abs(s ** degrees * h ** np.arange(c.shape[1])) ** 2 * norms
            self._assert_agrees(weights, evaluate(c, s, h))


class TestPolarizationDetector:
    """op detector ... pol=R|L clicks on one (polarization, path) slice."""

    LAYOUT = StateLayout(photons=("A", "B"), paths=(("a1", "a2", "a3"), ("b1", "b2")))

    @pytest.mark.parametrize("slot", [0, 1])
    @pytest.mark.parametrize("pol", ["R", "L"])
    def test_click_is_the_pol_path_slice(self, slot, pol, rng):
        layout, photon = self.LAYOUT, self.LAYOUT.photons[slot]
        for path_idx, path in enumerate(layout.paths[slot]):
            state = random_state(layout, rng)
            state = HybridState(layout, state.amps * rng.uniform(0.2, 1.0))
            circuit = one_op_circuit(layout, f"detector photon={photon} path={path} "
                                             f"label=D pol={pol}")
            index = [slice(None)] * 6
            index[2 * slot], index[2 * slot + 1] = "RL".index(pol), path_idx
            want = np.zeros_like(state.amps)
            want[tuple(index)] = state.amps[tuple(index)]
            run, poly = (run_circuit_tracked(circuit, state, EXAMPLE_PAIR),
                         polynomial_run_at(circuit, state, EXAMPLE_PAIR))
            by = {b.record: b for b in run.branches}
            assert set(by) == {(), (("D", "click"),)}
            assert abs(sum(b.probability for b in run.branches) - state.norm2) < 1e-12
            np.testing.assert_allclose(by[(("D", "click"),)].physical_state().amps,
                                       want, rtol=0, atol=1e-15)
            # the polynomial mode keeps only the no-click branch
            (clean,) = poly.branches
            assert clean.record == ()
            for b in (by[()], clean):
                np.testing.assert_allclose(b.physical_state().amps,
                                           state.amps - want, rtol=0, atol=1e-15)
            for r in (run, poly):
                assert abs(r.click_probability["D"] - np.sum(np.abs(want) ** 2)) < 1e-12

    def test_clicked_photon_stays_on_its_path(self):
        # a heralded block's click leaves the photon where it was, so a later
        # element on the path acts on it
        circuit = parse_circuit(BLOCK_CIRCUIT + "op z photon=A path=a1\n")
        state = product_state(circuit.layout(), "L", "a1", "R", "b1", "+", "+")
        run = run_circuit_tracked(circuit, state, EXAMPLE_PAIR)
        (click,) = [b for b in run.branches if b.record == (("D", "click"),)]
        target = product_state(circuit.layout(), "R", "a1", "R", "b1", "+", "+")
        assert abs(abs(overlap(target, click.physical_state().normalized())) - 1) < 1e-12


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


class TestPolynomialRun:
    """The runner's polynomial mode, evaluated at a pair, against run_circuit_tracked."""

    @staticmethod
    def _pairs(rng):
        pairs = [IDEAL_PAIR,
                 reflection_coefficients(CavityParams(g=0.0, kappa_s=0.3, gamma=0.1))]
        for _ in range(2):
            pairs.append(reflection_coefficients(CavityParams(
                g=float(rng.uniform(0.05, 3.0)), kappa_s=float(rng.uniform(0, 1)),
                gamma=float(rng.uniform(0, 0.3)), omega=float(rng.uniform(-1, 1)))))
        return pairs

    @staticmethod
    def _assert_same_run(got, want):
        assert list(got.click_probability) == list(want.click_probability)
        for label, p in want.click_probability.items():
            assert abs(got.click_probability[label] - p) < 1e-10
        got_b = [b for b in got.branches if b.probability > 1e-20]
        # the polynomial mode stops each branch at its first click
        want_b = [b for b in want.branches if b.probability > 1e-20 and not b.heralds()]
        assert [b.record for b in got_b] == [b.record for b in want_b]
        for g, w in zip(got_b, want_b):
            n = max(len(g.layers), len(w.layers))
            zero = np.zeros_like(w.layers[0])
            for k in range(n):
                np.testing.assert_allclose(
                    g.layers[k] if k < len(g.layers) else zero,
                    w.layers[k] if k < len(w.layers) else zero, rtol=0, atol=1e-12)
            assert abs(g.probability - w.probability) < 1e-10
            assert abs(g.clean_weight - w.clean_weight) < 1e-10
            assert abs(g.leaked_weight - w.leaked_weight) < 1e-10

    def test_matches_tracked_run_on_random_circuits(self, rng):
        for _ in range(60):
            circuit = parse_circuit(random_circuit_text(rng))
            state = random_state(circuit.layout(), rng)
            for pair in self._pairs(rng):
                self._assert_same_run(polynomial_run_at(circuit, state, pair),
                                      run_circuit_tracked(circuit, state, pair))

    def test_keeps_no_clicked_branch(self, rng):
        # a clicked outcome is stored as its label's click, not kept as a branch
        clicked = 0
        for _ in range(60):
            circuit = parse_circuit(random_circuit_text(rng))
            branches, clicks = optics._run(circuit, random_state(circuit.layout(), rng), None)
            assert all(outcome != "click" for rec, _ in branches for _, outcome in rec)
            clicked += sum(map(len, clicks.values()))
        assert clicked  # some circuit had a click to stop at

    def test_input_state_not_aliased(self, small_layout, rng):
        # a circuit without ops keeps its input as the one branch: a later
        # change to the caller's state must not reach the run
        circuit = parse_circuit("qd QD1 basis=+\nqd QD2 basis=+\n"
                                "photon A paths=a1,a2\nphoton B paths=b1,b2\n")
        state = random_state(small_layout, rng)
        before = state.amps.copy()
        ((_, c),), _ = optics._run(circuit, state, None)  # as a polynomial in (s, h)
        state.amps[...] = np.nan
        np.testing.assert_array_equal(c, before[None, None])

    def test_monomial_support_is_the_exact_nonzeros(self):
        # a tiny coefficient is in the support, a signed zero is not
        c = np.zeros((3, 2, 4, 2), dtype=complex)
        c[1, 0, 2, 1] = 1.0
        c[0, 1, 3, 0] = 1e-300j
        c[2, 1, 0, 0] = complex(-0.0, -0.0)
        mask, rows = optics.monomial_support(c)
        assert mask.tolist() == [[False, True], [True, False], [False, False]]
        assert rows.tolist() == [2, 3]
        mask, rows = optics.monomial_support(np.zeros((1, 1, 4), dtype=complex))
        assert mask.tolist() == [[False]] and rows.tolist() == []


class TestFusedCompile:
    """_compile emits one product of each photon's passive matrices per
    stretch between that photon's qdarm, wfc and detector actions."""

    def test_one_matrix_per_stretch_and_one_call_per_passive_op(self, rng, monkeypatch):
        # one check per op, whose result carries a passive op's matrix; each fused matrix
        # is, bit for bit, the ordered product of its stretch's matrices, each op's once
        calls, check = [], optics._check_element

        def counting(el, paths, qds):
            calls.append(el)
            return check(el, paths, qds)

        monkeypatch.setattr(optics, "_check_element", counting)
        passive = {ElementKind.HP, ElementKind.Z, ElementKind.BS, ElementKind.CPBS,
                   ElementKind.PBS}
        for _ in range(200):
            circuit = parse_circuit(random_circuit_text(rng))
            layout = circuit.layout()
            calls.clear()
            actions = optics._compile(circuit)[1]
            assert calls == list(circuit.ops)
            want, pending = [], [None, None]
            for el in circuit.ops:
                if el.kind == ElementKind.MEASURE_SPIN:
                    continue
                slot = layout.photons.index(el.photon)
                if el.kind in passive:
                    mat = element_matrix(el, layout)
                    pending[slot] = mat if pending[slot] is None else mat @ pending[slot]
                elif pending[slot] is not None:
                    want.append((slot, pending[slot]))
                    pending[slot] = None
            want += [(slot, mat) for slot, mat in enumerate(pending) if mat is not None]
            got = [action[1:] for action in actions if action[0] == "matrix"]
            assert [slot for slot, _ in got] == [slot for slot, _ in want]
            for (_, got_mat), (_, want_mat) in zip(got, want):
                np.testing.assert_array_equal(got_mat, want_mat)
            fused = [False, False]  # a matrix action since the photon's last bound action
            for action in actions:
                if action[0] == "matrix":
                    assert not fused[action[1]], actions
                    fused[action[1]] = True
                elif action[0] in ("qdarm", "wfc", "detector"):
                    fused[action[1]] = False

    def test_each_op_checked_once(self, rng, monkeypatch):
        # _compile checks every op itself, passive or not, before it builds an action
        checked, check = [], optics._check_element

        def counting(el, paths, qds):
            checked.append(el)
            return check(el, paths, qds)

        monkeypatch.setattr(optics, "_check_element", counting)
        for _ in range(100):
            circuit = parse_circuit(random_circuit_text(rng))
            checked.clear()
            optics._compile(circuit)
            assert len(checked) == len(circuit.ops)
            assert all(a is b for a, b in zip(checked, circuit.ops))

    def test_fused_matrix_is_the_ordered_product(self):
        circuit = _two_photon_circuit("op hp photon=A path=a1\n"
                                      "op bs photon=B in=b1,b2 out=b2,b1\n"
                                      "op pbs photon=A path=a2 out=a1,a2\n"
                                      "op z photon=B path=b2\n"
                                      "op cpbs photon=A in=a1 out=a2,a1\n")
        layout = circuit.layout()
        actions = optics._compile(circuit)[1]
        assert [a[:2] for a in actions] == [("matrix", 0), ("matrix", 1)]
        for slot, ops in ((0, circuit.ops[0::2]), (1, circuit.ops[1::2])):
            want = np.eye(4, dtype=complex)
            for el in ops:
                want = element_matrix(el, layout) @ want
            np.testing.assert_allclose(actions[slot][2], want, rtol=0, atol=1e-15)


class TestRandomCircuitRoundTrip:
    def test_round_trip_sample(self, rng):
        for _ in range(100):
            text = random_circuit_text(rng)
            c1 = parse_circuit(text)
            serialized = serialize_circuit(c1)
            c2 = parse_circuit(serialized)
            assert c1 == c2
            assert serialize_circuit(c2) == serialized


# ---------------------------------------------------------------------------
# fuzz

_TOKEN = re.compile(r"[^\s=,]+")  # a name, kind, key or value of a circuit line
FUZZ_SEEDS = (0, 1)  # one random.Random(seed) per (seed, text): 2 x 2 x 125 mutants
FUZZ_PAIR = reflection_coefficients(CavityParams(g=0.5, kappa_s=0.3, gamma=0.2, omega=0.4))


def _mutants(text: str, seed: int, vocab: list, n: int):
    """n mutants of text, each with one or two of its tokens replaced by one of vocab."""
    rng = random.Random(seed)
    spans = [m.span() for m in _TOKEN.finditer(text)]
    for _ in range(n):
        mutant = text
        for start, end in sorted(rng.sample(spans, rng.choice((1, 2))), reverse=True):
            mutant = mutant[:start] + rng.choice(vocab) + mutant[end:]
        yield mutant


class TestMutantFuzz:
    def test_shipped_text_mutants_run_or_raise_the_package_errors(self):
        texts = (HBSA_FULL_TEXT, HBSG_CIRCUIT_TEXT)
        vocab = sorted(set(_TOKEN.findall("".join(texts)))) + ["", "=", ",", "#", "x", "-1"]
        ran = 0
        for seed, text in product(FUZZ_SEEDS, texts):
            for mutant in _mutants(text, seed, vocab, 125):
                try:
                    circuit = parse_circuit(mutant)
                    layout = circuit.layout()
                    state = product_state(layout, "H", dict.fromkeys(layout.paths[0], 0.5),
                                          "H", dict.fromkeys(layout.paths[1], 0.5))
                    run_circuit_tracked(circuit, state, FUZZ_PAIR)
                    ran += 1
                except (ConfigurationError, NumericDomainError):
                    continue
                except Exception as exc:  # warnings are errors too
                    pytest.fail(f"{type(exc).__name__}: {exc}\non the mutant:\n{mutant}")
        assert ran > 0  # some mutants get past the parser
