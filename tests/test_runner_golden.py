"""The runner and the routing matrices against files written before the
runner fused each photon's passive matrices at compile time.

element_matrices.npz holds, for photons of 2-5 paths in both photon
slots, every port choice of bs, cpbs and pbs that the circuit language
can write (repeated ports included): which of them raise
ConfigurationError, and the matrix of each one that does not.

runner_golden.json holds 48 circuits of perfbench's random_circuit, six
of each of its eight circuit shapes, half run at IDEAL_PAIR and half at
a lossy pair. Per branch it keeps the record, the probability, the
clean and leaked weights, and <v|layer> for each leak layer, with v a
fixed seeded vector of the layout; per run, the click probabilities.
Both files were written by the functions below.
"""

import json
import math
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from hyperbell.cavity import ReflectionPair
from hyperbell.errors import ConfigurationError
from hyperbell.hilbert import StateLayout, product_state
from hyperbell.optics import Element, ElementKind, element_matrix, parse_circuit, run_circuit_tracked

DATA = Path(__file__).resolve().parent / "data"
MATRIX_ATOL = 1e-15
PROB_TOL = 1e-10
AMP_TOL = 1e-12


def _port_choices(kind: str, n: int) -> list[tuple[int, ...]]:
    pairs = list(product(range(n), repeat=2))
    if kind == "bs":
        return [a + b for a, b in product(pairs, pairs)]
    if kind == "cpbs":
        return [a + b for a, b in product([(i, -1) for i in range(n)] + pairs, pairs)]
    return [(p,) + b for p, b in product(range(n), pairs)]


def _element(kind: str, photon: str, names: tuple[str, ...], ports) -> Element:
    if kind == "pbs":
        return Element(ElementKind.PBS, photon=photon, path=names[ports[0]],
                       out_paths=(names[ports[1]], names[ports[2]]))
    ins = tuple(names[i] for i in ports[:2] if i >= 0)
    return Element(ElementKind(kind), photon=photon, in_paths=ins,
                   out_paths=(names[ports[2]], names[ports[3]]))


def element_matrix_table() -> dict[str, np.ndarray]:
    """Per (kind, slot, path count): the port choices, which of them build
    a matrix, and those matrices, stacked."""
    table = {}
    for n in range(2, 6):
        layout = StateLayout(photons=("A", "B"), paths=(
            tuple(f"a{k}" for k in range(n)), tuple(f"b{k}" for k in range(7 - n))))
        for slot, kind in product((0, 1), ("bs", "cpbs", "pbs")):
            photon, names = layout.photons[slot], layout.paths[slot]
            ports = _port_choices(kind, len(names))
            ok, mats = [], []
            for choice in ports:
                try:
                    mats.append(element_matrix(_element(kind, photon, names, choice), layout))
                    ok.append(True)
                except ConfigurationError:
                    ok.append(False)
            key = f"{kind}_slot{slot}_n{len(names)}"
            table[f"{key}_ports"] = np.array(ports, dtype=np.int8)
            table[f"{key}_ok"] = np.array(ok)
            table[f"{key}_mats"] = np.array(mats)
    return table


def _probe(layout: StateLayout) -> np.ndarray:
    """The fixed vector that the layers of a layout are projected on."""
    rng, n = np.random.default_rng(list(layout.shape)), math.prod(layout.shape)
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def run_snapshot(text: str, product_args, r_o: complex, r_h: complex) -> dict:
    """What runner_golden.json keeps of one run."""
    circuit = parse_circuit(text)
    layout = circuit.layout()
    run = run_circuit_tracked(circuit, product_state(layout, *product_args),
                              ReflectionPair(r_o, r_h))
    v = _probe(layout)
    return {
        "click_probability": run.click_probability,
        "branches": [{
            "record": [list(entry) for entry in tb.record],
            "probability": tb.probability,
            "clean_weight": tb.clean_weight,
            "leaked_weight": tb.leaked_weight,
            "vdot": [[z.real, z.imag] for z in (complex(np.vdot(v, layer.ravel()))
                                                for layer in tb.layers)],
        } for tb in run.branches],
    }


def test_element_matrices_match_golden():
    golden = np.load(DATA / "element_matrices.npz")
    table = element_matrix_table()
    assert sorted(table) == sorted(golden.files)
    for key, value in table.items():
        if key.endswith("_mats"):
            assert value.shape == golden[key].shape, key
            np.testing.assert_allclose(value, golden[key], rtol=0, atol=MATRIX_ATOL, err_msg=key)
        else:
            np.testing.assert_array_equal(value, golden[key], err_msg=key)


_RUNS = json.loads((DATA / "runner_golden.json").read_text(encoding="utf-8"))["runs"]


@pytest.mark.parametrize("index", range(len(_RUNS)))
def test_runner_matches_golden(index):
    golden = _RUNS[index]
    got = run_snapshot(golden["text"], golden["product"],
                       complex(*golden["r_o"]), complex(*golden["r_h"]))
    assert got["click_probability"].keys() == golden["click_probability"].keys()
    for label, p in golden["click_probability"].items():
        assert abs(got["click_probability"][label] - p) <= PROB_TOL, label
    assert [b["record"] for b in got["branches"]] == [b["record"] for b in golden["branches"]]
    for g, w in zip(got["branches"], golden["branches"]):
        for key in ("probability", "clean_weight", "leaked_weight"):
            assert abs(g[key] - w[key]) <= PROB_TOL, (g["record"], key)
        assert len(g["vdot"]) == len(w["vdot"]), g["record"]
        for a, b in zip(g["vdot"], w["vdot"]):
            assert abs(complex(*a) - complex(*b)) <= AMP_TOL, g["record"]
