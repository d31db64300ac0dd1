"""The hot records and the run_hbsa readout that builds one of them.

HbsaBranch, SweepRecord and Element are immutable value records: their
fields, defaults and repr are pinned here as literals, and so are the
records run_hbsa returns. hbsa_branches_golden.json holds run_hbsa on all
16 labels and on one superposition input at eight cavity points:
IDEAL_PAIR, a leak-free pair (h = 0) and six lossy points drawn from the
default sweep domain. hbsa_golden below wrote it.
"""

import inspect
import itertools
import json
import random
import re
from pathlib import Path

import numpy as np
import pytest

from hyperbell.analysis import (
    SweepGrid,
    SweepRecord,
    emit_csv,
    parse_csv,
    run_sweep,
    sweep_point,
)
from hyperbell.cavity import (
    IDEAL_PAIR,
    CavityParams,
    DephasingParams,
    ReflectionPair,
    reflection_coefficients,
)
from hyperbell.errors import ConfigurationError
from hyperbell.hilbert import HybridState
from hyperbell.optics import Element, ElementKind
from hyperbell.protocols import (
    Bell,
    DetectorPattern,
    HbsaBranch,
    HyperBellLabel,
    SpinOutcome,
    all_labels,
    hbsa_input,
    parse_label,
    run_hbsa,
)

GOLDEN = Path(__file__).resolve().parent / "data" / "hbsa_branches_golden.json"
TOL = 1e-12
SUPERPOSITION = ("phi+,psi-", "psi+,phi+")  # (first + i * second) / sqrt 2


def _pairs() -> list[ReflectionPair]:
    rng = random.Random(13)
    r_o = complex(0.9 * np.exp(0.7j))
    pairs = [IDEAL_PAIR, ReflectionPair(r_o, -r_o)]
    for _ in range(6):
        kappa_s = rng.uniform(0.0, 1.0)
        params = CavityParams(g=rng.uniform(0.05, 2.5) * (kappa_s + 1.0), kappa_s=kappa_s,
                              gamma=rng.uniform(0.05, 0.15))
        pairs.append(reflection_coefficients(params))
    return pairs


def _superposition() -> HybridState:
    first, second = (hbsa_input(parse_label(text)) for text in SUPERPOSITION)
    return HybridState(first.layout, (first.amps + 1j * second.amps) / np.sqrt(2))


def _inputs() -> list[tuple[str, object]]:
    return [(str(label), label) for label in all_labels()] + [("superposition", _superposition())]


def _snapshot(branches: list[HbsaBranch]) -> list[list]:
    """One [spins, pattern, classified, probability, clean, leaked] row per branch."""
    return [[b.spins.e1 + b.spins.e2, f"{b.pattern.a} {b.pattern.b}", str(b.classified),
             b.probability, b.clean_weight, b.leaked_weight] for b in branches]


def hbsa_golden() -> str:
    """run_hbsa on every input at every pair: hbsa_branches_golden.json, one run a line."""
    runs = [json.dumps({"r_o": [pair.r_o.real, pair.r_o.imag],
                        "r_h": [pair.r_h.real, pair.r_h.imag],
                        "input": name, "branches": _snapshot(run_hbsa(arg, pair))})
            for pair in _pairs() for name, arg in _inputs()]
    return '{"superposition": %s, "runs": [\n%s\n]}\n' % (
        json.dumps(list(SUPERPOSITION)), ",\n".join(runs))


_RUNS = json.loads(GOLDEN.read_text(encoding="utf-8"))["runs"]


def test_golden_covers_every_input_at_every_pair():
    assert len(_RUNS) == 8 * 17
    assert {run["input"] for run in _RUNS} == {name for name, _ in _inputs()}
    # the lossy points leak, the leak-free one does not
    assert any(b[5] > 0 for b in _RUNS[-1]["branches"])
    assert all(b[5] == 0 for run in _RUNS[17:34] for b in run["branches"])


@pytest.mark.parametrize("index", range(0, len(_RUNS), 17))
def test_run_hbsa_matches_golden(index):
    inputs = dict(_inputs())
    for golden in _RUNS[index:index + 17]:
        pair = ReflectionPair(complex(*golden["r_o"]), complex(*golden["r_h"]))
        got = _snapshot(run_hbsa(inputs[golden["input"]], pair))
        assert [g[:3] for g in got] == [w[:3] for w in golden["branches"]], golden["input"]
        for g, w in zip(got, golden["branches"]):
            assert np.all(np.abs(np.subtract(g[3:], w[3:])) <= TOL), (golden["input"], w[:3])


# ---------------------------------------------------------------------------
# the record contract

_FIELDS = {
    SweepRecord: ("kappa_s_over_kappa", "g_over_sum", "r_o", "r_h", "eta_closed_form",
                  "eta_simulated", "herald_rate", "leakage_rate", "conditional_fidelity"),
    HbsaBranch: ("spins", "pattern", "probability", "classified", "clean_weight",
                 "leaked_weight"),
    Element: ("kind", "photon", "path", "in_paths", "out_paths", "qd", "label", "pol"),
}
_LABEL = HyperBellLabel(Bell.PHI_PLUS, Bell.PSI_MINUS)


def _record(cls, other: bool = False):
    """One fixed record of cls, or with other, one that differs in one field."""
    if cls is SweepRecord:
        return SweepRecord(0.25, 1.5, -0.5 + 0.25j, 0.75 - 0.125j, 0.0625, 0.0625,
                           0.125, 0.03125, 0.5 if other else 0.96875)
    if cls is HbsaBranch:
        return HbsaBranch(SpinOutcome("-", "-"), DetectorPattern("a1+", "b2-"),
                          0.5 if other else 0.25, _LABEL, 0.25, 0.0)
    return Element(ElementKind.BS, photon="B", in_paths=("b1", "b2"),
                   out_paths=("b1", "b2") if other else ("b2", "b1"))


_REPRS = {
    SweepRecord: "SweepRecord(kappa_s_over_kappa=0.25, g_over_sum=1.5, r_o=(-0.5+0.25j), "
                 "r_h=(0.75-0.125j), eta_closed_form=0.0625, eta_simulated=0.0625, "
                 "herald_rate=0.125, leakage_rate=0.03125, conditional_fidelity=0.96875)",
    HbsaBranch: "HbsaBranch(spins=SpinOutcome(e1='-', e2='-'), "
                "pattern=DetectorPattern(a='a1+', b='b2-'), probability=0.25, "
                "classified=HyperBellLabel(pol=<Bell.PHI_PLUS: 'phi+'>, "
                "spatial=<Bell.PSI_MINUS: 'psi-'>), clean_weight=0.25, leaked_weight=0.0)",
    Element: "Element(kind=<ElementKind.BS: 'bs'>, photon='B', path=None, "
             "in_paths=('b1', 'b2'), out_paths=('b2', 'b1'), qd=None, label=None, pol=None)",
}
_RECORDS = pytest.mark.parametrize("cls", list(_FIELDS), ids=lambda cls: cls.__name__)


@_RECORDS
def test_fields_in_order_with_defaults(cls):
    params = inspect.signature(cls).parameters
    assert tuple(params) == _FIELDS[cls]
    defaults = {name: p.default for name, p in params.items()
                if p.default is not inspect.Parameter.empty}
    assert defaults == ({name: None for name in _FIELDS[Element][1:]} if cls is Element else {})


@_RECORDS
def test_fields_cannot_be_assigned(cls):
    record = _record(cls)
    for name in _FIELDS[cls]:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    assert record == _record(cls)


@_RECORDS
def test_equal_by_value_with_equal_hashes(cls):
    a, b = _record(cls), _record(cls)
    assert a is not b and a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert _record(cls, other=True) != a
    assert a == tuple(a)  # a plain tuple of the same values is equal, too


@_RECORDS
def test_repr_names_every_field(cls):
    assert repr(_record(cls)) == _REPRS[cls]


def test_run_sweep_returns_sweep_records():
    # each record, made from the sweep's columns, is a SweepRecord and the one-point sweep
    # at its point
    grid = SweepGrid((0.0, 0.2, 0.55), (0.0, 0.3, 1.1, 2.5), gamma_over_kappa=0.12,
                     detuning=0.05)
    records = run_sweep(grid)
    points = list(itertools.product(grid.kappa_s_over_kappa, grid.g_over_sum))
    assert len(records) == len(points) == 12
    for record, (kappa_s, g_over_sum) in zip(records, points):
        assert type(record) is SweepRecord and record._fields == _FIELDS[SweepRecord]
        changed = record._replace(conditional_fidelity=0.5)
        assert type(changed) is SweepRecord and changed == (*record[:-1], 0.5)
        point = sweep_point(kappa_s, g_over_sum, 0.12, 0.05)
        assert record == point and record[:2] == (kappa_s, g_over_sum)


@pytest.mark.parametrize("grid", [
    SweepGrid((0.0, 0.2, 0.55), (0.0, 0.3, 1.1, 2.5), gamma_over_kappa=0.12, detuning=0.05),
    SweepGrid.regular(0.0, 1.0, 9, 0.0, 2.5, 9, gamma_over_kappa=0.12, detuning=0.05),
], ids=["3x4", "9x9"])
def test_sweep_point_is_bit_equal_to_its_grid_record(grid):
    # a pair's monomial weights take the same bits whatever the number of pairs beside it
    for record in run_sweep(grid):
        point = sweep_point(*record[:2], grid.gamma_over_kappa, grid.detuning)
        assert repr(point) == repr(record)


@pytest.mark.parametrize("dephasing", [None, DephasingParams(tau=0.1, big_gamma=1.0)])
def test_csv_round_trip_on_irregular_grid(dephasing):
    grid = SweepGrid((0.0, 0.13, 0.7, 1.0), (0.0, 0.05, 0.4, 1.1, 2.5), gamma_over_kappa=0.08)
    records = run_sweep(grid)
    assert parse_csv(emit_csv(records, dephasing)) == records


@pytest.mark.parametrize("row", ["x,1,1,0,1,0,1,1,1,0,1", "0,1,1,0,1,0,1,1,1,0,nan?"])
def test_parse_csv_rejects_a_non_numeric_field(row):
    text = emit_csv(run_sweep(SweepGrid((0.1,), (1.0,)))) + row + "\n"
    with pytest.raises(ConfigurationError, match=re.escape(f"non-numeric CSV row: {row!r}")):
        parse_csv(text)
