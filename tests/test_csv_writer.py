"""emit_csv against a naive writer that formats every field of every row.

emit_csv formats each distinct bit pattern of a mostly-repeating column
once; these tests pin that its text is still, byte for byte, repr(float)
of every field, on sweep records and on hand-made records full of values
whose bits differ while their numeric values compare equal (or not at all).
"""

import importlib.util
import math
import struct
from operator import attrgetter
from pathlib import Path

import numpy as np
import pytest

from hyperbell.analysis import CSV_COLUMNS, SweepGrid, SweepRecord, emit_csv, run_sweep
from hyperbell.cavity import DephasingParams, dephasing_penalty

from test_golden_outputs import IRREGULAR_GRID

ROOT = Path(__file__).resolve().parents[1]
FIELDS = ("kappa_s_over_kappa", "g_over_sum", "r_o.real", "r_o.imag", "r_h.real",
          "r_h.imag", "eta_closed_form", "eta_simulated", "herald_rate",
          "leakage_rate", "conditional_fidelity")
DEPHASING = DephasingParams(tau=20.0, big_gamma=300.0)


def reference_csv(records, dephasing=None) -> str:
    """The header, then one row per record: repr(float(v)) of each field,
    and with dephasing the penalty p, fidelity - p and fidelity * (1 - p)."""
    lines = [CSV_COLUMNS + (",dephasing_penalty,cond_fidelity_dephased,"
                            "cond_fidelity_exp_scaled" if dephasing is not None else "")]
    for record in records:
        values = [float(attrgetter(name)(record)) for name in FIELDS]
        if dephasing is not None:
            p = dephasing_penalty(dephasing)
            values += [p, values[-1] - p, values[-1] * (1.0 - p)]
        lines.append(",".join(repr(float(v)) for v in values))
    return "\n".join(lines + [""])


def _perfbench_grid() -> SweepGrid:
    """The first grid of the sweep workload at seed 1: 41x41, seeded axes."""
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.Sweep(seed=1).make_input(0)


GRIDS = {
    "perfbench-seed-1": _perfbench_grid,
    "default": SweepGrid.regular,
    "irregular": lambda: IRREGULAR_GRID,
    "repeated-kappa-s": lambda: SweepGrid((0.5, 0.5, 0.0), (0.0, 0.3, 1.0, 2.5)),
}


@pytest.mark.parametrize("dephasing", [None, DEPHASING], ids=["plain", "dephased"])
@pytest.mark.parametrize("grid", sorted(GRIDS))
def test_sweep_csv_matches_reference(grid, dephasing):
    records = run_sweep(GRIDS[grid]())
    assert emit_csv(records, dephasing) == reference_csv(records, dephasing)


@pytest.mark.parametrize("dephasing", [None, DEPHASING], ids=["plain", "dephased"])
def test_empty_csv_matches_reference(dephasing):
    assert emit_csv([], dephasing) == reference_csv([], dephasing)


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


# ten values whose bits all differ: 0.0 and -0.0 compare equal, the three
# NaNs (quiet, sign bit set, another payload) all print as nan
SPECIALS = (0.0, -0.0, math.nan, -math.nan,
            struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000123))[0],
            math.inf, -math.inf, 5e-324, 1, np.float64(0.1))


def _complex_field(x, y):
    """complex(x, y); an int or np.float64 real part stays a bare real."""
    return complex(x, y) if type(x) is float else x


def corner_records(n: int = 40) -> list[SweepRecord]:
    """n records whose every column cycles through SPECIALS, shifted per column."""
    def v(i, j):
        return SPECIALS[(i + 3 * j) % len(SPECIALS)]
    return [SweepRecord(v(i, 0), v(i, 1), _complex_field(v(i, 2), v(i, 3)),
                        _complex_field(v(i, 4), v(i, 5)), *(v(i, j) for j in range(6, 11)))
            for i in range(n)]


def test_corner_records_take_the_shared_text_path():
    # every column holds at most half as many bit patterns as rows, and the
    # corner values are all there
    records = corner_records()
    columns = [[float(attrgetter(name)(r)) for r in records] for name in FIELDS]
    for name, column in zip(FIELDS, columns):
        assert 2 * len(set(map(_bits, column))) <= len(records), name
    assert {_bits(float(x)) for x in SPECIALS} <= set(map(_bits, columns[0]))
    assert len(set(map(_bits, SPECIALS))) == len(SPECIALS)


@pytest.mark.parametrize("dephasing", [None, DEPHASING], ids=["plain", "dephased"])
def test_corner_records_match_reference(dephasing):
    # a writer that dedups by value (np.unique on the floats) merges -0.0
    # into 0.0 and fails here
    records = corner_records()
    text = emit_csv(records, dephasing)
    assert text == reference_csv(records, dephasing)
    assert "-0.0" in text and ",0.0" in text and "nan" in text and "-inf" in text
