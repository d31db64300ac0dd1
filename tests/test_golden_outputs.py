"""Sweep, CSV and SVG output against files captured before the sweep was
made columnar, and SVGs of the irregular sweep and of signed-zero axes
captured before the records and the heatmap's cells were built from arrays.

The sweep's numbers may move in the last bits (NumPy's complex division
is not CPython's), so the computed CSV values are compared to 1e-12 and
only the axis columns byte for byte. emit_csv and emit_svg_heatmap
format what they are given, so on fixed records their output must not
move at all.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from hyperbell.analysis import (
    VALUE_COLUMNS,
    SweepGrid,
    SweepRecord,
    emit_csv,
    emit_svg_heatmap,
    run_sweep,
)
from hyperbell.cavity import DephasingParams

DATA = Path(__file__).resolve().parent / "data"
DEPHASING = DephasingParams(tau=20.0, big_gamma=300.0)

# irregular axes with kappa_s = 0 and g = 0 on them; g/(kappa_s+kappa) = 1e-4
# drops the surviving branch
IRREGULAR_GRID = SweepGrid(kappa_s_over_kappa=(0.0, 0.07, 0.3, 0.45, 0.8, 1.2),
                           g_over_sum=(0.0, 1e-4, 0.2, 0.5, 1.0, 1.7, 2.5),
                           gamma_over_kappa=0.2, detuning=0.3)


def hand_built_records() -> list[SweepRecord]:
    """Records that no sweep makes, on a 3x3 grid of (kappa_s, g) cells.

    eta_simulated holds a NaN and herald_rate an inf; conditional_fidelity
    is constant (a colour span of 0); the cell (0.25, 0.5) comes twice with
    different values (the later one is drawn); the cell (1.0, 2.5) is
    empty; the rows are out of grid order. The fields include -0.0, an
    int, an np.float64, and values whose repr needs 17 digits or an
    exponent. On leakage_rate (span 0 to 1) the value 0.125 puts a colour
    channel exactly halfway between two integers, where rounding goes to
    the even one.
    """
    rows = [
        # kappa_s, g_over_sum, r_o, r_h, eta_closed, eta_sim, herald, leak, fid
        (1.0, 0.5, complex(-0.5, 0.25), complex(0.75, -0.125),
         0.1 + 0.2, 0.3, 1e-300, 0.5, 1.0),
        (0.0, 0.0, complex(-1.0, -0.0), complex(-1.0, -0.0),
         0.0, 0.0, 0.0, 1, 1.0),
        (0.25, 0.5, complex(-0.9, 0.1), complex(0.8, 0.2),
         0.04, math.nan, 5e-324, 0.02, 1.0),
        (0.0, 2.5, complex(-1.0, 0.0), complex(0.999, 1e-17),
         0.996, 0.99599999999999995, 2.5e-7, 0.0, 1.0),
        (0.25, 0.0, complex(-0.6, 0.0), complex(-0.6, 0.0),
         np.float64(0.0625), 0.0625, 0.0, 1.0, 1.0),
        (1.0, 0.0, complex(0.0, 0.0), complex(0.0, 0.0),
         0.0, 0.0, 0.0, 1.0, 1.0),
        (0.25, 0.5, complex(-0.9, 0.1), complex(0.8, 0.25),
         0.045, 0.043, 0.0123456789012345, 0.125, 1.0),
        (0.0, 0.5, complex(-1.0, 0.0), complex(0.6, -0.3),
         0.3333333333333333, 0.33333333333333326, 0.07, 0.25, 1.0),
        (0.25, 2.5, complex(-0.6, 1e-300), complex(0.9, 0.1),
         0.6, 0.6000000000000001, math.inf, 0.001, 1.0),
    ]
    return [SweepRecord(*row) for row in rows]


def signed_zero_records() -> list[SweepRecord]:
    """Records on a 2x2 grid of (kappa_s, g) cells whose axes each hold -0.0 and 0.0.

    kappa_s meets -0.0 first and g meets 0.0 first; each pair is one axis
    value, labelled as it was first met (-0 and 0). The cells (0, 0) and
    (0, 1) come twice under different zero signs, and the later record's
    value is drawn; the rows are out of grid order.
    """
    rows = [(-0.0, 1.0, 0.5), (0.5, 0.0, 0.25), (0.0, -0.0, 0.75), (0.5, 1.0, 1.0),
            (-0.0, 0.0, 0.125), (0.0, 1.0, 0.0), (0.5, -0.0, 0.375)]
    return [SweepRecord(ks, g, complex(-1.0, 0.0), complex(0.5, 0.0), 0.0, 0.0, value, 0.0, 1.0)
            for ks, g, value in rows]


def _golden(name: str) -> str:
    return (DATA / name).read_text(encoding="utf-8")


def test_sweep_csv_matches_golden():
    golden = _golden("sweep_irregular.csv").splitlines()
    got = emit_csv(run_sweep(IRREGULAR_GRID), DEPHASING).splitlines()
    assert got[0] == golden[0]
    assert len(got) == len(golden) == 1 + 6 * 7
    for row, (line, expected) in enumerate(zip(got[1:], golden[1:])):
        values, reference = line.split(","), expected.split(",")
        assert len(values) == len(reference)
        assert values[:2] == reference[:2], row
        for a, b in zip(values[2:], reference[2:]):
            assert abs(float(a) - float(b)) <= 1e-12, (row, a, b)


@pytest.mark.parametrize("dephasing,name", [(None, "records.csv"),
                                            (DEPHASING, "records_dephased.csv")])
def test_emit_csv_is_byte_identical(dephasing, name):
    assert emit_csv(hand_built_records(), dephasing) == _golden(name)


@pytest.mark.parametrize("column", sorted(VALUE_COLUMNS))
def test_emit_svg_heatmap_is_byte_identical(column):
    assert emit_svg_heatmap(hand_built_records(), column) == _golden(f"records_{column}.svg")


@pytest.mark.parametrize("column", sorted(VALUE_COLUMNS))
def test_sweep_svg_heatmap_is_byte_identical(column):
    golden = _golden(f"sweep_irregular_{column}.svg")
    assert emit_svg_heatmap(run_sweep(IRREGULAR_GRID), column) == golden


def test_signed_zero_axes_svg_is_byte_identical():
    assert emit_svg_heatmap(signed_zero_records(), "herald_rate") == _golden("signed_zero_axes.svg")
