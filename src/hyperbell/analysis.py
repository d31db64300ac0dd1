"""Fidelity and efficiency metrics, the parameter sweep, CSV/SVG output.

The sweep runs the heralded generation circuit's stage 1 once, through
protocols._no_click as a polynomial in s = (r_o - r_h)/2 and
h = (r_o + r_h)/2, and turns its no-click branch and clicks into
monomials s^i h^k, each with the squared norm w of its coefficients (one
per leak layer, which holds one s-degree, and one per click), cached per
circuit text. The whole grid is one NumPy evaluation of
|s|^(2i) |h|^(2k) w, which reports, per point: the closed-form
efficiency |(r_h - r_o)/2|^8, the simulated end-to-end
success probability (they must agree to 1e-10), the herald rate, the
silent-leak share of the surviving weight, and the conditional fidelity,
1 by construction (hbsg_statistics_grid); hbsg_branch_report checks it per
spin branch on protocols.run_hbsg, the one per-pair generation run. The
coefficients are one array evaluation too, and the records are built from the
columns by tuple.__new__. The CSV writer counts a column's distinct bit patterns
(-0.0 is not 0.0) with one sort and formats each once if they repeat; the SVG
writer finds each cell's last record with one np.unique and writes every fill
with one bytes.hex. A point is a SweepRecord, a NamedTuple: immutable, compared
by value (a plain tuple of the same values included), and copied with _replace.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .cavity import (
    DephasingParams,
    ReflectionPair,
    _check_real,
    _finite,
    _pair_amplitudes,
    dephasing_penalty,
    reflection_coefficients,  # bound here for perfbench's tracer; the sweep uses the grid form
    reflection_coefficients_grid,
)
from .errors import ConfigurationError, InconsistentOutcomeError, NumericDomainError
from .hilbert import HybridState, overlap
from .protocols import (
    HBSG_CIRCUIT_TEXT,
    HBSG_OUTPUT_RAILS,
    HyperBellLabel,
    Bell,
    _no_click,
    _parsed,
    hbsg_input,
    make_bell,
    run_hbsa,
    run_hbsg,
)
from .optics import (
    _BRANCH_DROP,
    _ring_value,
    _surviving,
    _weight,
    layer_s_degrees,
    monomial_support,
    run_circuit_tracked,  # bound here for perfbench's tracer; run_hbsg runs the circuit
)

CSV_COLUMNS = ("kappa_s_over_kappa,g_over_sum,r_o_re,r_o_im,r_h_re,r_h_im,"
               "eta_closed,eta_sim,herald_rate,leakage_rate,cond_fidelity")
_DEPHASING_COLUMNS = ",dephasing_penalty,cond_fidelity_dephased,cond_fidelity_exp_scaled"


def fidelity(actual: HybridState, ideal: HybridState) -> float:
    """|<ideal|actual>|^2 with actual renormalized; ideal must be normalized."""
    if abs(ideal.norm2 - 1.0) > 1e-9:
        raise ConfigurationError("ideal state must be normalized")
    n2 = actual.norm2
    if n2 <= 0:
        raise ConfigurationError("actual state has zero norm")
    return abs(overlap(ideal, actual)) ** 2 / n2


def efficiency_closed_form(pair: ReflectionPair) -> float:
    """End-to-end success probability |s|^8, s = (r_o - r_h)/2 (success_amplitude).

    Eight lossy passages (two photons through two stages of either a QD arm or its matched
    corrector, squared); invariant under the overall sign convention. A pair of arrays gives
    one value per point; an overflow is a NumericDomainError, a non-pair a ConfigurationError.
    """
    if not isinstance(pair, ReflectionPair):
        raise ConfigurationError(
            f"efficiency_closed_form takes a ReflectionPair, not {type(pair).__name__}")
    try:
        with np.errstate(over="raise"):
            return abs(pair.success_amplitude) ** 8
    except (OverflowError, FloatingPointError):
        raise NumericDomainError("closed-form efficiency overflows at a pair") from None


@dataclass(frozen=True)
class GenerationStats:
    """Aggregates of one full generation run."""

    eta_simulated: float
    herald_rate: float
    leakage_rate: float
    conditional_fidelity: float


@lru_cache(maxsize=4)
def _generation_forms(text: str) -> tuple[np.ndarray, np.ndarray]:
    """(layers, clicks): the monomials s^i h^k of a generation circuit text, spins unmeasured,
    as arrays [3, monomials] of rows (i, k, w), w the squared norm of the monomial's
    coefficients, so its weight at (s, h) is |s|^(2i) |h|^(2k) w. layers holds the no-click
    branch's h-degree layers in order, one monomial each, and clicks one per first click.
    A click with several monomials, or a layer with several s-degrees, is a ConfigurationError."""
    circuit = _parsed(text)
    m, c, clicks = _no_click(circuit, hbsg_input(circuit))
    c, arrays = _ring_value(c, m), [_ring_value(a, m) for cs in clicks.values() for a in cs]
    degrees = layer_s_degrees(c)
    if any(a[:, 0].any() for a in arrays):  # a herald click needs a leak, so h = 0 gives rate 0
        raise InconsistentOutcomeError("herald click without a leak")
    clicked = []
    for a in arrays:
        mask, _ = monomial_support(a[:, 1:])
        if mask.sum() > 1:
            raise ConfigurationError("a herald click holds several monomials")
        clicked += [(i, k + 1, _weight(a[i, k + 1])) for i, k in np.argwhere(mask)]
    return (np.array([(i, k, _weight(c[i, k])) for k, i in enumerate(degrees)]).T,
            np.array(clicked).reshape(-1, 3).T)


def _monomial_weights(monomials: np.ndarray, s: np.ndarray, h: np.ndarray) -> np.ndarray:
    """|s|^(2i) |h|^(2k) w of each monomial (i, k, w) at the pairs (s[N], h[N]): [M, N]. A row
    takes scalar int powers, so a pair's weights have the same bits at every N."""
    a, b = np.abs(s), np.abs(h)
    return np.array([a ** (2 * int(i)) * b ** (2 * int(k)) * w for i, k, w in monomials.T]
                    or np.zeros((0, a.size)))  # no monomials, as a text without heralds has


def hbsg_statistics_grid(s: np.ndarray, h: np.ndarray):
    """(eta, herald_rate, leakage_rate, conditional_fidelity) at the pairs (s[N], h[N]).

    Each is an array of shape [N], from one evaluation of the generation
    run's monomials. The herald rate is the probability that at least one
    herald detector fires; eta and the leak share are conditioned on no
    click, under the runner's drop rule (optics._surviving: trailing leak
    layers below the threshold go, and the branch goes unless the rest
    weighs more). conditional_fidelity, of the unleaked layer against the
    lossless output, is 1 at every pair by construction: layer_s_degrees
    gives the unleaked layer one s-degree i, so it is s^i times one fixed
    vector, and at the lossless pair h = 0, so the output is that layer.
    hbsg_branch_report checks each branch of run_hbsg against its HBSG_OUTPUT_TABLE target.
    A pair at which a weight or sum overflows is a NumericDomainError; s and h other
    than numeric arrays of one shape, a ConfigurationError.
    """
    if not all(isinstance(x, np.ndarray) and x.dtype.kind in "biufc" and x.shape == s.shape
               for x in (s, h)):
        raise ConfigurationError("hbsg_statistics_grid takes numeric arrays s and h of one shape")
    layers, clicks = _generation_forms(HBSG_CIRCUIT_TEXT)
    try:
        with np.errstate(over="raise", invalid="raise"):
            _, eta, leak, live = _surviving(_monomial_weights(layers, s, h))
            herald_rate = np.sum(_monomial_weights(clicks, s, h), axis=0)
    except FloatingPointError:
        raise NumericDomainError("generation statistics overflow at a pair") from None
    # live is eta + leak > _BRANCH_DROP, so the divisor is nonzero where it is used
    leakage_rate = np.divide(leak, eta + leak, out=np.ones_like(leak), where=live)
    return np.where(live, eta, 0.0), herald_rate, leakage_rate, np.ones_like(leakage_rate)


def hbsg_statistics(pair: ReflectionPair) -> GenerationStats:
    """hbsg_statistics_grid at one pair, a ReflectionPair of two numbers."""
    s, h = _pair_amplitudes(pair, "hbsg_statistics")
    stats = hbsg_statistics_grid(np.array([s]), np.array([h]))
    return GenerationStats(*(float(x[0]) for x in stats))


def hbsg_branch_report(pair: ReflectionPair) -> list[tuple[tuple[str, str], float, float]]:
    """Per unheralded branch of run_hbsg(pair) whose clean weight exceeds _BRANCH_DROP:
    (spins, probability, fidelity of its clean component with its HBSG_OUTPUT_TABLE target)."""
    return [(key, b.probability, fidelity(b.clean_state, make_bell(
                b.label.pol, b.label.spatial, b.clean_state.layout, HBSG_OUTPUT_RAILS, key)))
            for b in run_hbsg(pair) if not b.heralds and b.clean_weight > _BRANCH_DROP
            for key in [(b.spins.e1, b.spins.e2)]]


def hbsa_leakage_rate(pair: ReflectionPair) -> float:
    """Silent-leak share of the surviving weight for the analysis run of phi+,phi+.

    Both are sums of layer norms over the branches: the leaked weight is
    the sum of leaked_weight, the surviving weight that of clean_weight +
    leaked_weight, sum of ||layer||^2. The surviving weight is therefore
    not the branches' summed probability, ||sum of layers||^2 per branch,
    which differs by the interference between layers.
    """
    branches = run_hbsa(HyperBellLabel(Bell.PHI_PLUS, Bell.PHI_PLUS), pair)
    leak = sum(b.leaked_weight for b in branches)
    survived = sum(b.clean_weight for b in branches) + leak
    return leak / survived if survived > _BRANCH_DROP else 1.0


# ---------------------------------------------------------------------------
# parameter sweep

@dataclass(frozen=True)
class SweepGrid:
    """Sweep axes: side leakage kappa_s/kappa and coupling g/(kappa_s+kappa)."""

    kappa_s_over_kappa: tuple[float, ...]
    g_over_sum: tuple[float, ...]
    gamma_over_kappa: float = 0.1
    detuning: float = 0.0

    def __post_init__(self):
        _check_real(vars(self), sequences=("kappa_s_over_kappa", "g_over_sum"))
        if not self.kappa_s_over_kappa or not self.g_over_sum:
            raise ConfigurationError("sweep grid axes must not be empty")
        values = list(self.kappa_s_over_kappa) + list(self.g_over_sum)
        if not _finite(values) or any(v < 0 for v in values):
            raise ConfigurationError("grid values must be finite and non-negative")
        if not _finite(self.gamma_over_kappa, self.detuning):
            raise ConfigurationError("gamma_over_kappa and detuning must be finite")

    @staticmethod
    def regular(ks_min=0.0, ks_max=1.0, ks_steps=101,
                g_min=0.0, g_max=2.5, g_steps=101,
                gamma_over_kappa=0.1, detuning=0.0) -> "SweepGrid":
        if not all(isinstance(steps, int | np.integer) for steps in (ks_steps, g_steps)):
            raise ConfigurationError(f"sweep steps must be ints, got {ks_steps!r}, {g_steps!r}")
        if ks_steps < 1 or g_steps < 1:
            raise ConfigurationError("sweep axes need at least one step")
        SweepGrid((ks_min, ks_max), (g_min, g_max))  # the bounds, checked before np.linspace
        return SweepGrid(
            tuple(np.linspace(ks_min, ks_max, ks_steps).tolist()),
            tuple(np.linspace(g_min, g_max, g_steps).tolist()),
            gamma_over_kappa, detuning)


class SweepRecord(NamedTuple):
    kappa_s_over_kappa: float
    g_over_sum: float
    r_o: complex
    r_h: complex
    eta_closed_form: float
    eta_simulated: float
    herald_rate: float
    leakage_rate: float
    conditional_fidelity: float


def run_sweep(grid: SweepGrid) -> list[SweepRecord]:
    """Evaluate every grid point, row-major (kappa_s outer, coupling inner).

    The grid is held as columns: its coefficients are one
    reflection_coefficients_grid call and its statistics one
    hbsg_statistics_grid call; records are built from the columns last, by tuple.__new__.
    """
    ks_axis = np.array(grid.kappa_s_over_kappa, dtype=float)
    g_axis = np.array(grid.g_over_sum, dtype=float)
    kappa_s = np.repeat(ks_axis, len(g_axis))
    g_over_sum = np.tile(g_axis, len(ks_axis))
    with np.errstate(over="ignore"):  # an infinite g is reported by the coefficients
        g = g_over_sum * (kappa_s + 1.0)
    pair = ReflectionPair(*reflection_coefficients_grid(
        kappa_s, g, grid.gamma_over_kappa, grid.detuning))  # one array per coefficient
    stats = hbsg_statistics_grid(pair.success_amplitude, pair.herald_amplitude)
    columns = (kappa_s, g_over_sum, pair.r_o, pair.r_h, efficiency_closed_form(pair), *stats)
    return list(map(tuple.__new__, repeat(SweepRecord), zip(*(c.tolist() for c in columns))))


def sweep_point(kappa_s: float, g_over_sum: float, gamma_over_kappa: float = 0.1,
                detuning: float = 0.0) -> SweepRecord:
    """Coefficients plus full generation statistics at one grid point: a
    one-point run_sweep."""
    (record,) = run_sweep(SweepGrid((kappa_s,), (g_over_sum,), gamma_over_kappa, detuning))
    return record


# ---------------------------------------------------------------------------
# CSV

def _csv_columns(records: list[SweepRecord], dephasing: DephasingParams | None) -> list:
    """The CSV's columns in order, the record fields read with one zip."""
    ks, g, r_o, r_h, *rest = zip(*records)
    r_o, r_h = np.array(r_o, dtype=complex), np.array(r_h, dtype=complex)
    columns = [ks, g, r_o.real, r_o.imag, r_h.real, r_h.imag, *rest]
    if dephasing is not None:
        penalty = dephasing_penalty(dephasing)
        fidelity = np.array(rest[-1], dtype=float)
        columns += [np.full(len(records), penalty), fidelity - penalty,
                    fidelity * (1.0 - penalty)]
    return columns


def _texts(column):
    """repr(float(v)) for each v of a column, in order.

    Equal bits give equal text (values would merge -0.0 into 0.0), so the
    distinct bit patterns are counted with one sort. When more than half
    are distinct, a memoryview hands out one float at a time and the texts
    are made as the rows are joined, so a near-unique column's texts are
    never all alive at once. Otherwise each pattern is formatted once and
    the rows share the texts.
    """
    column = np.ascontiguousarray(column, dtype=float)
    bits = np.sort(column.view(np.int64))
    if 2 * (np.count_nonzero(bits[1:] != bits[:-1]) + 1) > len(column):
        return map(repr, memoryview(column))
    _, first, inverse = np.unique(column.view(np.int64), return_index=True, return_inverse=True)
    return np.array(list(map(repr, column[first].tolist())), dtype=object)[inverse]


def emit_csv(records: list[SweepRecord],
             dephasing: DephasingParams | None = None) -> str:
    """Render sweep records as CSV.

    With dephasing parameters supplied, three extra columns report the
    exciton-dephasing penalty 1 - exp(-tau/Gamma), the fidelity reduced
    by that amount (subtractive reading), and the multiplicative
    alternative exp(-tau/Gamma) * fidelity for comparison.
    """
    header = CSV_COLUMNS + (_DEPHASING_COLUMNS if dephasing is not None else "")
    if not records:
        return header + "\n"
    # texts are lazy for a mostly-distinct column and shared otherwise
    # (_texts); no name holds the columns, so they go before the join
    rows = [header, *map(",".join, zip(*map(_texts, _csv_columns(records, dephasing)))), ""]
    return "\n".join(rows)


def parse_csv(text: str) -> list[SweepRecord]:
    """Inverse of emit_csv (extra dephasing columns are ignored)."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].split(",")[:11] != CSV_COLUMNS.split(","):
        raise ConfigurationError("not a sweep CSV: header does not start with its 11 columns")
    records = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) < 11:
            raise ConfigurationError(f"short CSV row: {ln!r}")
        try:
            ks, g, ro_re, ro_im, rh_re, rh_im, *rest = map(float, parts[:11])
        except ValueError:
            raise ConfigurationError(f"non-numeric CSV row: {ln!r}") from None
        records.append(SweepRecord(ks, g, complex(ro_re, ro_im), complex(rh_re, rh_im), *rest))
    return records


# ---------------------------------------------------------------------------
# SVG heatmap

_VIRIDIS = (
    (0.0, (68, 1, 84)),
    (0.25, (59, 82, 139)),
    (0.5, (33, 145, 140)),
    (0.75, (94, 201, 98)),
    (1.0, (253, 231, 37)),
)

# each heatmap value column's CSV name, the last five, mapped to its SweepRecord field
VALUE_COLUMNS = dict(zip(CSV_COLUMNS.split(",")[6:], SweepRecord._fields[4:]))

# heatmap geometry (pixels)
SVG_MARGIN_LEFT = 70
SVG_MARGIN_TOP = 30
SVG_MARGIN_RIGHT = 90
SVG_MARGIN_BOTTOM = 55
SVG_PLOT_SIZE = 480


_KNOTS = np.array([t for t, _ in _VIRIDIS])
_KNOT_RGB = np.array([rgb for _, rgb in _VIRIDIS], dtype=float)


def _color(t: np.ndarray) -> np.ndarray:
    """Viridis colours at t as uint8 rows (r, g, b): t clamped to [0, 1],
    interpolated linearly between knots and rounded half to even; white where t is NaN."""
    t = np.clip(t, 0.0, 1.0)
    nan = np.isnan(t)
    t = np.where(nan, 0.0, t)
    seg = np.searchsorted(_KNOTS[1:], t)  # the first segment ending at or above t
    f = (t - _KNOTS[seg]) / (_KNOTS[seg + 1] - _KNOTS[seg])
    c0 = _KNOT_RGB[seg]
    rgb = np.rint(c0 + f[:, None] * (_KNOT_RGB[seg + 1] - c0))
    rgb[nan] = 255
    return rgb.astype(np.uint8)


def svg_cell_geometry(n_x: int, n_y: int) -> tuple[float, float]:
    """Cell width and height used by emit_svg_heatmap for an n_x x n_y grid."""
    return SVG_PLOT_SIZE / n_x, SVG_PLOT_SIZE / n_y


def emit_svg_heatmap(records: list[SweepRecord],
                     value_column: str = "eta_sim") -> str:
    """Self-contained SVG heatmap of one record column over the sweep grid.

    x axis: kappa_s/kappa (left to right), y axis: g/(kappa_s+kappa)
    (bottom to top). Cells are laid out on the unique sorted axis values
    (-0.0 and 0.0 are one, labelled as first met); a cell drawn by several
    records takes the last one's value.
    """
    if value_column not in VALUE_COLUMNS:
        raise ConfigurationError(
            f"unknown value column {value_column!r}; choose from {sorted(VALUE_COLUMNS)}")
    if not records:
        raise ConfigurationError("cannot plot an empty record list")
    columns = dict(zip(SweepRecord._fields, zip(*records)))
    ks, gs = columns["kappa_s_over_kappa"], columns["g_over_sum"]
    xs, ys = sorted(set(ks)), sorted(set(gs))
    x_index, y_index = ({v: i for i, v in enumerate(axis)} for axis in (xs, ys))
    cell = (np.fromiter(map(x_index.__getitem__, ks), dtype=np.intp, count=len(ks)) * len(ys)
            + np.fromiter(map(y_index.__getitem__, gs), dtype=np.intp, count=len(gs)))
    # each cell i * len(ys) + j once, in (i, j) order, from its last record: its first reversed
    cells, last = np.unique(cell[::-1], return_index=True)
    values = np.array(columns[VALUE_COLUMNS[value_column]], dtype=float)[::-1][last]
    finite = np.isfinite(values)
    vmin = float(values[finite].min()) if finite.any() else 0.0
    vmax = float(values[finite].max()) if finite.any() else 1.0
    span = vmax - vmin
    with np.errstate(all="ignore"):
        t = np.full(len(values), 0.5) if span == 0 else (values - vmin) / span
    rgb = _color(np.concatenate([_KNOTS, t]))  # the legend's stops, then the cells
    rgb[len(_KNOTS):][~finite] = 0x88  # grey where the value is not finite
    hexes = rgb.tobytes().hex("#", 3).split("#")  # rrggbb per row, from one hex call
    cw, ch = svg_cell_geometry(len(xs), len(ys))
    width = SVG_MARGIN_LEFT + SVG_PLOT_SIZE + SVG_MARGIN_RIGHT
    height = SVG_MARGIN_TOP + SVG_PLOT_SIZE + SVG_MARGIN_BOTTOM
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        "<defs><linearGradient id=\"scale\" x1=\"0\" y1=\"1\" x2=\"0\" y2=\"0\">",
        *(f'<stop offset="{at}" stop-color="#{h}"/>' for (at, _), h in zip(_VIRIDIS, hexes)),
        "</linearGradient></defs>",
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    x_text = [f"{SVG_MARGIN_LEFT + i * cw:.2f}" for i in range(len(xs))]
    y_text = [f"{SVG_MARGIN_TOP + (len(ys) - 1 - i) * ch:.2f}" for i in range(len(ys))]
    size = f'width="{cw:.2f}" height="{ch:.2f}"'
    out += [f'<rect x="{x_text[i]}" y="{y_text[j]}" {size} fill="#{fill}"/>' for i, j, fill
            in zip(*(a.tolist() for a in np.divmod(cells, len(ys))), hexes[len(_KNOTS):])]
    # axes and legend
    x0, y0 = SVG_MARGIN_LEFT, SVG_MARGIN_TOP + SVG_PLOT_SIZE
    out.append(f'<text x="{x0 + SVG_PLOT_SIZE / 2:.0f}" y="{y0 + 40}" '
               'text-anchor="middle" font-size="14">kappa_s / kappa</text>')
    out.append(f'<text x="18" y="{SVG_MARGIN_TOP + SVG_PLOT_SIZE / 2:.0f}" '
               'text-anchor="middle" font-size="14" '
               f'transform="rotate(-90 18 {SVG_MARGIN_TOP + SVG_PLOT_SIZE / 2:.0f})">'
               'g / (kappa_s + kappa)</text>')
    for v, anchor, pos in ((xs[0], "start", x0), (xs[-1], "end", x0 + SVG_PLOT_SIZE)):
        out.append(f'<text x="{pos}" y="{y0 + 18}" text-anchor="{anchor}" '
                   f'font-size="12">{v:g}</text>')
    for v, ypix in ((ys[0], y0), (ys[-1], SVG_MARGIN_TOP + ch)):
        out.append(f'<text x="{x0 - 6}" y="{ypix:.0f}" text-anchor="end" '
                   f'font-size="12">{v:g}</text>')
    lx = SVG_MARGIN_LEFT + SVG_PLOT_SIZE + 25
    out.append(f'<rect x="{lx}" y="{SVG_MARGIN_TOP}" width="18" '
               f'height="{SVG_PLOT_SIZE}" fill="url(#scale)"/>')
    out.append(f'<text x="{lx + 24}" y="{SVG_MARGIN_TOP + 12}" '
               f'font-size="12">{vmax:.4g}</text>')
    out.append(f'<text x="{lx + 24}" y="{y0}" font-size="12">{vmin:.4g}</text>')
    out.append(f'<text x="{lx}" y="{SVG_MARGIN_TOP - 10}" '
               f'font-size="13">{value_column}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
