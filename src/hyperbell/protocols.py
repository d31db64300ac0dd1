"""Generation and complete analysis of the 16 hyperentangled Bell states.

The generation circuit splits each H-polarized input photon on a
circular splitter, runs the L rail through an error-heralded QD block
and the R rail through a matched waveform corrector, interferes the
rails on a beam splitter and repeats with a second QD arm (bare, its
polarization flip absorbed into the output labels). Measuring both
spins in the X basis then picks one of four polarization (x)
spatial-mode Bell products.

The analysis circuit records spatial parity on QD1 and, after a
beam-splitter basis change, spatial phase on QD2 (restoring the rails with
a second beam splitter); the remaining polarization Bell state is read out
by single-photon Bell-state measurements (SPBSM) assisted by the now-known
spatial state. Only stage 1, every op before the first spin measurement,
sees the cavity. _no_click runs it as a polynomial in (s, h) and keeps its
no-click branch, for the analyzer and for the generator's forms in
analysis. At a pair, run_hbsa_stage1 runs it through run_circuit_tracked,
as run_hbsg, which analysis.hbsg_branch_report reads, runs the whole
generation circuit. One rule, _hbsa_forms, gives any input its forms: it
runs stage 1 on the input as a polynomial and applies the fixed readout to
that branch: the SPBSM's matrices, then both spins' X basis, whose outcome
is the spatial state (hilbert._x_amplitudes), so each of the 64 (spin
outcome, detector pattern) branches keeps its amplitude as a polynomial.
Each h-degree layer of it is one monomial s^i h^k, so run_hbsa reads an
input's support, its nonzero branches, exact as stage 1 runs in Z[1/sqrt2]
(optics._run), as monomials: one value per nonzero layer, its
squared norms per branch, and the coefficients branch-major, so that one
batched product gives every kept amplitude. A label's support is derived
once and cached, the only per-label cache. These rules take the circuit
text; the readout table, cached per text, gives each branch its label, so
the classifier is one of its columns. Each local correction maps one Bell
product exactly onto another. run_hbsa returns HbsaBranch records,
NamedTuples: immutable, compared by value (a plain tuple of the same
values included) and copied with _replace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from functools import lru_cache
from itertools import compress, product, repeat
from typing import NamedTuple

import numpy as np

from .cavity import IDEAL_PAIR, ReflectionPair, _pair_amplitudes
from .errors import (
    ConfigurationError,
    InconsistentOutcomeError,
    NumericDomainError,
    PreconditionError,
)
from .hilbert import (
    _SQRT2,
    HybridState,
    StateLayout,
    _apply_photon_matrix,
    _path_slice,
    _x_amplitudes,
    apply_single_photon_op,
    overlap,  # bound here for perfbench's tracer; nothing here calls it
    product_state,
    spin_vector,
    zero_state,
)
from .optics import (
    Circuit,
    ElementKind,
    _compile,
    _ring_value,
    _run,
    _surviving,
    _weight,
    layer_s_degrees,
    monomial_support,
    parse_circuit,
    run_circuit_tracked,
)


class Bell(str, Enum):
    """Bell-state index, shared by the polarization and spatial-mode pairs."""

    PHI_PLUS = "phi+"
    PHI_MINUS = "phi-"
    PSI_PLUS = "psi+"
    PSI_MINUS = "psi-"


@dataclass(frozen=True)
class HyperBellLabel:
    """One of the 16 two-photon polarization (x) spatial-mode Bell products."""

    pol: Bell
    spatial: Bell

    def __str__(self):
        return f"{self.pol.value},{self.spatial.value}"


def all_labels() -> list[HyperBellLabel]:
    return [HyperBellLabel(p, s) for p in Bell for s in Bell]


def parse_label(text: str) -> HyperBellLabel:
    parts = text.split(",")
    if len(parts) != 2:
        raise ConfigurationError("label must be '<pol>,<spatial>' e.g. 'phi+,psi-'")
    try:
        return HyperBellLabel(Bell(parts[0].strip()), Bell(parts[1].strip()))
    except ValueError:
        raise ConfigurationError(
            f"unknown Bell index in {text!r}; use phi+ phi- psi+ psi-") from None


@dataclass(frozen=True)
class SpinOutcome:
    """X-basis results of the two QD spins."""

    e1: str  # "+" or "-"
    e2: str

    def __post_init__(self):
        if self.e1 not in ("+", "-") or self.e2 not in ("+", "-"):
            raise ConfigurationError("spin outcomes must be '+' or '-'")


@dataclass(frozen=True)
class DetectorPattern:
    """The label of the detector that fired for each photon; classify checks it."""

    a: str
    b: str


# ---------------------------------------------------------------------------
# Bell-state constructors

DEFAULT_RAILS = (("a1", "a2"), ("b1", "b2"))
_MIN_LAYOUT = StateLayout(photons=("A", "B"), paths=DEFAULT_RAILS)

# each Bell state's matrix, rows photon A's basis and columns photon B's, read-only
_BELL = dict(zip(Bell, np.array([((1, 0), (0, 1)), ((1, 0), (0, -1)), ((0, 1), (1, 0)),
                                 ((0, 1), (-1, 0))], dtype=complex) / _SQRT2))
for _bell in _BELL.values():
    _bell.flags.writeable = False


def make_bell(pol: Bell, spatial: Bell, layout: StateLayout = _MIN_LAYOUT,
              rails=DEFAULT_RAILS, spins=("+", "+")) -> HybridState:
    """Normalized product of a polarization and a spatial-mode Bell state.

    rails names the two distinct paths per photon carrying the spatial
    qubit; spins fixes the factored-out spin configuration.
    """
    try:
        pol, spatial = Bell(pol), Bell(spatial)
    except ValueError:
        raise ConfigurationError(f"pol and spatial must be Bells: {pol!r}, {spatial!r}") from None
    try:
        (a1, a2), (b1, b2) = rails
        spin_a, spin_b = map(spin_vector, spins)
    except (TypeError, ValueError):
        raise ConfigurationError("rails must name two paths per photon and spins two spin "
                                 f"states: {rails}, {spins!r}") from None
    if a1 == a2 or b1 == b2:
        raise ConfigurationError(f"a rail pair repeats a path: {rails}")
    ia, ib = ([layout.path_index(photon, p) for p in pair]
              for photon, pair in zip(layout.photons, rails))
    state = zero_state(layout)
    # the rail block, axes (railA, railB, polA, polB, s1, s2)
    state.amps[:, np.array(ia)[:, None], :, ib] = np.einsum(
        "xy,pq,s,t->xypqst", _BELL[spatial], _BELL[pol], spin_a, spin_b)
    return state


def _photon_factor(state: HybridState) -> np.ndarray:
    """Photonic factor of a photon (x) spin product state (unit vector)."""
    mat = state.amps.reshape(-1, 4)
    u, sv, _ = np.linalg.svd(mat, full_matrices=False)
    if sv[0] <= 0 or (sv.size > 1 and sv[1] > 1e-6 * sv[0]):
        raise PreconditionError("state does not factor into photons (x) spins")
    return u[:, 0]


# ---------------------------------------------------------------------------
# generation

HBSG_CIRCUIT_TEXT = """\
qd QD1 basis=+
qd QD2 basis=+
photon A paths=a1,a2,c1,c2
photon B paths=b1,b2,d1,d2
# split polarization onto the two rails: R to the 2 rail, L to the 1 rail
op cpbs photon=A in=a1 out=a1,a2
block mode=heralded qd=QD1 photon=A path=a1 label=D1A
op z photon=A path=a1
op wfc photon=A path=a2
op cpbs photon=B in=b1 out=b1,b2
block mode=heralded qd=QD1 photon=B path=b1 label=D1B
op z photon=B path=b1
op wfc photon=B path=b2
# rail interference
op bs photon=A in=a1,a2 out=c1,c2
op bs photon=B in=b1,b2 out=d1,d2
# second quantum-dot stage: bare arm, no trailing bit flip (the output
# labels absorb the polarization flip of the gate rail)
op hp photon=A path=c1
op qdarm photon=A path=c1 qd=QD2
op hp photon=A path=c1
op wfc photon=A path=c2
op hp photon=B path=d1
op qdarm photon=B path=d1 qd=QD2
op hp photon=B path=d1
op wfc photon=B path=d2
op measure_spin qd=QD1
op measure_spin qd=QD2
"""

#: spin outcomes -> generated hyperentangled state (output rails c/d)
HBSG_OUTPUT_TABLE = {
    ("+", "+"): HyperBellLabel(Bell.PHI_PLUS, Bell.PHI_PLUS),
    ("+", "-"): HyperBellLabel(Bell.PSI_MINUS, Bell.PSI_MINUS),
    ("-", "+"): HyperBellLabel(Bell.PSI_PLUS, Bell.PHI_MINUS),
    ("-", "-"): HyperBellLabel(Bell.PHI_MINUS, Bell.PSI_PLUS),
}

HBSG_OUTPUT_RAILS = (("c1", "c2"), ("d1", "d2"))


@lru_cache(maxsize=8)
def _parsed(text: str) -> Circuit:
    """The circuit of a text, parsed once per text."""
    return parse_circuit(text)


def _split_stage1(circuit: Circuit) -> tuple[Circuit, Circuit]:
    """A circuit's stage 1, every op before its first spin measurement,
    and its readout, the ops from there on."""
    kinds = [el.kind for el in circuit.ops]
    if ElementKind.MEASURE_SPIN not in kinds:
        raise ConfigurationError("circuit has no measure_spin, so no stage 1 to split off")
    at = kinds.index(ElementKind.MEASURE_SPIN)
    return replace(circuit, ops=circuit.ops[:at]), replace(circuit, ops=circuit.ops[at:])


def _no_click(circuit: Circuit, state: HybridState):
    """Stage 1 of a circuit run on a state over m, its largest amplitude magnitude (1 for a
    zero state), as a polynomial in (s, h), the runner's one polynomial entry: m, its no-click
    branch's ring coefficients (all zero if the runner dropped it) and its clicks, a list per
    detector label of the first clicks' ring coefficients. A basis input over m is +-1, so its
    coefficients are exact; _ring_value(c, m) makes them complex."""
    m = float(np.abs(state.amps).max()) or 1.0
    branches, clicks = _run(_split_stage1(circuit)[0], replace(state, amps=state.amps / m), None)
    return m, dict(branches).get((), np.zeros((1, 1, 2) + state.amps.shape, dtype=complex)), clicks


def hbsg_input(circuit: Circuit | None = None) -> HybridState:
    """Both photons H-polarized on the entry rails, spins as declared."""
    circuit = circuit or _parsed(HBSG_CIRCUIT_TEXT)
    return product_state(circuit.layout(), "H", "a1", "H", "b1",
                         *(qd.basis for qd in circuit.qds[:2]))


@dataclass(frozen=True)
class HbsgBranch:
    """One generation branch: spin results, herald clicks, collapsed and clean states."""

    spins: SpinOutcome
    heralds: tuple[str, ...]
    state: HybridState
    probability: float
    clean_weight: float
    leaked_weight: float
    clean_state: HybridState  # never leaked, unnormalized (TrackedBranch.clean_state)

    @property
    def label(self) -> HyperBellLabel | None:
        """Target hyperentangled state, None for heralded (discarded) branches."""
        if self.heralds:
            return None
        return HBSG_OUTPUT_TABLE[(self.spins.e1, self.spins.e2)]


def run_hbsg(pair: ReflectionPair = IDEAL_PAIR) -> list[HbsgBranch]:
    """The one per-pair generation run: every branch of the full generation circuit.

    Unheralded branches carry the four spin outcomes with probability
    |s|^8 / 4 each (s = (r_o - r_h)/2) and match HBSG_OUTPUT_TABLE.
    """
    circuit = _parsed(HBSG_CIRCUIT_TEXT)
    return [HbsgBranch(SpinOutcome(*map(tb.spin_results().get, ("QD1", "QD2"))), tb.heralds(),
                       tb.physical_state().normalized(), tb.probability, tb.clean_weight,
                       tb.leaked_weight, tb.clean_state())
            for tb in run_circuit_tracked(circuit, hbsg_input(circuit), pair).branches]


# ---------------------------------------------------------------------------
# local corrections

def apply_local_correction(state: HybridState, frm: HyperBellLabel,
                           to: HyperBellLabel, rails=DEFAULT_RAILS) -> HybridState:
    """Map make_bell(frm) to make_bell(to) with one operation on photon A.

    A Bell matrix B is 1/sqrt2 times a unitary, so 2 B_to B_from^H takes
    photon A's factor of B_from to B_to, in polarization and on the two
    rails. The result is make_bell(to) exactly (up to rounding), times
    the input's own phase.
    """
    norm = state.norm2
    if norm <= 0:
        raise PreconditionError("cannot correct a zero state")
    expected = make_bell(frm.pol, frm.spatial, state.layout, rails)
    # the overlap of the photonic factors, whatever the spins
    if abs(np.vdot(_photon_factor(expected), _photon_factor(state))) ** 2 < 1 - 1e-9:
        raise PreconditionError(f"input state is not the {frm} hyperentangled state")
    photon_a = state.layout.photons[0]
    ia = [state.layout.path_index(photon_a, p) for p in rails[0]]
    pol, rail = (2 * _BELL[t] @ _BELL[f].conj().T
                 for f, t in ((frm.pol, to.pol), (frm.spatial, to.spatial)))
    path = np.eye(len(state.layout.paths[0]), dtype=complex)
    path[np.ix_(ia, ia)] = rail
    return apply_single_photon_op(state, photon_a, np.kron(pol, path))


# ---------------------------------------------------------------------------
# analysis

HBSA_FULL_TEXT = """\
qd QD1 basis=+
qd QD2 basis=+
photon A paths=a1,a2,c1,c2,a1p,a1m,a2p,a2m
photon B paths=b1,b2,d1,d2,b1p,b1m,b2p,b2m
# stage 1: QD1 records spatial parity
block mode=parity qd=QD1 photon=A path=a1
op wfc photon=A path=a2
block mode=parity qd=QD1 photon=B path=b1
op wfc photon=B path=b2
# basis change: spatial phase becomes parity
op bs photon=A in=a1,a2 out=c1,c2
op bs photon=B in=b1,b2 out=d1,d2
# QD2 records it
block mode=parity qd=QD2 photon=A path=c1
op wfc photon=A path=c2
block mode=parity qd=QD2 photon=B path=d1
op wfc photon=B path=d2
# restore the original rails
op bs photon=A in=c1,c2 out=a1,a2
op bs photon=B in=d1,d2 out=b1,b2
# readout: both spins, then a single-photon Bell-state measurement (SPBSM)
# of each photon
op measure_spin qd=QD1
op measure_spin qd=QD2
op cpbs photon=A in=a1,a2 out=a1,a2
op pbs photon=A path=a1 out=a1p,a1m
op pbs photon=A path=a2 out=a2p,a2m
op detector photon=A path=a1p label=a1+
op detector photon=A path=a1m label=a1-
op detector photon=A path=a2p label=a2+
op detector photon=A path=a2m label=a2-
op cpbs photon=B in=b1,b2 out=b1,b2
op pbs photon=B path=b1 out=b1p,b1m
op pbs photon=B path=b2 out=b2p,b2m
op detector photon=B path=b1p label=b1+
op detector photon=B path=b1m label=b1-
op detector photon=B path=b2p label=b2+
op detector photon=B path=b2m label=b2-
"""

#: spin outcomes -> spatial-mode Bell state (parity from QD1, phase from QD2)
SPIN_TO_SPATIAL = {
    ("+", "+"): Bell.PHI_PLUS,
    ("+", "-"): Bell.PHI_MINUS,
    ("-", "+"): Bell.PSI_PLUS,
    ("-", "-"): Bell.PSI_MINUS,
}


def hbsa_layout() -> StateLayout:
    return _parsed(HBSA_FULL_TEXT).layout()


def hbsa_input(label: HyperBellLabel) -> HybridState:
    """One of the 16 basis states on the analysis layout, spins prepared +."""
    return make_bell(label.pol, label.spatial, hbsa_layout())


@dataclass(frozen=True)
class Stage1Result:
    """State after the spatial-mode recording stage, spins still unmeasured."""

    state: HybridState
    spins: SpinOutcome | None  # definite X-basis outcome, None if entangled
    clean_weight: float
    leaked_weight: float


def _definite_spins(state: HybridState) -> SpinOutcome | None:
    """The X-basis outcome of both spins that keeps all but 1e-12 of the
    state's weight, None if there is none."""
    total, x = state.norm2, _x_amplitudes(state.amps)
    for (i, e1), (j, e2) in product(enumerate("+-"), repeat=2):
        if _weight(x[..., i, j]) > total - 1e-12 * total:
            return SpinOutcome(e1, e2)
    return None


def run_hbsa_stage1(state: HybridState,
                    pair: ReflectionPair = IDEAL_PAIR) -> Stage1Result:
    """Record spatial parity on QD1 and spatial phase on QD2.

    The photonic state is returned unchanged (exactly, for the unleaked
    component); for each basis input the two spins end in the definite
    X-basis states given by SPIN_TO_SPATIAL. Stage 1 measures nothing, so its
    one branch of run_circuit_tracked is kept at every pair; at r_o = r_h = 0 it is zero.
    """
    (tb,) = run_circuit_tracked(_split_stage1(_parsed(HBSA_FULL_TEXT))[0], state, pair).branches
    out = tb.physical_state()
    return Stage1Result(
        state=out,
        spins=_definite_spins(out),
        clean_weight=tb.clean_weight,
        leaked_weight=tb.leaked_weight,
    )


# ---------------------------------------------------------------------------
# readout and classifier

@lru_cache(maxsize=4)
def _readout(text: str):
    """The readout table, an analysis circuit text from its first spin measurement on.

    Returns its passive matrices as (photon slot, matrix), fused per
    photon as _compile emits them, and one row (spin outcome, detector
    pattern, photon A's detector slice, photon B's, label) per readout
    branch, in the record order of run_circuit_tracked on the whole circuit:
    QD1, QD2, then photon A's detectors and photon B's in circuit order.
    A row's label is the one basis input with amplitude on it, each input
    taken with the spins that SPIN_TO_SPATIAL gives its spatial state, as
    stage 1 leaves them; none or several is an InconsistentOutcomeError.
    It reads the readout only as _compile's actions, and projects two spin
    slots: a readout that holds a qdarm or wfc, applies a passive op after one
    of that photon's detectors or does not measure spin slots 0 and 1 once each
    (so a text that declares one QD) is a ConfigurationError.
    """
    full = _parsed(text)
    detectors, matrices, slots = ([], []), [], []
    for kind, slot, *rest in _compile(_split_stage1(full)[1])[1]:
        if kind in ("qdarm", "wfc"):
            raise ConfigurationError("analysis readout holds a qdarm or wfc")
        if kind == "spin":
            slots.append(slot)
        elif kind == "detector":
            path_idx, pol, label = rest
            detectors[slot].append((label, _path_slice(slot, path_idx, pol)))
        elif detectors[slot]:
            raise ConfigurationError("analysis readout: a photon's passive op follows its detector")
        else:
            matrices.append((slot, *rest))
    if sorted(slots) != [0, 1]:
        raise ConfigurationError("analysis readout must measure each of two declared QDs once")
    rows = [(SpinOutcome(e1, e2), DetectorPattern(a, b), on_a, on_b)
            for e1, e2 in product("+-", repeat=2)
            for (a, on_a), (b, on_b) in product(*detectors)]
    labels = all_labels()
    spins = {spatial: key for key, spatial in SPIN_TO_SPATIAL.items()}
    amps = np.stack([make_bell(label.pol, label.spatial, full.layout(),
                               spins=spins[label.spatial]).amps for label in labels])
    reached = np.linalg.norm(_read_out(amps, (matrices, rows)), axis=-1) > 1e-9  # [input, row]
    if (reached.sum(axis=0) != 1).any():
        raise InconsistentOutcomeError("a readout branch has no basis input or several")
    return matrices, [row + (labels[i],) for row, i in zip(rows, reached.argmax(axis=0))]


def _read_out(amps: np.ndarray, readout) -> np.ndarray:
    """The amplitudes [..., row, polA * polB] of each row of a readout table, as
    _readout returns it, on amplitudes [..., *state axes] of its text's layout."""
    matrices, rows = readout
    for slot, mat in matrices:
        amps = _apply_photon_matrix(amps, slot, mat)
    x = _x_amplitudes(amps)
    out = np.stack([x[on_a][on_b][..., "+-".index(spins.e1), "+-".index(spins.e2)]
                    for spins, _, on_a, on_b, *_ in rows], axis=-3)
    return out.reshape(out.shape[:-2] + (4,))


def classify(spins: SpinOutcome, pattern: DetectorPattern) -> HyperBellLabel:
    """Identify the analyzed hyperentangled state from the spin outcomes (spatial-mode
    index) and the detector pattern (polarization index, resolved with the known
    spatial state). A pattern that the readout table lacks is a ConfigurationError."""
    for s, p, label in classification_table():
        if (s, p) == (spins, pattern):
            return label
    raise ConfigurationError(f"invalid detector pattern ({pattern.a}, {pattern.b})")


def classification_table() -> list[tuple[SpinOutcome, DetectorPattern, HyperBellLabel]]:
    """Full (spins x pattern) -> label map, 64 rows, one per readout branch."""
    return [(spins, pattern, label) for spins, pattern, *_, label in _readout(HBSA_FULL_TEXT)[1]]


# ---------------------------------------------------------------------------
# full analysis pipeline

class HbsaBranch(NamedTuple):
    """One analysis branch: spin results, detector pattern, classification.

    probability is the squared norm of the summed leak layers,
    ||sum of layers||^2; clean_weight and leaked_weight are layer norms,
    ||layer 0||^2 and the sum of ||layer k||^2 over k >= 1, as on a
    TrackedBranch. The layers interfere, so probability is in general not
    clean_weight + leaked_weight.
    """

    spins: SpinOutcome
    pattern: DetectorPattern
    probability: float
    classified: HyperBellLabel
    clean_weight: float
    leaked_weight: float


_SPAN_TOL = 1e-12  # share of a state input's squared norm allowed outside that span


def _hbsa_forms(state: HybridState, text: str) -> np.ndarray:
    """Amplitudes of every readout branch of a state input to an analysis
    text, as polynomials in (s, h): [s-degree, h-degree, branch, polA * polB],
    a runner coefficient array with the branches as its state axes.

    Stage 1 is the only part of the analysis that sees the cavity, so it runs
    once as a polynomial, and the readout acts on the ring coefficients of its
    no-click branch; they become complex once, at the end, so a basis input's
    forms are exact up to the one rounding of that collapse, and exact zeros stay zero.
    """
    m, c, _ = _no_click(_parsed(text), state)
    readout = _readout(text)
    mask, _ = monomial_support(c)  # the readout acts on its nonzero monomials only
    forms = np.zeros(c.shape[:3] + (len(readout[1]), 4), dtype=complex)
    forms[mask] = _read_out(c[mask], readout)
    return _ring_value(forms, m)


@lru_cache(maxsize=64)
def _hbsa_support(label: HyperBellLabel, text: str) -> tuple:
    """The support of one basis input's forms, derived once; the forms are
    not kept."""
    state = make_bell(label.pol, label.spatial, _parsed(text).layout())
    return _support(_hbsa_forms(state, text), text)


def _support(forms: np.ndarray, text: str) -> tuple:
    """What run_hbsa reads of forms [s, h, branch, pol] on their nonzero branches and
    layers, layer 0 always kept, read-only: each such h-degree layer's one monomial (i, k),
    s^i h^k (layer_s_degrees; i + k = 4 on every analysis input), the squared norms
    [layer, branch] of its coefficients and the coefficients branch-major, [branch, layer,
    pol] and C-contiguous; and the spins, patterns and labels of the readout table."""
    mask, rows = monomial_support(forms)
    k = np.flatnonzero(mask.any(axis=0) | (np.arange(forms.shape[1]) == 0))
    i = layer_s_degrees(forms)[k]
    coef = forms[i, k, rows[:, None]]
    norms = np.ascontiguousarray((coef.real ** 2 + coef.imag ** 2).sum(axis=2).T)
    norms.flags.writeable = coef.flags.writeable = False
    table = _readout(text)[1]
    return (tuple(zip(i.tolist(), k.tolist())), norms, coef,
            *(tuple(table[b][column] for b in rows) for column in (0, 1, -1)))


def run_hbsa(state_or_label, pair: ReflectionPair = IDEAL_PAIR) -> list[HbsaBranch]:
    """Run stage 1, measure both spins, and perform the SPBSM readout.

    The input's support (_support, cut at exact zeros only) is read as
    monomials: each layer's value v = s^i h^k, one Python complex, weighs
    |v|^2 times the layer's squared norms. The runner's drop rule
    (optics._surviving) then applies: a branch's trailing leak layers
    below the drop threshold go, and the branch is kept iff the rest weighs
    more. One batched product of each branch's masked v with its
    coefficients [layer, pol] gives the branch amplitudes, and a float view
    of them the probabilities. A label's support is derived once; a state
    input must lie in the span of the 16 basis inputs, and each call runs
    its stage 1 afresh. Any other input, or a pair but a ReflectionPair of two numbers, is a
    ConfigurationError, and a pair at which the evaluation overflows a NumericDomainError.
    """
    if isinstance(state_or_label, HyperBellLabel):
        support = _hbsa_support(state_or_label, HBSA_FULL_TEXT)
    elif isinstance(state_or_label, HybridState):
        forms, amps = _hbsa_forms(state_or_label, HBSA_FULL_TEXT), state_or_label.amps.ravel()
        basis = np.stack([hbsa_input(label).amps.ravel() for label in all_labels()])
        if _weight(amps - (basis.conj() @ amps) @ basis) > _SPAN_TOL * state_or_label.norm2:
            raise ConfigurationError(
                "input state is not a superposition of the 16 analysis basis inputs")
        support = _support(forms, HBSA_FULL_TEXT)
    else:
        raise ConfigurationError("run_hbsa takes a HyperBellLabel or a HybridState, "
                                 f"not {type(state_or_label).__name__}")
    monomials, norms, coef, spins, patterns, classified = support
    s, h = _pair_amplitudes(pair, "run_hbsa")
    try:
        v = [s ** i * h ** k for i, k in monomials]
        squares = [x.real * x.real + x.imag * x.imag for x in v]  # |v|^2 per layer
        if not all(map(math.isfinite, squares)):  # bounded in Python, before NumPy can warn
            raise OverflowError
    except OverflowError:
        raise NumericDomainError(f"run_hbsa overflows at {pair}") from None
    weights = np.array(squares)[:, None] * norms  # [h-degree, branch]
    kept, clean, leaked, live = _surviving(weights)
    amps = (kept.T * np.array(v))[:, None, :] @ coef  # [branch, 1, pol]
    re_im = amps.view(float)  # [branch, 1, re and im of each pol]
    probability = (re_im @ re_im.swapaxes(1, 2)).ravel().tolist()
    clean, leaked = clean.tolist(), leaked.tolist()
    if not math.isfinite(sum(probability) + sum(clean) + sum(leaked)):  # inf or nan on overflow
        raise NumericDomainError(f"run_hbsa overflows at {pair}")
    rows = zip(spins, patterns, probability, classified, clean, leaked)
    return list(map(tuple.__new__, repeat(HbsaBranch), compress(rows, live.tolist())))
