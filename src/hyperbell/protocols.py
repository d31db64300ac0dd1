"""Generation and complete analysis of the 16 hyperentangled Bell states.

The generation circuit splits each H-polarized input photon on a
circular splitter, runs the L rail through an error-heralded QD block
and the R rail through a matched waveform corrector, interferes the
rails on a beam splitter and repeats with a second QD arm (bare, its
polarization flip absorbed into the output labels). Measuring both
spins in the X basis then picks one of four polarization (x)
spatial-mode Bell products.

The analysis circuit records spatial parity on QD1 and, after a
beam-splitter basis change, spatial phase on QD2 (restoring the rails
with a second beam splitter); the remaining polarization Bell state is
read out by single-photon Bell-state measurements (SPBSM) assisted by
the now-known spatial state.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from functools import lru_cache

import numpy as np

from .cavity import IDEAL_PAIR, ReflectionPair
from .errors import ConfigurationError, InconsistentOutcomeError, PreconditionError
from .hilbert import (
    _HADAMARD,
    _SQRT2,
    HybridState,
    StateLayout,
    apply_single_photon_op,
    overlap,
    product_state,
    spin_vector,
    zero_state,
)
from .optics import (
    Circuit,
    ElementKind,
    TrackedBranch,
    initial_spins,
    parse_circuit,
    run_circuit_tracked,
)


class Bell(str, Enum):
    """Bell-state index, shared by the polarization and spatial-mode pairs."""

    PHI_PLUS = "phi+"
    PHI_MINUS = "phi-"
    PSI_PLUS = "psi+"
    PSI_MINUS = "psi-"

    @property
    def is_psi(self) -> bool:
        return self in (Bell.PSI_PLUS, Bell.PSI_MINUS)

    @property
    def is_minus(self) -> bool:
        return self in (Bell.PHI_MINUS, Bell.PSI_MINUS)


BELL_ORDER = (Bell.PHI_PLUS, Bell.PHI_MINUS, Bell.PSI_PLUS, Bell.PSI_MINUS)


@dataclass(frozen=True)
class HyperBellLabel:
    """One of the 16 two-photon polarization (x) spatial-mode Bell products."""

    pol: Bell
    spatial: Bell

    def __str__(self):
        return f"{self.pol.value},{self.spatial.value}"


def all_labels() -> list[HyperBellLabel]:
    return [HyperBellLabel(p, s) for p in BELL_ORDER for s in BELL_ORDER]


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


_DETECTOR_NAMES_A = ("a1+", "a1-", "a2+", "a2-")
_DETECTOR_NAMES_B = ("b1+", "b1-", "b2+", "b2-")


@dataclass(frozen=True)
class DetectorPattern:
    """Which single-photon detector fired for each photon."""

    a: str
    b: str

    def __post_init__(self):
        if self.a not in _DETECTOR_NAMES_A or self.b not in _DETECTOR_NAMES_B:
            raise ConfigurationError(f"invalid detector pattern ({self.a}, {self.b})")


# ---------------------------------------------------------------------------
# Bell-state constructors

DEFAULT_RAILS = (("a1", "a2"), ("b1", "b2"))
_MIN_LAYOUT = StateLayout(photons=("A", "B"), paths=(("a1", "a2"), ("b1", "b2")))


def _bell_matrix(index: Bell) -> np.ndarray:
    m = np.zeros((2, 2), dtype=complex)
    sign = -1.0 if index.is_minus else 1.0
    if index.is_psi:
        m[0, 1] = 1.0
        m[1, 0] = sign
    else:
        m[0, 0] = 1.0
        m[1, 1] = sign
    return m / _SQRT2


def make_bell(pol: Bell, spatial: Bell, layout: StateLayout = _MIN_LAYOUT,
              rails=DEFAULT_RAILS, spins=("+", "+")) -> HybridState:
    """Normalized product of a polarization and a spatial-mode Bell state.

    rails names the dual-rail path pair per photon carrying the spatial
    qubit; spins fixes the factored-out spin configuration.
    """
    pol_m = _bell_matrix(pol)
    spat_m = _bell_matrix(spatial)
    ia = [layout.path_index(layout.photons[0], p) for p in rails[0]]
    ib = [layout.path_index(layout.photons[1], p) for p in rails[1]]
    state = zero_state(layout)
    s1 = spin_vector(spins[0])
    s2 = spin_vector(spins[1])
    for xa in (0, 1):
        for xb in (0, 1):
            if spat_m[xa, xb] == 0:
                continue
            state.amps[:, ia[xa], :, ib[xb]] += np.einsum(
                "pq,s,t->pqst", pol_m * spat_m[xa, xb], s1, s2)
    return state


def label_of_state(state: HybridState, rails=DEFAULT_RAILS,
                   tol: float = 1e-9) -> HyperBellLabel:
    """Invert make_bell: find the unique label with unit photonic fidelity."""
    for label in all_labels():
        target = make_bell(label.pol, label.spatial, state.layout, rails)
        if abs(_photon_overlap(target, state)) > 1 - tol:
            return label
    raise ConfigurationError("state is not one of the 16 hyperentangled Bell products")


def _photon_factor(state: HybridState) -> np.ndarray:
    """Photonic factor of a photon (x) spin product state (unit vector)."""
    mat = state.amps.reshape(-1, 4)
    u, sv, _ = np.linalg.svd(mat, full_matrices=False)
    if sv[0] <= 0 or (sv.size > 1 and sv[1] > 1e-6 * sv[0]):
        raise PreconditionError("state does not factor into photons (x) spins")
    return u[:, 0]


def _photon_overlap(a: HybridState, b: HybridState) -> complex:
    """Overlap of photonic factors, ignoring the spin configuration."""
    return complex(np.vdot(_photon_factor(a), _photon_factor(b)))


# ---------------------------------------------------------------------------
# generation

_HBSG_DECLS = """\
qd QD1 basis=+
qd QD2 basis=+
photon A paths=a1,a2,c1,c2
photon B paths=b1,b2,d1,d2
"""

HBSG_CIRCUIT_TEXT = _HBSG_DECLS + """\
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


@lru_cache(maxsize=1)
def hbsg_circuit() -> Circuit:
    return parse_circuit(HBSG_CIRCUIT_TEXT)


@lru_cache(maxsize=1)
def hbsg_circuit_premeasure() -> Circuit:
    """Generation circuit truncated before the spin measurements."""
    full = hbsg_circuit()
    ops = tuple(el for el in full.ops if el.kind != ElementKind.MEASURE_SPIN)
    return replace(full, ops=ops)


def hbsg_input(circuit: Circuit | None = None) -> HybridState:
    """Both photons H-polarized on the entry rails, spins as declared."""
    circuit = circuit or hbsg_circuit()
    spin1, spin2 = initial_spins(circuit)
    return product_state(circuit.layout(), "H", "a1", "H", "b1", spin1, spin2)


@dataclass(frozen=True)
class HbsgBranch:
    """One generation branch: spin results, herald clicks, collapsed state."""

    spins: SpinOutcome
    heralds: tuple[str, ...]
    state: HybridState
    probability: float
    clean_weight: float
    leaked_weight: float

    @property
    def label(self) -> HyperBellLabel | None:
        """Target hyperentangled state, None for heralded (discarded) branches."""
        if self.heralds:
            return None
        return HBSG_OUTPUT_TABLE[(self.spins.e1, self.spins.e2)]


def _branch_from_tracked(tb: TrackedBranch) -> HbsgBranch:
    spins = tb.spin_results()
    return HbsgBranch(
        spins=SpinOutcome(spins["QD1"], spins["QD2"]),
        heralds=tb.heralds(),
        state=tb.physical_state().normalized(),
        probability=tb.probability,
        clean_weight=tb.clean_weight,
        leaked_weight=tb.leaked_weight,
    )


def run_hbsg(pair: ReflectionPair = IDEAL_PAIR) -> list[HbsgBranch]:
    """Run the full generation circuit and return every branch.

    Unheralded branches carry the four spin outcomes with probability
    |s|^8 / 4 each (s = (r_o - r_h)/2) and match HBSG_OUTPUT_TABLE.
    """
    circuit = hbsg_circuit()
    run = run_circuit_tracked(circuit, hbsg_input(circuit), pair)
    return [_branch_from_tracked(tb) for tb in run.branches]


# ---------------------------------------------------------------------------
# local corrections

def _pauli_ops_for(frm: Bell, to: Bell) -> tuple[bool, bool]:
    """(need bit flip, need sign flip) to move one Bell index to another."""
    return (frm.is_psi != to.is_psi, frm.is_minus != to.is_minus)


def apply_local_correction(state: HybridState, frm: HyperBellLabel,
                           to: HyperBellLabel, rails=DEFAULT_RAILS) -> HybridState:
    """Map make_bell(frm) to make_bell(to) with photon-A wave plates and
    path operations (bit/phase flips in polarization; rail swap / rail-2
    pi phase in the spatial mode). The result matches the target up to a
    global phase.
    """
    norm = state.norm2
    if norm <= 0:
        raise PreconditionError("cannot correct a zero state")
    expected = make_bell(frm.pol, frm.spatial, state.layout, rails)
    if abs(_photon_overlap(expected, state)) ** 2 < 1 - 1e-9:
        raise PreconditionError(f"input state is not the {frm} hyperentangled state")
    photon_a = state.layout.photons[0]
    n = len(state.layout.paths[0])
    ia = [state.layout.path_index(photon_a, p) for p in rails[0]]
    flip_bit, flip_sign = _pauli_ops_for(frm.pol, to.pol)
    pol = np.eye(2, dtype=complex)
    if flip_sign:
        pol = np.diag([1.0, -1.0]).astype(complex) @ pol
    if flip_bit:
        pol = np.array([[0, 1], [1, 0]], dtype=complex) @ pol
    out = apply_single_photon_op(state, photon_a, np.kron(pol, np.eye(n, dtype=complex)))
    flip_bit, flip_sign = _pauli_ops_for(frm.spatial, to.spatial)
    path = np.eye(n, dtype=complex)
    if flip_sign:
        path[ia[1], ia[1]] = -1.0
    if flip_bit:
        swap = np.eye(n, dtype=complex)
        swap[ia[0], ia[0]] = swap[ia[1], ia[1]] = 0.0
        swap[ia[0], ia[1]] = swap[ia[1], ia[0]] = 1.0
        path = swap @ path
    return apply_single_photon_op(out, photon_a, np.kron(np.eye(2, dtype=complex), path))


# ---------------------------------------------------------------------------
# analysis

_HBSA_DECLS = """\
qd QD1 basis=+
qd QD2 basis=+
photon A paths=a1,a2,c1,c2,a1p,a1m,a2p,a2m
photon B paths=b1,b2,d1,d2,b1p,b1m,b2p,b2m
"""

_HBSA_STAGE1_OPS = """\
# QD1 records spatial parity
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
"""

_SPBSM_OPS = """\
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

HBSA_STAGE1_TEXT = _HBSA_DECLS + _HBSA_STAGE1_OPS
SPBSM_TEXT = _HBSA_DECLS + _SPBSM_OPS
HBSA_FULL_TEXT = (_HBSA_DECLS + _HBSA_STAGE1_OPS
                  + "op measure_spin qd=QD1\nop measure_spin qd=QD2\n" + _SPBSM_OPS)

#: spin outcomes -> spatial-mode Bell state (parity from QD1, phase from QD2)
SPIN_TO_SPATIAL = {
    ("+", "+"): Bell.PHI_PLUS,
    ("+", "-"): Bell.PHI_MINUS,
    ("-", "+"): Bell.PSI_PLUS,
    ("-", "-"): Bell.PSI_MINUS,
}


@lru_cache(maxsize=1)
def hbsa_stage1_circuit() -> Circuit:
    return parse_circuit(HBSA_STAGE1_TEXT)


@lru_cache(maxsize=1)
def spbsm_circuit() -> Circuit:
    return parse_circuit(SPBSM_TEXT)


@lru_cache(maxsize=1)
def hbsa_full_circuit() -> Circuit:
    return parse_circuit(HBSA_FULL_TEXT)


def hbsa_layout() -> StateLayout:
    return hbsa_stage1_circuit().layout()


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
    signs = []
    x_amps = np.tensordot(_HADAMARD, np.tensordot(_HADAMARD, state.amps, axes=([1], [4])),
                          axes=([1], [5]))
    # axes now: (spin2_x, spin1_x, polA, pathA, polB, pathB) after two tensordots
    w2 = np.sum(np.abs(x_amps) ** 2, axis=(1, 2, 3, 4, 5))
    w1 = np.sum(np.abs(x_amps) ** 2, axis=(0, 2, 3, 4, 5))
    total = float(np.sum(w1))
    for w in (w1, w2):
        if w[0] > total - 1e-12 * total:
            signs.append("+")
        elif w[1] > total - 1e-12 * total:
            signs.append("-")
        else:
            return None
    return SpinOutcome(signs[0], signs[1])


def run_hbsa_stage1(state: HybridState,
                    pair: ReflectionPair = IDEAL_PAIR) -> Stage1Result:
    """Record spatial parity on QD1 and spatial phase on QD2.

    The photonic state is returned unchanged (exactly, for the unleaked
    component); for each basis input the two spins end in the definite
    X-basis states given by SPIN_TO_SPATIAL.
    """
    branches = run_circuit_tracked(hbsa_stage1_circuit(), state, pair).branches
    if len(branches) != 1:
        raise ConfigurationError("stage 1 contains no measurement and cannot branch")
    tb = branches[0]
    out = tb.physical_state()
    return Stage1Result(
        state=out,
        spins=_definite_spins(out),
        clean_weight=tb.clean_weight,
        leaked_weight=tb.leaked_weight,
    )


def run_spbsm(state: HybridState) -> list[tuple[DetectorPattern, float]]:
    """Single-photon Bell-state measurement of both photons.

    Requires the spins to be already measured / disentangled. Each branch
    fires exactly one detector per photon; the mapping is phi+- <-> x1+-
    and psi+- <-> x2+-.
    """
    results = []
    for tb in run_circuit_tracked(spbsm_circuit(), state, IDEAL_PAIR).branches:
        pattern = _pattern_from_record(tb.record)
        results.append((pattern, tb.probability))
    return results


def _pattern_from_record(record) -> DetectorPattern:
    a_click = [name for name, out in record if out == "click" and name.startswith("a")]
    b_click = [name for name, out in record if out == "click" and name.startswith("b")]
    if len(a_click) != 1 or len(b_click) != 1:
        raise InconsistentOutcomeError(f"malformed detector record {record}")
    return DetectorPattern(a_click[0], b_click[0])


# ---------------------------------------------------------------------------
# classifier

def _single_photon_bell(port: int, minus: bool) -> tuple[tuple, tuple]:
    """Amplitude entries ((pol, rail_slot, amp), ...) of one single-photon
    Bell state: port 1 = (R x2 +- L x1)/sqrt2, port 2 = (R x1 +- L x2)/sqrt2."""
    sign = -1.0 if minus else 1.0
    if port == 1:
        return ((0, 1, 1 / _SQRT2), (1, 0, sign / _SQRT2))
    return ((0, 0, 1 / _SQRT2), (1, 1, sign / _SQRT2))


def _detector_bell(name: str) -> tuple[int, bool]:
    return int(name[1]), name.endswith("-")


@lru_cache(maxsize=1)
def _pattern_table() -> dict:
    """Map (spatial Bell, detector pattern) -> polarization Bell.

    Derived by expanding each hyperentangled basis state in the
    single-photon Bell bases of the two photons; a pattern belongs to a
    (pol, spatial) pair iff the corresponding expansion amplitude is
    nonzero.
    """
    table = {}
    for label in all_labels():
        state = make_bell(label.pol, label.spatial)
        for da in _DETECTOR_NAMES_A:
            for db in _DETECTOR_NAMES_B:
                # spins are (+,+): the (up, up) slice holds half the amplitude
                amp = 0.0
                for pa, xa, ca in _single_photon_bell(*_detector_bell(da)):
                    for pb, xb, cb in _single_photon_bell(*_detector_bell(db)):
                        amp += np.conj(ca * cb) * state.amps[pa, xa, pb, xb, 0, 0] * 2.0
                if abs(amp) > 1e-9:
                    key = (label.spatial, da, db)
                    if key in table and table[key] != label.pol:
                        raise InconsistentOutcomeError(
                            f"pattern {key} is ambiguous: {table[key]} vs {label.pol}")
                    table[key] = label.pol
    return table


def classify(spins: SpinOutcome, pattern: DetectorPattern) -> HyperBellLabel:
    """Identify the analyzed hyperentangled state from the spin outcomes
    (spatial-mode index) and the detector pattern (polarization index,
    resolved with the help of the known spatial state)."""
    spatial = SPIN_TO_SPATIAL[(spins.e1, spins.e2)]
    try:
        pol = _pattern_table()[(spatial, pattern.a, pattern.b)]
    except KeyError:
        raise InconsistentOutcomeError(
            f"no basis input produces spins ({spins.e1},{spins.e2}) "
            f"with pattern ({pattern.a},{pattern.b})") from None
    return HyperBellLabel(pol, spatial)


def classification_table() -> list[tuple[SpinOutcome, DetectorPattern, HyperBellLabel]]:
    """Full (spins x pattern) -> label map, 64 rows."""
    rows = []
    for (e1, e2) in (("+", "+"), ("+", "-"), ("-", "+"), ("-", "-")):
        spins = SpinOutcome(e1, e2)
        for da in _DETECTOR_NAMES_A:
            for db in _DETECTOR_NAMES_B:
                pattern = DetectorPattern(da, db)
                rows.append((spins, pattern, classify(spins, pattern)))
    return rows


# ---------------------------------------------------------------------------
# full analysis pipeline

@dataclass(frozen=True)
class HbsaBranch:
    """One analysis branch: spin results, detector pattern, classification."""

    spins: SpinOutcome
    pattern: DetectorPattern
    probability: float
    classified: HyperBellLabel
    clean_weight: float
    leaked_weight: float


def run_hbsa(state_or_label, pair: ReflectionPair = IDEAL_PAIR) -> list[HbsaBranch]:
    """Run stage 1, measure both spins, and perform the SPBSM readout."""
    if isinstance(state_or_label, HyperBellLabel):
        state = hbsa_input(state_or_label)
    else:
        state = state_or_label
    branches = []
    for tb in run_circuit_tracked(hbsa_full_circuit(), state, pair).branches:
        spins = tb.spin_results()
        outcome = SpinOutcome(spins["QD1"], spins["QD2"])
        pattern = _pattern_from_record(tb.record)
        branches.append(HbsaBranch(
            spins=outcome,
            pattern=pattern,
            probability=tb.probability,
            classified=classify(outcome, pattern),
            clean_weight=tb.clean_weight,
            leaked_weight=tb.leaked_weight,
        ))
    return branches
