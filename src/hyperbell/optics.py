"""Optical element library, circuit container, parser and runner.

Elements act on a HybridState through their single-photon matrices; the
quantum-dot arm (qdarm) is the one element that couples a photon to a
spin. Circuits are immutable after parsing and run_circuit is a pure
function of (circuit, input, pair). The pair enters only through
s = (r_o - r_h)/2 and h = (r_o + r_h)/2 at qdarm and wfc, so
run_circuit_polynomial can run a circuit once for every pair.

Circuit file format (UTF-8, line oriented, ``#`` comments)::

    qd <ID> basis=+|-
    photon <ID> paths=<p1>,<p2>[,...]
    op <kind> [photon=<ID>] [path=<p>] [in=<p1>[,<p2>]] [out=<p1>,<p2>]
              [qd=<ID>] [label=<detector-label>]
    block mode=heralded|parity qd=<ID> photon=<ID> path=<p> [label=<det>]

Element kinds: cpbs, pbs, bs, hp, z, wfc, qdarm, detector, measure_spin.
The ``block`` macro expands into primitives; in heralded mode it adds an
implicit herald path (named after the detector label) to the photon.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .cavity import IDEAL_PAIR, ReflectionPair
from .errors import ConfigurationError
from .hilbert import (
    _HADAMARD,
    BranchOutcome,
    HybridState,
    StateLayout,
    _apply_photon_matrix,
    _apply_polspin_at_path,
    _apply_spin_matrix,
    _path_slice,
    _project_path,
)

_PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
_PROJ_H = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)   # |H><H| in R/L
_PROJ_V = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)  # |V><V| in R/L
# qdarm success component: pol sigma_z (x) spin sigma_z in {R up, R down, L up, L down}
_SUCC4 = np.diag([1.0, -1.0, -1.0, 1.0]).astype(complex)
# X-basis spin projectors, one per measurement outcome
_SPIN_X_PROJ = {
    "+": np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex),
    "-": np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex),
}

_BRANCH_DROP = 1e-26  # squared-norm threshold below which a branch is discarded


class ElementKind(str, Enum):
    CPBS = "cpbs"
    PBS = "pbs"
    BS = "bs"
    HP = "hp"
    Z = "z"
    WFC = "wfc"
    QDARM = "qdarm"
    DETECTOR = "detector"
    MEASURE_SPIN = "measure_spin"


PASSIVE_KINDS = (ElementKind.CPBS, ElementKind.PBS, ElementKind.BS,
                 ElementKind.HP, ElementKind.Z)


@dataclass(frozen=True)
class Element:
    kind: ElementKind
    photon: str | None = None
    path: str | None = None
    in_paths: tuple[str, ...] | None = None
    out_paths: tuple[str, ...] | None = None
    qd: str | None = None
    label: str | None = None


@dataclass(frozen=True)
class QDDecl:
    name: str
    basis: str  # "+" or "-"


@dataclass(frozen=True)
class PhotonDecl:
    name: str
    paths: tuple[str, ...]


@dataclass(frozen=True)
class Circuit:
    qds: tuple[QDDecl, ...] = ()
    photons: tuple[PhotonDecl, ...] = ()
    ops: tuple[Element, ...] = ()

    def layout(self) -> StateLayout:
        if len(self.photons) != 2:
            raise ConfigurationError("circuit must declare exactly two photons")
        return StateLayout(
            photons=(self.photons[0].name, self.photons[1].name),
            paths=(self.photons[0].paths, self.photons[1].paths),
        )

    def qd_slot(self, name: str) -> int:
        """Spin slot (0 or 1) of a declared QD."""
        for i, qd in enumerate(self.qds):
            if qd.name == name:
                if i > 1:
                    raise ConfigurationError("at most two QDs are supported")
                return i
        raise ConfigurationError(f"unknown QD {name!r}")


# ---------------------------------------------------------------------------
# element matrices

def _complete_permutation(n: int, moves: dict[int, int]) -> np.ndarray:
    """Permutation matrix extending a partial index map.

    Indices appearing in neither sources nor targets stay fixed; leftover
    sources are paired with leftover targets in index order.
    """
    if len(set(moves.values())) != len(moves):
        raise ConfigurationError("routing maps two inputs to one output")
    perm = {}
    srcs, dsts = set(moves), set(moves.values())
    for s, d in moves.items():
        perm[s] = d
    for i in range(n):
        if i not in srcs and i not in dsts:
            perm[i] = i
    leftover_src = sorted(i for i in range(n) if i not in perm)
    leftover_dst = sorted(i for i in range(n) if i not in perm.values())
    for s, d in zip(leftover_src, leftover_dst):
        perm[s] = d
    mat = np.zeros((n, n), dtype=complex)
    for s, d in perm.items():
        mat[d, s] = 1.0
    return mat


def _pol_block_at_path(n: int, idx: int, mat2: np.ndarray) -> np.ndarray:
    """Polarization map applied at one path, identity elsewhere."""
    mat = np.eye(2 * n, dtype=complex)
    for pr in range(2):
        for pc in range(2):
            mat[pr * n + idx, pc * n + idx] = mat2[pr, pc]
    return mat


def hp_matrix(layout: StateLayout, photon: str, path: str) -> np.ndarray:
    slot = layout.photon_slot(photon)
    return _pol_block_at_path(len(layout.paths[slot]),
                              layout.path_index(photon, path), _HADAMARD)


def z_matrix(layout: StateLayout, photon: str, path: str) -> np.ndarray:
    slot = layout.photon_slot(photon)
    return _pol_block_at_path(len(layout.paths[slot]),
                              layout.path_index(photon, path), _PAULI_X)


def bs_matrix(layout: StateLayout, photon: str, in_paths, out_paths) -> np.ndarray:
    """50:50 beam splitter: |x1> -> (|y1>+|y2>)/sqrt2, |x2> -> (|y1>-|y2>)/sqrt2."""
    slot = layout.photon_slot(photon)
    n = len(layout.paths[slot])
    x = [layout.path_index(photon, p) for p in in_paths]
    y = [layout.path_index(photon, p) for p in out_paths]
    if len(x) != 2 or len(y) != 2 or len(set(x)) != 2 or len(set(y)) != 2:
        raise ConfigurationError("bs binds exactly two distinct inputs and outputs")
    path_mat = np.eye(n, dtype=complex)
    if set(x) == set(y):
        for i in (0, 1):
            for j in (0, 1):
                path_mat[y[i], x[j]] = _HADAMARD[i, j]
    elif not set(x) & set(y):
        for j in (0, 1):
            path_mat[x[j], x[j]] = 0.0
            path_mat[y[j], y[j]] = 0.0
        for i in (0, 1):
            for j in (0, 1):
                path_mat[y[i], x[j]] = _HADAMARD[i, j]
                path_mat[x[i], y[j]] = _HADAMARD[i, j]
    else:
        raise ConfigurationError("bs ports must coincide as a set or be disjoint")
    return np.kron(np.eye(2, dtype=complex), path_mat)


def cpbs_matrix(layout: StateLayout, photon: str, in_paths, out_paths) -> np.ndarray:
    """Circular-polarization splitter: R crosses to out2/out1, L keeps its side."""
    slot = layout.photon_slot(photon)
    n = len(layout.paths[slot])
    x = [layout.path_index(photon, p) for p in in_paths]
    y = [layout.path_index(photon, p) for p in out_paths]
    if len(y) != 2 or len(set(y)) != 2 or len(x) not in (1, 2) or len(set(x)) != len(x):
        raise ConfigurationError("cpbs binds one or two inputs and two distinct outputs")
    if len(x) == 1:
        moves_r = {x[0]: y[1]}
        moves_l = {x[0]: y[0]}
    else:
        moves_r = {x[0]: y[1], x[1]: y[0]}
        moves_l = {x[0]: y[0], x[1]: y[1]}
    perm_r = _complete_permutation(n, {s: d for s, d in moves_r.items() if s != d})
    perm_l = _complete_permutation(n, {s: d for s, d in moves_l.items() if s != d})
    mat = np.zeros((2 * n, 2 * n), dtype=complex)
    mat[:n, :n] = perm_r
    mat[n:, n:] = perm_l
    return mat


def pbs_matrix(layout: StateLayout, photon: str, path: str, out_paths) -> np.ndarray:
    """Linear-polarization splitter: H to the transmit port, V to the reflect port."""
    slot = layout.photon_slot(photon)
    n = len(layout.paths[slot])
    p = layout.path_index(photon, path)
    y = [layout.path_index(photon, q) for q in out_paths]
    if len(y) != 2 or y[0] == y[1]:
        raise ConfigurationError("pbs binds two distinct output ports")
    perm_h = _complete_permutation(n, {p: y[0]} if p != y[0] else {})
    perm_v = _complete_permutation(n, {p: y[1]} if p != y[1] else {})
    return np.kron(_PROJ_H, perm_h) + np.kron(_PROJ_V, perm_v)


def element_matrix(el: Element, layout: StateLayout) -> np.ndarray:
    """Single-photon matrix of a passive element (not wfc/qdarm/detector/measure)."""
    if el.kind == ElementKind.HP:
        return hp_matrix(layout, el.photon, el.path)
    if el.kind == ElementKind.Z:
        return z_matrix(layout, el.photon, el.path)
    if el.kind == ElementKind.BS:
        return bs_matrix(layout, el.photon, el.in_paths, el.out_paths)
    if el.kind == ElementKind.CPBS:
        return cpbs_matrix(layout, el.photon, el.in_paths, el.out_paths)
    if el.kind == ElementKind.PBS:
        return pbs_matrix(layout, el.photon, el.path, el.out_paths)
    raise ConfigurationError(f"element kind {el.kind.value} has no single-photon matrix")


# ---------------------------------------------------------------------------
# parser / serializer

_NAME_RE = re.compile(r"^[A-Za-z0-9_+\-]+$")

_REQUIRED_KEYS = {
    ElementKind.HP: ("photon", "path"),
    ElementKind.Z: ("photon", "path"),
    ElementKind.WFC: ("photon", "path"),
    ElementKind.BS: ("photon", "in", "out"),
    ElementKind.CPBS: ("photon", "in", "out"),
    ElementKind.PBS: ("photon", "path", "out"),
    ElementKind.QDARM: ("photon", "path", "qd"),
    ElementKind.DETECTOR: ("photon", "path", "label"),
    ElementKind.MEASURE_SPIN: ("qd",),
}
_OPTIONAL_KEYS = {
    ElementKind.WFC: ("qd",),
    ElementKind.MEASURE_SPIN: ("photon",),
}


def _parse_kv(tokens: list[str], lineno: int) -> dict[str, str]:
    kv = {}
    for tok in tokens:
        if "=" not in tok:
            raise ConfigurationError(f"line {lineno}: expected key=value, got {tok!r}")
        key, value = tok.split("=", 1)
        if not key or not value:
            raise ConfigurationError(f"line {lineno}: empty key or value in {tok!r}")
        if key in kv:
            raise ConfigurationError(f"line {lineno}: duplicate key {key!r}")
        kv[key] = value
    return kv


def _check_name(name: str, what: str, lineno: int) -> str:
    if not _NAME_RE.match(name):
        raise ConfigurationError(f"line {lineno}: invalid {what} name {name!r}")
    return name


def _herald_path_name(label: str) -> str:
    return "h" + re.sub(r"[^A-Za-z0-9_]", "_", label)


class _ParserState:
    def __init__(self):
        self.qds: dict[str, QDDecl] = {}
        self.photons: dict[str, list[str]] = {}
        self.ops: list[Element] = []

    def photon_paths(self, name: str, lineno: int) -> list[str]:
        if name not in self.photons:
            raise ConfigurationError(f"line {lineno}: undeclared photon {name!r}")
        return self.photons[name]

    def check_qd(self, name: str, lineno: int):
        if name not in self.qds:
            raise ConfigurationError(f"line {lineno}: undeclared QD {name!r}")

    def check_path(self, photon: str, path: str, lineno: int):
        if path not in self.photon_paths(photon, lineno):
            raise ConfigurationError(
                f"line {lineno}: dangling path reference {path!r} for photon {photon!r}")


def _build_element(kind: ElementKind, kv: dict[str, str], st: _ParserState,
                   lineno: int) -> Element:
    allowed = set(_REQUIRED_KEYS[kind]) | set(_OPTIONAL_KEYS.get(kind, ()))
    for key in kv:
        if key not in allowed:
            raise ConfigurationError(
                f"line {lineno}: key {key!r} not allowed for op {kind.value}")
    for key in _REQUIRED_KEYS[kind]:
        if key not in kv:
            raise ConfigurationError(
                f"line {lineno}: op {kind.value} requires {key}=")
    photon = kv.get("photon")
    if photon is not None:
        st.photon_paths(photon, lineno)
    path = kv.get("path")
    if path is not None:
        st.check_path(photon, path, lineno)
    in_paths = out_paths = None
    if "in" in kv:
        in_paths = tuple(kv["in"].split(","))
        for p in in_paths:
            st.check_path(photon, p, lineno)
    if "out" in kv:
        out_paths = tuple(kv["out"].split(","))
        for p in out_paths:
            st.check_path(photon, p, lineno)
    qd = kv.get("qd")
    if qd is not None:
        st.check_qd(qd, lineno)
    el = Element(kind=kind, photon=photon, path=path, in_paths=in_paths,
                 out_paths=out_paths, qd=qd, label=kv.get("label"))
    _validate_element_structure(el, lineno)
    return el


def _validate_element_structure(el: Element, lineno: int):
    if el.kind == ElementKind.BS:
        if len(el.in_paths) != 2 or len(el.out_paths) != 2:
            raise ConfigurationError(f"line {lineno}: bs needs in=p1,p2 out=p1,p2")
    elif el.kind == ElementKind.CPBS:
        if len(el.in_paths) not in (1, 2) or len(el.out_paths) != 2:
            raise ConfigurationError(
                f"line {lineno}: cpbs needs in=p1[,p2] out=p1,p2")
    elif el.kind == ElementKind.PBS:
        if len(el.out_paths) != 2:
            raise ConfigurationError(f"line {lineno}: pbs needs out=transmit,reflect")


def block_arm(photon: str, path: str, qd: str) -> list[Element]:
    """The Hp - qdarm - Hp arm that both block modes start with."""
    return [Element(ElementKind.HP, photon=photon, path=path),
            Element(ElementKind.QDARM, photon=photon, path=path, qd=qd),
            Element(ElementKind.HP, photon=photon, path=path)]


def _expand_block(kv: dict[str, str], st: _ParserState, lineno: int) -> list[Element]:
    for key in ("mode", "qd", "photon", "path"):
        if key not in kv:
            raise ConfigurationError(f"line {lineno}: block requires {key}=")
    mode, qd, photon, path = kv["mode"], kv["qd"], kv["photon"], kv["path"]
    for key in kv:
        if key not in ("mode", "qd", "photon", "path", "label"):
            raise ConfigurationError(f"line {lineno}: key {key!r} not allowed for block")
    st.check_qd(qd, lineno)
    st.check_path(photon, path, lineno)
    arm = block_arm(photon, path, qd)
    if mode == "parity":
        if "label" in kv:
            raise ConfigurationError(f"line {lineno}: parity block takes no label")
        return arm + [Element(ElementKind.Z, photon=photon, path=path)]
    if mode == "heralded":
        if "label" not in kv:
            raise ConfigurationError(f"line {lineno}: heralded block requires label=")
        label = kv["label"]
        herald = _herald_path_name(label)
        paths = st.photon_paths(photon, lineno)
        if herald in paths:
            raise ConfigurationError(
                f"line {lineno}: herald path {herald!r} collides with a declared path")
        paths.append(herald)
        return arm + [
            Element(ElementKind.CPBS, photon=photon,
                    in_paths=(path,), out_paths=(herald, path)),
            Element(ElementKind.DETECTOR, photon=photon, path=herald, label=label),
        ]
    raise ConfigurationError(f"line {lineno}: block mode must be heralded or parity")


def parse_circuit(text: str) -> Circuit:
    """Parse the line-oriented circuit description into a validated Circuit."""
    st = _ParserState()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        keyword, rest = tokens[0], tokens[1:]
        if keyword == "qd":
            if len(rest) < 1 or "=" in rest[0]:
                raise ConfigurationError(f"line {lineno}: qd needs a name")
            name = _check_name(rest[0], "qd", lineno)
            kv = _parse_kv(rest[1:], lineno)
            if set(kv) != {"basis"} or kv["basis"] not in ("+", "-"):
                raise ConfigurationError(f"line {lineno}: qd needs basis=+|-")
            if name in st.qds:
                raise ConfigurationError(f"line {lineno}: duplicate QD id {name!r}")
            if len(st.qds) == 2:
                raise ConfigurationError(f"line {lineno}: at most two QDs are supported")
            st.qds[name] = QDDecl(name, kv["basis"])
        elif keyword == "photon":
            if len(rest) < 1 or "=" in rest[0]:
                raise ConfigurationError(f"line {lineno}: photon needs a name")
            name = _check_name(rest[0], "photon", lineno)
            kv = _parse_kv(rest[1:], lineno)
            if set(kv) != {"paths"}:
                raise ConfigurationError(f"line {lineno}: photon needs paths=")
            paths = kv["paths"].split(",")
            for p in paths:
                _check_name(p, "path", lineno)
            if len(set(paths)) != len(paths):
                raise ConfigurationError(f"line {lineno}: duplicate path in {paths}")
            if name in st.photons:
                raise ConfigurationError(f"line {lineno}: duplicate photon id {name!r}")
            if len(st.photons) == 2:
                raise ConfigurationError(f"line {lineno}: at most two photons are supported")
            st.photons[name] = list(paths)
        elif keyword == "op":
            if not rest:
                raise ConfigurationError(f"line {lineno}: op needs a kind")
            try:
                kind = ElementKind(rest[0])
            except ValueError:
                raise ConfigurationError(
                    f"line {lineno}: unknown element kind {rest[0]!r}") from None
            kv = _parse_kv(rest[1:], lineno)
            st.ops.append(_build_element(kind, kv, st, lineno))
        elif keyword == "block":
            kv = _parse_kv(rest, lineno)
            st.ops.extend(_expand_block(kv, st, lineno))
        else:
            raise ConfigurationError(f"line {lineno}: unknown keyword {keyword!r}")
    return Circuit(
        qds=tuple(st.qds.values()),
        photons=tuple(PhotonDecl(n, tuple(p)) for n, p in st.photons.items()),
        ops=tuple(st.ops),
    )


def serialize_circuit(circuit: Circuit) -> str:
    """Canonical text form; parse(serialize(parse(t))) == parse(t)."""
    lines = []
    for qd in circuit.qds:
        lines.append(f"qd {qd.name} basis={qd.basis}")
    for ph in circuit.photons:
        lines.append(f"photon {ph.name} paths={','.join(ph.paths)}")
    for el in circuit.ops:
        parts = [f"op {el.kind.value}"]
        if el.photon is not None:
            parts.append(f"photon={el.photon}")
        if el.path is not None:
            parts.append(f"path={el.path}")
        if el.in_paths is not None:
            parts.append(f"in={','.join(el.in_paths)}")
        if el.out_paths is not None:
            parts.append(f"out={','.join(el.out_paths)}")
        if el.qd is not None:
            parts.append(f"qd={el.qd}")
        if el.label is not None:
            parts.append(f"label={el.label}")
        lines.append(" ".join(parts))
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# runner

@dataclass
class TrackedBranch:
    """One run branch with its amplitude split by leak count.

    layers[k] holds the component that leaked exactly k times through a
    quantum-dot arm, i.e. the coefficient of h^k with h = (r_o + r_h)/2
    (the success amplitude s = (r_o - r_h)/2 multiplied in). Trailing
    layers below the branch-drop threshold are pruned. The physical state
    is the coherent sum of all layers; the split is exact by linearity. It
    serves error accounting and also defines the herald split: after one
    Hp - qdarm - Hp arm on a purely L input, layers[1] is exactly what a
    heralding detector would catch and layers[0] what passes it.
    """

    record: tuple[tuple[str, str], ...]
    layout: StateLayout
    layers: list[np.ndarray]

    @property
    def probability(self) -> float:
        return float(np.sum(np.abs(sum(self.layers)) ** 2))

    @property
    def clean_weight(self) -> float:
        return float(np.sum(np.abs(self.layers[0]) ** 2))

    @property
    def leaked_weight(self) -> float:
        return float(sum(np.sum(np.abs(a) ** 2) for a in self.layers[1:]))

    def physical_state(self) -> HybridState:
        return HybridState(self.layout, sum(self.layers))

    def clean_state(self) -> HybridState:
        return HybridState(self.layout, self.layers[0].copy())

    def heralds(self) -> tuple[str, ...]:
        return tuple(name for name, outcome in self.record if outcome == "click")

    def spin_results(self) -> dict[str, str]:
        return {name: outcome for name, outcome in self.record if outcome in ("+", "-")}


@dataclass
class TrackedRun:
    """Complete branch set of one run plus per-detector click statistics.

    click_probability[label] is the probability that the detector fires,
    accumulated at detection time (a later loss of the partner photon does
    not erase a click that already happened). Under drop_clicked the value
    is additionally conditioned on no earlier detector having fired, so the
    sum over labels is the probability of at least one click.
    """

    branches: list[TrackedBranch]
    click_probability: dict[str, float]


def initial_spins(circuit: Circuit) -> tuple[str, str]:
    """Spin preparation from the circuit's qd declarations (default "+")."""
    prep = ["+", "+"]
    for i, qd in enumerate(circuit.qds[:2]):
        prep[i] = qd.basis
    return tuple(prep)


def _compile(circuit: Circuit, layout: StateLayout):
    """Parameter-free actions; the cavity enters only at qdarm and wfc."""
    actions = []
    for el in circuit.ops:
        if el.kind == ElementKind.MEASURE_SPIN:
            actions.append(("spin", circuit.qd_slot(el.qd), el.qd))
            continue
        slot = layout.photon_slot(el.photon)
        if el.kind == ElementKind.QDARM:
            actions.append(("qdarm", slot, layout.path_index(el.photon, el.path),
                            circuit.qd_slot(el.qd)))
        elif el.kind == ElementKind.WFC:
            actions.append(("wfc", slot, layout.path_index(el.photon, el.path)))
        elif el.kind == ElementKind.DETECTOR:
            actions.append(("detector", slot,
                            layout.path_index(el.photon, el.path), el.label))
        else:
            actions.append(("matrix", slot, element_matrix(el, layout)))
    return actions


# A branch's layers are a dict keyed by (s-degree, h-degree). The two run
# modes differ only in how a lossy passage (qdarm, wfc) acts on that key,
# in how a click is kept and in which negligible layers are pruned.

def _weight(a: np.ndarray) -> float:
    return float(np.sum(np.abs(a) ** 2))


def _add(layers: dict, key: tuple[int, int], a: np.ndarray):
    if key in layers:
        layers[key] += a
    else:
        layers[key] = a


def _prune_trailing(layers: dict) -> dict:
    """Drop the highest leak layers while they are below _BRANCH_DROP.

    For layers keyed (0, k) with k = 0, 1, ..., len - 1.
    """
    while len(layers) > 1 and _weight(layers[(0, len(layers) - 1)]) < _BRANCH_DROP:
        del layers[(0, len(layers) - 1)]
    return layers


class _Numeric:
    """s and h multiplied in as numbers: the key's s-degree stays 0."""

    def __init__(self, pair: ReflectionPair):
        self.s = pair.success_amplitude
        self.h = pair.herald_amplitude
        self.clicks: dict[str, float] = {}

    @staticmethod
    def success_key(key):
        return key

    prune = staticmethod(_prune_trailing)

    def click(self, label: str, layers: dict):
        self.clicks[label] = self.clicks.get(label, 0.0) + _weight(sum(layers.values()))


class _Polynomial:
    """s = h = 1: a passage raises the key's s- or h-degree by one."""

    s = h = 1.0

    def __init__(self):
        self.clicks: list[tuple[str, dict]] = []

    @staticmethod
    def success_key(key):
        return (key[0] + 1, key[1])

    @staticmethod
    def prune(layers: dict) -> dict:
        # |s|, |h| <= 1, so a coefficient this small stays negligible
        for key in [key for key, a in layers.items() if _weight(a) < _BRANCH_DROP]:
            del layers[key]
        return layers

    def click(self, label: str, layers: dict):
        # clicked branches are dropped, so these arrays belong to the click alone
        self.clicks.append((label, self.prune(layers)))


def _lossy_passage(action, layers: dict, mode) -> dict:
    """One qdarm or wfc passage through every layer.

    On the bound path a wfc multiplies by s, and a qdarm maps a layer to
    s·_SUCC4 (success) plus h·(itself) one h-degree up (leak); amplitudes
    off the path pass unchanged. mode.success_key says where the s term
    lands: on the same key when s is a number, so the layer is transformed
    whole, or one s-degree up, so the on-path part is split off.
    """
    kind, slot, path_idx = action[:3]
    on_path = _path_slice(slot, path_idx)
    out: dict = {}
    for key, a in layers.items():
        raised = mode.success_key(key)
        if kind == "wfc":
            if raised == key:  # in place: every layer array belongs to one branch
                a[on_path] *= mode.s
                _add(out, key, a)
            else:
                on = _project_path(a, slot, path_idx)
                _add(out, key, a - on)
                _add(out, raised, on)
            continue
        spin_slot = action[3]
        on = _project_path(a, slot, path_idx)
        if raised == key:
            _add(out, key, _apply_polspin_at_path(a, slot, path_idx, spin_slot,
                                                  mode.s * _SUCC4))
        else:
            _add(out, key, a - on)
            _add(out, raised, _apply_polspin_at_path(on, slot, path_idx, spin_slot,
                                                     _SUCC4))
        _add(out, (key[0], key[1] + 1), mode.h * on)
    return out if kind == "wfc" else mode.prune(out)


def _outcomes(action, layers: dict) -> list:
    """(record entry, projected layers) per outcome of a measurement action.

    A detector's no-click outcome adds no record entry (None).
    """
    if action[0] == "detector":
        _, slot, path_idx, label = action
        clicked = {key: _project_path(a, slot, path_idx) for key, a in layers.items()}
        return [((label, "click"), clicked),
                (None, {key: a - clicked[key] for key, a in layers.items()})]
    _, spin_slot, qd_name = action
    return [((qd_name, sign),
             {key: _apply_spin_matrix(a, spin_slot, proj) for key, a in layers.items()})
            for sign, proj in _SPIN_X_PROJ.items()]


def _run(circuit: Circuit, state: HybridState, mode, drop_clicked: bool):
    """The runner loop shared by both modes: (layout, [(record, layers)])."""
    layout = circuit.layout()
    if state.layout != layout:
        raise ConfigurationError("input state layout does not match circuit declarations")
    branches: list[tuple[tuple, dict]] = [((), {(0, 0): state.amps.copy()})]
    for action in _compile(circuit, layout):
        kind = action[0]
        if kind == "matrix":
            _, slot, mat = action
            branches = [(rec, {key: _apply_photon_matrix(a, slot, mat)
                               for key, a in layers.items()})
                        for rec, layers in branches]
        elif kind in ("qdarm", "wfc"):
            branches = [(rec, _lossy_passage(action, layers, mode))
                        for rec, layers in branches]
        else:  # detector or spin measurement: one branch per outcome
            if kind == "detector":  # an entry even when no branch reaches it
                mode.click(action[3], {})
            new_branches = []
            for rec, layers in branches:
                for entry, new_layers in _outcomes(action, layers):
                    if entry is not None and entry[1] == "click":
                        mode.click(entry[0], new_layers)
                        if drop_clicked:
                            continue
                    new_layers = mode.prune(new_layers)
                    if sum(_weight(a) for a in new_layers.values()) > _BRANCH_DROP:
                        new_branches.append(
                            (rec if entry is None else rec + (entry,), new_layers))
            branches = new_branches
    return layout, branches


def run_circuit_tracked(circuit: Circuit, state: HybridState,
                        pair: ReflectionPair = IDEAL_PAIR,
                        drop_clicked: bool = False) -> TrackedRun:
    """Run a circuit keeping the leak-count split of every branch.

    With drop_clicked, branches where a detector fired are discarded after
    their click probability is recorded (statistics-only fast path).
    """
    mode = _Numeric(pair)
    layout, branches = _run(circuit, state, mode, drop_clicked)
    return TrackedRun(
        branches=[TrackedBranch(rec, layout, [layers[(0, k)] for k in range(len(layers))])
                  for rec, layers in branches],
        click_probability=mode.clicks,
    )


@dataclass(frozen=True)
class PolynomialRun:
    """One run with s and h left symbolic, valid for every ReflectionPair.

    Each branch's layers, and each click's projected layers, are
    coefficient arrays keyed by (s-degree, h-degree). at(pair) evaluates
    them into the TrackedRun that run_circuit_tracked returns at that pair,
    up to rounding and branches whose weight there is at most the drop
    threshold.
    """

    layout: StateLayout
    branches: tuple[tuple[tuple, dict], ...]
    clicks: tuple[tuple[str, dict], ...]

    def _evaluate(self, coeffs: dict, s: complex, h: complex) -> dict:
        layers = {(0, k): np.zeros(self.layout.shape, dtype=complex)
                  for k in range(1 + max((k for _, k in coeffs), default=0))}
        for (i, k), c in coeffs.items():
            layers[(0, k)] += (s ** i * h ** k) * c
        return layers

    def at(self, pair: ReflectionPair) -> TrackedRun:
        """The run at one pair; its arrays are new and never alias the coefficients."""
        s, h = pair.success_amplitude, pair.herald_amplitude
        branches = []
        for rec, coeffs in self.branches:
            layers = _prune_trailing(self._evaluate(coeffs, s, h))
            if sum(_weight(a) for a in layers.values()) > _BRANCH_DROP:
                branches.append(TrackedBranch(rec, self.layout, list(layers.values())))
        clicks: dict[str, float] = {}
        for label, coeffs in self.clicks:
            amps = sum((s ** i * h ** k) * c for (i, k), c in coeffs.items())
            clicks[label] = clicks.get(label, 0.0) + _weight(amps)
        return TrackedRun(branches=branches, click_probability=clicks)


def run_circuit_polynomial(circuit: Circuit, state: HybridState) -> PolynomialRun:
    """Run a circuit once for all cavity points, as a polynomial in (s, h).

    Branches where a detector fired are dropped after their click is
    recorded, as run_circuit_tracked does with drop_clicked.

    Worth it only when one circuit and input are evaluated at many pairs:
    unlike run_circuit_tracked it cannot prune the leak layers that vanish
    at a given pair.
    """
    mode = _Polynomial()
    layout, branches = _run(circuit, state, mode, drop_clicked=True)
    return PolynomialRun(layout, tuple((rec, mode.prune(layers)) for rec, layers in branches),
                         tuple(mode.clicks))


def run_circuit(circuit: Circuit, state: HybridState,
                pair: ReflectionPair = IDEAL_PAIR) -> list[BranchOutcome]:
    """Run a circuit; detectors and spin measurements fork branches.

    Returns the complete branch set: residuals renormalized, probabilities
    summing to the input squared norm (minus amplitude absorbed by lossy
    reflection).
    """
    outcomes = []
    for tb in run_circuit_tracked(circuit, state, pair).branches:
        prob = tb.probability
        if prob <= _BRANCH_DROP:
            continue
        outcomes.append(BranchOutcome(
            tb.record, tb.physical_state().normalized(), prob))
    return outcomes
