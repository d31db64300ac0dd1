"""Optical element library, circuit container, parser and runner.

Elements act on a HybridState through their single-photon matrices; the
quantum-dot arm (qdarm) is the one element that couples a photon to a
spin. An Element is a NamedTuple: immutable, compared by value (a plain
tuple of the same values included), and copied with _replace. Circuits
are immutable after parsing and run_circuit_tracked is a pure function
of (circuit, input, pair). The pair enters only through
s = (r_o - r_h)/2 and h = (r_o + r_h)/2 at qdarm (s·success + h·leak on
its path) and wfc (s on its path). The runner keeps each branch as one
coefficient array indexed [s-degree, h-degree, *state axes] and takes s
and h as coefficient tuples by degree: (s,) and (0, h) at one pair, so
they are multiplied in, or (0, 1) for both, so that one run is a
polynomial valid at every pair, read through protocols._no_click and
layer_s_degrees. Both store a branch's first click under its label; at a
pair the branch runs on, as a polynomial it stops (_no_click reads no more).
The runner applies each photon's passive elements as one matrix, their
product, just before that photon's next qdarm, wfc or detector and at
the end. This is exact up to rounding: a photon's matrix commutes with
every action on the other photon and with spin measurements, and being
unitary it moves no branch's weight across the drop threshold.

Circuit file format (UTF-8, line oriented, ``#`` comments)::

    qd <ID> basis=+|-
    photon <ID> paths=<p1>,<p2>[,...]
    op <kind> [photon=<ID>] [path=<p>] [in=<p1>[,<p2>]] [out=<p1>,<p2>]
              [qd=<ID>] [label=<detector-label>] [pol=R|L]
    block mode=heralded|parity qd=<ID> photon=<ID> path=<p> [label=<det>]

_KEYS lists the keys that each kind of line requires and allows. Element
kinds: cpbs, pbs, bs, hp, z, wfc, qdarm, detector, measure_spin. Each
splitter binds two distinct outputs and, by the port rule, its inputs: a
pbs its ``path``, a cpbs one or two distinct paths, a bs two distinct
paths that its outputs equal as a set or avoid. _check_element holds
these rules, pol and declared names for one element. The parser calls it
on each element of a line, element_matrix on every call, serialize_circuit
and _compile on every op, so a hand-built circuit gets the parser's
messages; _check_declaration does so for each qd and photon declaration.
A passing check is cached on all it reads, with the op's action less its
slots and label (its matrix, path and pol indices). The parser caches
each op or block line's elements on its text and the declarations before
it (96% hits over 3,000 benchmark circuits); labels are claimed per
circuit. Each matrix is built once per (kind, path count, port indices),
read-only and shared. The runner ignores ``wfc qd=`` and
``measure_spin photon=``. A detector clicks on its path, in the one
polarization that ``pol`` names or in both; a clicked photon stays on
its path. No two detectors, plain or of heralded blocks, share a label.
The ``block`` macro expands into block_ops: Hp - qdarm - Hp on the bound
path, then ``z`` (parity) or ``detector pol=L`` (heralded), which
catches the leak, as the leak keeps the L polarization of the input.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from functools import cache, lru_cache
from typing import NamedTuple

import numpy as np

from .cavity import IDEAL_PAIR, ReflectionPair, reflection_operator
from .errors import ConfigurationError, NumericDomainError
from .hilbert import (
    _HADAMARD,
    _SPIN_X_PROJ,
    L,
    R,
    HybridState,
    StateLayout,
    _apply_photon_matrix,
    _apply_spin_matrix,
    _path_slice,
    _POLSPIN_AXES,
    _project_path,
)

_PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
# qdarm success component, the reflection map at s = 1, h = 0: pol sigma_z (x) spin sigma_z
_SUCC4 = reflection_operator(ReflectionPair(r_o=1, r_h=-1))
# its diagonal as a sign mask per (photon slot p, spin slot q) on the view of one path
_SUCC_SIGN = {key: np.diag(_SUCC4).real.reshape(
    [2 if axis in axes else 1 for axis in range(-5, 0)]) for key, axes in _POLSPIN_AXES.items()}

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


class Element(NamedTuple):
    kind: ElementKind
    photon: str | None = None
    path: str | None = None
    in_paths: tuple[str, ...] | None = None
    out_paths: tuple[str, ...] | None = None
    qd: str | None = None
    label: str | None = None
    pol: str | None = None  # detector only: "R" or "L"; None detects both


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
        """Spin slot (0 or 1) of a QD that the circuit declares, as _check_element ensures."""
        slot = [qd.name for qd in self.qds].index(name)
        if slot > 1:
            raise ConfigurationError("at most two QDs are supported")
        return slot


# ---------------------------------------------------------------------------
# element matrices

def _routing(n: int, src, dst) -> np.ndarray:
    """Destination of each of n paths: src[i] goes to dst[i], the paths
    that dst takes over go, in index order, to the ones src frees, and
    every other path stays."""
    to = np.arange(n)
    to[src + sorted(set(dst) - set(src))] = dst + sorted(set(src) - set(dst))
    return to


# the input counts each splitter binds; every splitter binds two outputs
_PORTS = {ElementKind.BS: ((2,), "two distinct inputs"),
          ElementKind.CPBS: ((1, 2), "one or two distinct inputs"),
          ElementKind.PBS: ((1,), "one input")}
# the 2x2 map that each wave plate writes on the (R, L) block of its path
_PLATES = {ElementKind.HP: _HADAMARD, ElementKind.Z: _PAULI_X}


def element_matrix(el: Element, layout: StateLayout) -> np.ndarray:
    """Single-photon matrix of a passive element (hp, z, bs, cpbs, pbs), over
    the photon's pol-major (pol, path) index.

    hp and z write a Hadamard or a bit flip on the (R, L) block of their
    path. A bs maps |x1> -> (|y1>+|y2>)/sqrt2 and |x2> -> (|y1>-|y2>)/sqrt2,
    the same on R and L; a cpbs crosses R to out2/out1 and keeps L on its
    side; a pbs routes H to out1 and V to out2.

    Checked on every call; built once per (kind, path count, port indices), read-only, shared.
    """
    kind = _kind(el.kind)
    if kind not in _PLATES and kind not in _PORTS:
        raise ConfigurationError(f"element kind {kind.value} has no single-photon matrix")
    return _check_element(el, dict(zip(layout.photons, layout.paths)), ())[1]


@cache
def _built_matrix(kind: ElementKind, n: int, ins: tuple, outs: tuple) -> np.ndarray:
    """A passive element's matrix, by port indices on a photon of n paths; read-only."""
    x, y = list(ins), list(outs)
    if kind in _PLATES:
        mat = np.eye(2 * n, dtype=complex)
        mat[x[0]::n, x[0]::n] = _PLATES[kind]
    elif kind == ElementKind.BS:
        disjoint = not set(x) & set(y)
        mat = np.eye(2 * n, dtype=complex)
        path_mat = mat[:n, :n]
        path_mat[x + y, x + y] = 0.0
        for i in (0, 1):
            for j in (0, 1):
                path_mat[y[i], x[j]] = _HADAMARD[i, j]
                if disjoint:
                    path_mat[x[i], y[j]] = _HADAMARD[i, j]
        mat[n:, n:] = path_mat  # the same path map on R and on L
    elif kind == ElementKind.CPBS:
        cols = np.arange(n)
        mat = np.zeros((2 * n, 2 * n), dtype=complex)
        mat[_routing(n, x, y[::-1][:len(x)]), cols] = 1.0  # R crosses
        mat[n + _routing(n, x, y[:len(x)]), n + cols] = 1.0  # L keeps its side
    else:
        # a pbs: H = (R + L)/sqrt2 and V = (R - L)/sqrt2 take the routes to y[0] and y[1],
        # so the (R, L) blocks hold (to_h + to_v)/2, and (to_h - to_v)/2 off the diagonal
        cols = np.arange(n)
        half_h, half_v = np.zeros((n, n)), np.zeros((n, n))
        half_h[_routing(n, x, y[:1]), cols] = 0.5
        half_v[_routing(n, x, y[1:]), cols] = 0.5
        mat = np.empty((2 * n, 2 * n), dtype=complex)
        mat[:n, :n] = mat[n:, n:] = half_h + half_v
        mat[:n, n:] = mat[n:, :n] = half_h - half_v
    mat.flags.writeable = False
    return mat


# ---------------------------------------------------------------------------
# parser / serializer

_NAME_RE = re.compile(r"^[A-Za-z0-9_+\-]+$")
_POL_INDEX = {"R": R, "L": L}
# (required, optional) keys of each kind of line, by how the line starts (_check_keys)
_KEYS = {
    "qd": (("basis",), ()),
    "photon": (("paths",), ()),
    "block": (("mode", "qd", "photon", "path"), ("label",)),
    "op cpbs": (("photon", "in", "out"), ()),
    "op pbs": (("photon", "path", "out"), ()),
    "op bs": (("photon", "in", "out"), ()),
    "op hp": (("photon", "path"), ()),
    "op z": (("photon", "path"), ()),
    "op wfc": (("photon", "path"), ("qd",)),
    "op qdarm": (("photon", "path", "qd"), ()),
    "op detector": (("photon", "path", "label"), ("pol",)),
    "op measure_spin": (("qd",), ("photon",)),
}
# the op key of each Element field after kind, in field (and serialized) order
_OP_KEYS = ("photon", "path", "in", "out", "qd", "label", "pol")
_CHECKED_MAX = 4096  # entries of _checked and of _elements; circuits level off near 1,630, 3,460
# the first cached value equal to value: equal values that caches hold share one object
_shared = lru_cache(maxsize=_CHECKED_MAX)(lambda value: value)


def _kind(kind) -> ElementKind:
    """The ElementKind that kind is or names; any other value is the parser's error."""
    try:
        return ElementKind(kind)
    except ValueError:
        raise ConfigurationError(f"unknown element kind {kind!r}") from None


def _check_element(el: Element, paths: dict, qds) -> tuple:
    """Raise the parser's message unless el has, in turn, a declared photon (paths maps it to
    its paths) and paths of it, the splitter port rule, its kind's keys, pol R or L, a QD in qds;
    else return el's action less its slots and label: ("matrix", mat), ("qdarm"|"wfc", path
    index), ("detector", path index, pol index) or ("spin",). Cached on all it reads."""
    try:
        return _checked(el, paths.get(el.photon), el.qd in qds)
    except TypeError:  # a field or path is unhashable, as a list is, or a port list not iterable
        raise ConfigurationError(f"fields and paths must be str or tuples of str: {el}") from None


@lru_cache(maxsize=_CHECKED_MAX)  # a check that raises is not cached
def _checked(el: Element, own: tuple | None, qd_declared: bool) -> tuple:
    """_check_element's check and result; own: the paths of el's photon (None if undeclared)."""
    kind, photon, path, ins, outs, qd, _, pol = _kind(el.kind), *el[1:]
    if photon is not None and own is None:
        raise ConfigurationError(f"undeclared photon {photon!r}")
    for p in (path, *(ins or ()), *(outs or ())) if own is not None else ():
        if p is not None and p not in own:
            raise ConfigurationError(f"dangling path reference {p!r} for photon {photon!r}")
    if kind in _PORTS:
        counts, inputs = _PORTS[kind]
        ins, outs = ins or ((path,) if path else ()), outs or ()
        if (len(ins) not in counts or len(set(ins)) != len(ins)
                or len(outs) != 2 or outs[0] == outs[1]):
            raise ConfigurationError(f"{kind.value} binds {inputs} and two distinct outputs")
        # a bs's ports are 2 distinct paths if they coincide as a set, 4 if disjoint
        if kind == ElementKind.BS and len({*ins, *outs}) == 3:
            raise ConfigurationError("bs ports must coincide as a set or be disjoint")
    _check_keys("op " + kind, [key for key, value in zip(_OP_KEYS, el[1:]) if value is not None])
    if pol is not None and pol not in _POL_INDEX:
        raise ConfigurationError(f"detector pol must be R or L, got {pol!r}")
    if qd is not None and not qd_declared:
        raise ConfigurationError(f"undeclared QD {qd!r}")
    if kind == ElementKind.MEASURE_SPIN:
        return ("spin",)
    if kind in _PLATES or kind in _PORTS:  # hp and z: no outs
        return ("matrix", _built_matrix(kind, len(own), tuple(map(own.index, ins or (path,))),
                                        tuple(map(own.index, outs or ()))))
    if kind == ElementKind.DETECTOR:
        return ("detector", own.index(path), _POL_INDEX.get(pol, slice(None)))
    return (kind.value, own.index(path))


def _parse_kv(head: str, tokens: list[str]) -> dict:
    """The key=value tokens of a line that starts with head, checked against
    its _KEYS; a list value (in, out, paths) is split into a tuple."""
    kv = {}
    for tok in tokens:
        key, eq, value = tok.partition("=")
        if not eq:
            raise ConfigurationError(f"expected key=value, got {tok!r}")
        if not key or not value:
            raise ConfigurationError(f"empty key or value in {tok!r}")
        if key in kv:
            raise ConfigurationError(f"duplicate key {key!r}")
        kv[key] = tuple(value.split(",")) if key in ("in", "out", "paths") else value
    _check_keys(head, kv)
    return kv


def _check_keys(head: str, keys) -> None:
    """Raise unless keys hold each key that _KEYS[head] requires and only keys it allows."""
    required, optional = _KEYS[head]
    for key in keys:
        if key not in required and key not in optional:
            raise ConfigurationError(f"key {key!r} not allowed for {head}")
    for key in required:
        if key not in keys:
            raise ConfigurationError(f"{head} requires {key}=")


def block_ops(mode: str, photon: str, path: str, qd: str,
              label: str | None = None) -> list[Element]:
    """The elements of one block: Hp - qdarm - Hp on the bound path, then a
    polarization bit flip (mode "parity") or a detector of the L leak
    (mode "heralded", detector ``label``)."""
    arm = [Element(ElementKind.HP, photon=photon, path=path),
           Element(ElementKind.QDARM, photon=photon, path=path, qd=qd),
           Element(ElementKind.HP, photon=photon, path=path)]
    if mode == "parity":
        return arm + [Element(ElementKind.Z, photon=photon, path=path)]
    return arm + [Element(ElementKind.DETECTOR, photon=photon, path=path,
                          label=label, pol="L")]


def _declaration(keyword: str, rest: list[str]) -> QDDecl | PhotonDecl:
    """The declaration of one qd or photon line."""
    if not rest or "=" in rest[0]:
        raise ConfigurationError(f"{keyword} needs a name")
    kv = _parse_kv(keyword, rest[1:])
    decl = QDDecl(rest[0], kv["basis"]) if keyword == "qd" else PhotonDecl(rest[0], kv["paths"])
    _check_declaration(decl)
    return decl


def _check_declaration(decl: QDDecl | PhotonDecl) -> None:
    """Raise the parser's message unless decl's name and paths are names (_NAME_RE),
    its paths a tuple of distinct ones and a QD's basis + or -."""
    keyword, paths = ("qd", ()) if isinstance(decl, QDDecl) else ("photon", decl.paths)
    if not isinstance(paths, tuple):
        raise ConfigurationError(f"photon paths must be a tuple of names, got {paths!r}")
    for what, n in [(keyword, decl.name)] + [("path", p) for p in paths]:
        if not isinstance(n, str) or not _NAME_RE.match(n):
            raise ConfigurationError(f"invalid {what} name {n!r}")
    if len(set(paths)) != len(paths):
        raise ConfigurationError(f"duplicate path in {list(paths)}")
    if keyword == "qd" and decl.basis not in ("+", "-"):
        raise ConfigurationError("qd needs basis=+|-")


def _declared(circuit: Circuit) -> tuple[dict, set]:
    """Each photon's paths by its name, and the QD names, of declarations that pass
    the parser's _check_declaration."""
    for decl in (*circuit.qds, *circuit.photons):
        _check_declaration(decl)
    return {ph.name: ph.paths for ph in circuit.photons}, {qd.name for qd in circuit.qds}


@lru_cache(maxsize=_CHECKED_MAX)  # a line that raises is not cached
def _elements(line: str, context: tuple) -> tuple[Element, ...]:
    """The checked elements of one op or block line, comment and outer blanks stripped, under
    context: the declarations before it, as (each photon's (name, paths), the QD names)."""
    (keyword, *rest), paths, qds = line.split(), dict(context[0]), context[1]
    if keyword == "op":
        if not rest:
            raise ConfigurationError("op needs a kind")
        kind = _kind(rest[0])
        kv = _parse_kv("op " + kind, rest[1:])
        els = [Element(kind, *map(kv.get, _OP_KEYS))]
    else:
        kv = _parse_kv("block", rest)
        mode, label = kv["mode"], kv.get("label")
        if mode not in ("parity", "heralded"):
            raise ConfigurationError("block mode must be heralded or parity")
        if (mode == "heralded") != (label is not None):
            raise ConfigurationError("parity block takes no label" if label
                                     else "heralded block requires label=")
        els = block_ops(mode, kv["photon"], kv["path"], kv["qd"], label)
    for el in els:
        _check_element(el, paths, qds)
    return tuple(map(_shared, els))


def _claim_labels(labels: set, els) -> None:
    """Add the labels of the detectors in els to labels, which none of them may be in."""
    for label in (el.label for el in els if el.kind == ElementKind.DETECTOR):
        if label in labels:
            raise ConfigurationError(f"duplicate detector label {label!r}")
        labels.add(label)


def parse_circuit(text: str) -> Circuit:
    """Parse the line-oriented circuit description into a validated Circuit.

    An error names the line it is on.
    """
    decls = {"qd": {}, "photon": {}}  # by keyword, each declaration by name
    ops, labels, context = [], set(), ((), ())  # context: the declarations so far
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        keyword = line.split(None, 1)[0]
        try:
            if keyword in decls:
                decl, same = _declaration(keyword, line.split()[1:]), decls[keyword]
                noun = "QD" if keyword == "qd" else keyword
                if decl.name in same:
                    raise ConfigurationError(f"duplicate {noun} id {decl.name!r}")
                if len(same) == 2:
                    raise ConfigurationError(f"at most two {noun}s are supported")
                same[decl.name] = decl
                context = _shared((tuple((name, ph.paths) for name, ph in decls["photon"].items()),
                                   tuple(decls["qd"])))
            elif keyword in ("op", "block"):
                els = _elements(line, context)
                _claim_labels(labels, els)
                ops.extend(els)
            else:
                raise ConfigurationError(f"unknown keyword {keyword!r}")
        except ConfigurationError as exc:
            raise ConfigurationError(f"line {lineno}: {exc}") from None
    return Circuit(tuple(decls["qd"].values()), tuple(decls["photon"].values()), tuple(ops))


def serialize_circuit(circuit: Circuit) -> str:
    """Canonical text form; parse(serialize(parse(t))) == parse(t). An op that fails
    _compile's check raises what parsing the text raises, on the line it would take."""
    (paths, qds), labels = _declared(circuit), set()
    lines = [f"qd {qd.name} basis={qd.basis}" for qd in circuit.qds]
    lines += [f"photon {ph.name} paths={','.join(ph.paths)}" for ph in circuit.photons]
    for el in circuit.ops:
        head = f"op {_kind(el.kind).value}"  # an unknown kind has no line to name
        try:
            _check_element(el, paths, qds)
            _claim_labels(labels, (el,))
        except ConfigurationError as exc:
            raise ConfigurationError(f"line {len(lines) + 1}: {exc}") from None
        lines.append(" ".join([head] + [
            f"{key}={value if isinstance(value, str) else ','.join(value)}"
            for key, value in zip(_OP_KEYS, el[1:]) if value is not None]))
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# runner

@dataclass
class TrackedBranch:
    """One run branch with its amplitude split by leak count.

    layers[k] holds the component that leaked exactly k times through a
    quantum-dot arm, i.e. the coefficient of h^k with h = (r_o + r_h)/2
    (the success amplitude s = (r_o - r_h)/2 multiplied in). The layers
    are views of the branch's coefficient array at one pair.
    Trailing layers below the branch-drop threshold are pruned.
    The physical state is the coherent sum of all layers; the split is
    exact by linearity and serves error accounting. clean_weight and
    leaked_weight are sums of layer norms, ||layers[0]||^2 and
    sum over k >= 1 of ||layers[k]||^2, while probability is
    ||sum of layers||^2: the layers interfere, so probability is in
    general not clean_weight + leaked_weight.
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

    click_probability[label] is the probability that this detector is the
    first one to fire, taken from the amplitudes at detection time (a
    later loss of the partner photon does not erase a click that already
    happened). The sum over labels is the probability that at least one
    detector fires.
    """

    branches: list[TrackedBranch]
    click_probability: dict[str, float]


def _compile(circuit: Circuit, layout: StateLayout):
    """Parameter-free actions; the cavity enters only at qdarm and wfc.

    A photon's passive matrices are multiplied together and emitted as one
    matrix action just before that photon's next qdarm, wfc or detector,
    and at the end. Each op is checked once, and its check returns its action's tail.
    """
    actions, labels = [], set()
    pending = [None, None]  # per photon slot, the product of its matrices so far
    paths, qds = _declared(circuit)
    for el in circuit.ops:
        kind, *tail = _check_element(el, paths, qds)
        if kind == "spin":
            actions.append(("spin", circuit.qd_slot(el.qd), el.qd))
            continue
        slot = layout.photons.index(el.photon)
        if kind == "matrix":
            pending[slot] = tail[0] if pending[slot] is None else tail[0] @ pending[slot]
            continue
        if pending[slot] is not None:
            actions.append(("matrix", slot, pending[slot]))
            pending[slot] = None
        if kind == "qdarm":
            actions.append(("qdarm", slot, *tail, circuit.qd_slot(el.qd)))
        elif kind == "wfc":
            actions.append(("wfc", slot, *tail))
        else:
            _claim_labels(labels, (el,))
            actions.append(("detector", slot, *tail, el.label))
    return actions + [("matrix", slot, mat) for slot, mat in enumerate(pending)
                      if mat is not None]


def _weight(a: np.ndarray) -> float:
    return float(np.vdot(a, a).real)


def _trim(c: np.ndarray) -> np.ndarray:
    """c without its trailing h- and s-degrees of weight below _BRANCH_DROP."""
    s_len, h_len = c.shape[:2]
    while h_len > 1 and _weight(c[:, h_len - 1]) < _BRANCH_DROP:
        h_len -= 1
    while s_len > 1 and _weight(c[s_len - 1, :h_len]) < _BRANCH_DROP:
        s_len -= 1
    return c[:s_len, :h_len]


def _surviving(weights: np.ndarray):
    """The runner's drop rule on finite layer weights [h-degree, ...] at a pair:
    (kept, clean, leaked, live). kept marks the layers that _trim keeps, the first and
    each one at or after which a layer weighs _BRANCH_DROP or more; clean is layer 0's
    weight, leaked the kept leak layers' sum; live, clean + leaked > _BRANCH_DROP."""
    kept = np.logical_or.accumulate((weights >= _BRANCH_DROP)[::-1], axis=0)[::-1]
    kept[0] = True
    leaked = (weights[1:] * kept[1:]).sum(axis=0)
    return kept, weights[0], leaked, weights[0] + leaked > _BRANCH_DROP


def _lossy_passage(action, c: np.ndarray, s: tuple, h: tuple) -> np.ndarray:
    """One qdarm or wfc passage of a branch's coefficient array c.

    On the bound path, with x the amplitudes there, a wfc leaves s (x) x
    and a qdarm leaves s (x) _SUCC4 x (success) plus h (x) x (leak); the
    product with s or h shifts along its degree axis. Amplitudes off the
    path pass unchanged.
    """
    kind, slot, path_idx = action[:3]
    on_path = _path_slice(slot, path_idx)
    x = c[on_path]
    leaks = kind == "qdarm"
    s_len, h_len = c.shape[:2]
    out = np.zeros((s_len + len(s) - 1, h_len + (len(h) - 1 if leaks else 0))
                   + c.shape[2:], dtype=complex)
    out[:s_len, :h_len] = c
    y = out[on_path]  # a view: the bound path's amplitudes, rewritten below
    y[...] = 0
    success = x * _SUCC_SIGN[slot, action[3]] if leaks else x
    for i, coeff in enumerate(s):
        if coeff:
            y[i:i + s_len, :h_len] += coeff * success
    for k, coeff in enumerate(h if leaks else ()):
        if coeff:
            y[:s_len, k:k + h_len] += coeff * x
    return _trim(out)


def _outcomes(action, c: np.ndarray) -> list:
    """(record entry, projected coefficients) per outcome of a measurement action.

    A detector's no-click outcome adds no record entry (None).
    """
    if action[0] == "detector":
        _, slot, path_idx, pol, label = action
        clicked = _project_path(c, slot, path_idx, pol)
        return [((label, "click"), clicked), (None, c - clicked)]
    _, spin_slot, qd_name = action
    return [((qd_name, sign), _apply_spin_matrix(c, spin_slot, proj))
            for sign, proj in _SPIN_X_PROJ.items()]


def _run(circuit: Circuit, state: HybridState, pair: ReflectionPair | None):
    """The runner loop: (layout, [(record, coefficients)], clicks).

    A branch is one array c[s-degree, h-degree, *state axes] of the
    coefficients of s^i h^k. s and h enter as coefficient tuples by degree:
    at a pair they are the numbers themselves, (s,) and (0, h), so the
    s axis keeps length 1; with pair=None they are (0, 1) both, so every
    passage raises a degree. A branch's first click is kept, as its coefficients, under its
    detector's label; with pair=None the branch ends there. At a pair, a weight that is not
    finite (of a measurement outcome, a click too, or a returned branch) is a NumericDomainError.
    """
    layout = circuit.layout()
    if state.layout != layout:
        raise ConfigurationError("input state layout does not match circuit declarations")
    if pair is None:
        s = h = (0, 1)
    else:
        s, h = (pair.success_amplitude,), (0, pair.herald_amplitude)
    actions = _compile(circuit, layout)  # checks every op, so each label is a string
    clicks = {action[-1]: [] for action in actions if action[0] == "detector"}
    branches = [((), state.amps[None, None].copy())]
    weights = []  # those compared with _BRANCH_DROP
    for action in actions:
        kind = action[0]
        if kind == "matrix":
            _, slot, mat = action
            branches = [(rec, _apply_photon_matrix(c, slot, mat)) for rec, c in branches]
        elif kind in ("qdarm", "wfc"):
            branches = [(rec, _lossy_passage(action, c, s, h)) for rec, c in branches]
        else:  # detector or spin measurement: one branch per outcome
            new_branches = []
            for rec, c in branches:
                first = all(outcome != "click" for _, outcome in rec)
                for entry, projected in _outcomes(action, c):
                    if first and entry is not None and entry[1] == "click":
                        clicks[entry[0]].append(projected)
                        if pair is None:  # the click is all that _no_click reads of it
                            continue
                    projected = _trim(projected)
                    weights.append(_weight(projected))
                    if weights[-1] > _BRANCH_DROP:
                        new_branches.append(
                            (rec if entry is None else rec + (entry,), projected))
            branches = new_branches
    if pair is not None and not np.isfinite(sum(weights) + sum(_weight(c) for _, c in branches)):
        raise NumericDomainError(f"a branch weight overflows at {pair}")
    return layout, branches, clicks


def _evaluate(c: np.ndarray, s: complex, h: complex) -> np.ndarray:
    """The layers of coefficients c at (s, h): a new (1, h-degrees, *state) array."""
    s_len, h_len = c.shape[:2]
    out = (s ** np.arange(s_len) @ c.reshape(s_len, -1)).reshape((1,) + c.shape[1:])
    out *= (h ** np.arange(h_len)).reshape((1, h_len) + (1,) * (c.ndim - 2))
    return out


def _tracked_run(layout: StateLayout, branches, clicks) -> TrackedRun:
    """The TrackedRun of branch and click coefficients already at one pair,
    their s-degree axis of length 1."""
    return TrackedRun(
        [TrackedBranch(rec, layout, list(_trim(c)[0])) for rec, c in branches],
        {label: sum((_weight(c.sum(axis=(0, 1))) for c in cs), 0.0)
         for label, cs in clicks.items()})


def run_circuit_tracked(circuit: Circuit, state: HybridState,
                        pair: ReflectionPair = IDEAL_PAIR) -> TrackedRun:
    """Run a circuit keeping the leak-count split of every branch.

    Detectors and spin measurements fork branches; every branch of weight
    above the drop threshold is kept, clicked or not, so at a lossless pair
    the branch probabilities sum to the input's squared norm, up to the
    dropped weight.
    """
    return _tracked_run(*_run(circuit, state, pair))


def monomial_support(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The support of c[s-degree, h-degree, *state axes]: the mask [s, h] of the monomials
    with an exactly nonzero coefficient, and the indices on the first state axis with one."""
    nz = c != 0
    return (nz.any(axis=tuple(range(2, c.ndim))),
            np.flatnonzero(nz.any(axis=(0, 1, *range(3, c.ndim)))))


def layer_s_degrees(c: np.ndarray) -> np.ndarray:
    """The one s-degree of each h-degree layer of c[s-degree, h-degree, *state axes]
    with an exactly nonzero coefficient (0 for a zero layer); a layer with several
    is a ConfigurationError."""
    mask, _ = monomial_support(c)
    if mask.sum(axis=0).max() >= 2:
        raise ConfigurationError("coefficients hold several s-degrees in one leak layer")
    return mask.argmax(axis=0)
