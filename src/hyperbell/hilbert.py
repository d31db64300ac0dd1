"""Dense complex state vector over the hybrid two-photon + two-spin space.

The joint basis is ordered (polA, pathA, polB, pathB, spin1, spin2),
lexicographic in that tuple. Polarization uses the circular basis
{R, L}; electron spins use the z basis {up, down}, with the X basis
written "+" / "-" for (up +/- down)/sqrt(2). States may be
subnormalized: heralding and waveform correction deliberately shrink
the squared norm. Measurement is done by the circuit runner in optics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import ConfigurationError

# basis indices
R, L = 0, 1

_SQRT2 = np.sqrt(2.0)
# Hadamard: R/L <-> H/V for polarization
_HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / _SQRT2

# named single-factor vectors
POL_R = np.array([1.0, 0.0], dtype=complex)
POL_L = np.array([0.0, 1.0], dtype=complex)
POL_H = np.array([1.0, 1.0], dtype=complex) / _SQRT2  # (R+L)/sqrt2
POL_V = np.array([1.0, -1.0], dtype=complex) / _SQRT2  # (R-L)/sqrt2
SPIN_UP = np.array([1.0, 0.0], dtype=complex)
SPIN_DOWN = np.array([0.0, 1.0], dtype=complex)
# the spin X basis, once: row e is sqrt2 <e| for e = "+", "-" (real, so no -0j below)
_SPIN_X_SIGNS = np.array([[1.0, 1.0], [1.0, -1.0]])
SPIN_PLUS, SPIN_MINUS = (_SPIN_X_SIGNS / _SQRT2).astype(complex)  # (up +/- down)/sqrt2
# X-basis spin projectors |e><e|, one per measurement outcome e
_SPIN_X_PROJ = {e: (np.outer(row, row) / 2).astype(complex) for e, row in zip("+-", _SPIN_X_SIGNS)}

_POL_NAMES = {"R": POL_R, "L": POL_L, "H": POL_H, "V": POL_V}
_SPIN_NAMES = {"up": SPIN_UP, "down": SPIN_DOWN, "+": SPIN_PLUS, "-": SPIN_MINUS}

AMP_TOL = 1e-12  # amplitude comparisons


def _vector(values, n: int, noun: str, given) -> np.ndarray:
    """values as a new complex array of n finite numbers; anything else, such as None,
    a string or nan, is "<noun> must have length <n> and finite entries: <given>"."""
    try:
        v = np.asarray(values)
        if v.dtype.kind in "biufc" and v.shape == (n,) and np.isfinite(v).all():
            return v.astype(complex)
    except ValueError:  # a ragged array
        pass
    raise ConfigurationError(f"{noun} must have length {n} and finite entries: {given!r}")


def _two_vector(x, names: dict, unknown: str, noun: str) -> np.ndarray:
    """A copy of names[x] for a name x, else x as a length-2 complex array."""
    if isinstance(x, str):
        try:
            return names[x].copy()
        except KeyError:
            raise ConfigurationError(f"unknown {unknown} {x!r}") from None
    return _vector(x, 2, f"{noun} vector", x)


def pol_vector(x) -> np.ndarray:
    """Coerce "R"/"L"/"H"/"V" or a length-2 array to a polarization vector."""
    return _two_vector(x, _POL_NAMES, "polarization", "polarization")


def spin_vector(x) -> np.ndarray:
    """Coerce "up"/"down"/"+"/"-" or a length-2 array to a spin vector."""
    return _two_vector(x, _SPIN_NAMES, "spin state", "spin")


@dataclass(frozen=True)
class StateLayout:
    """Fixed basis layout: photon names and their admissible path labels."""

    photons: tuple[str, str]
    paths: tuple[tuple[str, ...], tuple[str, ...]]

    def __post_init__(self):
        if len(self.photons) != 2 or self.photons[0] == self.photons[1]:
            raise ConfigurationError("layout needs two distinct photon names")
        for plist in self.paths:
            if len(set(plist)) != len(plist) or not plist:
                raise ConfigurationError("photon path lists must be nonempty and unique")

    @property
    def shape(self) -> tuple[int, ...]:
        return (2, len(self.paths[0]), 2, len(self.paths[1]), 2, 2)

    def photon_slot(self, photon: str) -> int:
        try:
            return self.photons.index(photon)
        except ValueError:
            raise ConfigurationError(f"unknown photon {photon!r}") from None

    def path_index(self, photon: str, path: str) -> int:
        slot = self.photon_slot(photon)
        try:
            return self.paths[slot].index(path)
        except ValueError:
            raise ConfigurationError(
                f"path {path!r} is not admissible for photon {photon!r}"
            ) from None

    def path_vector(self, photon: str, x) -> np.ndarray:
        """Coerce a path label, {label: amp} mapping, or array to a path vector
        (_vector: an entry that is not a finite number is a ConfigurationError)."""
        n, entries = len(self.paths[self.photon_slot(photon)]), x
        if isinstance(x, str):
            v = np.zeros(n, dtype=complex)
            v[self.path_index(photon, x)] = 1.0
            return v
        if isinstance(x, Mapping):
            amps = {self.path_index(photon, label): amp for label, amp in x.items()}
            entries = [amps.get(i, 0.0) for i in range(n)]
        return _vector(entries, n, f"path vector for photon {photon!r}", x)


@dataclass
class HybridState:
    """Amplitudes over the (polA, pathA, polB, pathB, spin1, spin2) basis."""

    layout: StateLayout
    amps: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.amps, dtype=complex)
        if a.shape != self.layout.shape:
            raise ConfigurationError(
                f"amplitude shape {a.shape} does not match layout shape {self.layout.shape}"
            )
        self.amps = a

    @property
    def norm2(self) -> float:
        return float(np.sum(np.abs(self.amps) ** 2))

    def normalized(self) -> "HybridState":
        n2 = self.norm2
        if n2 <= 0.0:
            raise ConfigurationError("cannot normalize a zero state")
        return HybridState(self.layout, self.amps / np.sqrt(n2))


def zero_state(layout: StateLayout) -> HybridState:
    return HybridState(layout, np.zeros(layout.shape, dtype=complex))


def product_state(layout: StateLayout, pol_a, path_a, pol_b, path_b,
                  spin1="+", spin2="+") -> HybridState:
    """Build a product state from per-factor vectors or names."""
    amps = np.einsum(
        "a,b,c,d,e,f->abcdef",
        pol_vector(pol_a),
        layout.path_vector(layout.photons[0], path_a),
        pol_vector(pol_b),
        layout.path_vector(layout.photons[1], path_b),
        spin_vector(spin1),
        spin_vector(spin2),
    )
    return HybridState(layout, amps)


# ---------------------------------------------------------------------------
# low-level kernels (operate on raw amplitude arrays whose last six axes are
# the basis; any leading axes, such as the runner's degree axes, are batched)

def _apply_photon_matrix(amps: np.ndarray, slot: int, mat: np.ndarray) -> np.ndarray:
    """Apply a (2n x 2n) matrix over the pol-major (pol, path) index of one photon."""
    # photon A's index is followed by (polB, pathB, s1, s2), photon B's by (s1, s2)
    inner = math.prod(amps.shape[-4:]) if slot == 0 else 4
    return (mat @ amps.reshape(-1, mat.shape[0], inner)).reshape(amps.shape)


# the (polarization, spin) axes per (photon slot, spin slot) of a one-path view:
# photon A's has axes (..., polA, polB, pathB, s1, s2), photon B's (..., polA, pathA, polB, s1, s2)
_POLSPIN_AXES = {(p, q): (2 * p - 5, q - 2) for p in (0, 1) for q in (0, 1)}


def _path_slice(slot: int, path_idx: int, pol=slice(None)) -> tuple:
    """Index selecting the amplitudes with photon ``slot`` on one path,
    in one polarization (R or L) or in both (the default)."""
    return (Ellipsis, pol, path_idx) + (slice(None),) * (4 if slot == 0 else 2)


def _project_path(amps: np.ndarray, slot: int, path_idx: int,
                  pol=slice(None)) -> np.ndarray:
    """Keep only amplitudes with the photon on the given path (and polarization)."""
    out = np.zeros_like(amps)
    on_path = _path_slice(slot, path_idx, pol)
    out[on_path] = amps[on_path]
    return out


def _apply_spin_matrix(amps: np.ndarray, spin_slot: int, mat2: np.ndarray) -> np.ndarray:
    """Apply a 2x2 matrix to one spin; spin 1's as mat2 (x) identity on (s1, s2)."""
    if spin_slot == 1:
        return (amps.reshape(-1, 2) @ mat2.T).reshape(amps.shape)
    mat4 = np.zeros((4, 4), dtype=complex)
    mat4[0::2, 0::2] = mat4[1::2, 1::2] = mat2
    return (amps.reshape(-1, 4) @ mat4.T).reshape(amps.shape)


def _x_amplitudes(amps: np.ndarray) -> np.ndarray:
    """Amplitudes [..., s1, s2] in the X basis of both spins, [..., e1, e2] with 0 for "+"
    and 1 for "-": signs and one 0.5, so exact on the polynomial mode's dyadic coefficients."""
    return 0.5 * _apply_spin_matrix(_apply_spin_matrix(amps, 0, _SPIN_X_SIGNS), 1, _SPIN_X_SIGNS)


# ---------------------------------------------------------------------------
# public operations

def apply_single_photon_op(state: HybridState, photon: str, op: np.ndarray) -> HybridState:
    """Apply a linear map on one photon's (polarization (x) path) factor.

    op must be a (2n x 2n) complex matrix over the photon's pol-major
    (pol, path) index; the other photon and both spins are untouched.
    """
    slot = state.layout.photon_slot(photon)
    n = len(state.layout.paths[slot])
    op = np.asarray(op, dtype=complex)
    if op.shape != (2 * n, 2 * n):
        raise ConfigurationError(
            f"operator shape {op.shape} does not match photon {photon!r} space (dim {2 * n})"
        )
    return HybridState(state.layout, _apply_photon_matrix(state.amps, slot, op))


def apply_spin_conditional_op(state: HybridState, photon: str, spin: int,
                              op: np.ndarray, path: str) -> HybridState:
    """Apply a 4x4 map on (photon polarization (x) spin), only where the photon
    occupies the designated path.

    op is in the {R up, R down, L up, L down} basis; spin is 1 or 2.
    """
    if spin not in (1, 2):
        raise ConfigurationError("spin must be 1 or 2")
    slot = state.layout.photon_slot(photon)
    path_idx = state.layout.path_index(photon, path)
    op = np.asarray(op, dtype=complex)
    if op.shape != (4, 4):
        raise ConfigurationError("spin-conditional operator must be 4x4")
    amps, axes = state.amps.copy(), _POLSPIN_AXES[slot, spin - 1]
    on_path = _path_slice(slot, path_idx)
    moved = np.moveaxis(amps[on_path], axes, (-2, -1))  # (pol, spin) last, pol-major
    out = moved.reshape(moved.shape[:-2] + (4,)) @ op.T
    amps[on_path] = np.moveaxis(out.reshape(moved.shape), (-2, -1), axes)
    return HybridState(state.layout, amps)


def overlap(a: HybridState, b: HybridState) -> complex:
    """Inner product <a|b>; |overlap|^2 is the fidelity for normalized states."""
    if a.layout != b.layout:
        raise ConfigurationError("overlap requires identical basis layouts")
    return complex(np.vdot(a.amps, b.amps))


@dataclass(frozen=True)
class BranchOutcome:
    """One measurement branch: record of outcomes, collapsed state, probability."""

    record: tuple[tuple[str, str], ...]
    residual: HybridState
    probability: float


# ---------------------------------------------------------------------------
# display helper

def format_state(state: HybridState) -> str:
    """Human-readable ket expansion, spins shown in the X basis; amplitudes
    of modulus 1e-9 or less are left out."""
    tol = 1e-9
    amps = _x_amplitudes(state.amps)
    spin_names = ("+", "-")
    pol_names = ("R", "L")
    parts = []
    for idx in np.ndindex(amps.shape):
        amp = amps[idx]
        if abs(amp) <= tol:
            continue
        pa, xa, pb, xb, s1, s2 = idx
        ket = (f"{pol_names[pa]} {state.layout.paths[0][xa]}; "
               f"{pol_names[pb]} {state.layout.paths[1][xb]}; "
               f"{spin_names[s1]}{spin_names[s2]}")
        if abs(amp.imag) <= tol:
            coeff = f"{amp.real:+.6f}"
        else:
            coeff = f"+({amp.real:.6f}{amp.imag:+.6f}i)"
        parts.append(f"{coeff}|{ket}>")
    return " ".join(parts) if parts else "0"
