"""Dense complex state vector over the hybrid two-photon + two-spin space.

The joint basis is ordered (polA, pathA, polB, pathB, spin1, spin2),
lexicographic in that tuple. Polarization uses the circular basis
{R, L}; electron spins use the z basis {up, down}, with the X basis
written "+" / "-" for (up +/- down)/sqrt(2). States may be
subnormalized: heralding and waveform correction deliberately shrink
the squared norm. Measurement is done by the circuit runner in optics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import ConfigurationError

# basis indices
R, L = 0, 1
UP, DOWN = 0, 1

_SQRT2 = np.sqrt(2.0)
# Hadamard: R/L <-> H/V for polarization, z <-> x basis for spins
_HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / _SQRT2

# named single-factor vectors
POL_R = np.array([1.0, 0.0], dtype=complex)
POL_L = np.array([0.0, 1.0], dtype=complex)
POL_H = np.array([1.0, 1.0], dtype=complex) / _SQRT2  # (R+L)/sqrt2
POL_V = np.array([1.0, -1.0], dtype=complex) / _SQRT2  # (R-L)/sqrt2
SPIN_UP = np.array([1.0, 0.0], dtype=complex)
SPIN_DOWN = np.array([0.0, 1.0], dtype=complex)
SPIN_PLUS = np.array([1.0, 1.0], dtype=complex) / _SQRT2  # (up+down)/sqrt2
SPIN_MINUS = np.array([1.0, -1.0], dtype=complex) / _SQRT2

_POL_NAMES = {"R": POL_R, "L": POL_L, "H": POL_H, "V": POL_V}
_SPIN_NAMES = {"up": SPIN_UP, "down": SPIN_DOWN, "+": SPIN_PLUS, "-": SPIN_MINUS}

AMP_TOL = 1e-12  # amplitude comparisons


def pol_vector(x) -> np.ndarray:
    """Coerce "R"/"L"/"H"/"V" or a length-2 array to a polarization vector."""
    if isinstance(x, str):
        try:
            return _POL_NAMES[x].copy()
        except KeyError:
            raise ConfigurationError(f"unknown polarization {x!r}") from None
    v = np.asarray(x, dtype=complex)
    if v.shape != (2,):
        raise ConfigurationError("polarization vector must have length 2")
    return v


def spin_vector(x) -> np.ndarray:
    """Coerce "up"/"down"/"+"/"-" or a length-2 array to a spin vector."""
    if isinstance(x, str):
        try:
            return _SPIN_NAMES[x].copy()
        except KeyError:
            raise ConfigurationError(f"unknown spin state {x!r}") from None
    v = np.asarray(x, dtype=complex)
    if v.shape != (2,):
        raise ConfigurationError("spin vector must have length 2")
    return v


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

    @property
    def dim(self) -> int:
        return int(np.prod(self.shape))

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
        """Coerce a path label, {label: amp} mapping, or array to a path vector."""
        n = len(self.paths[self.photon_slot(photon)])
        if isinstance(x, str):
            v = np.zeros(n, dtype=complex)
            v[self.path_index(photon, x)] = 1.0
            return v
        if isinstance(x, Mapping):
            v = np.zeros(n, dtype=complex)
            for label, amp in x.items():
                v[self.path_index(photon, label)] = amp
            return v
        v = np.asarray(x, dtype=complex)
        if v.shape != (n,):
            raise ConfigurationError(f"path vector for photon {photon!r} must have length {n}")
        return v


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
# low-level kernels (operate on raw amplitude arrays)

def _apply_photon_matrix(amps: np.ndarray, slot: int, mat: np.ndarray) -> np.ndarray:
    """Apply a (2n x 2n) matrix over the pol-major (pol, path) index of one photon."""
    if slot == 0:
        d = amps.shape[0] * amps.shape[1]
        return (mat @ amps.reshape(d, -1)).reshape(amps.shape)
    moved = np.moveaxis(amps, (2, 3), (0, 1))
    d = moved.shape[0] * moved.shape[1]
    out = (mat @ moved.reshape(d, -1)).reshape(moved.shape)
    return np.moveaxis(out, (0, 1), (2, 3))


def _apply_polspin_at_path(amps: np.ndarray, slot: int, path_idx: int,
                           spin_slot: int, mat4: np.ndarray) -> np.ndarray:
    """Apply a 4x4 map on (photon polarization (x) one spin), restricted to a path.

    mat4 is in the pol-major basis {R up, R down, L up, L down}. Amplitudes
    with the photon on any other path are untouched.
    """
    m = mat4.reshape(2, 2, 2, 2)  # [pol', spin', pol, spin]
    out = amps.copy()
    if slot == 0:
        view = amps[:, path_idx]  # axes: polA, polB, pathB, s1, s2
        if spin_slot == 0:
            out[:, path_idx] = np.einsum("PSps,pqbst->PqbSt", m, view)
        else:
            out[:, path_idx] = np.einsum("PTpt,pqbst->PqbsT", m, view)
    else:
        view = amps[:, :, :, path_idx]  # axes: polA, pathA, polB, s1, s2
        if spin_slot == 0:
            out[:, :, :, path_idx] = np.einsum("QSqs,paqst->paQSt", m, view)
        else:
            out[:, :, :, path_idx] = np.einsum("QTqt,paqst->paQsT", m, view)
    return out


def _project_path(amps: np.ndarray, slot: int, path_idx: int) -> np.ndarray:
    """Keep only amplitudes with the photon on the given path."""
    out = np.zeros_like(amps)
    if slot == 0:
        out[:, path_idx] = amps[:, path_idx]
    else:
        out[:, :, :, path_idx] = amps[:, :, :, path_idx]
    return out


def _apply_spin_matrix(amps: np.ndarray, spin_slot: int, mat2: np.ndarray) -> np.ndarray:
    axis = 4 + spin_slot
    moved = np.moveaxis(amps, axis, 0)
    out = np.tensordot(mat2, moved, axes=([1], [0]))
    return np.moveaxis(out, 0, axis)


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
    return HybridState(
        state.layout,
        _apply_polspin_at_path(state.amps, slot, path_idx, spin - 1, op),
    )


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

def format_state(state: HybridState, tol: float = 1e-9, spin_basis: str = "x") -> str:
    """Human-readable ket expansion, spins shown in the X basis by default."""
    amps = state.amps
    if spin_basis == "x":
        amps = _apply_spin_matrix(_apply_spin_matrix(amps, 0, _HADAMARD), 1, _HADAMARD)
        spin_names = ("+", "-")
    elif spin_basis == "z":
        spin_names = ("up", "dn")
    else:
        raise ConfigurationError("spin_basis must be 'x' or 'z'")
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
