"""Reflection coefficients of the single-sided quantum-dot microcavity.

All rates are expressed in units of kappa and all frequencies as
detunings in units of kappa. The hot-cavity coefficient comes from the
steady-state weak-excitation solution of the input-output relations;
the cold-cavity coefficient is its g = 0 reduction. The raw complex
values are applied directly (no inserted minus signs): at resonance r_o
is negative and r_h positive, so the pi phase difference between cold
and hot reflection emerges automatically.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from numbers import Complex, Real

import numpy as np

from .errors import ConfigurationError, NumericDomainError


def _finite(*values) -> bool:
    """Whether every value, scalar or array, is finite; an int too large for a float is not."""
    try:
        return all(np.isfinite(np.asarray(v, dtype=complex)).all() for v in values)
    except OverflowError:
        return False


def _check_real(fields: dict) -> None:
    """Raise ConfigurationError naming the first field holding a value that is not a real number."""
    for name, value in fields.items():
        for item in value if isinstance(value, (tuple, list)) else (value,):
            if not isinstance(item, Real):
                raise ConfigurationError(f"{name} must be a real number, got {item!r}")


@dataclass(frozen=True)
class CavityParams:
    """Physical cavity parameters (rates in units of kappa)."""

    g: float                 # QD-cavity coupling strength
    kappa: float = 1.0       # cavity decay rate (reference unit)
    kappa_s: float = 0.0     # side-leakage rate
    gamma: float = 0.0       # exciton decay rate
    omega: float = 0.0       # input photon frequency (as detuning)
    omega_c: float = 0.0     # cavity frequency
    omega_x: float = 0.0     # trion transition frequency

    def __post_init__(self):
        _check_real(vars(self))
        for name, value in vars(self).items():
            if not _finite(value):
                raise ConfigurationError(f"{name} must be finite")
        if not self.kappa > 0:
            raise ConfigurationError("kappa must be positive")
        if self.kappa_s < 0 or self.gamma < 0 or self.g < 0:
            raise ConfigurationError("kappa_s, gamma and g must be non-negative")


@dataclass(frozen=True)
class ReflectionPair:
    """Cold (r_o) and hot (r_h) complex reflection coefficients, numbers or
    NumPy arrays of them; a coefficient that is not finite is a NumericDomainError."""

    r_o: complex
    r_h: complex

    def __post_init__(self):
        for name, value in vars(self).items():
            if not isinstance(value, Complex) and not (
                    isinstance(value, np.ndarray) and value.dtype.kind in "biufc"):
                raise ConfigurationError(f"{name} must be a complex number or array, got {value!r}")
        if not _finite(self.r_o, self.r_h):
            raise NumericDomainError("reflection coefficients r_o and r_h must be finite")

    @property
    def phi_o(self) -> float:
        return cmath.phase(self.r_o)

    @property
    def phi_h(self) -> float:
        return cmath.phase(self.r_h)

    @property
    def success_amplitude(self) -> complex:
        """Per-passage amplitude of the transmitted (spin-flipping) component."""
        return (self.r_o - self.r_h) / 2

    @property
    def herald_amplitude(self) -> complex:
        """Per-passage amplitude of the unchanged (error) component."""
        return (self.r_o + self.r_h) / 2


#: Lossless strong-coupling limit: full cold reflection with a pi phase,
#: full hot reflection without one.
IDEAL_PAIR = ReflectionPair(r_o=-1.0 + 0.0j, r_h=1.0 + 0.0j)


@dataclass(frozen=True)
class DephasingParams:
    """Cavity photon lifetime tau and trion coherence time Gamma (picoseconds)."""

    tau: float
    big_gamma: float

    def __post_init__(self):
        _check_real(vars(self))
        if not _finite(self.tau, self.big_gamma):
            raise ConfigurationError("tau and Gamma must be finite")
        if not (self.tau >= 0 and self.big_gamma > 0):
            raise ConfigurationError("tau must be >= 0 and Gamma > 0")


def reflection_coefficients(params: CavityParams) -> ReflectionPair:
    """Evaluate the cold and hot reflection coefficients for a parameter set.

    Raises NumericDomainError if the hot-cavity denominator vanishes
    exactly or a coefficient overflows. At g = 0 the hot coefficient
    reduces to the cold one and is returned bit-identically.
    """
    y = 1j * (params.omega_c - params.omega) + (params.kappa + params.kappa_s) / 2
    r_o = (1j * (params.omega_c - params.omega)
           - params.kappa / 2 + params.kappa_s / 2) / y
    r_h = r_o
    if params.g != 0:
        x = 1j * (params.omega_x - params.omega) + params.gamma / 2
        try:
            denom = x * y + params.g ** 2
        except OverflowError:
            raise NumericDomainError(f"g**2 overflows for parameters {params}") from None
        if denom == 0:
            raise NumericDomainError(
                f"hot-cavity denominator vanishes for parameters {params}")
        r_h = 1 - params.kappa * x / denom
    if not (cmath.isfinite(r_o) and cmath.isfinite(r_h)):
        raise NumericDomainError(f"reflection coefficients overflow for parameters {params}")
    return ReflectionPair(r_o=r_o, r_h=r_h)


def reflection_coefficients_grid(kappa_s: np.ndarray, g: np.ndarray, gamma: float,
                                 omega: float) -> tuple[np.ndarray, np.ndarray]:
    """(r_o, r_h) at the points (kappa_s[N], g[N]), with kappa = 1 and the
    cavity and trion on resonance (omega_c = omega_x = 0).

    The formula of reflection_coefficients, in NumPy complex arithmetic,
    whose division may differ from CPython's in the last bit. Points that
    the scalar function would reject (all of them if gamma or omega is
    invalid) are handed to it in array order, so the first one raises its
    error and message. NumPy's division also overflows on a subnormal
    denominator, where CPython's does not; such a point keeps the scalar
    function's values.
    """
    kappa, detuning = 1.0, 0.0 - omega  # omega_c - omega, sign of a zero included
    with np.errstate(all="ignore"):
        y = 1j * detuning + (kappa + kappa_s) / 2
        r_o = (1j * detuning - kappa / 2 + kappa_s / 2) / y
        x = 1j * detuning + gamma / 2
        g2 = g ** 2
        denom = x * y + g2
        r_h = np.where(g == 0, r_o, 1 - kappa * x / denom)
        # a non-finite kappa_s gives r_o = nan, a non-finite g a non-finite
        # g2, and a zero denominator a non-finite r_h
        bad = ~((kappa_s >= 0) & (g >= 0) & ((g == 0) | np.isfinite(g2))
                & np.isfinite(r_o) & np.isfinite(r_h))
    if not (math.isfinite(gamma) and gamma >= 0 and math.isfinite(omega)):
        bad[:] = True
    for i in np.flatnonzero(bad):
        pair = reflection_coefficients(CavityParams(
            g=float(g[i]), kappa_s=float(kappa_s[i]), gamma=gamma, omega=omega))
        r_o[i], r_h[i] = pair.r_o, pair.r_h
    return r_o, r_h


def reflection_operator(pair: ReflectionPair) -> np.ndarray:
    """Spin-selective reflection map on {R up, R down, L up, L down}.

    The uncoupled transitions (R, up) and (L, down) pick up r_o; the
    coupled ones (R, down) and (L, up) pick up r_h.
    """
    return np.diag([pair.r_o, pair.r_h, pair.r_h, pair.r_o]).astype(complex)


def dephasing_penalty(d: DephasingParams) -> float:
    """Fidelity reduction 1 - exp(-tau/Gamma) from exciton dephasing."""
    return float(1.0 - np.exp(-d.tau / d.big_gamma))
