import cmath
import math
import warnings
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest

from hyperbell.cavity import (
    CavityParams,
    DephasingParams,
    IDEAL_PAIR,
    ReflectionPair,
    dephasing_penalty,
    reflection_coefficients,
    reflection_coefficients_grid,
    reflection_operator,
)
from hyperbell.errors import ConfigurationError, NumericDomainError


def mp_reflection(g, kappa, kappa_s, gamma, omega, omega_c, omega_x):
    """High-precision evaluation of the steady-state reflection coefficient."""
    with mpmath.workdps(50):
        x = mpmath.mpc(gamma / 2, omega_x - omega)
        y = mpmath.mpc((kappa + kappa_s) / 2, omega_c - omega)
        r = 1 - kappa * x / (x * y + g ** 2)
        return complex(r)


class TestReflectionCoefficients:
    def test_cold_cavity_at_resonance_is_minus_one(self):
        pair = reflection_coefficients(CavityParams(g=0.0))
        assert pair.r_o == -1.0 + 0.0j
        assert pair.r_h == -1.0 + 0.0j

    def test_hot_cavity_example(self):
        # g = kappa, gamma = 0.1 kappa, no leakage, resonance: r_h = 39/41
        pair = reflection_coefficients(CavityParams(g=1.0, gamma=0.1))
        oracle = mp_reflection(1.0, 1.0, 0.0, 0.1, 0.0, 0.0, 0.0)
        assert abs(pair.r_h - oracle) < 1e-15
        assert abs(pair.r_h - 39 / 41) < 1e-15
        assert abs(pair.r_h.real - 0.951220) < 1e-6

    def test_oracle_agreement_off_resonance(self):
        # the full formula, with kappa = 1 and the cavity and trion on resonance
        pair = reflection_coefficients(CavityParams(g=0.7, kappa_s=0.3, gamma=0.2, omega=0.4))
        oracle = mp_reflection(0.7, 1.0, 0.3, 0.2, 0.4, 0.0, 0.0)
        assert abs(pair.r_h - oracle) < 1e-14

    def test_strong_coupling_phase_difference_is_pi(self):
        pair = reflection_coefficients(CavityParams(g=5.0, gamma=0.1))
        assert abs(pair.r_o) > 0.999
        assert abs(pair.r_h) > 0.99
        diff = (pair.phi_h - pair.phi_o) % (2 * math.pi)
        assert abs(diff - math.pi) < 1e-12

    def test_invalid_params_rejected(self):
        with pytest.raises(ConfigurationError):
            CavityParams(g=-1.0)
        with pytest.raises(ConfigurationError):
            CavityParams(g=1.0, gamma=-0.1)
        for field in ("g", "kappa_s", "gamma", "omega"):
            for bad in (math.nan, math.inf, -math.inf):
                with pytest.raises(ConfigurationError, match=f"^{field} must be finite$"):
                    CavityParams(**{"g": 1.0, field: bad})

    @pytest.mark.parametrize("params", [None, "x", 1.0, (1, 2), {"g": 1}],
                             ids=["none", "str", "float", "tuple", "dict"])
    def test_non_params_is_configuration_error(self, params):
        message = f"^reflection_coefficients takes a CavityParams, not {type(params).__name__}$"
        with pytest.raises(ConfigurationError, match=message):
            reflection_coefficients(params)

    def test_overflow_is_numeric_domain_error(self):
        # g**2 overflows; and x * y overflows to a NaN coefficient
        for params in (CavityParams(g=1e200, gamma=1e200),
                       CavityParams(g=1e150, kappa_s=1e308, omega=1e308)):
            with pytest.raises(NumericDomainError):
                reflection_coefficients(params)

    def test_vanishing_denominator_is_numeric_domain_error(self):
        # on resonance with gamma = 0, x = 0, and g**2 = 1e-400 underflows to 0
        with pytest.raises(NumericDomainError, match="^hot-cavity denominator vanishes"):
            reflection_coefficients(CavityParams(g=1e-200, gamma=0.0))

    def test_moduli_bounded_over_random_physical_parameters(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            params = CavityParams(
                g=float(rng.uniform(0, 5)),
                kappa_s=float(rng.uniform(0, 3)),
                gamma=float(rng.uniform(0, 2)),
                omega=float(rng.uniform(-5, 5)),
            )
            pair = reflection_coefficients(params)
            assert abs(pair.r_o) <= 1 + 1e-12
            assert abs(pair.r_h) <= 1 + 1e-12

    def test_uncoupled_equals_cold_bit_for_bit(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            params = CavityParams(
                g=0.0,
                kappa_s=float(rng.uniform(0, 2)),
                gamma=float(rng.uniform(0, 2)),
                omega=float(rng.uniform(-5, 5)),
            )
            pair = reflection_coefficients(params)
            assert pair.r_h == pair.r_o

    def test_resonant_coefficients_are_real(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            pair = reflection_coefficients(CavityParams(
                g=float(rng.uniform(0, 4)),
                kappa_s=float(rng.uniform(0, 2)),
                gamma=float(rng.uniform(0, 2)),
            ))
            assert pair.r_o.imag == 0.0
            assert pair.r_h.imag == 0.0

    def test_lossless_moduli_are_unity(self):
        pair = reflection_coefficients(CavityParams(g=2.0, kappa_s=0.0, gamma=0.0,
                                                    omega=0.7))
        assert abs(abs(pair.r_o) - 1) < 1e-12
        assert abs(abs(pair.r_h) - 1) < 1e-12


class TestReflectionCoefficientsGrid:
    def _scalar(self, kappa_s, g, gamma, omega):
        return [reflection_coefficients(CavityParams(g=gi, kappa_s=ki, gamma=gamma, omega=omega))
                for ki, gi in zip(kappa_s.tolist(), g.tolist())]

    @pytest.mark.parametrize("gamma,omega", [(0.1, 0.0), (0.2, 0.3), (0.0, -1.7)])
    def test_matches_scalar_path(self, rng, gamma, omega):
        kappa_s = np.concatenate([[0.0, 0.0], rng.uniform(0.0, 2.0, 200)])
        g = np.concatenate([[0.0, 1.0], rng.uniform(0.0, 6.0, 200)])
        r_o, r_h = reflection_coefficients_grid(kappa_s, g, gamma, omega)
        for a_o, a_h, pair in zip(r_o, r_h, self._scalar(kappa_s, g, gamma, omega)):
            assert abs(a_o - pair.r_o) < 1e-15
            assert abs(a_h - pair.r_h) < 1e-15

    def test_uncoupled_equals_cold_bit_for_bit(self):
        kappa_s = np.array([0.0, 0.3, 1.7])
        r_o, r_h = reflection_coefficients_grid(kappa_s, np.zeros(3), 0.1, 0.4)
        assert r_h.tobytes() == r_o.tobytes()

    def test_subnormal_denominator_keeps_scalar_values(self):
        # g**2 = 1e-320 is the whole denominator: NumPy's division overflows
        # on it, CPython's gives r_h = 1
        kappa_s, g = np.array([0.5, 0.5]), np.array([1.0, 1e-160])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r_o, r_h = reflection_coefficients_grid(kappa_s, g, 0.0, 0.0)
        (_, pair) = self._scalar(kappa_s, g, 0.0, 0.0)
        assert (r_o[1], r_h[1]) == (pair.r_o, pair.r_h) == (-1 / 3, 1.0)

    @pytest.mark.parametrize("kappa_s,g,gamma,omega", [
        ((0.0, 0.1), (1.0, 1e200), 0.1, 0.0),        # g**2 overflows
        ((0.0, 0.1), (1.0, math.inf), 0.1, 0.0),     # g not finite
        ((0.0, -0.1), (1.0, 1.0), 0.1, 0.0),         # negative kappa_s
        ((0.0, 0.1), (1.0, 1.0), -0.1, 0.0),         # negative gamma
        ((0.0, 0.1), (1.0, 1.0), 0.1, math.nan),     # omega not finite
        ((0.0, 1e308), (1.0, 1e150), 0.1, 1e308),    # coefficients overflow
    ])
    def test_rejects_what_the_scalar_path_rejects(self, kappa_s, g, gamma, omega):
        for k, gi in zip(kappa_s, g):
            try:
                reflection_coefficients(CavityParams(g=gi, kappa_s=k, gamma=gamma, omega=omega))
            except (ConfigurationError, NumericDomainError) as exc:
                expected = exc
                break
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(type(expected)) as got:
                reflection_coefficients_grid(np.array(kappa_s), np.array(g), gamma, omega)
        assert str(got.value) == str(expected)


class TestReflectionOperator:
    def test_ideal_operator_action(self):
        op = reflection_operator(IDEAL_PAIR)
        np.testing.assert_allclose(op, np.diag([-1, 1, 1, -1]), atol=1e-15)

    def test_equal_pair_gives_identity(self):
        op = reflection_operator(ReflectionPair(r_o=1.0, r_h=1.0))
        np.testing.assert_allclose(op, np.eye(4), atol=1e-15)

    def test_example_pair_matrix(self):
        # oracle: direct substitution of the resonance example values
        pair = reflection_coefficients(CavityParams(g=1.0, gamma=0.1))
        op = reflection_operator(pair)
        np.testing.assert_allclose(
            op, np.diag([-1.0, 0.9512195121951219, 0.9512195121951219, -1.0]),
            atol=1e-12)

    def test_amplitude_split_reconstructs_operator(self):
        pair = reflection_coefficients(CavityParams(g=0.8, kappa_s=0.4, gamma=0.3,
                                                    omega=0.2))
        s, h = pair.success_amplitude, pair.herald_amplitude
        rebuilt = h * np.eye(4) + s * np.diag([1, -1, -1, 1])
        np.testing.assert_allclose(reflection_operator(pair), rebuilt, atol=1e-15)


class TestDephasingPenalty:
    def test_zero_lifetime_means_zero_penalty(self):
        assert dephasing_penalty(DephasingParams(tau=0.0, big_gamma=100.0)) == 0.0

    def test_twenty_over_three_hundred(self):
        # scalar oracle: 1 - exp(-1/15)
        penalty = dephasing_penalty(DephasingParams(tau=20.0, big_gamma=300.0))
        assert abs(penalty - (1.0 - math.exp(-20.0 / 300.0))) < 1e-15
        assert abs(penalty - 0.06449) < 1e-4
        assert penalty < 0.10

    def test_equal_times(self):
        penalty = dephasing_penalty(DephasingParams(tau=300.0, big_gamma=300.0))
        assert abs(penalty - (1.0 - 1.0 / math.e)) < 1e-15

    @pytest.mark.parametrize("d", [None, "x", (20.0, 300.0),
                                   SimpleNamespace(tau=20.0, big_gamma=300.0)],
                             ids=["none", "str", "tuple", "namespace"])
    def test_non_params_is_configuration_error(self, d):
        message = f"^dephasing_penalty takes a DephasingParams, not {type(d).__name__}$"
        with pytest.raises(ConfigurationError, match=message):
            dephasing_penalty(d)

    def test_invalid_rejected(self):
        with pytest.raises(ConfigurationError):
            DephasingParams(tau=1.0, big_gamma=0.0)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ConfigurationError):
                DephasingParams(tau=bad, big_gamma=300.0)
            with pytest.raises(ConfigurationError):
                DephasingParams(tau=20.0, big_gamma=bad)


class TestPhases:
    def test_phases_follow_complex_arguments(self):
        pair = ReflectionPair(r_o=-0.5 + 0.5j, r_h=0.25 - 0.1j)
        assert pair.phi_o == cmath.phase(-0.5 + 0.5j)
        assert pair.phi_h == cmath.phase(0.25 - 0.1j)


class TestReflectionPairDomain:
    @pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf,
                                     complex(0.0, math.inf), complex(math.nan, 1.0)))
    def test_non_finite_coefficient_rejected(self, bad):
        for args in ((bad, 1.0), (-1.0, bad)):
            with pytest.raises(NumericDomainError, match="must be finite"):
                ReflectionPair(*args)

    def test_arrays_checked_elementwise(self):
        # run_sweep holds a whole grid in one pair of arrays
        r = np.array([-1.0, 0.5 + 0.1j, 1.3])
        pair = ReflectionPair(r, r[::-1])
        np.testing.assert_array_equal(pair.success_amplitude, (r - r[::-1]) / 2)
        with pytest.raises(NumericDomainError, match="must be finite"):
            ReflectionPair(r, np.array([1.0, math.nan, 0.0]))
        with pytest.raises(NumericDomainError, match="must be finite"):
            ReflectionPair(np.array([math.inf, 0.0, 0.0]), r)


class TestHugeInts:
    """A Python int is checked as the float it converts to: one too large for a
    float gets its type's own non-finite error, not a TypeError or OverflowError."""

    @pytest.mark.parametrize("make, error, message", [
        (lambda v: ReflectionPair(v, 1), NumericDomainError, "must be finite"),
        (lambda v: ReflectionPair(-1.0, v), NumericDomainError, "must be finite"),
        (lambda v: CavityParams(g=v), ConfigurationError, "^g must be finite$"),
        (lambda v: CavityParams(g=1.0, omega=v), ConfigurationError, "^omega must be finite$"),
        (lambda v: DephasingParams(v, 1), ConfigurationError, "^tau and Gamma must be finite$"),
        (lambda v: DephasingParams(0, v), ConfigurationError, "^tau and Gamma must be finite$"),
    ], ids=["pair-r_o", "pair-r_h", "cavity-g", "cavity-omega", "dephasing-tau",
            "dephasing-gamma"])
    def test_int_past_float_range_is_not_finite(self, make, error, message):
        make(10**20)  # past int64, but a finite float
        for huge in (10**400, -10**400):
            with pytest.raises(error, match=message):
                make(huge)

    def test_int_within_float_range_is_usable(self):
        pair = ReflectionPair(10**20, 1)
        assert pair.success_amplitude == (10**20 - 1) / 2
        assert reflection_coefficients(CavityParams(g=10**20)).r_o == -1


class TestValueTypes:
    """A field of the wrong type is a ConfigurationError naming the field, not a
    bare TypeError or ValueError, and a string is not taken for a number."""

    @pytest.mark.parametrize("make, field", [
        (lambda: CavityParams(g=1j), "g"),
        (lambda: CavityParams(g="1"), "g"),
        (lambda: CavityParams(g=1, omega=1j), "omega"),
        (lambda: CavityParams(g=1, gamma="0.1"), "gamma"),
        (lambda: DephasingParams(1j, 1), "tau"),
        (lambda: DephasingParams("1", 1), "tau"),
        (lambda: DephasingParams(1, "300"), "big_gamma"),
        (lambda: ReflectionPair(1j, "x"), "r_h"),
        (lambda: ReflectionPair("1", "1"), "r_o"),
        (lambda: ReflectionPair(-1.0, np.array(["1"])), "r_h"),
        (lambda: ReflectionPair([1], [1]), "r_o"),
        (lambda: ReflectionPair(-1.0, (1.0,)), "r_h"),
        (lambda: CavityParams(g=[1.0]), "g"),
        (lambda: CavityParams(g=1, gamma=(0.1,)), "gamma"),
        (lambda: DephasingParams(1, [300.0]), "big_gamma"),
        (lambda: DephasingParams((), 3.0), "tau"),
    ], ids=["cavity-g-complex", "cavity-g-str", "cavity-omega-complex", "cavity-gamma-str",
            "dephasing-tau-complex", "dephasing-tau-str", "dephasing-gamma-str",
            "pair-r_h-str", "pair-r_o-str", "pair-r_h-str-array", "pair-r_o-list",
            "pair-r_h-tuple", "cavity-g-list", "cavity-gamma-tuple", "dephasing-gamma-list",
            "dephasing-tau-empty-tuple"])
    def test_wrong_type_names_the_field(self, make, field):
        with pytest.raises(ConfigurationError, match=f"^{field} must be a"):
            make()

    def test_numbers_of_every_numeric_type_are_accepted(self):
        assert CavityParams(g=np.float64(1.0), omega=1, gamma=np.int64(0)).omega == 1
        assert DephasingParams(np.float32(20.0), 300).big_gamma == 300
        for r_o, r_h in ((-1, 1.0), (np.complex128(-1), 1 + 0j), (np.array([-1]), np.ones(1))):
            assert ReflectionPair(r_o, r_h).success_amplitude == -1
