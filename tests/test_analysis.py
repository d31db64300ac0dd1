import math
import re
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import polynomial_run_at
from hyperbell.analysis import (
    SweepGrid,
    efficiency_closed_form,
    emit_csv,
    emit_svg_heatmap,
    fidelity,
    hbsa_leakage_rate,
    hbsg_branch_report,
    hbsg_statistics,
    parse_csv,
    run_sweep,
    svg_cell_geometry,
    sweep_point,
    CSV_COLUMNS,
    SVG_MARGIN_LEFT,
    SVG_MARGIN_TOP,
)
from hyperbell.cavity import (
    IDEAL_PAIR,
    CavityParams,
    DephasingParams,
    ReflectionPair,
    reflection_coefficients,
)
from hyperbell.errors import ConfigurationError, NumericDomainError
from hyperbell.hilbert import zero_state
from hyperbell.optics import _BRANCH_DROP, parse_circuit, run_circuit_tracked
from hyperbell.protocols import (
    HBSG_CIRCUIT_TEXT,
    HBSG_OUTPUT_RAILS,
    HBSG_OUTPUT_TABLE,
    Bell,
    HyperBellLabel,
    _split_stage1,
    hbsg_input,
    make_bell,
    run_hbsa,
)

EXAMPLE_PAIR = reflection_coefficients(CavityParams(g=1.0, gamma=0.1))


class TestFidelity:
    def test_identical_states(self, small_layout):
        state = make_bell(Bell.PHI_PLUS, Bell.PSI_MINUS, small_layout)
        assert abs(fidelity(state, state) - 1.0) < 1e-14

    def test_orthogonal_states(self, small_layout):
        a = make_bell(Bell.PHI_PLUS, Bell.PHI_PLUS, small_layout)
        b = make_bell(Bell.PHI_MINUS, Bell.PHI_PLUS, small_layout)
        assert fidelity(a, b) < 1e-15

    def test_actual_renormalized(self, small_layout):
        from hyperbell.hilbert import HybridState

        state = make_bell(Bell.PSI_PLUS, Bell.PHI_MINUS, small_layout)
        shrunk = HybridState(small_layout, 0.3 * state.amps)
        assert abs(fidelity(shrunk, state) - 1.0) < 1e-12

    def test_unnormalized_ideal_rejected(self, small_layout):
        from hyperbell.hilbert import HybridState

        state = make_bell(Bell.PSI_PLUS, Bell.PHI_MINUS, small_layout)
        shrunk = HybridState(small_layout, 0.3 * state.amps)
        with pytest.raises(ConfigurationError):
            fidelity(state, shrunk)

    def test_zero_actual_state_rejected(self, small_layout):
        ideal = make_bell(Bell.PSI_PLUS, Bell.PHI_MINUS, small_layout)
        with pytest.raises(ConfigurationError, match="^actual state has zero norm$"):
            fidelity(zero_state(small_layout), ideal)

    def test_generation_branch_fidelity_at_example_point(self):
        for _, _, fid in hbsg_branch_report(EXAMPLE_PAIR):
            assert fid >= 1 - 1e-12

    @pytest.mark.parametrize("pair", [EXAMPLE_PAIR, ReflectionPair(1.7 + 0.2j, -0.4 + 1.1j),
                                      ReflectionPair(0.5, 0.3)], ids=["example", "gain", "lossy"])
    def test_branch_report_is_the_runners_rows(self, pair):
        # the rows rebuilt straight from run_circuit_tracked, bit for bit
        circuit = parse_circuit(HBSG_CIRCUIT_TEXT)
        want = []
        for tb in run_circuit_tracked(circuit, hbsg_input(circuit), pair).branches:
            if tb.heralds() or tb.clean_weight <= _BRANCH_DROP:
                continue
            key = (tb.spin_results()["QD1"], tb.spin_results()["QD2"])
            label = HBSG_OUTPUT_TABLE[key]
            target = make_bell(label.pol, label.spatial, circuit.layout(),
                               rails=HBSG_OUTPUT_RAILS, spins=key)
            want.append((key, tb.probability, fidelity(tb.clean_state(), target)))
        assert len(want) == 4 and hbsg_branch_report(pair) == want


class TestEfficiencyClosedForm:
    def test_ideal_pair(self):
        assert abs(efficiency_closed_form(IDEAL_PAIR) - 1.0) < 1e-15

    def test_example_pair(self):
        # scalar oracle: ((1 + 39/41)/2)^8 = (40/41)^8
        eta = efficiency_closed_form(EXAMPLE_PAIR)
        assert abs(eta - (40 / 41) ** 8) < 1e-14
        assert abs(eta - 0.820742) < 1e-5

    def test_uncoupled_dot_gives_zero(self):
        pair = reflection_coefficients(CavityParams(g=0.0, gamma=0.1))
        assert efficiency_closed_form(pair) == 0.0

    def test_sign_convention_invariance(self):
        a = ReflectionPair(r_o=-0.9, r_h=0.8)
        b = ReflectionPair(r_o=0.9, r_h=-0.8)
        assert abs(efficiency_closed_form(a) - efficiency_closed_form(b)) < 1e-15

    def test_is_the_eighth_power_of_the_success_amplitude(self, rng):
        r = rng.normal(size=(2, 50)) + 1j * rng.normal(size=(2, 50))
        pair = ReflectionPair(*r)
        assert np.array_equal(efficiency_closed_form(pair), abs(pair.success_amplitude) ** 8)
        assert efficiency_closed_form(ReflectionPair(2.0, -2.0)) == 256.0  # |r| > 1 is legal

    @pytest.mark.parametrize("pair", [
        ReflectionPair(1e40, -1e40),
        ReflectionPair(complex(1e308, 1e308), -1.0),  # |s| itself overflows
        ReflectionPair(np.array([1.0, 1e40]), np.array([-1.0, -1e40])),
        ReflectionPair(np.complex128(1e40), 0),
    ], ids=["scalar", "scalar-abs", "array", "numpy-scalar"])
    def test_overflow_is_numeric_domain_error(self, pair):
        with pytest.raises(NumericDomainError, match="closed-form efficiency overflows"):
            efficiency_closed_form(pair)

    @pytest.mark.parametrize("pair", [None, "x", (1, 2),
                                      SimpleNamespace(success_amplitude=-1, herald_amplitude=0)],
                             ids=["none", "str", "tuple", "namespace"])
    def test_non_pair_is_configuration_error(self, pair):
        message = f"^efficiency_closed_form takes a ReflectionPair, not {type(pair).__name__}$"
        with pytest.raises(ConfigurationError, match=message):
            efficiency_closed_form(pair)
        # an array pair is not refused: run_sweep passes one
        assert efficiency_closed_form(ReflectionPair(np.array([-1.0, 0.5]), np.array([1.0, 0.5]))
                                      ).tolist() == [1.0, 0.0]


class TestGenerationStatistics:
    def test_simulated_efficiency_matches_closed_form(self):
        stats = hbsg_statistics(EXAMPLE_PAIR)
        assert abs(stats.eta_simulated - efficiency_closed_form(EXAMPLE_PAIR)) < 1e-10

    def test_conditional_fidelity_is_unity(self):
        stats = hbsg_statistics(EXAMPLE_PAIR)
        assert abs(stats.conditional_fidelity - 1.0) < 1e-12

    def test_herald_rate_near_first_order_estimate(self):
        stats = hbsg_statistics(EXAMPLE_PAIR)
        h2 = abs(EXAMPLE_PAIR.herald_amplitude) ** 2
        # one L-weighted passage per photon, later losses reduce the joint rate
        assert 0.5 * h2 < stats.herald_rate < h2

    def test_ideal_point(self):
        stats = hbsg_statistics(IDEAL_PAIR)
        assert abs(stats.eta_simulated - 1.0) < 1e-12
        assert stats.herald_rate < 1e-20
        assert stats.leakage_rate < 1e-20

    def test_uncoupled_dot_everything_leaks(self):
        pair = reflection_coefficients(CavityParams(g=0.0, gamma=0.1))
        stats = hbsg_statistics(pair)
        assert stats.eta_simulated == 0.0
        assert stats.leakage_rate == 1.0
        assert stats.conditional_fidelity == 1.0  # vacuous: nothing survives

    def test_non_finite_pair_is_numeric_domain_error(self):
        for bad in (math.nan, math.inf):
            with pytest.raises(NumericDomainError, match="must be finite"):
                hbsg_statistics(ReflectionPair(bad, 1.0))

    def test_overflow_is_numeric_domain_error(self):
        # |h|^2k overflows at 1e200 and |s|^2i at 1e70, with no NumPy warning on the way
        for pair in (ReflectionPair(1e200, 1e200), ReflectionPair(1e70, -1e70)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(NumericDomainError, match="overflow"):
                    hbsg_statistics(pair)
        # |r| > 1 stays legal where nothing overflows
        stats = hbsg_statistics(ReflectionPair(1e30, 1e30))
        assert stats.eta_simulated == 0.0 and math.isfinite(stats.herald_rate)

    def test_branch_report_overflow_is_numeric_domain_error(self):
        # the forking runner's branch weights overflow at 1e200: the report was empty
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericDomainError, match="overflows"):
                hbsg_branch_report(ReflectionPair(1e200, 1e200))
        assert hbsg_branch_report(ReflectionPair(1e30, 1e30)) == []  # s = 0: nothing clean


def _numeric_statistics(pair):
    """Reference: run the generation circuit at the pair and aggregate."""
    circuit = _split_stage1(parse_circuit(HBSG_CIRCUIT_TEXT))[0]
    state = hbsg_input(circuit)
    (ideal,) = [tb.layers[0] for tb in run_circuit_tracked(circuit, state, IDEAL_PAIR).branches
                if tb.record == ()]
    ideal = ideal / np.linalg.norm(ideal)
    run = run_circuit_tracked(circuit, state, pair)
    herald_rate = sum(run.click_probability.values())
    unclicked = [tb for tb in run.branches if tb.record == ()]
    if not unclicked:
        return 0.0, herald_rate, 1.0, 1.0
    (tb,) = unclicked
    eta, leak = tb.clean_weight, tb.leaked_weight
    leakage_rate = leak / (eta + leak) if eta + leak > 1e-30 else 1.0
    fid = min(1.0, abs(np.vdot(ideal, tb.layers[0])) ** 2 / eta) if eta > 1e-30 else 1.0
    return eta, herald_rate, leakage_rate, fid


class TestSweepPointMatchesNumericRun:
    # the sweep evaluates one polynomial run; the reference runs the circuit
    @pytest.mark.parametrize("kappa_s,g_over_sum", [
        (0.0, 0.0), (0.37, 0.0), (1.0, 0.0),  # g = 0 row: s = 0 exactly
        (0.0, 1.0),                            # the paper's spot point
        (0.5, 0.5), (0.2, 2.5)])
    def test_sweep_point(self, kappa_s, g_over_sum):
        record = sweep_point(kappa_s, g_over_sum)
        pair = ReflectionPair(record.r_o, record.r_h)
        got = (record.eta_simulated, record.herald_rate, record.leakage_rate,
               record.conditional_fidelity)
        for a, b in zip(got, _numeric_statistics(pair)):
            assert abs(a - b) < 1e-12
        if g_over_sum == 0.0:
            assert record.eta_simulated == 0.0


class TestWholeGridMatchesNumericRun:
    """run_sweep evaluates the whole grid at once; the reference runs the circuit per point."""

    def test_grid(self):
        rng = np.random.default_rng(20261018)
        grid = SweepGrid(
            kappa_s_over_kappa=(0.0, *rng.uniform(0.0, 1.0, 3)),
            g_over_sum=(0.0, 1e-4, 1.0, *rng.uniform(0.05, 2.5, 3)))  # 1e-4: branch dropped
        records = run_sweep(grid)
        assert len(records) == 4 * 6
        for r in records:
            got = (r.eta_simulated, r.herald_rate, r.leakage_rate, r.conditional_fidelity)
            assert all(x >= 0.0 for x in got)
            for a, b in zip(got, _numeric_statistics(ReflectionPair(r.r_o, r.r_h))):
                assert abs(a - b) < 1e-12
            if r.g_over_sum == 0.0:
                assert r.eta_simulated == 0.0
                assert r.leakage_rate == 1.0
        spot = records[2]
        assert (spot.kappa_s_over_kappa, spot.g_over_sum) == (0.0, 1.0)
        assert abs(spot.eta_simulated - 0.820742) <= 1e-5

    def test_dropped_branch_matches_polynomial_run(self):
        circuit = _split_stage1(parse_circuit(HBSG_CIRCUIT_TEXT))[0]
        for g, dropped in ((1e-3, False), (3e-4, False), (1e-4, True), (3e-5, True)):
            pair = reflection_coefficients(CavityParams(g=g, gamma=0.1))
            at = polynomial_run_at(circuit, hbsg_input(circuit), pair)
            stats = hbsg_statistics(pair)
            assert abs(stats.herald_rate - sum(at.click_probability.values())) < 1e-12
            unclicked = [tb for tb in at.branches if tb.record == ()]
            assert (not unclicked) == dropped
            if dropped:
                assert (stats.eta_simulated, stats.leakage_rate,
                        stats.conditional_fidelity) == (0.0, 1.0, 1.0)
            else:
                (tb,) = unclicked
                assert tb.clean_weight + tb.leaked_weight > _BRANCH_DROP
                assert abs(stats.eta_simulated - tb.clean_weight) < 1e-12
                leak_share = tb.leaked_weight / (tb.clean_weight + tb.leaked_weight)
                assert abs(stats.leakage_rate - leak_share) < 1e-12


class TestHbsaRates:
    def test_leakage_rate_vanishes_at_ideal(self):
        assert hbsa_leakage_rate(IDEAL_PAIR) < 1e-20

    def test_leakage_scales_with_herald_amplitude(self):
        pair = EXAMPLE_PAIR
        rate = hbsa_leakage_rate(pair)
        pred = 4 * abs(pair.herald_amplitude) ** 2 / abs(pair.success_amplitude) ** 2
        assert 0.5 * pred <= rate <= 2 * pred

    def test_misclassification_bounded_by_leak_ratio(self):
        pair = reflection_coefficients(CavityParams(g=1.0, kappa_s=0.3, gamma=0.1))
        bound = 4 * abs(pair.herald_amplitude) ** 2 / abs(pair.success_amplitude) ** 2
        for label in (HyperBellLabel(Bell.PHI_PLUS, Bell.PHI_PLUS),
                      HyperBellLabel(Bell.PSI_MINUS, Bell.PSI_PLUS)):
            branches = run_hbsa(label, pair)
            wrong = sum(b.probability for b in branches if b.classified != label)
            assert wrong / sum(b.probability for b in branches) <= bound


class TestSweep:
    def test_single_ideal_point(self):
        record = sweep_point(0.0, 2.0, gamma_over_kappa=0.0)
        assert abs(record.eta_simulated - 1.0) < 1e-10
        assert record.herald_rate < 1e-20

    def test_row_major_order(self):
        grid = SweepGrid(kappa_s_over_kappa=(0.0, 0.5), g_over_sum=(0.5, 1.0))
        records = run_sweep(grid)
        assert [(r.kappa_s_over_kappa, r.g_over_sum) for r in records] == [
            (0.0, 0.5), (0.0, 1.0), (0.5, 0.5), (0.5, 1.0)]

    def test_efficiency_monotone_in_coupling(self):
        grid = SweepGrid(kappa_s_over_kappa=(0.0,),
                         g_over_sum=tuple(np.linspace(0, 2.5, 11)))
        etas = [r.eta_simulated for r in run_sweep(grid)]
        assert all(b >= a - 1e-12 for a, b in zip(etas, etas[1:]))

    def test_invalid_grid_rejected(self):
        with pytest.raises(ConfigurationError):
            SweepGrid(kappa_s_over_kappa=(), g_over_sum=())
        with pytest.raises(ConfigurationError):
            SweepGrid(kappa_s_over_kappa=(-0.1,), g_over_sum=(1.0,))
        for axes in (((), (1.0,)), ((0.5,), ())):
            with pytest.raises(ConfigurationError):
                SweepGrid(*axes)
        for bad in (math.nan, math.inf):
            with pytest.raises(ConfigurationError):
                SweepGrid((0.5,), (1.0,), gamma_over_kappa=bad)
            with pytest.raises(ConfigurationError):
                SweepGrid((0.5,), (1.0,), detuning=bad)
        for steps in ({"ks_steps": 0}, {"g_steps": 0}, {"ks_steps": -1}):
            with pytest.raises(ConfigurationError):
                SweepGrid.regular(**steps)

    @pytest.mark.parametrize("kwargs, field", [
        ({"kappa_s_over_kappa": (1j,)}, "kappa_s_over_kappa"),
        ({"kappa_s_over_kappa": ("1",)}, "kappa_s_over_kappa"),
        ({"g_over_sum": (0.5, "1")}, "g_over_sum"),
        ({"gamma_over_kappa": 1j}, "gamma_over_kappa"),
        ({"detuning": "0"}, "detuning"),
    ], ids=["ks-complex", "ks-str", "g-str", "gamma-complex", "detuning-str"])
    def test_wrong_type_names_the_field(self, kwargs, field):
        with pytest.raises(ConfigurationError, match=f"^{field} must be a real number"):
            SweepGrid(**{"kappa_s_over_kappa": (0.5,), "g_over_sum": (1.0,), **kwargs})

    @pytest.mark.parametrize("args, kwargs, message", [
        (((0.1,), (0.5,)), {"gamma_over_kappa": [0.1]}, "gamma_over_kappa must be a real number"),
        (((0.1,), (0.5,)), {"detuning": (0.2,)}, "detuning must be a real number"),
        ((5, (1.0,)), {}, "kappa_s_over_kappa must be a tuple or list of reals, got 5"),
        (((0.1,), np.array([0.5, 1.0])), {}, "g_over_sum must be a tuple or list of reals"),
    ], ids=["gamma-list", "detuning-tuple", "ks-int", "g-array"])
    def test_only_the_axes_are_sequences(self, args, kwargs, message):
        with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}"):
            SweepGrid(*args, **kwargs)
        assert SweepGrid([0.1], [0.5, 1.0]).g_over_sum == [0.5, 1.0]  # a list axis stays one

    def test_int_past_float_range_is_not_finite(self):
        SweepGrid((0.5,), (10**20,), gamma_over_kappa=10**20)  # past int64, a finite float
        for kwargs in ({"g_over_sum": (10**400,)}, {"kappa_s_over_kappa": (-10**400,)}):
            with pytest.raises(ConfigurationError, match="^grid values must be finite"):
                SweepGrid(**{"kappa_s_over_kappa": (0.5,), "g_over_sum": (1.0,), **kwargs})
        with pytest.raises(ConfigurationError, match="^gamma_over_kappa and detuning must be"):
            SweepGrid((0.5,), (1.0,), detuning=10**400)


def _first_scalar_error(grid):
    """The error of the scalar coefficient path at the first bad grid point."""
    for ks in grid.kappa_s_over_kappa:
        for g_over_sum in grid.g_over_sum:
            try:
                reflection_coefficients(CavityParams(
                    g=g_over_sum * (ks + 1.0), kappa_s=ks,
                    gamma=grid.gamma_over_kappa, omega=grid.detuning))
            except (ConfigurationError, NumericDomainError) as exc:
                return exc
    raise AssertionError("no grid point is rejected")


class TestSweepErrors:
    """A bad grid point raises what reflection_coefficients raises there, and
    no sweep emits a RuntimeWarning on the way."""

    @pytest.mark.parametrize("grid", [
        SweepGrid((0.0, 0.5), (0.0, 1.0), gamma_over_kappa=-0.1),
        # g = 1e308 * 2 is inf at (1.0, 1e308); g**2 overflows later, at (0.0, 1e308)
        SweepGrid((1.0, 0.0), (0.5, 1e308)),
        # g**2 overflows from (0.0, 1e200) on
        SweepGrid((0.0, 0.5), (1.0, 1e200, 1e300)),
    ], ids=["negative-gamma", "g-infinite", "g-squared-overflows"])
    def test_error_matches_scalar_path(self, grid):
        expected = _first_scalar_error(grid)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(type(expected)) as got:
                run_sweep(grid)
        assert str(got.value) == str(expected)

    @pytest.mark.parametrize("kwargs, message", [
        ({"g_max": math.inf}, "grid values must be finite and non-negative"),
        ({"ks_min": math.nan}, "grid values must be finite and non-negative"),
        ({"g_min": "0"}, "g_over_sum must be a real number, got '0'"),
        ({"ks_steps": 2.5}, "sweep steps must be ints, got 2.5, 101"),
        ({"g_steps": "3"}, "sweep steps must be ints, got 101, '3'"),
    ], ids=["g-max-inf", "ks-min-nan", "g-min-str", "ks-steps-float", "g-steps-str"])
    def test_regular_checks_its_arguments_before_linspace(self, kwargs, message):
        # the suite turns warnings into errors, so NumPy's RuntimeWarning would fail this
        with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
            SweepGrid.regular(**kwargs)

    def test_regular_grid_holds_python_floats(self):
        grid = SweepGrid.regular(ks_steps=3, g_steps=2, g_max=1e200)
        assert all(type(v) is float for v in grid.kappa_s_over_kappa + grid.g_over_sum)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericDomainError, match="g\\*\\*2 overflows"):
                run_sweep(grid)


class TestCsv:
    def test_empty_record_list_is_header_only(self):
        assert emit_csv([]) == CSV_COLUMNS + "\n"

    def test_single_record_row(self):
        record = sweep_point(0.0, 1.0)
        text = emit_csv([record])
        lines = text.splitlines()
        assert len(lines) == 2
        assert lines[0] == CSV_COLUMNS
        assert lines[1].startswith("0.0,1.0,-1.0,0.0,")

    def test_round_trip_is_byte_identical(self):
        grid = SweepGrid(kappa_s_over_kappa=(0.0, 0.3), g_over_sum=(0.4, 1.1))
        text = emit_csv(run_sweep(grid))
        assert emit_csv(parse_csv(text)) == text

    def test_dephasing_columns(self):
        record = sweep_point(0.0, 1.0)
        text = emit_csv([record], DephasingParams(tau=20.0, big_gamma=300.0))
        header, row = text.splitlines()
        assert header.endswith(
            "dephasing_penalty,cond_fidelity_dephased,cond_fidelity_exp_scaled")
        penalty = float(row.split(",")[11])
        assert abs(penalty - (1 - math.exp(-20 / 300))) < 1e-12

    def test_bad_header_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_csv("nope\n1,2\n")

    def test_short_row_rejected(self):
        text = emit_csv([sweep_point(0.0, 1.0)])
        row = text.splitlines()[1].rsplit(",", 1)[0]  # 10 of the 11 fields
        with pytest.raises(ConfigurationError, match=f"^short CSV row: {re.escape(repr(row))}$"):
            parse_csv(f"{CSV_COLUMNS}\n{row}\n")

    @pytest.mark.parametrize("edit", [
        ("kappa_s_over_kappa,", "kappa_s_over_kappa_typo,"),
        ("g_over_sum,r_o_re,", "r_o_re,g_over_sum,"),
        (",cond_fidelity", ""),
    ], ids=["typo", "swapped", "short"])
    def test_header_must_name_the_columns(self, edit):
        text = emit_csv([sweep_point(0.0, 1.0)])
        with pytest.raises(ConfigurationError, match="header"):
            parse_csv(text.replace(*edit, 1))


class TestSvgHeatmap:
    def _records_2x2(self):
        grid = SweepGrid(kappa_s_over_kappa=(0.0, 0.5), g_over_sum=(0.5, 1.5))
        return run_sweep(grid)

    def test_cell_positions_match_pixel_arithmetic(self):
        records = self._records_2x2()
        svg = emit_svg_heatmap(records, "eta_sim")
        cw, ch = svg_cell_geometry(2, 2)
        rects = re.findall(r'<rect x="([0-9.]+)" y="([0-9.]+)" width="([0-9.]+)" '
                           r'height="([0-9.]+)"', svg)
        cells = {(float(x), float(y)) for x, y, w, h in rects
                 if abs(float(w) - cw) < 1e-9 and abs(float(h) - ch) < 1e-9}
        expected = set()
        for ix in (0, 1):
            for iy in (0, 1):
                expected.add((SVG_MARGIN_LEFT + ix * cw,
                              SVG_MARGIN_TOP + (1 - iy) * ch))
        assert cells == expected

    def test_document_is_self_contained(self):
        svg = emit_svg_heatmap(self._records_2x2(), "cond_fidelity")
        assert svg.startswith('<svg xmlns="http://www.w3.org/2000/svg"')
        assert svg.rstrip().endswith("</svg>")
        assert "linearGradient" in svg
        assert "kappa_s / kappa" in svg

    def test_unknown_column_rejected(self):
        with pytest.raises(ConfigurationError):
            emit_svg_heatmap(self._records_2x2(), "not_a_column")

    def test_empty_records_rejected(self):
        with pytest.raises(ConfigurationError):
            emit_svg_heatmap([], "eta_sim")
