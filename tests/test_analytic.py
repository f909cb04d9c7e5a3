import csv
import math
import random
import sys
from pathlib import Path

import numpy as np
import pytest

from repeater_scaling.analytic import (
    AnalyticOptions,
    CLOSED_FORM,
    acceptance_geomean,
    average_gain,
    exponent_estimate,
    minimize_exponent,
    optimal_target_fidelity,
    small_error_exponent,
    steps_estimate,
    window_exponent,
)
from repeater_scaling.exceptions import InfeasibleError
from repeater_scaling.fixed_points import feasible_for, find_fixed_points
from repeater_scaling.maps import ErrorParams, purify, swap_fidelity
from repeater_scaling.platforms import default_platforms_path, load_platforms
from repeater_scaling.recursive import ProtocolParams, ScalingResult, resource_exponent

ZERO = ErrorParams()
CLOSED = AnalyticOptions(integral_mode=CLOSED_FORM)


def composite_simpson(fun, a, b, panels=4000):
    # fixed-panel oracle, independent of the Gauss-Legendre rule
    h = (b - a) / panels
    total = fun(a) + fun(b)
    for i in range(1, panels):
        total += fun(a + i * h) * (4 if i % 2 else 2)
    return total * h / 3.0


class TestAverageGain:
    def test_shrinking_interval_approaches_pointwise_gain(self):
        gain_at = float(purify(0.8, ZERO).fidelity) - 0.8
        value = average_gain(0.8 - 1e-6, 0.8, ZERO)
        assert value == pytest.approx(gain_at, abs=1e-5)
        assert gain_at == pytest.approx(0.03815028901734095, abs=1e-12)

    def test_matches_independent_quadrature(self):
        expected = composite_simpson(
            lambda f: float(purify(f, ZERO).fidelity) - f, 0.6, 0.9
        ) / 0.3
        assert average_gain(0.6, 0.9, ZERO) == pytest.approx(expected, rel=1e-10)

    def test_positive_on_feasible_interval(self):
        assert average_gain(0.55, 0.95, ZERO) > 0.0

    def test_infeasible_window_raises(self):
        with pytest.raises(InfeasibleError):
            average_gain(0.45, 0.9, ZERO)
        with pytest.raises(InfeasibleError):
            average_gain(0.7, 0.9, ErrorParams(eps_g=0.05, eps_r=0.05))


class TestStepsEstimate:
    def test_definition(self):
        gain = average_gain(0.6, 0.9, ZERO)
        assert steps_estimate(0.6, 0.9, ZERO) == pytest.approx(0.3 / gain, rel=1e-12)

    def test_ceiling_option(self):
        plain = steps_estimate(0.6, 0.9, ZERO)
        ceiled = steps_estimate(0.6, 0.9, ZERO, AnalyticOptions(use_ceiling=True))
        assert ceiled == math.ceil(plain)
        assert plain != ceiled  # the window was chosen non-integer

    def test_steps_times_gain_recovers_width(self):
        for width in (0.2, 0.05, 0.005):
            f0, ft = 0.75, 0.75 + width
            product = steps_estimate(f0, ft, ZERO) * average_gain(f0, ft, ZERO)
            assert product == pytest.approx(width, rel=1e-12)


class TestAcceptanceGeomean:
    def test_matches_independent_quadrature(self):
        expected = math.exp(
            composite_simpson(lambda f: math.log(float(purify(f, ZERO).p_accept)), 0.6, 0.9)
            / 0.3
        )
        assert acceptance_geomean(0.6, 0.9, ZERO) == pytest.approx(expected, rel=1e-10)

    def test_mean_value_bounds(self):
        grid = np.linspace(0.6, 0.9, 200)
        accepts = purify(grid, ZERO).p_accept
        value = acceptance_geomean(0.6, 0.9, ZERO)
        assert accepts.min() < value < accepts.max()


class TestClosedFormRoute:
    @pytest.mark.parametrize("eps_g", [0.0, 1e-4, 1e-3, 5e-3, 1e-2])
    @pytest.mark.parametrize("eps_r", [0.0, 1e-3, 1e-2])
    def test_agrees_with_quadrature(self, eps_g, eps_r):
        err = ErrorParams(eps_g=eps_g, eps_r=eps_r)
        ft = optimal_target_fidelity(eps_g) if eps_g else 0.93
        fps = find_fixed_points(err)
        f0 = float(swap_fidelity(ft, 2, err))
        if not (fps.feasible and fps.lower < f0 and ft < fps.upper):
            pytest.skip("window infeasible for this error pair")
        m_quad = steps_estimate(f0, ft, err)
        m_closed = steps_estimate(f0, ft, err, CLOSED)
        assert m_closed == pytest.approx(m_quad, rel=1e-8)
        p_quad = acceptance_geomean(f0, ft, err)
        p_closed = acceptance_geomean(f0, ft, err, CLOSED)
        assert p_closed == pytest.approx(p_quad, rel=1e-8)

    def test_nondefault_pauli_weights(self):
        err = ErrorParams(eps_g=0.008, eps_r=0.002, p_x=0.1, p_y=0.2, p_z=0.7)
        f0, ft = 0.75, 0.9
        assert steps_estimate(f0, ft, err, CLOSED) == pytest.approx(
            steps_estimate(f0, ft, err), rel=1e-8
        )


class TestExponentEstimate:
    def test_scaling_result_identity(self):
        result = exponent_estimate(0.7, 0.9, ZERO)
        assert result.feasible and result.method == "analytic"
        assert result.exponent == pytest.approx(
            math.log2(result.pairs_per_level) + 1.0, abs=1e-12
        )

    def test_closed_form_method_label(self):
        result = exponent_estimate(0.7, 0.9, ZERO, opts=CLOSED)
        assert result.method == "analytic-closed-form"

    def test_infeasible_in_band(self):
        result = exponent_estimate(0.7, 0.9, ErrorParams(eps_g=0.05, eps_r=0.05))
        assert not result.feasible and result.exponent is None

    def test_gap_to_recursive_on_reference_errors(self):
        # the two estimators stay within one unit of each other here
        for eps_g, eps_r in [(2.5e-3, 6e-3), (5e-4, 1e-4), (3.5e-4, 4e-4),
                             (5e-4, 1e-6), (2.5e-3, 4e-3)]:
            err = ErrorParams(eps_g=eps_g, eps_r=eps_r)
            ft = optimal_target_fidelity(eps_g)
            f0 = float(swap_fidelity(ft, 2, err))
            tilde = exponent_estimate(f0, ft, err)
            recursive = resource_exponent(ProtocolParams(ft=ft, err=err, f0=f0))
            assert tilde.feasible and recursive.feasible
            assert abs(tilde.exponent - recursive.exponent) <= 1.0


class TestWindowExponent:
    @pytest.mark.parametrize(
        "opts",
        [AnalyticOptions(), CLOSED, AnalyticOptions(use_ceiling=True, integral_mode=CLOSED_FORM)],
    )
    def test_equals_checked_estimate_inside_the_fixed_points(self, opts):
        errors = [ErrorParams(eps_g=0.005, eps_r=0.001)]
        errors += [p.errors for p in load_platforms(default_platforms_path())]
        for err in errors:
            ft = optimal_target_fidelity(err.eps_g)
            f0 = float(swap_fidelity(ft, 2, err))
            for ps in (1.0, 0.8):
                result = window_exponent(f0, ft, err, ps, opts)
                assert result.feasible and result.method == opts.method
                assert result == exponent_estimate(f0, ft, err, ps, opts)
        # below the lower fixed point (1/2) the checked estimate stays in-band
        for ps in (1.0, 0.8):
            result = exponent_estimate(0.3, 0.45, ZERO, ps, opts)
            assert result == ScalingResult(feasible=False, method=opts.method)

    def test_non_positive_gain_is_infeasible_in_band(self):
        # below the lower fixed point (1/2) the error-free map loses fidelity
        for opts in (AnalyticOptions(), CLOSED):
            result = window_exponent(0.3, 0.45, ZERO, opts=opts)
            assert not result.feasible and result.exponent is None
            assert result.method == opts.method

    def test_rejects_inverted_window(self):
        with pytest.raises(ValueError):
            window_exponent(0.9, 0.9, ZERO)

    @pytest.mark.parametrize("ps", [math.nan, 0.0, -0.5, 1.5, math.inf])
    def test_rejects_swap_probability_outside_unit_interval(self, ps):
        # the rule and message of ProtocolParams, before any solve
        for estimate in (window_exponent, exponent_estimate):
            with pytest.raises(ValueError, match=r"ps must lie in \(0, 1\], got"):
                estimate(0.7, 0.9, ZERO, ps)
        with pytest.raises(ValueError, match=r"ps must lie in \(0, 1\], got"):
            ProtocolParams(ft=0.9, err=ZERO, ps=ps)

    def test_closed_form_agrees_with_quadrature_on_a_narrow_window(self):
        # a swap-tied window about 6e-9 wide just below F = 1
        ft = 0.9999999938908686
        f0 = float(swap_fidelity(ft, 2, ZERO))
        for estimate in (window_exponent, exponent_estimate):
            closed, quad = estimate(f0, ft, ZERO, opts=CLOSED), estimate(f0, ft, ZERO)
            assert closed.feasible and quad.feasible
            assert closed.exponent == pytest.approx(quad.exponent, rel=1e-8)


def _swap_tied_windows(count, seed=20241021):
    # Inside the fixed points, with ft in [0.99, 1) and windows down to 6e-8 wide.
    rng = random.Random(seed)
    windows = []
    while len(windows) < count:
        err = ErrorParams(eps_g=rng.choice([0.0, rng.uniform(0.0, 0.01)]),
                          eps_r=rng.choice([0.0, rng.uniform(0.0, 0.01)]))
        ft = 1.0 - 10 ** rng.uniform(-7.3, -2.0)
        f0 = float(swap_fidelity(ft, 2, err))
        if feasible_for(f0, ft, err):
            windows.append((err, f0, ft))
    return windows


def test_closed_form_agrees_with_quadrature_on_windows_near_one():
    for err, f0, ft in _swap_tied_windows(600):
        closed = window_exponent(f0, ft, err, opts=CLOSED)
        quad = window_exponent(f0, ft, err)
        assert closed.exponent == pytest.approx(quad.exponent, rel=1e-8), (err, f0, ft)


# 40-digit exponents over fixed windows, from tests/data/make_window_reference.py.
REFERENCE_CELLS = list(csv.DictReader(
    (Path(__file__).parent / "data" / "window_reference.csv").read_text(encoding="utf-8")
    .splitlines()
))
# Drawn near the gate-error threshold, where the gain integral cancels (condition 1.16e5).
SEEDED_CELL = ("0.026640390885245457", "0.004152875230934107")


class TestReferenceCells:
    @pytest.mark.parametrize("opts", [AnalyticOptions(), CLOSED], ids=lambda o: o.method)
    def test_relative_error_within_condition(self, opts):
        assert len(REFERENCE_CELLS) >= 50
        for cell in REFERENCE_CELLS:
            eps_g, eps_r, ft, f0, mean_gain, condition = (
                float(cell[k]) for k in ("eps_g", "eps_r", "ft", "f0", "mean_gain", "condition")
            )
            result = window_exponent(f0, ft, ErrorParams(eps_g=eps_g, eps_r=eps_r), opts=opts)
            if not cell["lambda_tilde"]:
                assert not result.feasible, cell
                continue
            reference = float(cell["lambda_tilde"])
            relative = abs(result.exponent - reference) / reference
            # The gain is a difference of two numbers near F, so its mean carries
            # an absolute error of order eps * F on any route.  That floor, not
            # the rule, sets the error on the 6e-9-wide window just below F = 1.
            floor = sys.float_info.epsilon * ft / mean_gain
            assert relative <= max(1e-12 * condition, floor), (cell, relative)

    def test_seeded_cell_near_the_threshold(self):
        (cell,) = [c for c in REFERENCE_CELLS if (c["eps_g"], c["eps_r"]) == SEEDED_CELL]
        err = ErrorParams(eps_g=float(cell["eps_g"]), eps_r=float(cell["eps_r"]))
        result = window_exponent(float(cell["f0"]), float(cell["ft"]), err)
        reference = float(cell["lambda_tilde"])
        assert float(cell["condition"]) > 1e5
        assert abs(result.exponent - reference) <= 1e-7 * reference


class TestOptimalTarget:
    def test_zero_gate_error(self):
        assert optimal_target_fidelity(0.0) == pytest.approx(1.0, abs=1e-15)

    def test_hand_evaluated_point(self):
        assert optimal_target_fidelity(0.001) == pytest.approx(0.9703501831575465, abs=1e-12)

    def test_monotone_decreasing(self):
        values = [optimal_target_fidelity(float(eg)) for eg in np.linspace(0.0, 0.02, 21)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_full_form_close_to_reduced_at_small_readout(self):
        for eps_g in (5e-4, 2.5e-3, 1e-2):
            full = optimal_target_fidelity(eps_g, 1e-4)
            reduced = optimal_target_fidelity(eps_g)
            assert full == pytest.approx(reduced, abs=5e-3)

    def test_full_form_at_zero_errors(self):
        assert optimal_target_fidelity(0.0, 0.0) == pytest.approx(1.0, abs=1e-15)

    def test_negative_gate_error_rejected(self):
        with pytest.raises(ValueError):
            optimal_target_fidelity(-1e-3)

    @pytest.mark.parametrize("eps_g", [math.nan, math.inf, 1.0, 2.0])
    def test_gate_error_outside_error_params_range_rejected(self, eps_g):
        with pytest.raises(ValueError, match=r"eps_g must be in \[0, 1\), got"):
            optimal_target_fidelity(eps_g)
        with pytest.raises(ValueError, match=r"eps_g must be in \[0, 1\), got"):
            optimal_target_fidelity(eps_g, 0.001)
        with pytest.raises(ValueError, match=r"eps_g must be in \[0, 1\), got"):
            small_error_exponent(eps_g)

    @pytest.mark.parametrize("eps_r", [math.nan, -1e-3, 0.5, 0.7])
    def test_readout_error_outside_error_params_range_rejected(self, eps_r):
        with pytest.raises(ValueError, match=r"eps_r must be in \[0, 0.5\), got"):
            optimal_target_fidelity(0.005, eps_r)


class TestSmallErrorExponent:
    def test_floor(self):
        assert small_error_exponent(0.0) == 3.0

    def test_reference_points(self):
        assert small_error_exponent(5e-4) == pytest.approx(3.332049516849971, abs=1e-12)
        assert small_error_exponent(0.013) == pytest.approx(5.090245595138793, abs=1e-12)


class TestMinimizeExponent:
    def test_argmin_matches_closed_form(self):
        ft_num, result = minimize_exponent(ErrorParams(eps_g=0.005, eps_r=0.001))
        assert abs(ft_num - optimal_target_fidelity(0.005)) <= 0.02
        assert result.feasible and result.exponent > 3.0

    def test_zero_error_optimum_hugs_upper_boundary(self):
        ft_num, result = minimize_exponent(ZERO)
        assert ft_num > 0.99
        assert result.exponent >= 3.0

    def test_infeasible_errors_raise(self):
        with pytest.raises(InfeasibleError):
            minimize_exponent(ErrorParams(eps_g=0.03, eps_r=0.0))

    def test_closed_form_mode_matches_quadrature_mode(self):
        err = ErrorParams(eps_g=0.005, eps_r=0.001)
        ft_q, res_q = minimize_exponent(err)
        ft_c, res_c = minimize_exponent(err, opts=CLOSED)
        assert ft_c == pytest.approx(ft_q, abs=1e-4)
        assert res_c.exponent == pytest.approx(res_q.exponent, rel=1e-6)
