import math
import random

import numpy as np
import pytest

import repeater_scaling.recursive as recursive
from repeater_scaling.analytic import optimal_target_fidelity
from repeater_scaling.exceptions import InfeasibleError
from repeater_scaling.fixed_points import find_fixed_points, target_window
from repeater_scaling.maps import ErrorParams, _purify_kernel, purify, swap_fidelity
from repeater_scaling.platforms import default_platforms_path, load_platforms
from repeater_scaling.recursive import (
    ProtocolParams,
    TraceStep,
    _bounded_lockstep_exponents,
    _iterate_steps,
    entanglement_rate,
    optimal_recursive_exponent,
    pairs_per_level,
    purification_trace,
    resource_exponent,
    scaling_from_steps,
    total_resources,
)

ZERO = ErrorParams()


def ideal_step_count(f0, ft):
    # independent iteration of the error-free map
    f, m = f0, 0
    while f < ft:
        w = (1.0 - f) / 3.0
        f = (f * f + w * w) / (f * f + 2.0 * f * w + 5.0 * w * w)
        m += 1
    return m


class TestProtocolParams:
    def test_default_start_is_two_link_swap(self):
        params = ProtocolParams(ft=0.95, err=ZERO)
        assert params.f0 == pytest.approx(float(swap_fidelity(0.95, 2, ZERO)), abs=1e-15)

    def test_rejects_start_above_target(self):
        with pytest.raises(ValueError):
            ProtocolParams(ft=0.7, err=ZERO, f0=0.8)

    def test_rejects_bad_swap_probability(self):
        with pytest.raises(ValueError):
            ProtocolParams(ft=0.9, err=ZERO, ps=0.0)


class TestPurificationTrace:
    def test_single_step_when_target_is_close(self):
        trace = purification_trace(ProtocolParams(ft=0.71, err=ZERO, f0=0.7))
        assert trace.step_count == 1

    def test_step_count_matches_independent_iteration(self):
        trace = purification_trace(ProtocolParams(ft=0.9, err=ZERO, f0=0.7))
        assert trace.step_count == ideal_step_count(0.7, 0.9) == 6

    def test_outputs_strictly_increase_and_reach_target(self):
        params = ProtocolParams(ft=0.9, err=ErrorParams(eps_g=0.005, eps_r=0.005), f0=0.7)
        trace = purification_trace(params)
        outs = [step.fidelity_out for step in trace.steps]
        assert all(b > a for a, b in zip(outs, outs[1:]))
        assert trace.final_fidelity >= params.ft
        for step in trace.steps:
            fid, acc = purify(step.fidelity_in, params.err)
            assert float(fid) == pytest.approx(step.fidelity_out, abs=1e-15)
            assert float(acc) == pytest.approx(step.p_accept, abs=1e-15)

    def test_overshoot_stays_below_one_extra_step(self):
        params = ProtocolParams(ft=0.9, err=ZERO, f0=0.7)
        trace = purification_trace(params)
        assert trace.final_fidelity < float(purify(params.ft, params.err).fidelity)

    def test_infeasible_window_raises(self):
        with pytest.raises(InfeasibleError):
            purification_trace(ProtocolParams(ft=0.9, err=ErrorParams(eps_g=0.05, eps_r=0.05), f0=0.7))


class TestPairsPerLevel:
    def test_formula_arithmetic(self):
        steps = [TraceStep(0.7, 0.8, 0.8), TraceStep(0.8, 0.91, 0.9)]
        result = scaling_from_steps(steps, ps=1.0)
        assert result.pairs_per_level == pytest.approx(4.0 / 0.72, abs=1e-12)

    def test_unit_probabilities_give_power_of_two(self):
        steps = [TraceStep(0.7, 0.8, 1.0), TraceStep(0.8, 0.91, 1.0)]
        assert scaling_from_steps(steps, ps=1.0).pairs_per_level == pytest.approx(4.0)

    def test_swap_probability_scales_cost(self):
        steps = [TraceStep(0.7, 0.8, 0.5)]
        assert scaling_from_steps(steps, ps=0.5).pairs_per_level == pytest.approx(8.0)

    def test_matches_trace_product(self):
        params = ProtocolParams(ft=0.9, err=ZERO, f0=0.7)
        trace = purification_trace(params)
        prod = math.prod(step.p_accept for step in trace.steps)
        assert pairs_per_level(params) == pytest.approx(2.0**trace.step_count / prod, rel=1e-14)


class TestResourceExponent:
    def test_exponent_identity(self):
        result = resource_exponent(ProtocolParams(ft=0.9, err=ZERO, f0=0.7))
        assert result.feasible
        assert result.exponent == pytest.approx(math.log2(result.pairs_per_level) + 1.0, abs=1e-12)

    def test_infeasible_in_band(self):
        result = resource_exponent(ProtocolParams(ft=0.9, err=ErrorParams(eps_g=0.05, eps_r=0.05), f0=0.7))
        assert not result.feasible
        assert result.exponent is None and result.pairs_per_level is None

    def test_scaling_consistency_across_levels(self):
        # (2B)^L equals D^exponent with D = 2^L
        params = ProtocolParams(ft=0.92, err=ErrorParams(eps_g=0.002, eps_r=0.002))
        result = resource_exponent(params)
        pairs = result.pairs_per_level
        for levels in range(1, 6):
            d = 2.0**levels
            assert (2.0 * pairs) ** levels == pytest.approx(
                total_resources(d, result.exponent), rel=1e-9
            )

    def test_floor_of_three_with_two_steps(self):
        params = ProtocolParams(ft=0.9, err=ZERO, f0=0.7)
        result = resource_exponent(params)
        assert result.steps >= 2
        assert result.exponent >= 3.0

    def test_nondecreasing_in_gate_error(self):
        previous = None
        for eps_g in np.linspace(5e-4, 0.012, 9):
            ft = optimal_target_fidelity(float(eps_g))
            err = ErrorParams(eps_g=float(eps_g), eps_r=0.001)
            result = resource_exponent(ProtocolParams(ft=ft, err=err))
            assert result.feasible
            if previous is not None:
                assert result.exponent >= previous - 1e-9
            previous = result.exponent


class TestOptimalRecursiveExponent:
    def test_beats_or_matches_closed_form_target(self):
        err = ErrorParams(eps_g=5e-4, eps_r=1e-4)
        ft_closed = optimal_target_fidelity(5e-4)
        at_closed = resource_exponent(ProtocolParams(ft=ft_closed, err=err))
        ft_opt, best = optimal_recursive_exponent(err)
        assert best.exponent <= at_closed.exponent + 1e-12
        assert 0.5 < ft_opt < 1.0

    def test_infeasible_errors_raise(self):
        with pytest.raises(InfeasibleError):
            optimal_recursive_exponent(ErrorParams(eps_g=0.05, eps_r=0.05))


def scalar_scan(err, ps=1.0, grid=512):
    # The target scan as one scalar trace per target, kept as the oracle of
    # the lock-step array scan: same window, same grid, first strict minimum.
    lo, hi = target_window(err)
    fps = find_fixed_points(err)

    def scan(a, b, n):
        best_ft, best = None, None
        for i in range(n):
            ft = a + (b - a) * i / (n - 1)
            f0 = float(swap_fidelity(ft, 2, err))
            if not fps.lower < f0 < ft:
                continue
            result = scaling_from_steps(_iterate_steps(f0, ft, err), ps)
            if best is None or result.exponent < best.exponent:
                best_ft, best = ft, result
        if best is None:
            raise InfeasibleError("no feasible target fidelity in the scan window")
        return best_ft, best

    coarse_ft, _ = scan(lo, hi, grid)
    cell = (hi - lo) / (grid - 1)
    return scan(max(lo, coarse_ft - cell), min(hi, coarse_ft + cell), grid)


def _exactness_cases():
    cases = [
        pytest.param(p.eps_g, p.eps_r, 1.0, id=p.name.replace(" ", "-"))
        for p in load_platforms(default_platforms_path())
    ]
    rng = random.Random(20241014)
    for i in range(24):
        eps_g = 10 ** rng.uniform(-4.0, math.log10(2.4e-2))
        eps_r = rng.uniform(0.0, 1.2e-2)
        for ps in (1.0, 0.8) if i % 3 == 0 else (1.0,):
            cases.append(pytest.param(eps_g, eps_r, ps, id=f"seeded{i}-ps{ps}"))
    for i, (eps_g, eps_r) in enumerate(
        [(0.02, 0.004), (0.021, 0.0), (0.022, 0.002), (0.023, 0.0), (0.024, 0.001)]
    ):
        for ps in (1.0, 0.8):
            cases.append(pytest.param(eps_g, eps_r, ps, id=f"threshold{i}-ps{ps}"))
    return cases


class TestLockstepScanExactness:
    @pytest.mark.parametrize("eps_g, eps_r, ps", _exactness_cases())
    def test_identical_to_scalar_scan(self, eps_g, eps_r, ps):
        err = ErrorParams(eps_g=eps_g, eps_r=eps_r)
        try:
            expected = scalar_scan(err, ps)
        except InfeasibleError as exc:
            with pytest.raises(InfeasibleError, match=str(exc)):
                optimal_recursive_exponent(err, ps)
        else:
            got = optimal_recursive_exponent(err, ps)
            assert got == expected
            # repr also tells a numpy scalar from a Python int or float
            assert repr(got) == repr(expected)

    @pytest.mark.parametrize(
        "eps_g, eps_r",
        [(0.05, 0.05), (0.03, 0.0), (0.025, 0.012), (0.0222, 0.012)],
    )
    def test_infeasible_still_raises(self, eps_g, eps_r):
        err = ErrorParams(eps_g=eps_g, eps_r=eps_r)
        for search in (scalar_scan, optimal_recursive_exponent):
            with pytest.raises(InfeasibleError):
                search(err)


class TestUncheckedRounds:
    # The lock-step rounds skip purify's range check and clamp.  That is safe
    # because every fidelity they see or make lies in (1/4, 1).
    @pytest.mark.parametrize(
        "eps_g, eps_r, ps",
        _exactness_cases()
        + [pytest.param(0.0, eps_r, 1.0, id=f"eps_g0-{eps_r}") for eps_r in (0.0, 0.003, 0.01)],
    )
    def test_round_fidelities_lie_in_open_quarter_to_one(self, monkeypatch, eps_g, eps_r, ps):
        seen = []

        def spy(f, err):
            out = _purify_kernel(f, err)
            seen.extend((f, out[0]))
            return out

        monkeypatch.setattr(recursive, "_purify_kernel", spy)
        try:
            optimal_recursive_exponent(ErrorParams(eps_g=eps_g, eps_r=eps_r), ps)
        except InfeasibleError:
            assert not seen
            return
        assert seen
        assert 0.25 < min(float(np.min(f)) for f in seen)
        assert max(float(np.max(f)) for f in seen) < 1.0

    @pytest.mark.parametrize("eps_g, eps_r, ps", _exactness_cases()[:8])
    def test_one_scalar_trace_per_search(self, monkeypatch, eps_g, eps_r, ps):
        scalar_calls = 0

        def counting_purify(f, err):
            nonlocal scalar_calls
            scalar_calls += isinstance(f, float)
            return purify(f, err)

        monkeypatch.setattr(recursive, "purify", counting_purify)
        _, result = optimal_recursive_exponent(ErrorParams(eps_g=eps_g, eps_r=eps_r), ps)
        assert scalar_calls == result.steps


def _bound_cases():
    rng = random.Random(20241019)
    cases = []
    for i in range(14):
        eps_g = 10 ** rng.uniform(-4.0, math.log10(2.4e-2))
        eps_r = rng.uniform(0.0, 1.2e-2)
        cases.append((eps_g, eps_r, 0.8 if i % 3 == 0 else 1.0))
    near_threshold = [(0.02, 0.004), (0.021, 0.0), (0.022, 0.002), (0.023, 0.0), (0.024, 0.001),
                      (0.0225, 0.003)]
    cases += [(eps_g, eps_r, 0.8 if eps_g > 0.0215 else 1.0) for eps_g, eps_r in near_threshold]
    return cases


def _scan_traces(eps_g, eps_r, ps, n=64):
    # One scan stage over the feasible window, built as the target scan builds it.
    err = ErrorParams(eps_g=eps_g, eps_r=eps_r)
    lo, hi = target_window(err)
    targets = lo + (hi - lo) * np.arange(n) / (n - 1)
    starts = swap_fidelity(targets, 2, err)
    keep = (find_fixed_points(err).lower < starts) & (starts < targets)
    targets, starts = targets[keep], starts[keep]
    return err, starts, targets, _bounded_lockstep_exponents(starts, targets, err, ps)


class TestBoundedLockstepExponents:
    @pytest.mark.parametrize("eps_g, eps_r, ps", _bound_cases())
    def test_finite_exact_and_dropped_worse(self, eps_g, eps_r, ps):
        err, starts, targets, got = _scan_traces(eps_g, eps_r, ps)
        best = got.min()
        for f0, ft, exponent in zip(starts.tolist(), targets.tolist(), got.tolist()):
            full = scaling_from_steps(_iterate_steps(f0, ft, err), ps)
            if math.isinf(exponent):
                # dropped only once the bound exponent >= steps + 1 proves it worse
                assert full.steps > best and full.exponent > best
            else:
                assert exponent == full.exponent
            if full.steps + 1 <= best:
                assert math.isfinite(exponent)

    def test_some_targets_are_dropped(self):
        dropped = sum(int(np.isinf(_scan_traces(*case)[3]).sum()) for case in _bound_cases())
        assert dropped > 0


class TestTotalResourcesAndRate:
    def test_single_link(self):
        assert total_resources(1, 4.2) == pytest.approx(1.0)

    def test_one_nesting_level(self):
        assert total_resources(2, 3.0) == pytest.approx(8.0)

    def test_ten_hops(self):
        assert total_resources(10, 5.1) == pytest.approx(10.0**5.1, rel=1e-12)

    def test_rejects_zero_links(self):
        with pytest.raises(ValueError):
            total_resources(0, 3.0)

    def test_rate_at_neighbor_distance(self):
        assert entanglement_rate(50.0, 50.0, 7.0, 4.0) == pytest.approx(7.0)

    def test_rate_unit_exponent_is_flat(self):
        for x in (50.0, 120.0, 400.0):
            assert entanglement_rate(x, 50.0, 7.0, 1.0) == pytest.approx(7.0)

    def test_rate_power_law(self):
        assert entanglement_rate(100.0, 50.0, 8.0, 3.0) == pytest.approx(2.0)

    def test_rate_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            entanglement_rate(10.0, 50.0, 7.0, 3.0)
        with pytest.raises(ValueError):
            entanglement_rate(100.0, 50.0, 0.0, 3.0)
