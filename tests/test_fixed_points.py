import random
import time

import numpy as np
import pytest

from repeater_scaling import cli
from repeater_scaling.exceptions import InfeasibleError
from repeater_scaling.fixed_points import (
    ROOT_TOL,
    SCAN_LOWER,
    SCAN_STEP,
    TARGET_MARGIN,
    FixedPointResult,
    feasible_for,
    find_fixed_points,
    gate_error_threshold,
    target_window,
)
from repeater_scaling.maps import ErrorParams, purify, swap_fidelity
from repeater_scaling.platforms import (
    SweepGrid,
    default_platforms_path,
    evaluate_platform,
    load_platforms,
    sweep,
)

ZERO = ErrorParams()


def test_zero_error_roots_are_exact():
    fps = find_fixed_points(ZERO)
    assert fps.feasible
    assert fps.lower == pytest.approx(0.5, abs=1e-10)
    assert fps.upper == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize(
    "eps_g,eps_r",
    [(0.0, 0.0), (0.01, 0.01), (0.005, 0.0), (0.0, 0.02), (0.02, 0.005)],
)
def test_root_residuals(eps_g, eps_r):
    err = ErrorParams(eps_g=eps_g, eps_r=eps_r)
    fps = find_fixed_points(err)
    assert fps.feasible
    for root in (fps.lower, fps.upper):
        assert abs(float(purify(root, err).fidelity) - root) <= 1e-10
    assert 0.5 - 1e-10 <= fps.lower < fps.upper <= 1.0 + 1e-12


def test_gain_positive_strictly_between_roots():
    err = ErrorParams(eps_g=0.01, eps_r=0.01)
    fps = find_fixed_points(err)
    interior = np.linspace(fps.lower + 1e-6, fps.upper - 1e-6, 1000)
    gains = purify(interior, err).fidelity - interior
    assert (gains > 0.0).all()


def test_large_errors_are_infeasible():
    assert not find_fixed_points(ErrorParams(eps_g=0.05, eps_r=0.05)).feasible


def test_infeasibility_is_monotone_in_errors():
    # once infeasible, growing either error keeps it infeasible
    for er in np.linspace(0.0, 0.05, 6):
        for eg in np.linspace(0.0, 0.05, 6):
            base = find_fixed_points(ErrorParams(eps_g=float(eg), eps_r=float(er))).feasible
            if base:
                continue
            for d_er, d_eg in ((0.01, 0.0), (0.0, 0.01), (0.01, 0.01)):
                worse = ErrorParams(eps_g=float(eg) + d_eg, eps_r=float(er) + d_er)
                assert not find_fixed_points(worse).feasible


class TestFeasibleFor:
    def test_ideal_interval(self):
        assert feasible_for(0.6, 0.95, ZERO)

    def test_lower_fixed_point_excluded(self):
        assert not feasible_for(0.5, 0.95, ZERO)

    def test_upper_fixed_point_excluded(self):
        assert not feasible_for(0.6, 1.0, ZERO)

    def test_rejects_inverted_interval(self):
        with pytest.raises(ValueError):
            feasible_for(0.9, 0.6, ZERO)

    def test_boundary_tolerance(self):
        # points within the root tolerance of a fixed point count as outside
        fps = find_fixed_points(ZERO)
        assert not feasible_for(fps.lower, 0.9, ZERO)
        assert feasible_for(fps.lower + 1e-6, 0.9, ZERO)

    def test_swap_tied_window_at_moderate_errors(self):
        from repeater_scaling.analytic import optimal_target_fidelity
        from repeater_scaling.maps import swap_fidelity

        err = ErrorParams(eps_g=0.02, eps_r=0.02)
        ft = optimal_target_fidelity(0.02)
        f0 = float(swap_fidelity(ft, 2, err))
        fps = find_fixed_points(err)
        # window is far from both roots here, so the padded and strict
        # classifications coincide
        expected = fps.feasible and fps.lower < f0 and ft < fps.upper
        assert feasible_for(f0, ft, err) is expected


def test_gate_error_threshold_brackets_published_value():
    threshold = gate_error_threshold(0.0, tol=1e-4)
    assert 0.028 < threshold < 0.030


def test_gate_error_threshold_decreases_with_readout_error():
    assert gate_error_threshold(0.02) < gate_error_threshold(0.0)


def test_gate_error_threshold_raises_when_never_feasible():
    with pytest.raises(InfeasibleError):
        gate_error_threshold(0.45)


THRESHOLD_EPS_R = [float(er) for er in np.linspace(0.0, 0.1, 26)]


def _bisected_threshold(eps_r, tol):
    """The bisection of the scan's feasible flag that the closed form replaced."""
    lo, hi = 0.0, 0.1
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if find_fixed_points(ErrorParams(eps_g=mid, eps_r=eps_r)).feasible:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestExactThreshold:
    @pytest.mark.parametrize("eps_r", THRESHOLD_EPS_R)
    def test_scan_flips_at_the_threshold(self, eps_r):
        threshold = gate_error_threshold(eps_r)
        assert not find_fixed_points(ErrorParams(eps_g=threshold + 1e-9, eps_r=eps_r)).feasible
        assert find_fixed_points(ErrorParams(eps_g=threshold - 1e-6, eps_r=eps_r)).feasible

    @pytest.mark.parametrize("eps_r", THRESHOLD_EPS_R[::5])
    def test_agrees_with_fine_bisection(self, eps_r):
        assert abs(gate_error_threshold(eps_r) - _bisected_threshold(eps_r, 1e-12)) <= 1e-7

    def test_a_call_takes_under_a_tenth_of_a_millisecond(self):
        gate_error_threshold(0.003)
        times = []
        for _ in range(21):
            start = time.perf_counter()
            gate_error_threshold(0.003, tol=1e-4)
            times.append(time.perf_counter() - start)
        assert sorted(times)[10] < 1e-4


def _bisected_target_window(err):
    """The target window with its swap limit bisected, kept as the closed form's oracle."""
    fps = find_fixed_points(err)
    lo, hi = fps.lower + TARGET_MARGIN, fps.upper - TARGET_MARGIN
    if lo >= hi or swap_fidelity(hi, 2, err) <= fps.lower:
        raise InfeasibleError("swapping drops every target below the lower fixed point")
    if swap_fidelity(lo, 2, err) <= fps.lower:
        swap_lo, swap_hi = lo, hi
        while swap_hi - swap_lo > 1e-12:
            mid = 0.5 * (swap_lo + swap_hi)
            if swap_fidelity(mid, 2, err) <= fps.lower:
                swap_lo = mid
            else:
                swap_hi = mid
        lo = swap_hi + TARGET_MARGIN
    if lo >= hi:
        raise InfeasibleError("feasible target window is empty")
    return lo, hi


class TestTargetWindow:
    def test_swap_of_every_target_stays_purifiable(self):
        err = ErrorParams(eps_g=0.02, eps_r=0.004)
        fps = find_fixed_points(err)
        lo, hi = target_window(err)
        assert fps.lower + TARGET_MARGIN <= lo < hi == fps.upper - TARGET_MARGIN
        assert swap_fidelity(lo, 2, err) > fps.lower

    def test_infeasible_errors_raise(self):
        with pytest.raises(InfeasibleError, match="no purification fixed points"):
            target_window(ErrorParams(eps_g=0.05, eps_r=0.05))

    def test_swap_limit_agrees_with_bisection(self):
        rng = random.Random(20241020)
        cases = [ErrorParams(eps_g=rng.uniform(0.0, 0.03), eps_r=rng.uniform(0.0, 0.012))
                 for _ in range(300)]
        cases += [p.errors for p in load_platforms(default_platforms_path())]
        windows = 0
        for err in cases:
            if not find_fixed_points(err).feasible:
                continue
            try:
                expected = _bisected_target_window(err)
            except InfeasibleError:
                with pytest.raises(InfeasibleError):
                    target_window(err)
                continue
            lo, hi = target_window(err)
            assert abs(lo - expected[0]) <= 1e-12 and hi == expected[1]
            windows += 1
        assert windows > 100


def _cache_cases():
    rng = random.Random(20241018)
    cases = [(rng.uniform(0.0, 0.03), rng.uniform(0.0, 0.05)) for _ in range(12)]
    cases += [(0.0, 0.0), (0.0, 0.02), (0.0, 0.045)]
    # either side of the gate-error threshold at eps_r = 0 (about 0.02905)
    cases += [(0.0290, 0.0), (0.02905, 0.0), (0.0291, 0.0), (0.0222, 0.012)]
    return cases


class TestCache:
    @pytest.mark.parametrize("eps_g, eps_r", _cache_cases())
    def test_cached_result_is_the_uncached_solve(self, eps_g, eps_r):
        err = ErrorParams(eps_g=eps_g, eps_r=eps_r)
        expected = find_fixed_points.__wrapped__(err)
        for _ in range(2):
            got = find_fixed_points(err)
            assert got == expected
            assert repr(got) == repr(expected)

    @pytest.mark.parametrize("eps_g, eps_r", [(0.01, 0.01), (0.0, 0.0), (0.0222, 0.012)])
    def test_numpy_scalar_errors_share_the_entry(self, eps_g, eps_r):
        # Equal errors hash equal whatever their scalar type, so a cached
        # result may answer either; its repr must not tell them apart.
        find_fixed_points(ErrorParams(eps_g=eps_g, eps_r=eps_r))
        err = ErrorParams(eps_g=np.float64(eps_g), eps_r=np.float64(eps_r))
        expected = find_fixed_points.__wrapped__(err)
        assert find_fixed_points(err) == expected
        assert repr(find_fixed_points(err)) == repr(expected)

    def test_one_solve_per_platform_row(self):
        for platform in load_platforms(default_platforms_path()):
            find_fixed_points.cache_clear()
            assert evaluate_platform(platform).feasible
            assert find_fixed_points.cache_info().misses == 1

    @pytest.mark.parametrize("quantities", [("lambda",), ("ft-star",),
                                            ("lambda", "lambda-tilde", "ft-star", "dstar")])
    def test_one_solve_per_sweep_cell(self, quantities):
        # The grid crosses the gate-error threshold.
        cells = None
        find_fixed_points.cache_clear()
        for quantity in quantities:
            grid = SweepGrid(quantity, 0.0, 0.01, 3, 0.001, 0.04, 5, rate_hz=10.0, t2_s=1.0)
            cells = sweep(grid)
        assert any(c.feasible for c in cells) and not all(c.feasible for c in cells)
        assert find_fixed_points.cache_info().misses == len(cells)

    @pytest.mark.parametrize("extra", [[], ["--lambda", "4.06"]])
    def test_one_solve_per_dstar_command(self, capsys, extra):
        find_fixed_points.cache_clear()
        argv = ["dstar", "--rate", "1", "--t2", "2.1", "--eps-g", "5e-4", "--eps-r", "1e-4"]
        assert cli.main(argv + extra) == cli.EXIT_OK
        assert capsys.readouterr().out.strip().endswith("true")
        assert find_fixed_points.cache_info().misses == 1


def _two_loop_scan(err):
    """The element-by-element bracket scan the array scan replaced, kept as its oracle."""

    def gain(f):
        return purify(f, err).fidelity - f

    def bisect(lo, hi, g_lo):
        while hi - lo > ROOT_TOL:
            mid = 0.5 * (lo + hi)
            g_mid = gain(mid)
            if g_mid == 0.0:
                return mid
            if (g_mid > 0.0) == (g_lo > 0.0):
                lo, g_lo = mid, g_mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    lo = SCAN_LOWER + SCAN_STEP
    count = int(round((1.0 - lo) / SCAN_STEP)) + 1
    grid = np.linspace(lo, 1.0, count)
    gains = purify(grid, err).fidelity - grid

    roots = []
    for i in range(count):
        if gains[i] == 0.0:
            roots.append(float(grid[i]))
    for i in range(count - 1):
        if gains[i] == 0.0 or gains[i + 1] == 0.0:
            continue
        if (gains[i] > 0.0) != (gains[i + 1] > 0.0):
            roots.append(bisect(float(grid[i]), float(grid[i + 1]), float(gains[i])))

    roots.sort()
    deduped = []
    for r in roots:
        if not deduped or r - deduped[-1] > 1e-9:
            deduped.append(r)

    if len(deduped) < 2:
        return FixedPointResult(feasible=False)
    return FixedPointResult(feasible=True, lower=deduped[-2], upper=deduped[-1])


def _scan_mismatches(cases):
    mismatches = []
    for err in cases:
        got, expected = find_fixed_points.__wrapped__(err), _two_loop_scan(err)
        if got != expected or repr(got) != repr(expected):
            mismatches.append((err, got, expected))
    return mismatches


class TestArrayScanIsTheTwoLoopScan:
    def test_seeded_points(self):
        rng = random.Random(7)
        cases = [ErrorParams(eps_g=rng.uniform(0.0, 0.05), eps_r=rng.uniform(0.0, 0.012))
                 for _ in range(2000)]
        assert not _scan_mismatches(cases)
        feasible = sum(find_fixed_points.__wrapped__(err).feasible for err in cases[:200])
        assert 0 < feasible < 200

    def test_exact_zeros_on_the_grid(self):
        cases = [ErrorParams(eps_g=0.0, eps_r=float(er)) for er in np.linspace(0.0, 0.049, 15)]
        # F = 1 is the last grid point and an exact zero of the error-free gate map.
        assert all(_two_loop_scan(err).upper == 1.0 for err in cases)
        assert not _scan_mismatches(cases)

    def test_dense_band_around_the_threshold(self):
        cases = [ErrorParams(eps_g=float(eg), eps_r=float(er))
                 for eg in np.linspace(0.022, 0.030, 161)
                 for er in (0.0, 0.002, 0.006)]
        assert not _scan_mismatches(cases)

    def test_numpy_scalar_errors(self):
        rng = np.random.default_rng(11)
        cases = [ErrorParams(eps_g=np.float64(eg), eps_r=np.float64(er))
                 for eg, er in zip(rng.uniform(0.0, 0.05, 100), rng.uniform(0.0, 0.012, 100))]
        cases.append(ErrorParams(eps_g=np.float64(0.0), eps_r=np.float64(0.0)))
        assert not _scan_mismatches(cases)
