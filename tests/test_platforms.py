import math
import random

import pytest

from repeater_scaling import platforms as platforms_module
from repeater_scaling.analytic import AnalyticOptions, exponent_estimate, optimal_target_fidelity
from repeater_scaling.exceptions import InfeasibleError
from repeater_scaling.fixed_points import gate_error_threshold
from repeater_scaling.maps import swap_fidelity
from repeater_scaling.path_length import link_budget, max_path_length
from repeater_scaling.platforms import (
    Platform,
    SweepGrid,
    default_platforms_path,
    dump_platforms,
    evaluate_all,
    evaluate_platform,
    load_platforms,
    save_platforms,
    sweep,
)
from repeater_scaling.recursive import (
    ProtocolParams,
    optimal_recursive_exponent,
    resource_exponent,
)

# name -> (lambda_tilde, lambda_recursive, d_star) reference values
REFERENCE = {
    "Superconducting": (5.1, 5.82, 0.3),
    "SiV centers": (3.49, 4.06, 1.06),
    "NV centers": (3.47, 4.11, 2.15),
    "Trapped ions": (3.47, 4.01, 2.14),
    "Neutral atoms": (4.84, 5.62, 0.27),
}


class TestDataset:
    def test_default_dataset(self):
        platforms = load_platforms(default_platforms_path())
        assert len(platforms) == 5
        by_name = {p.name: p for p in platforms}
        assert by_name["SiV centers"].eps_g == 5e-4
        assert by_name["Trapped ions"].rate_hz == 250.0
        assert all(p.note for p in platforms)

    def test_empty_file_is_valid(self, tmp_path):
        empty = tmp_path / "empty.json"
        empty.write_text("")
        assert load_platforms(empty) == []
        empty.write_text("[]")
        assert load_platforms(empty) == []

    def test_round_trip_identity(self, tmp_path):
        platforms = load_platforms(default_platforms_path())
        target = tmp_path / "copy.json"
        save_platforms(platforms, target)
        assert load_platforms(target) == platforms
        assert dump_platforms(load_platforms(target)) == dump_platforms(platforms)

    def test_validation_error_names_field(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(
            '[{"name": "X", "eps_g": -1, "eps_r": 0, "rate_hz": 1, "t2_s": 1}]'
        )
        with pytest.raises(ValueError, match="eps_g"):
            load_platforms(bad)

    def test_parse_error_reports_position(self, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text('[{"name": "X",]')
        with pytest.raises(ValueError, match="line 1"):
            load_platforms(bad)

    def test_missing_field_reported(self, tmp_path):
        bad = tmp_path / "missing.json"
        bad.write_text('[{"name": "X", "eps_g": 0.001}]')
        with pytest.raises(ValueError, match="missing fields"):
            load_platforms(bad)

    def test_platform_invariants(self):
        with pytest.raises(ValueError):
            Platform(name="", eps_g=0.001, eps_r=0.001, rate_hz=1.0, t2_s=1.0)
        with pytest.raises(ValueError):
            Platform(name="X", eps_g=0.001, eps_r=0.001, rate_hz=0.0, t2_s=1.0)

    @pytest.mark.parametrize("field", ["rate_hz", "t2_s"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_budget_is_rejected(self, field, value):
        fields = dict(name="X", eps_g=0.001, eps_r=0.001, rate_hz=1.0, t2_s=1.0)
        fields[field] = value
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            Platform(**fields)


@pytest.fixture(scope="module")
def rows():
    return {
        row.platform.name: row
        for row in evaluate_all(load_platforms(default_platforms_path()))
    }


class TestEvaluate:

    def test_all_rows_feasible(self, rows):
        assert all(row.feasible for row in rows.values())

    @pytest.mark.parametrize("name", sorted(REFERENCE))
    def test_analytic_exponent(self, rows, name):
        assert rows[name].lambda_tilde == pytest.approx(REFERENCE[name][0], abs=0.05)

    @pytest.mark.parametrize("name", sorted(REFERENCE))
    def test_exponent_band(self, rows, name):
        # the trace-based exponent sits within a unit of the analytic one
        row = rows[name]
        assert row.lambda_tilde - 1.0 <= row.lambda_recursive <= row.lambda_tilde + 1.0

    @pytest.mark.parametrize("name", ["NV centers", "Trapped ions", "Neutral atoms"])
    def test_reference_rows(self, rows, name):
        # published recursive exponents and path lengths do not state which
        # target-fidelity convention they used; one of the two must match
        row = rows[name]
        _, ref_rec, ref_d = REFERENCE[name]
        assert min(
            abs(row.lambda_recursive - ref_rec),
            abs(row.lambda_recursive_optimal - ref_rec),
        ) <= 0.1
        assert min(abs(row.d_star - ref_d), abs(row.d_star_optimal - ref_d)) <= 0.05

    def test_infeasible_platform_flagged(self):
        hopeless = Platform(name="broken", eps_g=0.05, eps_r=0.05, rate_hz=1.0, t2_s=1.0)
        row = evaluate_platform(hopeless)
        assert not row.feasible
        assert row.lambda_tilde is None and row.d_star is None

    @pytest.mark.parametrize("eps_g, eps_r", [(0.0, 0.0), (0.3, 0.01), (0.9, 0.0)])
    def test_empty_windows_are_infeasible_in_band(self, eps_g, eps_r):
        # f0 = ft = 1 at the error-free corner; above eps_g ~ 0.19 the
        # closed-form target lies below the swap's domain.
        platform = Platform(name="X", eps_g=eps_g, eps_r=eps_r, rate_hz=1.0, t2_s=1.0)
        row = evaluate_platform(platform)
        assert not row.feasible
        assert row.lambda_recursive_optimal is None and row.d_star_optimal is None

    def test_errors_other_than_infeasibility_propagate(self, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("programming error")

        monkeypatch.setattr(platforms_module, "exponent_estimate", broken)
        siv = Platform(name="SiV", eps_g=5e-4, eps_r=1e-4, rate_hz=1.0, t2_s=2.1)
        with pytest.raises(ValueError, match="programming error"):
            evaluate_platform(siv)


def _seeded_platforms(n: int, seed: int) -> list[Platform]:
    """Broad rows (eps_g = 0 every 20th, eps_r = 0 every 23rd) and, every
    fifth row, a gate error 1e-12 to 1e-2 below the threshold."""
    rng = random.Random(seed)
    out = []
    for i in range(n):
        if i % 5 == 4:
            eps_r = rng.uniform(0.0, 0.05)
            gap = math.exp(rng.uniform(math.log(1e-12), math.log(1e-2)))
            eps_g = max(gate_error_threshold(eps_r) - gap, 0.0)
        else:
            eps_g = 0.0 if i % 20 == 0 else math.exp(rng.uniform(math.log(1e-5), math.log(0.03)))
            eps_r = 0.0 if i % 23 == 0 else rng.uniform(0.0, 0.05)
        rate_hz = math.exp(rng.uniform(math.log(0.1), math.log(300.0)))
        t2_s = math.exp(rng.uniform(math.log(1e-4), math.log(3.0)))
        out.append(Platform(name=f"p{i}", eps_g=eps_g, eps_r=eps_r, rate_hz=rate_hz, t2_s=t2_s))
    return out


class TestTraceOptimalTwins:
    """The ``_optimal`` twins are computed on first read, from the row's platform."""

    @pytest.fixture(scope="class")
    def seeded(self):
        platforms = _seeded_platforms(500, seed=1701)
        return list(zip(platforms, evaluate_all(platforms)))

    def test_feasible_is_both_estimates_feasible(self, seeded):
        for platform, row in seeded:
            err = platform.errors
            ft = optimal_target_fidelity(platform.eps_g)
            f0 = float(swap_fidelity(ft, 2, err))
            expected = f0 < ft and (
                exponent_estimate(f0, ft, err).feasible
                and resource_exponent(ProtocolParams(ft=ft, err=err, f0=f0)).feasible
            )
            assert row.feasible == expected, platform
        feasible = sum(row.feasible for _, row in seeded)
        assert 0 < feasible < len(seeded)

    def test_twins_equal_a_direct_scan(self, seeded):
        for platform, row in seeded:
            if not row.feasible:
                assert row.lambda_recursive_optimal is None and row.d_star_optimal is None
                continue
            _, direct = optimal_recursive_exponent(platform.errors)
            d_star = max_path_length(
                link_budget(platform.errors, platform.rate_hz, platform.t2_s, direct.exponent))
            assert repr(row.lambda_recursive_optimal) == repr(direct.exponent), platform
            assert repr(row.d_star_optimal) == repr(d_star), platform

    def test_scan_runs_once_on_first_read(self, monkeypatch):
        calls = []

        def counting(err, ps=1.0):
            calls.append(err)
            return optimal_recursive_exponent(err, ps)

        monkeypatch.setattr(platforms_module, "optimal_recursive_exponent", counting)
        row = evaluate_platform(Platform(name="SiV", eps_g=5e-4, eps_r=1e-4, rate_hz=1.0,
                                         t2_s=2.1))
        assert calls == []
        first = (row.d_star_optimal, row.lambda_recursive_optimal)
        assert (row.d_star_optimal, row.lambda_recursive_optimal) == first
        assert len(calls) == 1

    def test_scan_errors_propagate_from_the_read(self, monkeypatch):
        def failing(err, ps=1.0):
            raise InfeasibleError("scan failed")

        monkeypatch.setattr(platforms_module, "optimal_recursive_exponent", failing)
        row = evaluate_platform(Platform(name="SiV", eps_g=5e-4, eps_r=1e-4, rate_hz=1.0,
                                         t2_s=2.1))
        assert row.feasible and row.d_star is not None
        with pytest.raises(InfeasibleError, match="scan failed"):
            row.lambda_recursive_optimal
        with pytest.raises(InfeasibleError, match="scan failed"):
            row.d_star_optimal


class TestSweep:
    def test_row_order_and_size(self):
        grid = SweepGrid(
            quantity="lambda-tilde",
            eps_r_start=0.0, eps_r_stop=0.01, eps_r_steps=3,
            eps_g_start=0.0, eps_g_stop=0.01, eps_g_steps=4,
        )
        cells = sweep(grid)
        assert len(cells) == 12
        assert cells[0].eps_r == 0.0 and cells[0].eps_g == 0.0
        assert cells[-1].eps_r == 0.01 and cells[-1].eps_g == 0.01

    def test_corner_grid_respects_exponent_floor(self):
        grid = SweepGrid(
            quantity="lambda-tilde",
            eps_r_start=0.0, eps_r_stop=0.001, eps_r_steps=2,
            eps_g_start=0.0, eps_g_stop=0.001, eps_g_steps=2,
        )
        cells = sweep(grid)
        feasible = [c for c in cells if c.feasible]
        assert feasible
        assert all(c.value >= 3.0 for c in feasible)

    def test_step_ceiling_option_is_applied(self):
        grid = SweepGrid(
            quantity="lambda-tilde",
            eps_r_start=0.0, eps_r_stop=0.01, eps_r_steps=3,
            eps_g_start=0.001, eps_g_stop=0.01, eps_g_steps=4,
        )
        plain = sweep(grid)
        ceiled = sweep(grid, AnalyticOptions(use_ceiling=True))
        assert [c.feasible for c in ceiled] == [c.feasible for c in plain]
        pairs = [(c.value, p.value) for c, p in zip(ceiled, plain) if c.feasible]
        assert pairs and all(c > p for c, p in pairs)

    def test_beyond_threshold_is_infeasible(self):
        grid = SweepGrid(
            quantity="lambda-tilde",
            eps_r_start=0.0, eps_r_stop=0.0, eps_r_steps=2,
            eps_g_start=0.03, eps_g_stop=0.03, eps_g_steps=2,
        )
        assert all(not c.feasible for c in sweep(grid))

    def test_exponent_ten_contour_location(self):
        for eps_g, expect_low in ((0.012, True), (0.014, False)):
            grid = SweepGrid(
                quantity="lambda-tilde",
                eps_r_start=0.0, eps_r_stop=0.0, eps_r_steps=2,
                eps_g_start=eps_g, eps_g_stop=eps_g, eps_g_steps=2,
            )
            cell = sweep(grid)[0]
            if expect_low:
                assert cell.feasible and cell.value < 10.0
            else:
                assert (not cell.feasible) or cell.value > 10.0

    def test_feasibility_boundary_crossing(self):
        grid = SweepGrid(
            quantity="lambda-tilde",
            eps_r_start=0.0, eps_r_stop=0.0, eps_r_steps=2,
            eps_g_start=0.028, eps_g_stop=0.030, eps_g_steps=2,
        )
        cells = sweep(grid)
        low = [c for c in cells if c.eps_g == 0.028]
        high = [c for c in cells if c.eps_g == 0.030]
        assert all(c.feasible for c in low)
        assert all(not c.feasible for c in high)

    def test_recursive_quantity(self):
        grid = SweepGrid(
            quantity="lambda",
            eps_r_start=0.001, eps_r_stop=0.001, eps_r_steps=2,
            eps_g_start=0.001, eps_g_stop=0.005, eps_g_steps=2,
        )
        cells = sweep(grid)
        assert all(c.feasible and c.value >= 3.0 for c in cells)

    def test_ft_star_quantity(self):
        grid = SweepGrid(
            quantity="ft-star",
            eps_r_start=0.0, eps_r_stop=0.0, eps_r_steps=2,
            eps_g_start=0.001, eps_g_stop=0.005, eps_g_steps=2,
        )
        cells = sweep(grid)
        assert all(c.feasible and 0.5 < c.value < 1.0 for c in cells)

    def test_dstar_quantity_requires_budget(self):
        for rate_hz in (None, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="rate_hz"):
                SweepGrid(
                    quantity="dstar",
                    eps_r_start=0.0, eps_r_stop=0.0, eps_r_steps=2,
                    eps_g_start=0.001, eps_g_stop=0.005, eps_g_steps=2,
                    rate_hz=rate_hz, t2_s=1.0,
                )
        grid = SweepGrid(
            quantity="dstar",
            eps_r_start=1e-4, eps_r_stop=1e-4, eps_r_steps=2,
            eps_g_start=5e-4, eps_g_stop=5e-4, eps_g_steps=2,
            rate_hz=1.0, t2_s=2.1,
        )
        cells = sweep(grid)
        assert all(c.feasible and c.value > 0.5 for c in cells)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            SweepGrid(
                quantity="lambda-tilde",
                eps_r_start=0.0, eps_r_stop=0.01, eps_r_steps=1,
                eps_g_start=0.0, eps_g_stop=0.01, eps_g_steps=2,
            )
        with pytest.raises(ValueError):
            SweepGrid(
                quantity="nope",
                eps_r_start=0.0, eps_r_stop=0.01, eps_r_steps=2,
                eps_g_start=0.0, eps_g_stop=0.01, eps_g_steps=2,
            )
        with pytest.raises(ValueError):
            SweepGrid(
                quantity="lambda-tilde",
                eps_r_start=0.0, eps_r_stop=0.2, eps_r_steps=2,
                eps_g_start=0.0, eps_g_stop=0.01, eps_g_steps=2,
            )
