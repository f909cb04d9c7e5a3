import pytest

from repeater_scaling.analytic import AnalyticOptions
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
        for rate_hz in (None, -1.0):
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
