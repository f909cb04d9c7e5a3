import math

import numpy as np
import pytest

from repeater_scaling import mc
from repeater_scaling.analytic import optimal_target_fidelity
from repeater_scaling.maps import ErrorParams
from repeater_scaling.mc import SimConfig, histogram_csv, simulate, simulate_counts
from repeater_scaling.recursive import ProtocolParams, pairs_per_level


def test_deterministic_counts_with_unit_probabilities():
    # two guaranteed steps per level: every trial costs exactly 8^levels
    for levels in (1, 2, 3):
        counts, aborted = simulate_counts(levels, [1.0, 1.0], 1.0, trials=50, seed=1)
        assert aborted == 0
        assert counts == [8**levels] * 50


def test_single_step_geometric_process():
    # one step at acceptance 1/2: consumption is 4 x Geometric(1/2)
    counts, aborted = simulate_counts(1, [0.5], 1.0, trials=4000, seed=99)
    assert aborted == 0
    assert all(c % 4 == 0 and c >= 4 for c in counts)
    mean = sum(counts) / len(counts)
    # E = 4 * E[Geom(1/2)] = 8, Var = 16 * 2 = 32
    std_err = math.sqrt(32.0 / len(counts))
    assert abs(mean - 8.0) <= 4.0 * std_err


def test_swap_probability_costs_pairs():
    counts, _ = simulate_counts(1, [1.0], 0.5, trials=4000, seed=7)
    mean = sum(counts) / len(counts)
    # one step, swap retries double the expected base cost: 2 * 2 * E[Geom(1/2)]
    assert mean == pytest.approx(8.0, rel=0.1)


def test_seed_determinism():
    counts_a, _ = simulate_counts(2, [0.8, 0.9], 1.0, trials=200, seed=1234)
    counts_b, _ = simulate_counts(2, [0.8, 0.9], 1.0, trials=200, seed=1234)
    assert counts_a == counts_b
    counts_c, _ = simulate_counts(2, [0.8, 0.9], 1.0, trials=200, seed=1235)
    assert counts_a != counts_c


def test_trial_order_independence():
    # trials draw in order within blocks keyed by (seed, block): a longer run
    # extends a shorter one
    short, _ = simulate_counts(1, [0.7], 1.0, trials=50, seed=5)
    longer, _ = simulate_counts(1, [0.7], 1.0, trials=100, seed=5)
    assert longer[:50] == short


def test_longer_run_extends_shorter_across_block_boundaries(monkeypatch):
    monkeypatch.setattr(mc, "BLOCK", 8)
    short, _ = simulate_counts(1, [0.7], 1.0, trials=13, seed=5)
    longer, _ = simulate_counts(1, [0.7], 1.0, trials=29, seed=5)
    assert len(short) == 13
    assert longer[:13] == short


def test_each_block_depends_only_on_seed_and_block(monkeypatch):
    monkeypatch.setattr(mc, "BLOCK", 8)
    step_probs, swap_prob, levels, seed = [0.6, 0.8], 0.9, 2, 11
    counts, aborted = simulate_counts(levels, step_probs, swap_prob, trials=24, seed=seed)
    assert aborted == 0
    rng = np.random.default_rng((seed, 1))
    replay = [mc._trial_consumed(rng, step_probs, swap_prob, levels) for _ in range(8)]
    assert counts[8:16] == replay


def test_abort_guard():
    counts, aborted = simulate_counts(15, [0.5, 0.5], 1.0, trials=5, seed=3)
    assert counts == []
    assert aborted == 5


def test_requires_at_least_one_step():
    with pytest.raises(ValueError):
        simulate_counts(1, [], 1.0, trials=1, seed=0)


class TestSimulate:
    ERR = ErrorParams(eps_g=0.01, eps_r=0.01)

    def _config(self, levels, trials=2000, seed=20240817):
        ft = optimal_target_fidelity(0.01)
        return SimConfig(
            levels=levels,
            params=ProtocolParams(ft=ft, err=self.ERR),
            trials=trials,
            seed=seed,
        )

    def test_mean_matches_recursive_expectation(self):
        config = self._config(1)
        report = simulate(config)
        assert report.aborted == 0
        expected = (2.0 * pairs_per_level(config.params)) ** 1
        assert report.analytic_total == pytest.approx(expected, rel=1e-12)
        assert abs(report.mean_consumed - expected) <= 4.0 * report.std_error

    @pytest.mark.parametrize("levels", [1, 2, 3])
    def test_analytic_total_is_exact_recursive_cost(self, levels):
        config = self._config(levels, trials=10)
        expected = (2.0 * pairs_per_level(config.params)) ** levels
        assert simulate(config).analytic_total == expected

    def test_every_trial_consumes_at_least_two_per_level(self):
        for levels in (1, 2):
            report = simulate(self._config(levels, trials=300))
            assert min(report.histogram) >= 2**levels

    def test_histogram_counts_trials(self):
        report = simulate(self._config(1, trials=500))
        assert sum(report.histogram.values()) == report.completed == 500

    def test_report_equality_for_fixed_seed(self):
        config = self._config(1, trials=300)
        assert simulate(config) == simulate(config)

    def test_histogram_csv_layout(self):
        report = simulate(self._config(1, trials=100))
        text = histogram_csv(report)
        lines = text.strip().split("\n")
        assert lines[0] == "consumed_pairs,count"
        parsed = [tuple(int(v) for v in line.split(",")) for line in lines[1:]]
        assert sum(count for _, count in parsed) == 100
        assert parsed == sorted(parsed)

    def test_config_validation(self):
        params = ProtocolParams(ft=0.9, err=self.ERR)
        with pytest.raises(ValueError):
            SimConfig(levels=0, params=params, trials=10, seed=1)
        with pytest.raises(ValueError):
            SimConfig(levels=1, params=params, trials=0, seed=1)
        with pytest.raises(ValueError):
            SimConfig(levels=1, params=params, trials=10, seed=-1)
