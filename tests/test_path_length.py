import math
import random
from types import SimpleNamespace

import pytest

from repeater_scaling.exceptions import InfeasibleError
from repeater_scaling.fixed_points import find_fixed_points
from repeater_scaling.maps import ErrorParams, decay, swap_fidelity
from repeater_scaling.path_length import (
    LinkBudget,
    check_budget_inputs,
    link_budget,
    max_path_length,
    swap_after_decay,
    within_decoherence_budget,
)

# (rate_hz, t2_s, eps_g, eps_r, published exponent)
REFERENCE_BUDGETS = [
    (5.4, 3e-4, 2.5e-3, 6e-3, 5.82),
    (1.0, 2.1, 5e-4, 1e-4, 4.06),
    (39.0, 1.0, 3.5e-4, 4e-4, 4.11),
    (250.0, 0.14, 5e-4, 1e-6, 4.01),
    (0.11, 1e-2, 2.5e-3, 4e-3, 5.62),
]


def _budget(rate_hz, t2_s, eps_g, eps_r, exponent):
    return link_budget(ErrorParams(eps_g=eps_g, eps_r=eps_r), rate_hz, t2_s, exponent)


class TestLinkBudget:
    def test_builder_uses_fixed_point_and_closed_form_target(self):
        err = ErrorParams(eps_g=5e-4, eps_r=1e-4)
        budget = link_budget(err, 1.0, 2.1, 4.06)
        fps = find_fixed_points(err)
        assert budget.f_lower == pytest.approx(fps.lower, abs=1e-12)
        assert budget.eta == pytest.approx(1.0 - 1e-4, abs=1e-15)
        assert 0.9 < budget.ft_star < 1.0

    def test_builder_uses_the_swap_read_out_efficiency(self):
        # eta_s set apart from 1 - eps_r: at d*, the decayed target swaps
        # exactly onto the lower fixed point.
        err = ErrorParams(eps_g=5e-4, eps_r=1e-4, eta_s=0.99)
        budget = link_budget(err, 1.0, 2.1, 4.06)
        assert budget.eta == 0.99
        d = max_path_length(budget)
        decayed = decay(budget.ft_star, d**budget.exponent / budget.rate_hz, budget.t2_s)
        assert float(swap_fidelity(decayed, 2, err)) == pytest.approx(budget.f_lower, abs=1e-15)

    def test_builder_raises_infeasible_without_fixed_points(self):
        with pytest.raises(InfeasibleError, match="no purification fixed points"):
            link_budget(ErrorParams(eps_g=0.05, eps_r=0.05), 1.0, 2.1, 4.06)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rate_hz": 0.0},
            {"t2_s": 0.0},
            {"exponent": 0.5},
            {"f_lower": 0.95},
            {"eta": 0.5},
        ],
    )
    def test_validation(self, kwargs):
        base = dict(rate_hz=1.0, t2_s=1.0, exponent=4.0, ft_star=0.9, f_lower=0.52, eta=0.99)
        base.update(kwargs)
        with pytest.raises(ValueError):
            LinkBudget(**base)


class TestBudgetInputs:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("label", ["rate_hz", "t2_s"])
    def test_non_finite_rate_or_coherence_time(self, label, value):
        args = {"rate_hz": 1.0, "t2_s": 1.0, label: value}
        with pytest.raises(ValueError, match=f"{label} must be finite, got {value}"):
            check_budget_inputs(**args)

    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.5])
    def test_exponent_must_be_finite_and_at_least_one(self, value):
        with pytest.raises(ValueError, match="exponent must be finite and >= 1"):
            check_budget_inputs(1.0, 1.0, value)

    def test_non_positive_wording(self):
        with pytest.raises(ValueError, match=r"^rate_hz must be positive, got 0.0$"):
            check_budget_inputs(0.0, 1.0)
        with pytest.raises(ValueError, match=r"^t2_s must be positive, got -1.0$"):
            check_budget_inputs(1.0, -1.0)


class TestDecoherenceCondition:
    def test_no_decay_limit_reduces_to_plain_swap(self):
        budget = _budget(*REFERENCE_BUDGETS[1])
        patient = LinkBudget(
            rate_hz=budget.rate_hz, t2_s=1e12, exponent=budget.exponent,
            ft_star=budget.ft_star, f_lower=budget.f_lower, eta=budget.eta,
        )
        assert within_decoherence_budget(1, patient)
        assert within_decoherence_budget(10, patient)

    def test_sivacancy_budget(self):
        budget = _budget(*REFERENCE_BUDGETS[1])
        assert within_decoherence_budget(1, budget)
        assert not within_decoherence_budget(2, budget)

    def test_nv_budget(self):
        budget = _budget(*REFERENCE_BUDGETS[2])
        assert within_decoherence_budget(2, budget)
        assert not within_decoherence_budget(3, budget)

    def test_condition_consistent_with_max_length(self):
        for row in REFERENCE_BUDGETS:
            budget = _budget(*row)
            limit = max_path_length(budget)
            for links in range(1, 11):
                assert within_decoherence_budget(links, budget) == (links < limit)

    def test_equality_at_the_limit(self):
        for row in REFERENCE_BUDGETS:
            budget = _budget(*row)
            limit = max_path_length(budget)
            assert swap_after_decay(limit, budget) == pytest.approx(budget.f_lower, abs=1e-9)

    def test_swap_is_the_two_link_swap_bit_for_bit(self):
        rng = random.Random(20241022)
        checked = 0
        while checked < 200:
            f_lower = rng.uniform(0.51, 0.9)
            budget = LinkBudget(
                rate_hz=10 ** rng.uniform(-1.0, 3.0), t2_s=10 ** rng.uniform(-4.0, 1.0),
                exponent=rng.uniform(1.0, 8.0), ft_star=rng.uniform(f_lower + 1e-3, 1.0),
                f_lower=f_lower, eta=rng.uniform(0.51, 1.0),
            )
            links = rng.uniform(1.0, 10.0)
            decayed = decay(budget.ft_star, links**budget.exponent / budget.rate_hz, budget.t2_s)
            if decayed <= 0.25:
                continue
            err = ErrorParams(eta_s=budget.eta)
            assert swap_after_decay(links, budget) == swap_fidelity(decayed, 2, err)
            checked += 1

    def test_rejects_zero_links(self):
        with pytest.raises(ValueError):
            within_decoherence_budget(0, _budget(*REFERENCE_BUDGETS[1]))


class TestMaxPathLength:
    def test_monotone_in_rate_times_coherence(self):
        base = _budget(*REFERENCE_BUDGETS[1])
        doubled = LinkBudget(
            rate_hz=2.0 * base.rate_hz, t2_s=base.t2_s, exponent=base.exponent,
            ft_star=base.ft_star, f_lower=base.f_lower, eta=base.eta,
        )
        assert max_path_length(doubled) > max_path_length(base)

    def test_monotone_decreasing_in_exponent(self):
        base = _budget(*REFERENCE_BUDGETS[1])
        for bump in (0.5, 1.0, 2.0):
            steeper = LinkBudget(
                rate_hz=base.rate_hz, t2_s=base.t2_s, exponent=base.exponent + bump,
                ft_star=base.ft_star, f_lower=base.f_lower, eta=base.eta,
            )
            assert max_path_length(steeper) < max_path_length(base)

    def test_floor_option(self):
        budget = _budget(*REFERENCE_BUDGETS[2])
        unfloored = max_path_length(budget)
        assert max_path_length(budget, floored=True) == math.floor(unfloored)

    def test_logarithm_domain_error_is_named(self):
        impossible = LinkBudget(
            rate_hz=1.0, t2_s=1.0, exponent=4.0, ft_star=0.71, f_lower=0.7, eta=0.8
        )
        with pytest.raises(InfeasibleError, match="logarithm"):
            max_path_length(impossible)

    def test_negative_radicand_is_infeasible(self):
        # LinkBudget's own checks keep the radicand positive, so only a
        # hand-built budget reaches this guard.
        negative = SimpleNamespace(rate_hz=1.0, t2_s=1.0, exponent=4.0, ft_star=0.9,
                                   f_lower=0.2, eta=0.9)
        with pytest.raises(InfeasibleError, match="negative radicand"):
            max_path_length(negative)
