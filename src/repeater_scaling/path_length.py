"""Decoherence-limited maximum path length of a repeater chain.

Stored pairs decay while the chain accumulates the pairs needed for a path;
once swapping a decayed target fidelity lands below the lower purification
fixed point, the chain cannot be maintained.
"""

import math
from dataclasses import dataclass

from .analytic import optimal_target_fidelity
from .exceptions import InfeasibleError
from .fixed_points import find_fixed_points
from .maps import ErrorParams, _swap, decay, swap_preimage

__all__ = [
    "check_budget_inputs",
    "LinkBudget",
    "link_budget",
    "swap_after_decay",
    "within_decoherence_budget",
    "max_path_length",
]


def check_budget_inputs(rate_hz: float, t2_s: float, exponent: float | None = None) -> None:
    """Require finite positive rate and coherence time, and a finite exponent >= 1."""
    for label, value in (("rate_hz", rate_hz), ("t2_s", t2_s)):
        if not math.isfinite(value):
            raise ValueError(f"{label} must be finite, got {value}")
        if value <= 0.0:
            raise ValueError(f"{label} must be positive, got {value}")
    if exponent is not None and not (math.isfinite(exponent) and exponent >= 1.0):
        raise ValueError(f"exponent must be finite and >= 1, got {exponent}")


@dataclass(frozen=True)
class LinkBudget:
    """Everything the decoherence condition needs about one platform.

    ``rate_hz`` is the neighbour-neighbour entanglement generation rate,
    ``t2_s`` the memory coherence time, ``exponent`` the resource exponent
    used to count the pairs a path needs, ``ft_star`` the maintained target
    fidelity, ``f_lower`` the lower purification fixed point and ``eta`` the
    effective read-out efficiency of the swap.
    """

    rate_hz: float
    t2_s: float
    exponent: float
    ft_star: float
    f_lower: float
    eta: float

    def __post_init__(self) -> None:
        check_budget_inputs(self.rate_hz, self.t2_s, self.exponent)
        if not 0.5 < self.f_lower < self.ft_star <= 1.0:
            raise InfeasibleError("expected 1/2 < f_lower < ft_star <= 1")
        if not 0.5 < self.eta <= 1.0:
            raise ValueError(f"eta must be in (0.5, 1], got {self.eta}")


def link_budget(err: ErrorParams, rate_hz: float, t2_s: float, exponent: float) -> LinkBudget:
    """Assemble a budget from error rates: fixed point, optimal target, read-out.

    The only place a budget is built from error rates.  Raises
    :class:`InfeasibleError` when the map has no fixed points or when the
    target does not lie above the lower one.
    """
    fps = find_fixed_points(err)
    if not fps.feasible:
        raise InfeasibleError("no purification fixed points for these errors")
    return LinkBudget(
        rate_hz=rate_hz,
        t2_s=t2_s,
        exponent=exponent,
        ft_star=optimal_target_fidelity(err.eps_g),
        f_lower=fps.lower,
        eta=err.eta_s,
    )


def swap_after_decay(path_links: float, budget: LinkBudget) -> float:
    """Fidelity of a swapped pair after waiting for the path's pair budget.

    The wait is the time to generate ``path_links ** exponent`` pairs at the
    neighbour rate; the decayed target is then swapped once, by the arithmetic
    of :func:`maps.swap_fidelity` without its (1/4, 1] domain check.
    """
    wait_s = path_links**budget.exponent / budget.rate_hz
    return _swap(decay(budget.ft_star, wait_s, budget.t2_s), 2, budget.eta)


def within_decoherence_budget(path_links: int, budget: LinkBudget) -> bool:
    """True when the swapped, decayed fidelity still exceeds the lower fixed point."""
    if path_links < 1:
        raise ValueError(f"path_links must be >= 1, got {path_links}")
    return swap_after_decay(path_links, budget) > budget.f_lower


def max_path_length(budget: LinkBudget, floored: bool = False) -> float:
    """Longest path (in links) the budget sustains; real-valued unless floored."""
    if budget.f_lower < 0.25:
        raise InfeasibleError(f"negative radicand: f_lower={budget.f_lower} is below 1/4")
    log_arg = swap_preimage(budget.f_lower, budget.eta) / budget.ft_star
    if not 0.0 < log_arg < 1.0:
        raise InfeasibleError(f"logarithm argument {log_arg} outside (0, 1); no real path length")
    length = (budget.rate_hz * budget.t2_s * math.sqrt(-math.log(log_arg))) ** (
        1.0 / budget.exponent
    )
    return math.floor(length) if floored else length
