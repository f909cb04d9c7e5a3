"""Recursive (iterated) resource estimates for the nested repeater protocol.

The purification trace is the ground truth that the closed-form estimators
approximate: it records every successful purification step from the post-swap
fidelity up to the target.
"""

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .exceptions import InfeasibleError, NonConvergenceError
from .fixed_points import feasible_for, find_fixed_points, target_window
from .maps import ErrorParams, purify, swap_fidelity

__all__ = [
    "ProtocolParams",
    "TraceStep",
    "PurificationTrace",
    "ScalingResult",
    "purification_trace",
    "pairs_per_level",
    "scaling_from_steps",
    "resource_exponent",
    "optimal_recursive_exponent",
    "total_resources",
    "entanglement_rate",
]

MAX_TRACE_STEPS = 10**6
# Targets per stage of the two-stage scan in optimal_recursive_exponent.
SCAN_POINTS = 512


@dataclass(frozen=True)
class ProtocolParams:
    """One nesting level of the protocol: swap to ``f0``, purify back to ``ft``.

    When ``f0`` is omitted it is derived by swapping two links of fidelity
    ``ft``, which ties the whole level to the single target fidelity.
    Swapping is deterministic by default (``ps = 1``).
    """

    ft: float
    err: ErrorParams
    f0: float | None = None
    ps: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.ft <= 1.0:
            raise ValueError(f"ft must lie in (0, 1], got {self.ft}")
        if not 0.0 < self.ps <= 1.0:
            raise ValueError(f"ps must lie in (0, 1], got {self.ps}")
        if self.f0 is None:
            object.__setattr__(self, "f0", float(swap_fidelity(self.ft, 2, self.err)))
        if not self.f0 < self.ft:
            raise ValueError(f"expected f0 < ft, got f0={self.f0}, ft={self.ft}")


class TraceStep(NamedTuple):
    fidelity_in: float
    fidelity_out: float
    p_accept: float


@dataclass(frozen=True)
class PurificationTrace:
    steps: tuple[TraceStep, ...]

    @property
    def step_count(self) -> int:
        return len(self.steps)

    @property
    def final_fidelity(self) -> float:
        return self.steps[-1].fidelity_out


@dataclass(frozen=True)
class ScalingResult:
    """Resource scaling of one nesting level.

    ``exponent`` is the polynomial degree relating base-pair consumption to
    path length; it equals ``log2(pairs_per_level) + 1``.  When infeasible all
    numeric fields are None; presentation layers may render 0 or a cap, the
    library does not.
    """

    feasible: bool
    method: str
    steps: float | None = None
    pairs_per_level: float | None = None
    exponent: float | None = None


def _iterate_steps(f0: float, ft: float, err: ErrorParams) -> list[TraceStep]:
    steps: list[TraceStep] = []
    f = f0
    while f < ft:
        if len(steps) >= MAX_TRACE_STEPS:
            raise NonConvergenceError("purification trace exceeded step limit")
        f_next, p_accept = purify(f, err)
        steps.append(TraceStep(f, float(f_next), float(p_accept)))
        f = float(f_next)
    return steps


def _pairs(step_count: int, prod: float, ps: float) -> float:
    # ``step_count`` must be a Python int: ``ps ** np.int64`` rounds differently.
    return 2.0**step_count / (ps**step_count * prod)


def _scaling_result(step_count: int, pairs: float) -> ScalingResult:
    return ScalingResult(
        feasible=True,
        method="recursive",
        steps=step_count,
        pairs_per_level=pairs,
        exponent=math.log2(pairs) + 1.0,
    )


def _lockstep_traces(f0: np.ndarray, ft: np.ndarray, err: ErrorParams):
    """Step counts and acceptance products of the traces from each ``f0`` to its ``ft``.

    All traces advance together, one array ``purify`` call per round.  Each
    element goes through the same float operations, in the same order, as in
    ``_iterate_steps``, so the counts and products match it bit for bit.
    """
    f = f0.copy()
    steps = np.zeros(f.shape, dtype=np.int64)
    prod = np.ones(f.shape)
    active = np.flatnonzero(f < ft)
    rounds = 0
    while active.size:
        if rounds >= MAX_TRACE_STEPS:
            raise NonConvergenceError("purification trace exceeded step limit")
        f_next, p_accept = purify(f[active], err)
        f[active] = f_next
        prod[active] *= p_accept
        steps[active] += 1
        active = active[f_next < ft[active]]
        rounds += 1
    return steps.tolist(), prod.tolist()


def scaling_from_steps(steps: Sequence[TraceStep], ps: float) -> ScalingResult:
    """Resource scaling of a purification trace: its step count and acceptance product."""
    prod = 1.0
    for step in steps:
        prod *= step.p_accept
    return _scaling_result(len(steps), _pairs(len(steps), prod, ps))


def purification_trace(params: ProtocolParams) -> PurificationTrace:
    """Iterate the purification map from ``f0`` until the target is reached.

    The final step keeps its overshoot; there is no fractional last step.
    """
    if not feasible_for(params.f0, params.ft, params.err):
        raise InfeasibleError(
            f"({params.f0}, {params.ft}) lies outside the purification fixed points"
        )
    return PurificationTrace(tuple(_iterate_steps(params.f0, params.ft, params.err)))


def pairs_per_level(params: ProtocolParams) -> float:
    """Expected pairs consumed per purified link of one nesting level."""
    return scaling_from_steps(purification_trace(params).steps, params.ps).pairs_per_level


def resource_exponent(params: ProtocolParams) -> ScalingResult:
    """Exact resource exponent from the iterated trace; infeasibility in-band."""
    try:
        trace = purification_trace(params)
    except InfeasibleError:
        return ScalingResult(feasible=False, method="recursive")
    return scaling_from_steps(trace.steps, params.ps)


def optimal_recursive_exponent(err: ErrorParams, ps: float = 1.0) -> tuple[float, ScalingResult]:
    """Target fidelity minimising the recursive exponent, by two-stage grid scan.

    The recursive exponent is piecewise in the target fidelity (the step count
    is an integer), so a smooth optimiser is not applicable; a fine scan inside
    the feasible target window is.  At larger errors the minimum can sit far
    from the closed-form optimal target.
    """
    lo, hi = target_window(err)
    f_lower = find_fixed_points(err).lower

    def scan(a: float, b: float, n: int) -> tuple[float, ScalingResult]:
        targets, starts = [], []
        for i in range(n):
            ft = a + (b - a) * i / (n - 1)
            # Scalar swap on purpose: the array path squares with x*x, the
            # float path with pow(), and the two differ in the last bit.
            f0 = float(swap_fidelity(ft, 2, err))
            if f_lower < f0 < ft:
                targets.append(ft)
                starts.append(f0)
        if not targets:
            raise InfeasibleError("no feasible target fidelity in the scan window")
        step_counts, prods = _lockstep_traces(np.array(starts), np.array(targets), err)
        pairs = [_pairs(k, prod, ps) for k, prod in zip(step_counts, prods)]
        exponents = [math.log2(p) + 1.0 for p in pairs]
        # min() keeps the first of equal minima, like a strict-less-than scan.
        best = min(range(len(targets)), key=exponents.__getitem__)
        return targets[best], _scaling_result(step_counts[best], pairs[best])

    coarse_ft, _ = scan(lo, hi, SCAN_POINTS)
    cell = (hi - lo) / (SCAN_POINTS - 1)
    return scan(max(lo, coarse_ft - cell), min(hi, coarse_ft + cell), SCAN_POINTS)


def total_resources(path_links: float, exponent: float) -> float:
    """Base-level pairs consumed to span ``path_links`` fundamental links."""
    if path_links < 1:
        raise ValueError(f"path_links must be >= 1, got {path_links}")
    return float(path_links) ** exponent


def entanglement_rate(
    distance: float, neighbor_distance: float, neighbor_rate: float, exponent: float
) -> float:
    """Average end-to-end entanglement rate at a physical distance.

    Power law inherited from the resource scaling: the prefactor is the
    neighbour rate, the exponent is ``1 - exponent``.
    """
    if not 0.0 < neighbor_distance <= distance:
        raise ValueError("expected distance >= neighbor_distance > 0")
    if neighbor_rate <= 0.0:
        raise ValueError(f"neighbor_rate must be positive, got {neighbor_rate}")
    return neighbor_rate * neighbor_distance ** (exponent - 1.0) * distance ** (-exponent + 1.0)
