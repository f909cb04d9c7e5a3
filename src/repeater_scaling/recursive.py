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
from .maps import ErrorParams, _purify_kernel, purify, swap_fidelity

__all__ = [
    "check_unit_interval",
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


def check_unit_interval(name: str, value: float) -> None:
    """Require ``0 < value <= 1``, the rule of a fidelity or a probability; NaN fails."""
    if not 0.0 < value <= 1.0:
        raise ValueError(f"{name} must lie in (0, 1], got {value}")


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
        check_unit_interval("ft", self.ft)
        check_unit_interval("ps", self.ps)
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


def _pairs(step_count: int, prod: float | np.ndarray, ps: float) -> float | np.ndarray:
    # ``step_count`` must be a Python int: ``ps ** np.int64`` rounds differently.
    return 2.0**step_count / (ps**step_count * prod)


def _bounded_lockstep_exponents(f0: np.ndarray, ft: np.ndarray, err: ErrorParams, ps: float):
    """Exponent of the trace from each ``f0`` up to its ``ft > f0``; ``inf`` where dropped.

    All traces advance together, one call of the unchecked map kernel per
    round: the callers check the window, and every round's input is the
    map's own output, inside (1/4, 1).  Each element goes through the same
    float operations, in the same order, as in ``_iterate_steps``, so every
    finite exponent matches the scalar trace bit for bit.  Every step
    multiplies the pairs by ``2/(ps*p_accept) >= 2``, so a trace still
    running after ``rounds`` rounds has an exponent of at least
    ``rounds + 2``: once ``rounds + 1`` exceeds the best finished exponent,
    the running traces can neither win nor tie, and they are dropped.
    """
    exponents = np.full(f0.shape, math.inf)
    f = f0
    prod = np.ones(f.shape)
    index = np.arange(f.size)
    rounds = 0
    best = math.inf
    while index.size and rounds + 1 <= best:
        if rounds >= MAX_TRACE_STEPS:
            raise NonConvergenceError("purification trace exceeded step limit")
        f, p_accept = _purify_kernel(f, err)
        prod *= p_accept
        rounds += 1
        running = f < ft
        if not running.all():
            # Gather the survivors only when some trace finished, not every round.
            done = ~running
            pairs = _pairs(rounds, prod[done], ps)
            # math.log2 per element: np.log2 need not round like it.
            finished = np.fromiter(map(math.log2, pairs.tolist()), float, pairs.size) + 1.0
            exponents[index[done]] = finished
            best = min(best, float(finished.min()))
            f, prod, ft, index = f[running], prod[running], ft[running], index[running]
    return exponents


def scaling_from_steps(steps: Sequence[TraceStep], ps: float) -> ScalingResult:
    """Resource scaling of a purification trace: its step count and acceptance product."""
    prod = 1.0
    for step in steps:
        prod *= step.p_accept
    pairs = _pairs(len(steps), prod, ps)
    return ScalingResult(feasible=True, method="recursive", steps=len(steps),
                         pairs_per_level=pairs, exponent=math.log2(pairs) + 1.0)


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

    def scan(a: float, b: float, n: int) -> tuple[float, float]:
        targets = a + (b - a) * np.arange(n) / (n - 1)
        starts = swap_fidelity(targets, 2, err)
        keep = (f_lower < starts) & (starts < targets)
        if not keep.any():
            raise InfeasibleError("no feasible target fidelity in the scan window")
        targets, starts = targets[keep], starts[keep]
        # argmin keeps the first of equal minima, like a strict-less-than scan.
        best = int(np.argmin(_bounded_lockstep_exponents(starts, targets, err, ps)))
        return float(targets[best]), float(starts[best])

    coarse_ft, _ = scan(lo, hi, SCAN_POINTS)
    cell = (hi - lo) / (SCAN_POINTS - 1)
    ft, f0 = scan(max(lo, coarse_ft - cell), min(hi, coarse_ft + cell), SCAN_POINTS)
    return ft, scaling_from_steps(_iterate_steps(f0, ft, err), ps)


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
