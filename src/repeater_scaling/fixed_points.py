"""Fixed points of the error-modelled purification map and feasibility tests."""

import functools
from dataclasses import dataclass

import numpy as np

from .exceptions import InfeasibleError
from .maps import ErrorParams, purify, swap_fidelity

__all__ = [
    "FixedPointResult",
    "find_fixed_points",
    "feasible_for",
    "target_window",
    "protocol_feasible",
    "gate_error_threshold",
]

SCAN_LOWER = 0.25
SCAN_STEP = 1e-3
ROOT_TOL = 1e-12
# Roots are located to ROOT_TOL; points this close to a root count as outside
# the open interval between the fixed points.
BOUNDARY_PAD = 1e-9
# Targets stay this far inside the fixed points, and inside the swap limit.
TARGET_MARGIN = 1e-4
# Repeated solves come close together: within one platform row, sweep cell or
# command, or across the quantities swept over one grid.  A small cache
# catches them and keeps memory bounded on long sweeps.
CACHE_SIZE = 256
# No read-out error leaves two fixed points at this gate error, so the
# threshold search brackets from below it.
THRESHOLD_SEARCH_UPPER = 0.1


@dataclass(frozen=True)
class FixedPointResult:
    """The largest two fidelities left invariant by the purification map.

    ``feasible`` is False when fewer than two crossings exist (including the
    tangent case, where the purification gain vanishes and no finite protocol
    converges).
    """

    feasible: bool
    lower: float | None = None
    upper: float | None = None


def _bisect_root(lo: float, hi: float, g_lo: float, err: ErrorParams) -> float:
    # g changes sign on [lo, hi]; shrink the bracket below ROOT_TOL.
    while hi - lo > ROOT_TOL:
        mid = 0.5 * (lo + hi)
        g_mid = purify(mid, err).fidelity - mid
        if g_mid == 0.0:
            return mid
        if (g_mid > 0.0) == (g_lo > 0.0):
            lo, g_lo = mid, g_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@functools.lru_cache(maxsize=CACHE_SIZE)
def find_fixed_points(err: ErrorParams) -> FixedPointResult:
    """Locate the largest two solutions of ``purify(F) == F`` on (1/4, 1].

    The map is a ratio of quadratics in F, so the fixed-point equation is a
    cubic; one array evaluation on a dense grid brackets every sign change
    and bisection refines each bracket.  Grid points that are exact zeros
    (F = 1 when eps_g = 0) are kept as roots directly.

    The result is memoised on the (frozen, hashable) error parameters, so
    callers solve again instead of passing the result around.
    """
    lo = SCAN_LOWER + SCAN_STEP
    count = int(round((1.0 - lo) / SCAN_STEP)) + 1
    grid = np.linspace(lo, 1.0, count)
    gains = purify(grid, err).fidelity - grid

    zero = gains == 0.0
    positive = gains > 0.0
    crossing = (positive[:-1] != positive[1:]) & ~zero[:-1] & ~zero[1:]
    roots = grid[zero].tolist()
    for i in np.flatnonzero(crossing).tolist():
        roots.append(_bisect_root(float(grid[i]), float(grid[i + 1]), float(gains[i]), err))

    roots.sort()
    deduped: list[float] = []
    for r in roots:
        if not deduped or r - deduped[-1] > 1e-9:
            deduped.append(r)

    if len(deduped) < 2:
        return FixedPointResult(feasible=False)
    return FixedPointResult(feasible=True, lower=deduped[-2], upper=deduped[-1])


def feasible_for(f0: float, ft: float, err: ErrorParams) -> bool:
    """True when purification can carry ``f0`` up to ``ft``.

    Both fidelities must lie strictly inside the open interval between the
    two fixed points; points within the root tolerance of a fixed point are
    treated as outside.
    """
    if f0 > ft:
        raise ValueError(f"expected f0 <= ft, got f0={f0}, ft={ft}")
    fps = find_fixed_points(err)
    if not fps.feasible:
        return False
    return fps.lower + BOUNDARY_PAD < f0 and ft < fps.upper - BOUNDARY_PAD


def target_window(err: ErrorParams) -> tuple[float, float]:
    """Targets ``(lo, hi)`` whose two-link swap stays above the lower fixed point.

    The window keeps TARGET_MARGIN inside both fixed points; where swapping
    the lowest such target drops below the lower fixed point, the lower end
    moves to the bisected swap limit plus the same margin.
    """
    fps = find_fixed_points(err)
    if not fps.feasible:
        raise InfeasibleError("no purification fixed points for these errors")
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


def protocol_feasible(err: ErrorParams) -> bool:
    """True when some target fidelity survives the swap-then-purify cycle.

    Swapping at a target just below the upper fixed point must land above the
    lower fixed point, otherwise no target fidelity is maintainable.
    """
    fps = find_fixed_points(err)
    if not fps.feasible:
        return False
    return swap_fidelity(fps.upper, 2, err) > fps.lower


def gate_error_threshold(eps_r: float = 0.0, tol: float = 1e-4) -> float:
    """Largest gate error (to ``tol``) for which purification fixed points exist.

    Bisects the feasible/infeasible classification of :func:`find_fixed_points`
    in the gate error at fixed read-out error.
    """
    lo = 0.0
    if not find_fixed_points(ErrorParams(eps_g=lo, eps_r=eps_r)).feasible:
        raise InfeasibleError(f"purification infeasible even at eps_g=0 for eps_r={eps_r}")
    hi = THRESHOLD_SEARCH_UPPER
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if find_fixed_points(ErrorParams(eps_g=mid, eps_r=eps_r)).feasible:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
