"""Fixed points of the error-modelled purification map and feasibility tests."""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .exceptions import InfeasibleError
from .maps import ErrorParams, purify, purify_coefficients, swap_preimage

__all__ = [
    "FixedPointResult",
    "find_fixed_points",
    "feasible_for",
    "target_window",
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

    The window keeps TARGET_MARGIN inside both fixed points and above the swap
    limit, the target whose two-link swap lands on the lower fixed point.
    """
    fps = find_fixed_points(err)
    if not fps.feasible:
        raise InfeasibleError("no purification fixed points for these errors")
    # Swapping never raises a fidelity, so the swap limit lies above the lower fixed point.
    lo, hi = swap_preimage(fps.lower, err.eta_s) + TARGET_MARGIN, fps.upper - TARGET_MARGIN
    if lo >= hi:
        raise InfeasibleError("swapping drops every target below the lower fixed point")
    return lo, hi


def _quadratic_roots(a2: float, a1: float, a0: float) -> tuple[float, float] | None:
    """Ascending roots of ``a2 x**2 + a1 x + a0``, cancellation-free; None unless two distinct."""
    disc = a1 * a1 - 4.0 * a2 * a0
    if not disc > 0.0:
        return None
    q = -0.5 * (a1 + math.copysign(math.sqrt(disc), a1))
    return tuple(sorted((q / a2, a0 / q)))


def _fixed_point_quadratic(err: ErrorParams) -> tuple[float, float, float]:
    """Coefficients ``(q2, q1, q0)`` of the quadratic whose roots are the fixed points.

    ``purify(1/4) == 1/4`` for every error model, so the gain numerator of
    :func:`maps.purify_coefficients` factors as ``(F - 1/4)(q2 F**2 + q1 F + q0)``.
    """
    a, _, _, n2, n1, _ = purify_coefficients(err)
    q2 = -a
    q1 = n2 + q2 / 4.0
    q0 = n1 + q1 / 4.0
    return q2, q1, q0


def gate_error_threshold(eps_r: float = 0.0, tol: float = 1e-4) -> float:
    """Largest gate error at which the purification map has two fixed points.

    The value is exact and ``tol`` is unused.  There the fixed points merge, so
    the discriminant of the fixed-point quadratic vanishes.  Its coefficients
    are constant (q2) or linear (q1, q0) in ``u = (1 - eps_g)**2``, so the
    discriminant is a quadratic in u.
    """
    zero = ErrorParams(eps_g=0.0, eps_r=eps_r)
    if not find_fixed_points(zero).feasible:
        raise InfeasibleError(f"purification infeasible even at eps_g=0 for eps_r={eps_r}")
    # q1 and q0 at u = 1 (eps_g = 0) and u = 1/4 (eps_g = 1/2) give their slopes in u.
    q2, q1, q0 = _fixed_point_quadratic(zero)
    _, q1_quarter, q0_quarter = _fixed_point_quadratic(ErrorParams(eps_g=0.5, eps_r=eps_r))
    d1, d0 = (q1 - q1_quarter) / 0.75, (q0 - q0_quarter) / 0.75
    # (q1 + d1 v)**2 - 4 q2 (q0 + d0 v), v = u - 1: its larger root lies in (-1, 0).
    v = _quadratic_roots(d1 * d1, 2.0 * q1 * d1 - 4.0 * q2 * d0, q1 * q1 - 4.0 * q2 * q0)[1]
    return -v / (1.0 + math.sqrt(1.0 + v))  # 1 - sqrt(1 + v), without cancellation
