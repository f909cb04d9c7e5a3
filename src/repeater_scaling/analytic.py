"""Closed-form, non-recursive estimates of the resource scaling exponent.

The estimators replace the step-by-step purification trace with interval
averages: the mean fidelity gain over the purification window gives the step
count, and the geometric mean of the acceptance probability gives the cost
per step.  Each average has two evaluation routes, a fixed 16-node
Gauss-Legendre rule (ground truth) and a closed form (fast path), which are
required to agree.
"""

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import InfeasibleError
from .fixed_points import feasible_for, target_window
from .maps import ErrorParams, check_error_rates, purify, purify_coefficients, swap_fidelity
from .recursive import ScalingResult, check_unit_interval

__all__ = [
    "AnalyticOptions",
    "average_gain",
    "steps_estimate",
    "acceptance_geomean",
    "exponent_estimate",
    "window_exponent",
    "optimal_target_fidelity",
    "small_error_exponent",
    "minimize_exponent",
]

QUADRATURE = "quadrature"
CLOSED_FORM = "closed-form"
# Quadrature route: 16-node Gauss-Legendre on [0, 1], weights summing to 1.  Both
# integrands are analytic around every window, so the rule converges to rounding.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
_GL_NODES, _GL_WEIGHTS = 0.5 * (_GL_NODES + 1.0), 0.5 * _GL_WEIGHTS


@dataclass(frozen=True)
class AnalyticOptions:
    """Evaluation switches for the non-recursive estimators.

    The step count is real-valued by default; ``use_ceiling`` rounds it up to
    the next integer.  Every headline estimate is defined without the ceiling.
    """

    use_ceiling: bool = False
    integral_mode: str = QUADRATURE

    def __post_init__(self) -> None:
        if self.integral_mode not in (QUADRATURE, CLOSED_FORM):
            raise ValueError(f"unknown integral_mode {self.integral_mode!r}")

    @property
    def method(self) -> str:
        """The ``ScalingResult.method`` label of estimates made with these options."""
        return "analytic" if self.integral_mode == QUADRATURE else "analytic-closed-form"


DEFAULT_OPTIONS = AnalyticOptions()


def _require_window(f0: float, ft: float, err: ErrorParams) -> None:
    if not f0 < ft:
        raise ValueError(f"expected f0 < ft, got f0={f0}, ft={ft}")
    if not feasible_for(f0, ft, err):
        raise InfeasibleError(
            f"({f0}, {ft}) is not strictly inside the purification fixed points"
        )


# --- window integrals, from maps.purify_coefficients and Q = a F^2 + b F + c


def _rational_integral(p: float, s: float, f0: float, ft: float,
                       a: float, b: float, c: float) -> float:
    """Integral of ``(p F + s) / Q`` over [f0, ft]; both end differences come from ``ft - f0``."""
    width = ft - f0
    root = math.sqrt(4.0 * a * c - b * b)
    x, y = (2.0 * a * ft + b) / root, (2.0 * a * f0 + b) / root
    log_ratio = math.log1p(width * (a * (ft + f0) + b) / (a * f0 * f0 + b * f0 + c))
    atan_diff = math.atan2(2.0 * a * width / root, 1.0 + x * y)
    return p / (2.0 * a) * log_ratio + (s - p * b / (2.0 * a)) * 2.0 / root * atan_diff


def _gain_integral(f0: float, ft: float, err: ErrorParams) -> float:
    """Integral of the gain: ``-F + quot`` plus ``(lin F + const) / Q`` after division."""
    a, b, c, n2, n1, n0 = purify_coefficients(err)
    quot = (n2 + b) / a
    lin = (n1 + c) - quot * b
    const = n0 - quot * c
    return (ft - f0) * (quot - 0.5 * (ft + f0)) + _rational_integral(lin, const, f0, ft, a, b, c)


def _log_acceptance_integral(f0: float, ft: float, err: ErrorParams) -> float:
    """Integral of log(Q / 9), by parts with ``(F - f0) Q' = 2Q - (b + 2a f0) F - (b f0 + 2c)``."""
    a, b, c, *_ = purify_coefficients(err)
    width = ft - f0
    log_end = math.log((a * ft * ft + b * ft + c) / 9.0)
    return (width * (log_end - 2.0)
            + _rational_integral(b + 2.0 * a * f0, b * f0 + 2.0 * c, f0, ft, a, b, c))


# --- interval averages -------------------------------------------------------


def _average_gain_raw(f0, ft, err, opts: AnalyticOptions) -> float:
    if opts.integral_mode == CLOSED_FORM:
        return _gain_integral(f0, ft, err) / (ft - f0)
    nodes = f0 + (ft - f0) * _GL_NODES
    return float(_GL_WEIGHTS @ (purify(nodes, err).fidelity - nodes))


def _acceptance_geomean_raw(f0, ft, err, opts: AnalyticOptions) -> float:
    if opts.integral_mode == CLOSED_FORM:
        log_mean = _log_acceptance_integral(f0, ft, err) / (ft - f0)
    else:
        log_mean = _GL_WEIGHTS @ np.log(purify(f0 + (ft - f0) * _GL_NODES, err).p_accept)
    mean = math.exp(log_mean)
    if not 0.0 < mean <= 1.0:
        raise ValueError(f"acceptance geometric mean left (0, 1]: {mean}")
    return mean


def average_gain(f0: float, ft: float, err: ErrorParams, opts: AnalyticOptions = DEFAULT_OPTIONS) -> float:
    """Mean fidelity improvement of one purification round over [f0, ft]."""
    _require_window(f0, ft, err)
    gain = _average_gain_raw(f0, ft, err, opts)
    if gain <= 0.0:
        raise InfeasibleError(f"purification gain is not positive on [{f0}, {ft}]")
    return gain


def steps_estimate(f0: float, ft: float, err: ErrorParams, opts: AnalyticOptions = DEFAULT_OPTIONS) -> float:
    """Window width divided by the mean gain: the non-recursive step count."""
    steps = (ft - f0) / average_gain(f0, ft, err, opts)
    return math.ceil(steps) if opts.use_ceiling else steps


def acceptance_geomean(f0: float, ft: float, err: ErrorParams, opts: AnalyticOptions = DEFAULT_OPTIONS) -> float:
    """Geometric mean of the purification acceptance probability over the window."""
    _require_window(f0, ft, err)
    return _acceptance_geomean_raw(f0, ft, err, opts)


def exponent_estimate(
    f0: float,
    ft: float,
    err: ErrorParams,
    ps: float = 1.0,
    opts: AnalyticOptions = DEFAULT_OPTIONS,
) -> ScalingResult:
    """Non-recursive resource exponent for one nesting level; infeasibility in-band."""
    check_unit_interval("ps", ps)
    try:
        _require_window(f0, ft, err)
    except InfeasibleError:
        return ScalingResult(feasible=False, method=opts.method)
    return window_exponent(f0, ft, err, ps, opts)


def window_exponent(
    f0: float,
    ft: float,
    err: ErrorParams,
    ps: float = 1.0,
    opts: AnalyticOptions = DEFAULT_OPTIONS,
) -> ScalingResult:
    """Non-recursive exponent from the two interval averages over [f0, ft].

    Unlike :func:`exponent_estimate`, the window is not checked against the
    fixed points: the averages are taken wherever ``f0 < ft``, and a mean gain
    that is not positive is reported as an infeasible result.  A geometric
    mean acceptance outside (0, 1] raises ``ValueError``, as does ``ps``
    outside (0, 1].
    """
    check_unit_interval("ps", ps)
    if not f0 < ft:
        raise ValueError(f"expected f0 < ft, got f0={f0}, ft={ft}")
    gain = _average_gain_raw(f0, ft, err, opts)
    if not gain > 0.0:
        return ScalingResult(feasible=False, method=opts.method)
    steps = (ft - f0) / gain
    if opts.use_ceiling:
        steps = math.ceil(steps)
    geomean = _acceptance_geomean_raw(f0, ft, err, opts)
    # computed in log space: near the feasibility boundary the step count and
    # with it the pair count blow up past the float range
    log2_pairs = steps * (1.0 - math.log2(ps * geomean))
    pairs = 2.0**log2_pairs if log2_pairs < 1000.0 else math.inf
    return ScalingResult(
        feasible=True,
        method=opts.method,
        steps=steps,
        pairs_per_level=pairs,
        exponent=log2_pairs + 1.0,
    )


# --- optimal target fidelity -------------------------------------------------


def optimal_target_fidelity(eps_g: float, eps_r: float | None = None) -> float:
    """Target fidelity minimising the resource exponent, in closed form.

    The reduced form (``eps_r`` omitted) neglects the read-out error, whose
    influence on the optimum is small; passing ``eps_r`` selects the longer
    expression that retains it.  The error rates obey :class:`ErrorParams`' ranges.
    """
    check_error_rates(eps_g, 0.0 if eps_r is None else eps_r)
    if eps_r is None:
        radicand = eps_g**2 + 0.15 * eps_g
        return (-1.16 * eps_g - 4.28 * math.sqrt(radicand) + 1.9) / (2.66 * eps_g + 1.9)
    radicand = (
        0.04 * eps_g**2 * eps_r**2
        + eps_g**2 * eps_r
        + 0.45 * eps_g**2
        - 0.04 * eps_g * eps_r**2
        - 0.4 * eps_g * eps_r
        + 0.07 * eps_g
        + 0.007 * eps_r**2
        - 0.001 * eps_r
    )
    if radicand < 0.0:
        raise ValueError("negative radicand in optimal target fidelity")
    num = 8.31 * eps_g * eps_r - 0.40 * eps_g - 3.35 * eps_r - 2.0 * math.sqrt(radicand) + 0.61
    den = 8.36 * eps_g * eps_r + 0.8 * eps_g - 3.37 * eps_r + 0.61
    return num / den


def small_error_exponent(eps_g: float) -> float:
    """Small-gate-error expansion of the optimal exponent; 3 is its floor."""
    check_error_rates(eps_g)
    return 3.0 + 14.0 * math.sqrt(eps_g) + 38.0 * eps_g


# --- numerical minimisation over the target fidelity -------------------------

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# Golden-section search stops once its bracket on the target is this narrow.
FT_TOL = 1e-5


def minimize_exponent(
    err: ErrorParams,
    ps: float = 1.0,
    opts: AnalyticOptions = DEFAULT_OPTIONS,
) -> tuple[float, ScalingResult]:
    """Numerically minimise the non-recursive exponent over the target fidelity.

    The post-swap fidelity is tied to the target through the exact two-link
    swap, not its linear approximation.  A coarse scan brackets the minimum
    (the exponent diverges at both window ends), then golden-section search
    refines it to FT_TOL.
    """
    lo, hi = target_window(err)

    def objective(ft: float) -> float:
        result = window_exponent(float(swap_fidelity(ft, 2, err)), ft, err, ps, opts)
        return result.exponent if result.feasible else math.inf

    coarse = 64
    values = []
    for i in range(coarse):
        ft = lo + (hi - lo) * i / (coarse - 1)
        values.append((objective(ft), ft))
    _, best_ft = min(values)
    cell = (hi - lo) / (coarse - 1)
    a, b = max(lo, best_ft - cell), min(hi, best_ft + cell)

    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = objective(x1), objective(x2)
    while b - a > FT_TOL:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = objective(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = objective(x2)
    ft_best = 0.5 * (a + b)
    return ft_best, window_exponent(float(swap_fidelity(ft_best, 2, err)), ft_best, err, ps, opts)
