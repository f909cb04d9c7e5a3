"""Independent float reference for the benchmark's output checks.

Everything here is written from the model's definitions with plain floats,
without importing the package under test: the first-order purification map
on Werner pairs, the two-link swap, Gaussian memory decay, the fixed points
of the map (as roots of its cubic), the closed-form optimal target fidelity,
the iterated purification trace and the window averages behind the
non-recursive exponent (by Gauss-Legendre quadrature).  The map and the swap
are themselves checked against the package's exact Bell-diagonal oracle
(see ``self_check``); ``bell`` and its argument type ``ErrorParams`` are the
only package code this file touches.
"""

import math

import numpy as np

# Pauli weights of the source-qubit gate error (the CLI uses these defaults).
P_X, P_Y, P_Z = 0.25, 0.25, 0.5

_GL_X, _GL_W = np.polynomial.legendre.leggauss(96)


def purify(f: float, eps_g: float, eps_r: float) -> tuple[float, float]:
    """First-order error-modelled purification: (fidelity out, acceptance)."""
    eta = 1.0 - eps_r
    w = (1.0 - f) / 3.0
    agree = eta * eta + (1.0 - eta) * (1.0 - eta)
    flip = eta * (1.0 - eta)
    accept = agree * (f * f + 2.0 * f * w + 5.0 * w * w) + 8.0 * flip * (f * w + w * w)
    keep = (1.0 - eps_g) ** 2
    clean = agree * (f * f + w * w) + 2.0 * flip * (f * w + w * w)
    leaked = 2.0 * (1.0 - keep) * (P_Z * f * w + (P_X + P_Y) * w * w)
    return (keep * clean + leaked) / accept, accept


def swap(f: float, eps_r: float) -> float:
    """Two-link swap with read-out efficiency ``1 - eps_r``."""
    eta = 1.0 - eps_r
    x = (4.0 * f - 1.0) / 3.0
    return 0.25 + 0.25 * (4.0 * eta * eta - 1.0) * x * x


def swap_after_decay(d: float, exponent: float, ft: float, eps_r: float,
                     rate_hz: float, t2_s: float) -> float:
    """Swap of a target pair that waited for ``d**exponent`` pairs at ``rate_hz``."""
    wait = d**exponent / rate_hz
    return swap(ft * math.exp(-((wait / t2_s) ** 2)), eps_r)


def optimal_target(eps_g: float) -> float:
    """The paper's reduced closed form for the optimal target fidelity."""
    return (-1.16 * eps_g - 4.28 * math.sqrt(eps_g * eps_g + 0.15 * eps_g) + 1.9) / (
        2.66 * eps_g + 1.9
    )


def fixed_points(eps_g: float, eps_r: float) -> tuple[float, float] | None:
    """The largest two roots of ``purify(F) = F`` on (1/4, 1], or None.

    ``accept * (purify(F) - F)`` is a cubic in F; it is interpolated from four
    exact evaluations, its real roots are taken from ``numpy.roots`` and each
    is polished by Newton steps on the float map.
    """

    def h(f):
        out, accept = purify(f, eps_g, eps_r)
        return accept * (out - f)

    nodes = [0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0]
    coeffs = np.polyfit(nodes, [h(x) for x in nodes], 3)
    roots = sorted(
        r.real for r in np.roots(coeffs) if abs(r.imag) < 1e-9 and 0.25 < r.real <= 1.0 + 1e-9
    )
    if len(roots) < 2 or roots[-1] - roots[-2] < 1e-9:
        return None
    polished = []
    for r in roots[-2:]:
        for _ in range(4):
            step = 1e-7
            slope = (h(r + step) - h(r - step)) / (2.0 * step)
            if slope == 0.0:
                break
            r -= h(r) / slope
        polished.append(r)
    return polished[0], polished[1]


def gate_threshold(eps_r: float, tol: float = 1e-10) -> float:
    """Largest gate error at which the map still has two fixed points."""
    lo, hi = 0.0, 0.1
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if fixed_points(mid, eps_r) is None:
            hi = mid
        else:
            lo = mid
    return hi


def trace_exponent(eps_g: float, eps_r: float, ft: float) -> tuple[int, float]:
    """Steps and resource exponent of the iterated trace from ``swap(ft)`` to ``ft``."""
    f = swap(ft, eps_r)
    steps, log2_accept = 0, 0.0
    while f < ft:
        if steps >= 10**6:
            raise RuntimeError("trace did not reach the target")
        f, accept = purify(f, eps_g, eps_r)
        log2_accept += math.log2(accept)
        steps += 1
    return steps, steps - log2_accept + 1.0


def pairs_per_level(eps_g: float, eps_r: float, ft: float) -> float:
    """Expected pairs consumed per purified link of one nesting level."""
    _, exponent = trace_exponent(eps_g, eps_r, ft)
    return 2.0 ** (exponent - 1.0)


def _window_mean(func, a: float, b: float) -> float:
    half = 0.5 * (b - a)
    total = sum(w * func(a + half * (x + 1.0)) for x, w in zip(_GL_X, _GL_W))
    return 0.5 * float(total)


def window_exponent(eps_g: float, eps_r: float, ft: float) -> float | None:
    """Non-recursive exponent from the window means of gain and log acceptance.

    None when the swap-tied window is empty or the mean gain is not positive.
    """
    f0 = swap(ft, eps_r)
    if not f0 < ft:
        return None
    gain = _window_mean(lambda f: purify(f, eps_g, eps_r)[0] - f, f0, ft)
    if not gain > 0.0:
        return None
    log_accept = _window_mean(lambda f: math.log(purify(f, eps_g, eps_r)[1]), f0, ft)
    return (ft - f0) / gain * (1.0 - log_accept / math.log(2.0)) + 1.0


def self_check() -> list[str]:
    """Compare the float map and swap with the package's Bell-diagonal oracle.

    The acceptance and the swap are exact identities on Werner inputs; the
    fidelity is exact without gate errors and first-order otherwise.
    """
    from repeater_scaling.bell import BellDiagState, purify_pair, swap_pair
    from repeater_scaling.maps import ErrorParams

    problems = []
    for f in (0.55, 0.7, 0.85, 0.97):
        state = BellDiagState.werner(f)
        for eps_g, eps_r in ((0.0, 0.0), (0.0, 0.01), (1e-3, 1e-3), (1e-2, 1e-2)):
            err = ErrorParams(eps_g=eps_g, eps_r=eps_r)
            out, accept = purify_pair(state, state, err, depolarize=True)
            mine, mine_accept = purify(f, eps_g, eps_r)
            bound = 1e-12 if eps_g == 0.0 else 10.0 * (eps_g + eps_r) ** 2
            if abs(mine - out.fidelity) > bound or abs(mine_accept - accept) > 1e-12:
                problems.append(f"oracle: purify({f}, {eps_g}, {eps_r}) disagrees with bell")
            swapped = swap_pair(state, state, err).depolarized().fidelity
            if abs(swap(f, eps_r) - swapped) > 1e-12:
                problems.append(f"oracle: swap({f}, {eps_r}) disagrees with bell")
    return problems
