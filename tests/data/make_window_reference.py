"""Write ``window_reference.csv``: 40-digit non-recursive exponents over fixed windows.

Each row is one window ``[f0, ft]`` at error rates ``(eps_g, eps_r)`` with the
default Pauli weights and ``ps = 1``.  The reference integrates the gain
``purify(F) - F`` and ``log p_accept`` with mpmath at 50 digits, from the
same float inputs the package sees, and records

* ``lambda_tilde``: the exponent, empty where the mean gain is not positive;
* ``mean_gain``: the window mean of the gain;
* ``condition``: ``integral |gain| / |integral gain|``, the cancellation of the
  gain integral (1 where the gain keeps one sign).

The cells: windows tied to the closed-form target (``ft = f*(eps_g)``,
``f0 = swap(ft)``) on a seeded draw over the sweep region, the same windows
approaching the gain-sign boundary from both sides for several ``eps_r``,
one cell drawn near the gate-error threshold, and a few free windows.

Needs mpmath, which the package and its tests do not import:

    PYTHONPATH=src python tests/data/make_window_reference.py
"""

import csv
import random
from pathlib import Path

import mpmath as mp

from repeater_scaling.analytic import CLOSED_FORM, AnalyticOptions, optimal_target_fidelity, \
    window_exponent
from repeater_scaling.maps import ErrorParams, swap_fidelity

mp.mp.dps = 50
OUT = Path(__file__).with_name("window_reference.csv")
COLUMNS = ["eps_g", "eps_r", "ft", "f0", "lambda_tilde", "mean_gain", "condition"]


def purify(f, eps_g, eps_r):
    """Output fidelity and acceptance of the purification map, in mpmath."""
    eps_g, eta = mp.mpf(eps_g), 1 - mp.mpf(eps_r)
    w = (1 - f) / 3
    same, cross = eta**2 + (1 - eta) ** 2, eta * (1 - eta)
    gate = (2 * eps_g - eps_g**2) / (1 - eps_g) ** 2
    num = ((f * f + w * w) * same + (f * w + w * w) * 2 * cross
           + 2 * gate * (mp.mpf(0.5) * f * w + mp.mpf(0.5) * w * w))
    accept = (f * f + 2 * f * w + 5 * w * w) * same + (f * w + w * w) * 8 * cross
    return num * (1 - eps_g) ** 2 / accept, accept


def reference(eps_g, eps_r, f0, ft):
    a, b = mp.mpf(f0), mp.mpf(ft)

    def gain(f):
        return purify(f, eps_g, eps_r)[0] - f

    # sign changes of the gain become breakpoints of the |gain| integral
    grid = [a + (b - a) * k / 400 for k in range(401)]
    points = [a] + [mp.findroot(gain, (x0, x1), solver="anderson")
                    for x0, x1 in zip(grid, grid[1:]) if gain(x0) * gain(x1) < 0] + [b]
    integral = mp.quad(gain, points)
    condition = mp.quad(lambda f: abs(gain(f)), points) / abs(integral)
    mean_gain = integral / (b - a)
    if mean_gain <= 0:
        return None, mean_gain, condition
    mean_log = mp.quad(lambda f: mp.log(purify(f, eps_g, eps_r)[1]), [a, b]) / (b - a)
    return (b - a) / mean_gain * (1 - mean_log / mp.log(2)) + 1, mean_gain, condition


def closed_form_window(eps_g, eps_r):
    ft = optimal_target_fidelity(eps_g)
    return ft, float(swap_fidelity(ft, 2, ErrorParams(eps_g=eps_g, eps_r=eps_r)))


def sign_boundary(eps_r):
    """eps_g where the mean gain over the closed-form window changes sign."""
    lo, hi = 0.0, 0.05
    closed = AnalyticOptions(integral_mode=CLOSED_FORM)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        ft, f0 = closed_form_window(mid, eps_r)
        err = ErrorParams(eps_g=mid, eps_r=eps_r)
        lo, hi = (mid, hi) if window_exponent(f0, ft, err, opts=closed).feasible else (lo, mid)
    return lo


def cells():
    rng = random.Random(18)
    for i in range(28):
        eps_g = 0.0 if i % 7 == 0 else 10 ** rng.uniform(-5, -1.6)
        eps_r = 0.0 if i % 5 == 1 else rng.uniform(0, 0.05)
        yield (eps_g, eps_r, *closed_form_window(eps_g, eps_r))
    for eps_r in (0.0, 0.003, 0.006, 0.01, 0.02):
        edge = sign_boundary(eps_r)
        for factor in (1 - 1e-2, 1 - 1e-3, 1 - 1e-4, 1 - 1e-6, 1 + 1e-3):
            yield (edge * factor, eps_r, *closed_form_window(edge * factor, eps_r))
    seeded = (0.026640390885245457, 0.004152875230934107)
    yield (*seeded, *closed_form_window(*seeded))
    yield 0.0, 0.0, 0.9, 0.6
    yield 0.01, 0.01, 0.95, 0.3       # the gain changes sign inside the window
    yield 0.005, 0.002, 0.99, 0.97
    ft = 0.9999999938908686           # about 6e-9 wide, just below F = 1
    yield 0.0, 0.0, ft, float(swap_fidelity(ft, 2, ErrorParams()))


def main():
    with open(OUT, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(COLUMNS)
        for eps_g, eps_r, ft, f0 in cells():
            if not f0 < ft:
                continue
            lam, mean_gain, condition = reference(eps_g, eps_r, f0, ft)
            writer.writerow([repr(eps_g), repr(eps_r), repr(ft), repr(f0),
                             "" if lam is None else mp.nstr(lam, 40),
                             mp.nstr(mean_gain, 20), mp.nstr(condition, 6)])


if __name__ == "__main__":
    main()
