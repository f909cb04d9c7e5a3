"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see every line including
the passing ones.
"""

import math
import random
import time

import numpy as np

import repeater_scaling as rs
from repeater_scaling.analytic import AnalyticOptions, CLOSED_FORM

CLOSED = AnalyticOptions(integral_mode=CLOSED_FORM)

# name -> (eps_g, eps_r, rate_hz, t2_s, lambda_tilde, lambda_recursive, d_star)
PUBLISHED_TABLE = [
    ("Superconducting", 2.5e-3, 6e-3, 5.4, 3e-4, 5.1, 5.82, 0.3),
    ("SiV centers", 5e-4, 1e-4, 1.0, 2.1, 3.49, 4.06, 1.06),
    ("NV centers", 3.5e-4, 4e-4, 39.0, 1.0, 3.47, 4.11, 2.15),
    ("Trapped ions", 5e-4, 1e-6, 250.0, 0.14, 3.47, 4.01, 2.14),
    ("Neutral atoms", 2.5e-3, 4e-3, 0.11, 1e-2, 4.84, 5.62, 0.27),
]


def _report(number: int, name: str, ok: bool, elapsed: float, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" :: {detail}" if detail else ""
    print(f"ACCEPTANCE {number:02d} {name}: {status} ({elapsed:.3f}s){suffix}")


def test_c01_table_reproduction():
    start = time.perf_counter()
    rows = rs.evaluate_all(rs.load_platforms(rs.default_platforms_path()))
    # The trace-optimal twins are computed on first read; time them too.
    _ = [(row.lambda_recursive_optimal, row.d_star_optimal) for row in rows]
    elapsed = time.perf_counter() - start
    problems = []
    matched = []
    for row, (name, _, _, _, _, ref_lt, ref_lr, ref_d) in zip(rows, PUBLISHED_TABLE):
        assert row.platform.name == name
        if abs(row.lambda_tilde - ref_lt) > 0.05:
            problems.append(f"{name}: lambda_tilde {row.lambda_tilde:.3f} vs {ref_lt}")
        rec_candidates = {
            "closed-form target": row.lambda_recursive,
            "trace-optimal target": row.lambda_recursive_optimal,
        }
        rec_hits = [label for label, v in rec_candidates.items() if abs(v - ref_lr) <= 0.1]
        if rec_hits:
            matched.append(f"{name} lambda via {rec_hits[0]}")
        else:
            problems.append(
                f"{name}: lambda_recursive {row.lambda_recursive:.3f}"
                f"/{row.lambda_recursive_optimal:.3f} vs {ref_lr}"
            )
        d_candidates = {
            "closed-form target": row.d_star,
            "trace-optimal target": row.d_star_optimal,
        }
        d_hits = [label for label, v in d_candidates.items() if abs(v - ref_d) <= 0.05]
        if d_hits:
            matched.append(f"{name} d_star via {d_hits[0]}")
        else:
            problems.append(
                f"{name}: d_star {row.d_star:.3f}/{row.d_star_optimal:.3f} vs {ref_d}"
            )
    ok = not problems and elapsed < 1.0
    detail = "; ".join(problems) if problems else "; ".join(matched)
    _report(1, "reference table reproduction", ok, elapsed, detail)
    assert elapsed < 1.0, f"runtime {elapsed:.3f}s exceeds 1s"
    assert not problems, "; ".join(problems)


def test_c02_feasibility_threshold():
    start = time.perf_counter()
    threshold = rs.gate_error_threshold(0.0, tol=1e-4)
    elapsed = time.perf_counter() - start
    ok = 0.028 < threshold < 0.030 and elapsed < 1.0
    _report(2, "gate-error feasibility threshold", ok, elapsed, f"threshold={threshold:.5f}")
    assert elapsed < 1.0, f"runtime {elapsed:.3f}s exceeds 1s"
    assert 0.028 < threshold < 0.030, threshold


def test_c03_exponent_ten_contour():
    start = time.perf_counter()

    def optimal_exponent(eps_g: float) -> float:
        try:
            _, result = rs.minimize_exponent(
                rs.ErrorParams(eps_g=eps_g, eps_r=0.0), opts=CLOSED
            )
            return result.exponent
        except rs.InfeasibleError:
            return math.inf

    lo, hi = 0.005, 0.02
    assert optimal_exponent(lo) < 10.0 < optimal_exponent(hi)
    while hi - lo > 1e-5:
        mid = 0.5 * (lo + hi)
        if optimal_exponent(mid) < 10.0:
            lo = mid
        else:
            hi = mid
    crossing = 0.5 * (lo + hi)
    elapsed = time.perf_counter() - start
    ok = abs(crossing - 0.013) <= 0.002 and elapsed < 1.0
    _report(3, "exponent-10 contour", ok, elapsed, f"crossing at eps_g={crossing:.5f}")
    assert elapsed < 1.0, f"runtime {elapsed:.3f}s exceeds 1s"
    assert abs(crossing - 0.013) <= 0.002, crossing


def test_c04_closed_form_vs_quadrature():
    start = time.perf_counter()
    failures = []
    checked = 0
    for eps_r in np.linspace(0.0, 0.01, 5):
        for eps_g in np.linspace(1e-4, 0.01, 5):
            err = rs.ErrorParams(eps_g=float(eps_g), eps_r=float(eps_r))
            ft = rs.optimal_target_fidelity(float(eps_g))
            f0 = float(rs.swap_fidelity(ft, 2, err))
            m_quad = rs.steps_estimate(f0, ft, err)
            m_closed = rs.steps_estimate(f0, ft, err, CLOSED)
            p_quad = rs.acceptance_geomean(f0, ft, err)
            p_closed = rs.acceptance_geomean(f0, ft, err, CLOSED)
            checked += 1
            if abs(m_quad - m_closed) / m_quad > 1e-6:
                failures.append(
                    f"steps at ({eps_r:.4f},{eps_g:.4f}): quad={m_quad!r} closed={m_closed!r}"
                )
            if abs(p_quad - p_closed) / p_quad > 1e-6:
                failures.append(
                    f"geomean at ({eps_r:.4f},{eps_g:.4f}): quad={p_quad!r} closed={p_closed!r}"
                )
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 5.0
    _report(4, "closed form vs quadrature", ok, elapsed,
            "; ".join(failures) if failures else f"{checked} cells within 1e-6")
    assert elapsed < 5.0, f"runtime {elapsed:.3f}s exceeds 5s"
    assert not failures, "; ".join(failures)


def test_c05_oracle_first_order_agreement():
    start = time.perf_counter()
    worst = 0.0
    for fid in (0.7, 0.8, 0.9, 0.95):
        state = rs.BellDiagState.werner(fid)
        # exact agreement at zero errors
        out, acc = rs.purify_pair(state, state, rs.ErrorParams(), depolarize=True)
        assert abs(out.fidelity - float(rs.purify_ideal(fid))) <= 1e-12
        assert abs(acc - float(rs.purify(fid, rs.ErrorParams()).p_accept)) <= 1e-12
        for eps in (1e-3, 1e-2):
            err = rs.ErrorParams(eps_g=eps, eps_r=eps)
            out, _ = rs.purify_pair(state, state, err, depolarize=True)
            diff = abs(out.fidelity - float(rs.purify(fid, err).fidelity))
            bound = 10.0 * (err.eps_g + err.eps_r) ** 2
            worst = max(worst, diff / bound)
            assert diff <= bound, (fid, eps, diff, bound)
    elapsed = time.perf_counter() - start
    ok = worst <= 1.0 and elapsed < 1.0
    _report(5, "oracle first-order agreement", ok, elapsed, f"worst diff/bound={worst:.4f}")
    assert elapsed < 1.0, f"runtime {elapsed:.3f}s exceeds 1s"


def test_c06_swap_identity():
    start = time.perf_counter()
    rng = random.Random(6021023)
    worst = 0.0
    for _ in range(100):
        fid = rng.uniform(0.3, 1.0)
        eta_s = rng.uniform(0.51, 1.0)
        err = rs.ErrorParams(eps_r=0.1, eta_s=eta_s)
        state = rs.BellDiagState.werner(fid)
        oracle = rs.swap_pair(state, state, err).depolarized().fidelity
        formula = float(rs.swap_fidelity(fid, 2, err, absorbed=True))
        worst = max(worst, abs(oracle - formula))
        assert abs(oracle - formula) <= 1e-12, (fid, eta_s)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 1.0
    _report(6, "swap identity on Werner inputs", ok, elapsed, f"worst |diff|={worst:.2e}")
    assert elapsed < 1.0, f"runtime {elapsed:.3f}s exceeds 1s"


def test_c07_monte_carlo_unbiasedness():
    start = time.perf_counter()
    err = rs.ErrorParams(eps_g=0.01, eps_r=0.01)
    ft = rs.optimal_target_fidelity(0.01)
    details = []
    for levels in (1, 2):
        config = rs.SimConfig(
            levels=levels,
            params=rs.ProtocolParams(ft=ft, err=err),
            trials=10_000,
            seed=7_031_632,
        )
        report = rs.simulate(config)
        assert report.aborted == 0
        deviation = abs(report.mean_consumed - report.analytic_total)
        details.append(f"L={levels}: {deviation / report.std_error:.2f} sigma")
        assert deviation <= 3.0 * report.std_error, (levels, deviation, report.std_error)
        rerun = rs.simulate(config)
        assert rerun == report
        assert rs.histogram_csv(rerun).encode() == rs.histogram_csv(report).encode()
    elapsed = time.perf_counter() - start
    ok = elapsed < 30.0
    _report(7, "Monte Carlo unbiasedness", ok, elapsed, "; ".join(details))
    assert elapsed < 30.0, f"runtime {elapsed:.3f}s exceeds 30s"


def test_c08_optimal_target_agreement():
    start = time.perf_counter()
    diffs = []
    for eps_g in (0.001, 0.005, 0.01):
        err = rs.ErrorParams(eps_g=eps_g, eps_r=0.001)
        ft_closed = rs.optimal_target_fidelity(eps_g)
        ft_numeric, _ = rs.minimize_exponent(err)
        diffs.append(f"eps_g={eps_g}: |diff|={abs(ft_closed - ft_numeric):.4f}")
        assert abs(ft_closed - ft_numeric) <= 0.02, (eps_g, ft_closed, ft_numeric)
    elapsed = time.perf_counter() - start
    ok = elapsed < 5.0
    _report(8, "closed-form optimal target vs argmin", ok, elapsed, "; ".join(diffs))
    assert elapsed < 5.0, f"runtime {elapsed:.3f}s exceeds 5s"


def test_c09_exponent_floor():
    start = time.perf_counter()
    assert rs.small_error_exponent(0.0) == 3.0
    grid = rs.SweepGrid(
        quantity="lambda-tilde",
        eps_r_start=0.0, eps_r_stop=0.02, eps_r_steps=6,
        eps_g_start=0.0, eps_g_stop=0.02, eps_g_steps=6,
    )
    cells = rs.sweep(grid, opts=CLOSED)
    feasible = [c for c in cells if c.feasible]
    assert feasible, "expected feasible cells on the grid"
    minimum = min(c.value for c in feasible)
    elapsed = time.perf_counter() - start
    ok = minimum >= 3.0 and elapsed < 1.0
    _report(9, "exponent floor of three", ok, elapsed,
            f"{len(feasible)} feasible cells, min exponent {minimum:.4f}")
    assert elapsed < 1.0, f"runtime {elapsed:.3f}s exceeds 1s"
    assert minimum >= 3.0, minimum


def test_c10_zero_error_fixed_points():
    start = time.perf_counter()
    fps = rs.find_fixed_points(rs.ErrorParams())
    elapsed = time.perf_counter() - start
    ok = (
        fps.feasible
        and abs(fps.lower - 0.5) <= 1e-10
        and abs(fps.upper - 1.0) <= 1e-10
        and elapsed < 0.1
    )
    _report(10, "zero-error fixed points", ok, elapsed,
            f"roots=({fps.lower:.12f}, {fps.upper:.12f})")
    assert elapsed < 0.1, f"runtime {elapsed:.3f}s exceeds 0.1s"
    assert abs(fps.lower - 0.5) <= 1e-10
    assert abs(fps.upper - 1.0) <= 1e-10
