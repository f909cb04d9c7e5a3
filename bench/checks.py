"""Output checks for the benchmark workloads.

Each function takes a workload's inputs and the CSV text the CLI wrote, and
returns a list of problems, each prefixed with the name of the check that
found it.  Reference values come from ``oracle`` (independent float code) or
from properties the output must have; no stored copy of an earlier output is
used anywhere.
"""

import math

import oracle

SWEEP_QUANTITIES = ("lambda", "lambda-tilde", "ft-star", "dstar")

PLATFORM_HEADER = "name,eps_g,eps_r,ft_star,lambda_tilde,lambda_recursive,d_star,feasible"
SWEEP_HEADER = "eps_r,eps_g,value,feasible"
SIM_HEADER = "levels,trials,seed,completed,aborted,mean_consumed,std_error,analytic_total"
HIST_HEADER = "consumed_pairs,count"

# Tolerances, fixed before any output was seen.
CLOSED_FORM_REL = 1e-6   # quadrature route against the exact window integrals
TRACE_REL = 1e-9         # package trace against the float trace
IDENTITY_ABS = 1e-9      # fidelity identities (decay condition, fixed point)
EXACT_ABS = 1e-12        # closed-form values computed the same way
SIGMAS = 4.0             # Monte Carlo mean against the recursive expectation
# A cell this far inside the feasible region must come out feasible.
CLEAR_MARGIN = 1e-6


def _rel(value: float, reference: float) -> float:
    return abs(value - reference) / abs(reference)


def _table(text: str, header: str) -> list[list[str]] | None:
    lines = text.splitlines()
    if not lines or lines[0] != header:
        return None
    return [line.split(",") for line in lines[1:]]


def distinct(label: str, keys: list) -> list[str]:
    """Inputs must not repeat within a run."""
    repeats = len(keys) - len(set(keys))
    return [f"{label}/distinct inputs: {repeats} repeated"] if repeats else []


def _decay_identity(label, d, exponent, ft, eps_g, eps_r, rate, t2, fps) -> list[str]:
    """At the maximum path length the swapped, decayed target is the lower fixed point."""
    x = oracle.swap_after_decay(d, exponent, ft, eps_r, rate, t2)
    problems = []
    if abs(x - fps[0]) > IDENTITY_ABS:
        problems.append(f"{label} decay identity: swap_after_decay({d!r}) = {x!r},"
                        f" lower fixed point {fps[0]!r}")
    residual = abs(oracle.purify(x, eps_g, eps_r)[0] - x)
    if residual > IDENTITY_ABS:
        problems.append(f"{label} fixed-point residual: {residual:.3e} at {x!r}")
    return problems


def platform_row(platform: dict, text: str) -> list[str]:
    """One `platforms` row against the float reference."""
    name = platform["name"]
    rows = _table(text, PLATFORM_HEADER)
    if rows is None or len(rows) != 1 or len(rows[0]) != 8:
        return [f"platforms/format: {name}: expected the header and one row"]
    got_name, eps_g, eps_r, ft, tilde, recursive, d_star, feasible = rows[0]
    eps_g, eps_r = float(eps_g), float(eps_r)
    if (got_name, eps_g, eps_r) != (name, platform["eps_g"], platform["eps_r"]):
        return [f"platforms/format: row {rows[0][:3]} does not echo its input {name}"]
    if feasible != "true":
        return [f"platforms/feasible: {name} reported infeasible"]
    ft, tilde, recursive, d_star = float(ft), float(tilde), float(recursive), float(d_star)

    problems = []
    ft_ref = oracle.optimal_target(eps_g)
    fps = oracle.fixed_points(eps_g, eps_r)
    if fps is None:
        return [f"platforms/ft_star: {name}: the float map has no fixed points"]
    if abs(ft - ft_ref) > EXACT_ABS or not fps[0] < ft < fps[1]:
        problems.append(f"platforms/ft_star: {name}: {ft!r} vs closed form {ft_ref!r},"
                        f" fixed points {fps}")
    tilde_ref = oracle.window_exponent(eps_g, eps_r, ft_ref)
    if tilde_ref is None or _rel(tilde, tilde_ref) > CLOSED_FORM_REL:
        problems.append(f"platforms/lambda_tilde: {name}: {tilde!r} vs {tilde_ref!r}")
    _, recursive_ref = oracle.trace_exponent(eps_g, eps_r, ft_ref)
    if _rel(recursive, recursive_ref) > TRACE_REL:
        problems.append(f"platforms/lambda_recursive: {name}: {recursive!r}"
                        f" vs {recursive_ref!r}")
    problems += _decay_identity(f"platforms/d_star: {name}:", d_star, recursive, ft_ref,
                                eps_g, eps_r, platform["rate_hz"], platform["t2_s"], fps)
    return problems


def axis(start: float, stop: float, steps: int) -> list[float]:
    return [start + (stop - start) * i / (steps - 1) for i in range(steps)]


def sweep_panel(grid: dict, texts: dict[str, str]) -> list[str]:
    """The four sweeps of one grid: layout, threshold, and per-cell values."""
    eps_r_axis, eps_g_axis = axis(*grid["eps_r"]), axis(*grid["eps_g"])
    cells = [(r, g) for r in eps_r_axis for g in eps_g_axis]
    tables = {}
    problems = []
    for quantity in SWEEP_QUANTITIES:
        rows = _table(texts[quantity], SWEEP_HEADER)
        if rows is None or len(rows) != len(cells) or any(len(row) != 4 for row in rows):
            problems.append(f"sweep/grid: {quantity}: expected the header and"
                            f" {len(cells)} rows of 4 fields")
            continue
        for (r, g), row in zip(cells, rows):
            if abs(float(row[0]) - r) > EXACT_ABS or abs(float(row[1]) - g) > EXACT_ABS:
                problems.append(f"sweep/grid: {quantity}: row {row[:2]} out of grid order")
                break
        else:
            tables[quantity] = [(float(v) if f == "true" else None) for _, _, v, f in rows]
    if problems:
        return problems

    thresholds = {r: oracle.gate_threshold(r) for r in eps_r_axis}
    for quantity, values in tables.items():
        for (r, g), v in zip(cells, values):
            if v is not None and g > thresholds[r] + IDENTITY_ABS:
                problems.append(f"sweep/threshold: {quantity}: feasible cell ({r!r}, {g!r})"
                                f" above the gate-error threshold {thresholds[r]!r}")

    for i, (r, g) in enumerate(cells):
        ft = oracle.optimal_target(g)
        fps = oracle.fixed_points(g, r)
        f0 = oracle.swap(ft, r)
        inside = fps is not None and fps[0] + CLEAR_MARGIN < ft < fps[1] - CLEAR_MARGIN
        where = f"({r!r}, {g!r})"

        tilde = tables["lambda-tilde"][i]
        tilde_ref = oracle.window_exponent(g, r, ft)
        if tilde is not None:
            if tilde < 3.0:
                problems.append(f"sweep/lambda-tilde floor: {where}: {tilde!r} < 3")
            if tilde_ref is None or _rel(tilde, tilde_ref) > CLOSED_FORM_REL:
                problems.append(f"sweep/lambda-tilde closed form: {where}: {tilde!r}"
                                f" vs {tilde_ref!r}")
        elif tilde_ref is not None and tilde_ref < 1e3:
            problems.append(f"sweep/lambda-tilde closed form: {where}: infeasible,"
                            f" but the window gain is positive ({tilde_ref!r})")

        value = tables["lambda"][i]
        if value is not None:
            _, ref = oracle.trace_exponent(g, r, ft)
            if _rel(value, ref) > TRACE_REL:
                problems.append(f"sweep/lambda trace: {where}: {value!r} vs {ref!r}")
        elif inside and f0 > fps[0] + CLEAR_MARGIN:
            problems.append(f"sweep/lambda trace: {where}: infeasible inside the window")

        value = tables["ft-star"][i]
        if value is not None:
            if abs(value - ft) > EXACT_ABS or fps is None or not fps[0] < value < fps[1]:
                problems.append(f"sweep/ft-star: {where}: {value!r} vs {ft!r},"
                                f" fixed points {fps}")
        elif inside:
            problems.append(f"sweep/ft-star: {where}: infeasible inside the window")

        value = tables["dstar"][i]
        if value is not None:
            if tilde is None or fps is None:
                problems.append(f"sweep/dstar decay identity: {where}: feasible without"
                                " a feasible lambda-tilde and fixed points")
            else:
                problems += _decay_identity(f"sweep/dstar: {where}:", value, tilde, ft, g, r,
                                            grid["rate_hz"], grid["t2_s"], fps)
    return problems


def simulate_runs(configs, trials: int, texts: list[list[str]]) -> list[str]:
    """All `simulate` outputs of a run: per call, then pooled per configuration.

    ``texts`` holds, per op, the summary and histogram text of each config.
    """
    problems = []
    pooled = [[0, 0, 0] for _ in configs]   # trials, sum, sum of squares
    seeds = []
    for op_texts in texts:
        for c, (levels, eps) in enumerate(configs):
            summary = _table(op_texts[2 * c], SIM_HEADER)
            hist = _table(op_texts[2 * c + 1], HIST_HEADER)
            if summary is None or len(summary) != 1 or hist is None:
                problems.append(f"simulate/format: config {c}: missing header or row")
                continue
            lv, n, seed, completed, aborted, mean = summary[0][:6]
            seeds.append(seed)
            if (int(lv), int(n)) != (levels, trials):
                problems.append(f"simulate/format: config {c}: echoes {lv},{n}")
            if int(aborted) != 0 or int(completed) != trials:
                problems.append(f"simulate/aborts: seed {seed}: {aborted} aborted,"
                                f" {completed} completed")
            counts = [(int(value), int(k)) for value, k in hist]
            total = sum(k for _, k in counts)
            first = sum(value * k for value, k in counts)
            if total != trials or not total or abs(first / total - float(mean)) > (
                    EXACT_ABS * abs(float(mean))):
                problems.append(f"simulate/histogram: seed {seed}: {total} trials, mean"
                                f" {first / max(total, 1)!r} vs mean_consumed {mean}")
                continue
            pooled[c][0] += total
            pooled[c][1] += first
            pooled[c][2] += sum(value * value * k for value, k in counts)
    problems += distinct("simulate", seeds)

    for (levels, eps), (n, first, second) in zip(configs, pooled):
        if n < 2:
            continue
        mean = first / n
        std_error = math.sqrt((second * n - first * first) / (n * n * (n - 1)))
        expected = (2.0 * oracle.pairs_per_level(eps, eps, oracle.optimal_target(eps))) ** levels
        if abs(mean - expected) > SIGMAS * std_error:
            problems.append(f"simulate/pooled mean: L={levels} eps={eps}: {mean!r} vs"
                            f" (2B)^L = {expected!r}, {SIGMAS} x s.e. {std_error:.4g}")
    return problems


def identical(label: str, first: list[str], second: list[str]) -> list[str]:
    """A rerun with the same seed must reproduce every byte."""
    if first != second:
        return [f"{label}/rerun: output differs from the first run with the same seed"]
    return []
