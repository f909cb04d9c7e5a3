"""Command-line front end emitting CSV for every estimator.

Every subcommand writes one CSV table with a header row to stdout or to
``--out``.  Floats are printed as the shortest decimal that round-trips to
the same double, so identical invocations produce byte-identical output.
Exit codes: 0 on success, 2 on argument errors, 3 when ``--strict`` is set
and a result is infeasible.
"""

import argparse
import functools
import os
import sys

from .analytic import (
    AnalyticOptions,
    CLOSED_FORM,
    QUADRATURE,
    exponent_estimate,
    optimal_target_fidelity,
)
from .exceptions import InfeasibleError
from .maps import ErrorParams, purify, swap_fidelity
from .mc import SimConfig, histogram_csv, simulate
from .path_length import check_budget_inputs, link_budget, max_path_length
from .platforms import (
    SWEEP_QUANTITIES,
    SweepGrid,
    default_platforms_path,
    evaluate_all,
    load_platforms,
    sweep,
)
from .recursive import (
    ProtocolParams,
    ScalingResult,
    check_unit_interval,
    optimal_recursive_exponent,
    resource_exponent,
)

PLATFORMS_ENV = "REPEATER_PLATFORMS"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3

CLAMP_CAP = 20.0


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _write_csv(header: list[str], rows: list[list], out: str | None) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    text = "\n".join(lines) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


def _parse_range(spec: str) -> tuple[float, float, int]:
    parts = spec.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected start:stop:steps, got {spec!r}")
    try:
        return float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad range {spec!r}: {exc}") from exc


def _ft_value(text: str):
    if text == "auto":
        return "auto"
    try:
        return float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"--ft expects a fidelity or 'auto', got {text!r}") from exc


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repeater-scaling",
        description="Resource scaling of first-generation quantum repeater chains.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    curve = sub.add_parser("purify-curve", help="iterated purification map as CSV")
    curve.add_argument("--eps-g", type=float, required=True)
    curve.add_argument("--eps-r", type=float, required=True)
    curve.add_argument("--iterations", type=int, default=4)
    curve.add_argument("--f-min", type=float, default=0.3)
    curve.add_argument("--f-max", type=float, default=1.0)
    curve.add_argument("--points", type=int, default=141)
    curve.add_argument("--out")

    lam = sub.add_parser("lambda", help="resource exponent for one error point")
    lam.add_argument("--eps-g", type=float, required=True)
    lam.add_argument("--eps-r", type=float, required=True)
    lam.add_argument("--ft", type=_ft_value, default="auto")
    lam.add_argument("--method", choices=["recursive", "analytic", "closed-form"],
                     default="analytic")
    lam.add_argument("--ceiling", action="store_true")
    lam.add_argument("--ps", type=float, default=1.0)
    lam.add_argument("--strict", action="store_true")
    lam.add_argument("--out")

    swp = sub.add_parser("sweep", help="grid sweep over read-out and gate errors")
    swp.add_argument("--quantity", choices=list(SWEEP_QUANTITIES), required=True)
    swp.add_argument("--eps-r", type=_parse_range, required=True, metavar="A:B:N")
    swp.add_argument("--eps-g", type=_parse_range, required=True, metavar="A:B:N")
    swp.add_argument("--clamp", action="store_true",
                     help="presentation rule: infeasible cells as 0, cap values at 20")
    swp.add_argument("--rate", type=float, help="pairs/s, needed for --quantity dstar")
    swp.add_argument("--t2", type=float, help="seconds, needed for --quantity dstar")
    swp.add_argument("--strict", action="store_true")
    swp.add_argument("--out")

    fstar = sub.add_parser("fstar", help="closed-form optimal target fidelity")
    fstar.add_argument("--eps-g", type=float, required=True)
    fstar.add_argument("--full", action="store_true",
                       help="use the read-out-dependent form (requires --eps-r)")
    fstar.add_argument("--eps-r", type=float)
    fstar.add_argument("--out")

    plat = sub.add_parser("platforms", help="figure-of-merit table for a platform dataset")
    plat.add_argument("--data", help=f"dataset path (default: ${PLATFORMS_ENV} or bundled)")
    plat.add_argument("--strict", action="store_true")
    plat.add_argument("--out")

    dstar = sub.add_parser("dstar", help="decoherence-limited maximum path length")
    dstar.add_argument("--rate", type=float, required=True)
    dstar.add_argument("--t2", type=float, required=True)
    dstar.add_argument("--eps-g", type=float, required=True)
    dstar.add_argument("--eps-r", type=float, required=True)
    dstar.add_argument("--lambda", dest="exponent", type=float,
                       help="resource exponent; default: recursive exponent at its optimal target")
    dstar.add_argument("--floor", action="store_true")
    dstar.add_argument("--strict", action="store_true")
    dstar.add_argument("--out")

    sim = sub.add_parser("simulate", help="Monte Carlo run of the nested protocol")
    sim.add_argument("--levels", type=int, required=True)
    sim.add_argument("--eps-g", type=float, required=True)
    sim.add_argument("--eps-r", type=float, required=True)
    sim.add_argument("--trials", type=int, required=True)
    sim.add_argument("--seed", type=int, required=True)
    sim.add_argument("--ft", type=_ft_value, default="auto")
    sim.add_argument("--ps", type=float, default=1.0)
    sim.add_argument("--hist-out", help="write the consumed-pairs histogram CSV here")
    sim.add_argument("--out")

    return parser


def _analytic_options(args) -> AnalyticOptions:
    mode = CLOSED_FORM if args.method == "closed-form" else QUADRATURE
    return AnalyticOptions(use_ceiling=args.ceiling, integral_mode=mode)


def _resolve_ft(ft_arg, eps_g: float) -> float:
    if ft_arg == "auto":
        return optimal_target_fidelity(eps_g)
    check_unit_interval("ft", ft_arg)
    return ft_arg


def _cmd_purify_curve(args) -> int:
    err = ErrorParams(eps_g=args.eps_g, eps_r=args.eps_r)
    if args.iterations < 1:
        raise ValueError("--iterations must be >= 1")
    if args.points < 2:
        raise ValueError("--points must be >= 2")
    if not 0.25 < args.f_min < args.f_max <= 1.0:
        raise ValueError("need 0.25 < --f-min < --f-max <= 1")
    header = ["f"] + [f"f_after_{k}" for k in range(1, args.iterations + 1)]
    rows = []
    for i in range(args.points):
        f = args.f_min + (args.f_max - args.f_min) * i / (args.points - 1)
        row = [f]
        current = f
        for _ in range(args.iterations):
            current = float(purify(current, err).fidelity)
            row.append(current)
        rows.append(row)
    _write_csv(header, rows, args.out)
    return EXIT_OK


def _cmd_lambda(args) -> int:
    err = ErrorParams(eps_g=args.eps_g, eps_r=args.eps_r)
    ft = _resolve_ft(args.ft, args.eps_g)
    # Before the window test: at f0 = ft = 1 a bad ps would read as an infeasible row.
    check_unit_interval("ps", args.ps)
    f0 = float(swap_fidelity(ft, 2, err))
    opts = _analytic_options(args)
    if not f0 < ft:
        method = "recursive" if args.method == "recursive" else opts.method
        result = ScalingResult(feasible=False, method=method)
    elif args.method == "recursive":
        result = resource_exponent(ProtocolParams(ft=ft, err=err, f0=f0, ps=args.ps))
    else:
        result = exponent_estimate(f0, ft, err, ps=args.ps, opts=opts)
    header = ["eps_g", "eps_r", "ft", "f0", "method", "steps", "pairs_per_level",
              "lambda", "feasible"]
    rows = [[args.eps_g, args.eps_r, ft, f0, result.method, result.steps,
             result.pairs_per_level, result.exponent, result.feasible]]
    _write_csv(header, rows, args.out)
    if args.strict and not result.feasible:
        return EXIT_INFEASIBLE
    return EXIT_OK


def _cmd_sweep(args) -> int:
    r0, r1, rn = args.eps_r
    g0, g1, gn = args.eps_g
    grid = SweepGrid(
        quantity=args.quantity,
        eps_r_start=r0, eps_r_stop=r1, eps_r_steps=rn,
        eps_g_start=g0, eps_g_stop=g1, eps_g_steps=gn,
        rate_hz=args.rate, t2_s=args.t2,
    )
    cells = sweep(grid)
    rows = []
    any_infeasible = False
    for cell in cells:
        value = cell.value
        if not cell.feasible:
            any_infeasible = True
            if args.clamp:
                value = 0.0
        elif args.clamp and value is not None and value > CLAMP_CAP:
            value = CLAMP_CAP
        rows.append([cell.eps_r, cell.eps_g, value, cell.feasible])
    _write_csv(["eps_r", "eps_g", "value", "feasible"], rows, args.out)
    if args.strict and any_infeasible:
        return EXIT_INFEASIBLE
    return EXIT_OK


def _cmd_fstar(args) -> int:
    if args.full:
        if args.eps_r is None:
            raise ValueError("--full requires --eps-r")
        value = optimal_target_fidelity(args.eps_g, args.eps_r)
        rows = [[args.eps_g, args.eps_r, value]]
    else:
        value = optimal_target_fidelity(args.eps_g)
        rows = [[args.eps_g, None, value]]
    _write_csv(["eps_g", "eps_r", "ft_star"], rows, args.out)
    return EXIT_OK


def _cmd_platforms(args) -> int:
    path = args.data or os.environ.get(PLATFORMS_ENV) or default_platforms_path()
    platforms = load_platforms(path)
    rows = []
    any_infeasible = False
    for row in evaluate_all(platforms):
        any_infeasible |= not row.feasible
        rows.append([
            row.platform.name, row.platform.eps_g, row.platform.eps_r,
            row.ft_star, row.lambda_tilde, row.lambda_recursive, row.d_star,
            row.feasible,
        ])
    _write_csv(
        ["name", "eps_g", "eps_r", "ft_star", "lambda_tilde", "lambda_recursive",
         "d_star", "feasible"],
        rows, args.out,
    )
    if args.strict and any_infeasible:
        return EXIT_INFEASIBLE
    return EXIT_OK


def _cmd_dstar(args) -> int:
    err = ErrorParams(eps_g=args.eps_g, eps_r=args.eps_r)
    # Before any solve, so bad arguments never read as an infeasible row.
    check_budget_inputs(args.rate, args.t2, args.exponent)
    feasible = True
    exponent = args.exponent
    d_star = None
    try:
        if exponent is None:
            _, result = optimal_recursive_exponent(err)
            exponent = result.exponent
        budget = link_budget(err, args.rate, args.t2, exponent)
        d_star = max_path_length(budget, floored=args.floor)
    except InfeasibleError:
        feasible = False
    _write_csv(
        ["rate_hz", "t2_s", "eps_g", "eps_r", "lambda", "d_star", "feasible"],
        [[args.rate, args.t2, args.eps_g, args.eps_r, exponent, d_star, feasible]],
        args.out,
    )
    if args.strict and not feasible:
        return EXIT_INFEASIBLE
    return EXIT_OK


def _cmd_simulate(args) -> int:
    err = ErrorParams(eps_g=args.eps_g, eps_r=args.eps_r)
    ft = _resolve_ft(args.ft, args.eps_g)
    config = SimConfig(
        levels=args.levels,
        params=ProtocolParams(ft=ft, err=err, ps=args.ps),
        trials=args.trials,
        seed=args.seed,
    )
    report = simulate(config)
    _write_csv(
        ["levels", "trials", "seed", "completed", "aborted", "mean_consumed",
         "std_error", "analytic_total"],
        [[args.levels, args.trials, args.seed, report.completed, report.aborted,
          report.mean_consumed, report.std_error, report.analytic_total]],
        args.out,
    )
    if args.hist_out:
        with open(args.hist_out, "w", encoding="utf-8", newline="") as handle:
            handle.write(histogram_csv(report))
    return EXIT_OK


_COMMANDS = {
    "purify-curve": _cmd_purify_curve,
    "lambda": _cmd_lambda,
    "sweep": _cmd_sweep,
    "fstar": _cmd_fstar,
    "platforms": _cmd_platforms,
    "dstar": _cmd_dstar,
    "simulate": _cmd_simulate,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
