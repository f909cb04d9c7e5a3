"""Platform dataset handling and derived figure-of-merit tables and sweeps."""

import functools
import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .analytic import (
    AnalyticOptions,
    DEFAULT_OPTIONS,
    exponent_estimate,
    optimal_target_fidelity,
    window_exponent,
)
from .exceptions import InfeasibleError
from .fixed_points import find_fixed_points
from .maps import ErrorParams, swap_fidelity
from .path_length import check_budget_inputs, link_budget, max_path_length
from .recursive import ProtocolParams, optimal_recursive_exponent, resource_exponent

__all__ = [
    "Platform",
    "PlatformRow",
    "SweepCell",
    "SweepGrid",
    "default_platforms_path",
    "load_platforms",
    "dump_platforms",
    "save_platforms",
    "evaluate_platform",
    "evaluate_all",
    "sweep",
]

_FIELDS = ("name", "eps_g", "eps_r", "rate_hz", "t2_s")

SWEEP_QUANTITIES = ("lambda", "lambda-tilde", "ft-star", "dstar")


@dataclass(frozen=True)
class Platform:
    """One hardware platform: error rates, entanglement rate, coherence time."""

    name: str
    eps_g: float
    eps_r: float
    rate_hz: float
    t2_s: float
    note: str = ""

    def __post_init__(self) -> None:
        problems = self.validate()
        if problems:
            raise ValueError("; ".join(problems))

    def validate(self) -> list[str]:
        problems = []
        if not self.name:
            problems.append("name must be non-empty")
        if self.eps_g < 0.0:
            problems.append(f"eps_g must be >= 0, got {self.eps_g}")
        if self.eps_r < 0.0:
            problems.append(f"eps_r must be >= 0, got {self.eps_r}")
        try:
            check_budget_inputs(self.rate_hz, self.t2_s)
        except ValueError as exc:
            problems.append(str(exc))
        return problems

    @property
    def errors(self) -> ErrorParams:
        return ErrorParams(eps_g=self.eps_g, eps_r=self.eps_r)

    def path_length(self, exponent: float) -> float:
        """Decoherence-limited path length at a given resource exponent."""
        return max_path_length(link_budget(self.errors, self.rate_hz, self.t2_s, exponent))


@dataclass(frozen=True)
class PlatformRow:
    """Derived figures of merit for one platform; None where infeasible.

    ``lambda_recursive`` and ``d_star`` evaluate the iterated trace at the
    closed-form optimal target; the ``_optimal`` twins re-optimise the target
    for the trace itself, whose step count is integer-valued and therefore
    has its own optimum.  Published reference tables do not state which
    convention they used, so both are kept.  The twins run the target scan on
    first read (the CLI table prints neither); its errors propagate from there.
    """

    platform: Platform
    feasible: bool
    ft_star: float | None = None
    lambda_tilde: float | None = None
    lambda_recursive: float | None = None
    d_star: float | None = None

    @functools.cached_property
    def lambda_recursive_optimal(self) -> float | None:
        if not self.feasible:
            return None
        return optimal_recursive_exponent(self.platform.errors)[1].exponent

    @functools.cached_property
    def d_star_optimal(self) -> float | None:
        exponent = self.lambda_recursive_optimal
        return None if exponent is None else self.platform.path_length(exponent)


@dataclass(frozen=True)
class SweepCell:
    eps_r: float
    eps_g: float
    value: float | None
    feasible: bool


@dataclass(frozen=True)
class SweepGrid:
    """Rectangular (eps_r, eps_g) grid request for one derived quantity."""

    quantity: str
    eps_r_start: float
    eps_r_stop: float
    eps_r_steps: int
    eps_g_start: float
    eps_g_stop: float
    eps_g_steps: int
    rate_hz: float | None = None
    t2_s: float | None = None

    def __post_init__(self) -> None:
        if self.quantity not in SWEEP_QUANTITIES:
            raise ValueError(f"quantity must be one of {SWEEP_QUANTITIES}, got {self.quantity!r}")
        for label, start, stop, steps in (
            ("eps_r", self.eps_r_start, self.eps_r_stop, self.eps_r_steps),
            ("eps_g", self.eps_g_start, self.eps_g_stop, self.eps_g_steps),
        ):
            if steps < 2:
                raise ValueError(f"{label} steps must be >= 2, got {steps}")
            if not 0.0 <= start <= stop <= 0.1:
                raise ValueError(f"{label} range must satisfy 0 <= start <= stop <= 0.1")
        if self.quantity == "dstar":
            if None in (self.rate_hz, self.t2_s):
                raise ValueError("dstar sweeps need rate_hz and t2_s")
            check_budget_inputs(self.rate_hz, self.t2_s)

    def eps_r_values(self) -> list[float]:
        return _linspace(self.eps_r_start, self.eps_r_stop, self.eps_r_steps)

    def eps_g_values(self) -> list[float]:
        return _linspace(self.eps_g_start, self.eps_g_stop, self.eps_g_steps)


def _linspace(start: float, stop: float, steps: int) -> list[float]:
    return [start + (stop - start) * i / (steps - 1) for i in range(steps)]


def default_platforms_path() -> Path:
    """Path of the dataset shipped with the package."""
    return Path(resources.files("repeater_scaling").joinpath("data/platforms.json"))


def load_platforms(path) -> list[Platform]:
    """Load and validate a platform dataset file.

    The file is a JSON array of objects with the contractual fields
    name, eps_g, eps_r, rate_hz, t2_s and an optional free-text note.
    """
    text = Path(path).read_text(encoding="utf-8")
    if not text.strip():
        return []
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(raw, list):
        raise ValueError(f"{path}: expected a JSON array of platform objects")
    platforms = []
    problems = []
    for i, entry in enumerate(raw):
        if not isinstance(entry, dict):
            problems.append(f"entry {i}: expected an object")
            continue
        missing = [f for f in _FIELDS if f not in entry]
        if missing:
            problems.append(f"entry {i}: missing fields {missing}")
            continue
        unknown = [f for f in entry if f not in _FIELDS + ("note",)]
        if unknown:
            problems.append(f"entry {i}: unknown fields {unknown}")
            continue
        try:
            platforms.append(Platform(name=str(entry["name"]), note=str(entry.get("note", "")),
                                      **{f: float(entry[f]) for f in _FIELDS[1:]}))
        except (TypeError, ValueError) as exc:
            problems.append(f"entry {i} ({entry.get('name', '?')}): {exc}")
    if problems:
        raise ValueError(f"{path}: " + "; ".join(problems))
    return platforms


def dump_platforms(platforms: list[Platform]) -> str:
    """Serialise platforms to the dataset JSON format."""
    entries = [{f: getattr(p, f) for f in _FIELDS + ("note",)} for p in platforms]
    return json.dumps(entries, indent=2) + "\n"


def save_platforms(platforms: list[Platform], path) -> None:
    Path(path).write_text(dump_platforms(platforms), encoding="utf-8")


def evaluate_platform(platform: Platform) -> PlatformRow:
    """Derived figures of merit for one platform.

    The target fidelity comes from the closed-form optimum, the post-swap
    fidelity from the exact two-link swap; the analytic exponent is computed
    without the step ceiling, the path length from the recursive exponent.
    Only :class:`InfeasibleError` or an empty window makes a row infeasible.
    """
    err = platform.errors
    try:
        ft = optimal_target_fidelity(platform.eps_g)
        # ft leaves the swap's domain above eps_g ~ 0.19; f0 = ft = 1 at eps_g = eps_r = 0.
        f0 = float(swap_fidelity(ft, 2, err)) if ft > 0.25 else ft
        if not f0 < ft:
            return PlatformRow(platform=platform, feasible=False)
        # Both estimates check the window against the fixed points.
        tilde = exponent_estimate(f0, ft, err)
        recursive = resource_exponent(ProtocolParams(ft=ft, err=err, f0=f0))
        if not (tilde.feasible and recursive.feasible):
            return PlatformRow(platform=platform, feasible=False)
        d_star = platform.path_length(recursive.exponent)
    except InfeasibleError:
        return PlatformRow(platform=platform, feasible=False)
    return PlatformRow(
        platform=platform,
        feasible=True,
        ft_star=ft,
        lambda_tilde=tilde.exponent,
        lambda_recursive=recursive.exponent,
        d_star=d_star,
    )


def evaluate_all(platforms: list[Platform]) -> list[PlatformRow]:
    return [evaluate_platform(p) for p in platforms]


def _sweep_cell(quantity: str, eps_r: float, eps_g: float, grid: SweepGrid,
                opts: AnalyticOptions) -> SweepCell:
    err = ErrorParams(eps_g=eps_g, eps_r=eps_r)
    infeasible = SweepCell(eps_r, eps_g, None, False)
    try:
        ft = optimal_target_fidelity(eps_g)
        if quantity == "ft-star":
            fps = find_fixed_points(err)
            if not (fps.feasible and fps.lower < ft < fps.upper):
                return infeasible
            return SweepCell(eps_r, eps_g, ft, True)
        f0 = float(swap_fidelity(ft, 2, err))
        # An empty swap-tied window (f0 = ft = 1 at eps_g = eps_r = 0) has no exponent.
        if not f0 < ft:
            return infeasible
        if quantity == "lambda":
            # The trace checks the window against the fixed points.
            result = resource_exponent(ProtocolParams(ft=ft, err=err, f0=f0))
        else:
            # Surface-plot convention: evaluate the interval averages over the
            # swap-tied window regardless of the fixed points and classify the
            # cell by the sign of the resulting step count.
            result = window_exponent(f0, ft, err, opts=opts)
            if result.feasible and quantity == "dstar":
                budget = link_budget(err, grid.rate_hz, grid.t2_s, result.exponent)
                return SweepCell(eps_r, eps_g, max_path_length(budget), True)
        if not result.feasible:
            return infeasible
        return SweepCell(eps_r, eps_g, result.exponent, True)
    except InfeasibleError:
        return infeasible


def sweep(grid: SweepGrid, opts: AnalyticOptions = DEFAULT_OPTIONS) -> list[SweepCell]:
    """Evaluate one quantity over the error grid; row order follows the grid.

    Infeasible cells carry the flag with the value unset.  Presentation-level
    clamping (zero floor, cap at 20) belongs to the CLI, never here.
    """
    cells = []
    for eps_r in grid.eps_r_values():
        for eps_g in grid.eps_g_values():
            cells.append(_sweep_cell(grid.quantity, eps_r, eps_g, grid, opts))
    return cells
