"""Stochastic simulation of the nested swap-and-purify protocol.

Each trial plays out the full retry process: a link at one nesting level is
built by swapping two links of the level below and climbing the purification
ladder, where every attempt consumes two freshly built operand links and a
failure destroys both.  Fidelities follow the deterministic trace; only the
accept/reject draws are random.

The per-trial pair count is generated exactly without touching individual
pairs: the attempts needed for n independent ladder steps with acceptance p
are distributed as n plus a negative binomial, so one draw per (level, step)
aggregates the whole branching process.

Reproducibility contract: trials run in blocks of ``BLOCK``; block ``b``
draws its trials in order from one generator keyed by ``(seed, b)``.  So
results are reproducible from ``(seed, trials)``, a longer run extends a
shorter one trial by trial, and each block depends only on ``(seed, b)``,
not on other blocks or on the order blocks run in.
"""

from collections import Counter
from dataclasses import dataclass
from math import sqrt

import numpy as np

from .recursive import ProtocolParams, purification_trace, scaling_from_steps

__all__ = ["SimConfig", "SimReport", "simulate_counts", "simulate", "histogram_csv"]

MAX_CONSUMED = 10**9
# Trials per generator; part of the reproducibility contract.
BLOCK = 4096


@dataclass(frozen=True)
class SimConfig:
    levels: int
    params: ProtocolParams
    trials: int
    seed: int

    def __post_init__(self) -> None:
        if self.levels < 1:
            raise ValueError(f"levels must be >= 1, got {self.levels}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed}")


@dataclass(frozen=True)
class SimReport:
    """Consumption statistics over completed trials.

    ``aborted`` counts trials that blew past MAX_CONSUMED pairs and were
    excluded from the moments.  ``analytic_total`` is the expected count from
    the recursive per-level cost.
    """

    trials: int
    completed: int
    aborted: int
    mean_consumed: float
    std_error: float
    histogram: dict[int, int]
    analytic_total: float


# A string annotation, so that importing this module does not load numpy.random.
def _trial_consumed(rng: "np.random.Generator", step_probs, swap_prob: float, levels: int):
    """Base pairs consumed by one trial; None when the trial is aborted."""
    demand = 1
    for _ in range(levels):
        for p_accept in reversed(step_probs):
            attempts = demand
            if p_accept < 1.0:
                attempts += int(rng.negative_binomial(demand, p_accept))
            demand = 2 * attempts
            if demand > MAX_CONSUMED:
                return None
        swaps = demand
        if swap_prob < 1.0:
            swaps += int(rng.negative_binomial(demand, swap_prob))
        demand = 2 * swaps
        if demand > MAX_CONSUMED:
            return None
    return demand


def simulate_counts(
    levels: int, step_probs, swap_prob: float, trials: int, seed: int
) -> tuple[list[int], int]:
    """Run trials over explicit per-step acceptance probabilities.

    Returns the consumed counts of completed trials and the number of aborted
    trials.  Trial ``t`` is drawn, in order, from the generator of block
    ``t // BLOCK``, keyed by ``(seed, t // BLOCK)``.  Each block therefore
    depends only on ``(seed, block)``, and a longer run extends a shorter one.
    """
    if not step_probs:
        raise ValueError("need at least one purification step")
    counts: list[int] = []
    aborted = 0
    for block, start in enumerate(range(0, trials, BLOCK)):
        rng = np.random.default_rng((seed, block))
        for _ in range(min(BLOCK, trials - start)):
            consumed = _trial_consumed(rng, step_probs, swap_prob, levels)
            if consumed is None:
                aborted += 1
            else:
                counts.append(consumed)
    return counts, aborted


def simulate(config: SimConfig) -> SimReport:
    """Simulate the nested protocol and compare with the recursive expectation."""
    trace = purification_trace(config.params)
    step_probs = [step.p_accept for step in trace.steps]
    counts, aborted = simulate_counts(
        config.levels, step_probs, config.params.ps, config.trials, config.seed
    )
    pairs = scaling_from_steps(trace.steps, config.params.ps).pairs_per_level
    analytic_total = (2.0 * pairs) ** config.levels
    if counts:
        mean = sum(counts) / len(counts)
        if len(counts) > 1:
            var = sum((c - mean) ** 2 for c in counts) / (len(counts) - 1)
            std_error = sqrt(var / len(counts))
        else:
            std_error = float("inf")
    else:
        mean, std_error = float("nan"), float("nan")
    return SimReport(
        trials=config.trials,
        completed=len(counts),
        aborted=aborted,
        mean_consumed=mean,
        std_error=std_error,
        histogram=dict(sorted(Counter(counts).items())),
        analytic_total=analytic_total,
    )


def histogram_csv(report: SimReport) -> str:
    """Histogram of consumed pairs as CSV text."""
    lines = ["consumed_pairs,count"]
    for consumed, count in sorted(report.histogram.items()):
        lines.append(f"{consumed},{count}")
    return "\n".join(lines) + "\n"
