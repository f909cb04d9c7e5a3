"""Seeded inputs for the three benchmark workloads.

A workload hands out rounds of ops.  An op is a short list of argument
vectors for ``repeater_scaling.cli.main``, each writing its CSV to a file of
its own; ``items`` counts the work the op completes (platform rows, grid
cells or Monte Carlo trials).  Round ``k`` of a workload depends only on the
seed and ``k``, so two runs with the same seed attempt the same ops in the
same order, and every input is distinct within a run.
"""

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import checks

BUNDLED = Path(__file__).resolve().parents[1] / "src/repeater_scaling/data/platforms.json"


@dataclass
class Op:
    calls: list[list[str]]
    items: int
    outputs: list[Path]
    meta: dict = field(default_factory=dict)


def _log_uniform(rng: random.Random, lo: float, hi: float, u: float | None = None) -> float:
    u = rng.random() if u is None else u
    return 10.0 ** (math.log10(lo) + u * (math.log10(hi) - math.log10(lo)))


class Workload:
    """Base class: ``round(k)`` writes round k's inputs and returns its ops."""

    name = ""
    # Seconds one round takes on a 2-core x86 container; sets the round
    # count of a traced run, which must not depend on the clock.
    nominal_round_s = 1.0

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self._serial = 0

    def _rng(self, k) -> random.Random:
        return random.Random(f"{self.name}/{self.seed}/{k}")

    def _path(self, suffix: str) -> Path:
        self._serial += 1
        return self.workdir / f"{self._serial:06d}{suffix}"

    def round(self, k: int) -> list[Op]:
        raise NotImplementedError

    def warmup(self) -> Op:
        """One op on an input outside every round, run before timing starts."""
        raise NotImplementedError

    def setup_code(self, op: Op) -> str:
        """Python that loads ``op``'s inputs through the package (for setup_s)."""
        raise NotImplementedError

    def check(self, ops: list[Op], texts: list[list[str]], execute) -> list[str]:
        """Problems with the outputs ``texts`` of ``ops``; ``execute(op)`` runs an op again."""
        raise NotImplementedError


class Platforms(Workload):
    """`platforms --data <one-row dataset>`: the paper's figure-of-merit table.

    Round 0 opens with the five bundled platforms.  Every round then adds
    STRATA variants, one per stratum of eps_g (log-uniform over [1e-4, 2e-2])
    paired with a stratum of eps_r (uniform over [0, 1e-2]) by the fixed
    Latin square EPS_R_STRATUM.  Only the position inside each stratum is
    drawn, so every round has the same spread of trace lengths, and the
    cost of a round varies little from seed to seed.
    """

    name = "platforms"
    nominal_round_s = 4.0
    STRATA = 20
    EPS_R_STRATUM = tuple(7 * i % 20 for i in range(20))
    EPS_G = (1e-4, 2e-2)
    EPS_R = (0.0, 1e-2)
    RATE_HZ = (0.1, 300.0)
    T2_S = (1e-4, 3.0)

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.bundled = json.loads(BUNDLED.read_text(encoding="utf-8"))

    def _op(self, entry: dict) -> Op:
        data = self._path(".json")
        data.write_text(json.dumps([entry]), encoding="utf-8")
        out = self._path(".csv")
        return Op([["platforms", "--data", str(data), "--out", str(out)]], 1, [out],
                  {"platform": entry, "data": data})

    def round(self, k):
        rng = self._rng(k)
        entries = list(self.bundled) if k == 0 else []
        for i, j in enumerate(self.EPS_R_STRATUM):
            entries.append({
                "name": f"variant-{k}-{i}",
                "eps_g": _log_uniform(rng, *self.EPS_G, (i + rng.random()) / self.STRATA),
                "eps_r": self.EPS_R[1] * (j + rng.random()) / self.STRATA,
                "rate_hz": _log_uniform(rng, *self.RATE_HZ),
                "t2_s": _log_uniform(rng, *self.T2_S),
            })
        return [self._op(e) for e in entries]

    def warmup(self):
        return self._op({"name": "warm-up", "eps_g": 1.5e-3, "eps_r": 1.5e-3,
                         "rate_hz": 1.0, "t2_s": 1.0})

    def setup_code(self, op):
        return ("from repeater_scaling.platforms import load_platforms\n"
                f"load_platforms({str(op.meta['data'])!r})\n")

    def check(self, ops, texts, execute):
        problems = checks.distinct("platforms", [(op.meta["platform"]["eps_g"],
                                                   op.meta["platform"]["eps_r"]) for op in ops])
        for op, (text,) in zip(ops, texts):
            problems += checks.platform_row(op.meta["platform"], text)
        return problems


class Sweep(Workload):
    """One panel per op: `sweep` for each quantity on one seeded grid.

    The grid has EPS_R_STEPS x EPS_G_STEPS cells.  Its eps_r axis starts in
    [0, 2e-3] and spans [8e-3, 1e-2]; its eps_g axis runs from [1e-3, 3e-3]
    to [4.8e-2, 5.2e-2], across the gate-error threshold (0.022-0.029 over
    that eps_r range), so about 40-50 % of cells are feasible in every panel.
    """

    name = "sweep"
    nominal_round_s = 0.2
    EPS_R_STEPS = 4
    EPS_G_STEPS = 5

    def round(self, k):
        rng = self._rng(k)
        r0 = rng.uniform(0.0, 2e-3)
        r1 = r0 + rng.uniform(8e-3, 1e-2)
        g0 = rng.uniform(1e-3, 3e-3)
        g1 = rng.uniform(4.8e-2, 5.2e-2)
        return [self._panel(r0, r1, g0, g1, _log_uniform(rng, 1.0, 100.0),
                            _log_uniform(rng, 0.1, 3.0))]

    def _panel(self, r0, r1, g0, g1, rate, t2) -> Op:
        grid = {"eps_r": (r0, r1, self.EPS_R_STEPS), "eps_g": (g0, g1, self.EPS_G_STEPS),
                "rate_hz": rate, "t2_s": t2}
        spec_r = f"{r0!r}:{r1!r}:{self.EPS_R_STEPS}"
        spec_g = f"{g0!r}:{g1!r}:{self.EPS_G_STEPS}"
        calls, outputs = [], []
        for quantity in checks.SWEEP_QUANTITIES:
            out = self._path(".csv")
            argv = ["sweep", "--quantity", quantity, "--eps-r", spec_r, "--eps-g", spec_g,
                    "--out", str(out)]
            if quantity == "dstar":
                argv += ["--rate", repr(rate), "--t2", repr(t2)]
            calls.append(argv)
            outputs.append(out)
        cells = self.EPS_R_STEPS * self.EPS_G_STEPS * len(calls)
        return Op(calls, cells, outputs, {"grid": grid})

    def warmup(self):
        return self._panel(0.0, 5e-3, 5e-3, 4e-2, 10.0, 1.0)

    def setup_code(self, op):
        grid = op.meta["grid"]
        (r0, r1, rn), (g0, g1, gn) = grid["eps_r"], grid["eps_g"]
        return ("from repeater_scaling.platforms import SweepGrid\n"
                f"for q in {checks.SWEEP_QUANTITIES!r}:\n"
                f"    SweepGrid(q, {r0!r}, {r1!r}, {rn}, {g0!r}, {g1!r}, {gn},"
                f" {grid['rate_hz']!r}, {grid['t2_s']!r})\n")

    def check(self, ops, texts, execute):
        cells = []
        for op in ops:
            grid = op.meta["grid"]
            cells += [(r, g) for r in checks.axis(*grid["eps_r"])
                      for g in checks.axis(*grid["eps_g"])]
        problems = checks.distinct("sweep", cells)
        for op, op_texts in zip(ops, texts):
            problems += checks.sweep_panel(op.meta["grid"], dict(zip(checks.SWEEP_QUANTITIES,
                                                                      op_texts)))
        return problems


class Simulate(Workload):
    """A fixed set of `simulate` calls per op, each with a seed of its own.

    Levels 1 and 2 at eps_g = eps_r = 0.01 and level 3 at 1e-3, TRIALS
    trials each; none of these configurations aborts a trial.
    """

    name = "simulate"
    nominal_round_s = 0.15
    TRIALS = 1000
    CONFIGS = ((1, 0.01), (2, 0.01), (3, 1e-3))

    def round(self, k):
        rng = self._rng(k)
        return [self._op([rng.getrandbits(63) for _ in self.CONFIGS])]

    def _op(self, seeds) -> Op:
        calls, paths = [], []
        for (levels, eps), seed in zip(self.CONFIGS, seeds):
            out, hist = self._path(".csv"), self._path(".hist.csv")
            calls.append(["simulate", "--levels", str(levels), "--eps-g", repr(eps),
                          "--eps-r", repr(eps), "--trials", str(self.TRIALS),
                          "--seed", str(seed), "--out", str(out), "--hist-out", str(hist)])
            paths += [out, hist]
        return Op(calls, self.TRIALS * len(calls), paths, {"seeds": seeds})

    def warmup(self):
        # Seeds >= 2**63 never come out of getrandbits(63).
        return self._op([2**63 + i for i in range(len(self.CONFIGS))])

    def setup_code(self, op):
        lines = ["from repeater_scaling.analytic import optimal_target_fidelity",
                 "from repeater_scaling.maps import ErrorParams",
                 "from repeater_scaling.mc import SimConfig",
                 "from repeater_scaling.recursive import ProtocolParams"]
        for (levels, eps), seed in zip(self.CONFIGS, op.meta["seeds"]):
            lines.append(
                f"SimConfig({levels}, ProtocolParams(optimal_target_fidelity({eps!r}),"
                f" ErrorParams({eps!r}, {eps!r})), {self.TRIALS}, {seed})")
        return "\n".join(lines) + "\n"

    def check(self, ops, texts, execute):
        problems = checks.simulate_runs(self.CONFIGS, self.TRIALS, texts)
        again = self._op(ops[0].meta["seeds"])   # the first op, writing to fresh files
        if not execute(again):
            return problems + ["simulate/rerun: the rerun failed"]
        return problems + checks.identical(
            "simulate", texts[0], [path.read_text(encoding="utf-8") for path in again.outputs])


WORKLOADS = {w.name: w for w in (Platforms, Sweep, Simulate)}
