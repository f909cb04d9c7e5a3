#!/usr/bin/env python3
"""Benchmark of the repeater-scaling CLI, driven in process.

    python3 bench/run.py --workload {platforms,sweep,simulate} --seed N \\
        --seconds S --trace {0,1} [--smoke]

Run from the repository root.  One Python process with one thread acts as a
single closed-loop caller: it calls ``repeater_scaling.cli.main`` with each
op's arguments, the next op only after the previous one returned, and times
each op from outside.  Ops come in whole rounds (see ``workloads``) until
``--seconds`` have passed.  Afterwards every output is checked against
independent computations.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; a summary goes to
stderr and the full record to ``bench/results/``.

``--trace 1`` alternates untraced and traced rounds, a number fixed by
``--seconds`` so that counts repeat exactly, and reports per-layer figures
per traced op instead of the end-to-end metrics.  ``--smoke`` runs a few ops
only, for the benchmark's own tests.
"""

import os

# One thread: numpy's BLAS pool would otherwise start a thread per core.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

TAIL_PERCENTILE = 90
# Times are reported at a fixed machine speed: each op's wall time is
# multiplied by REFERENCE_S over the time a fixed reference computation took
# just before the op.  REFERENCE_S is the reference's time on a quiet
# 2.1 GHz core.
REFERENCE_S = 0.005
# Fresh interpreters timed for setup_s, after one untimed start.
SETUP_STARTS = 7
SMOKE_OPS = 3

UNITS = {"items_per_s": "1/s", "op_p50_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def _percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)]


def _reference() -> float:
    """Seconds taken by a fixed computation shaped like the package's hot path.

    Scalar numpy calls and float arithmetic in the interpreter, as in the
    scalar purification map, so that it slows down with the machine the
    way the ops do.
    """
    start = time.perf_counter()
    x, s = 0.7, 0.0
    for _ in range(400):
        a = np.asarray(x)
        if np.any(a > 1.0):
            break
        x = float(a * 0.999 + 1e-4)
        for j in range(20):
            s += (j * 0.5 + 1.0) / (j + 2.0)
    return time.perf_counter() - start


def _at_reference_speed(seconds: list[float], references: list[float]) -> list[float]:
    """Scale each time by the reference speed measured just before it."""
    return [t * REFERENCE_S / r for t, r in zip(seconds, references)]


def _measure_setup(code: str, starts: int) -> tuple[list[float], list[float]]:
    """Seconds to import the CLI and load one op's inputs in fresh interpreters.

    Returns the samples and the reference times measured before each start.
    """
    script = ("import sys, time\n"
              "t0 = time.perf_counter()\n"
              f"sys.path.insert(0, {str(SRC)!r})\n"
              "import repeater_scaling.cli\n"
              f"{code}"
              "print(time.perf_counter() - t0)\n")
    samples, references = [], []
    for start in range(starts + 1):
        reference = _reference()
        done = subprocess.run([sys.executable, "-c", script], cwd=ROOT, capture_output=True,
                              text=True, check=True, timeout=120)
        if start:
            samples.append(float(done.stdout))
            references.append(reference)
    return samples, references


def _execute(cli, op) -> bool:
    """Run an op's CLI calls; False when a call fails."""
    try:
        for argv in op.calls:
            if cli.main(argv) != 0:
                print(f"op failed: {' '.join(argv)}", file=sys.stderr)
                return False
    except Exception:
        traceback.print_exc()
        return False
    return True


def run(args, workdir: Path) -> dict:
    from repeater_scaling import cli

    import oracle
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    first_round = workload.round(0)
    if not args.trace:
        setup, setup_refs = _measure_setup(workload.setup_code(first_round[0]),
                                           1 if args.smoke else SETUP_STARTS)
    if not _execute(cli, workload.warmup()):
        raise RuntimeError("the warm-up op failed")

    if args.trace:
        half = max(1, round(args.seconds / 2 / workload.nominal_round_s))
        rounds = 2 if args.smoke else 2 * half
    tracer = tracing.Tracer()
    done, durations, references, traced = [], [], [], []   # per completed op
    failed = 0
    start = time.perf_counter()
    k = 0
    while True:
        ops = first_round if k == 0 else workload.round(k)
        if args.smoke:
            ops = ops[:SMOKE_OPS]
        in_trace = bool(args.trace) and k % 2 == 1
        if in_trace:
            tracer.install()
        for op in ops:
            reference = _reference()
            t0 = time.perf_counter()
            if in_trace:
                ok = tracer.op(len(done) + failed, lambda: _execute(cli, op))
            else:
                ok = _execute(cli, op)
            elapsed = time.perf_counter() - t0
            if ok:
                done.append(op)
                durations.append(elapsed)
                references.append(reference)
                traced.append(in_trace)
            else:
                failed += 1
        if in_trace:
            tracer.uninstall()
        k += 1
        if args.trace:
            if k >= rounds:
                break
        elif args.smoke or time.perf_counter() - start >= args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    texts = [[path.read_text(encoding="utf-8") for path in op.outputs] for op in done]
    problems = oracle.self_check() + workload.check(done, texts, lambda op: _execute(cli, op))

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "rounds": k, "ops": len(done), "problems": problems}
    scaled = _at_reference_speed(durations, references)
    if args.trace:
        plain = [d for d, t in zip(scaled, traced) if not t]
        in_trace = [d for d, t in zip(scaled, traced) if t]
        metrics = tracer.layer_metrics(len(in_trace))
        metrics["trace.op_p50_s"] = statistics.median(in_trace)
        metrics["trace.overhead_s"] = statistics.median(in_trace) - statistics.median(plain)
        record["spans"] = len(tracer.span_start)
        tracer.write_spans(RESULTS / f"spans-{args.workload}-{args.seed}.npz")
        units = {name: _layer_unit(name) for name in metrics}
    else:
        items = sum(op.items for op in done)
        metrics = {
            "items_per_s": items / sum(scaled),
            "op_p50_s": statistics.median(scaled),
            "setup_s": statistics.median(_at_reference_speed(setup, setup_refs)),
            "peak_rss_mb": peak_rss_mb,
        }
        units = UNITS
        # The tail spreads too widely between runs on a shared machine to
        # carry a bound; it is recorded for reference only.
        record.update(
            items=items, op_tail_s=_percentile(scaled, TAIL_PERCENTILE),
            tail_percentile=TAIL_PERCENTILE, setup_seconds=setup,
            setup_references=setup_refs, op_seconds=durations, op_references=references,
            wall={"items_per_s": items / sum(durations), "op_p50_s": statistics.median(durations),
                  "op_tail_s": _percentile(durations, TAIL_PERCENTILE),
                  "setup_s": statistics.median(setup)})
    result = {
        "correct": not problems,
        "attempted": len(done) + failed,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    record["result"] = result
    name = f"{args.workload}-{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}.json"
    (RESULTS / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    return result


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_us"):
        return "us"
    if name.endswith("_ratio") or name.endswith("_share"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("platforms", "sweep", "simulate"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "repeater_scaling" / "cli.py").is_file():
        print(f"error: no package source at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    RESULTS.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=RESULTS))
    try:
        result = run(args, workdir)
    finally:
        shutil.rmtree(workdir)
    summary = ", ".join(f"{k}={v['value']:.6g} {v['unit']}" for k, v in result["metrics"].items())
    print(f"{args.workload}: attempted {result['attempted']}, failed {result['failed']},"
          f" correct {result['correct']}; {summary}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
