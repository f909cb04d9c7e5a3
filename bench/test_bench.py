"""Tests of the benchmark itself: smoke runs and the output checks.

    python -m pytest bench

The smoke runs execute a few ops per workload through ``run.py``.  The check
tests run one op of each workload through the CLI, confirm its output passes,
and then confirm that each check rejects a copy of that output corrupted in
the one place the check looks at.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402
from repeater_scaling import cli  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _result(done):
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_end_to_end_metric(workload):
    result = _result(_bench("--workload", workload, "--seed", "5", "--seconds", "1",
                            "--trace", "0", "--smoke"))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_smoke_counts_repeat_exactly(workload):
    runs = [_result(_bench("--workload", workload, "--seed", "5", "--seconds", "1",
                           "--trace", "1", "--smoke")) for _ in range(2)]
    for result in runs:
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    counts = [{k: v["value"] for k, v in r["metrics"].items() if v["unit"] == "count"}
              for r in runs]
    assert counts[0] == counts[1]
    assert runs[0]["metrics"]["trace.accounted_share"]["value"] > 0.9

    # The spans written out give the same cli self time as the metric.
    spans = np.load(BENCH / "results" / f"spans-{workload}-5.npz")
    child = dict.fromkeys(spans["id"].tolist(), 0.0)
    for parent, start, end in zip(spans["parent"], spans["start"], spans["end"]):
        if parent >= 0:
            child[parent] += end - start
    names = spans["names"][spans["name"]]
    ops = len(set(spans["op"].tolist()))
    cli_self = sum(end - start - child[i] for i, name, start, end in
                   zip(spans["id"], names, spans["start"], spans["end"]) if name == "cli.main")
    assert cli_self / ops == pytest.approx(runs[1]["metrics"]["cli.self_s"]["value"], rel=1e-9)


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    done = _bench("--workload", "platforms", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_float_reference_agrees_with_bell_oracle():
    assert oracle.self_check() == []


# --- the checks against corrupted outputs ---------------------------------------


def _run(op):
    for argv in op.calls:
        assert cli.main(argv) == 0
    return [path.read_text(encoding="utf-8") for path in op.outputs]


def _set(text: str, row: int, column: int, value) -> str:
    lines = text.splitlines()
    fields = lines[row + 1].split(",")
    fields[column] = value if isinstance(value, str) else repr(value)
    lines[row + 1] = ",".join(fields)
    return "\n".join(lines) + "\n"


def _get(text: str, row: int, column: int) -> str:
    return text.splitlines()[row + 1].split(",")[column]


def _scale(text, row, column, factor):
    return _set(text, row, column, float(_get(text, row, column)) * factor)


def _named(problems, name):
    return any(p.startswith(name) for p in problems)


@pytest.fixture(scope="module")
def platform_output(tmp_path_factory):
    workload = workloads.Platforms(3, tmp_path_factory.mktemp("platforms"))
    op = workload.round(1)[4]
    return op.meta["platform"], _run(op)[0]


PLATFORM_CORRUPTIONS = [
    ("platforms/ft_star", lambda t: _scale(t, 0, 3, 1.0 + 1e-9)),
    ("platforms/lambda_tilde", lambda t: _scale(t, 0, 4, 1.0 + 1e-5)),
    ("platforms/lambda_recursive", lambda t: _scale(t, 0, 5, 1.0 + 1e-8)),
    ("platforms/d_star", lambda t: _scale(t, 0, 6, 1.0 + 1e-6)),
    ("platforms/feasible", lambda t: _set(t, 0, 7, "false")),
    ("platforms/format", lambda t: t.replace("lambda_tilde", "lambda_t")),
]


def test_platform_output_passes(platform_output):
    platform, text = platform_output
    assert checks.platform_row(platform, text) == []


@pytest.mark.parametrize("name,corrupt", PLATFORM_CORRUPTIONS,
                         ids=[c[0] for c in PLATFORM_CORRUPTIONS])
def test_platform_check_rejects(platform_output, name, corrupt):
    platform, text = platform_output
    assert _named(checks.platform_row(platform, corrupt(text)), name)


def test_platform_residual_check_rejects(platform_output):
    # x = swap_after_decay(d_star) moves off the fixed point with d_star
    platform, text = platform_output
    problems = checks.platform_row(platform, _scale(text, 0, 6, 1.0 + 1e-3))
    assert any("fixed-point residual" in p for p in problems)


@pytest.fixture(scope="module")
def sweep_output(tmp_path_factory):
    workload = workloads.Sweep(3, tmp_path_factory.mktemp("sweep"))
    op = workload.round(0)[0]
    return op.meta["grid"], dict(zip(checks.SWEEP_QUANTITIES, _run(op)))


def _cell(texts, quantity, feasible=True, above=None):
    """Index of a cell of ``quantity`` with the given feasibility."""
    lines = texts[quantity].splitlines()[1:]
    for i, line in enumerate(lines):
        r, g, _, f = line.split(",")
        if (f == "true") == feasible and (above is None or float(g) > above):
            return i
    raise AssertionError("no such cell")


def _corrupt_sweep(texts, quantity, edit):
    out = dict(texts)
    out[quantity] = edit(texts[quantity])
    return out


SWEEP_CORRUPTIONS = [
    ("sweep/grid", "lambda", lambda t, i: "\n".join(t.splitlines()[:-1]) + "\n"),
    ("sweep/grid", "dstar", lambda t, i: _set(t, 1, 1, _get(t, 0, 1))),
    ("sweep/lambda-tilde floor", "lambda-tilde", lambda t, i: _set(t, i, 2, 2.5)),
    ("sweep/lambda-tilde closed form", "lambda-tilde", lambda t, i: _scale(t, i, 2, 1 + 1e-5)),
    ("sweep/lambda trace", "lambda", lambda t, i: _scale(t, i, 2, 1 + 1e-8)),
    ("sweep/lambda trace", "lambda", lambda t, i: _set(_set(t, i, 2, ""), i, 3, "false")),
    ("sweep/ft-star", "ft-star", lambda t, i: _scale(t, i, 2, 1 + 1e-9)),
    ("sweep/dstar", "dstar", lambda t, i: _scale(t, i, 2, 1 + 1e-6)),
]


def test_sweep_output_passes(sweep_output):
    grid, texts = sweep_output
    assert checks.sweep_panel(grid, texts) == []


@pytest.mark.parametrize("name,quantity,corrupt", SWEEP_CORRUPTIONS,
                         ids=[f"{c[0]}-{n}" for n, c in enumerate(SWEEP_CORRUPTIONS)])
def test_sweep_check_rejects(sweep_output, name, quantity, corrupt):
    grid, texts = sweep_output
    index = _cell(texts, quantity)
    assert _named(checks.sweep_panel(grid, _corrupt_sweep(texts, quantity,
                                                          lambda t: corrupt(t, index))), name)


def test_sweep_threshold_check_rejects(sweep_output):
    grid, texts = sweep_output
    threshold = oracle.gate_threshold(grid["eps_r"][1])
    index = _cell(texts, "lambda-tilde", feasible=False, above=threshold + 1e-3)
    corrupt = _corrupt_sweep(texts, "lambda-tilde",
                             lambda t: _set(_set(t, index, 2, 5.0), index, 3, "true"))
    assert _named(checks.sweep_panel(grid, corrupt), "sweep/threshold")


@pytest.fixture(scope="module")
def simulate_output(tmp_path_factory):
    workload = workloads.Simulate(3, tmp_path_factory.mktemp("simulate"))
    return workload, _run(workload.round(0)[0])


def _shift_histogram(texts):
    """Scale every consumed count by 1.5 and keep mean_consumed consistent."""
    hist = texts[1].splitlines()
    rows = [(int(c) * 3 // 2, int(k)) for c, k in (line.split(",") for line in hist[1:])]
    mean = sum(c * k for c, k in rows) / sum(k for _, k in rows)
    out = list(texts)
    out[1] = "\n".join([hist[0]] + [f"{c},{k}" for c, k in rows]) + "\n"
    out[0] = _set(texts[0], 0, 5, mean)
    return out


SIMULATE_CORRUPTIONS = [
    ("simulate/aborts", lambda t: [_set(_set(t[0], 0, 4, "1"), 0, 3, "999")] + t[1:]),
    ("simulate/histogram", lambda t: t[:1] + [_set(t[1], 0, 1, str(int(_get(t[1], 0, 1)) + 1))]
     + t[2:]),
    ("simulate/histogram", lambda t: [_scale(t[0], 0, 5, 1.001)] + t[1:]),
    ("simulate/pooled mean", _shift_histogram),
    ("simulate/format", lambda t: [t[0].replace("levels", "level")] + t[1:]),
]


def test_simulate_output_passes(simulate_output):
    workload, texts = simulate_output
    assert checks.simulate_runs(workload.CONFIGS, workload.TRIALS, [texts]) == []


@pytest.mark.parametrize("name,corrupt", SIMULATE_CORRUPTIONS,
                         ids=[f"{c[0]}-{n}" for n, c in enumerate(SIMULATE_CORRUPTIONS)])
def test_simulate_check_rejects(simulate_output, name, corrupt):
    workload, texts = simulate_output
    assert _named(checks.simulate_runs(workload.CONFIGS, workload.TRIALS, [corrupt(texts)]),
                  name)


def test_repeated_inputs_and_reruns_are_rejected(simulate_output):
    workload, texts = simulate_output
    assert _named(checks.simulate_runs(workload.CONFIGS, workload.TRIALS, [texts, texts]),
                  "simulate/distinct inputs")
    assert checks.identical("simulate", texts, list(texts)) == []
    assert _named(checks.identical("simulate", texts, [texts[0] + " "] + texts[1:]),
                  "simulate/rerun")
