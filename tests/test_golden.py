"""Golden outputs of the CLI: every byte a fixed list of commands writes.

Each case runs ``cli.main`` in process and records its exit code, stdout,
stderr, warnings, and the bytes of any ``--out`` or ``--hist-out`` file in
``tests/golden/<name>.txt``.  A case listed in ``DATASETS`` first writes its
dataset to the file that ``{data}`` names; the dataset is recorded too.  The
test compares those bytes exactly.

Regenerate after a deliberate change of the output contract with

    PYTHONPATH=src python tests/test_golden.py          # report only
    PYTHONPATH=src python tests/test_golden.py --write  # report and rewrite

The report names every file that would change, the largest relative
difference in each numeric column and every flipped ``feasible`` flag.
"""

import contextlib
import io
import math
import sys
import tempfile
import warnings
from pathlib import Path

from repeater_scaling import cli, platforms, recursive

GOLDEN_DIR = Path(__file__).with_name("golden")

SIV = ["--eps-g", "5e-4", "--eps-r", "1e-4"]
# From eps_g = 0 across the gate-error threshold (about 0.029 at eps_r = 0).
GRID_ZERO = ["--eps-r", "0:0.02:10", "--eps-g", "0:0.04:10"]
# Across the threshold for several read-out errors.
GRID_THRESHOLD = ["--eps-r", "0:0.012:6", "--eps-g", "0.022:0.031:12"]
# A small grid around the threshold.
GRID_NEAR = ["--eps-r", "0.001:0.005:4", "--eps-g", "0.025:0.029:6"]
DSTAR_BUDGET = ["--rate", "10", "--t2", "1"]

# Platform datasets of the cases that read one, by case name.
DATASETS = {
    "usage-platforms-nan-t2": '[{"name": "X", "eps_g": 5e-4, "eps_r": 1e-4, "rate_hz": 1.0, '
                              '"t2_s": NaN}]\n',
}


def _cases() -> dict[str, list[str]]:
    cases = {
        "platforms": ["platforms"],
        "platforms-strict": ["platforms", "--strict"],
        "platforms-out": ["platforms", "--out", "{out}"],
    }
    grids = {"zero": GRID_ZERO, "threshold": GRID_THRESHOLD, "near": GRID_NEAR}
    for quantity in ("lambda", "lambda-tilde", "ft-star", "dstar"):
        extra = DSTAR_BUDGET if quantity == "dstar" else []
        for grid_name, grid in grids.items():
            argv = ["sweep", "--quantity", quantity, *grid, *extra]
            cases[f"sweep-{quantity}-{grid_name}"] = argv
            cases[f"sweep-{quantity}-{grid_name}-clamp"] = argv + ["--clamp"]
    for method in ("recursive", "analytic", "closed-form"):
        argv = ["lambda", *SIV, "--method", method]
        cases[f"lambda-{method}"] = argv
        cases[f"lambda-{method}-ceiling"] = argv + ["--ceiling", "--ps", "0.8"]
        cases[f"lambda-{method}-moderate"] = ["lambda", "--eps-g", "0.01", "--eps-r", "0.005",
                                             "--method", method]
        cases[f"lambda-{method}-infeasible"] = ["lambda", "--eps-g", "0.05", "--eps-r", "0.05",
                                               "--method", method, "--strict"]
    # A swap-tied window about 6e-9 wide just below F = 1.
    cases["lambda-closed-form-narrow"] = ["lambda", "--eps-g", "0", "--eps-r", "0",
                                          "--ft", "0.9999999938908686",
                                          "--method", "closed-form"]
    siv_dstar = ["dstar", "--rate", "1", "--t2", "2.1", *SIV]
    cases["dstar"] = siv_dstar
    cases["dstar-lambda"] = siv_dstar + ["--lambda", "4.06"]
    cases["dstar-floor"] = siv_dstar + ["--floor"]
    cases["dstar-moderate"] = ["dstar", *DSTAR_BUDGET, "--eps-g", "0.01", "--eps-r", "0.005"]
    cases["dstar-moderate-lambda-floor"] = cases["dstar-moderate"] + ["--lambda", "7.5",
                                                                      "--floor"]
    cases["dstar-infeasible"] = ["dstar", *DSTAR_BUDGET, "--eps-g", "0.05", "--eps-r", "0.05"]
    cases["dstar-infeasible-strict"] = cases["dstar-infeasible"] + ["--strict"]
    cases["dstar-below-one-link"] = ["dstar", "--rate", "1e-6", "--t2", "1e-6", *SIV,
                                     "--lambda", "4"]
    # Fixed points exist, but the target does not survive the swap.
    cases["dstar-swap-limit"] = ["dstar", *DSTAR_BUDGET, "--eps-g", "0.015", "--eps-r", "0.04",
                                 "--lambda", "5"]
    cases["purify-curve"] = ["purify-curve", "--eps-g", "0.01", "--eps-r", "0.01"]
    cases["purify-curve-out"] = ["purify-curve", "--eps-g", "0.002", "--eps-r", "0.004",
                                 "--iterations", "2", "--points", "9", "--out", "{out}"]
    cases["fstar"] = ["fstar", "--eps-g", "0.005"]
    cases["fstar-full"] = ["fstar", "--eps-g", "0.005", "--full", "--eps-r", "0.001"]
    for levels in (1, 2, 3):
        cases[f"simulate-L{levels}"] = [
            "simulate", "--levels", str(levels), "--eps-g", "0.01", "--eps-r", "0.01",
            "--trials", "200", "--seed", "7", "--hist-out", "{hist}",
        ]
    # Past the first block of mc.BLOCK = 4096 trials: pins the key of block 1.
    cases["simulate-L1-blocks"] = [
        "simulate", "--levels", "1", "--eps-g", "0.01", "--eps-r", "0.01",
        "--trials", "4100", "--seed", "7", "--hist-out", "{hist}",
    ]
    cases["usage-missing-argument"] = ["lambda", "--eps-g", "0.01"]
    cases["usage-dstar-bad-rate"] = ["dstar", "--rate", "0", "--t2", "1", *SIV]
    cases["usage-purify-curve-points"] = ["purify-curve", *SIV, "--points", "1"]
    # Non-finite budgets are argument errors, not rows of nan.
    cases["usage-platforms-nan-t2"] = ["platforms", "--data", "{data}"]
    cases["usage-dstar-nan-lambda"] = siv_dstar + ["--lambda", "nan"]
    cases["usage-sweep-dstar-nan-t2"] = ["sweep", "--quantity", "dstar", *GRID_NEAR,
                                         "--rate", "10", "--t2", "nan"]
    # Out-of-range arguments are argument errors, not rows: ps and ft in (0, 1],
    # eps_g in [0, 1).
    cases["usage-lambda-ps-above-one"] = ["lambda", *SIV, "--ps", "2"]
    cases["usage-lambda-nan-ps"] = ["lambda", *SIV, "--ps", "nan"]
    cases["usage-lambda-nan-ft"] = ["lambda", *SIV, "--ft", "nan"]
    cases["usage-simulate-nan-ft"] = cases["simulate-L1"][:-2] + ["--ft", "nan"]
    cases["usage-fstar-nan-eps-g"] = ["fstar", "--eps-g", "nan"]
    return cases


CASES = _cases()


def render(argv: list[str], dataset: str | None = None) -> str:
    """Run one case in process and render everything it emitted as text.

    File paths in the output read as their placeholders, e.g. ``{data}``.
    """
    with tempfile.TemporaryDirectory() as tmp:
        files = {"out": Path(tmp, "out.csv"), "hist": Path(tmp, "hist.csv"),
                 "data": Path(tmp, "data.json")}
        if dataset is not None:
            files["data"].write_text(dataset, encoding="utf-8")
        args = [a.format(**files) for a in argv]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(args)
        sections = {
            "stdout": stdout.getvalue(),
            "stderr": stderr.getvalue(),
            "warnings": "".join(f"{w.category.__name__}: {w.message}\n" for w in caught),
        }
        for name, path in files.items():
            sections = {k: v.replace(str(path), f"{{{name}}}") for k, v in sections.items()}
        for name, path in files.items():
            if path.exists():
                sections[name] = path.read_text(encoding="utf-8")
    text = f"argv: {' '.join(argv)}\nexit: {code}\n"
    for name, body in sections.items():
        text += f"--- {name} ---\n{body}"
    return text


def test_every_case_reproduces_its_golden_bytes():
    assert sorted(p.stem for p in GOLDEN_DIR.glob("*.txt")) == sorted(CASES)
    changed = {}
    for name, argv in CASES.items():
        expected = (GOLDEN_DIR / f"{name}.txt").read_text(encoding="utf-8")
        got = render(argv, DATASETS.get(name))
        if got != expected:
            changed[name] = describe_change(expected, got)
    assert not changed, changed


def test_platforms_table_does_not_run_the_target_scan(monkeypatch):
    # The table prints the closed-form-target columns only; the trace-optimal
    # twins of each row are computed on first read, which the CLI never does.
    def scan(*args, **kwargs):
        raise AssertionError("platforms ran the trace-optimal target scan")

    for module in (cli, platforms, recursive):
        monkeypatch.setattr(module, "optimal_recursive_exponent", scan)
    monkeypatch.delenv(cli.PLATFORMS_ENV, raising=False)
    expected = (GOLDEN_DIR / "platforms.txt").read_text(encoding="utf-8")
    assert render(CASES["platforms"]) == expected


def test_change_report_names_drift_and_flips():
    old = "exit: 0\n--- stdout ---\nx,value,feasible\n1.0,2.0,true\n3.0,4.0,true\n"
    new = "exit: 0\n--- stdout ---\nx,value,feasible\n1.0,2.0000002,true\n3.0,,false\n"
    notes = describe_change(old, new)
    assert "stdout row 2 value: '4.0' -> ''" in notes
    assert "stdout row 2 feasible: 'true' -> 'false'" in notes
    assert "stdout value: max relative difference 1e-07" in notes
    assert describe_change(old, old.replace("exit: 0", "exit: 2")) == [
        "head: ['exit: 0'] -> ['exit: 2']"
    ]


# --- regeneration report -------------------------------------------------------


def _sections(text: str) -> dict[str, list[str]]:
    sections: dict[str, list[str]] = {}
    current = sections.setdefault("head", [])
    for line in text.splitlines():
        if line.startswith("--- ") and line.endswith(" ---"):
            current = sections.setdefault(line[4:-4], [])
        else:
            current.append(line)
    return sections


def _float(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


def _relative(old: float, new: float) -> float:
    if old == new or (math.isnan(old) and math.isnan(new)):
        return 0.0
    if not (math.isfinite(old) and math.isfinite(new)):
        return math.inf
    return abs(new - old) / max(abs(old), abs(new))


def describe_change(old: str, new: str) -> list[str]:
    """Per-column drift and flipped ``feasible`` flags between two renderings."""
    notes = []
    old_sections, new_sections = _sections(old), _sections(new)
    for name in sorted(set(old_sections) | set(new_sections)):
        a, b = old_sections.get(name, []), new_sections.get(name, [])
        if a == b:
            continue
        csv_like = a and b and a[0] == b[0] and "," in a[0] and len(a) == len(b)
        if not csv_like:
            notes.append(f"{name}: {a!r} -> {b!r}")
            continue
        header = a[0].split(",")
        drift: dict[str, float] = {}
        for row, (line_a, line_b) in enumerate(zip(a[1:], b[1:]), start=1):
            for col, x, y in zip(header, line_a.split(","), line_b.split(",")):
                if x == y:
                    continue
                fx, fy = _float(x), _float(y)
                if col == "feasible" or fx is None or fy is None:
                    notes.append(f"{name} row {row} {col}: {x!r} -> {y!r}")
                else:
                    drift[col] = max(drift.get(col, 0.0), _relative(fx, fy))
        notes += [f"{name} {col}: max relative difference {d:.3g}" for col, d in drift.items()]
    return notes


def main(argv: list[str]) -> int:
    write = "--write" in argv
    GOLDEN_DIR.mkdir(exist_ok=True)
    changed = 0
    for name in sorted(CASES):
        path = GOLDEN_DIR / f"{name}.txt"
        new = render(CASES[name], DATASETS.get(name))
        old = path.read_text(encoding="utf-8") if path.exists() else None
        if old == new:
            continue
        changed += 1
        if old is None:
            print(f"{path.name}: new")
        else:
            print(f"{path.name}:")
            for note in describe_change(old, new):
                print(f"  {note}")
        if write:
            path.write_text(new, encoding="utf-8")
    stray = sorted(p.name for p in GOLDEN_DIR.glob("*.txt") if p.stem not in CASES)
    for name in stray:
        print(f"{name}: no longer a case; delete it")
    print(f"{changed} of {len(CASES)} files {'rewritten' if write else 'would change'}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
