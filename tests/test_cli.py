import json
import os
import subprocess
import sys

import pytest

import repeater_scaling
from repeater_scaling import platforms
from repeater_scaling.cli import EXIT_INFEASIBLE, EXIT_OK, EXIT_USAGE, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


class TestLambdaCommand:
    def test_analytic_reference_row(self, capsys):
        code, out, _ = run_cli(
            capsys, "lambda", "--eps-g", "5e-4", "--eps-r", "1e-4",
            "--ft", "auto", "--method", "analytic",
        )
        assert code == EXIT_OK
        header, rows = parse_csv(out)
        assert header == ["eps_g", "eps_r", "ft", "f0", "method", "steps",
                          "pairs_per_level", "lambda", "feasible"]
        row = rows[0]
        assert row["feasible"] == "true"
        assert abs(float(row["lambda"]) - 3.49) <= 0.05

    def test_methods_agree(self, capsys):
        results = {}
        for method in ("analytic", "closed-form"):
            _, out, _ = run_cli(
                capsys, "lambda", "--eps-g", "1e-3", "--eps-r", "1e-3",
                "--method", method,
            )
            _, rows = parse_csv(out)
            results[method] = float(rows[0]["lambda"])
        assert results["analytic"] == pytest.approx(results["closed-form"], rel=1e-7)

    def test_explicit_target(self, capsys):
        code, out, _ = run_cli(
            capsys, "lambda", "--eps-g", "1e-3", "--eps-r", "1e-3",
            "--ft", "0.9", "--method", "recursive",
        )
        assert code == EXIT_OK
        _, rows = parse_csv(out)
        assert rows[0]["method"] == "recursive"
        assert float(rows[0]["ft"]) == 0.9

    def test_ceiling_flag(self, capsys):
        values = {}
        for flags in ((), ("--ceiling",)):
            _, out, _ = run_cli(
                capsys, "lambda", "--eps-g", "1e-3", "--eps-r", "1e-3", *flags
            )
            _, rows = parse_csv(out)
            values[bool(flags)] = float(rows[0]["steps"])
        assert values[True] == float(int(values[True]))
        assert values[True] >= values[False]

    def test_strict_infeasible_exit_code(self, capsys):
        code, out, _ = run_cli(
            capsys, "lambda", "--eps-g", "0.05", "--eps-r", "0.05", "--strict"
        )
        assert code == EXIT_INFEASIBLE
        _, rows = parse_csv(out)
        assert rows[0]["feasible"] == "false"
        assert rows[0]["lambda"] == ""

    def test_without_strict_infeasible_is_in_band(self, capsys):
        code, _, _ = run_cli(capsys, "lambda", "--eps-g", "0.05", "--eps-r", "0.05")
        assert code == EXIT_OK


class TestSweepCommand:
    def test_grid_size_and_flags(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--quantity", "lambda-tilde",
            "--eps-r", "0:0.05:6", "--eps-g", "0:0.05:6",
        )
        assert code == EXIT_OK
        header, rows = parse_csv(out)
        assert header == ["eps_r", "eps_g", "value", "feasible"]
        assert len(rows) == 36
        assert any(r["feasible"] == "false" and r["value"] == "" for r in rows)

    def test_clamp_rule(self, capsys):
        _, out, _ = run_cli(
            capsys, "sweep", "--quantity", "lambda-tilde",
            "--eps-r", "0:0.05:6", "--eps-g", "0:0.05:6", "--clamp",
        )
        _, rows = parse_csv(out)
        for row in rows:
            value = float(row["value"])
            assert 0.0 <= value <= 20.0
            if row["feasible"] == "false":
                assert value == 0.0

    def test_bad_range_is_usage_error(self, capsys):
        code, _, _ = run_cli(
            capsys, "sweep", "--quantity", "lambda-tilde",
            "--eps-r", "0:0.05", "--eps-g", "0:0.05:6",
        )
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("quantity, target", [
        ("lambda", "resource_exponent"),
        ("lambda-tilde", "window_exponent"),
    ])
    def test_value_error_in_a_cell_is_not_infeasibility(self, capsys, monkeypatch,
                                                        quantity, target):
        def broken(*args, **kwargs):
            raise ValueError("programming error")

        monkeypatch.setattr(platforms, target, broken)
        code, out, err = run_cli(
            capsys, "sweep", "--quantity", quantity,
            "--eps-r", "0:0.01:2", "--eps-g", "0.005:0.01:2",
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert "programming error" in err


class TestFstarCommand:
    def test_zero_error(self, capsys):
        code, out, _ = run_cli(capsys, "fstar", "--eps-g", "0")
        assert code == EXIT_OK
        _, rows = parse_csv(out)
        assert float(rows[0]["ft_star"]) == 1.0
        assert rows[0]["eps_r"] == ""

    def test_full_form(self, capsys):
        code, out, _ = run_cli(
            capsys, "fstar", "--eps-g", "1e-3", "--full", "--eps-r", "1e-3"
        )
        assert code == EXIT_OK
        _, rows = parse_csv(out)
        assert 0.9 < float(rows[0]["ft_star"]) < 1.0

    def test_full_without_readout_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "fstar", "--eps-g", "1e-3", "--full")
        assert code == EXIT_USAGE
        assert "eps-r" in err


class TestPlatformsCommand:
    def test_default_dataset_table(self, capsys):
        code, out, _ = run_cli(capsys, "platforms")
        assert code == EXIT_OK
        header, rows = parse_csv(out)
        assert header == ["name", "eps_g", "eps_r", "ft_star", "lambda_tilde",
                          "lambda_recursive", "d_star", "feasible"]
        assert [r["name"] for r in rows] == [
            "Superconducting", "SiV centers", "NV centers", "Trapped ions",
            "Neutral atoms",
        ]
        assert all(r["feasible"] == "true" for r in rows)

    def test_env_var_dataset(self, capsys, tmp_path, monkeypatch):
        data = [{"name": "Toy", "eps_g": 1e-3, "eps_r": 1e-3,
                 "rate_hz": 10.0, "t2_s": 1.0, "note": ""}]
        path = tmp_path / "toy.json"
        path.write_text(json.dumps(data))
        monkeypatch.setenv("REPEATER_PLATFORMS", str(path))
        code, out, _ = run_cli(capsys, "platforms")
        assert code == EXIT_OK
        _, rows = parse_csv(out)
        assert len(rows) == 1 and rows[0]["name"] == "Toy"

    def test_missing_dataset_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "platforms", "--data", "/nonexistent/x.json")
        assert code == EXIT_USAGE
        assert "error" in err


class TestDstarCommand:
    def test_explicit_exponent(self, capsys):
        code, out, _ = run_cli(
            capsys, "dstar", "--rate", "1", "--t2", "2.1",
            "--eps-g", "5e-4", "--eps-r", "1e-4", "--lambda", "4.06",
        )
        assert code == EXIT_OK
        _, rows = parse_csv(out)
        assert abs(float(rows[0]["d_star"]) - 1.06) <= 0.05

    def test_default_exponent_is_recursive_optimum(self, capsys):
        code, out, _ = run_cli(
            capsys, "dstar", "--rate", "250", "--t2", "0.14",
            "--eps-g", "5e-4", "--eps-r", "1e-6",
        )
        assert code == EXIT_OK
        _, rows = parse_csv(out)
        assert abs(float(rows[0]["d_star"]) - 2.14) <= 0.05

    def test_strict_infeasible(self, capsys):
        code, out, _ = run_cli(
            capsys, "dstar", "--rate", "1", "--t2", "1",
            "--eps-g", "0.05", "--eps-r", "0.05", "--strict",
        )
        assert code == EXIT_INFEASIBLE
        _, rows = parse_csv(out)
        assert rows[0]["feasible"] == "false"

    @pytest.mark.parametrize("eps_g,eps_r", [("0", "0"), ("0.028", "0.001"), ("0.05", "0.05")])
    def test_domain_failures_are_infeasible(self, capsys, eps_g, eps_r):
        argv = ("dstar", "--rate", "10", "--t2", "1", "--eps-g", eps_g, "--eps-r", eps_r)
        code, out, _ = run_cli(capsys, *argv)
        assert code == EXIT_OK
        assert parse_csv(out)[1][0]["feasible"] == "false"
        assert run_cli(capsys, *argv, "--strict")[0] == EXIT_INFEASIBLE

    @pytest.mark.parametrize("bad", [("--rate", "-1", "--t2", "1"), ("--rate", "1", "--t2", "0"),
                                     ("--rate", "1", "--t2", "1", "--lambda", "0.5")])
    def test_bad_inputs_are_usage_errors(self, capsys, bad):
        # Also where the errors leave no fixed points: arguments come first.
        for eps_g, eps_r in (("5e-4", "1e-4"), ("0.05", "0.05")):
            code, out, err = run_cli(capsys, "dstar", *bad, "--eps-g", eps_g, "--eps-r", eps_r)
            assert code == EXIT_USAGE
            assert out == "" and err.startswith("error:")


class TestSimulateCommand:
    ARGS = ("simulate", "--levels", "1", "--eps-g", "0.01", "--eps-r", "0.01",
            "--trials", "200", "--seed", "11")

    def test_summary_row(self, capsys):
        code, out, _ = run_cli(capsys, *self.ARGS)
        assert code == EXIT_OK
        header, rows = parse_csv(out)
        assert header == ["levels", "trials", "seed", "completed", "aborted",
                          "mean_consumed", "std_error", "analytic_total"]
        row = rows[0]
        assert row["completed"] == "200" and row["aborted"] == "0"
        mean = float(row["mean_consumed"])
        expected = float(row["analytic_total"])
        assert abs(mean - expected) <= 5.0 * float(row["std_error"])

    def test_histogram_file(self, capsys, tmp_path):
        hist = tmp_path / "hist.csv"
        code, _, _ = run_cli(capsys, *self.ARGS, "--hist-out", str(hist))
        assert code == EXIT_OK
        lines = hist.read_text().strip().split("\n")
        assert lines[0] == "consumed_pairs,count"
        assert sum(int(line.split(",")[1]) for line in lines[1:]) == 200


class TestPurifyCurveCommand:
    def test_two_points_span_the_range(self, capsys):
        code, out, _ = run_cli(
            capsys, "purify-curve", "--eps-g", "0.01", "--eps-r", "0.01", "--points", "2",
        )
        assert code == EXIT_OK
        _, rows = parse_csv(out)
        assert [float(row["f"]) for row in rows] == [0.3, 1.0]

    @pytest.mark.parametrize("points", ["0", "1"])
    def test_fewer_than_two_points_is_usage_error(self, capsys, points):
        code, out, err = run_cli(
            capsys, "purify-curve", "--eps-g", "0.01", "--eps-r", "0.01", "--points", points,
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert "--points" in err


class TestDeterminismAndUsage:
    def test_byte_identical_reruns(self, capsys, tmp_path):
        outputs = []
        for _ in range(2):
            _, out, _ = run_cli(
                capsys, "sweep", "--quantity", "lambda-tilde",
                "--eps-r", "0:0.01:3", "--eps-g", "0:0.01:3",
            )
            outputs.append(out)
        assert outputs[0] == outputs[1]
        sims = []
        for run in range(2):
            hist = tmp_path / f"hist-{run}.csv"
            _, out, _ = run_cli(
                capsys, "simulate", "--levels", "1", "--eps-g", "0.01",
                "--eps-r", "0.01", "--trials", "100", "--seed", "5",
                "--hist-out", str(hist),
            )
            sims.append((out, hist.read_bytes()))
        assert sims[0] == sims[1]

    def test_unknown_flag_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "fstar", "--eps-g", "0", "--bogus")
        assert code == EXIT_USAGE

    def test_unknown_command_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "frobnicate")
        assert code == EXIT_USAGE

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "out.csv"
        code, out, _ = run_cli(capsys, "fstar", "--eps-g", "0", "--out", str(target))
        assert code == EXIT_OK
        assert out == ""
        assert target.read_text().startswith("eps_g,eps_r,ft_star")


class TestParserReuse:
    # Pairs where a flag or default leaking from the first call into the
    # second would change the second's output or exit code.
    SWEEP = ("sweep", "--quantity", "ft-star", "--eps-r", "0:0.01:2", "--eps-g", "0:0.04:3")
    LAMBDA = ("lambda", "--eps-g", "5e-4", "--eps-r", "1e-4")
    SEQUENCE = [
        SWEEP + ("--clamp", "--out", "{tmp}/clamped.csv"),
        SWEEP + ("--out", "{tmp}/plain.csv"),
        SWEEP,
        LAMBDA + ("--ceiling", "--strict"),
        LAMBDA,
        ("lambda", "--eps-g", "0.05", "--eps-r", "0.05", "--strict"),
        ("lambda", "--eps-g", "0.05", "--eps-r", "0.05"),
        ("sweep", "--quantity", "lambda", "--eps-r", "0:0.01", "--eps-g", "0:0.01:2"),
        ("sweep", "--quantity", "lambda", "--eps-r", "0:0.01:2", "--eps-g", "0:0.01:2"),
        ("--help",),
    ]

    def _run(self, capsys, tmp_path, order):
        results = {}
        for index in order:
            argv = [arg.format(tmp=tmp_path) for arg in self.SEQUENCE[index]]
            code, out, err = run_cli(capsys, *argv)
            files = {p.name: p.read_bytes() for p in sorted(tmp_path.iterdir())}
            for p in tmp_path.iterdir():
                p.unlink()
            results[index] = (code, out, err, files)
        return results

    def test_each_call_is_independent_of_the_calls_before_it(self, capsys, tmp_path):
        forward = self._run(capsys, tmp_path, range(len(self.SEQUENCE)))
        backward = self._run(capsys, tmp_path, reversed(range(len(self.SEQUENCE))))
        assert forward == backward
        codes = [forward[i][0] for i in range(len(self.SEQUENCE))]
        assert codes == [EXIT_OK] * 5 + [EXIT_INFEASIBLE, EXIT_OK, EXIT_USAGE, EXIT_OK, EXIT_OK]
        assert forward[0][3]["clamped.csv"] != forward[1][3]["plain.csv"]
        assert forward[1][3]["plain.csv"].decode() == forward[2][1]
        assert forward[3][1] != forward[4][1]
        assert forward[9][1].startswith("usage: repeater-scaling")


def test_only_simulate_loads_numpy_random():
    # Importing the package must load no more of numpy than `import numpy`
    # does; numpy.random comes in when a simulation draws its first number.
    # numpy is the only runtime dependency: scipy and mpmath stay unloaded.
    script = (
        "import sys, numpy\n"
        "before = 'numpy.random' in sys.modules\n"
        "import repeater_scaling.cli, repeater_scaling\n"
        "print(before, *(m in sys.modules for m in ('numpy.random', 'scipy', 'mpmath')))\n"
    )
    src = os.path.dirname(os.path.dirname(repeater_scaling.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.split() == ["False"] * 4
