"""End-to-end command-line behavior: exit codes, files, reproducibility."""

import csv
import json
import math
import subprocess
import sys

import numpy as np

from minact import cli, expr as ex
from minact.action import LagrangianTerms
from minact.cli import main
from minact.model import GrowthConstants, ModelSpec, builtin, save_model
from conftest import count_calls

TWO_PI = 2.0 * math.pi


def run_cli(argv):
    """Invoke the CLI in-process, normalizing argparse SystemExit to a code."""
    try:
        return main([str(a) for a in argv])
    except SystemExit as err:
        return err.code


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# check


def test_check_pass_exit_zero(tmp_path, capsys):
    """A model satisfying the hypotheses exits 0 and reports PASS."""
    code = run_cli(["check", "--builtin", "tube_ball", "--out", tmp_path])
    assert code == 0
    out = capsys.readouterr().out
    assert "hypotheses: PASS (margin = 0.25)" in out, out
    rep = read_json(tmp_path / "report.json")
    assert rep["overall"] is True
    assert rep["violated"] == []


def test_check_parity_failure_exit_two(tmp_path, capsys):
    """The cylinder counterexample exits 2 and names the broken condition."""
    code = run_cli(["check", "--builtin", "cylinder", "--out", tmp_path])
    assert code == 2
    out = capsys.readouterr().out
    assert "hypotheses: FAIL" in out
    assert "violated: condition 1 (parity): not even: V" in out, out
    rep = read_json(tmp_path / "report.json")
    assert rep["margin"] == 0.25


def test_check_margin_failure_exit_two(tmp_path, capsys):
    """The resonant oscillator exits 2 on the coercivity margin."""
    code = run_cli(["check", "--builtin", "forced_oscillator",
                    "--out", tmp_path])
    assert code == 2
    rep = read_json(tmp_path / "report.json")
    assert abs(rep["margin"] - (0.5 - math.pi ** 2)) < 1e-12
    assert rep["violated"] == [
        "condition 2 (coercivity margin): margin = -9.369604401089358 <= 0"]


def test_check_surface_slide_and_params(tmp_path):
    """Builtin parameters reach the model through --param."""
    assert run_cli(["check", "--builtin", "surface_slide",
                    "--out", tmp_path / "a"]) == 0
    assert run_cli(["check", "--builtin", "two_centers", "--param", "gamma=2",
                    "--samples", "50", "--box-radius", "3.0",
                    "--out", tmp_path / "b"]) == 0
    rep = read_json(tmp_path / "b" / "report.json")
    assert rep["margin"] == 0.5


# ---------------------------------------------------------------------------
# usage failures


def test_usage_errors_exit_one(tmp_path, capsys):
    """Bad invocations exit 1, never a traceback."""
    assert run_cli([]) == 1                       # missing subcommand
    assert run_cli(["frobnicate"]) == 1           # unknown subcommand
    assert run_cli(["check", "--builtin", "nope"]) == 1  # unknown model
    capsys.readouterr()
    # neither --builtin nor --model
    assert run_cli(["check", "--out", tmp_path]) == 1
    err = capsys.readouterr().err
    assert "error:" in err, err
    # both at once
    assert run_cli(["check", "--builtin", "tube_ball", "--model", "x.json",
                    "--out", tmp_path]) == 1
    # model file that does not exist
    assert run_cli(["solve", "--model", str(tmp_path / "missing.json"),
                    "--out", tmp_path]) == 1
    # mutually exclusive seed specifications
    assert run_cli(["solve", "--builtin", "two_centers", "--coils", 1,
                    "--seed-file", "s.json", "--out", tmp_path]) == 1
    # solve is deterministic: only check takes a sampler seed
    assert run_cli(["solve", "--builtin", "two_centers", "--rng-seed", 3,
                    "--out", tmp_path]) == 1


def test_malformed_input_files_exit_one(tmp_path, capsys):
    """Model and seed files of the wrong shape give an error line naming
    the problem, never a traceback."""
    model = tmp_path / "model.json"
    seed = tmp_path / "seed.json"
    cases = [
        (model, [], "JSON object"),
        (model, {"m": 2, "n": 0, "omega": 1.0, "metric": 5,
                 "potential": "0"}, "field 'metric'"),
        (seed, {"omega": TWO_PI, "nu": [], "coeffs": [[1.0, 0.0]]},
         "missing field 'N'"),
        (seed, {"omega": TWO_PI, "nu": [], "N": 1, "coeffs": [[1.0]]},
         "dimension 1"),
        (seed, {"omega": TWO_PI, "nu": [], "N": 1,
                "coeffs": [[0.0, 1.5, 0.0]]}, "dimension 3"),
    ]
    for path, data, message in cases:
        path.write_text(json.dumps(data))
        argv = (["check", "--model", path] if path == model else
                ["solve", "--builtin", "two_centers", "--modes", 1,
                 "--seed-file", path])
        assert run_cli(argv + ["--out", tmp_path / "out"]) == 1, data
        err = capsys.readouterr().err
        assert "error: " in err and message in err, err
        assert "Traceback" not in err, err


def test_non_finite_exponent_exits_one(tmp_path, capsys):
    """A potential z1^1e999 (an infinite exponent) is refused with an
    error line naming the number, never a traceback."""
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"m": 1, "n": 0, "omega": 1.0,
                                 "metric": [["1"]], "potential": "z1^1e999"}))
    assert run_cli(["check", "--model", model, "--out", tmp_path / "out"]) \
        == 1
    err = capsys.readouterr().err
    assert "error: " in err and "1e999" in err, err
    assert "Traceback" not in err, err


# ---------------------------------------------------------------------------
# solve


def test_solve_figure_eight_files(tmp_path, capsys):
    """A converged planar solve exits 0 and writes the three output files."""
    code = run_cli(["solve", "--builtin", "two_centers", "--coils", 1,
                    "--modes", 48, "--nodes", 512, "--out", tmp_path])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("status: Converged  S = 19.98175579"), out

    result = read_json(tmp_path / "result.json")
    assert sorted(result) == ["history", "report", "residual", "status",
                              "windings"]
    assert result["status"] == "Converged"
    assert result["windings"] == {"[1.0, 0.0]": -1, "[-1.0, 0.0]": 1}
    assert result["residual"]["el_sup"] < 1e-5
    assert abs(result["report"]["S"] - 19.981755794618) < 1e-6

    coeffs = read_json(tmp_path / "coeffs.json")
    assert sorted(coeffs) == ["N", "coeffs", "nu", "omega"]
    assert coeffs["N"] == 48 and coeffs["nu"] == []

    with open(tmp_path / "trajectory.csv", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "z1", "z2", "dz1", "dz2"]
    assert len(rows) == 1 + 512, f"expected 512 samples, got {len(rows) - 1}"


def test_omega_and_nu_override_builtin_and_model_file(tmp_path):
    """--omega and --nu set the period and the winding vector of a builtin
    and of a model file alike; coeffs.json records both."""
    save_model(builtin("tube_ball"), tmp_path / "tube.json")
    for name, source in (("builtin", ["--builtin", "tube_ball"]),
                         ("file", ["--model", tmp_path / "tube.json"])):
        code = run_cli(["solve", *source, "--omega", 0.75, "--nu", 2,
                        "--modes", 8, "--out", tmp_path / name])
        assert code in (0, 6), name
        coeffs = read_json(tmp_path / name / "coeffs.json")
        assert coeffs["omega"] == 0.75 and coeffs["nu"] == [2], name


def test_solve_diverged_exit_three(tmp_path, capsys):
    """An action unbounded below stops with Diverged and exits 3."""
    code = run_cli(["solve", "--builtin", "forced_oscillator", "--modes", 4,
                    "--out", tmp_path])
    assert code == 3
    assert "status: Diverged" in capsys.readouterr().out
    assert read_json(tmp_path / "result.json")["status"] == "Diverged"


def test_solve_residual_gate_exit_six(tmp_path):
    """Converged but above --residual-tol exits 6."""
    code = run_cli(["solve", "--builtin", "tube_ball", "--modes", 16,
                    "--grad-tol", "1e-10", "--residual-tol", "1e-15",
                    "--out", tmp_path])
    assert code == 6
    assert read_json(tmp_path / "result.json")["status"] == "Converged"


def test_solve_iteration_budget_exit_five(tmp_path):
    """Exhausting --max-iters exits 5."""
    code = run_cli(["solve", "--builtin", "two_centers", "--coils", 1,
                    "--modes", 8, "--max-iters", 2, "--out", tmp_path])
    assert code == 5
    assert read_json(tmp_path / "result.json")["status"] == "MaxIter"


def test_solve_class_stop_exit_four(tmp_path):
    """A loop pulled onto the singular set stops with exit 4."""
    model = ModelSpec(
        m=2, n=0, omega=TWO_PI, nu=(),
        metric=[[ex.parse("1", 2), ex.parse("0", 2)],
                [ex.parse("0", 2), ex.parse("1", 2)]],
        gyro=[ex.parse("0", 2), ex.parse("0", 2)],
        potential=ex.parse("0.01*(z1^2 + z2^2)", 2),
        constants=GrowthConstants(C=0, M=0, A=0.01, K=0.5, P=0, C1=0),
        sigma_base=((0.5, 0.0),))
    save_model(model, tmp_path / "shrink.json")
    code = run_cli(["solve", "--model", tmp_path / "shrink.json",
                    "--coils", 1, "--modes", 4, "--out", tmp_path])
    assert code == 4
    status = read_json(tmp_path / "result.json")["status"]
    assert status in ("GuardTriggered", "SignatureChanged"), status


def test_solve_reproducible_bytes(tmp_path):
    """Two identical solves write byte-identical outputs."""
    for sub in ("a", "b"):
        run_cli(["solve", "--builtin", "two_centers", "--coils", 1,
                 "--modes", 16, "--out", tmp_path / sub])
    for name in ("result.json", "coeffs.json", "trajectory.csv"):
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"


def test_solve_seed_file_round_trip(tmp_path):
    """Re-solving from a saved coefficient file lands on the same action."""
    first = tmp_path / "first"
    again = tmp_path / "again"
    assert run_cli(["solve", "--builtin", "tube_ball", "--modes", 16,
                    "--out", first]) == 0
    assert run_cli(["solve", "--builtin", "tube_ball", "--modes", 16,
                    "--seed-file", first / "coeffs.json", "--out", again]) == 0
    s1 = read_json(first / "result.json")["report"]["S"]
    s2 = read_json(again / "result.json")["report"]["S"]
    assert abs(s1 - s2) < 1e-10, f"S moved on reseed: {s1} vs {s2}"


def test_solve_history_file(tmp_path):
    """--history-file streams one JSON record per accepted iteration."""
    hist = tmp_path / "hist.jsonl"
    run_cli(["solve", "--builtin", "tube_ball", "--modes", 8,
             "--history-file", hist, "--out", tmp_path])
    lines = hist.read_text(encoding="utf-8").splitlines()
    assert len(lines) >= 2, "expected at least two history records"
    for line in lines:
        rec = json.loads(line)
        assert set(rec) == {"iter", "mu", "S_mu", "grad_norm",
                            "min_distance", "h1", "rejected"}, sorted(rec)


# ---------------------------------------------------------------------------
# sweep


def test_sweep_summary_csv(tmp_path, capsys, monkeypatch):
    """A sweep with converged rows exits 0 and tabulates per-period data;
    its periods share one compiled LagrangianTerms."""
    builds = count_calls(monkeypatch, LagrangianTerms, "__init__")
    code = run_cli(["sweep", "--builtin", "two_centers", "--coils", 1,
                    "--modes", 16, "--omegas",
                    f"{TWO_PI!r},{math.pi!r}", "--out", tmp_path])
    assert code == 0
    assert len(builds) == 1
    with open(tmp_path / "summary.csv", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["omega", "status", "S", "h1", "el_sup", "min_distance"]
    assert len(rows) == 3
    assert [r[1] for r in rows[1:]] == ["Converged", "Converged"]
    s_values = [float(r[2]) for r in rows[1:]]
    assert abs(s_values[0] - s_values[1]) > 1e-3, \
        f"periods produced the same action: {s_values}"
    assert all(float(r[5]) > 0.05 for r in rows[1:])
    assert "Converged" in capsys.readouterr().out


def test_sweep_noncoercive_skipped_exit_three(tmp_path):
    """Periods with nonpositive margin are skipped; none converged means 3."""
    code = run_cli(["sweep", "--builtin", "forced_oscillator", "--modes", 4,
                    "--omegas", f"{TWO_PI!r}", "--out", tmp_path])
    assert code == 3
    with open(tmp_path / "summary.csv", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[1][1] == "skipped-noncoercive"
    assert rows[1][2:] == ["", "", "", ""]


# ---------------------------------------------------------------------------
# plotdata


def test_plotdata_planar(tmp_path):
    """Planar plot data carries projection and clearance columns."""
    run_cli(["solve", "--builtin", "two_centers", "--coils", 1,
             "--modes", 16, "--nodes", 64, "--out", tmp_path])
    code = run_cli(["plotdata", "--builtin", "two_centers",
                    "--traj", tmp_path / "trajectory.csv", "--out", tmp_path])
    assert code == 0
    with open(tmp_path / "plot.csv", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "px", "py", "dist_sigma"]
    assert len(rows) == 1 + 64
    with open(tmp_path / "trajectory.csv", encoding="utf-8") as fh:
        traj_rows = list(csv.reader(fh))
    for got, src in zip(rows[1:], traj_rows[1:]):
        assert got[0] == src[0] and got[1] == src[1] and got[2] == src[2]
        assert float(got[3]) > 0.05, f"clearance column corrupt: {got}"


def test_plotdata_angle_wrapping(tmp_path):
    """Angle columns report the representative in [0, 2pi) plus wrap count."""
    traj = tmp_path / "trajectory.csv"
    traj.write_text("t,z1,z2,dz1,dz2\n"
                    "0.0,0.25,7.0,0.0,0.0\n"
                    "0.5,0.0,-1.0,0.0,0.0\n", encoding="utf-8")
    code = run_cli(["plotdata", "--builtin", "tube_ball", "--traj", traj,
                    "--out", tmp_path])
    assert code == 0
    with open(tmp_path / "plot.csv", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "px", "py", "dist_sigma",
                       "phi1_mod", "phi1_wrap"]
    assert abs(float(rows[1][4]) - (7.0 - TWO_PI)) < 1e-12
    assert rows[1][5] == "1"
    assert abs(float(rows[2][4]) - (TWO_PI - 1.0)) < 1e-12
    assert rows[2][5] == "-1"
    assert float(rows[1][3]) == math.inf  # no singular set on this model


def test_plotdata_empty_and_malformed(tmp_path):
    """An empty trajectory gives a header-only file; bad headers exit 1."""
    empty = tmp_path / "empty.csv"
    empty.write_text("t,z1,z2,dz1,dz2\n", encoding="utf-8")
    assert run_cli(["plotdata", "--builtin", "two_centers", "--traj", empty,
                    "--out", tmp_path]) == 0
    content = (tmp_path / "plot.csv").read_text(encoding="utf-8")
    assert content == "t,px,py,dist_sigma\n"

    bad = tmp_path / "bad.csv"
    bad.write_text("time,x,y\n0,1,2\n", encoding="utf-8")
    assert run_cli(["plotdata", "--builtin", "two_centers", "--traj", bad,
                    "--out", tmp_path]) == 1


def test_parser_is_built_once_and_keeps_no_arguments(tmp_path, monkeypatch):
    """Consecutive main calls share one parser, and the second call's
    namespace carries nothing of the first call's --param."""
    seen = []

    def record(args):
        seen.append(args)
        raise ValueError("stop after parsing")

    cli._parser.cache_clear()
    monkeypatch.setattr(cli, "_model_from_args", record)
    assert run_cli(["solve", "--builtin", "two_centers", "--param",
                    "r0=0,1", "--coils", 1, "--out", tmp_path]) == 1
    assert run_cli(["solve", "--builtin", "two_centers", "--coils", 1,
                    "--out", tmp_path]) == 1
    assert cli._parser.cache_info().misses == 1
    assert seen[0].param == ["r0=0,1"] and seen[1].param is None


# ---------------------------------------------------------------------------
# module entry point


def test_module_entry_point(tmp_path):
    """python -m minact.cli works as a standalone tool."""
    proc = subprocess.run(
        [sys.executable, "-m", "minact.cli", "check", "--builtin",
         "tube_ball", "--out", str(tmp_path)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "hypotheses: PASS" in proc.stdout
