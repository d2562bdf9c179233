"""End-to-end tests for the command line interface."""

import json
import math
import os
import subprocess
import sys

import pytest

import tristab

from tristab import cli, verify
from tristab.cli import main
from tristab.errors import UnsupportedRegime


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_ff(capsys):
    code, out, _ = run_cli(capsys, "classify", "--p", "2", "--q", "3",
                           "--r", "4", "--s1", "+1", "--s3", "+1",
                           "--no-timing")
    assert code == 0
    lines = out.strip().splitlines()
    fields = dict(ln.split(": ", 1) for ln in lines)
    assert fields["case"] == "FF"
    assert math.isclose(float(fields["a_sharp"]), 5.0 / 9.0, rel_tol=1e-12)
    assert math.isclose(float(fields["gamma_1"]), 4.0 / math.sqrt(5.0),
                        rel_tol=1e-12)
    assert math.isclose(float(fields["omega_ne(a_sharp)"]),
                        2.0 * math.sqrt(5.0) / 27.0, rel_tol=1e-12)


def test_classify_df_empty_curve(capsys):
    code, out, _ = run_cli(capsys, "classify", "--p", "3", "--q", "5",
                           "--r", "7", "--s1", "d", "--s3", "f",
                           "--no-timing")
    assert code == 0
    assert "case: DF" in out
    assert "empty" in out
    assert "a_sharp" not in out


def test_sign_letter_aliases(capsys):
    code, out, _ = run_cli(capsys, "classify", "--p", "3", "--q", "5",
                           "--r", "7", "--s1", "f", "--s3", "d",
                           "--no-timing")
    assert code == 0
    assert "case: FD" in out


def test_normalize(capsys):
    code, out, _ = run_cli(capsys, "normalize", "--a1", "-2", "--a2", "1",
                           "--a3", "-8", "--p", "2", "--q", "3", "--r", "4",
                           "--no-timing")
    assert code == 0
    fields = dict(ln.split(": ", 1) for ln in out.strip().splitlines())
    assert math.isclose(float(fields["kappa"]), 0.5, rel_tol=1e-12)
    assert math.isclose(float(fields["lambda"]), 1.0, rel_tol=1e-12)
    assert math.isclose(float(fields["gamma"]), -0.25, rel_tol=1e-12)
    assert fields["case"] == "DD"


def test_profile_a(capsys):
    code, out, _ = run_cli(capsys, "profile-a", "--p", "2", "--q", "3",
                           "--r", "4", "--s1", "+1", "--s3", "+1",
                           "--omega", str(16.0 / 15.0), "--gamma", "0",
                           "--no-timing")
    assert code == 0
    fields = dict(ln.split(": ", 1) for ln in out.strip().splitlines())
    assert math.isclose(float(fields["a"]), 1.0, rel_tol=1e-9)
    assert fields["exists"] == "True"


def test_profile_a_not_found(capsys):
    code, out, err = run_cli(capsys, "profile-a", "--p", "3", "--q", "5",
                             "--r", "7", "--s1", "+1", "--s3", "-1",
                             "--omega", "10", "--gamma", "0", "--no-timing")
    assert code == 1
    assert "no standing wave" in err


def test_profile_a_past_600_doublings(capsys):
    # a = 2.5937e180 lies past 600 doublings of 1, within the float range
    code, out, _ = run_cli(capsys, "profile-a", "--p", "1.05", "--q", "1.1",
                           "--r", "1.2", "--s1", "f", "--s3", "f",
                           "--omega", "1e18", "--gamma", "0", "--no-timing")
    assert code == 0
    fields = dict(ln.split(": ", 1) for ln in out.strip().splitlines())
    assert math.isclose(float(fields["a"]), 2.59374246009942e180,
                        rel_tol=1e-11)
    assert fields["exists"] == "True"


def test_profile_a_beyond_the_float_range_exits_1(capsys):
    # F1's terms overflow before the crossing: an error line, no traceback
    code, out, err = run_cli(capsys, "profile-a", "--p", "3", "--q", "5",
                             "--r", "5.01", "--s1", "f", "--s3", "f",
                             "--omega", "0.1", "--gamma", "8", "--no-timing")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "beyond the float range" in err


def test_omega_star(capsys):
    code, out, _ = run_cli(capsys, "omega-star", "--p", "3", "--q", "5",
                           "--r", "7", "--s1", "+1", "--s3", "-1",
                           "--gamma", "0", "--no-timing")
    assert code == 0
    val = float(out.strip().splitlines()[0].split(": ")[1])
    assert math.isclose(val, 0.2721655269758484, rel_tol=1e-10)


def test_omega_star_not_on_curve_exits_1(capsys):
    code, _, err = run_cli(capsys, "omega-star", "--p", "3", "--q", "5",
                           "--r", "7", "--s1", "-1", "--s3", "+1",
                           "--gamma", "0", "--no-timing")
    assert code == 1
    assert "error:" in err


def test_eval_j_negative_df(capsys):
    code, out, _ = run_cli(capsys, "eval-j", "--p", "3", "--q", "5",
                           "--r", "7", "--s1", "-1", "--s3", "+1",
                           "--omega", "1", "--gamma", "0", "--no-timing")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("method")
    rows = {ln.split()[0]: ln.split() for ln in lines[1:]}
    assert set(rows) == {"transformed", "raw", "mass_fd"}
    for name, row in rows.items():
        assert float(row[1]) < 0.0
        assert row[3] == "unstable"
    assert math.isclose(float(rows["transformed"][1]),
                        -0.4268975227612106, rel_tol=1e-8)


_README_EVAL_J = ("eval-j", "--p", "3", "--q", "5", "--r", "7", "--s1", "d",
                  "--s3", "f", "--omega", "1", "--gamma", "0", "--no-timing")


@pytest.mark.parametrize("route", ["eval_J", "eval_J_mass_fd"])
def test_eval_j_prints_the_routes_that_return(capsys, monkeypatch, route):
    # one route raising drops no other route's row: it gets an error row
    # in its place, and the exit code is 1
    _, table, _ = run_cli(capsys, *_README_EVAL_J)

    def fails(params, omega, gamma):
        raise UnsupportedRegime("J by %s is not finite" % route)

    monkeypatch.setattr(cli, route, fails)
    code, out, err = run_cli(capsys, *_README_EVAL_J)
    assert code == 1 and err == ""
    name = {"eval_J": "transformed", "eval_J_mass_fd": "mass_fd"}[route]
    expected = [("%-12s error: J by %s is not finite" % (name, route))
                if ln.startswith(name + " ") else ln
                for ln in table.splitlines()]
    assert out.splitlines() == expected


def test_eval_j_with_no_wave_prints_one_error(capsys):
    # every route raises: the first error alone, as before any route could
    # fail on its own
    code, out, err = run_cli(capsys, "eval-j", "--p", "3", "--q", "5",
                             "--r", "7", "--s1", "+1", "--s3", "-1",
                             "--omega", "10", "--gamma", "0", "--no-timing")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "no standing wave" in err


def test_eval_j_on_the_far_branch_prints_every_route(capsys):
    # FF(3,5,5.01) at gamma = 4 has a = 3.6e120: the stencil masses of
    # mass_fd were NaN once a node reached x = 2, and the command printed
    # only mass_fd's error
    code, out, err = run_cli(capsys, "eval-j", "--p", "3", "--q", "5",
                             "--r", "5.01", "--s1", "f", "--s3", "f",
                             "--omega", "0.125", "--gamma", "4",
                             "--no-timing")
    assert code == 0 and err == ""
    rows = [ln.split() for ln in out.splitlines()[1:]]
    assert [row[0] for row in rows] == ["transformed", "raw", "mass_fd"]
    assert all(row[3] == "indeterminate" for row in rows)


def test_eval_j0(capsys):
    code, out, _ = run_cli(capsys, "eval-j0", "--p", "1.3", "--q", "1.8",
                           "--r", "2.5", "--s1", "-1", "--s3", "+1",
                           "--gamma", "0", "--no-timing")
    assert code == 0
    fields = dict(ln.split(": ", 1) for ln in out.strip().splitlines())
    assert math.isclose(float(fields["j0"]), 4.7981845238428305, rel_tol=1e-7)
    assert fields["verdict"] == "stable"


def test_limits_output(capsys):
    code, out, _ = run_cli(capsys, "limits", "--p", "2", "--q", "3",
                           "--r", "4", "--s1", "+1", "--s3", "+1",
                           "--omega", "1", "--gamma", "0", "--no-timing")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4
    byname = {ln.split()[0]: ln for ln in lines}
    assert "ZeroPlus" in byname["omega->0"]
    assert "[J ~ a^0.25]" in byname["omega->0"]
    assert "ZeroPlus" in byname["omega->inf"]
    assert "[J ~ a^-1.25]" in byname["omega->inf"]


def test_limits_unsupported_direction(capsys):
    code, out, _ = run_cli(capsys, "limits", "--p", "3", "--q", "5",
                           "--r", "7", "--s1", "+1", "--s3", "-1",
                           "--omega", "1", "--gamma", "0", "--no-timing")
    assert code == 0
    byname = {ln.split()[0]: ln for ln in out.strip().splitlines()}
    assert "unsupported" in byname["omega->inf"]
    assert "unsupported" in byname["gamma->+inf"]


def test_guarantees(capsys):
    code, out, _ = run_cli(capsys, "guarantees", "--p", "3", "--q", "5",
                           "--r", "7", "--s1", "+1", "--s3", "-1",
                           "--no-timing")
    assert code == 0
    assert out.strip().startswith("AllStablePositiveJ:")
    code, out, _ = run_cli(capsys, "guarantees", "--p", "2", "--q", "3",
                           "--r", "4", "--s1", "+1", "--s3", "+1",
                           "--no-timing")
    assert code == 0
    assert out.strip() == "none"


def test_curve_ne_stdout_and_file(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "curve-ne", "--p", "2", "--q", "3",
                           "--r", "4", "--s1", "+1", "--s3", "+1",
                           "--n", "7", "--no-timing")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "a,omega_ne,gamma_ne"
    assert len(lines) == 8

    dest = str(tmp_path / "curve.csv")
    code, out, _ = run_cli(capsys, "curve-ne", "--p", "2", "--q", "3",
                           "--r", "4", "--s1", "+1", "--s3", "+1",
                           "--n", "7", "--out", dest, "--no-timing")
    assert code == 0
    assert "wrote 7 samples" in out
    with open(dest) as fh:
        assert fh.readline().strip() == "a,omega_ne,gamma_ne"


def test_diagram_smoke(capsys, tmp_path):
    grid_path = str(tmp_path / "g.csv")
    cont_path = str(tmp_path / "c.json")
    code, out, _ = run_cli(capsys, "diagram", "--p", "3", "--q", "5",
                           "--r", "7", "--s1", "-1", "--s3", "+1",
                           "--omega-min", "0.1", "--omega-max", "1.0",
                           "--gamma-min", "-1", "--gamma-max", "1",
                           "--nx", "6", "--ny", "5", "--levels", "-0.5",
                           "--out-grid", grid_path,
                           "--out-contours", cont_path,
                           "--jobs", "1", "--no-timing")
    assert code == 0
    assert "grid: 6 x 5 (0 nonexistent, 0 divergent)" in out
    with open(grid_path) as fh:
        assert fh.readline().startswith("gamma\\omega,")
        assert len(fh.readlines()) == 5
    with open(cont_path) as fh:
        payload = json.load(fh)
    assert payload["level"] == -0.5


def test_diagram_beyond_the_float_range_exits_0(capsys, tmp_path):
    # the gamma = 6 and 8 rows lie beyond the float range: NaN cells, no
    # error
    code, out, err = run_cli(capsys, "diagram", "--p", "3", "--q", "5",
                             "--r", "5.01", "--s1", "f", "--s3", "f",
                             "--omega-min", "0.05", "--omega-max", "0.2",
                             "--gamma-min", "0", "--gamma-max", "8",
                             "--nx", "3", "--ny", "5", "--levels", "0",
                             "--out-grid", str(tmp_path / "g.csv"),
                             "--out-contours", str(tmp_path / "c.json"),
                             "--jobs", "1", "--no-timing")
    assert code == 0 and err == ""
    assert "grid: 3 x 5 (6 nonexistent, 0 divergent)" in out


_DIAGRAM_DD357 = ("diagram", "--p", "3", "--q", "5", "--r", "7",
                  "--s1", "d", "--s3", "d",
                  "--omega-min", "0.05", "--omega-max", "20",
                  "--gamma-min", "-10", "--gamma-max", "-2.2")


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_diagram_jobs_below_one_exits_2(capsys, jobs):
    with pytest.raises(SystemExit) as exc:
        main([*_DIAGRAM_DD357, "--jobs", jobs, "--no-timing"])
    assert exc.value.code == 2
    assert "--jobs: must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("axis", ["--nx", "--ny"])
def test_diagram_mesh_below_two_exits_2(capsys, axis):
    with pytest.raises(SystemExit) as exc:
        main([*_DIAGRAM_DD357, axis, "1", "--no-timing"])
    assert exc.value.code == 2
    assert "%s: must be at least 2" % axis in capsys.readouterr().err


def test_diagram_loads_neither_verify_nor_a_pool(tmp_path):
    # a fresh interpreter, since this one has imported everything: a 40x40
    # diagram runs in process, and only `tristab verify` needs its module
    src = os.path.dirname(os.path.dirname(tristab.__file__))
    argv = [*_DIAGRAM_DD357, "--nx", "40", "--ny", "40",
            "--out-grid", str(tmp_path / "g.csv"),
            "--out-contours", str(tmp_path / "c.json"), "--no-timing"]
    script = ("import sys\n"
              "from tristab.cli import main\n"
              "assert main(%r) == 0\n"
              "print(sorted({'tristab.verify', 'fractions', 'multiprocessing'}"
              " & set(sys.modules)))" % argv)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


@pytest.mark.parametrize("argv", [
    [*_DIAGRAM_DD357, "--nx", "3", "--ny", "3", "--out-grid"],
    ["curve-ne", "--p", "2", "--q", "3", "--r", "4", "--s1", "f",
     "--s3", "f", "--n", "3", "--out"],
], ids=["diagram", "curve-ne"])
def test_output_file_that_cannot_be_written_exits_1(tmp_path, argv):
    # a fresh interpreter, so that stderr is what a user sees
    dest = str(tmp_path / "missing" / "out.csv")
    argv = [*argv, dest, "--no-timing"]
    src = os.path.dirname(os.path.dirname(tristab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "tristab.cli", *argv],
                          env=env, cwd=tmp_path, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    (line,) = proc.stderr.splitlines()
    assert line.startswith("error: ") and dest in line


def test_exit_code_2_on_bad_exponents(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--p", "3", "--q", "2", "--r", "4",
              "--s1", "+1", "--s3", "+1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--p", "2", "--q", "3", "--r", "4",
              "--s1", "+2", "--s3", "+1"])
    assert exc.value.code == 2


def test_timing_line_toggle(capsys):
    code, out, _ = run_cli(capsys, "classify", "--p", "2", "--q", "3",
                           "--r", "4", "--s1", "+1", "--s3", "+1")
    assert code == 0
    assert "# elapsed" in out
    code, out, _ = run_cli(capsys, "classify", "--p", "2", "--q", "3",
                           "--r", "4", "--s1", "+1", "--s3", "+1",
                           "--no-timing")
    assert code == 0
    assert "# elapsed" not in out


def test_deterministic_output(capsys):
    args = ("eval-j", "--p", "2", "--q", "3", "--r", "4", "--s1", "+1",
            "--s3", "+1", "--omega", "0.05", "--gamma", "0",
            "--no-timing")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


@pytest.mark.parametrize("suite", list(verify.SUITES))
def test_verify_suite(capsys, suite):
    code, out, _ = run_cli(capsys, "verify", "--suite", suite, "--no-timing")
    assert code == 0
    assert any(ln.startswith("PASS ") for ln in out.splitlines())
    assert "FAIL" not in out


@pytest.mark.parametrize("argv", [("--suite", "nope"), ("--seed", "1")])
def test_verify_bad_arguments_exit_2(argv):
    with pytest.raises(SystemExit) as exc:
        main(["verify", *argv, "--no-timing"])
    assert exc.value.code == 2


def test_verify_suite_error_and_help_name_the_suites(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "nope"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice: 'nope'" in err
    assert all(repr(name) in err for name in [*verify.SUITES, "all"])
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    assert exc.value.code == 0
    out = " ".join(capsys.readouterr().out.split())
    assert ", ".join([*verify.SUITES, "all"]) in out
