import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hjwave import (PhysicalConstants, cli, hje_pde_spec, load_field,
                    pde_spec_dumps)
from hjwave.solvers import MAX_POINTS, MAX_STEPS


def run_cli(*args, cwd=None):
    """Run ``hjwave *args`` in this process, as ``python -m hjwave`` would.

    Returns a CompletedProcess with the exit code and the captured stdout
    and stderr.  A SystemExit (``--help``) gives its code, and a warning
    raised during the call is appended to stderr as the interpreter prints
    it.  ``cwd`` is the working directory during the call, restored after.
    """
    stdout, stderr = io.StringIO(), io.StringIO()
    home = os.getcwd()
    with (warnings.catch_warnings(record=True) as caught,
          contextlib.redirect_stdout(stdout),
          contextlib.redirect_stderr(stderr)):
        warnings.simplefilter("always")
        try:
            os.chdir(cwd or home)
            code = cli.main(list(args))
        except SystemExit as exc:
            code = exc.code
        finally:
            os.chdir(home)
    for w in caught:
        stderr.write(warnings.formatwarning(w.message, w.category, w.filename,
                                            w.lineno, w.line))
    return subprocess.CompletedProcess(["hjwave", *args], code,
                                       stdout.getvalue(), stderr.getvalue())


@pytest.mark.parametrize("argv, code", [
    (["dispersion", "--k", "1"], 0),
    (["solve", "--nope", "1"], 2),
    (["solve", "--cfl", "1.5"], 3),
])
def test_python_m_hjwave_exit_codes(tmp_path, argv, code):
    """What only a real interpreter shows: its exit status and its stderr."""
    res = subprocess.run(
        [sys.executable, "-m", "hjwave", *argv, "--out", str(tmp_path / "x")],
        capture_output=True, text=True)
    assert res.returncode == code
    if code == 0:
        assert res.stderr == ""
    else:
        (line,) = res.stderr.splitlines()
        assert json.loads(line)["error"]["exit_code"] == code


def test_in_process_calls_leave_no_state(tmp_path):
    solve = ["solve", "--points", "32", "--steps", "25"]
    before = np.geterr(), os.getcwd()
    assert run_cli(*solve, cwd=tmp_path).returncode == 0
    first = read_all_bytes(tmp_path / "hjwave-out")
    assert run_cli("solve", "--points", "5", cwd=tmp_path).returncode == 2
    assert run_cli("solve", "--cfl", "1.5", cwd=tmp_path).returncode == 3
    assert run_cli(*solve, cwd=tmp_path).returncode == 0
    assert read_all_bytes(tmp_path / "hjwave-out") == first
    assert (np.geterr(), os.getcwd()) == before


def read_all_bytes(directory):
    return {
        p.name: p.read_bytes() for p in sorted(directory.iterdir())
    }


class TestDispersionCommand:
    def test_rest_frequency_row(self, tmp_path):
        out = tmp_path / "d"
        res = run_cli("dispersion", "--k", "0", "--m0", "1", "--c", "1",
                      "--hbar", "1", "--out", str(out))
        assert res.returncode == 0
        lines = (out / "dispersion.csv").read_text().strip().splitlines()
        assert lines[0] == "k,omega,v_phase,v_group"
        k, omega, vph, vgr = lines[1].split(",")
        assert float(omega) == 1.0
        assert vph == "nan"
        assert float(vgr) == 0.0

    def test_sweep_and_determinism(self, tmp_path):
        args = ["dispersion", "--k", "0.5", "--k", "1", "--k", "2"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_cli(*args, "--out", str(out1)).returncode == 0
        assert run_cli(*args, "--out", str(out2)).returncode == 0
        assert read_all_bytes(out1) == read_all_bytes(out2)

    def test_negative_wavenumber_rejected(self, tmp_path):
        res = run_cli("dispersion", "--k", "-1", "--out", str(tmp_path / "x"))
        assert res.returncode == 2
        report = json.loads(res.stderr)
        assert report["error"]["exit_code"] == 2

    @pytest.mark.parametrize("args, code", [
        (["--k", "nan"], 2),
        (["--k", "inf"], 2),
        (["--c", "1.7e308"], 2),  # c^2 overflows: DomainError naming c
        (["--hbar", "1e-320", "--k", "1"], 3),
        (["--c", "1e154", "--m0", "2.9979"], 3),
    ])
    def test_non_finite_rows_fail_without_output(self, tmp_path, args, code):
        out = tmp_path / "x"
        res = run_cli("dispersion", *args, "--out", str(out))
        assert res.returncode == code
        assert json.loads(res.stderr)["error"]["exit_code"] == code
        assert not out.exists()

    @pytest.mark.parametrize("args, speed", [
        (["--k", "1e300"], 1.0),
        (["--k", "1e154", "--c", "1e154", "--m0", "0"], 1e154),
    ])
    def test_huge_wavenumber_group_velocity(self, tmp_path, args, speed):
        out = tmp_path / "d"
        assert run_cli("dispersion", *args, "--out", str(out)).returncode == 0
        row = (out / "dispersion.csv").read_text().strip().splitlines()[1]
        assert [float(v) for v in row.split(",")[2:]] == [speed, speed]


class TestTransformCommand:
    def test_emit_linear_reproduces_wave_operator(self, tmp_path):
        out = tmp_path / "t"
        res = run_cli("transform", "--spec", "hje-massive", "--A", "hbar/i",
                      "--emit-linear", "--out", str(out))
        assert res.returncode == 0
        lin = json.loads((out / "linear_spec.json").read_text())
        mat = np.array(
            [[complex(re, im) for re, im in row]
             for row in lin["second_order_coeffs"]]
        )
        assert np.array_equal(-mat, np.diag([-1.0, -1.0, -1.0, 1.0]))
        assert complex(*lin["zeroth_coeff"]) == -1.0

        spec = json.loads((out / "transformed_spec.json").read_text())
        assert spec["homogeneous"] is True
        assert spec["n"] == 4 and spec["m"] == 2

    def test_spec_file_input(self, tmp_path):
        out1 = tmp_path / "builtin"
        assert run_cli("transform", "--spec", "hje-massless",
                       "--out", str(out1)).returncode == 0
        spec_path = tmp_path / "spec.json"
        # massless builtin writes a spec we can feed back through a file
        spec_path.write_text(
            pde_spec_dumps(hje_pde_spec(PhysicalConstants(), massless=True)))
        out2 = tmp_path / "file"
        assert run_cli("transform", "--spec", str(spec_path),
                       "--out", str(out2)).returncode == 0
        a = (out1 / "transformed_spec.json").read_bytes()
        b = (out2 / "transformed_spec.json").read_bytes()
        assert a == b

    def test_bad_constant_string(self, tmp_path):
        res = run_cli("transform", "--A", "i/hbar", "--out", str(tmp_path / "x"))
        assert res.returncode == 2

    @pytest.mark.parametrize("text, value", [
        ("hbar/i", -1j), (" 2.5 ", 2.5), ("[1, -2]", 1 - 2j), ("[0.5, 3e2]", 0.5 + 300j),
    ])
    def test_constant_spellings(self, text, value):
        assert cli.parse_transform_constant(text, 1.0) == value

    @pytest.mark.parametrize("drop", ["b", "terms"])
    def test_spec_without_required_key(self, tmp_path, drop):
        obj = json.loads(pde_spec_dumps(hje_pde_spec(PhysicalConstants())))
        del obj[drop]
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(obj))
        res = run_cli("transform", "--spec", str(spec_path),
                      "--out", str(tmp_path / "x"))
        assert res.returncode == 2
        error = json.loads(res.stderr)["error"]
        assert error["type"] == "FormatError" and drop in error["message"]

    def test_spec_with_overflowing_number(self, tmp_path):
        text = pde_spec_dumps(hje_pde_spec(PhysicalConstants()))
        text = json.dumps(json.loads(text)).replace('"n": 4,', '"n": 1e999,')
        assert '"n": 1e999,' in text
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(text)
        res = run_cli("transform", "--spec", str(spec_path),
                      "--out", str(tmp_path / "x"))
        assert res.returncode == 2
        error = json.loads(res.stderr)["error"]
        assert error["type"] == "FormatError"

    def test_overflowing_transform_constant(self, tmp_path):
        res = run_cli("transform", "--hbar", "1.7e308",
                      "--out", str(tmp_path / "x"))
        assert res.returncode == 3
        assert json.loads(res.stderr)["error"]["type"] == "OverflowError"

    def test_ill_typed_spec_value(self, tmp_path):
        obj = json.loads(pde_spec_dumps(hje_pde_spec(PhysicalConstants())))
        obj["homogeneous"] = "no"
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(obj))
        res = run_cli("transform", "--spec", str(spec_path),
                      "--out", str(tmp_path / "x"))
        assert res.returncode == 2
        assert json.loads(res.stderr)["error"]["type"] == "FormatError"

    def test_spec_path_with_control_characters(self, tmp_path):
        spec_path = tmp_path / 'spec\tx\n"q".json'
        spec_path.write_text(pde_spec_dumps(hje_pde_spec(PhysicalConstants())))
        out = tmp_path / "out"
        assert run_cli("transform", "--spec", str(spec_path),
                       "--out", str(out)).returncode == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["spec"] == str(spec_path)

    def test_missing_spec_file(self, tmp_path):
        res = run_cli("transform", "--spec", "nope.json",
                      "--out", str(tmp_path / "x"))
        assert res.returncode == 2


class TestSolveCommand:
    def test_relativistic_run_writes_field_and_diagnostics(self, tmp_path):
        out = tmp_path / "s"
        res = run_cli("solve", "--equation", "relativistic", "--points", "32",
                      "--steps", "40", "--out", str(out))
        assert res.returncode == 0
        final = load_field(out / "final.field")
        assert final.grid.shape == (32,)
        lines = (out / "diagnostics.csv").read_text().strip().splitlines()
        assert len(lines) == 41
        summary = json.loads((out / "summary.json").read_text())
        assert summary["error_vs_analytic"] < 0.05

    def test_solve_outputs_are_deterministic(self, tmp_path):
        args = ["solve", "--equation", "schrodinger", "--points", "32",
                "--dt", "0.01", "--steps", "25"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_cli(*args, "--out", str(out1)).returncode == 0
        assert run_cli(*args, "--out", str(out2)).returncode == 0
        assert read_all_bytes(out1) == read_all_bytes(out2)

    @pytest.mark.parametrize("equation",
                             ["wave", "relativistic", "schrodinger"])
    def test_three_dimensional_run(self, tmp_path, equation):
        out = tmp_path / "s3"
        res = run_cli("solve", "--dims", "3", "--points", "16",
                      "--steps", "10", "--equation", equation,
                      "--out", str(out))
        assert res.returncode == 0, res.stderr
        summary = json.loads((out / "summary.json").read_text())
        assert summary["equation"] == equation
        assert summary["steps"] == 10
        assert load_field(out / "final.field").grid.shape == (16, 16, 16)

    @pytest.mark.parametrize("argv", [
        ["--mode", "33"], ["--mode", "-33"], ["--mode", "40"],
        ["--mode", "100000000000000000000"], ["--mode", str(10**310)],
        ["--dims", "3", "--points", "16", "--mode", "9"],
    ], ids=["33", "-33", "40", "1e20", "1e310", "3d-9"])
    def test_mode_past_half_the_points_exits_2(self, tmp_path, argv):
        # past points // 2 the samples alias to grid mode ``mode - points``
        out = tmp_path / "x"
        res = run_cli("solve", *argv, "--out", str(out))
        assert res.returncode == 2
        assert res.stdout == ""
        error = json.loads(res.stderr)["error"]
        assert error["type"] == "CliValidationError"
        mode = argv[argv.index("--mode") + 1]
        bound = "8" if "--dims" in argv else "32"
        assert f"mode {mode} is out of range" in error["message"]
        assert error["message"].endswith(f"points // 2 = {bound}")
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["32", "-32"])
    def test_nyquist_mode_runs(self, tmp_path, mode):
        res = run_cli("solve", "--mode", mode, "--steps", "5",
                      "--out", str(tmp_path / "x"))
        assert res.returncode == 0, res.stderr

    def test_schrodinger_with_dt_does_not_need_c(self, tmp_path):
        # neither the equation nor an explicit dt reads c, so no c is refused
        res = run_cli("solve", "--equation", "schrodinger", "--c", "1e200",
                      "--dt", "0.01", "--out", str(tmp_path / "x"))
        assert (res.returncode, res.stderr) == (0, ""), res.stderr

    def test_cfl_violation_exits_numerical(self, tmp_path):
        res = run_cli("solve", "--equation", "wave", "--points", "32",
                      "--dt", "1.0", "--steps", "5", "--out", str(tmp_path / "x"))
        assert res.returncode == 3
        assert json.loads(res.stderr)["error"]["type"] == "StabilityError"

    def test_unknown_equation(self, tmp_path):
        res = run_cli("solve", "--equation", "heat", "--out", str(tmp_path / "x"))
        assert res.returncode == 2

    @pytest.mark.parametrize("dims", [[], ["--dims", "3", "--points", "16"]],
                             ids=["1d", "3d"])
    @pytest.mark.parametrize("equation",
                             ["wave", "relativistic", "schrodinger"])
    def test_negative_mode_takes_the_positive_branch(self, tmp_path,
                                                     equation, dims):
        summaries = {}
        for mode in ("1", "-1"):
            out = tmp_path / mode
            res = run_cli("solve", "--equation", equation, "--mode", mode,
                          *dims, "--out", str(out))
            assert res.returncode == 0, res.stderr
            summaries[mode] = json.loads((out / "summary.json").read_text())
        plus, minus = summaries["1"], summaries["-1"]
        assert minus["k"] == -plus["k"]
        assert minus["omega_analytic"] == plus["omega_analytic"] >= 0
        # mode -1 is the mirror image of mode 1, so the two errors
        # differ only by rounding of the unit-amplitude field (at most
        # 8.8e-15 here, 3.3e-12 of the 1D wave's 2.7e-3 error)
        assert abs(minus["error_vs_analytic"]
                   - plus["error_vs_analytic"]) <= 1e-12


class TestResidualCommand:
    def test_on_shell_residuals_vanish(self, tmp_path):
        out = tmp_path / "r"
        res = run_cli("residual", "--kx", "2", "--on-shell", "--out", str(out))
        assert res.returncode == 0
        data = json.loads((out / "residual.json").read_text())
        assert abs(complex(*data["nonlinear_residual"])) <= 1e-12
        assert abs(complex(*data["linear_residual"])) <= 1e-12
        assert data["decomposition"]["mismatch"] <= 1e-12

    def test_frequency_required(self, tmp_path):
        res = run_cli("residual", "--kx", "2", "--out", str(tmp_path / "x"))
        assert res.returncode == 2

    @pytest.mark.parametrize("flag", ["--kx", "--ky", "--kz", "--omega"])
    @pytest.mark.parametrize("value", ["-inf", "inf", "nan"])
    def test_non_finite_wave_vector_rejected(self, tmp_path, flag, value):
        out = tmp_path / "x"
        res = run_cli("residual", "--omega", "1", flag, value, "--out", str(out))
        assert res.returncode == 2
        assert res.stdout == ""
        (line,) = res.stderr.splitlines()
        error = json.loads(line)["error"]
        assert error["type"] == "CliValidationError"
        assert error["message"] == f"{flag[2:]} must be finite"
        assert not out.exists()


class TestNewtonCommand:
    def test_free_trajectory(self, tmp_path):
        out = tmp_path / "n"
        res = run_cli("newton", "--potential", "free", "--p0", "0.5",
                      "--p0", "0", "--p0", "0", "--steps", "20",
                      "--out", str(out))
        assert res.returncode == 0
        lines = (out / "trajectory.csv").read_text().strip().splitlines()
        assert lines[0] == "t,rx,ry,rz,px,py,pz,energy"
        assert len(lines) == 22
        summary = json.loads((out / "summary.json").read_text())
        assert summary["energy_drift_rel"] <= 1e-12

    def test_huge_momentum_stays_finite(self, tmp_path):
        out = tmp_path / "n"
        res = run_cli("newton", "--potential", "harmonic", "--p0", "1e300",
                      "--p0", "0", "--p0", "0", "--out", str(out))
        assert res.returncode == 0, res.stderr
        summary = json.loads((out / "summary.json").read_text(),
                             parse_constant=pytest.fail)
        assert math.isfinite(summary["energy_drift_rel"])
        assert summary["max_speed_over_c"] == pytest.approx(1.0)

    def test_infinite_energy_exits_numerical(self, tmp_path):
        out = tmp_path / "n"
        res = run_cli("newton", "--potential", "harmonic", "--r0", "1e160",
                      "--r0", "0", "--r0", "0", "--steps", "10",
                      "--out", str(out))
        assert res.returncode == 3
        lines = res.stderr.strip().splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])["error"]
        assert error["type"] == "NumericalError"
        assert "energy_drift_rel" in error["message"]
        assert not out.exists()

    def test_unknown_potential(self, tmp_path):
        res = run_cli("newton", "--potential", "coulomb",
                      "--out", str(tmp_path / "x"))
        assert res.returncode == 2


class TestLimitStudyCommand:
    def test_small_sweep(self, tmp_path):
        out = tmp_path / "l"
        res = run_cli("limit-study", "--c-values", "4", "--c-values", "8",
                      "--c-values", "16", "--c-values", "32",
                      "--time", "2e-4", "--out", str(out))
        assert res.returncode == 0
        summary = json.loads((out / "limit_study.json").read_text())
        assert 1.8 <= summary["frequency_fit"]["order"] <= 2.1
        lines = (out / "limit_study.csv").read_text().strip().splitlines()
        assert lines[0] == "c,freq_gap,field_gap,x_param"
        assert len(lines) == 5

    def test_sweep_to_large_c(self, tmp_path):
        # its c = 1024 row takes 1.4e9 leapfrog steps, past solvers.MAX_STEPS,
        # which bounds per-step rows only; the orders stay in verify's bands
        out = tmp_path / "l"
        res = run_cli("limit-study", "--c-values", "4", "--c-values", "8",
                      "--c-values", "16", "--c-values", "1024",
                      "--out", str(out))
        assert res.returncode == 0, res.stderr
        summary = json.loads((out / "limit_study.json").read_text())
        assert max(row["steps"] for row in summary["rows"]) > MAX_STEPS
        assert 1.9 <= summary["frequency_fit"]["order"] <= 2.1
        assert summary["frequency_fit"]["log10_residual"] < 0.05
        assert 1.8 <= summary["field_fit"]["order"] <= 2.2

    def test_non_unit_constants(self, tmp_path):
        # 1.25e7 steps at c = 32 and 2.0e8 at c = 128
        res = run_cli("limit-study", "--hbar", "0.3", "--m0", "2.5",
                      "--out", str(tmp_path / "l"))
        assert res.returncode == 0, res.stderr


class TestScenarios:
    def test_scenario_parameters_used(self, tmp_path):
        scenario = tmp_path / "scenario.json"
        out = tmp_path / "out"
        scenario.write_text(json.dumps({
            "name": "rest-mode",
            "command": "dispersion",
            "parameters": {"k": [0.0], "m0": 2.0},
            "output_dir": str(out),
        }))
        res = run_cli("dispersion", "--scenario", str(scenario))
        assert res.returncode == 0
        row = (out / "dispersion.csv").read_text().strip().splitlines()[1]
        assert float(row.split(",")[1]) == 2.0  # omega = m0 c^2 / hbar

    def test_flags_override_scenario(self, tmp_path):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({
            "command": "dispersion",
            "parameters": {"k": [0.0], "m0": 2.0},
        }))
        out = tmp_path / "out"
        res = run_cli("dispersion", "--scenario", str(scenario),
                      "--m0", "3.0", "--out", str(out))
        assert res.returncode == 0
        row = (out / "dispersion.csv").read_text().strip().splitlines()[1]
        assert float(row.split(",")[1]) == 3.0

    def test_unknown_parameter_rejected_before_running(self, tmp_path):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({
            "command": "dispersion",
            "parameters": {"wavelength": 2.0},
        }))
        res = run_cli("dispersion", "--scenario", str(scenario),
                      "--out", str(tmp_path / "x"))
        assert res.returncode == 2
        assert "wavelength" in json.loads(res.stderr)["error"]["message"]

    def test_command_mismatch_rejected(self, tmp_path):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({"command": "newton", "parameters": {}}))
        res = run_cli("dispersion", "--scenario", str(scenario),
                      "--out", str(tmp_path / "x"))
        assert res.returncode == 2

    def test_ill_typed_parameter_rejected(self, tmp_path):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({
            "command": "solve",
            "parameters": {"steps": "many"},
        }))
        res = run_cli("solve", "--scenario", str(scenario),
                      "--out", str(tmp_path / "x"))
        assert res.returncode == 2

    def test_non_numbers_in_a_float_list_rejected(self, tmp_path):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({
            "command": "dispersion",
            "parameters": {"k": ["1.5", True]},
        }))
        out = tmp_path / "x"
        res = run_cli("dispersion", "--scenario", str(scenario),
                      "--out", str(out))
        assert res.returncode == 2
        assert "'k'" in json.loads(res.stderr)["error"]["message"]
        assert not out.exists()

    @pytest.mark.parametrize("value", [
        ["1.5"], [True], [False], [None], [[1.0]], [{}], [10**400], [],
        "1.5", 1.5,
    ])
    def test_float_list_coercion_rejects(self, value):
        with pytest.raises(cli.CliValidationError, match="float_list"):
            cli.Param("k", "float_list", [0.0], "").coerce(value)


@pytest.mark.parametrize("argv, code, error_type", [
    (["transform", "--hbar", "1.7e308"], 3, "OverflowError"),
    (["solve", "--cfl", "1.5"], 3, "StabilityError"),
    (["residual", "--kx", "1"], 2, "CliValidationError"),
    (["limit-study", "--c-values", "4", "--c-values", "2"], 2,
     "InsufficientDataError"),
    (["newton", "--potential", "harmonic", "--r0", "1e160", "--r0", "0",
      "--r0", "0", "--steps", "10"], 3, "NumericalError"),
    (["solve", "--c", "1e-200"], 2, "DomainError"),
    (["newton", "--dt", "1e308"], 2, "DomainError"),
    # one step past solvers.MAX_STEPS: refused before any row is allocated
    (["solve", "--steps", "10000001"], 2, "DomainError"),
    (["newton", "--steps", "10000001"], 2, "DomainError"),
])
def test_failed_command_writes_nothing(tmp_path, argv, code, error_type):
    out = tmp_path / "x"
    res = run_cli(*argv, "--out", str(out))
    assert res.returncode == code
    assert res.stdout == ""
    error = json.loads(res.stderr)["error"]
    assert (error["type"], error["exit_code"]) == (error_type, code)
    assert not out.exists()


@pytest.mark.parametrize("scenario, argv, message", [
    ("{", [], "scenario is not valid JSON"),
    ("[]", [], "scenario must be a JSON object"),
    ({"command": "solve", "seed": 1}, [], "unknown scenario keys: ['seed']"),
    ({"command": "solve", "parameters": [1]}, [],
     "scenario parameters must be an object"),
    ({"command": "solve", "output_dir": 1}, [], "output_dir must be a string"),
    (None, ["--dims", "2"], "dims must be 1 or 3"),
], ids=["not-json", "not-object", "unknown-key", "parameters-not-object",
        "output-dir-not-string", "dims-2"])
def test_invalid_scenario_or_dims_writes_nothing(tmp_path, scenario, argv,
                                                message):
    if scenario is not None:
        text = scenario if isinstance(scenario, str) else json.dumps(scenario)
        (tmp_path / "scenario.json").write_text(text)
        argv = ["--scenario", "scenario.json", *argv]
    before = sorted(os.listdir(tmp_path))
    res = run_cli("solve", *argv, cwd=tmp_path)  # default output hjwave-out
    assert (res.returncode, res.stdout) == (2, "")
    (line,) = res.stderr.splitlines()
    error = json.loads(line)["error"]
    assert error["exit_code"] == 2 and error["message"].startswith(message)
    assert sorted(os.listdir(tmp_path)) == before


# the smallest grids past solvers.MAX_POINTS, so that a regression
# allocates megabytes: one point more in 1D, the first n^3 above it in 3D
CUBE_SIDE = next(n for n in range(8, MAX_POINTS) if n**3 > MAX_POINTS)
SPEEDS = ["--c-values", "4", "--c-values", "8", "--c-values", "16",
          "--c-values", "32"]


@pytest.mark.parametrize("argv, code, message", [
    (["solve", "--points", str(MAX_POINTS + 1)], 2,
     f"a grid of {MAX_POINTS + 1} points exceeds the bound of {MAX_POINTS}"),
    (["solve", "--dims", "3", "--points", str(CUBE_SIDE)], 2,
     f"a grid of {CUBE_SIDE**3} points exceeds the bound of {MAX_POINTS}"),
    (["limit-study", "--points", str(MAX_POINTS + 1)], 2,
     f"a grid of {MAX_POINTS + 1} points exceeds the bound of {MAX_POINTS}"),
    (["residual", "--kx", "1e154", "--on-shell"], 3,
     "the dispersion quadratic overflowed at |k| = 1e+154"),
    (["residual", "--kx", "1e300", "--on-shell"], 3,
     "the dispersion quadratic overflowed at |k| = 1e+300"),
    (["solve", "--length", "1e300"], 2,
     "grid spacing = 1.5625e+298 is out of range: its square overflows"),
    (["solve", "--length", "1e-300"], 2,
     "grid spacing = 1.5625e-302 is out of range: its square underflows"),
    (["solve", "--dt", "1e-320"], 2,
     "dt = 1e-320 is out of range: its square underflows"),
    (["solve", "--c", "1e200"], 2,
     "c = 1e+200 is out of range: its square overflows"),
    (["solve", "--c", "1e-200"], 2,
     "c = 1e-200 is out of range: its square underflows"),
    # with dt given, c is checked by the solver, not by the default dt
    (["solve", "--equation", "relativistic", "--c", "1e200", "--dt", "0.01"],
     2, "c = 1e+200 is out of range: its square overflows"),
    (["transform", "--c", "1e200"], 2,
     "c = 1e+200 is out of range: its square overflows"),
    (["residual", "--c", "1e200", "--on-shell"], 2,
     "c = 1e+200 is out of range: its square overflows"),
    (["solve", "--hbar", "1e-320"], 2,
     "rest frequency m0 c^2/hbar = inf is out of range: its square overflows"),
    # omega = hbar k^2 / (2 m0) is formed only after the solver refused m0
    (["solve", "--equation", "schrodinger", "--m0", "0"], 2,
     "the free Schrodinger equation needs m0 > 0"),
    (["limit-study", "--k", "1e300", "--m0", "1e301", *SPEEDS], 2,
     "k = 1e+300 is out of range: its square overflows"),
    (["limit-study", "--k", "1e-300", *SPEEDS], 2,
     "k = 1e-300 is out of range: its square underflows"),
    (["limit-study", "--time", "inf"], 2, "time must be finite"),
    (["limit-study", "--time", "1e300"], 2,
     "evolution time 1e+300 at c = 4.0 needs more than 2**53 = "
     "9007199254740992 steps"),
    # no overflow, but the step counts outgrow a double and rounding
    # swamps every gap (field-gap order 0.070)
    (["limit-study", "--time", "1e295"], 2,
     "evolution time 1e+295 at c = 4.0 needs more than 2**53 = "
     "9007199254740992 steps"),
    (["solve", "--equation", "wave", "--c", "1e154"], 2,
     "c = 1e+154 is out of range on a grid of spacings (0.09817477042468103,)"
     ": 4 c^2 sum h^-2 + mu^2 overflows"),
    (["solve", "--c", "1e-150", "--length", "1e153"], 2,
     "c = 1e-150 is out of range on a grid of spacings (1.5625e+151,)"
     ": 4 c^2 sum h^-2 + mu^2 underflows"),
    (["limit-study", "--c-values", "1e154", "--c-values", "2e154",
      "--c-values", "4e154", "--c-values", "8e154", "--time", "1e-300"], 2,
     "c = 2e+154 is out of range: its square overflows"),
])
def test_out_of_range_inputs_are_named(tmp_path, argv, code, message):
    out = tmp_path / "x"
    res = run_cli(*argv, "--out", str(out))
    assert (res.returncode, res.stdout) == (code, "")
    (line,) = res.stderr.splitlines()
    assert json.loads(line)["error"]["message"] == message
    assert not out.exists()


def test_limit_study_with_a_gap_rounding_to_zero_evolves_nothing(tmp_path):
    # at k = 1e-10 the frequency gaps round to 0, and so would the step budget
    res = run_cli("limit-study", "--k", "1e-10", "--points", "16", *SPEEDS,
                  "--time", "1e-6", "--out", str(tmp_path / "l"))
    assert res.returncode == 0, res.stderr
    report = json.loads((tmp_path / "l" / "limit_study.json").read_text())
    assert 0.0 in [row["frequency_gap"] for row in report["rows"]]
    assert all(row["field_gap"] == row["steps"] == 0 for row in report["rows"])
    assert report["frequency_fit"] is report["field_fit"] is None
    assert "warning: k = 1e-10: a frequency gap is zero" in res.stdout


@pytest.mark.parametrize("spelling", ["flag", "scenario"])
@pytest.mark.parametrize("command, name, value", [
    ("newton", "kappa", math.nan), ("newton", "kappa", math.inf),
    ("newton", "force", [1.0, math.nan, 0.0]), ("newton", "p0", [math.inf]),
    ("solve", "cfl", math.nan), ("dispersion", "k", [-math.inf]),
    ("limit-study", "c_values", [4.0, 8.0, 16.0, math.inf]),
])
def test_non_finite_numbers_are_refused_by_name(tmp_path, spelling, command,
                                                name, value):
    out = tmp_path / "x"
    argv = [command, "--out", str(out)]
    if spelling == "flag":
        for v in value if isinstance(value, list) else [value]:
            argv += ["--" + name.replace("_", "-"), repr(v)]
    else:
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(
            {"command": command, "parameters": {name: value}}))
        argv += ["--scenario", str(scenario)]
    res = run_cli(*argv)
    assert (res.returncode, res.stdout) == (2, "")
    (line,) = res.stderr.splitlines()
    error = json.loads(line)["error"]
    assert (error["type"], error["message"]) == ("CliValidationError",
                                                 f"{name} must be finite")
    assert not out.exists()


def test_on_shell_root_below_the_overflow(tmp_path):
    res = run_cli("residual", "--kx", "1e100", "--on-shell", "--out",
                  str(tmp_path / "r"))
    assert res.returncode == 0, res.stderr


class TestCommandLineErrors:
    """A bad command line reports one JSON line and writes nothing."""

    @pytest.mark.parametrize("argv", [
        ["solve", "--points", "abc"],
        ["bogus"],
        ["solve", "--nope", "1"],
        [],
    ], ids=["bad-int", "unknown-command", "unknown-flag", "no-command"])
    def test_flag_errors_are_one_json_line(self, tmp_path, argv):
        res = run_cli(*argv, cwd=tmp_path)
        assert res.returncode == 2
        assert res.stdout == ""
        lines = res.stderr.splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])["error"]
        assert (error["type"], error["exit_code"]) == ("CliValidationError", 2)
        assert list(tmp_path.iterdir()) == []

    def test_help_still_exits_zero(self):
        res = run_cli("solve", "--help")
        assert res.returncode == 0
        assert res.stdout.startswith("usage: hjwave solve")

    @pytest.mark.parametrize("command", [["transform"],
                                         ["residual", "--on-shell"]])
    @pytest.mark.parametrize("constant", [
        '["1", true]', "[true, 1]", "[1, 2, 3]", "[1e309, 0]", "[0, NaN]",
        "nan", "1e309", "inf",
    ])
    def test_transform_constant_must_be_finite_numbers(
            self, tmp_path, command, constant):
        out = tmp_path / "x"
        res = run_cli(*command, "--A", constant, "--out", str(out))
        assert res.returncode == 2
        error = json.loads(res.stderr)["error"]
        assert error["type"] == "CliValidationError"
        assert not out.exists()


def test_verify_report_csv_has_three_cells_per_row(tmp_path, monkeypatch):
    # a failed check still writes the report
    passing = cli.verify.CHECKS["dispersion-chain"]
    monkeypatch.setitem(
        cli.verify.CHECKS, "dispersion-chain",
        lambda seed: dataclasses.replace(passing(seed), passed=False))
    res = run_cli("verify-all", "--seed", "4", "--out", str(tmp_path))
    assert res.returncode == 3, res.stdout + res.stderr
    with open(tmp_path / "verify_report.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["check", "passed", "detail"]
    assert len(rows) == 13 and all(len(row) == 3 for row in rows)
    assert sum("," in row[2] for row in rows) >= 12


def test_verify_all_passes_and_is_deterministic(tmp_path):
    out1, out2 = tmp_path / "v1", tmp_path / "v2"
    res = run_cli("verify-all", "--out", str(out1))
    assert res.returncode == 0, res.stdout + res.stderr
    report = json.loads((out1 / "verify_report.json").read_text())
    assert report["passed"] == report["total"]
    assert "verified" in res.stdout
    assert run_cli("verify-all", "--out", str(out2)).returncode == 0
    assert read_all_bytes(out1) == read_all_bytes(out2)


# ---------------------------------------------------------------------------
# Property: any scenario file gives exit 0 with parseable outputs, or exit
# 2, 3 or 4 with one JSON error line
# ---------------------------------------------------------------------------

SPEC_FILE = "<spec file>"  # replaced by a real spec file in the test
NUMBERS = st.sampled_from([
    0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e308, -1e308, 1.7e308,
    math.nan, math.inf, -math.inf, 1.0, 2.5, -1.0, 0, 3, 10**400,
]) | st.floats()
# elements of a float_list: numbers, and JSON values that are not numbers
LIST_ITEMS = NUMBERS | st.sampled_from(["1.5", "nan", True, False, None, [1.0]])
# stands in for one parameter of a scenario
OTHER_JSON = st.sampled_from(
    ["", "1.5", "nan", True, False, None, [], [1.0], [math.nan, 0.0],
     ["1.5", True], {}]
) | st.text(max_size=4)
SPEC_NAMES = st.sampled_from(
    ["hje-massive", "hje-massless", SPEC_FILE, "no-such-spec", "", "{}"])
A_STRINGS = st.sampled_from(
    ["hbar/i", "1.5", "-2", "0", "nan", "1e309", "[1, 2]", "[1e308, 1e308]",
     "[NaN, 0]", "[1]", "i/hbar"])
CONSTANTS = {"hbar": NUMBERS, "c": NUMBERS, "m0": NUMBERS}
# 3-vectors whose zero components carry either sign
SIGNED_VECTORS = st.lists(st.sampled_from([0.0, -0.0, 0.5, -2.0]) | NUMBERS,
                          min_size=3, max_size=3)
# The limit study picks its own step count, which grows as
# t m0^3 c^4 / (hbar^3 k^2) and costs no time per step.  These ranges,
# with c_values and time always given, keep it below 50k steps (the
# default sweep takes 347k).
LIMIT_SCALES = st.sampled_from([0.5, 1.0, 2.0, 0.0, -1.0, math.nan, math.inf])
LIMIT_SPEEDS = st.sampled_from([1.0, 2.0, 4.0, 8.0, 16.0])
SCENARIO_PARAMS = {
    "dispersion": {"k": st.lists(LIST_ITEMS, min_size=1, max_size=3),
                   **CONSTANTS},
    "transform": {"spec": SPEC_NAMES, "A": A_STRINGS,
                  "emit_linear": st.booleans(), **CONSTANTS},
    "residual": {"spec": SPEC_NAMES, "A": A_STRINGS, "kx": NUMBERS,
                 "ky": NUMBERS, "kz": NUMBERS, "omega": NUMBERS,
                 "on_shell": st.booleans(), **CONSTANTS},
    "solve": {"equation": st.sampled_from(
                  ["wave", "relativistic", "schrodinger", "heat"]),
              "dims": st.sampled_from([1, 3, 2]),
              "points": st.integers(-1, 12), "length": NUMBERS,
              "mode": st.integers(-2, 4), "dt": NUMBERS, "cfl": NUMBERS,
              "steps": st.integers(-1, 20), **CONSTANTS},
    "newton": {"potential": st.sampled_from(
                   ["free", "linear", "harmonic", "coulomb"]),
               "force": st.lists(LIST_ITEMS, max_size=4), "kappa": NUMBERS,
               "r0": st.lists(LIST_ITEMS, max_size=4) | SIGNED_VECTORS,
               "p0": st.lists(LIST_ITEMS, max_size=4) | SIGNED_VECTORS,
               "dt": NUMBERS, "steps": st.integers(-1, 1000),
               "c": NUMBERS, "m0": NUMBERS},
    "limit-study": {"k": LIMIT_SCALES, "hbar": LIMIT_SCALES,
                    "m0": LIMIT_SCALES,
                    "c_values": st.lists(LIMIT_SPEEDS, min_size=3, max_size=6,
                                         unique=True).map(sorted)
                                | st.lists(LIMIT_SPEEDS | st.sampled_from(
                                    [0.0, -4.0, math.nan, math.inf, "4", True]),
                                    max_size=5),
                    "time": st.floats(0.0, 1e-4)
                            | st.sampled_from([-1e-4, math.nan, math.inf]),
                    "points": st.integers(-1, 32), "seed": st.integers()},
    "verify-all": {"seed": st.integers(-1, 20)},
}
# parameters every scenario of the command sets, so that no example runs
# at the default sizes (64^3 points in 3D, 347k leapfrog steps in the
# limit study)
SIZES = {"solve": ("points", "steps"), "limit-study": ("c_values", "time")}
# text columns; the other columns of every CSV output are numbers
TEXT_COLUMNS = {"check", "passed", "detail"}


@st.composite
def scenario_params(draw, command):
    """Parameters of a scenario, one of them perhaps replaced by other JSON."""
    drawn = SCENARIO_PARAMS[command]
    sizes = SIZES.get(command, ())
    params = draw(st.fixed_dictionaries(
        {name: drawn[name] for name in sizes},
        optional={name: s for name, s in drawn.items() if name not in sizes}))
    if params and draw(st.booleans()):
        params[draw(st.sampled_from(sorted(params)))] = draw(OTHER_JSON)
    return params


def _reject_constant(token):
    raise ValueError(f"{token} is not JSON")


def _check_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    for row in rows[1:]:
        assert len(row) == len(header), (path.name, row)
        for name, cell in zip(header, row):
            if name in TEXT_COLUMNS:
                continue
            value = float(cell)
            if math.isnan(value) and name == "v_phase" and float(row[0]) == 0:
                continue  # the phase velocity of a massive wave at rest
            assert math.isfinite(value), (path.name, name, cell)


def _check_outputs(out):
    for path in sorted(out.iterdir()):
        if path.suffix == ".json":
            json.loads(path.read_text(), parse_constant=_reject_constant)
        elif path.suffix == ".field":
            assert np.all(np.isfinite(load_field(path).values))
        else:
            _check_csv(path)


@pytest.fixture(scope="module")
def spec_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("spec") / "spec.json"
    path.write_text(pde_spec_dumps(hje_pde_spec(PhysicalConstants(), massless=True)))
    return str(path)


def run_scenario(command, params, spec_file):
    """Run one scenario in process and check the output contract.

    Exit 0 leaves only files that parse and prints nothing on stderr.
    Any other exit prints one JSON error line and leaves no output
    directory, except that a failed verify-all check still writes the
    report, and the error names the checks that the report marks failed.
    """
    if params.get("spec") == SPEC_FILE:
        params["spec"] = spec_file
    with tempfile.TemporaryDirectory() as tmp:
        out = pathlib.Path(tmp) / "out"
        scenario = pathlib.Path(tmp) / "scenario.json"
        scenario.write_text(json.dumps(
            {"command": command, "parameters": params, "output_dir": str(out)}))
        res = run_cli(command, "--scenario", str(scenario))
        code = res.returncode
        if code == 0:
            assert res.stderr == ""
            _check_outputs(out)
            return
        assert code in (2, 3, 4)
        lines = res.stderr.splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])["error"]
        assert error["exit_code"] == code
        if error["type"] != "VerificationError":
            assert not out.exists()
            return
        _check_outputs(out)
        report = json.loads((out / "verify_report.json").read_text())
        failed = [c["name"] for c in report["checks"] if not c["passed"]]
        assert failed and error["message"] == "failed checks: " + ", ".join(failed)
        assert f"verified {report['passed']}/{report['total']} checks" in (
            res.stdout.splitlines())


@pytest.mark.parametrize("command", sorted(set(SCENARIO_PARAMS) - {"verify-all"}))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_any_scenario_exits_cleanly(spec_file, command, data):
    run_scenario(command, data.draw(scenario_params(command)), spec_file)


# seed 4 failed the residual-decomposition check while it gated the raw
# n = 256 mismatch; every seed from 0 to 20 passes now (about 1.4 s a run)
@settings(max_examples=4, deadline=None)
@given(params=scenario_params("verify-all"))
@example(params={"seed": 4})
def test_any_verify_all_scenario_exits_cleanly(spec_file, params):
    run_scenario("verify-all", params, spec_file)


def test_scenario_strategies_draw_the_declared_parameters():
    for command, declared in cli.COMMANDS.items():
        assert set(SCENARIO_PARAMS[command]) == {p.name for p in declared}


# ---------------------------------------------------------------------------
# The parameter table: each command declares exactly what it reads
# ---------------------------------------------------------------------------

class _ReadRecorder(dict):
    """Resolved parameters that remember which keys were read."""

    def __init__(self, params):
        super().__init__(params)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


# command lines that together take every branch that reads a parameter
TABLE_BRANCHES = {
    "dispersion": [[]],
    "transform": [[], ["--emit-linear"], ["--spec", SPEC_FILE]],
    "solve": [["--equation", equation, "--points", "8", "--steps", "3", *dt]
              for equation in ("wave", "relativistic", "schrodinger")
              for dt in ([], ["--dt", "0.01"])],
    "residual": [["--on-shell"], ["--on-shell", "--omega", "2"],
                 ["--omega", "2"], ["--spec", SPEC_FILE, "--on-shell"]],
    "newton": [["--potential", potential, "--steps", "3"]
               for potential in ("free", "linear", "harmonic")],
    "limit-study": [["--c-values", "4", "--c-values", "8", "--c-values", "16",
                     "--c-values", "32", "--time", "1e-5", "--points", "16"]],
    "verify-all": [[]],
}
# declared but not read: bench/workloads.py LimitSweep passes --seed
UNREAD = {"limit-study": {"seed"}}


@pytest.mark.parametrize("command", sorted(TABLE_BRANCHES))
def test_commands_read_exactly_their_declared_parameters(spec_file, tmp_path,
                                                         command):
    read = set()
    for argv in TABLE_BRANCHES[command]:
        argv = [spec_file if a == SPEC_FILE else a for a in argv]
        args = cli.build_parser().parse_args(
            [command, *argv, "--out", str(tmp_path)])
        params = _ReadRecorder(cli.resolve_params(command, args))
        with np.errstate(all="ignore"):
            cli.DISPATCH[command](params)
        read |= params.read
    declared = {p.name for p in cli.COMMANDS[command]}
    assert read - {"_out"} == declared - UNREAD.get(command, set())


REMOVED = [("dispersion", "seed"), ("transform", "seed"), ("solve", "seed"),
           ("residual", "seed"), ("newton", "seed"), ("newton", "hbar"),
           ("limit-study", "c"), ("limit-study", "mode"), ("verify-all", "hbar"),
           ("verify-all", "c"), ("verify-all", "m0")]


@pytest.mark.parametrize("spelling", ["flag", "scenario"])
@pytest.mark.parametrize("command, name", REMOVED)
def test_parameters_a_command_does_not_read_exit_2(tmp_path, command, name,
                                                   spelling):
    out = tmp_path / "x"
    argv = [command, "--out", str(out)]
    if spelling == "flag":
        argv += ["--" + name, "1"]
    else:
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(
            {"command": command, "parameters": {name: 1}}))
        argv += ["--scenario", str(scenario)]
    res = run_cli(*argv)
    assert res.returncode == 2
    assert res.stdout == ""
    lines = res.stderr.splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])["error"]
    assert error["type"] == "CliValidationError"
    assert name in error["message"]
    assert not out.exists()


# ---------------------------------------------------------------------------
# Negative flag values in any float spelling
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("argv, code", [
    (["residual", "--kx", "-1e-3", "--on-shell"], 0),
    (["transform", "--A", "-2.5e-1"], 0),
    (["residual", "--omega", "-inf"], 2),
    (["dispersion", "--k", "-1e-3"], 2),
])
def test_negative_values_parse_with_a_space_or_equals(tmp_path, argv, code):
    command, flag, value, *rest = argv
    runs = []
    for spelled in ([flag, value], [f"{flag}={value}"]):
        cwd = tmp_path / str(len(runs))
        cwd.mkdir()
        res = run_cli(command, *spelled, *rest, "--out", "out", cwd=cwd)
        files = read_all_bytes(cwd / "out") if (cwd / "out").exists() else None
        runs.append((res.returncode, res.stdout, res.stderr, files))
    assert runs[0] == runs[1]
    assert runs[0][0] == code
    if command == "dispersion":
        message = json.loads(runs[0][2])["error"]["message"]
        assert message == "k must be finite and >= 0"


def _parses_as_float(word):
    try:
        float(word)
    except ValueError:
        return False
    return True


@given(st.text(alphabet="0123456789._eE+-infatyINFATY", max_size=12)
       | st.floats().map(lambda x: repr(abs(x))))
@example("1e-3")
@example(".5e+1")
@example("5.")
@example("1_000.0_1e-1_0")
@example("Infinity")
@example("nAn")
@example("1__0")
@example("_1")
@example("1._5")
@example("1e")
@example("in")
@example("")
def test_negative_number_pattern_is_float_syntax(text):
    word = "-" + text
    assert bool(cli._NEGATIVE_NUMBER.match(word)) == _parses_as_float(word)
