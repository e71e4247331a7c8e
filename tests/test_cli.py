import json
import math
import subprocess
import sys

import numpy as np
import pytest

from hjwave import NumericalError, load_field
from hjwave.reporting import fmt_float, json_dumps, write_csv, write_json


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "hjwave", *args],
        capture_output=True,
        text=True,
    )


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
        from hjwave import PhysicalConstants, hje_pde_spec, save_pde_spec

        save_pde_spec(spec_path, hje_pde_spec(PhysicalConstants.natural(), massless=True))
        out2 = tmp_path / "file"
        assert run_cli("transform", "--spec", str(spec_path),
                       "--out", str(out2)).returncode == 0
        a = (out1 / "transformed_spec.json").read_bytes()
        b = (out2 / "transformed_spec.json").read_bytes()
        assert a == b

    def test_bad_constant_string(self, tmp_path):
        res = run_cli("transform", "--A", "i/hbar", "--out", str(tmp_path / "x"))
        assert res.returncode == 2

    @pytest.mark.parametrize("drop", ["b", "terms"])
    def test_spec_without_required_key(self, tmp_path, drop):
        from hjwave import PhysicalConstants, hje_pde_spec, pde_spec_dumps

        obj = json.loads(pde_spec_dumps(hje_pde_spec(PhysicalConstants())))
        del obj[drop]
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(obj))
        res = run_cli("transform", "--spec", str(spec_path),
                      "--out", str(tmp_path / "x"))
        assert res.returncode == 2
        error = json.loads(res.stderr)["error"]
        assert error["type"] == "FormatError" and drop in error["message"]

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

    def test_cfl_violation_exits_numerical(self, tmp_path):
        res = run_cli("solve", "--equation", "wave", "--points", "32",
                      "--dt", "1.0", "--steps", "5", "--out", str(tmp_path / "x"))
        assert res.returncode == 3
        assert json.loads(res.stderr)["error"]["type"] == "StabilityError"

    def test_unknown_equation(self, tmp_path):
        res = run_cli("solve", "--equation", "heat", "--out", str(tmp_path / "x"))
        assert res.returncode == 2


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
        assert not (out / "summary.json").exists()

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


class TestReportingHelpers:
    def test_header_only_csv(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_csv(path, ["step", "time", "norm", "energy"], [])
        assert path.read_text() == "step,time,norm,energy\n"

    def test_float_formatting_round_trips(self):
        for x in (math.pi, 1 / 3, 1e-300, 6.02214076e23):
            assert float(fmt_float(x)) == x

    def test_json_dumps_deterministic(self):
        obj = {"a": 1.5, "b": [1, 2, 3], "c": {"nested": True}, "z": complex(1, -2)}
        assert json_dumps(obj) == json_dumps(obj)
        assert '"z": [1.0, -2.0]' in json_dumps(obj)

    @pytest.mark.parametrize("value", [
        float("nan"), float("inf"), -np.inf, complex(0.0, np.nan),
    ])
    def test_json_refuses_non_finite(self, tmp_path, value):
        path = tmp_path / "x.json"
        with pytest.raises(NumericalError, match="rows: value"):
            write_json(path, {"rows": [{"value": value}]})
        assert not path.exists()

    def test_negative_zero_survives_json_round_trip(self):
        assert fmt_float(-0.0) == "-0.0"
        assert math.copysign(1.0, json.loads(fmt_float(-0.0))) == -1.0


def test_verify_all_passes_and_is_deterministic(tmp_path):
    out1, out2 = tmp_path / "v1", tmp_path / "v2"
    res = run_cli("verify-all", "--out", str(out1))
    assert res.returncode == 0, res.stdout + res.stderr
    report = json.loads((out1 / "verify_report.json").read_text())
    assert report["passed"] == report["total"]
    assert "verified" in res.stdout
    assert run_cli("verify-all", "--out", str(out2)).returncode == 0
    assert read_all_bytes(out1) == read_all_bytes(out2)
