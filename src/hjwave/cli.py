"""Scenario runner: every module surface behind one deterministic CLI.

Subcommands: dispersion | transform | solve | residual | newton |
limit-study | verify-all.  Parameters come from flags, from a JSON
scenario file (``--scenario``), or both, with flags winning; unknown or
ill-typed scenario keys abort before any computation.  All outputs are
CSV tables plus a JSON summary with 17-significant-digit floats, so a
rerun of the same scenario and seed is byte-identical.

Exit codes: 0 success, 2 validation failure, 3 numerical failure,
4 I/O failure.  Failures emit a one-line JSON error report on stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import verify
from .errors import HjwaveError
from .fields import Grid, plane_wave_field, save_field
from .kinematics import (
    PhysicalConstants,
    dispersion_omega,
    group_velocity,
    phase_velocity,
)
from .limits import LimitStudyConfig, run_limit_study
from .mechanics import Potential, integrate_newton
from .pde_algebra import (
    AnalyticField,
    residual_decomposition_check,
    dispersion_quadratic,
    hje_pde_spec,
    linearize,
    load_pde_spec,
    log_transform,
    pde_spec_to_obj,
    residual_linear,
    residual_nonlinear,
)
from .reporting import ensure_dir, write_csv, write_json
from .solvers import (
    CRANK_NICOLSON,
    LEAPFROG,
    SolverConfig,
    leapfrog_stability_limit,
    solve_relativistic,
    solve_schrodinger,
    solve_wave,
)


class CliValidationError(ValueError):
    """Bad command line, scenario file, or parameter combination."""


_UNSET = object()


@dataclass(frozen=True)
class Param:
    """One command parameter: flag wiring plus scenario-value coercion."""

    name: str
    kind: str  # float | int | str | flag | float_list
    default: object
    help: str

    def add_to(self, parser: argparse.ArgumentParser) -> None:
        flag = "--" + self.name.replace("_", "-")
        if self.kind == "flag":
            parser.add_argument(flag, dest=self.name, action="store_true",
                                default=None, help=self.help)
        elif self.kind == "float_list":
            parser.add_argument(flag, dest=self.name, type=float,
                                action="append", default=None, help=self.help)
        else:
            typ = {"float": float, "int": int, "str": str}[self.kind]
            parser.add_argument(flag, dest=self.name, type=typ, default=None,
                                help=self.help)

    def coerce(self, value):
        """Validate a scenario-file value for this parameter."""
        try:
            if self.kind == "float":
                if isinstance(value, bool) or isinstance(value, (list, dict, str)):
                    raise TypeError
                return float(value)
            if self.kind == "int":
                if isinstance(value, bool) or not isinstance(value, int):
                    raise TypeError
                return int(value)
            if self.kind == "str":
                if not isinstance(value, str):
                    raise TypeError
                return value
            if self.kind == "flag":
                if not isinstance(value, bool):
                    raise TypeError
                return value
            if self.kind == "float_list":
                if not isinstance(value, list) or not value:
                    raise TypeError
                return [float(v) for v in value]
        except (TypeError, ValueError):
            raise CliValidationError(
                f"parameter {self.name!r} expects a value of kind {self.kind}"
            ) from None
        raise CliValidationError(f"unknown parameter kind {self.kind}")


COMMON_PARAMS = (
    Param("hbar", "float", 1.0, "action quantum (default 1)"),
    Param("c", "float", 1.0, "speed of light (default 1)"),
    Param("m0", "float", 1.0, "rest mass (default 1; 0 selects massless)"),
    Param("seed", "int", 0, "seed for the randomized verification fields"),
)

COMMANDS: dict[str, tuple[Param, ...]] = {
    "dispersion": (
        Param("k", "float_list", [0.0],
              "wavenumber magnitude; repeat the flag for a sweep"),
    ),
    "transform": (
        Param("spec", "str", "hje-massive",
              "PDE spec JSON path, or builtin 'hje-massive' / 'hje-massless'"),
        Param("A", "str", "hbar/i",
              "transform constant: 'hbar/i', a real number, or '[re,im]'"),
        Param("emit_linear", "flag", False,
              "also write the equivalent linear second-order PDE"),
    ),
    "solve": (
        Param("equation", "str", "relativistic",
              "wave | relativistic | schrodinger"),
        Param("dims", "int", 1, "grid dimensionality: 1 or 3"),
        Param("points", "int", 64, "grid points per axis"),
        Param("length", "float", 2 * math.pi, "box length per axis"),
        Param("mode", "int", 1, "plane-wave mode number (k = 2 pi mode/length)"),
        Param("dt", "float", None, "time step (default: cfl * stability limit)"),
        Param("cfl", "float", 0.5, "fraction of the stability limit for dt"),
        Param("steps", "int", 200, "number of time steps"),
    ),
    "residual": (
        Param("spec", "str", "hje-massive", "as for transform"),
        Param("A", "str", "hbar/i", "as for transform"),
        Param("kx", "float", 1.0, "wave-vector x component"),
        Param("ky", "float", 0.0, "wave-vector y component"),
        Param("kz", "float", 0.0, "wave-vector z component"),
        Param("omega", "float", None, "frequency argument of the plane wave"),
        Param("on_shell", "flag", False,
              "use the positive dispersion root as the frequency"),
    ),
    "newton": (
        Param("potential", "str", "free", "free | linear | harmonic"),
        Param("force", "float_list", [1.0, 0.0, 0.0],
              "constant force for the linear potential (three values)"),
        Param("kappa", "float", 1.0, "stiffness for the harmonic potential"),
        Param("r0", "float_list", [0.0, 0.0, 0.0], "initial position"),
        Param("p0", "float_list", [0.0, 0.0, 0.0], "initial momentum"),
        Param("dt", "float", 0.01, "time step"),
        Param("steps", "int", 1000, "number of RK4 steps"),
    ),
    "limit-study": (
        Param("k", "float", 1.0, "plane-wave wavenumber"),
        Param("c_values", "float_list", [4.0, 8.0, 16.0, 32.0, 64.0, 128.0],
              "ascending light speeds to sweep"),
        Param("time", "float", 5e-4, "physical evolution time per run"),
        Param("points", "int", 64, "grid points"),
        Param("mode", "int", 1, "grid length is mode * 2 pi / k"),
    ),
    "verify-all": (),
}


def parse_transform_constant(text: str, hbar: float) -> complex:
    """Accepted spellings: 'hbar/i', a real literal, or '[re,im]'."""
    text = text.strip()
    if text == "hbar/i":
        return hbar / 1j
    if text.startswith("["):
        try:
            pair = json.loads(text)
            if (not isinstance(pair, list)) or len(pair) != 2:
                raise ValueError
            return complex(float(pair[0]), float(pair[1]))
        except (ValueError, TypeError):
            raise CliValidationError(
                f"cannot parse transform constant {text!r}"
            ) from None
    try:
        return complex(float(text))
    except ValueError:
        raise CliValidationError(
            f"cannot parse transform constant {text!r}"
        ) from None


def _load_spec(name: str, consts: PhysicalConstants):
    if name == "hje-massive":
        return hje_pde_spec(consts, massless=False)
    if name == "hje-massless":
        return hje_pde_spec(consts, massless=True)
    if os.path.exists(name):
        return load_pde_spec(name)
    raise CliValidationError(
        f"spec {name!r} is neither a file nor a builtin name"
    )


# ---------------------------------------------------------------------------
# Scenario handling
# ---------------------------------------------------------------------------

def resolve_params(command: str, args: argparse.Namespace) -> dict:
    """Merge defaults < scenario parameters < explicit flags, strictly."""
    params = {p.name: p for p in COMMANDS[command] + COMMON_PARAMS}
    resolved = {name: p.default for name, p in params.items()}
    out_dir = "hjwave-out"

    if args.scenario is not None:
        try:
            with open(args.scenario) as fh:
                scenario = json.load(fh)
        except OSError:
            raise
        except json.JSONDecodeError as exc:
            raise CliValidationError(f"scenario is not valid JSON: {exc}")
        if not isinstance(scenario, dict):
            raise CliValidationError("scenario must be a JSON object")
        allowed = {"name", "command", "parameters", "output_dir"}
        unknown = set(scenario) - allowed
        if unknown:
            raise CliValidationError(
                f"unknown scenario keys: {sorted(unknown)}"
            )
        if scenario.get("command") != command:
            raise CliValidationError(
                f"scenario command {scenario.get('command')!r} does not match "
                f"the {command!r} subcommand"
            )
        given = scenario.get("parameters", {})
        if not isinstance(given, dict):
            raise CliValidationError("scenario parameters must be an object")
        for key, value in given.items():
            if key not in params:
                raise CliValidationError(
                    f"unknown parameter {key!r} for command {command!r}"
                )
            resolved[key] = params[key].coerce(value)
        if "output_dir" in scenario:
            if not isinstance(scenario["output_dir"], str):
                raise CliValidationError("output_dir must be a string")
            out_dir = scenario["output_dir"]

    for name in params:
        flag_value = getattr(args, name, None)
        if flag_value is not None:
            resolved[name] = flag_value
    if args.out is not None:
        out_dir = args.out
    resolved["_out"] = out_dir
    return resolved


def _consts(params: dict) -> PhysicalConstants:
    return PhysicalConstants(
        hbar=params["hbar"], c=params["c"], m0=params["m0"]
    )


def _vec3_param(values, name: str) -> np.ndarray:
    arr = np.asarray(list(values), dtype=float)
    if arr.shape != (3,):
        raise CliValidationError(f"{name} needs exactly three values")
    return arr


# ---------------------------------------------------------------------------
# Command implementations
# ---------------------------------------------------------------------------

def cmd_dispersion(params: dict) -> int:
    consts = _consts(params)
    out = ensure_dir(params["_out"])
    rows = []
    for k in params["k"]:
        if k < 0:
            raise CliValidationError("k must be >= 0")
        omega = dispersion_omega(k, consts)
        if k == 0 and consts.m0 > 0:
            vph = float("nan")
        else:
            vph = phase_velocity(k, consts)
        vgr = float(np.linalg.norm(group_velocity((k, 0.0, 0.0), consts)))
        rows.append((float(k), omega, vph, vgr))
    write_csv(
        os.path.join(out, "dispersion.csv"),
        ["k", "omega", "v_phase", "v_group"],
        rows,
    )
    write_json(
        os.path.join(out, "summary.json"),
        {
            "command": "dispersion",
            "hbar": consts.hbar,
            "c": consts.c,
            "m0": consts.m0,
            "count": len(rows),
        },
    )
    print(f"wrote {len(rows)} dispersion rows to {out}")
    return 0


def cmd_transform(params: dict) -> int:
    consts = _consts(params)
    out = ensure_dir(params["_out"])
    spec = _load_spec(params["spec"], consts)
    a_const = parse_transform_constant(params["A"], consts.hbar)
    transformed = log_transform(spec, a_const)
    write_json(
        os.path.join(out, "transformed_spec.json"), pde_spec_to_obj(transformed)
    )
    summary = {
        "command": "transform",
        "spec": params["spec"],
        "A": a_const,
        "emit_linear": bool(params["emit_linear"]),
    }
    if params["emit_linear"]:
        lin = linearize(transformed)
        write_json(
            os.path.join(out, "linear_spec.json"),
            {
                "n": lin.n,
                "second_order_coeffs": [
                    [complex(z) for z in row] for row in lin.second_order_coeffs
                ],
                "zeroth_coeff": complex(lin.zeroth_coeff),
            },
        )
    write_json(os.path.join(out, "summary.json"), summary)
    print(f"wrote transformed spec to {out}")
    return 0


def cmd_solve(params: dict) -> int:
    consts = _consts(params)
    out = ensure_dir(params["_out"])
    equation = params["equation"]
    if equation not in ("wave", "relativistic", "schrodinger"):
        raise CliValidationError(f"unknown equation {equation!r}")
    if params["dims"] == 1:
        grid = Grid.line(params["points"], params["length"])
    elif params["dims"] == 3:
        grid = Grid.cube(params["points"], params["length"])
    else:
        raise CliValidationError("dims must be 1 or 3")

    k = 2 * math.pi * params["mode"] / params["length"]
    k_vec = (k, 0.0, 0.0)  # along the first axis on 1D and 3D grids
    mu = consts.rest_frequency if equation == "relativistic" else 0.0
    limit = leapfrog_stability_limit(grid, consts.c, mu)
    dt = params["dt"] if params["dt"] is not None else params["cfl"] * limit
    steps = params["steps"]

    initial = plane_wave_field(grid, k_vec, omega=0.0, t=0.0)
    if equation == "schrodinger":
        cfg = SolverConfig(dt=dt, steps=steps, scheme=CRANK_NICOLSON)
        report = solve_schrodinger(initial, consts, cfg)
        omega = consts.hbar * k**2 / (2 * consts.m0)
    else:
        omega = consts.c * k if equation == "wave" else dispersion_omega(k, consts)
        rate = initial.with_values(-1j * omega * initial.values)
        cfg = SolverConfig(dt=dt, steps=steps, scheme=LEAPFROG)
        solver = solve_wave if equation == "wave" else solve_relativistic
        report = solver(initial, rate, consts, cfg)

    tee = report.final.time_stamp
    analytic = plane_wave_field(grid, k_vec, omega=omega, t=tee)
    error = float(np.max(np.abs(report.final.values - analytic.values)))

    save_field(os.path.join(out, "final.field"), report.final)
    report.diagnostics.to_csv(os.path.join(out, "diagnostics.csv"))
    norms = report.diagnostics.norm
    drift = float(np.max(np.abs(norms / norms[0] - 1.0))) if norms.size else 0.0
    write_json(
        os.path.join(out, "summary.json"),
        {
            "command": "solve",
            "equation": equation,
            "k": k,
            "omega_analytic": omega,
            "dt": dt,
            "steps": steps,
            "final_time": tee,
            "final_norm": float(norms[-1]),
            "max_norm_drift": drift,
            "error_vs_analytic": error,
        },
    )
    print(
        f"{equation}: {steps} steps to t={tee:.6g}, "
        f"plane-wave error {error:.3e} (results in {out})"
    )
    return 0


def cmd_residual(params: dict) -> int:
    consts = _consts(params)
    out = ensure_dir(params["_out"])
    spec = _load_spec(params["spec"], consts)
    a_const = parse_transform_constant(params["A"], consts.hbar)
    k = np.array([params["kx"], params["ky"], params["kz"]])

    disp = dispersion_quadratic(spec, a_const, k)
    if params["on_shell"]:
        omega = disp.positive_root()
    elif params["omega"] is not None:
        omega = params["omega"]
    else:
        raise CliValidationError("provide --omega or --on-shell")

    alpha = np.array([k[0], k[1], k[2], omega])
    wave = AnalyticField.plane_wave(1.0, alpha)
    transformed = spec if spec.homogeneous else log_transform(spec, a_const)
    origin = np.zeros(4)
    nonlinear = residual_nonlinear(transformed, wave, origin)
    linear = residual_linear(linearize(transformed), wave, origin)
    decomp = residual_decomposition_check(transformed, a_const, wave, origin)

    write_json(
        os.path.join(out, "residual.json"),
        {
            "command": "residual",
            "alpha": [float(a) for a in alpha],
            "dispersion_roots": [complex(r) for r in disp.roots],
            "nonlinear_residual": complex(nonlinear),
            "linear_residual": complex(linear),
            "decomposition": {
                "lhs": complex(decomp.lhs),
                "rhs": complex(decomp.rhs),
                "mismatch": decomp.mismatch,
                "log_curvature_term": complex(decomp.log_curvature_term),
            },
        },
    )
    print(
        f"residuals at omega={omega:.6g}: nonlinear {abs(nonlinear):.3e}, "
        f"linear {abs(linear):.3e} (results in {out})"
    )
    return 0


def cmd_newton(params: dict) -> int:
    consts = _consts(params)
    out = ensure_dir(params["_out"])
    kind = params["potential"]
    if kind == "free":
        potential = Potential.free()
    elif kind == "linear":
        potential = Potential.linear(_vec3_param(params["force"], "force"))
    elif kind == "harmonic":
        potential = Potential.harmonic(params["kappa"])
    else:
        raise CliValidationError(f"unknown potential {kind!r}")

    r0 = _vec3_param(params["r0"], "r0")
    p0 = _vec3_param(params["p0"], "p0")
    traj = integrate_newton(
        potential, r0, p0, consts, dt=params["dt"], steps=params["steps"]
    )
    traj.to_csv(os.path.join(out, "trajectory.csv"), potential, consts)
    energies = traj.energies(potential, consts)
    e0 = float(energies[0])
    drift = float(np.max(np.abs(energies - e0))) / max(abs(e0), 1e-300)
    speeds = traj.speeds(consts)
    write_json(
        os.path.join(out, "summary.json"),
        {
            "command": "newton",
            "potential": kind,
            "steps": params["steps"],
            "dt": params["dt"],
            "energy_drift_rel": drift,
            "max_speed_over_c": float(np.max(speeds)) / consts.c,
            "final_r": [float(v) for v in traj.r[-1]],
            "final_p": [float(v) for v in traj.p[-1]],
        },
    )
    print(
        f"{kind} trajectory: {params['steps']} steps, relative energy drift "
        f"{drift:.3e} (results in {out})"
    )
    return 0


def cmd_limit_study(params: dict) -> int:
    out = ensure_dir(params["_out"])
    cfg = LimitStudyConfig(
        k=params["k"],
        c_values=tuple(params["c_values"]),
        m0=params["m0"],
        hbar=params["hbar"],
        evolution_time=params["time"],
        grid_points=params["points"],
        mode=params["mode"],
    )
    report = run_limit_study(cfg)
    report.to_csv(os.path.join(out, "limit_study.csv"))
    report.to_json(os.path.join(out, "limit_study.json"))
    freq = report.frequency_fit
    fld = report.field_fit
    print(
        "limit study: frequency-gap order "
        + (f"{freq.order:.3f}" if freq else "n/a")
        + ", field-gap order "
        + (f"{fld.order:.3f}" if fld else "n/a")
        + f" (results in {out})"
    )
    for w in report.warnings:
        print(f"warning: {w}")
    return 0


def cmd_verify_all(params: dict) -> int:
    out = ensure_dir(params["_out"])
    results = verify.run_all(seed=params["seed"])
    rows = []
    width = max(len(r.name) for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"[{status}] {r.name:<{width}}  {r.detail}")
        rows.append((r.name, r.passed, r.detail))
    passed = sum(r.passed for r in results)
    print(f"verified {passed}/{len(results)} checks")
    write_csv(
        os.path.join(out, "verify_report.csv"),
        ["check", "passed", "detail"],
        rows,
    )
    write_json(
        os.path.join(out, "verify_report.json"),
        {
            "command": "verify-all",
            "passed": passed,
            "total": len(results),
            "checks": [
                {"name": r.name, "passed": r.passed, "detail": r.detail}
                for r in results
            ],
        },
    )
    return 0 if passed == len(results) else 3


DISPATCH: dict[str, Callable[[dict], int]] = {
    "dispersion": cmd_dispersion,
    "transform": cmd_transform,
    "solve": cmd_solve,
    "residual": cmd_residual,
    "newton": cmd_newton,
    "limit-study": cmd_limit_study,
    "verify-all": cmd_verify_all,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hjwave",
        description="Verification scenarios for the Hamilton-Jacobi / wave "
                    "duality toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, extra in COMMANDS.items():
        p = sub.add_parser(command, help=f"run the {command} scenario")
        for param in extra + COMMON_PARAMS:
            param.add_to(p)
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--scenario", default=None,
                       help="JSON scenario file with parameters")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        params = resolve_params(args.command, args)
        # non-finite results end in exit 3 through the solver guards and the
        # JSON writer; numpy's warnings would add stray stderr lines
        with np.errstate(all="ignore"):
            return DISPATCH[args.command](params)
    except (CliValidationError, HjwaveError, ValueError, OSError) as exc:
        if isinstance(exc, OSError):
            code = 4
        elif isinstance(exc, ValueError):
            code = 2
        else:
            code = 3
        report = {
            "error": {
                "type": type(exc).__name__,
                "message": str(exc),
                "exit_code": code,
            }
        }
        print(json.dumps(report), file=sys.stderr)
        return code


if __name__ == "__main__":
    raise SystemExit(main())
