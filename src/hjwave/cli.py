"""Scenario runner: every module surface behind one deterministic CLI.

Subcommands: dispersion | transform | solve | residual | newton |
limit-study | verify-all.  ``COMMANDS`` declares exactly the parameters
each command reads and builds its flags and scenario keys from them; a
physical constant a command does not declare keeps its PhysicalConstants
default (verify-all works in fixed natural units and takes only a seed).
Parameters come from flags, from a JSON scenario file (``--scenario``), or
both, with flags winning; undeclared flags and unknown or ill-typed
scenario keys abort before any computation.  All outputs are
CSV tables plus a JSON summary with 17-significant-digit floats, so a
rerun of the same scenario and seed is byte-identical.

Each ``cmd_*`` computes and returns a CommandResult: its files, its
stdout lines and its failure, if any.  ``main`` alone writes: it creates
the output directory only after the command has succeeded and every JSON
output has been encoded, so a failed command leaves no directory and no
file.  A failed verify-all check is the one failure reported after the
files: the report is written, then the error line follows.

Exit codes: 0 success, 2 validation failure, 3 numerical failure
(overflow and division by zero included) or failed verify-all check,
4 I/O failure.  Failures, an unparsable command line included, emit a
one-line JSON error report on stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import verify
from .errors import HjwaveError, NumericalError, VerificationError
from .fields import Grid, ScalarField, save_field
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
    _unpair,
    residual_decomposition_check,
    dispersion_quadratic,
    hje_pde_spec,
    linearize,
    load_pde_spec,
    log_transform,
    residual_linear,
    residual_nonlinear,
)
from .reporting import json_dumps, write_csv
from .solvers import (
    leapfrog_stability_limit,
    require_solver_grid,
    solve_plane_wave,
)


class CliValidationError(ValueError):
    """Bad command line, scenario file, or parameter combination."""


# every literal float() accepts after a '-' is a flag value, not an option
# (argparse's own pattern misses -1e-3 and -inf)
_NEGATIVE_NUMBER = re.compile(
    r"-(?:inf(?:inity)?|nan|(?:\d(?:_?\d)*(?:\.(?:\d(?:_?\d)*)?)?"
    r"|\.\d(?:_?\d)*)(?:e[-+]?\d(?:_?\d)*)?)\Z", re.IGNORECASE)


class _Parser(argparse.ArgumentParser):
    """Raises a bad command line as CliValidationError instead of printing
    the usage and exiting; subparsers are built from the same class.  Long
    flags must be spelled out: ``limit-study --c`` is not ``--c-values``."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def error(self, message):
        raise CliValidationError(message)


def _as_float(value) -> float:
    """A scenario number: JSON strings, bools, lists and objects are not."""
    if isinstance(value, (bool, list, dict, str)):
        raise TypeError
    return float(value)


@dataclass(frozen=True)
class Param:
    """One command parameter: flag wiring plus scenario-value coercion."""

    name: str
    kind: str  # float | int | str | flag | float_list
    default: object
    help: str

    def add_to(self, parser: argparse.ArgumentParser) -> None:
        if self.kind == "flag":
            kwargs = {"action": "store_true"}
        elif self.kind == "float_list":
            kwargs = {"type": float, "action": "append"}
        else:
            kwargs = {"type": {"float": float, "int": int, "str": str}[self.kind]}
        parser.add_argument("--" + self.name.replace("_", "-"), dest=self.name,
                            default=None, help=self.help, **kwargs)

    def coerce(self, value):
        """Validate a flag or scenario-file value; numbers must be finite."""
        try:
            if self.kind == "float":
                value = _as_float(value)
            elif self.kind == "float_list":
                if not isinstance(value, list) or not value:
                    raise TypeError
                value = [_as_float(v) for v in value]
            else:
                # int, str and flag take JSON's own type; a bool is not an int
                typ = {"int": int, "str": str, "flag": bool}[self.kind]
                if not isinstance(value, typ) or (
                        typ is int and isinstance(value, bool)):
                    raise TypeError
                return value
        except (OverflowError, TypeError, ValueError):
            raise CliValidationError(
                f"parameter {self.name!r} expects a value of kind {self.kind}"
            ) from None
        if not np.all(np.isfinite(value)):
            raise CliValidationError(f"{self.name} must be finite")
        return value


_HBAR = Param("hbar", "float", 1.0, "action quantum (default 1)")
_C = Param("c", "float", 1.0, "speed of light (default 1)")
_M0 = Param("m0", "float", 1.0, "rest mass (default 1; 0 selects massless)")

COMMANDS: dict[str, tuple[Param, ...]] = {
    "dispersion": (
        Param("k", "float_list", [0.0],
              "wavenumber magnitude; repeat the flag for a sweep"),
        _HBAR, _C, _M0,
    ),
    "transform": (
        Param("spec", "str", "hje-massive",
              "PDE spec JSON path, or builtin 'hje-massive' / 'hje-massless'"),
        Param("A", "str", "hbar/i",
              "transform constant: 'hbar/i', a real number, or '[re,im]'"),
        Param("emit_linear", "flag", False,
              "also write the equivalent linear second-order PDE"),
        _HBAR, _C, _M0,
    ),
    "solve": (
        Param("equation", "str", "relativistic",
              "wave | relativistic | schrodinger"),
        Param("dims", "int", 1, "grid dimensionality: 1 or 3"),
        Param("points", "int", 64, "grid points per axis"),
        Param("length", "float", 2 * math.pi, "box length per axis"),
        Param("mode", "int", 1, "plane-wave mode number (k = 2 pi mode/length),"
              " |mode| <= points // 2"),
        Param("dt", "float", None, "time step (default: cfl * stability limit)"),
        Param("cfl", "float", 0.5, "fraction of the stability limit for dt"),
        Param("steps", "int", 200, "number of time steps"),
        _HBAR, _C, _M0,
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
        _HBAR, _C, _M0,
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
        _C, _M0,
    ),
    "limit-study": (
        Param("k", "float", 1.0, "plane-wave wavenumber"),
        Param("c_values", "float_list", [4.0, 8.0, 16.0, 32.0, 64.0, 128.0],
              "ascending light speeds to sweep"),
        Param("time", "float", 5e-4, "physical evolution time per run"),
        Param("points", "int", 64, "grid points on one wavelength 2 pi / k"),
        _HBAR, _M0,
        # not read; bench/workloads.py LimitSweep passes it (ROADMAP item 1)
        Param("seed", "int", 0, "accepted and ignored"),
    ),
    "verify-all": (
        Param("seed", "int", 0, "seed for the randomized verification fields"),
    ),
}


def parse_transform_constant(text: str, hbar: float) -> complex:
    """Accepted spellings: 'hbar/i', a finite real literal, or '[re,im]'.

    A pair follows the spec files' rule: two finite JSON numbers.
    """
    text = text.strip()
    if text == "hbar/i":
        return hbar / 1j
    try:
        if text.startswith("["):
            return _unpair(json.loads(text))
        value = float(text)
        if not math.isfinite(value):
            raise ValueError
        return complex(value)
    except (OverflowError, ValueError):
        raise CliValidationError(
            f"cannot parse transform constant {text!r}"
        ) from None


def _load_spec(name: str, consts: PhysicalConstants):
    if name in ("hje-massive", "hje-massless"):
        return hje_pde_spec(consts if name == "hje-massive"
                            else replace(consts, m0=0.0))
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
    params = {p.name: p for p in COMMANDS[command]}
    resolved = {name: p.default for name, p in params.items()}
    out_dir = "hjwave-out"

    if args.scenario is not None:
        try:
            with open(args.scenario) as fh:
                scenario = json.load(fh)
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
            resolved[name] = params[name].coerce(flag_value)
    if args.out is not None:
        out_dir = args.out
    resolved["_out"] = out_dir
    return resolved


def _consts(params: dict) -> PhysicalConstants:
    return PhysicalConstants(**{n: params[n] for n in ("hbar", "c", "m0")
                                if n in params})


# ---------------------------------------------------------------------------
# Command implementations: each computes and returns; main writes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CommandResult:
    """A command's output files, its stdout lines and its failure, if any.

    ``files`` maps a file name to a CSV table ``(header, columns)``, a
    ScalarField or a JSON object (a dict or a dataclass instance).  An
    ``error`` (failed verify-all checks) is reported, and sets the exit
    code, after the files are written.
    """

    files: dict[str, object]
    lines: list[str]
    error: HjwaveError | None = None


def cmd_dispersion(params: dict) -> CommandResult:
    consts = _consts(params)
    rows = []
    for k in params["k"]:
        if not 0 <= k < math.inf:
            raise CliValidationError("k must be finite and >= 0")
        omega = dispersion_omega(k, consts)
        # nan, the one non-finite cell: a massive wave at rest has no v_phase
        vph = math.nan if k == 0 and consts.m0 > 0 else phase_velocity(k, consts)
        vgr = math.hypot(*group_velocity((k, 0.0, 0.0), consts).tolist())
        if not (math.isfinite(omega) and math.isfinite(vgr)) or math.isinf(vph):
            raise NumericalError(f"non-finite dispersion row at k = {k!r}")
        rows.append((float(k), omega, vph, vgr))
    return CommandResult(
        {
            "dispersion.csv": (["k", "omega", "v_phase", "v_group"],
                               list(zip(*rows))),
            "summary.json": {"command": "dispersion", "hbar": consts.hbar,
                             "c": consts.c, "m0": consts.m0,
                             "count": len(rows)},
        },
        [f"wrote {len(rows)} dispersion rows to {params['_out']}"],
    )


def cmd_transform(params: dict) -> CommandResult:
    consts = _consts(params)
    spec = _load_spec(params["spec"], consts)
    a_const = parse_transform_constant(params["A"], consts.hbar)
    transformed = log_transform(spec, a_const)
    files = {"transformed_spec.json": transformed}
    if params["emit_linear"]:
        files["linear_spec.json"] = linearize(transformed)
    files["summary.json"] = {
        "command": "transform",
        "spec": params["spec"],
        "A": a_const,
        "emit_linear": bool(params["emit_linear"]),
    }
    return CommandResult(files, [f"wrote transformed spec to {params['_out']}"])


def cmd_solve(params: dict) -> CommandResult:
    """Evolve the plane wave of ``mode`` through solve_plane_wave; dt
    defaults to ``cfl`` times the leapfrog stability limit, massless unless
    the equation is relativistic.  A mode past points // 2 would alias on
    the grid, and is refused."""
    consts = _consts(params)
    equation = params["equation"]
    if equation not in ("wave", "relativistic", "schrodinger"):
        raise CliValidationError(f"unknown equation {equation!r}")
    if params["dims"] not in (1, 3):
        raise CliValidationError("dims must be 1 or 3")
    grid = Grid((params["points"],) * params["dims"],
                (params["length"],) * params["dims"])
    require_solver_grid(grid)  # before the stability limit and any array

    mode, bound = params["mode"], params["points"] // 2
    if abs(mode) > bound:  # past Nyquist the samples alias to mode - points
        raise CliValidationError(f"mode {mode} is out of range: |mode| must "
                                 f"not exceed points // 2 = {bound}")
    k = 2 * math.pi * mode / params["length"]
    dt = params["dt"]
    if dt is None:
        mu = consts.rest_frequency if equation == "relativistic" else 0.0
        dt = params["cfl"] * leapfrog_stability_limit(grid, consts.c, mu)
    steps = params["steps"]
    report, omega, error = solve_plane_wave(equation, grid, k, consts, dt, steps)
    tee = report.final.time_stamp
    norms = report.diagnostics.norm
    drift = float(np.max(np.abs(norms / norms[0] - 1.0)))
    summary = {
        "command": "solve",
        "equation": equation,
        "k": k,
        "omega_analytic": omega,
        "dt": dt,
        "steps": steps,
        "final_time": tee,
        "final_norm": norms[-1],
        "max_norm_drift": drift,
        "error_vs_analytic": error,
    }
    return CommandResult(
        {
            "final.field": report.final,
            "diagnostics.csv": report.diagnostics.table(),
            "summary.json": summary,
        },
        [f"{equation}: {steps} steps to t={tee:.6g}, "
         f"plane-wave error {error:.3e} (results in {params['_out']})"],
    )


def cmd_residual(params: dict) -> CommandResult:
    consts = _consts(params)
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

    residual = {
        "command": "residual",
        "alpha": alpha,
        "dispersion_roots": disp.roots,
        "nonlinear_residual": nonlinear,
        "linear_residual": linear,
        "decomposition": decomp,
    }
    return CommandResult(
        {"residual.json": residual},
        [f"residuals at omega={omega:.6g}: nonlinear {abs(nonlinear):.3e}, "
         f"linear {abs(linear):.3e} (results in {params['_out']})"],
    )


def cmd_newton(params: dict) -> CommandResult:
    consts = _consts(params)
    kind = params["potential"]
    if kind == "free":
        potential = Potential.free()
    elif kind == "linear":
        potential = Potential.linear(params["force"])
    elif kind == "harmonic":
        potential = Potential.harmonic(params["kappa"])
    else:
        raise CliValidationError(f"unknown potential {kind!r}")

    traj = integrate_newton(potential, params["r0"], params["p0"], consts,
                            dt=params["dt"], steps=params["steps"])
    energies = traj.energies(potential, consts)
    e0 = float(energies[0])
    drift = float(np.max(np.abs(energies - e0))) / max(abs(e0), 1e-300)
    speeds = traj.speeds(consts)
    summary = {
        "command": "newton",
        "potential": kind,
        "steps": params["steps"],
        "dt": params["dt"],
        "energy_drift_rel": drift,
        "max_speed_over_c": float(np.max(speeds)) / consts.c,
        "final_r": traj.r[-1],
        "final_p": traj.p[-1],
    }
    return CommandResult(
        {
            "trajectory.csv": traj.table(energies),
            "summary.json": summary,
        },
        [f"{kind} trajectory: {params['steps']} steps, relative energy drift "
         f"{drift:.3e} (results in {params['_out']})"],
    )


def cmd_limit_study(params: dict) -> CommandResult:
    cfg = LimitStudyConfig(
        k=params["k"],
        c_values=tuple(params["c_values"]),
        m0=params["m0"],
        hbar=params["hbar"],
        evolution_time=params["time"],
        grid_points=params["points"],
    )
    report = run_limit_study(cfg)
    freq, fld = (f"{fit.order:.3f}" if fit else "n/a"
                 for fit in (report.frequency_fit, report.field_fit))
    headline = (f"limit study: frequency-gap order {freq}, field-gap order "
                f"{fld} (results in {params['_out']})")
    return CommandResult(
        {
            "limit_study.csv": report.table(),
            "limit_study.json": report,
        },
        [headline] + [f"warning: {w}" for w in report.warnings],
    )


def cmd_verify_all(params: dict) -> CommandResult:
    if params["seed"] < 0:  # first, so a check's own error is its failure
        raise CliValidationError(f"seed must be >= 0, got {params['seed']}")
    results = verify.run_all(seed=params["seed"])
    width = max(len(r.name) for r in results)
    lines = [
        f"[{'PASS' if r.passed else 'FAIL'}] {r.name:<{width}}  {r.detail}"
        for r in results
    ]
    passed = sum(r.passed for r in results)
    lines.append(f"verified {passed}/{len(results)} checks")
    failed = [r.name for r in results if not r.passed]
    report = {
        "command": "verify-all",
        "passed": passed,
        "total": len(results),
        # JSON has no nan or inf: a non-finite measured value is written null
        "checks": [replace(r, measures=[
            replace(m, value=m.value if math.isfinite(m.value) else None)
            for m in r.measures]) for r in results],
    }
    return CommandResult(
        {
            "verify_report.csv": (
                ["check", "passed", "detail"],
                list(zip(*[(r.name, r.passed, r.detail) for r in results])),
            ),
            "verify_report.json": report,
        },
        lines,
        VerificationError("failed checks: " + ", ".join(failed))
        if failed else None,
    )


DISPATCH: dict[str, Callable[[dict], CommandResult]] = {
    "dispersion": cmd_dispersion,
    "transform": cmd_transform,
    "solve": cmd_solve,
    "residual": cmd_residual,
    "newton": cmd_newton,
    "limit-study": cmd_limit_study,
    "verify-all": cmd_verify_all,
}


# Built once per process; main only parses with it.  A fresh parser per
# call leaves new attribute-name strings in the interpreter's type
# attribute cache, scattered over allocator arenas that would otherwise be
# freed: the evolve-and-write benchmark's pass loop grew by about 0.4 MB a
# pass that way.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hjwave",
        description="Verification scenarios for the Hamilton-Jacobi / wave "
                    "duality toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, declared in COMMANDS.items():
        p = sub.add_parser(command, help=f"run the {command} scenario")
        for param in declared:
            param.add_to(p)
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--scenario", default=None,
                       help="JSON scenario file with parameters")
    return parser


def _write_outputs(out: str, files: dict[str, object]) -> None:
    """Create ``out`` and write every file of a command.

    Every JSON object is encoded once, before the directory is created, so
    a value JSON cannot hold (nan, inf) raises NumericalError and leaves
    nothing on disk.
    """
    texts = {name: json_dumps(data) for name, data in files.items()
             if not isinstance(data, (tuple, ScalarField))}
    os.makedirs(out, exist_ok=True)
    for name, data in files.items():
        path = os.path.join(out, name)
        if name in texts:
            with open(path, "w", newline="\n") as fh:
                fh.write(texts[name])
        elif isinstance(data, ScalarField):
            save_field(path, data)
        else:
            write_csv(path, *data)


def _report_error(exc: Exception) -> int:
    """Print the one-line JSON error report for ``exc``; return its exit code."""
    code = (4 if isinstance(exc, OSError)
            else 2 if isinstance(exc, ValueError) else 3)
    error = {"type": type(exc).__name__, "message": str(exc), "exit_code": code}
    print(json.dumps({"error": error}), file=sys.stderr)
    return code


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        params = resolve_params(args.command, args)
        # non-finite results end in exit 3 through the solver guards and the
        # JSON encoder; numpy's warnings would add stray stderr lines
        with np.errstate(all="ignore"):
            result = DISPATCH[args.command](params)
            _write_outputs(params["_out"], result.files)
    except (CliValidationError, HjwaveError, ValueError, OSError,
            ArithmeticError) as exc:
        return _report_error(exc)
    for line in result.lines:
        print(line)
    return _report_error(result.error) if result.error else 0


if __name__ == "__main__":
    raise SystemExit(main())
