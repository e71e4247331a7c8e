"""The acceptance criteria, one registry for ``verify-all`` and the tests.

Each ``check_*`` function returns its ``Measure(label, value, lo, hi)``
list, from closed forms or refinement studies; a band is closed (a strict
bound is its neighbouring float) and ``None`` is an open side.
``@registered(budget_s)`` files the function in ``CHECKS`` under its name
and its budget in ``BUDGET_S``, and judges it by one rule: it passes when
every measure lies in its band, its detail is every measure's ``str``,
and an HjwaveError, ArithmeticError or ValueError fails it alone, with the
error as its detail.  ``run_all`` (behind ``hjwave verify-all``) and
``tests/test_acceptance.py`` iterate the registry.  The seed moves only
``random_mode_field`` and the round-trip draws; for a fixed seed every
result, detail string included, is deterministic.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .convergence import OrderFit, fit_order
from .errors import HjwaveError
from .fields import (
    Grid,
    ScalarField,
    field_from_bytes,
    field_to_bytes,
    plane_wave_field,
)
from .kinematics import (
    ParticleState,
    PhysicalConstants,
    PlaneWave,
    de_broglie_momentum,
    dispersion_omega,
    group_velocity,
    particle_velocity,
    phase_velocity,
    planck_energy,
)
from .limits import LimitStudyConfig, run_limit_study
from .mechanics import (
    Potential,
    curl_check,
    integrate_newton,
)
from .pde_algebra import (
    action_from_wavefunction,
    decomposition_defect,
    dispersion_quadratic,
    hje_pde_spec,
    hje_pde_spec_1d,
    linearize,
    log_transform,
    pde_spec_dumps,
    pde_spec_loads,
    wavefunction_from_action,
)
from .solvers import (
    eigen_checks,
    hje_residual,
    leapfrog_stability_limit,
    log_curvature_check,
    solve_plane_wave,
)


@dataclass(frozen=True)
class Measure:
    """A measured value and its band [lo, hi]; None leaves a side open."""

    label: str
    value: float
    lo: float | None = None
    hi: float | None = None

    def within(self) -> bool:
        """lo <= value <= hi; a nan lies in no band."""
        return ((-math.inf if self.lo is None else self.lo) <= self.value
                <= (math.inf if self.hi is None else self.hi))

    def __str__(self) -> str:
        lo = "" if self.lo is None else f"{self.lo!r} <= "
        hi = "" if self.hi is None else f" <= {self.hi!r}"
        return f"{lo}{self.label} {self.value:.4g}{hi}"


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    measures: tuple[Measure, ...] = ()


CHECKS: dict[str, Callable[[int], CheckResult]] = {}
BUDGET_S: dict[str, float] = {}  # each check's wall-time budget, in seconds


def registered(budget_s: float):
    """Register ``check_<name>(seed) -> measures`` as check ``<name>``."""
    def register(measure: Callable[[int], Iterable[Measure]]):
        name = measure.__name__.removeprefix("check_").replace("_", "-")

        @functools.wraps(measure)
        def check(seed: int) -> CheckResult:
            try:
                measures = tuple(measure(seed))
            except (HjwaveError, ArithmeticError, ValueError) as exc:
                return CheckResult(name, False, f"{type(exc).__name__}: {exc}")
            return CheckResult(name, all(m.within() for m in measures),
                               ", ".join(map(str, measures)), measures)

        CHECKS[name] = check
        BUDGET_S[name] = budget_s
        return check
    return register


NATURAL = PhysicalConstants(1.0, 1.0, 1.0)
A_QM = NATURAL.hbar / 1j


def _max_abs(values) -> float:
    return float(np.max(np.abs(values)))


@registered(budget_s=1.0)
def check_dispersion_chain(seed: int) -> list[Measure]:
    spec = hje_pde_spec(NATURAL)
    errors = []  # np.max, unlike max, keeps a nan
    for k in np.linspace(0.0, 10.0, 20):
        root = dispersion_quadratic(spec, A_QM, (k, 0.0, 0.0)).positive_root()
        target = dispersion_omega(k, NATURAL)
        errors.append(abs(root - target) / target)
    return [Measure("max relative root error", _max_abs(errors), hi=1e-12)]


@registered(budget_s=1.0)
def check_transform_linearize(seed: int) -> list[Measure]:
    lin = linearize(log_transform(hje_pde_spec(NATURAL), A_QM))
    # hbar^2 d_tt - hbar^2 c^2 lap with zeroth +m0^2 c^4, one global sign
    target = np.diag([-1.0, -1.0, -1.0, 1.0]).astype(complex)
    matrix = _max_abs(-lin.second_order_coeffs - target)
    return [Measure("wave-operator matrix defect", matrix, hi=0.0),
            Measure("zeroth-term defect", abs(-lin.zeroth_coeff - 1.0), hi=0.0)]


@registered(budget_s=1.0)
def check_dual_solutions(seed: int) -> list[Measure]:
    grid = Grid.line(32, 2 * math.pi)
    massless = PhysicalConstants(1.0, 1.0, 0.0)
    particle = ParticleState.from_momentum((2.0, 0.0, 0.0), massless)
    r1 = hje_residual(particle, massless, grid=grid).max_abs()
    wave = PlaneWave.on_shell(1.0, (3.0, 0.0, 0.0), massless)
    r2 = hje_residual(wave, massless, grid=grid).max_abs()
    off = hje_residual(ParticleState(E=1.0, p=(1.0, 0.0, 0.0)), NATURAL,
                       grid=grid)
    return [Measure("particle residual", r1, hi=1e-12),
            Measure("wave residual", r2, hi=1e-12),
            # each point of the off-shell residual reads exactly -1
            Measure("off-shell witness defect", _max_abs(off.values + 1.0),
                    hi=0.0)]


@registered(budget_s=10.0)
def check_eigen_log_curvature(seed: int) -> list[Measure]:
    k = 1.0
    omega = dispersion_omega(k, NATURAL)
    hs, defects = [], []
    for n in (64, 128, 256):
        grid = Grid.line(n, 2 * math.pi)
        dt = 0.5 * grid.spacing
        levels = [plane_wave_field(grid, k, omega, t=i * dt) for i in range(3)]
        hs.append(grid.spacing)
        defects.append((*eigen_checks(
            (levels[0], levels[1]), de_broglie_momentum((k, 0.0, 0.0), NATURAL),
            planck_energy(omega, NATURAL), NATURAL),
            *log_curvature_check(levels)))
    return [Measure(f"{name} defect order", fit_order(hs, errs).order, 1.9, 2.1)
            for name, errs in zip(("momentum", "energy", "space", "time"),
                                  zip(*defects))]


# random_mode_field: plane waves per field and their amplitude scale
_RANDOM_MODES = 3
_RANDOM_AMPLITUDE = 1e-3


def random_mode_field(grid: Grid, seed: int) -> ScalarField:
    """1 + a small seeded superposition of integer-mode plane waves.

    Each mode is plane_wave_field's sample at t = 0, which with more than
    one axis differs from one exp of the summed phase by rounding.
    """
    rng = np.random.default_rng(seed)
    values = np.ones(grid.shape, dtype=np.complex128)
    for _ in range(_RANDOM_MODES):
        alpha = rng.integers(-2, 3, size=grid.ndim)
        while not np.any(alpha):
            alpha = rng.integers(-2, 3, size=grid.ndim)
        amp = (_RANDOM_AMPLITUDE * (0.5 + rng.random())
               * np.exp(2j * np.pi * rng.random()))
        values += plane_wave_field(grid, alpha, 0.0, amplitude=amp).values
    return ScalarField(grid, values)


@registered(budget_s=10.0)
def check_residual_decomposition(seed: int) -> list[Measure]:
    transformed = log_transform(hje_pde_spec_1d(NATURAL), A_QM)
    coarse, fine = (decomposition_defect(transformed, A_QM, random_mode_field(
        Grid((n, n), (2 * math.pi, 2 * math.pi)), seed)) for n in (128, 256))
    # the grids share the coarse points, where the h^2 terms cancel
    extrapolated = _max_abs(4 * fine[::2, ::2] - coarse) / 3
    raw = _max_abs(fine)
    return [Measure("mismatch at n=256", raw),  # reported, not gated
            Measure("extrapolated defect", extrapolated, hi=4e-10),
            Measure("refinement ratio", _max_abs(coarse) / raw, 3.8, 4.2)]


def _leapfrog_plane_wave(n: int, equation: str, steps: int | None = None):
    """solve_plane_wave of the k = 1 wave on n points, by leapfrog.

    wave: dt = h/2c, by default n/2 steps (t = pi/2).  relativistic: half
    the stability limit, by default to t ~ 1.
    """
    grid = Grid.line(n, 2 * math.pi)
    if equation == "wave":
        dt, default_steps = 0.5 * grid.spacing / NATURAL.c, n // 2
    else:
        dt = 0.5 * leapfrog_stability_limit(grid, NATURAL.c,
                                            NATURAL.rest_frequency)
        default_steps = int(round(1.0 / dt))
    return solve_plane_wave(equation, grid, 1.0, NATURAL, dt,
                            steps or default_steps)


@registered(budget_s=60.0)
def check_wave_solver_order(seed: int) -> list[Measure]:
    orders = []
    for equation in ("wave", "relativistic"):
        hs, errs = [], []
        for n in (32, 64, 128):
            report, _, error = _leapfrog_plane_wave(n, equation)
            hs.append(report.final.grid.spacing)
            errs.append(error)
        orders.append(fit_order(hs, errs).order)

    energy = _leapfrog_plane_wave(64, "relativistic",
                                  10_000)[0].diagnostics.energy
    oscillation = _max_abs(energy - energy[0]) / abs(energy[0])
    return [Measure("massless error order", orders[0], 1.9, 2.1),
            Measure("massive error order", orders[1], 1.9, 2.1),
            Measure("energy oscillation over 1e4 steps", oscillation, hi=1e-6)]


@registered(budget_s=60.0)
def check_schrodinger_cn(seed: int) -> list[Measure]:
    k = 1.0
    tee = 0.5
    hs, errs = [], []
    for n in (32, 64, 128):
        grid = Grid.line(n, 2 * math.pi)
        steps = 25 * (n // 32)
        hs.append(grid.spacing)
        errs.append(solve_plane_wave("schrodinger", grid, k, NATURAL,
                                     tee / steps, steps)[2])

    norms = solve_plane_wave("schrodinger", Grid.line(64, 2 * math.pi), k,
                             NATURAL, 5e-4, 10_000)[0].diagnostics.norm
    drift = _max_abs(norms[1:] / norms[:-1] - 1.0)
    return [Measure("phase error order", fit_order(hs, errs).order, 1.9, 2.1),
            Measure("per-step norm drift over 1e4 steps", drift, hi=1e-12)]


@registered(budget_s=1.0)
def check_velocity_duality(seed: int) -> list[Measure]:
    dual_gaps, prod_gaps = [], []  # np.max, unlike max, keeps a nan
    for k in np.logspace(-3, 3, 50):
        kvec = np.array([k, 0.0, 0.0])
        vg = group_velocity(kvec, NATURAL)
        vp = particle_velocity(NATURAL.hbar * kvec, NATURAL)
        dual_gaps.append(_max_abs(vg - vp))
        prod = phase_velocity(k, NATURAL) * float(np.linalg.norm(vg))
        prod_gaps.append(prod - NATURAL.c**2)
    return [Measure("group-particle gap over 50 k", _max_abs(dual_gaps),
                    hi=1e-12),
            Measure("vph*vgr-c^2 over 50 k", _max_abs(prod_gaps), hi=1e-12)]


@registered(budget_s=120.0)
def check_limit_frequency_order(seed: int) -> list[Measure]:
    report = run_limit_study(LimitStudyConfig())
    no_fit = OrderFit(math.nan, math.nan)  # lies in no band
    freq, fld = report.frequency_fit or no_fit, report.field_fit or no_fit
    return [Measure("frequency-gap order", freq.order, 1.9, 2.1),
            Measure("frequency fit residual", freq.log10_residual,
                    hi=math.nextafter(0.05, -math.inf)),  # below 0.05
            Measure("field-gap order", fld.order, 1.8, 2.2)]


@registered(budget_s=10.0)
def check_newton_rk4(seed: int) -> list[Measure]:
    force = np.array([1.0, 0.0, 0.0])
    traj = integrate_newton(
        Potential.linear(force), np.zeros(3), np.zeros(3),
        NATURAL, dt=1e-3, steps=1000,
    )
    worst_p = _max_abs(traj.p - traj.t[:, None] * force)

    p0 = np.array([0.4, -0.3, 0.2])
    free = integrate_newton(
        Potential.free(), np.ones(3), p0, NATURAL, dt=5e-3, steps=400
    )
    worst_free = _max_abs(free.p - p0)  # grad S = p0

    pot = Potential.harmonic(1.0)
    dts = (2e-2, 1e-2, 5e-3)
    drifts = []
    for dt in dts:
        traj_h = integrate_newton(
            pot, np.array([1.0, 0.0, 0.0]), np.zeros(3), NATURAL,
            dt=dt, steps=int(round(2.0 / dt)),
        )
        energies = traj_h.energies(pot, NATURAL)
        drifts.append(_max_abs(energies - energies[0]))
    return [Measure("constant-force defect", worst_p, hi=1e-10),
            Measure("free drift", worst_free, hi=1e-12),
            Measure("energy order", fit_order(dts, drifts).order, 3.8, 4.2)]


@registered(budget_s=10.0)
def check_curl_witnesses(seed: int) -> list[Measure]:
    grid = Grid.cube(24, 2 * math.pi)
    xs, ys, zs = grid.meshgrid()
    gradient = np.stack([2 * xs, 2 * ys, np.zeros_like(zs)])
    rotational = np.stack([-ys, xs, np.zeros_like(zs)])
    return [Measure("gradient defect", curl_check(gradient, grid), hi=1e-6),
            Measure("rotational defect", curl_check(rotational, grid),
                    lo=math.nextafter(1.0, math.inf))]  # above 1


def _differing(a, b) -> float:
    """Positions where two strings differ, plus their length gap."""
    return float(sum(x != y for x, y in zip(a, b)) + abs(len(a) - len(b)))


@registered(budget_s=5.0)
def check_round_trips(seed: int) -> list[Measure]:
    rng = np.random.default_rng(seed + 2)

    # psi -> S -> psi on a unimodular field with |k| h < pi
    grid = Grid.line(128, 2 * math.pi)
    x = grid.axes()[0]
    theta = sum(
        (0.6 / m) * np.sin(m * x + 2 * np.pi * rng.random()) for m in (1, 2, 3)
    )
    psi = ScalarField(grid, np.exp(1j * theta))
    back = wavefunction_from_action(action_from_wavefunction(psi, NATURAL),
                                    NATURAL)
    field_err = _max_abs(back.values - psi.values)

    text = pde_spec_dumps(hje_pde_spec(PhysicalConstants(1.0, 2.9979, 0.511)))
    json_defect = _differing(pde_spec_dumps(pde_spec_loads(text)), text)

    blob = field_to_bytes(ScalarField(
        Grid.cube(8, 2 * math.pi),
        rng.standard_normal((8, 8, 8)) + 1j * rng.standard_normal((8, 8, 8)),
        time_stamp=0.375,
    ))
    binary_defect = _differing(field_to_bytes(field_from_bytes(blob)), blob)
    return [Measure("psi->S->psi error", field_err, hi=1e-12),
            Measure("json differing characters", json_defect, hi=0.0),
            Measure("binary differing bytes", binary_defect, hi=0.0)]


def run_all(seed: int = 0) -> list[CheckResult]:
    return [check(seed) for check in CHECKS.values()]
