"""The acceptance criteria, one registry for ``verify-all`` and the tests.

``CHECKS`` maps each check name to a function ``check(seed) -> CheckResult``
that re-derives its expected values from closed forms or refinement
studies.  Every configuration and bound of the criteria lives in that
function and nowhere else; ``BUDGET_S`` holds each check's wall-time
budget.  ``run_all`` (behind ``hjwave verify-all``) and
``tests/test_acceptance.py`` both iterate the registry.  The seed moves
the randomized fields of ``residual-decomposition`` and ``round-trips``;
for a fixed seed every result, detail string included, is deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .convergence import fit_order
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
class CheckResult:
    name: str
    passed: bool
    detail: str


NATURAL = PhysicalConstants(1.0, 1.0, 1.0)
A_QM = NATURAL.hbar / 1j


def check_dispersion_chain(seed: int) -> CheckResult:
    spec = hje_pde_spec(NATURAL)
    worst = 0.0
    for k in np.linspace(0.0, 10.0, 20):
        root = dispersion_quadratic(spec, A_QM, (k, 0.0, 0.0)).positive_root()
        target = dispersion_omega(k, NATURAL)
        worst = max(worst, abs(root - target) / target)
    return CheckResult(
        "dispersion-chain", worst <= 1e-12,
        f"max relative root error {worst:.3e} over 20 wavenumbers in [0, 10]",
    )


def check_transform_linearize(seed: int) -> CheckResult:
    lin = linearize(log_transform(hje_pde_spec(NATURAL), A_QM))
    # hbar^2 d_tt - hbar^2 c^2 lap with zeroth +m0^2 c^4, one global sign
    target = np.diag([-1.0, -1.0, -1.0, 1.0]).astype(complex)
    matrix = bool(np.array_equal(-lin.second_order_coeffs, target))
    zeroth = bool(-lin.zeroth_coeff == 1.0 + 0.0j)
    return CheckResult(
        "transform-linearize", matrix and zeroth,
        f"exact wave-operator coefficients: matrix={matrix}, zeroth={zeroth}",
    )


def check_dual_solutions(seed: int) -> CheckResult:
    grid = Grid.line(32, 2 * math.pi)
    massless = PhysicalConstants(1.0, 1.0, 0.0)
    p = 2.0
    particle = ParticleState.from_momentum((p, 0.0, 0.0), massless)
    r1 = hje_residual(particle, massless, grid=grid).max_abs()
    k = 3.0
    wave = PlaneWave.on_shell(1.0, (k, 0.0, 0.0), massless)
    r2 = hje_residual(wave, massless, grid=grid).max_abs()
    off = hje_residual(
        ParticleState(E=1.0, p=(1.0, 0.0, 0.0)), NATURAL, grid=grid
    )
    exact = bool(np.all(off.values == -1.0))
    ok = r1 <= 1e-12 and r2 <= 1e-12 and exact
    return CheckResult(
        "dual-solutions", ok,
        f"particle {r1:.2e}, wave {r2:.2e}, off-shell witness exact={exact}",
    )


def check_eigen_log_curvature(seed: int) -> CheckResult:
    k = 1.0
    omega = dispersion_omega(k, NATURAL)
    hs = []
    defects = {"momentum": [], "energy": [], "space": [], "time": []}
    for n in (64, 128, 256):
        grid = Grid.line(n, 2 * math.pi)
        dt = 0.5 * grid.spacing
        levels = [plane_wave_field(grid, k, omega, t=i * dt) for i in range(3)]
        mom, en = eigen_checks((levels[0], levels[1]),
                               de_broglie_momentum((k, 0.0, 0.0), NATURAL),
                               planck_energy(omega, NATURAL), NATURAL)
        spc, tim = log_curvature_check(levels)
        hs.append(grid.spacing)
        for name, value in zip(defects, (mom, en, spc, tim)):
            defects[name].append(value)
    orders = {name: fit_order(hs, errs).order for name, errs in defects.items()}
    ok = all(1.9 <= q <= 2.1 for q in orders.values())
    return CheckResult(
        "eigen-log-curvature", ok,
        "defect orders " + ", ".join(f"{name} {q:.3f}"
                                     for name, q in orders.items()),
    )


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


def check_residual_decomposition(seed: int) -> CheckResult:
    transformed = log_transform(hje_pde_spec_1d(NATURAL), A_QM)
    coarse, fine = (decomposition_defect(transformed, A_QM, random_mode_field(
        Grid((n, n), (2 * math.pi, 2 * math.pi)), seed)) for n in (128, 256))
    # the grids share the coarse points, where the h^2 terms cancel
    extrapolated = float(np.max(np.abs(4 * fine[::2, ::2] - coarse))) / 3
    raw = float(np.max(np.abs(fine)))
    ratio = float(np.max(np.abs(coarse))) / raw
    ok = extrapolated <= 4e-10 and 3.8 <= ratio <= 4.2
    return CheckResult(
        "residual-decomposition", ok,
        f"mismatch {raw:.3e} at n=256, extrapolated defect "
        f"{extrapolated:.3e}, refinement ratio {ratio:.3f}",
    )


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


def check_wave_solver_order(seed: int) -> CheckResult:
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
    oscillation = float(np.max(np.abs(energy - energy[0])) / abs(energy[0]))
    ok = all(1.9 <= q <= 2.1 for q in orders) and oscillation <= 1e-6
    return CheckResult(
        "wave-solver-order", ok,
        f"error orders: massless {orders[0]:.3f}, massive {orders[1]:.3f}; "
        f"energy oscillation {oscillation:.2e} over 1e4 steps",
    )


def check_schrodinger_cn(seed: int) -> CheckResult:
    k = 1.0
    tee = 0.5
    hs, errs = [], []
    for n in (32, 64, 128):
        grid = Grid.line(n, 2 * math.pi)
        steps = 25 * (n // 32)
        hs.append(grid.spacing)
        errs.append(solve_plane_wave("schrodinger", grid, k, NATURAL,
                                     tee / steps, steps)[2])
    order = fit_order(hs, errs).order

    norms = solve_plane_wave("schrodinger", Grid.line(64, 2 * math.pi), k,
                             NATURAL, 5e-4, 10_000)[0].diagnostics.norm
    drift = float(np.max(np.abs(norms[1:] / norms[:-1] - 1.0)))
    ok = 1.9 <= order <= 2.1 and drift <= 1e-12
    return CheckResult(
        "schrodinger-cn", ok,
        f"phase error order {order:.3f}, per-step norm drift {drift:.2e} "
        f"over 1e4 steps",
    )


def check_velocity_duality(seed: int) -> CheckResult:
    worst_dual = 0.0
    worst_prod = 0.0
    for k in np.logspace(-3, 3, 50):
        kvec = np.array([k, 0.0, 0.0])
        vg = group_velocity(kvec, NATURAL)
        vp = particle_velocity(NATURAL.hbar * kvec, NATURAL)
        worst_dual = max(worst_dual, float(np.max(np.abs(vg - vp))))
        prod = phase_velocity(k, NATURAL) * float(np.linalg.norm(vg))
        worst_prod = max(worst_prod, abs(prod - NATURAL.c**2))
    ok = worst_dual <= 1e-12 and worst_prod <= 1e-12
    return CheckResult(
        "velocity-duality", ok,
        f"group-particle gap {worst_dual:.2e}, vph*vgr-c^2 {worst_prod:.2e} "
        f"over 50 k",
    )


def check_limit_frequency_order(seed: int) -> CheckResult:
    report = run_limit_study(LimitStudyConfig())
    freq, fld = report.frequency_fit, report.field_fit
    ok = (
        freq is not None and 1.9 <= freq.order <= 2.1
        and freq.log10_residual < 0.05
        and fld is not None and 1.8 <= fld.order <= 2.2
    )
    detail = (
        f"frequency-gap order {freq.order:.3f} (fit residual "
        f"{freq.log10_residual:.3f})" if freq else "no frequency fit"
    ) + (f", field-gap order {fld.order:.3f}" if fld else ", no field fit")
    return CheckResult("limit-frequency-order", ok, detail)


def check_newton_rk4(seed: int) -> CheckResult:
    force = np.array([1.0, 0.0, 0.0])
    traj = integrate_newton(
        Potential.linear(force), np.zeros(3), np.zeros(3),
        NATURAL, dt=1e-3, steps=1000,
    )
    worst_p = float(np.max(np.abs(traj.p - traj.t[:, None] * force)))

    p0 = np.array([0.4, -0.3, 0.2])
    free = integrate_newton(
        Potential.free(), np.ones(3), p0, NATURAL, dt=5e-3, steps=400
    )
    worst_free = float(np.max(np.abs(free.p - p0)))  # grad S = p0

    pot = Potential.harmonic(1.0)
    dts = (2e-2, 1e-2, 5e-3)
    drifts = []
    for dt in dts:
        traj_h = integrate_newton(
            pot, np.array([1.0, 0.0, 0.0]), np.zeros(3), NATURAL,
            dt=dt, steps=int(round(2.0 / dt)),
        )
        energies = traj_h.energies(pot, NATURAL)
        drifts.append(float(np.max(np.abs(energies - energies[0]))))
    order = fit_order(dts, drifts).order
    ok = worst_p <= 1e-10 and worst_free <= 1e-12 and 3.8 <= order <= 4.2
    return CheckResult(
        "newton-rk4", ok,
        f"constant-force defect {worst_p:.2e}, free drift {worst_free:.2e}, "
        f"energy order {order:.2f}",
    )


def check_curl_witnesses(seed: int) -> CheckResult:
    grid = Grid.cube(24, 2 * math.pi)
    xs, ys, zs = grid.meshgrid()
    gradient = np.stack([2 * xs, 2 * ys, np.zeros_like(zs)])
    rotational = np.stack([-ys, xs, np.zeros_like(zs)])
    g_defect = curl_check(gradient, grid)
    r_defect = curl_check(rotational, grid)
    ok = g_defect <= 1e-6 and r_defect > 1.0
    return CheckResult(
        "curl-witnesses", ok,
        f"gradient defect {g_defect:.2e}, rotational defect {r_defect:.2f}",
    )


def check_round_trips(seed: int) -> CheckResult:
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
    field_err = float(np.max(np.abs(back.values - psi.values)))

    spec = hje_pde_spec(PhysicalConstants(1.0, 2.9979, 0.511))
    text = pde_spec_dumps(spec)
    json_ok = pde_spec_dumps(pde_spec_loads(text)) == text

    blob = field_to_bytes(ScalarField(
        Grid.cube(8, 2 * math.pi),
        rng.standard_normal((8, 8, 8)) + 1j * rng.standard_normal((8, 8, 8)),
        time_stamp=0.375,
    ))
    binary_ok = field_to_bytes(field_from_bytes(blob)) == blob

    ok = field_err <= 1e-12 and json_ok and binary_ok
    return CheckResult(
        "round-trips", ok,
        f"psi->S->psi error {field_err:.2e}, json byte-exact={json_ok}, "
        f"binary byte-exact={binary_ok}",
    )


CHECKS: dict[str, Callable[[int], CheckResult]] = {
    "dispersion-chain": check_dispersion_chain,
    "transform-linearize": check_transform_linearize,
    "dual-solutions": check_dual_solutions,
    "eigen-log-curvature": check_eigen_log_curvature,
    "residual-decomposition": check_residual_decomposition,
    "wave-solver-order": check_wave_solver_order,
    "schrodinger-cn": check_schrodinger_cn,
    "velocity-duality": check_velocity_duality,
    "limit-frequency-order": check_limit_frequency_order,
    "newton-rk4": check_newton_rk4,
    "curl-witnesses": check_curl_witnesses,
    "round-trips": check_round_trips,
}

# Wall-time budget of each check, in seconds: the budget of its criterion.
BUDGET_S: dict[str, float] = {
    "dispersion-chain": 1.0,
    "transform-linearize": 1.0,
    "dual-solutions": 1.0,
    "eigen-log-curvature": 10.0,
    "residual-decomposition": 10.0,
    "wave-solver-order": 60.0,
    "schrodinger-cn": 60.0,
    "velocity-duality": 1.0,
    "limit-frequency-order": 120.0,
    "newton-rk4": 10.0,
    "curl-witnesses": 10.0,
    "round-trips": 5.0,
}


def run_all(seed: int = 0) -> list[CheckResult]:
    return [check(seed) for check in CHECKS.values()]
