"""Nonrelativistic limit as a measured convergence study.

Factoring the rest-energy phase exp(-i m0 c^2 t / hbar) out of a
relativistic plane wave leaves a residual rotation at

    omega(k) - m0 c^2/hbar  =  mu (sqrt(1 + x^2) - 1),   x = hbar k / (m0 c),

which approaches the Schrodinger rate hbar k^2 / (2 m0) with an O(c^-2)
gap (leading term hbar^3 k^4 / (8 m0^3 c^2)).  The study quantifies that
limit two ways per speed value: a closed-form frequency gap, and a field
gap between factored leapfrog evolution of the relativistic equation and
Crank-Nicolson evolution of the Schrodinger equation from the same
initial plane wave over the same physical time.  Both gap sequences are
fitted to  gap ~ C * c^(-q).

Temporal discretization is controlled by holding omega * dt constant
across the sweep, with the constant chosen from the leapfrog phase-error
budget so the scheme error stays a small fraction of the physical gap at
every c (leapfrog advances phases at omega*(1 + (omega dt)^2/24 + ...),
which would otherwise swamp the O(c^-2) signal at large c).  The initial
rate uses the dispersion frequency of the *stencil* wavenumber
(2/h) sin(kh/2): an analytic-frequency rate would seed the backward
branch of the leapfrog recurrence with an O(h^2/c^2) amplitude, the same
order as the signal under measurement.

The solvers evaluate both schemes in closed form per Fourier mode, so
the step count, which grows as c^2 because dt ~ 1/c^2, costs no per-step
field update and adds no rounding that grows with the number of steps.
The closed form is the scheme's own discrete solution, not the exact PDE
solution, so the TEMPORAL_SAFETY budget still applies.  Each report row
records the leapfrog dt and step count it used.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .convergence import OrderFit, fit_order
from .errors import DomainError, InsufficientDataError
from .fields import Grid, ScalarField, plane_wave_field
from .kinematics import PhysicalConstants, dispersion_omega
from .solvers import (
    CRANK_NICOLSON,
    LEAPFROG,
    MAX_STEPS,  # each row's SolverConfig enforces it; kept importable here
    SolverConfig,
    _require_normal_square,
    leapfrog_stability_limit,
    require_solver_grid,
    solve_relativistic,
    solve_schrodinger,
)


TEMPORAL_SAFETY = 0.05  # leapfrog phase-error budget as a gap fraction
SCHRODINGER_STEPS = 256  # Crank-Nicolson steps of the Schrodinger endpoint


def factor_rest_energy(psi: ScalarField, consts: PhysicalConstants,
                       t: float) -> ScalarField:
    """Remove the rest-energy phase: psi0 = psi * exp(+i m0 c^2 t / hbar)."""
    return psi.with_values(
        psi.values * np.exp(1j * consts.rest_frequency * t)
    )


@dataclass(frozen=True)
class LimitStudyConfig:
    """Sweep setup; defaults reproduce the desk-scale verification run."""

    k: float = 1.0
    c_values: tuple[float, ...] = (4.0, 8.0, 16.0, 32.0, 64.0, 128.0)
    m0: float = 1.0
    hbar: float = 1.0
    evolution_time: float = 5e-4
    grid_points: int = 64
    mode: int = 1  # the grid length is set to mode * 2*pi / k

    def __post_init__(self):
        if len(self.c_values) < 4:
            raise InsufficientDataError("need at least 4 c values for a fit")
        if any(b <= a for a, b in zip(self.c_values, self.c_values[1:])):
            raise DomainError("c values must be strictly ascending")
        if any(c <= 0 for c in self.c_values):
            raise DomainError("c values must be positive")
        for c in self.c_values:
            _require_normal_square("c", c)  # the rest frequency has c^2
        if self.k < 0:
            raise DomainError("k must be >= 0")
        if self.k:
            _require_normal_square("k", self.k)  # the Schrodinger rate has k^2
        if self.m0 <= 0 or self.hbar <= 0:
            raise DomainError("m0 and hbar must be positive")
        if not 0 < self.evolution_time < math.inf:
            raise DomainError("evolution time must be positive and finite")
        x_max = self.hbar * self.k / (self.m0 * min(self.c_values))
        if x_max >= 1.0:
            raise DomainError(
                f"expansion parameter hbar k/(m0 c) = {x_max:.3g} must stay "
                "below 1 at the smallest c"
            )


@dataclass(frozen=True)
class LimitRow:
    c: float
    omega_minus_rest: float
    omega_schrodinger: float
    frequency_gap: float
    field_gap: float
    x_param: float
    dt: float = 0.0  # relativistic leapfrog step; 0 when nothing was evolved
    steps: int = 0


@dataclass
class LimitStudyReport:
    rows: list[LimitRow]
    frequency_fit: OrderFit | None
    field_fit: OrderFit | None
    warnings: list[str] = field(default_factory=list)

    def table(self) -> tuple[list[str], list[tuple[float, ...]]]:
        """CSV header and columns c, gaps and x, one row per c value."""
        return ["c", "freq_gap", "field_gap", "x_param"], list(zip(*(
            (r.c, r.frequency_gap, r.field_gap, r.x_param) for r in self.rows)))

    def summary(self) -> dict:
        """Every field, rows and fits included, as nested JSON-ready dicts."""
        return asdict(self)


def _omega_minus_rest(consts: PhysicalConstants, k: float) -> float:
    """omega(k) - m0 c^2/hbar = mu x^2 / (1 + sqrt(1 + x^2)), cancellation-free."""
    mu = consts.rest_frequency
    x = consts.hbar * k / (consts.m0 * consts.c)
    return mu * x * x / (1.0 + math.hypot(1.0, x))


def run_limit_study(cfg: LimitStudyConfig) -> LimitStudyReport:
    """Measure frequency and field gaps across the c sweep and fit their order."""
    warnings: list[str] = []
    span = max(cfg.c_values) / min(cfg.c_values)
    if span < 10.0:
        warnings.append(
            f"c values span only a factor {span:.3g}; fits over a wider sweep "
            "are more trustworthy"
        )

    schrodinger_rate = cfg.hbar * cfg.k**2 / (2.0 * cfg.m0)
    consts_per_c = [
        PhysicalConstants(hbar=cfg.hbar, c=c, m0=cfg.m0) for c in cfg.c_values
    ]
    freq_gaps = [
        abs(_omega_minus_rest(cc, cfg.k) - schrodinger_rate)
        for cc in consts_per_c
    ]

    if not all(freq_gaps):
        # The rest mode k = 0, or a k so small that a gap rounds to 0: the
        # step budget below would be 0, and there is no gap to evolve or fit.
        rows = [LimitRow(cc.c, _omega_minus_rest(cc, cfg.k), schrodinger_rate,
                         gap, 0.0, cfg.hbar * cfg.k / (cfg.m0 * cc.c))
                for cc, gap in zip(consts_per_c, freq_gaps)]
        warnings.append(f"k = {cfg.k:g}: a frequency gap is zero, no field "
                        "evolved and no order fitted")
        return LimitStudyReport(rows, None, None, warnings)

    grid = Grid.line(cfg.grid_points, cfg.mode * 2.0 * math.pi / cfg.k)
    require_solver_grid(grid)
    tee = cfg.evolution_time

    # One step-size budget for the whole sweep: omega*dt = theta with
    # theta^2 <= 24 * safety * min_c gap(c)/mu(c) keeps the leapfrog phase
    # error at most `safety` of the physical gap everywhere.
    theta = min(
        math.sqrt(
            24.0 * TEMPORAL_SAFETY * gap / cc.rest_frequency
        )
        for gap, cc in zip(freq_gaps, consts_per_c)
    )
    theta = min(theta, 0.5)

    # Every row's leapfrog configuration, built before any row runs, so a
    # row past MAX_STEPS (the default sweep takes 346,565 steps at c = 128,
    # and the count grows as t m0^3 c^4 / (hbar^3 k^2)) fails up front.
    run_cfgs = []
    for cc in consts_per_c:
        dt = theta / dispersion_omega(cfg.k, cc)
        cfl = leapfrog_stability_limit(grid, cc.c, cc.rest_frequency)
        dt = min(dt, 0.5 * cfl)
        steps = max(1, math.ceil(tee / dt))
        run_cfgs.append(SolverConfig(dt=tee / steps, steps=steps,
                                     scheme=LEAPFROG))

    # The Schrodinger endpoint does not depend on c: evolve it once.
    initial = plane_wave_field(grid, cfg.k, omega=0.0, t=0.0)
    consts_nr = PhysicalConstants(hbar=cfg.hbar, c=1.0, m0=cfg.m0)
    schr_cfg = SolverConfig(
        dt=tee / SCHRODINGER_STEPS,
        steps=SCHRODINGER_STEPS,
        scheme=CRANK_NICOLSON,
    )
    psi_schr = solve_schrodinger(initial, consts_nr, schr_cfg).final

    h = grid.spacing
    k_stencil = (2.0 / h) * math.sin(0.5 * cfg.k * h)

    rows: list[LimitRow] = []
    field_gaps: list[float] = []
    for cc, gap, run_cfg in zip(consts_per_c, freq_gaps, run_cfgs):
        omega_grid = dispersion_omega(k_stencil, cc)
        rate = initial.with_values(-1j * omega_grid * initial.values)
        rel = solve_relativistic(initial, rate, cc, run_cfg)
        psi0 = factor_rest_energy(rel.final, cc, tee)
        field_gap = float(np.max(np.abs(psi0.values - psi_schr.values)))
        field_gaps.append(field_gap)
        rows.append(
            LimitRow(
                c=cc.c,
                omega_minus_rest=_omega_minus_rest(cc, cfg.k),
                omega_schrodinger=schrodinger_rate,
                frequency_gap=gap,
                field_gap=field_gap,
                x_param=cfg.hbar * cfg.k / (cfg.m0 * cc.c),
                dt=run_cfg.dt,
                steps=run_cfg.steps,
            )
        )

    for name, gaps in (("frequency", freq_gaps), ("field", field_gaps)):
        if any(b >= a for a, b in zip(gaps, gaps[1:])):
            warnings.append(f"{name} gap is not strictly decreasing in c")

    def safe_fit(gaps) -> OrderFit | None:
        if any(g <= 0 for g in gaps):
            warnings.append("zero gap encountered; order not fitted")
            return None
        fit = fit_order(cfg.c_values, gaps)
        # gap ~ c^-q, so the decay order is minus the log-log slope
        return OrderFit(order=-fit.order, log10_residual=fit.log10_residual)

    return LimitStudyReport(
        rows=rows,
        frequency_fit=safe_fit(freq_gaps),
        field_fit=safe_fit(field_gaps),
        warnings=warnings,
    )
