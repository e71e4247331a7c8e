"""Nonrelativistic limit as a measured convergence study.

Factoring the rest-energy phase exp(-i m0 c^2 t / hbar) out of a
relativistic plane wave leaves a residual rotation at

    omega(k) - m0 c^2/hbar  =  mu (sqrt(1 + x^2) - 1),   x = hbar k / (m0 c),

which approaches the Schrodinger rate hbar k^2 / (2 m0) with an O(c^-2)
gap (leading term hbar^3 k^4 / (8 m0^3 c^2)).  The study quantifies that
limit two ways per speed value: a closed-form frequency gap, and a field
gap between factored leapfrog evolution of the relativistic equation and
Crank-Nicolson evolution of the Schrodinger equation from the same
initial plane wave over the same physical time, on a periodic grid of
one wavelength 2 pi / k.  Both gap sequences are fitted to
gap ~ C * c^(-q).

Temporal discretization is controlled by holding omega * dt constant
across the sweep, with the constant chosen from the leapfrog phase-error
budget so the scheme error stays a small fraction of the physical gap at
every c (leapfrog advances phases at omega*(1 + (omega dt)^2/24 + ...),
which would otherwise swamp the O(c^-2) signal at large c).  Both
endpoints are solve_plane_wave's; its stencil-frequency leapfrog start
keeps the backward leapfrog branch, which the analytic frequency would
seed at the O(h^2/c^2) order of the signal, out of the field gap.

The solvers evaluate both schemes in closed form per Fourier mode, so
the step count, which grows as c^2 because dt ~ 1/c^2, costs no per-step
field update.  The closed form is the scheme's own discrete solution, not
the exact PDE solution, so the TEMPORAL_SAFETY budget still applies.  The
study reads only each run's final field, so the solvers' per-step rows,
and the step bound that caps their memory, never apply: a row may take
10^10 steps.  Each report row records the leapfrog dt and step count.

Nor does rounding grow with the step count n.  The phase n theta and the
rest phase mu t are each one rounded product, so their error is near
omega t eps (eps = 2^-53), not n eps: 4.8e-14 at c = 1024 (1.4e9 steps)
and 2.1e-13 at c = 1664 (9.9e9 steps), against a 50-digit evaluation.
omega t grows as c^2 and the gap falls as c^-2, so rounding takes about
8 eps x^-4 of the gap, 1e-3 at x = 1e-3; it dominates from x near 2e-4.
A row whose omega t eps exceeds ROUNDING_SHARE of its field gap is named
in a warning.  That share is at most 1.2e-3 in studies that fit field
orders within 0.011 of 2; it is 1.6e-2 at c = 2048 (a sweep of 4, 8, 16,
2048 still fits 2.006) and 1.13 at c = 16384 (adding it fits 1.633).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .convergence import OrderFit, fit_order
from .errors import DomainError, InsufficientDataError, require_normal_power
from .fields import Grid, ScalarField
from .kinematics import PhysicalConstants, dispersion_omega, schrodinger_omega
from .solvers import (
    leapfrog_stability_limit,
    solve_plane_wave,
    # not called; bench/tests/test_harness.py reads it (ROADMAP item 1)
    solve_relativistic,
)


TEMPORAL_SAFETY = 0.05  # leapfrog phase-error budget as a gap fraction
SCHRODINGER_STEPS = 256  # Crank-Nicolson steps of the Schrodinger endpoint
ROUNDING_SHARE = 0.1  # of a row's field gap that phase rounding may take
MAX_ROW_STEPS = 2**53  # leapfrog steps of a row: a double holds each count


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
    grid_points: int = 64  # on one wavelength, 2 pi / k

    def __post_init__(self):
        if len(self.c_values) < 4:
            raise InsufficientDataError("need at least 4 c values for a fit")
        if any(b <= a for a, b in zip(self.c_values, self.c_values[1:])):
            raise DomainError("c values must be strictly ascending")
        if any(c <= 0 for c in self.c_values):
            raise DomainError("c values must be positive")
        for c in self.c_values:
            require_normal_power("c", c)  # the rest frequency has c^2
        if self.k < 0:
            raise DomainError("k must be >= 0")
        if self.k:
            require_normal_power("k", self.k)  # the Schrodinger rate has k^2
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

    consts_nr = PhysicalConstants(hbar=cfg.hbar, c=1.0, m0=cfg.m0)
    schrodinger_rate = schrodinger_omega(cfg.k, consts_nr)
    consts_per_c = [
        PhysicalConstants(hbar=cfg.hbar, c=c, m0=cfg.m0) for c in cfg.c_values
    ]
    rests = [_omega_minus_rest(cc, cfg.k) for cc in consts_per_c]
    freq_gaps = [abs(rest - schrodinger_rate) for rest in rests]

    def row(i: int, field_gap: float = 0.0, dt: float = 0.0,
            steps: int = 0) -> LimitRow:
        c = consts_per_c[i].c
        return LimitRow(c, rests[i], schrodinger_rate, freq_gaps[i], field_gap,
                        cfg.hbar * cfg.k / (cfg.m0 * c), dt, steps)

    if not all(freq_gaps):
        # The rest mode k = 0, or a k so small that a gap rounds to 0: the
        # step budget below would be 0, and there is no gap to evolve or fit.
        warnings.append(f"k = {cfg.k:g}: a frequency gap is zero, no field "
                        "evolved and no order fitted")
        return LimitStudyReport([row(i) for i in range(len(rests))], None,
                                None, warnings)

    grid = Grid.line(cfg.grid_points, 2.0 * math.pi / cfg.k)
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

    # The Schrodinger endpoint does not depend on c: evolve it once.
    psi_schr = solve_plane_wave("schrodinger", grid, cfg.k, consts_nr,
                                tee / SCHRODINGER_STEPS,
                                SCHRODINGER_STEPS)[0].final

    rows: list[LimitRow] = []
    for i, cc in enumerate(consts_per_c):
        omega = dispersion_omega(cfg.k, cc)
        dt = min(theta / omega,
                 0.5 * leapfrog_stability_limit(grid, cc.c, cc.rest_frequency))
        if tee / dt > MAX_ROW_STEPS:
            raise DomainError(f"evolution time {tee!r} at c = {cc.c!r} needs "
                              f"more than 2**53 = {MAX_ROW_STEPS} steps")
        steps = max(1, math.ceil(tee / dt))
        dt = tee / steps
        rel = solve_plane_wave("relativistic", grid, cfg.k, cc, dt,
                               steps)[0].final
        psi0 = factor_rest_energy(rel, cc, tee)
        field_gap = float(np.max(np.abs(psi0.values - psi_schr.values)))
        rounding = omega * tee * 2.0**-53
        if rounding > ROUNDING_SHARE * field_gap:
            warnings.append(f"c = {cc.c:g}: phase rounding {rounding:.2e} "
                            f"exceeds {ROUNDING_SHARE:g} of the field gap "
                            f"{field_gap:.2e}")
        rows.append(row(i, field_gap, dt, steps))

    field_gaps = [r.field_gap for r in rows]
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
