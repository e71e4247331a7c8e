"""Finite-difference initial-value solvers and grid identity checks.

Three linear equations are integrated on periodic cubic grids (1D or 3D):

* the massless wave equation       psi_tt = c^2 lap(psi)          (leapfrog)
* the relativistic free equation   psi_tt = c^2 lap(psi) - mu^2 psi, with
  mu = m0 c^2 / hbar                                              (leapfrog)
* the free Schrodinger equation    i hbar psi_t = -(hbar^2/2 m0) lap(psi)
                                                          (Crank-Nicolson)

Space is always the second-order central Laplacian.  On a periodic grid
with constant coefficients both schemes act on each Fourier mode on its
own, so step n is evaluated in closed form rather than by n updates:
leapfrog as U^n = U^0 cos(n theta) + (U^1 - U^0 cos theta) sin(n theta) /
sin(theta) with theta = 2 asin(dt sqrt(-sigma) / 2) (sigma the mode's
operator eigenvalue; theta is complex past the stability limit), and
Crank-Nicolson as amp^n U^0.  This is each scheme's own discrete solution,
not the exact PDE solution, so its O(dt^2) phase error is unchanged.

Leapfrog starts from a Taylor step and reports the exactly conserved
discrete energy E = 1/2 ||(u^{n+1}-u^n)/dt||^2 - 1/2 Re<u^{n+1}, L u^n>;
Crank-Nicolson reports the L2 norm and the discrete kinetic energy, which
its unit-modulus amplification factors conserve.  Every per-step row is
computed from the spectra by Parseval's identity.  The conserved
quantities are evaluated once, so they are identical in every row; the
leapfrog norm carries the rounding of its own row's evaluation, not
rounding accumulated over steps.  A non-finite row or final field raises
NumericalError carrying the rows before it.

The module also evaluates pointwise residuals of the nonlinear
Hamilton-Jacobi equations on action fields (two time levels, or closed
forms), and the eigenvalue / log-curvature identities that single out
plane waves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    InsufficientDataError,
    NumericalError,
    StabilityError,
)
from .fields import (
    Grid,
    ScalarField,
    central_difference,
    central_gradient,
    nonzero_peak,
    plane_wave_field,
)
from .kinematics import PhysicalConstants
from .reporting import write_csv

LEAPFROG = "leapfrog"
CRANK_NICOLSON = "crank_nicolson"


@dataclass(frozen=True)
class SolverConfig:
    dt: float
    steps: int
    scheme: str = LEAPFROG
    stability_check: bool = True

    def __post_init__(self):
        if not (self.dt > 0):
            raise DomainError("dt must be positive")
        if self.steps < 1:
            raise DomainError("steps must be >= 1")
        if self.scheme not in (LEAPFROG, CRANK_NICOLSON):
            raise DomainError(f"unknown scheme {self.scheme!r}")


@dataclass
class Diagnostics:
    """Per-step series: step index, physical time, L2 norm, discrete energy."""

    step: np.ndarray
    time: np.ndarray
    norm: np.ndarray
    energy: np.ndarray

    def to_csv(self, path) -> None:
        rows = zip(
            (int(s) for s in self.step), self.time, self.norm, self.energy
        )
        write_csv(path, ["step", "time", "norm", "energy"], rows)


@dataclass
class SolveReport:
    final: ScalarField
    diagnostics: Diagnostics
    measured_order: float | None = None


def _require_solver_grid(grid: Grid) -> None:
    if grid.ndim not in (1, 3):
        raise DomainError("solvers support 1D and 3D grids")
    if not grid.is_cubic():
        raise DomainError("solvers require cubic grids")
    if min(grid.shape) < 8:
        raise DomainError("solvers require at least 8 points per axis")


def laplacian(values: np.ndarray, grid: Grid) -> np.ndarray:
    """Second-order periodic central Laplacian."""
    out = np.zeros_like(values)
    for ax, h in enumerate(grid.spacings):
        out += (
            np.roll(values, 1, axis=ax)
            + np.roll(values, -1, axis=ax)
            - 2 * values
        ) / h**2
    return out


def leapfrog_stability_limit(grid: Grid, c: float, mu: float = 0.0) -> float:
    """Largest stable dt: 2 / sqrt(4 c^2 sum_i h_i^-2 + mu^2).

    In 1D this is (h/c) / sqrt(1 + (mu h / 2c)^2), i.e. the plain CFL bound
    dt <= h/c for mu = 0.
    """
    s = sum(1.0 / h**2 for h in grid.spacings)
    return 2.0 / math.sqrt(4.0 * c**2 * s + mu**2)


# Bound on the steps x modes entries of one diagnostics block: the table of
# per-row rotations stays at 256 KiB of complex128 on any grid.
_BLOCK_ENTRIES = 1 << 14
# Blocks between direct evaluations of exp(n rates); in between, the block
# start advances by one complex multiplication per mode.
_ANCHOR_BLOCKS = 64


def _exponential_sums(rates: np.ndarray, weights: np.ndarray,
                      steps: int) -> np.ndarray:
    """Re sum_k weights_k exp(n rates_k) for n = 1..steps.

    Rows go in blocks of at most _BLOCK_ENTRIES steps x modes entries.
    The per-row factors exp(j rates), j < rows, are tabulated once, and a
    block is one complex matrix-vector product of that table with
    head = weights * exp(n0 rates).  head is evaluated directly every
    _ANCHOR_BLOCKS blocks and otherwise advanced by exp(rows * rates), so
    rounding accumulates over at most that many multiplications.
    """
    out = np.zeros(steps)
    if rates.size == 0:
        return out
    rows = max(1, min(steps, _BLOCK_ENTRIES // rates.size))
    table = np.exp(np.multiply.outer(np.arange(rows), rates))
    advance = np.exp(rows * rates)
    for block, start in enumerate(range(0, steps, rows)):
        if block % _ANCHOR_BLOCKS == 0:
            head = weights * np.exp((start + 1) * rates)
        else:
            head *= advance
        stop = min(start + rows, steps)
        out[start:stop] = (table[: stop - start] @ head).real
    return out


def _checked_report(grid: Grid, final: np.ndarray, steps: np.ndarray,
                    times: np.ndarray, norms: np.ndarray,
                    energies: np.ndarray, scheme: str) -> SolveReport:
    """Package a run, or raise NumericalError at its first non-finite step.

    The error carries the diagnostics rows of the steps before that one.
    """
    finite = np.isfinite(norms) & np.isfinite(energies)
    if not finite.all() or not np.all(np.isfinite(final)):
        bad = int(np.argmin(finite)) if not finite.all() else len(steps) - 1
        raise NumericalError(
            f"{scheme} produced non-finite values at step {bad + 1}",
            diagnostics=Diagnostics(
                steps[:bad], times[:bad], norms[:bad], energies[:bad]
            ),
        )
    return SolveReport(
        final=ScalarField(grid, final, float(times[-1])),
        diagnostics=Diagnostics(steps, times, norms, energies),
    )


def _leapfrog(initial: ScalarField, initial_rate: ScalarField,
              c: float, mu: float, cfg: SolverConfig) -> SolveReport:
    grid = initial.grid
    _require_solver_grid(grid)
    if initial_rate.grid != grid:
        raise DomainError("initial and rate fields must share a grid")
    if cfg.scheme != LEAPFROG:
        raise DomainError("second-order-in-time equations use the leapfrog scheme")
    if cfg.stability_check:
        limit = leapfrog_stability_limit(grid, c, mu)
        if cfg.dt > limit * (1 + 1e-12):
            raise StabilityError(
                f"dt = {cfg.dt:.6g} exceeds the stability limit {limit:.6g}"
            )

    dt = cfg.dt
    n_last = cfg.steps
    steps = np.arange(1, n_last + 1)
    times = initial.time_stamp + dt * steps
    scale = grid.cell_volume / grid.npoints  # Parseval: sum_x = sum_k / N

    # Mode k with operator eigenvalue sigma obeys
    # U^{n+1} = 2x U^n - U^{n-1}, x = 1 + dt^2 sigma / 2 = cos(theta), and
    # the Taylor step gives U^1 = x U^0 + dt V.  Hence
    # U^n = cos(n theta) a + sin(n theta) / sin(theta) b with a = U^0 and
    # b = U^1 - x U^0 = dt V; theta is complex past the stability limit.
    sigma = c * c * _stencil_eigenvalues(grid) - mu * mu
    q = 0.5 * dt * np.sqrt(-sigma).ravel()  # sin(theta / 2)
    s2 = 4.0 * q * q * (1.0 - q) * (1.0 + q)  # 1 - x^2 = sin(theta)^2
    a = np.fft.fftn(initial.values).ravel()
    b = dt * np.fft.fftn(initial_rate.values).ravel()
    aa = a.real**2 + a.imag**2
    bb = b.real**2 + b.imag**2
    ab = (a * b.conj()).real

    # The discrete energy of each mode is (|b|^2 + s2 |a|^2) / (2 dt^2),
    # the same at every step.
    energy = 0.5 * scale / dt**2 * float(np.sum(bb + s2 * aa))

    # Past the stability limit (s2 < 0) theta = pi + i kappa; at theta = 0
    # or pi (s2 = 0) the mode is U^n = e^n (a + e n b), e = cos(theta).
    osc, flat = s2 > 0.0, s2 == 0.0
    grow = ~(osc | flat)
    theta = 2.0 * np.arcsin(q[osc])
    kappa = 2.0 * np.arccosh(q[grow])
    root = np.sqrt(np.abs(s2))  # sin(theta), or sinh(kappa) past the limit
    sign = np.where(q[flat] < 0.5, 1.0, -1.0)

    # |U^n|^2 per mode is alpha + beta cos(2n theta) + gamma sin(2n theta),
    # where cos and sin turn into cosh and -sinh of 2n kappa past the limit.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        alpha = 0.5 * (aa + bb / s2)
        beta = 0.5 * (aa - bb / s2)
        gamma = ab / root
        rates = np.concatenate((2j * theta, 2.0 * kappa, -2.0 * kappa))
        weights = np.concatenate((
            beta[osc] - 1j * gamma[osc],
            0.5 * (beta[grow] - gamma[grow]),
            0.5 * (beta[grow] + gamma[grow]),
        ))
        # summed in place, so one steps-long array is live at a time
        norms = _exponential_sums(rates, weights, n_last)
        norms += float(np.sum(alpha[~flat])) + float(np.sum(aa[flat]))
        if flat.any():
            n = steps.astype(float)
            norms += n * (2.0 * float(np.sum(sign * ab[flat]))
                          + n * float(np.sum(bb[flat])))
        np.maximum(norms, 0.0, out=norms)
        norms *= scale
        np.sqrt(norms, out=norms)

        # The last step, mode by mode: U^n = cos_n a + sin_n b.
        cos_n = np.empty(q.size)
        sin_n = np.empty(q.size)
        cos_n[osc] = np.cos(n_last * theta)
        sin_n[osc] = np.sin(n_last * theta) / root[osc]
        parity = -1.0 if n_last % 2 else 1.0  # cos(n pi)
        cos_n[grow] = parity * np.cosh(n_last * kappa)
        sin_n[grow] = -parity * np.sinh(n_last * kappa) / root[grow]
        cos_n[flat] = sign**n_last
        sin_n[flat] = n_last * sign ** (n_last - 1)
        final = np.fft.ifftn((cos_n * a + sin_n * b).reshape(grid.shape))

    return _checked_report(
        grid, final, steps, times, norms,
        np.full(n_last, energy), "leapfrog",
    )


def solve_wave(initial: ScalarField, initial_rate: ScalarField,
               consts: PhysicalConstants, cfg: SolverConfig) -> SolveReport:
    """Advance psi_tt = c^2 lap(psi) by leapfrog with a Taylor first step."""
    return _leapfrog(initial, initial_rate, consts.c, 0.0, cfg)


def solve_relativistic(initial: ScalarField, initial_rate: ScalarField,
                       consts: PhysicalConstants, cfg: SolverConfig
                       ) -> SolveReport:
    """Advance psi_tt = c^2 lap(psi) - (m0 c^2/hbar)^2 psi by leapfrog.

    Plane waves rotate at the dispersion frequency
    omega = sqrt(c^2 k^2 + (m0 c^2/hbar)^2) up to O(dt^2, h^2); with
    m0 = 0 the trajectory is bit-identical to solve_wave.
    """
    return _leapfrog(initial, initial_rate, consts.c, consts.rest_frequency, cfg)


def _stencil_eigenvalues(grid: Grid) -> np.ndarray:
    """Eigenvalues of the periodic central Laplacian, one per FFT mode."""
    lam = np.zeros(grid.shape)
    for ax, (n, h) in enumerate(zip(grid.shape, grid.spacings)):
        modes = np.arange(n)
        lam_ax = -(4.0 / h**2) * np.sin(np.pi * modes / n) ** 2
        shape = [1] * grid.ndim
        shape[ax] = n
        lam = lam + lam_ax.reshape(shape)
    return lam


def solve_schrodinger(initial: ScalarField, consts: PhysicalConstants,
                      cfg: SolverConfig) -> SolveReport:
    """Advance i hbar psi_t = -(hbar^2 / 2 m0) lap(psi) by Crank-Nicolson.

    The implicit step (I - dt/2 G) psi^{n+1} = (I + dt/2 G) psi^n with
    G = (i hbar / 2 m0) lap_h is diagonal in Fourier space, with the
    amplification factor amp = (1 + i y) / (1 - i y) = exp(2 i atan y),
    y = dt hbar lam_h / (4 m0), per mode; step n is amp^n times the initial
    spectrum.  |amp| = 1, so every row reports the same L2 norm and the
    same discrete kinetic energy, the two quantities the step conserves.
    """
    grid = initial.grid
    _require_solver_grid(grid)
    if cfg.scheme != CRANK_NICOLSON:
        raise DomainError("the Schrodinger solver uses the Crank-Nicolson scheme")
    if consts.m0 <= 0:
        raise DomainError("the free Schrodinger equation needs m0 > 0")
    if not np.all(np.isfinite(initial.values)):
        raise NumericalError("initial field contains non-finite values")

    dt = cfg.dt
    lam = _stencil_eigenvalues(grid)
    phase = 2.0 * np.arctan(0.25 * dt * consts.hbar / consts.m0 * lam)
    kin_weight = -0.5 * consts.hbar**2 / consts.m0 * lam  # >= 0 per mode
    scale = grid.cell_volume / grid.npoints

    steps = np.arange(1, cfg.steps + 1)
    times = initial.time_stamp + dt * steps
    spectrum = np.fft.fftn(initial.values)
    power = spectrum.real**2 + spectrum.imag**2
    norm = math.sqrt(scale * float(np.sum(power)))
    energy = scale * float(np.sum(kin_weight * power))
    final = np.fft.ifftn(np.exp(1j * cfg.steps * phase) * spectrum)
    return _checked_report(
        grid, final, steps, times, np.full(cfg.steps, norm),
        np.full(cfg.steps, energy), "Crank-Nicolson",
    )


# ---------------------------------------------------------------------------
# Closed-form action fields
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinearAction:
    """Separated particle-like action S = -E t + p . r."""

    E: float
    p: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        if p.shape != (3,):
            raise DomainError("p must be a 3-vector")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "E", float(self.E))


@dataclass(frozen=True)
class WaveAction:
    """Wave-like action S = amplitude * exp(i (k . r - omega t))."""

    amplitude: complex
    k: np.ndarray
    omega: float

    def __post_init__(self):
        k = np.asarray(self.k, dtype=float)
        if k.shape != (3,):
            raise DomainError("k must be a 3-vector")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "amplitude", complex(self.amplitude))
        object.__setattr__(self, "omega", float(self.omega))


def _pair_time_levels(pair) -> tuple[ScalarField, ScalarField, float]:
    try:
        s0, s1 = pair
    except (TypeError, ValueError):
        raise InsufficientDataError(
            "the time derivative needs two adjacent time levels (S0, S1)"
        ) from None
    if not isinstance(s0, ScalarField) or not isinstance(s1, ScalarField):
        raise InsufficientDataError("time levels must be ScalarFields")
    if s0.grid != s1.grid:
        raise DomainError("time levels must share a grid")
    dt = s1.time_stamp - s0.time_stamp
    if dt <= 0:
        raise InsufficientDataError("time levels must be ordered and distinct")
    return s0, s1, dt


def hje_residual(S, consts: PhysicalConstants, massless: bool = False, *,
                 grid: Grid | None = None, t: float = 0.0,
                 potential_values=None) -> ScalarField:
    """Pointwise residual of (dS/dt)^2 - c^2 (grad S)^2 - m0^2 c^4 (= 0 if massless).

    ``S`` is either a pair of ScalarFields at two adjacent time levels
    (residual evaluated at the midpoint time: centered dS/dt, averaged
    gradients) or a closed form (LinearAction / WaveAction) evaluated
    exactly on ``grid`` at time ``t``.  ``potential_values`` adds a scalar
    potential inside the squared time derivative (see mechanics).
    """
    mass_term = 0.0 if massless else consts.rest_energy**2
    c2 = consts.c**2

    if isinstance(S, LinearAction):
        if grid is None:
            raise InsufficientDataError("closed-form actions need a target grid")
        dsdt = np.full(grid.shape, -S.E, dtype=np.complex128)
        grads = [
            np.full(grid.shape, S.p[ax], dtype=np.complex128)
            for ax in range(grid.ndim)
        ]
        out_t = t
    elif isinstance(S, WaveAction):
        if grid is None:
            raise InsufficientDataError("closed-form actions need a target grid")
        values = plane_wave_field(grid, S.k, S.omega, t, S.amplitude).values
        dsdt = -1j * S.omega * values
        grads = [1j * S.k[ax] * values for ax in range(grid.ndim)]
        out_t = t
    else:
        s0, s1, dt = _pair_time_levels(S)
        grid = s0.grid
        dsdt = (s1.values - s0.values) / dt
        g0 = central_gradient(s0.values, grid)
        g1 = central_gradient(s1.values, grid)
        grads = [0.5 * (a + b) for a, b in zip(g0, g1)]
        out_t = 0.5 * (s0.time_stamp + s1.time_stamp)

    if potential_values is not None:
        dsdt = dsdt + potential_values
    residual = dsdt**2
    for g in grads:
        residual = residual - c2 * g**2
    residual = residual - mass_term
    return ScalarField(grid, residual, out_t)


# ---------------------------------------------------------------------------
# Plane-wave identity checks
# ---------------------------------------------------------------------------

def eigen_checks(psi_pair, p_expected, E_expected,
                 consts: PhysicalConstants) -> tuple[float, float]:
    """Defects of the momentum and energy eigenvalue relations.

    Returns max-norms (normalized by max|psi|) of
    (hbar/i) grad psi - p psi on the first level and of
    i hbar dpsi/dt - E psi at the midpoint of the two levels.  Both are
    O(h^2) / O(dt^2) for on-shell plane waves.
    """
    s0, s1, dt = _pair_time_levels(psi_pair)
    peak = nonzero_peak(s0.values)
    p = np.atleast_1d(np.asarray(p_expected, dtype=float))
    if p.size < s0.grid.ndim:
        raise DomainError("p_expected needs one component per grid axis")

    grads = central_gradient(s0.values, s0.grid)
    momentum_defect = 0.0
    for ax, g in enumerate(grads):
        defect = (consts.hbar / 1j) * g - p[ax] * s0.values
        momentum_defect = max(momentum_defect, float(np.max(np.abs(defect))))

    dpsi_dt = (s1.values - s0.values) / dt
    psi_mid = 0.5 * (s0.values + s1.values)
    energy_defect = float(
        np.max(np.abs(1j * consts.hbar * dpsi_dt - E_expected * psi_mid))
    )
    return momentum_defect / peak, energy_defect / peak


def log_curvature_check(psi_triple) -> tuple[float, float]:
    """Max-norm estimates of d2 ln(psi)/dx^2 and d2 ln(psi)/dt^2.

    Second log derivatives are formed from the quotient identity
    (psi psi'' - psi'^2)/psi^2 with central differences: spatially on the
    middle level (interior samples only, so non-periodic diagnostics are
    not polluted by the wrap), temporally across the three levels.  Both
    vanish to O(h^2)/O(dt^2) exactly when psi is a plane wave.
    """
    try:
        s0, s1, s2 = psi_triple
    except (TypeError, ValueError):
        raise InsufficientDataError(
            "log curvature needs three equally spaced time levels"
        ) from None
    if s0.grid != s1.grid or s1.grid != s2.grid:
        raise DomainError("time levels must share a grid")
    dt1 = s1.time_stamp - s0.time_stamp
    dt2 = s2.time_stamp - s1.time_stamp
    if dt1 <= 0 or dt2 <= 0 or abs(dt2 - dt1) > 1e-9 * dt1:
        raise InsufficientDataError("time levels must be uniformly spaced")
    for s in (s0, s1, s2):
        nonzero_peak(s.values)

    grid = s1.grid
    v = s1.values
    space_defect = 0.0
    for ax, h in enumerate(grid.spacings):
        d1 = central_difference(v, ax, h)
        d2 = (
            np.roll(v, -1, axis=ax) - 2 * v + np.roll(v, 1, axis=ax)
        ) / h**2
        curv = (v * d2 - d1**2) / v**2
        interior = [slice(None)] * grid.ndim
        interior[ax] = slice(1, grid.shape[ax] - 1)
        space_defect = max(
            space_defect, float(np.max(np.abs(curv[tuple(interior)])))
        )

    dt = dt1
    d1t = (s2.values - s0.values) / (2 * dt)
    d2t = (s2.values - 2 * s1.values + s0.values) / dt**2
    time_curv = (s1.values * d2t - d1t**2) / s1.values**2
    time_defect = float(np.max(np.abs(time_curv)))
    return space_defect, time_defect
