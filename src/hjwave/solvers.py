"""Finite-difference initial-value solvers and grid identity checks.

Three linear equations are integrated on periodic cubic grids (1D or 3D):

* the relativistic free equation   psi_tt = c^2 lap(psi) - mu^2 psi, with
  mu = m0 c^2 / hbar                                              (leapfrog)
* the massless wave equation       psi_tt = c^2 lap(psi): solve_wave is
  solve_relativistic at m0 = 0                                    (leapfrog)
* the free Schrodinger equation    i hbar psi_t = -(hbar^2/2 m0) lap(psi)
                                                          (Crank-Nicolson)

Space is always the second-order central Laplacian.  On a periodic grid
with constant coefficients both schemes act on each Fourier mode on its
own, so step n is evaluated in closed form rather than by n updates:
leapfrog as U^n = U^0 cos(n theta) + (U^1 - U^0 cos theta) sin(n theta) /
sin(theta) with theta = 2 asin(dt sqrt(-sigma) / 2) (sigma the mode's
operator eigenvalue), and Crank-Nicolson as amp^n U^0.  This is each
scheme's own discrete solution, not the exact PDE solution, so its
O(dt^2) phase error is unchanged.  Leapfrog runs only within its
stability limit, where theta is real: dt > leapfrog_stability_limit
raises StabilityError.

solve_plane_wave alone picks each equation's solver and plane-wave
frequency, on the positive branch E = hbar omega >= 0.  Its leapfrog
starts from leapfrog_start_rate, -i omega_h psi with omega_h the
frequency of the stencil wavenumber (2/h) sin(kh/2): the analytic one
would seed the backward leapfrog branch at O(h^2).  Its error reference is
the initial sample rotated by exp(-i omega T).  Transforms on 1D grids
use np.fft.fft/ifft, the same bytes as fftn/ifftn at less call overhead.

Leapfrog starts from a Taylor step and reports the exactly conserved
discrete energy E = 1/2 ||(u^{n+1}-u^n)/dt||^2 - 1/2 Re<u^{n+1}, L u^n>;
Crank-Nicolson reports the L2 norm and the discrete kinetic energy, which
its unit-modulus amplification factors conserve.  Every per-step row is
computed from the spectra by Parseval's identity, when a SolveReport's
``diagnostics`` is first read, and so are the leapfrog energy and the
modes' |a|^2, |b|^2, Re(a conj(b)), weights, rates and drift sums: until
then a leapfrog report holds only the spectra a and b.  A caller that reads
only the final field, such as the limit study, pays for two FFTs, one
inverse FFT and the last step, evaluated over all modes at once; flat modes
(theta = 0 or pi) are then overwritten, where there are any.  The stencil
eigenvalues are computed once per Grid and kept on it, read-only.
The conserved quantities are evaluated once, so they are identical in
every row; the leapfrog norm carries the rounding of its own row's
evaluation, not rounding accumulated over steps.  Its rows are one
exponential sum per distinct mode rate: modes of equal rate, such as the
+k and -k modes and a cube's permuted ones, pool their weights first.  A
non-finite final field raises at the solver call, before any row is
computed; a non-finite row, or the rows of a run past MAX_STEPS, raise
when the rows are read.  A grid holds at most MAX_POINTS points, checked by
require_solver_grid before any field exists.

The module also evaluates the HJE spec that pde_algebra transforms, by
its nonlinear residual formula, on action fields (two time levels, or
closed forms), and the eigenvalue / log-curvature identities that single
out plane waves.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Callable
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import (
    DomainError,
    InsufficientDataError,
    NumericalError,
    StabilityError,
    require_normal_power,
)
from .fields import (
    Grid,
    ScalarField,
    central_difference,
    central_gradient,
    nonzero_peak,
    plane_wave_field,
    second_difference,
)
from .kinematics import (
    ParticleState,
    PhysicalConstants,
    PlaneWave,
    dispersion_omega,
    schrodinger_omega,
)
from . import pde_algebra
from .reporting import write_csv

LEAPFROG = "leapfrog"
CRANK_NICOLSON = "crank_nicolson"
# Steps of a run whose per-step rows are computed.  Every step gets a row
# (about 40 bytes of solver diagnostics, 56 of a Newton trajectory), so
# the bound keeps a run's rows near 0.5 GB.  It is checked where rows are
# built: a solver's final field alone takes any number of steps.
MAX_STEPS = 10_000_000
# Grid points allowed in one run (128^3).  A leapfrog run holds about 250
# bytes a point: at the bound `solve --equation relativistic` peaks at 508
# MB RSS in 1D and 423 MB in 3D, and `limit-study --time 1e-6` at 528 MB
# (numpy 2.4.6, Python 3.11, x86-64 Linux, one BLAS thread).
MAX_POINTS = 1 << 21


@dataclass(frozen=True)
class SolverConfig:
    dt: float
    steps: int
    scheme: str = LEAPFROG

    def __post_init__(self):
        if not (self.dt > 0):
            raise DomainError("dt must be positive")
        if self.steps < 1:
            raise DomainError("steps must be >= 1")
        if self.scheme == LEAPFROG:
            require_normal_power("dt", self.dt)  # the energy divides by dt^2
        if self.scheme not in (LEAPFROG, CRANK_NICOLSON):
            raise DomainError(f"unknown scheme {self.scheme!r}")


@dataclass
class Diagnostics:
    """Per-step series: step index, physical time, L2 norm, discrete energy."""

    step: np.ndarray
    time: np.ndarray
    norm: np.ndarray
    energy: np.ndarray

    def table(self) -> tuple[list[str], list[np.ndarray]]:
        """CSV header and the four series as columns, one row per step."""
        return (["step", "time", "norm", "energy"],
                [self.step, self.time, self.norm, self.energy])

    def to_csv(self, path) -> None:
        """Write ``table()`` as CSV; the benchmark's 3D runs call this."""
        write_csv(path, *self.table())


class SolveReport:
    """A run's final field, and its per-step rows computed on first read.

    ``series()`` returns the norm and energy series of steps 1..cfg.steps.
    A non-finite final field raises NumericalError at construction, naming
    step cfg.steps, and no row is computed.  Reading the rows of a run
    past MAX_STEPS raises DomainError; a non-finite row raises
    NumericalError naming its first non-finite step.  Later reads return
    the same Diagnostics.
    """

    def __init__(self, initial: ScalarField, cfg: SolverConfig,
                 final: np.ndarray,
                 series: Callable[[], tuple[np.ndarray, np.ndarray]],
                 scheme: str):
        if not np.all(np.isfinite(final)):
            raise NumericalError(f"{scheme} produced non-finite values in "
                                 f"the final field, at step {cfg.steps}")
        self._t0, self._cfg = initial.time_stamp, cfg
        self._series, self._scheme = series, scheme
        self.final = ScalarField(initial.grid, final,
                                 self._t0 + cfg.dt * cfg.steps)

    @cached_property
    def diagnostics(self) -> Diagnostics:
        n_last = self._cfg.steps
        if n_last > MAX_STEPS:
            raise DomainError(
                f"a run of {n_last} steps exceeds the bound of {MAX_STEPS}")
        norms, energies = self._series()
        steps = np.arange(1, n_last + 1)
        times = self._t0 + self._cfg.dt * steps
        finite = np.isfinite(norms) & np.isfinite(energies)
        if not finite.all():
            raise NumericalError(f"{self._scheme} produced non-finite values "
                                 f"at step {int(np.argmin(finite)) + 1}")
        return Diagnostics(steps, times, norms, energies)


def require_solver_grid(grid: Grid) -> None:
    """Refuse a grid the solvers do not run on; allocates nothing.

    The grid must be 1D or 3D and cubic, with 8 to MAX_POINTS points in
    all and a spacing whose square and its reciprocal are finite and
    nonzero (the stability limit and the stencil divide by h^2).
    """
    if grid.ndim not in (1, 3):
        raise DomainError("solvers support 1D and 3D grids")
    if not grid.is_cubic():
        raise DomainError("solvers require cubic grids")
    if min(grid.shape) < 8:
        raise DomainError("solvers require at least 8 points per axis")
    if grid.npoints > MAX_POINTS:
        raise DomainError(f"a grid of {grid.npoints} points exceeds the "
                          f"bound of {MAX_POINTS}")
    require_normal_power("grid spacing", grid.spacings[0])


def leapfrog_stability_limit(grid: Grid, c: float, mu: float = 0.0) -> float:
    """Largest stable dt: 2 / sqrt(4 c^2 sum_i h_i^-2 + mu^2).

    In 1D this is (h/c) / sqrt(1 + (mu h / 2c)^2), i.e. the plain CFL bound
    dt <= h/c for mu = 0.  c and a nonzero mu must have normal squares, and
    the sum under the root must be positive and finite.  c is checked, and
    named, before mu: first its square, then the sum without mu^2.
    """
    require_normal_power("c", c)
    q = 4.0 * c**2 * sum(1.0 / h**2 for h in grid.spacings)
    if 0.0 < q < math.inf and mu:
        require_normal_power("rest frequency m0 c^2/hbar", mu)
        q += mu**2
    if not 0.0 < q < math.inf:
        raise DomainError(f"c = {c!r} is out of range on a grid of spacings "
                          f"{grid.spacings!r}: 4 c^2 sum h^-2 + mu^2 "
                          f"{'overflows' if q else 'underflows'}")
    return 2.0 / math.sqrt(q)


# Bound on the steps x modes entries of one diagnostics block: the table of
# per-row rotations stays at 256 KiB of complex128 on any grid.
_BLOCK_ENTRIES = 1 << 14
# Blocks between direct evaluations of exp(n rates); in between, the block
# start advances by one complex multiplication per mode.
_ANCHOR_BLOCKS = 64


def _exponential_sums(phases: np.ndarray, weights: np.ndarray,
                      steps: int) -> np.ndarray:
    """Re sum_k weights_k exp(i n phases_k) for n = 1..steps.

    Modes whose phases are exactly equal share one exponential: their
    weights are summed first, so the sums run over the distinct phases
    (a grid's symmetric modes repeat each one up to 48 times).  Rows go
    in blocks of _BLOCK_ENTRIES // (number of modes before grouping) steps,
    so grouping shrinks the table and not the phase span j phases of a
    block.  The per-row factors exp(i j phases), j < rows, are tabulated
    once, and a block is one complex matrix-vector product of that table
    with head = weights * exp(i n0 phases).  head is evaluated directly
    every _ANCHOR_BLOCKS blocks and otherwise advanced by
    exp(i rows phases), so rounding accumulates over at most that many
    multiplications.
    """
    out = np.zeros(steps)
    if phases.size == 0:
        return out
    rows = max(1, min(steps, _BLOCK_ENTRIES // phases.size))
    phases, group = np.unique(phases, return_inverse=True)
    summed = np.empty(phases.size, dtype=complex)
    summed.real = np.bincount(group, weights.real, phases.size)
    summed.imag = np.bincount(group, weights.imag, phases.size)
    table = np.exp(1j * np.multiply.outer(np.arange(rows), phases))
    advance = np.exp(1j * (rows * phases))
    for block, start in enumerate(range(0, steps, rows)):
        if block % _ANCHOR_BLOCKS == 0:
            head = summed * np.exp(1j * ((start + 1) * phases))
        else:
            head *= advance
        stop = min(start + rows, steps)
        out[start:stop] = (table[: stop - start] @ head).real
    return out


def solve_wave(initial: ScalarField, initial_rate: ScalarField,
               consts: PhysicalConstants, cfg: SolverConfig) -> SolveReport:
    """Advance psi_tt = c^2 lap(psi): solve_relativistic at m0 = 0."""
    return solve_relativistic(initial, initial_rate, replace(consts, m0=0.0),
                              cfg)


def solve_relativistic(initial: ScalarField, initial_rate: ScalarField,
                       consts: PhysicalConstants, cfg: SolverConfig
                       ) -> SolveReport:
    """Advance psi_tt = c^2 lap(psi) - mu^2 psi, mu = m0 c^2/hbar, by leapfrog.

    The first step is a Taylor step.  Plane waves rotate at the dispersion
    frequency omega = sqrt(c^2 k^2 + mu^2) up to O(dt^2, h^2).
    """
    grid = initial.grid
    require_solver_grid(grid)
    if initial_rate.grid != grid:
        raise DomainError("initial and rate fields must share a grid")
    if cfg.scheme != LEAPFROG:
        raise DomainError("second-order-in-time equations use the leapfrog scheme")
    c, mu = consts.c, consts.rest_frequency
    limit = leapfrog_stability_limit(grid, c, mu)
    if cfg.dt > limit:
        raise StabilityError(
            f"dt = {cfg.dt:.6g} exceeds the stability limit {limit:.6g}"
        )

    dt = cfg.dt
    n_last = cfg.steps
    scale = grid.cell_volume / grid.npoints  # Parseval: sum_x = sum_k / N

    # Mode k with operator eigenvalue sigma obeys
    # U^{n+1} = 2x U^n - U^{n-1}, x = 1 + dt^2 sigma / 2 = cos(theta), and
    # the Taylor step gives U^1 = x U^0 + dt V.  Hence
    # U^n = cos(n theta) a + sin(n theta) / sin(theta) b with a = U^0 and
    # b = U^1 - x U^0 = dt V; theta is real for dt within the limit.
    sigma = c * c * _stencil_eigenvalues(grid) - mu * mu
    q = 0.5 * dt * np.sqrt(-sigma).ravel()  # sin(theta / 2)
    s2 = 4.0 * q * q * (1.0 - q) * (1.0 + q)  # 1 - x^2 = sin(theta)^2

    # non-finite input surfaces as NumericalError in SolveReport, not a
    # warning; so do the nan and inf of flat modes, overwritten below
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        theta = 2.0 * np.arcsin(q)
        root = np.sqrt(s2)  # sin(theta)
        a = _dft(initial.values, grid.ndim).ravel()
        b = dt * _dft(initial_rate.values, grid.ndim).ravel()
        # The last step, mode by mode: U^n = cos_n a + sin_n b.
        cos_n = np.cos(n_last * theta)
        sin_n = np.sin(n_last * theta) / root
        # Modes with s2 > 0 oscillate.  The others have theta = 0 or pi:
        # s2 = 0, or one ulp below 0 (q one ulp above 1) from rounding at
        # dt = limit.  There the mode is U^n = e^n (a + e n b), e = cos(theta).
        osc = s2 > 0.0
        flat = ~osc
        if flat.any():
            sign = np.where(q[flat] < 0.5, 1.0, -1.0)
            cos_n[flat] = sign**n_last
            sin_n[flat] = n_last * sign ** (n_last - 1)
        final = _dft((cos_n * a + sin_n * b).reshape(grid.shape), grid.ndim,
                     inverse=True)

    def series() -> tuple[np.ndarray, np.ndarray]:
        with np.errstate(invalid="ignore", over="ignore"):
            aa = a.real**2 + a.imag**2
            bb = b.real**2 + b.imag**2
            ab = (a * b.conj()).real
            # Each mode's discrete energy, (|b|^2 + s2 |a|^2) / (2 dt^2), is
            # the same at every step.
            energy = 0.5 * scale / dt**2 * float(np.sum(bb + s2 * aa))
            # |U^n|^2 per oscillating mode is alpha + Re[(beta - i gamma) z^n]
            # with z = exp(2i theta), summed in place, so one steps-long
            # array is live at a time.
            ao, bo = aa[osc], bb[osc] / s2[osc]
            weights = 0.5 * (ao - bo) - 1j * (ab[osc] / root[osc])
            norms = _exponential_sums(2.0 * theta[osc], weights, n_last)
            norms += float(np.sum(0.5 * (ao + bo))) + float(np.sum(aa[flat]))
            if flat.any():  # |U^n|^2 = |a|^2 + 2 e n Re(a conj(b)) + n^2 |b|^2
                n = np.arange(1.0, n_last + 1)
                linear = 2.0 * float(np.sum(sign * ab[flat]))
                norms += n * (linear + n * float(np.sum(bb[flat])))
            np.maximum(norms, 0.0, out=norms)
            norms *= scale
            np.sqrt(norms, out=norms)
        return norms, np.full(n_last, energy)

    return SolveReport(initial, cfg, final, series, "leapfrog")


def _dft(values: np.ndarray, ndim: int, inverse: bool = False) -> np.ndarray:
    """DFT of a 1D or 3D grid's ``values``.

    A 1D grid takes np.fft.fft/ifft: the same bytes as fftn/ifftn, without
    their N-D argument handling, which costs as much as a 64-point
    transform.
    """
    if ndim == 1:
        return np.fft.ifft(values) if inverse else np.fft.fft(values)
    return np.fft.ifftn(values) if inverse else np.fft.fftn(values)


def _stencil_eigenvalues(grid: Grid) -> np.ndarray:
    """Eigenvalues of the periodic central Laplacian, one per FFT mode: the
    grid's read-only ``laplacian_eigenvalues``, computed once per grid."""
    return grid.laplacian_eigenvalues


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
    require_solver_grid(grid)
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

    spectrum = _dft(initial.values, grid.ndim)
    power = spectrum.real**2 + spectrum.imag**2
    norm = math.sqrt(scale * float(np.sum(power)))
    energy = scale * float(np.sum(kin_weight * power))
    final = _dft(np.exp(1j * cfg.steps * phase) * spectrum, grid.ndim,
                 inverse=True)
    return SolveReport(initial, cfg, final,
                       lambda: (np.full(cfg.steps, norm),
                                np.full(cfg.steps, energy)),
                       "Crank-Nicolson")


def solve_plane_wave(equation: str, grid: Grid, k: float,
                     consts: PhysicalConstants, dt: float, steps: int
                     ) -> tuple[SolveReport, float, float]:
    """Evolve exp(i k x_1); return (report, omega, error).

    The grid is checked first.  k runs along the first axis, 1D or 3D, and
    every equation takes the positive branch E = hbar omega >= 0, so a
    negative k travels toward -x.  ``wave`` is the relativistic equation at
    m0 = 0; ``relativistic`` has omega = dispersion_omega(|k|) and starts
    leapfrog from the rate -i omega_h psi, omega_h that of the stencil
    wavenumber |(2/h) sin(kh/2)|, as omega would seed the backward branch
    at O(h^2); ``schrodinger`` runs Crank-Nicolson, omega = hbar k^2/(2 m0).
    error is the max distance from the continuum plane wave at the end: the
    initial sample rotated by exp(-i omega T), T the final time.
    """
    require_solver_grid(grid)
    initial = plane_wave_field(grid, (k, 0.0, 0.0), omega=0.0, t=0.0)
    if equation == "schrodinger":
        cfg = SolverConfig(dt=dt, steps=steps, scheme=CRANK_NICOLSON)
        report = solve_schrodinger(initial, consts, cfg)
        omega = schrodinger_omega(k, consts)  # the solver refused m0 = 0
    elif equation in ("wave", "relativistic"):
        cfg = SolverConfig(dt=dt, steps=steps)
        if equation == "wave":
            consts = replace(consts, m0=0.0)
        omega = dispersion_omega(abs(k), consts)
        report = solve_relativistic(
            initial, leapfrog_start_rate(initial, k, consts), consts, cfg)
    else:
        raise DomainError(f"unknown equation {equation!r}")
    phase = cmath.rect(1.0, -omega * report.final.time_stamp)
    error = float(np.max(np.abs(report.final.values - initial.values * phase)))
    return report, omega, error


def leapfrog_start_rate(initial: ScalarField, k: float,
                        consts: PhysicalConstants) -> ScalarField:
    """The rate -i omega_h psi that starts the plane wave ``initial`` =
    exp(i k x_1) on leapfrog's forward branch.

    omega_h is dispersion_omega of the stencil wavenumber |(2/h) sin(kh/2)|,
    h the grid spacing; omega(k) itself would seed the backward branch at
    O(h^2).
    """
    h = initial.grid.spacings[0]
    omega_h = dispersion_omega(abs(2.0 / h * math.sin(0.5 * k * h)), consts)
    return initial.with_values(-1j * omega_h * initial.values)


# ---------------------------------------------------------------------------
# Hamilton-Jacobi residuals of action fields
# ---------------------------------------------------------------------------

def _time_levels(levels, count: int) -> tuple[list[ScalarField], float]:
    """``count`` ScalarFields on one grid, uniformly spaced in time; and dt."""
    try:
        levels = list(levels)
    except TypeError:
        levels = []
    if len(levels) != count or not all(isinstance(s, ScalarField)
                                       for s in levels):
        raise InsufficientDataError(f"need {count} time levels as ScalarFields")
    if any(s.grid != levels[0].grid for s in levels):
        raise DomainError("time levels must share a grid")
    steps = [b.time_stamp - a.time_stamp for a, b in zip(levels, levels[1:])]
    dt = steps[0]
    if not all(0 < step < math.inf for step in steps):
        raise InsufficientDataError(
            "time levels must be finite, ordered and distinct")
    if any(abs(step - dt) > 1e-9 * dt for step in steps):
        raise InsufficientDataError("time levels must be uniformly spaced")
    return levels, dt


def hje_residual(S, consts: PhysicalConstants, massless: bool = False, *,
                 grid: Grid | None = None) -> ScalarField:
    """Pointwise residual of the chain's HJE spec (m0 = 0 if ``massless``),
    (dS/dt)^2 - c^2 (grad S)^2 - m0^2 c^4, by ``residual_nonlinear``'s formula.

    ``S`` is either a pair of ScalarFields at two adjacent time levels
    (residual evaluated at the midpoint time: centered dS/dt, averaged
    gradients) or a dual closed form evaluated exactly on ``grid`` at
    t = 0: the particle-like ParticleState or the wave-like PlaneWave.
    """
    if isinstance(S, (ParticleState, PlaneWave)) and grid is None:
        raise InsufficientDataError("closed-form actions need a target grid")
    if isinstance(S, (ParticleState, PlaneWave)) and grid.ndim > 3:
        raise DomainError("closed-form actions have at most 3 space axes")
    out_t = 0.0
    if isinstance(S, ParticleState):  # [grad S..., dS/dt]
        d1 = [np.full(grid.shape, q, dtype=np.complex128)
              for q in (*S.p[: grid.ndim], -S.E)]
    elif isinstance(S, PlaneWave):
        values = plane_wave_field(grid, S.k, S.omega, 0.0, S.amplitude).values
        d1 = [1j * q * values for q in (*S.k[: grid.ndim], -S.omega)]
    else:
        (s0, s1), dt = _time_levels(S, 2)
        grid = s0.grid
        d1 = [0.5 * (a + b) for a, b in zip(central_gradient(s0.values, grid),
                                            central_gradient(s1.values, grid))]
        d1.append((s1.values - s0.values) / dt)
        out_t = 0.5 * (s0.time_stamp + s1.time_stamp)

    spec = pde_algebra._hje_spec(replace(consts, m0=0.0) if massless
                                 else consts, grid.ndim)
    residual = pde_algebra._nonlinear(spec, d1.__getitem__, None)
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
    (s0, s1), dt = _time_levels(psi_pair, 2)
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
    levels, dt = _time_levels(psi_triple, 3)
    for s in levels:
        nonzero_peak(s.values)

    grid = levels[1].grid
    space_defect = 0.0
    for ax, h in enumerate(grid.spacings):
        curv = _log_curvature(levels[1].values, ax, h)
        interior = [slice(None)] * grid.ndim
        interior[ax] = slice(1, grid.shape[ax] - 1)
        space_defect = max(
            space_defect, float(np.max(np.abs(curv[tuple(interior)])))
        )

    stacked = np.stack([s.values for s in levels])
    time_defect = float(np.max(np.abs(_log_curvature(stacked, 0, dt)[1])))
    return space_defect, time_defect


def _log_curvature(v: np.ndarray, axis: int, h: float) -> np.ndarray:
    """d2 ln(v) along ``axis`` as (v v'' - v'^2) / v^2, periodic differences."""
    d1 = central_difference(v, axis, h)
    d2 = second_difference(v, axis, h)
    return (v * d2 - d1**2) / v**2
