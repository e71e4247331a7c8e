"""Relativistic point mechanics and the momentum-field curl check.

Integrates dp/dt = -grad(Phi), dr/dt = v(p) with fixed-step RK4 using the
exact relativistic velocity-momentum inversion, and tests sampled momentum
fields for irrotationality (a momentum field must be a gradient).  A
Potential is data, a stiffness kappa and a constant force F with

    Phi = kappa |r|^2 / 2 - F . r,    grad Phi = kappa r - F,

so the free, linear and harmonic potentials need no callables and the
integrator steps six Python floats.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from functools import cached_property
from math import hypot, isfinite

import numpy as np

from .errors import DivergenceError, DomainError
from .fields import Grid, central_difference, central_gradient
from .kinematics import PhysicalConstants
from .solvers import MAX_STEPS


@dataclass(frozen=True)
class Potential:
    """Affine-force potential Phi = kappa |r|^2 / 2 - F . r.

    The force -grad Phi = F - kappa r is affine in r, so a stiffness and
    a force vector describe every potential the integrator supports.
    ``value`` accepts stacked coordinates of shape (..., 3) and returns
    shape (...).
    """

    kappa: float
    force: tuple[float, float, float]

    @classmethod
    def free(cls) -> "Potential":
        # F = -0.0 makes the force -grad(0) a negated zero, which keeps
        # the sign of zero momentum components through a step
        return cls(0.0, (-0.0, -0.0, -0.0))

    @classmethod
    def linear(cls, force) -> "Potential":
        """Phi = -F . r (constant force F)."""
        f = np.asarray(force, dtype=float)
        if f.shape != (3,):
            raise DomainError("force must be a 3-vector")
        return cls(0.0, tuple(f.tolist()))

    @classmethod
    def harmonic(cls, kappa: float) -> "Potential":
        """Phi = kappa |r|^2 / 2."""
        return cls(float(kappa), (0.0, 0.0, 0.0))

    # At kappa = 0 the kappa terms are left out, not multiplied by zero,
    # which would give nan where r or |r|^2 is infinite.
    def value(self, r) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        phi = (-r) @ np.array(self.force)
        if self.kappa:
            phi = 0.5 * self.kappa * np.sum(r ** 2, axis=-1) + phi
        return phi


def _norms(p: np.ndarray) -> np.ndarray:
    """|p| per row of an (n, 3) array, column by column: bit for bit
    ``np.hypot.reduce(p, axis=1)``, and about twice as fast on a strided
    view such as Trajectory.p."""
    return np.hypot(np.hypot(p[:, 0], p[:, 1]), p[:, 2])


@dataclass(frozen=True)
class Trajectory:
    """Sampled phase-space history (t_i, r_i, p_i), i = 0..steps.

    From integrate_newton, ``r`` and ``p`` are read-only strided views of
    one (samples, 6) buffer of rows (x, y, z, px, py, pz): columns 0-2
    and 3-5.  Copy them to get writable arrays.  ``energies()`` and
    ``speeds()`` read one |p| column, computed on first use.
    """

    t: np.ndarray
    r: np.ndarray  # (samples, 3)
    p: np.ndarray  # (samples, 3)

    @cached_property
    def momentum_norms(self) -> np.ndarray:
        """|p| per sample, ``_norms(p)``; read-only, computed once."""
        mags = _norms(self.p)
        mags.flags.writeable = False
        return mags

    def energies(self, potential: Potential, consts: PhysicalConstants
                 ) -> np.ndarray:
        """m0 c^2 sqrt(1 + p^2/m0^2 c^2) + Phi(r) per sample, conserved."""
        ratios = self.momentum_norms / (consts.m0 * consts.c)
        return consts.rest_energy * np.hypot(1.0, ratios) + potential.value(self.r)

    def speeds(self, consts: PhysicalConstants) -> np.ndarray:
        """|v| per sample: |p| / (m0 sqrt(1 + |p|^2 / (m0 c)^2)); needs m0 > 0."""
        if consts.m0 <= 0:
            raise DomainError("particle speeds need m0 > 0")
        mags = self.momentum_norms
        return mags / (consts.m0 * np.hypot(1.0, mags / (consts.m0 * consts.c)))

    def table(self, energies: np.ndarray) -> tuple[list[str], list[np.ndarray]]:
        """CSV header and columns t, r, p and the given ``energies()``."""
        return (["t", "rx", "ry", "rz", "px", "py", "pz", "energy"],
                [self.t, *self.r.T, *self.p.T, energies])


def integrate_newton(potential: Potential, r0, p0,
                     consts: PhysicalConstants, dt: float, steps: int
                     ) -> Trajectory:
    """Fixed-step RK4 for dr/dt = v(p), dp/dt = -grad Phi(r).

    Steps over six Python floats in blocks of 256, checking finiteness
    after each block.  The force form is chosen once per call from the
    potential: F at kappa = 0, (-kappa) s when every F_i is +0.0, and
    -(kappa s - F) otherwise; each row equals the array form bit for bit.
    """
    if not (dt > 0):
        raise DomainError("dt must be positive")
    if steps < 1:
        raise DomainError("steps must be >= 1")
    if steps > MAX_STEPS:
        raise DomainError(
            f"a run of {steps} steps exceeds the bound of {MAX_STEPS}")
    if not math.isfinite(dt * steps):
        raise DomainError(f"the time span dt * steps = {dt * steps} overflows")
    if consts.m0 <= 0:
        raise DomainError("trajectory integration needs m0 > 0")

    r = np.asarray(r0, dtype=float).copy()
    p = np.asarray(p0, dtype=float).copy()
    if r.shape != (3,) or p.shape != (3,):
        raise DomainError("r0 and p0 must be 3-vectors")

    ts = np.arange(steps + 1) * dt

    # One RK4 step over Python floats.  The velocity repeats
    # particle_velocity's operations, p_i / (m0 hypot(1, |p| / (m0 c))),
    # and the force is -grad Phi = -(kappa s_i - F_i) at the stage
    # position s, so every row is bit-identical to the array form.  When
    # every F_i is +0.0 that force is (-kappa) s_i, since y - (+0.0) is y
    # for every y; with F_i = -0.0 and s_i = -0.0 the two forms differ in
    # the sign of zero.  At kappa = 0 the force is F and no s is built.
    m0, mc = consts.m0, consts.m0 * consts.c
    kappa, nkappa = potential.kappa, -potential.kappa
    fx, fy, fz = potential.force
    harmonic = bool(kappa) and all(
        math.copysign(1.0, f) == 1.0 and f == 0.0 for f in potential.force)
    half, sixth = 0.5 * dt, dt / 6.0
    x, y, z = r.tolist()
    px, py, pz = p.tolist()
    buf = array("d", (x, y, z, px, py, pz))  # one row per sample
    extend, hyp = buf.extend, hypot
    ax1 = ax2 = ax3 = ax4 = fx
    ay1 = ay2 = ay3 = ay4 = fy
    az1 = az2 = az3 = az4 = fz
    # A non-finite state never turns finite again, so the loop runs blocks
    # of 256 steps and checks only after each block; a scan of the rows
    # finds the first diverged step, which DivergenceError names.
    for start in range(0, steps, 256):
        for _ in range(min(256, steps - start)):
            d = m0 * hyp(1.0, hyp(px, py, pz) / mc)
            vx1, vy1, vz1 = px / d, py / d, pz / d
            if harmonic:
                ax1, ay1, az1 = nkappa * x, nkappa * y, nkappa * z
            elif kappa:
                ax1, ay1, az1 = (-(kappa * x - fx), -(kappa * y - fy),
                                 -(kappa * z - fz))

            qx, qy, qz = px + half * ax1, py + half * ay1, pz + half * az1
            d = m0 * hyp(1.0, hyp(qx, qy, qz) / mc)
            vx2, vy2, vz2 = qx / d, qy / d, qz / d
            if harmonic:
                ax2, ay2, az2 = (nkappa * (x + half * vx1),
                                 nkappa * (y + half * vy1),
                                 nkappa * (z + half * vz1))
            elif kappa:
                ax2, ay2, az2 = (-(kappa * (x + half * vx1) - fx),
                                 -(kappa * (y + half * vy1) - fy),
                                 -(kappa * (z + half * vz1) - fz))

            qx, qy, qz = px + half * ax2, py + half * ay2, pz + half * az2
            d = m0 * hyp(1.0, hyp(qx, qy, qz) / mc)
            vx3, vy3, vz3 = qx / d, qy / d, qz / d
            if harmonic:
                ax3, ay3, az3 = (nkappa * (x + half * vx2),
                                 nkappa * (y + half * vy2),
                                 nkappa * (z + half * vz2))
            elif kappa:
                ax3, ay3, az3 = (-(kappa * (x + half * vx2) - fx),
                                 -(kappa * (y + half * vy2) - fy),
                                 -(kappa * (z + half * vz2) - fz))

            qx, qy, qz = px + dt * ax3, py + dt * ay3, pz + dt * az3
            d = m0 * hyp(1.0, hyp(qx, qy, qz) / mc)
            vx4, vy4, vz4 = qx / d, qy / d, qz / d
            if harmonic:
                ax4, ay4, az4 = (nkappa * (x + dt * vx3),
                                 nkappa * (y + dt * vy3),
                                 nkappa * (z + dt * vz3))
            elif kappa:
                ax4, ay4, az4 = (-(kappa * (x + dt * vx3) - fx),
                                 -(kappa * (y + dt * vy3) - fy),
                                 -(kappa * (z + dt * vz3) - fz))

            x = x + sixth * (vx1 + 2.0 * vx2 + 2.0 * vx3 + vx4)
            y = y + sixth * (vy1 + 2.0 * vy2 + 2.0 * vy3 + vy4)
            z = z + sixth * (vz1 + 2.0 * vz2 + 2.0 * vz3 + vz4)
            px = px + sixth * (ax1 + 2.0 * ax2 + 2.0 * ax3 + ax4)
            py = py + sixth * (ay1 + 2.0 * ay2 + 2.0 * ay3 + ay4)
            pz = pz + sixth * (az1 + 2.0 * az2 + 2.0 * az3 + az4)
            extend((x, y, z, px, py, pz))
        if not (isfinite(x) and isfinite(y) and isfinite(z)
                and isfinite(px) and isfinite(py) and isfinite(pz)):
            break

    rows = np.frombuffer(buf).reshape(-1, 6)
    diverged = ~np.isfinite(rows[1:]).all(axis=1)
    if diverged.any():
        raise DivergenceError(
            f"trajectory diverged at step {int(np.argmax(diverged)) + 1}")
    rows.flags.writeable = False
    return Trajectory(ts, rows[:, :3], rows[:, 3:])


def curl_check(p_field, grid: Grid) -> float:
    """Max-norm of the discrete curl of a sampled 3D momentum field.

    ``p_field`` has shape (3, nx, ny, nz).  Central differences with
    periodic wrap; the max is taken over samples whose stencils do not
    cross the wrap, so gradients of non-periodic potentials (x^2 + y^2
    and friends) are judged by their interior behavior.  Gradient fields
    give O(h^2), rotational fields an O(1) defect.
    """
    p = np.asarray(p_field, dtype=float)
    if grid.ndim != 3:
        raise DomainError("curl_check needs a 3D grid")
    if p.shape != (3,) + grid.shape:
        raise DomainError(f"p_field must have shape (3, nx, ny, nz), got {p.shape}")

    hs = grid.spacings

    def d(component, axis):
        return central_difference(p[component], axis, hs[axis])

    # (component, differentiated axes) per curl entry
    entries = [
        (d(2, 1) - d(1, 2), (1, 2)),
        (d(0, 2) - d(2, 0), (2, 0)),
        (d(1, 0) - d(0, 1), (0, 1)),
    ]
    worst = 0.0
    for values, axes in entries:
        sel = [slice(None)] * 3
        for ax in axes:
            sel[ax] = slice(1, grid.shape[ax] - 1)
        worst = max(worst, float(np.max(np.abs(values[tuple(sel)]))))
    return worst


def gradient_field(scalar_samples: np.ndarray, grid: Grid) -> np.ndarray:
    """Central-difference gradient of a sampled scalar, shape (3, nx, ny, nz)."""
    if grid.ndim != 3:
        raise DomainError("gradient_field needs a 3D grid")
    return np.stack(central_gradient(scalar_samples, grid))

