"""Relativistic point mechanics and the classical action-field checks.

Integrates dp/dt = -grad(Phi), dr/dt = v(p) with fixed-step RK4 using the
exact relativistic velocity-momentum inversion, tests sampled momentum
fields for irrotationality (a momentum field must be a gradient), and
evaluates the Hamilton-Jacobi residual with a scalar potential

    (dS/dt + Phi)^2 - c^2 (grad S)^2 - m0^2 c^4 = 0,

which reduces bit-for-bit to the free massive residual when Phi = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DivergenceError, DomainError
from .fields import Grid, ScalarField, central_difference, central_gradient
from .kinematics import PhysicalConstants, particle_velocity
from .reporting import write_csv
from .solvers import hje_residual

# Same function as the wave-side particle velocity: v = (p/m0)/sqrt(1+p^2/m0^2c^2).
velocity_from_momentum = particle_velocity


@dataclass(frozen=True)
class Potential:
    """Scalar potential with an analytic gradient.

    Both callables accept stacked coordinates of shape (..., 3) and return
    shapes (...) and (..., 3) respectively.
    """

    name: str
    value: Callable[[np.ndarray], np.ndarray]
    gradient: Callable[[np.ndarray], np.ndarray]

    @classmethod
    def free(cls) -> "Potential":
        return cls(
            name="free",
            value=lambda r: np.zeros(np.asarray(r).shape[:-1]),
            gradient=lambda r: np.zeros(np.asarray(r).shape),
        )

    @classmethod
    def linear(cls, force) -> "Potential":
        """Phi = -F . r (constant force F)."""
        f = np.asarray(force, dtype=float)
        if f.shape != (3,):
            raise DomainError("force must be a 3-vector")
        return cls(
            name="linear",
            value=lambda r: -np.asarray(r) @ f,
            gradient=lambda r: np.broadcast_to(-f, np.asarray(r).shape).copy(),
        )

    @classmethod
    def harmonic(cls, kappa: float) -> "Potential":
        """Phi = kappa |r|^2 / 2."""
        kappa = float(kappa)
        return cls(
            name="harmonic",
            value=lambda r: 0.5 * kappa * np.sum(np.asarray(r) ** 2, axis=-1),
            gradient=lambda r: kappa * np.asarray(r, dtype=float),
        )


def gradient_consistency(potential: Potential, points, eps: float = 1e-5
                         ) -> float:
    """Max deviation of the analytic gradient from central differences."""
    worst = 0.0
    for r in np.atleast_2d(np.asarray(points, dtype=float)):
        g = potential.gradient(r)
        for ax in range(3):
            step = np.zeros(3)
            step[ax] = eps
            fd = (potential.value(r + step) - potential.value(r - step)) / (2 * eps)
            worst = max(worst, abs(float(fd) - float(g[ax])))
    return worst


def total_energy(r, p, potential: Potential, consts: PhysicalConstants) -> float:
    """m0 c^2 sqrt(1 + p^2/m0^2 c^2) + Phi(r), conserved along trajectories."""
    p = np.asarray(p, dtype=float)
    ratio = math.hypot(*p.tolist()) / (consts.m0 * consts.c)
    return consts.rest_energy * math.hypot(1.0, ratio) + float(
        potential.value(np.asarray(r, dtype=float))
    )


@dataclass(frozen=True)
class Trajectory:
    """Sampled phase-space history (t_i, r_i, p_i), i = 0..steps."""

    t: np.ndarray
    r: np.ndarray  # (samples, 3)
    p: np.ndarray  # (samples, 3)

    def energies(self, potential: Potential, consts: PhysicalConstants
                 ) -> np.ndarray:
        ratios = np.hypot.reduce(self.p, axis=1) / (consts.m0 * consts.c)
        return consts.rest_energy * np.hypot(1.0, ratios) + potential.value(self.r)

    def speeds(self, consts: PhysicalConstants) -> np.ndarray:
        """|v| per sample: |p| / (m0 sqrt(1 + |p|^2 / (m0 c)^2)); needs m0 > 0."""
        if consts.m0 <= 0:
            raise DomainError("particle speeds need m0 > 0")
        mags = np.hypot.reduce(self.p, axis=1)
        return mags / (consts.m0 * np.hypot(1.0, mags / (consts.m0 * consts.c)))

    def to_csv(self, path, potential: Potential, consts: PhysicalConstants
               ) -> None:
        energies = self.energies(potential, consts)
        rows = (
            (
                float(self.t[i]),
                float(self.r[i, 0]), float(self.r[i, 1]), float(self.r[i, 2]),
                float(self.p[i, 0]), float(self.p[i, 1]), float(self.p[i, 2]),
                float(energies[i]),
            )
            for i in range(self.t.size)
        )
        write_csv(
            path, ["t", "rx", "ry", "rz", "px", "py", "pz", "energy"], rows
        )


def integrate_newton(potential: Potential, r0, p0,
                     consts: PhysicalConstants, dt: float, steps: int,
                     method: str = "rk4") -> Trajectory:
    """Fixed-step RK4 for dr/dt = v(p), dp/dt = -grad Phi(r)."""
    if method != "rk4":
        raise DomainError(f"unsupported integrator {method!r}")
    if not (dt > 0):
        raise DomainError("dt must be positive")
    if steps < 1:
        raise DomainError("steps must be >= 1")
    if consts.m0 <= 0:
        raise DomainError("trajectory integration needs m0 > 0")

    r = np.asarray(r0, dtype=float).copy()
    p = np.asarray(p0, dtype=float).copy()
    if r.shape != (3,) or p.shape != (3,):
        raise DomainError("r0 and p0 must be 3-vectors")

    ts = np.arange(steps + 1) * dt
    rs = np.empty((steps + 1, 3))
    ps = np.empty((steps + 1, 3))
    rs[0], ps[0] = r, p

    def deriv(rr, pp):
        return velocity_from_momentum(pp, consts), -potential.gradient(rr)

    # A non-finite state never turns finite again, so the loop checks only
    # every 256 steps and a scan of the rows finds the first diverged step.
    with np.errstate(all="ignore"):
        for i in range(1, steps + 1):
            k1r, k1p = deriv(r, p)
            k2r, k2p = deriv(r + 0.5 * dt * k1r, p + 0.5 * dt * k1p)
            k3r, k3p = deriv(r + 0.5 * dt * k2r, p + 0.5 * dt * k2p)
            k4r, k4p = deriv(r + dt * k3r, p + dt * k3p)
            r = r + dt / 6.0 * (k1r + 2 * k2r + 2 * k3r + k4r)
            p = p + dt / 6.0 * (k1p + 2 * k2p + 2 * k3p + k4p)
            rs[i], ps[i] = r, p
            if i % 256 == 0 and not (np.isfinite(r).all()
                                     and np.isfinite(p).all()):
                break

    done = slice(1, i + 1)
    diverged = ~(np.isfinite(rs[done]).all(axis=1)
                 & np.isfinite(ps[done]).all(axis=1))
    if diverged.any():
        i = int(np.argmax(diverged)) + 1
        partial = Trajectory(ts[:i], rs[:i].copy(), ps[:i].copy())
        raise DivergenceError(
            f"trajectory diverged at step {i}",
            partial=partial,
            last_valid_step=i - 1,
        )
    return Trajectory(ts, rs, ps)


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


def hje_potential_residual(S, potential: Potential,
                           consts: PhysicalConstants, *,
                           grid: Grid | None = None, t: float = 0.0
                           ) -> ScalarField:
    """Residual of (dS/dt + Phi)^2 - c^2 (grad S)^2 - m0^2 c^4.

    Accepts the same action inputs as solvers.hje_residual.  With the free
    potential the output matches the free massive residual bit for bit.
    """
    if isinstance(S, tuple) and grid is None:
        grid = S[0].grid
    if grid is None:
        raise DomainError("a target grid is required")
    coords = np.stack(grid.meshgrid(), axis=-1)
    if coords.shape[-1] != 3:
        # embed lower-dimensional grids in the x-axis
        pad = np.zeros(coords.shape[:-1] + (3 - coords.shape[-1],))
        coords = np.concatenate([coords, pad], axis=-1)
    phi = potential.value(coords)
    # An identically-zero potential takes the free-residual path exactly.
    phi_arg = phi if np.any(phi) else None
    return hje_residual(
        S, consts, massless=False, grid=grid, t=t, potential_values=phi_arg
    )
