"""Closed-form relativistic wave-particle kinematics.

Energy-momentum algebra E^2 = p^2 c^2 + m0^2 c^4, the quantum relations
E = hbar*omega and p = hbar*k, the positive dispersion branch
omega(k) = sqrt(c^2 k^2 + (m0 c^2 / hbar)^2), and the phase / group /
particle velocities it implies.  All functions are pure and take an
explicit constants triple; natural units are just hbar = c = m0 = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError


@dataclass(frozen=True)
class PhysicalConstants:
    """Unit system: action quantum, light speed, rest mass (m0 = 0 allowed)."""

    hbar: float = 1.0
    c: float = 1.0
    m0: float = 1.0

    def __post_init__(self):
        if not 0 < self.hbar < math.inf:
            raise DomainError("hbar must be positive and finite")
        if not 0 < self.c < math.inf:
            raise DomainError("c must be positive and finite")
        if not 0 <= self.m0 < math.inf:
            raise DomainError("m0 must be non-negative and finite")

    @property
    def c_squared(self) -> float:
        """c^2; DomainError naming c once it overflows (c > 1.34e154)."""
        try:
            return self.c**2
        except OverflowError:
            raise DomainError(f"c = {self.c!r} is out of range: "
                              "its square overflows") from None

    @property
    def rest_energy(self) -> float:
        """m0 c^2; DomainError naming c once c^2 overflows."""
        return self.m0 * self.c_squared

    @property
    def rest_frequency(self) -> float:
        """m0 c^2 / hbar, the zero-momentum angular frequency."""
        return self.rest_energy / self.hbar


def _vec3(v) -> np.ndarray:
    arr = np.asarray(v, dtype=float)
    if arr.shape != (3,):
        raise DomainError(f"expected a 3-vector, got shape {arr.shape}")
    return arr


def energy_from_momentum(p, consts: PhysicalConstants) -> float:
    """Positive root of E^2 = |p|^2 c^2 + m0^2 c^4."""
    p = _vec3(p)
    return math.hypot(math.hypot(*p.tolist()) * consts.c, consts.rest_energy)


def planck_energy(omega: float, consts: PhysicalConstants) -> float:
    """E = hbar * omega."""
    return consts.hbar * omega


def de_broglie_momentum(k, consts: PhysicalConstants) -> np.ndarray:
    """p = hbar * k, componentwise."""
    return consts.hbar * _vec3(k)


def dispersion_omega(k: float, consts: PhysicalConstants) -> float:
    """Positive dispersion branch omega(k) = sqrt(c^2 k^2 + (m0 c^2/hbar)^2).

    For m0 = 0 this reduces exactly to omega = c*k.
    """
    if k < 0:
        raise DomainError("wavenumber magnitude must be >= 0")
    return math.hypot(consts.c * k, consts.rest_frequency)


def phase_velocity(k: float, consts: PhysicalConstants) -> float:
    """omega(k)/k; equals c for m0 = 0 and exceeds c for m0 > 0."""
    if k == 0:
        if consts.m0 > 0:
            raise DomainError("phase velocity diverges at k = 0 for m0 > 0")
        return consts.c
    return dispersion_omega(k, consts) / k


def group_velocity(k, consts: PhysicalConstants) -> np.ndarray:
    """d omega / d k = c^2 k / omega(|k|); subluminal for m0 > 0."""
    k = _vec3(k)
    omega = dispersion_omega(math.hypot(*k.tolist()), consts)
    if omega == 0.0:
        return np.zeros(3)
    return consts.c * (consts.c * k / omega)  # c^2 k alone can overflow


def particle_velocity(p, consts: PhysicalConstants) -> np.ndarray:
    """v = (p/m0) / sqrt(1 + |p|^2 / (m0 c)^2); requires m0 > 0."""
    p = _vec3(p)
    if consts.m0 <= 0:
        raise DomainError(
            "particle velocity needs m0 > 0; use group_velocity for massless"
        )
    ratio = math.hypot(*p.tolist()) / (consts.m0 * consts.c)
    return p / (consts.m0 * math.hypot(1.0, ratio))


def momentum_from_velocity(v, consts: PhysicalConstants) -> np.ndarray:
    """p = m0 v / sqrt(1 - v^2/c^2); inverse of particle_velocity."""
    v = _vec3(v)
    if consts.m0 <= 0:
        raise DomainError("momentum from velocity needs m0 > 0")
    beta = math.hypot(*v.tolist()) / consts.c  # c^2 alone can overflow
    if beta >= 1.0:
        raise DomainError("|v| must be below c")
    return consts.m0 * v / math.sqrt(1.0 - beta * beta)


@dataclass(frozen=True)
class ParticleState:
    """Energy-momentum pair; the action S = p . r - E t."""

    E: float
    p: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "p", _vec3(self.p))
        object.__setattr__(self, "E", float(self.E))

    @classmethod
    def from_momentum(cls, p, consts: PhysicalConstants) -> "ParticleState":
        p = _vec3(p)
        return cls(E=energy_from_momentum(p, consts), p=p)


@dataclass(frozen=True)
class PlaneWave:
    """Monochromatic wave amplitude * exp(i (k . r - omega t)), also an action."""

    amplitude: complex
    k: np.ndarray
    omega: float

    def __post_init__(self):
        object.__setattr__(self, "k", _vec3(self.k))
        object.__setattr__(self, "amplitude", complex(self.amplitude))
        object.__setattr__(self, "omega", float(self.omega))

    @classmethod
    def on_shell(cls, amplitude, k, consts: PhysicalConstants) -> "PlaneWave":
        k = _vec3(k)
        omega = dispersion_omega(math.hypot(*k.tolist()), consts)
        return cls(amplitude=amplitude, k=k, omega=omega)
