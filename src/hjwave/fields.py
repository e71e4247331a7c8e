"""Uniform periodic grids and complex scalar fields sampled on them.

A Grid may have any number of axes with per-axis extent; the time-stepping
solvers restrict themselves to cubic 1D/3D grids, while the PDE-algebra
residual evaluators use general n-axis grids (one axis per PDE argument,
time last).  Fields are immutable by convention: operations return new
instances and never mutate ``values`` in place.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, InsufficientResolutionError, ZeroFieldError

_HEADER = struct.Struct("<qqdd")  # dims, points per axis, spacing, time stamp
_ZERO_FIELD_CUTOFF = 1e-12  # fraction of max|psi| below which logs are refused


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid: ``shape[i]`` samples spanning ``lengths[i]``."""

    shape: tuple[int, ...]
    lengths: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "shape", tuple(int(n) for n in self.shape))
        object.__setattr__(self, "lengths", tuple(float(l) for l in self.lengths))
        if len(self.shape) != len(self.lengths) or not self.shape:
            raise ValueError("shape and lengths must be equal-length, non-empty")
        if any(n < 4 for n in self.shape):
            raise InsufficientResolutionError(
                f"need at least 4 points per axis, got {self.shape}"
            )
        if not all(0 < l < math.inf for l in self.lengths):
            raise ValueError("axis lengths must be positive and finite")

    @classmethod
    def line(cls, points: int, length: float) -> "Grid":
        return cls((points,), (length,))

    @classmethod
    def cube(cls, points: int, length: float) -> "Grid":
        return cls((points,) * 3, (length,) * 3)

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def spacings(self) -> tuple[float, ...]:
        return tuple(l / n for l, n in zip(self.lengths, self.shape))

    @property
    def spacing(self) -> float:
        """Common spacing of a cubic grid."""
        hs = self.spacings
        if max(hs) - min(hs) > 1e-12 * max(hs):
            raise ValueError("grid is not cubic; use .spacings")
        return hs[0]

    def is_cubic(self) -> bool:
        ns, ls = set(self.shape), set(self.lengths)
        return len(ns) == 1 and len(ls) == 1

    def axes(self) -> list[np.ndarray]:
        """Per-axis sample coordinates, starting at 0."""
        return [
            np.arange(n) * (l / n) for n, l in zip(self.shape, self.lengths)
        ]

    def meshgrid(self) -> list[np.ndarray]:
        return list(np.meshgrid(*self.axes(), indexing="ij"))

    @property
    def cell_volume(self) -> float:
        v = 1.0
        for h in self.spacings:
            v *= h
        return v

    @property
    def npoints(self) -> int:
        return int(np.prod(self.shape))


@dataclass(frozen=True)
class ScalarField:
    """Complex samples on a Grid, tagged with the instant they represent."""

    grid: Grid
    values: np.ndarray
    time_stamp: float = 0.0

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.complex128)
        if vals.shape != self.grid.shape:
            raise ValueError(
                f"values shape {vals.shape} does not match grid {self.grid.shape}"
            )
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "time_stamp", float(self.time_stamp))

    def with_values(self, values, time_stamp=None) -> "ScalarField":
        t = self.time_stamp if time_stamp is None else time_stamp
        return ScalarField(self.grid, values, t)

    def l2_norm(self) -> float:
        """Grid-weighted L2 norm sqrt(prod(h) * sum |psi|^2)."""
        return float(
            np.sqrt(self.grid.cell_volume * np.sum(np.abs(self.values) ** 2))
        )

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.values)))


def plane_wave_field(grid: Grid, k, omega: float, t: float = 0.0,
                     amplitude: complex = 1.0) -> ScalarField:
    """Sample amplitude * exp(i (k . r - omega t)) on the grid.

    ``k`` uses as many leading components as the grid has axes.
    """
    k = np.atleast_1d(np.asarray(k, dtype=float))
    coords = grid.meshgrid()
    phase = -omega * t
    for i, x in enumerate(coords):
        phase = phase + k[i] * x
    return ScalarField(grid, amplitude * np.exp(1j * phase), t)


def nonzero_peak(values: np.ndarray,
                 message: str = "field magnitude below 1e-12 of its maximum"
                 ) -> float:
    """max|values|; ZeroFieldError if any sample is below the cutoff of it."""
    mags = np.abs(values)
    peak = float(mags.max())
    if peak == 0.0 or float(mags.min()) < _ZERO_FIELD_CUTOFF * peak:
        raise ZeroFieldError(message)
    return peak


def central_difference(values: np.ndarray, axis: int, h: float) -> np.ndarray:
    """Periodic second-order central first difference along one axis."""
    return (
        np.roll(values, -1, axis=axis) - np.roll(values, 1, axis=axis)
    ) / (2 * h)


def central_gradient(values: np.ndarray, grid: Grid) -> list[np.ndarray]:
    """central_difference along every axis of the grid."""
    return [
        central_difference(values, ax, h) for ax, h in enumerate(grid.spacings)
    ]


# ---------------------------------------------------------------------------
# Binary serialization (cubic 1D/3D fields)
#
# Layout: int64 dims, int64 points per axis, float64 spacing, float64 time
# stamp (all little-endian), then row-major (re, im) float64 pairs.
# ---------------------------------------------------------------------------

def field_to_bytes(f: ScalarField) -> bytes:
    if not f.grid.is_cubic():
        raise ValueError("binary layout requires a cubic grid")
    header = _HEADER.pack(
        f.grid.ndim, f.grid.shape[0], f.grid.spacing, f.time_stamp
    )
    flat = np.ravel(f.values, order="C")
    inter = np.empty(2 * flat.size, dtype="<f8")
    inter[0::2] = flat.real
    inter[1::2] = flat.imag
    return header + inter.tobytes()


def field_from_bytes(blob: bytes) -> ScalarField:
    if len(blob) < _HEADER.size:
        raise FormatError(
            f"field blob of {len(blob)} bytes is shorter than its "
            f"{_HEADER.size}-byte header"
        )
    dims, points, spacing, time_stamp = _HEADER.unpack_from(blob, 0)
    if not 1 <= dims <= 3:
        raise FormatError(f"field header has {dims} axes; expected 1 to 3")
    if len(blob) != _HEADER.size + 16 * points**dims:
        raise FormatError("field payload size does not match header")
    grid = Grid((points,) * dims, (spacing * points,) * dims)
    inter = np.frombuffer(blob, dtype="<f8", offset=_HEADER.size)
    values = (inter[0::2] + 1j * inter[1::2]).reshape(grid.shape)
    return ScalarField(grid, values, time_stamp)


def save_field(path, f: ScalarField) -> None:
    with open(path, "wb") as fh:
        fh.write(field_to_bytes(f))


def load_field(path) -> ScalarField:
    with open(path, "rb") as fh:
        return field_from_bytes(fh.read())
