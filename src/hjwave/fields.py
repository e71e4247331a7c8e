"""Uniform periodic grids and complex scalar fields sampled on them.

A Grid may have any number of axes with per-axis extent; the time-stepping
solvers restrict themselves to cubic 1D/3D grids, while the PDE-algebra
residual evaluators use general n-axis grids (one axis per PDE argument,
time last).  Fields are immutable: ``values`` is a read-only view, and
operations return new instances.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (DomainError, FormatError, InsufficientResolutionError,
                     ZeroFieldError)

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

    @cached_property
    def spacings(self) -> tuple[float, ...]:
        return tuple(l / n for l, n in zip(self.lengths, self.shape))

    @cached_property
    def laplacian_eigenvalues(self) -> np.ndarray:
        """Eigenvalues of the periodic central Laplacian, one per FFT mode.

        Computed on first read and kept, read-only, for the grid's life:
        -sum_i (4 / h_i^2) sin^2(pi j_i / n_i), in the grid's shape.
        """
        per_axis = [-(4.0 / h**2) * np.sin(np.pi * np.arange(n) / n) ** 2
                    for n, h in zip(self.shape, self.spacings)]
        table = sum(np.meshgrid(*per_axis, indexing="ij", sparse=True))
        table.flags.writeable = False
        return table

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
        return math.prod(self.spacings)

    @property
    def npoints(self) -> int:
        return math.prod(self.shape)


@dataclass(frozen=True)
class ScalarField:
    """Complex samples on a Grid, tagged with the instant they represent.

    ``values`` is a read-only view of the samples.  A complex128 input is
    viewed, not copied, so the caller's own array stays writable; changing
    it afterwards changes the field; ``max_abs()`` is computed on each call.
    ``_memo`` holds one entry per equation that ``pde_algebra``'s per-point
    evaluators have read, its whole-grid residuals: a residual at a point
    is one item, read behind numpy's own index check.  Changing the
    caller's array leaves these entries stale; whole-grid calls store none.
    """

    grid: Grid
    values: np.ndarray
    time_stamp: float = 0.0

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.complex128)
        if vals.shape != self.grid.shape:
            raise ValueError(
                f"values shape {vals.shape} does not match grid {self.grid.shape}"
            )
        vals = vals.view()
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "time_stamp", float(self.time_stamp))

    def with_values(self, values, time_stamp=None) -> "ScalarField":
        t = self.time_stamp if time_stamp is None else time_stamp
        return ScalarField(self.grid, values, t)

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.values)))

    @cached_property
    def _memo(self) -> dict:  # per-point evaluators' whole-grid residuals
        return {}


def plane_wave_field(grid: Grid, k, omega: float, t: float = 0.0,
                     amplitude: complex = 1.0) -> ScalarField:
    """Sample amplitude * exp(i (k . r - omega t)) on the grid.

    ``k`` needs a component per axis; extra ones are ignored.  exp runs
    on each axis' samples, the time phase and the amplitude go on the
    first axis, and each further axis joins by an outer product.  In 1D,
    or along the first axis, that is one exp of the summed phase bit for
    bit; otherwise it differs from it by rounding.
    """
    k = np.atleast_1d(np.asarray(k, dtype=float))
    if k.size < grid.ndim:
        raise DomainError(f"k has {k.size} components for {grid.ndim} axes")
    first, *rest = grid.axes()
    wave = 1j * (-omega * t + k[0] * first)
    np.exp(wave, out=wave)
    np.multiply(amplitude, wave, out=wave)
    for kx, x in zip(k[1:], rest):
        wave = np.multiply.outer(wave, np.exp(1j * (kx * x)))
    return ScalarField(grid, wave, t)


def nonzero_peak(values: np.ndarray,
                 message: str = "field magnitude below 1e-12 of its maximum"
                 ) -> float:
    """max|values|; ZeroFieldError if any sample is below the cutoff of it."""
    mags = np.abs(values)
    peak = float(mags.max())
    if peak == 0.0 or float(mags.min()) < _ZERO_FIELD_CUTOFF * peak:
        raise ZeroFieldError(message)
    return peak


def periodic_op(op: np.ufunc, a, b, axis: int, da: int, db: int) -> np.ndarray:
    """op(a[i + da], b[i + db]) at every index i, periodic along ``axis``.

    Bit for bit op(np.roll(a, -da, axis), np.roll(b, -db, axis)), with no
    rolled copy; a and b share one shape, and |da|, |db| < the axis length.
    Flattened, a shift by d along ``axis`` is a shift by d times the axis'
    stride, so one op over contiguous memory is right at every index whose
    shifts do not wrap, and the planes whose shifts do are redone one by one.
    """
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    out = np.empty(a.shape, op.resolve_dtypes((a.dtype, b.dtype, None))[-1])
    n, step = a.shape[axis], math.prod(a.shape[axis + 1:])
    lo, hi = max(0, -da, -db) * step, a.size - max(0, da, db) * step
    op(a.reshape(-1)[lo + da * step:hi + da * step],
       b.reshape(-1)[lo + db * step:hi + db * step], out=out.reshape(-1)[lo:hi])

    def plane(i: int) -> tuple:
        return (slice(None),) * axis + (slice(i % n, i % n + 1),)

    # the planes where i + d leaves [0, n) for d = da or db
    wrapped = {i for d in (da, db) for i in (range(n - d, n) if d > 0 else range(-d))}
    for i in wrapped:
        op(a[plane(i + da)], b[plane(i + db)], out=out[plane(i)])
    return out


def central_difference(values: np.ndarray, axis: int, h: float) -> np.ndarray:
    """Periodic second-order central first difference along one axis."""
    return periodic_op(np.subtract, values, values, axis, 1, -1) / (2 * h)


def second_difference(values: np.ndarray, axis: int, h: float) -> np.ndarray:
    """Periodic second-order central second difference along one axis."""
    ahead = periodic_op(np.subtract, values, 2 * np.asarray(values), axis, 1, 0)
    return periodic_op(np.add, ahead, values, axis, 0, -1) / h**2


def central_gradient(values: np.ndarray, grid: Grid) -> list[np.ndarray]:
    """central_difference along every axis of the grid."""
    return [
        central_difference(values, ax, h) for ax, h in enumerate(grid.spacings)
    ]


# ---------------------------------------------------------------------------
# Binary serialization (cubic 1D/3D fields)
#
# Layout: int64 dims, int64 points per axis, float64 spacing, float64 time
# stamp (all little-endian), then row-major '<c16' (re, im) float64 pairs.
# ---------------------------------------------------------------------------

def field_to_bytes(f: ScalarField) -> bytes:
    if not f.grid.is_cubic():
        raise ValueError("binary layout requires a cubic grid")
    header = _HEADER.pack(f.grid.ndim, f.grid.shape[0], f.grid.spacing,
                          f.time_stamp)
    return header + f.values.astype("<c16", copy=False).tobytes()


def field_from_bytes(blob: bytes) -> ScalarField:
    if len(blob) < _HEADER.size:
        raise FormatError(
            f"field blob of {len(blob)} bytes is shorter than its "
            f"{_HEADER.size}-byte header"
        )
    dims, points, spacing, time_stamp = _HEADER.unpack_from(blob, 0)
    if not 1 <= dims <= 3:
        raise FormatError(f"field header has {dims} axes; expected 1 to 3")
    if points < 4:
        raise FormatError(f"field header has {points} points; need >= 4")
    if not 0 < spacing * points < math.inf:
        raise FormatError(f"field header spacing {spacing!r} is out of range")
    if math.isnan(time_stamp):
        raise FormatError("field header time stamp is nan")
    if len(blob) != _HEADER.size + 16 * points**dims:
        raise FormatError("field payload size does not match header")
    grid = Grid((points,) * dims, (spacing * points,) * dims)
    values = np.frombuffer(blob, dtype="<c16", offset=_HEADER.size)
    return ScalarField(grid, values.reshape(grid.shape), time_stamp)


def save_field(path, f: ScalarField) -> None:
    with open(path, "wb") as fh:
        fh.write(field_to_bytes(f))


def load_field(path) -> ScalarField:
    with open(path, "rb") as fh:
        return field_from_bytes(fh.read())
