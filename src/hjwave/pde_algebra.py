"""Coefficient-tensor algebra for first-order nonlinear constant-coefficient PDEs.

A PdeSpec stores the equation

    sum_T  a_T * prod_{l in T} dy/dx_{i_l}  +  b  =  0

as a list of (degree, index multi-set, coefficient) terms plus the free
term b.  The logarithmic substitution y = A ln(psi) maps it to an
equivalent homogeneous form whose degree-j coefficients pick up A^j and
whose free term multiplies psi^m; for quadratic equations that form is in
turn equivalent to a *linear* second-order PDE with matrix A^2 a_jk and
zeroth coefficient b, and sampling plane waves exp(i alpha_l x_l) turns it
into a quadratic polynomial in the frequency.  This module implements each
of those maps together with residual evaluators that certify them
numerically, on exact analytic fields and on sampled periodic grids
(second-order central differences).

Index convention: PDE arguments are numbered 1..n with the time argument
last (x_n = t for the physical specs built by the factories below).
"""

from __future__ import annotations

import cmath
import json
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateQuadraticError,
    DomainError,
    FormatError,
    NumericalError,
    UnsupportedOrderError,
    ZeroFieldError,
    require_normal_power,
)
from .fields import (_ZERO_FIELD_CUTOFF, ScalarField, central_difference,
                     nonzero_peak, periodic_op, second_difference)
from .kinematics import PhysicalConstants
from .reporting import json_dumps

# positive_root takes a root as real when |imag| <= this * max(1, |real|)
_ROOT_IMAG_TOL = 1e-9


# ---------------------------------------------------------------------------
# Specification types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PdeTerm:
    """One monomial: coeff * prod of first derivatives along ``indices``."""

    degree: int
    indices: tuple[int, ...]  # 1-based argument indices, length == degree
    coeff: complex

    def __post_init__(self):
        object.__setattr__(self, "indices", tuple(int(i) for i in self.indices))
        object.__setattr__(self, "coeff", complex(self.coeff))
        if self.degree < 1:
            raise ValueError("term degree must be >= 1")
        if len(self.indices) != self.degree:
            raise ValueError("indices length must equal degree")
        if any(i < 1 for i in self.indices):
            raise ValueError("indices are 1-based")


@dataclass(frozen=True)
class PdeSpec:
    """First-order nonlinear PDE in n arguments with derivative products up to degree m.

    ``homogeneous`` marks the image of the logarithmic transform: term
    coefficients then already include A^degree, every monomial implicitly
    carries psi^(m - degree), and b multiplies psi^m.  Only such an image
    may record its ``transform_constant`` A.
    """

    n: int
    m: int
    terms: tuple[PdeTerm, ...]
    b: complex
    homogeneous: bool = False
    transform_constant: complex | None = None

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        object.__setattr__(self, "b", complex(self.b))
        if self.n < 1 or self.m < 1:
            raise ValueError("n and m must be >= 1")
        if not self.terms:
            raise ValueError("a PdeSpec needs at least one derivative term")
        for t in self.terms:
            if t.degree > self.m:
                raise ValueError("term degree exceeds m")
            if any(i > self.n for i in t.indices):
                raise ValueError("term index exceeds n")
        if all(t.degree != self.m for t in self.terms):
            raise ValueError("m must be tight: some term must have degree m")
        if self.transform_constant is not None:
            if not self.homogeneous:  # only an image's terms carry A
                raise ValueError("a plain (not homogeneous) spec has no "
                                 "transform constant")
            object.__setattr__(
                self, "transform_constant", complex(self.transform_constant)
            )
        object.__setattr__(self, "_key", repr(self))  # exact, NaN-safe memo key


@dataclass(frozen=True)
class LinearPdeSpec:
    """Second-order linear PDE  sum_jk M_jk d2psi/dx_j dx_k + b psi = 0.

    The spec holds a read-only copy of the matrix it is given.
    """

    n: int
    second_order_coeffs: np.ndarray  # (n, n) complex, already includes A^2
    zeroth_coeff: complex

    def __post_init__(self):
        mat = np.array(self.second_order_coeffs, dtype=np.complex128)
        if mat.shape != (self.n, self.n):
            raise ValueError("coefficient matrix must be n x n")
        mat.flags.writeable = False
        object.__setattr__(self, "second_order_coeffs", mat)
        object.__setattr__(self, "zeroth_coeff", complex(self.zeroth_coeff))
        # exact, NaN-safe memo key of the equation's value
        object.__setattr__(self, "_key", ("linear", mat.tobytes(),
                                          repr(self.zeroth_coeff)))


@dataclass(frozen=True)
class DispersionQuadratic:
    """Quadratic (or degenerate linear) polynomial in the frequency.

    coefficients = (q2, q1, q0) of q2*w^2 + q1*w + q0 = 0 for the plane
    wave exp(i(k . r + w t)); for specs without space-time cross terms the
    roots come in +/- pairs and the positive root is the physical branch
    of exp(i(k . r - w t)).
    """

    k: np.ndarray
    coefficients: tuple[complex, complex, complex]
    roots: tuple[complex, ...]
    degenerate: bool = False

    def positive_root(self) -> float:
        for r in sorted(self.roots, key=lambda z: (-z.real, z.imag)):
            tol = _ROOT_IMAG_TOL * max(1.0, abs(r.real))
            if r.real > 0 and abs(r.imag) <= tol:
                return float(r.real)
        raise DomainError("no positive real root (evanescent branch only)")


# ---------------------------------------------------------------------------
# Physical spec factories
# ---------------------------------------------------------------------------

def _hje_spec(consts: PhysicalConstants, dims: int) -> PdeSpec:
    """Free-particle HJE with ``dims`` space arguments, then t.

    Diagonal matrix with +1 on the t-t entry, -c^2 on the spatial
    diagonal, and free term -m0^2 c^4, +0.0 when m0 = 0.
    """
    c2 = consts.c_squared
    terms = [PdeTerm(2, (j, j), -c2) for j in range(1, dims + 1)]
    terms.append(PdeTerm(2, (dims + 1, dims + 1), 1.0))
    b = 0.0 - consts.rest_energy_squared
    return PdeSpec(n=dims + 1, m=2, terms=tuple(terms), b=b)


def hje_pde_spec(consts: PhysicalConstants) -> PdeSpec:
    """Free-particle Hamilton-Jacobi equation in arguments (x, y, z, t)."""
    return _hje_spec(consts, 3)


def hje_pde_spec_1d(consts: PhysicalConstants) -> PdeSpec:
    """One space dimension variant with arguments (x, t)."""
    return _hje_spec(consts, 1)


# ---------------------------------------------------------------------------
# Transforms
# ---------------------------------------------------------------------------

def log_transform(spec: PdeSpec, A: complex) -> PdeSpec:
    """Substitute y = A ln(psi): degree-j coefficients gain A^j, b gains psi^m.

    |A|^m must neither overflow nor underflow (A = 0 underflows).  The
    result is flagged homogeneous; every monomial of the image carries an
    implicit psi^(m - degree) factor so that all monomials share total
    degree m in psi.
    """
    A = complex(A)
    require_normal_power("transform constant A", A, spec.m)
    if spec.homogeneous:
        raise DomainError("spec is already the image of a log transform")
    terms = tuple(
        PdeTerm(t.degree, t.indices, t.coeff * A**t.degree) for t in spec.terms
    )
    return PdeSpec(
        n=spec.n,
        m=spec.m,
        terms=terms,
        b=spec.b,
        homogeneous=True,
        transform_constant=A,
    )


def linearize(spec: PdeSpec, A: complex | None = None) -> LinearPdeSpec:
    """Equivalent linear second-order PDE: M = A^2 a_jk, zeroth coefficient b.

    For a homogeneous spec the A^2 factor is already folded into the stored
    coefficients; a supplied A must then match the recorded constant, and
    otherwise |A|^2 must be in range.  Entries hit by several terms are
    summed in term order.
    """
    if spec.m != 2:
        raise UnsupportedOrderError("only quadratic (m = 2) specs are supported")
    if any(t.degree != 2 for t in spec.terms):
        raise UnsupportedOrderError("spec must contain only degree-2 terms")
    if spec.homogeneous:
        if A is not None and spec.transform_constant is not None:
            if complex(A) != spec.transform_constant:
                raise DomainError(
                    "A does not match the constant recorded by log_transform"
                )
        factor = 1.0 + 0.0j
    else:
        if A is None:
            raise DomainError("A is required for a spec not yet transformed")
        require_normal_power("transform constant A", complex(A), spec.m)
        factor = complex(A) ** 2
    mat = [[0j] * spec.n for _ in range(spec.n)]
    for t in spec.terms:
        j, k = t.indices
        mat[j - 1][k - 1] += factor * t.coeff
    return LinearPdeSpec(n=spec.n, second_order_coeffs=mat, zeroth_coeff=spec.b)


def _entries(lspec: LinearPdeSpec) -> list[tuple[int, int, complex]]:
    """Nonzero (j, k, M_jk) of the matrix, 0-based, in row-major order."""
    return [(j, k, m)
            for j, row in enumerate(lspec.second_order_coeffs.tolist())
            for k, m in enumerate(row) if m != 0]


def dispersion_quadratic(spec: PdeSpec, A: complex | None, k
                         ) -> DispersionQuadratic:
    """Frequency polynomial of the plane wave exp(i(k . r + w t)), argument 4 = t.

    With M = A^2 a_jk the polynomial is

        M_44 w^2 + [sum_i k_i (M_i4 + M_4i)] w
          + [sum_{i<j} (M_ij + M_ji) k_i k_j + sum_i M_ii k_i^2] - b = 0.

    When M_44 = 0 the polynomial is linear in w and a single root is
    reported with ``degenerate`` set; if the linear coefficient also
    vanishes there is no frequency content and an error is raised.  A
    coefficient or discriminant that overflows raises NumericalError.
    """
    if spec.n != 4:
        raise UnsupportedOrderError(
            "dispersion extraction is defined for n = 4 (x, y, z, t)"
        )
    k = np.asarray(k, dtype=float)
    if k.shape != (3,):
        raise DomainError("k must be a 3-vector")
    mat = linearize(spec, A).second_order_coeffs

    q2 = mat[3, 3]
    q1 = sum(k[i] * (mat[i, 3] + mat[3, i]) for i in range(3))
    q0 = -spec.b
    for i in range(3):
        q0 += mat[i, i] * k[i] ** 2
        for j in range(i + 1, 3):
            q0 += (mat[i, j] + mat[j, i]) * k[i] * k[j]
    square = q1 * q1 - 4 * q2 * q0 if q2 != 0 else 0j
    if not all(cmath.isfinite(z) for z in (q2, q1, q0, square)):
        raise NumericalError(
            "the dispersion quadratic overflowed at "
            f"|k| = {math.hypot(*k.tolist())!r}")

    if q2 != 0:
        disc = cmath.sqrt(square)
        roots = ((-q1 - disc) / (2 * q2), (-q1 + disc) / (2 * q2))
        degenerate = False
    elif q1 != 0:
        roots = (-q0 / q1,)
        degenerate = True
    else:
        raise DegenerateQuadraticError(
            "no omega dependence: both quadratic and linear coefficients vanish"
        )
    roots = tuple(sorted(roots, key=lambda z: (z.real, z.imag)))
    return DispersionQuadratic(
        k=k, coefficients=(q2, q1, q0), roots=roots, degenerate=degenerate
    )


# ---------------------------------------------------------------------------
# Analytic fields (exact derivatives)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AnalyticField:
    """Superposition sum_m a_m exp(r_m . x) of complex exponentials.

    ``amplitudes`` has shape (modes,) and the complex ``rates`` (modes, n).
    With t_m = a_m exp(r_m . x) the field is sum_m t_m, its gradient
    sum_m t_m r_m and its Hessian sum_m t_m r_m r_m^T, all exact.
    """

    amplitudes: np.ndarray
    rates: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        rates = np.asarray(self.rates, dtype=np.complex128)
        if amps.ndim != 1 or rates.ndim != 2 or rates.shape[0] != amps.size:
            raise ValueError("amplitudes must be (modes,) and rates (modes, n)")
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "rates", rates)

    @property
    def n(self) -> int:
        return self.rates.shape[1]

    @classmethod
    def plane_wave(cls, amplitude: complex, alpha) -> "AnalyticField":
        """amplitude * exp(i sum_l alpha_l x_l) with real exponents alpha."""
        return cls([amplitude], [1j * np.asarray(alpha, dtype=float)])

    def _terms(self, x) -> np.ndarray:
        """t_m = a_m exp(r_m . x) at one point x."""
        return self.amplitudes * np.exp(self.rates @ np.asarray(x, dtype=float))

    def value(self, x) -> complex:
        return complex(self._terms(x).sum())


# ---------------------------------------------------------------------------
# Readers: value, d1, d2 and log_d2 at a point, or over a sampled grid
# ---------------------------------------------------------------------------

class _Exact:
    """Exact derivatives of an AnalyticField at one point."""

    __slots__ = ("value", "_grad", "_hess")

    def __init__(self, field: AnalyticField, point, n: int):
        if not isinstance(field, AnalyticField):
            raise TypeError("field must be an AnalyticField or a ScalarField")
        x = np.asarray(point, dtype=float)
        if field.n != n or x.shape != (n,):
            raise DomainError(f"field and point need the spec's {n} arguments")
        t, r = field._terms(x), field.rates
        self.value = complex(t.sum())
        self._grad = (t[:, None] * r).sum(axis=0).tolist()
        self._hess = (
            t[:, None, None] * (r[:, :, None] * r[:, None, :])
        ).sum(axis=0).tolist()

    def d1(self, axis: int) -> complex:
        return self._grad[axis]

    def d2(self, ax1: int, ax2: int) -> complex:
        return self._hess[ax1][ax2]

    def log_d2(self, ax1: int, ax2: int) -> complex:
        # (psi H - g g^T) / psi^2; psi^2 of a tiny nonzero psi underflows to 0
        v, g = self.value, self._grad
        return (v * self._hess[ax1][ax2] - g[ax1] * g[ax2]) / v / v


class _Sampled:
    """Whole-grid central differences of a ScalarField, for one evaluation.

    Each first difference is computed once per reader; d2, log_d2 and the
    zero-field codes where they are read.  A reader stores nothing on the
    field: only the per-point evaluators keep an entry, one per equation.
    """

    def __init__(self, field: ScalarField):
        self.value, self.hs, self._d1 = field.values, field.grid.spacings, {}

    def d1(self, axis: int) -> np.ndarray:
        if axis not in self._d1:
            self._d1[axis] = central_difference(self.value, axis, self.hs[axis])
        return self._d1[axis]

    def d2(self, ax1: int, ax2: int) -> np.ndarray:
        if ax1 == ax2:
            return second_difference(self.value, ax1, self.hs[ax1])
        ax1, ax2 = sorted((ax1, ax2))
        return central_difference(central_difference(
            self.value, ax2, self.hs[ax2]), ax1, self.hs[ax1])

    def log_d2(self, ax1: int, ax2: int) -> np.ndarray:
        """Second derivative of ln(psi) from principal logs of neighbour ratios.

        Independent of d1/d2, and winding-safe.  Each ratio's log is taken
        in place by ``_log_in_place``, from real log1p and arctan2.
        """
        v, hs = self.value, self.hs
        if ax1 == ax2:  # ln(psi+/psi), then its backward difference
            up = _log_in_place(periodic_op(np.divide, v, v, ax1, 1, 0))
            return periodic_op(np.subtract, up, up, ax1, 0, -1) / hs[ax1] ** 2
        across = _log_in_place(periodic_op(np.divide, v, v, ax2, 1, -1))
        return central_difference(across / (2 * hs[ax2]), ax1, hs[ax1])

    def zeros(self) -> np.ndarray:
        """2 at a sample below the cutoff, else 1 next to one, else 0."""
        mags = np.abs(self.value)
        small = mags < _ZERO_FIELD_CUTOFF * mags.max()
        near = np.zeros_like(small)
        for ax in range(small.ndim):
            near |= periodic_op(np.logical_or, small, small, ax, -1, 1)
        return np.where(small, 2, near)

    def decomposition(self, spec: PdeSpec, A, lspec: LinearPdeSpec):
        """Zero-field codes, lhs, rhs, scale and correction over the grid."""
        return (self.zeros(), *_decomposition_terms(spec, A, lspec, self))


def _log_in_place(r: np.ndarray) -> np.ndarray:
    """Overwrite the complex array r with its principal log; return r.

    The imaginary part is arctan2(Im r, Re r), as in np.log.  The real part
    is ln|r| = log1p(x) / 2 with x = |r|^2 - 1 = (Re r - 1)(Re r + 1) +
    (Im r)^2, which keeps its digits for the ratios near 1 that neighbouring
    samples give; where |x| < 0.5 fails (nan included) it is log(hypot(r)).
    Both are within an ulp or so of np.log at a fraction of the cost of a
    complex log.  At most two real full-size temporaries are live at once
    (x and one more), as large together as np.log's complex output; the
    angle is not written straight into Im r, since numpy copies an input
    its output overlaps.
    """
    re, im = r.real, r.imag
    x = re - 1.0
    x *= re + 1.0
    x += im * im
    far = ~(np.abs(x) < 0.5)
    far_log = np.log(np.hypot(re[far], im[far]))
    angle = np.arctan2(im, re)
    x[far] = 0.0  # log1p sees no -1, inf or nan there
    np.multiply(np.log1p(x, out=x), 0.5, out=re)
    re[far] = far_log
    im[...] = angle
    return r


def _require_nonzero(code) -> None:
    """Refuse a zero-field code of ``_Sampled.zeros`` other than 0."""
    if code == 2:
        raise ZeroFieldError("field magnitude below 1e-12 of its maximum")
    if code == 1:
        raise ZeroFieldError("stencil touches a near-zero of the field")


def _check_axes(field: ScalarField, n: int) -> None:
    if field.grid.ndim != n:
        raise DomainError(f"field has {field.grid.ndim} axes but the "
                          f"equation has {n} arguments")


def _check_point(field: ScalarField, point, n: int):
    """``point`` as n in-range indices into the field, which must have n axes.

    The reference check; once an entry exists, ``_item`` runs it only to
    name a refusal.  None carries no index.  A float index is refused, not
    truncated.  Python's bool is an index (True is 1); numpy's bool is
    refused, as numpy 2 gives it no ``__index__``.
    """
    _check_axes(field, n)
    shape = field.grid.shape
    try:
        point = tuple(map(operator.index, () if point is None else point))
    except TypeError:
        raise DomainError("point indices must be integers") from None
    if len(point) != n:
        raise DomainError("point must carry one index per grid axis")
    for i, size in zip(point, shape):
        if not 0 <= i < size:  # a negative index is refused, not wrapped
            raise DomainError("point lies outside the grid")
    return point


def _item(array: np.ndarray, field: ScalarField, point, n: int):
    """array's item at point, and the index that read it.

    numpy's C index check goes first, behind a guard that keeps it from
    reading a short point as a flat index or wrapping a negative one.
    Where either refuses, ``_check_point`` raises or returns the tuple to
    index with (numpy refuses a bool and a list, the reference does not).
    """
    try:
        if array.ndim == n and len(point) == n and min(point) >= 0:
            return array.item(point), point
    except (TypeError, ValueError, IndexError, OverflowError):
        pass
    point = _check_point(field, point, n)
    return array.item(point), point


def _store(field: ScalarField, key, make):
    """Store make() under key; of racing first uses, all get the first stored."""
    with np.errstate(all="ignore"):
        return field._memo.setdefault(key, make())


def _at_point(spec, key, formula, field, point) -> complex:
    """formula(spec, reader) at point; on a ScalarField, one item of the
    memo entry under key, evaluated over the grid once the point passes."""
    if not isinstance(field, ScalarField):
        return complex(formula(spec, _Exact(field, point, spec.n)))
    entry = field._memo.get(key)
    if entry is None:
        point = _check_point(field, point, spec.n)
        entry = _store(field, key, lambda: formula(spec, _Sampled(field)))
    return _item(entry, field, point, spec.n)[0]


# ---------------------------------------------------------------------------
# Residual evaluators; on a ScalarField one whole-grid evaluation per
# equation, and a call at a point is one checked index into it
# ---------------------------------------------------------------------------

def _nonlinear(spec: PdeSpec, d1, value):
    """sum_T coeff prod_{l in T} d1(i_l - 1) + b, d1 by 0-based axis; a
    homogeneous spec's terms carry value^(m - degree), and b value^m."""
    total = 0.0 + 0.0j
    for t in spec.terms:
        prod = t.coeff
        for i in t.indices:
            prod *= d1(i - 1)
        if spec.homogeneous and spec.m != t.degree:
            prod *= value ** (spec.m - t.degree)
        total += prod
    total += spec.b * value**spec.m if spec.homogeneous else spec.b
    return total


def _linear(lspec: LinearPdeSpec, d2, value):
    """b value + sum_jk M_jk d2(j, k) over the nonzero M_jk, row-major."""
    total = lspec.zeroth_coeff * value
    for j, k, m in _entries(lspec):
        total += m * d2(j, k)
    return total


def _nonlinear_of(spec: PdeSpec, f):
    return _nonlinear(spec, f.d1, f.value)


def _linear_of(lspec: LinearPdeSpec, f):
    return _linear(lspec, f.d2, f.value)


def residual_nonlinear(spec: PdeSpec, field, point) -> complex:
    """Left-hand side of the nonlinear equation at one point.

    Plain specs are evaluated in the original variable y; homogeneous specs
    in psi, including the implicit psi^(m - degree) and b psi^m factors.
    Analytic fields use exact derivatives, sampled fields second-order
    central differences with periodic wrap.
    """
    return _at_point(spec, ("nonlinear", spec._key), _nonlinear_of, field,
                     point)


def residual_linear(lspec: LinearPdeSpec, field, point) -> complex:
    """Left-hand side sum_jk M_jk d2 psi/dx_j dx_k + b psi at one point."""
    return _at_point(lspec, lspec._key, _linear_of, field, point)


@dataclass(frozen=True)
class ResidualDecomposition:
    """Both sides of the nonlinear-vs-linear decomposition at one point.

    lhs is the nonlinear residual; rhs is psi * (linear residual) plus the
    log-curvature correction sum_jk M_jk psi^2 (d psi_j d psi_k - psi
    d2 psi_jk)/psi^2, which vanishes exactly on plane waves.  The mismatch
    is |lhs - rhs| relative to the summed magnitude of all contributions.
    """

    lhs: complex
    rhs: complex
    mismatch: float
    log_curvature_term: complex


def _decomposition(spec: PdeSpec, A: complex | None, field, point):
    """lhs, rhs, scale and correction at ``point``.

    On a sampled field one memo entry, under A's complex value, holds
    ``_Sampled.decomposition``'s five arrays.  linearize runs on a miss only,
    so an A it rejects, never stored, raises first, on every call.
    """
    if not isinstance(field, ScalarField):
        lspec = linearize(spec, A)
        f = _Exact(field, point, spec.n)
        if f.value == 0:
            raise ZeroFieldError("identity divides by psi^2")
        return _decomposition_terms(spec, A, lspec, f)
    key = ("decomposition", spec._key, None if A is None else repr(complex(A)))
    entry = field._memo.get(key)
    if entry is None:
        lspec = linearize(spec, A)
        point = _check_point(field, point, spec.n)
        entry = _store(field, key,
                       lambda: _Sampled(field).decomposition(spec, A, lspec))
    zeros, lhs, rhs, scale, correction = entry
    code, point = _item(zeros, field, point, spec.n)
    _require_nonzero(code)
    return (lhs.item(point), rhs.item(point), scale.item(point),
            correction.item(point))


def _decomposition_terms(spec: PdeSpec, A, lspec: LinearPdeSpec, f):
    """lhs, rhs, scale and correction from the reader f, at its point or grid.

    lhs is the psi-form spec's nonlinear residual, rhs psi times lspec's
    linear residual plus the correction; curvature and scale sum over M.
    """
    v, b = f.value, lspec.zeroth_coeff
    image = spec if spec.homogeneous else log_transform(spec, A)
    lhs = _nonlinear(image, f.d1, v)
    curvature, scale = 0j, 0.0
    for j, k, m in _entries(lspec):
        curvature += m * f.log_d2(j, k)
        scale += abs(m) * abs(f.d1(j) * f.d1(k))
    correction = -(v * v) * curvature
    rhs = v * _linear(lspec, f.d2, v) + correction
    scale += abs(b) * abs(v) ** 2 + abs(correction)
    return lhs, rhs, scale, correction


def residual_decomposition_check(spec: PdeSpec, A: complex | None, field,
                                 point) -> ResidualDecomposition:
    """Certify that linearization preserves residuals up to log curvature.

    On analytic fields the identity is exact (the correction term uses
    exact derivatives).  On sampled fields the correction is estimated
    from second differences of ln(psi) - deliberately *not* from the same
    stencils as the residuals - so the mismatch measures genuine O(h^2)
    discretization error instead of cancelling algebraically.
    """
    lhs, rhs, scale, correction = _decomposition(spec, A, field, point)
    diff = abs(lhs - rhs)
    mismatch = 0.0 if diff == 0.0 else diff / max(scale, 1e-300)
    # positional: the generated __init__ binds keywords at twice the cost
    return ResidualDecomposition(lhs, rhs, mismatch, correction)


def decomposition_defect(spec: PdeSpec, A: complex | None,
                         field: ScalarField) -> np.ndarray:
    """(lhs - rhs) / scale at every grid point: the mismatch with its phase.

    Computed afresh on each call; nothing is stored on the field."""
    lspec = linearize(spec, A)
    if not isinstance(field, ScalarField):
        raise DomainError("decomposition_defect needs a sampled field")
    _check_axes(field, spec.n)
    f = _Sampled(field)
    with np.errstate(all="ignore"):
        zeros, lhs, rhs, scale, _ = f.decomposition(spec, A, lspec)
    _require_nonzero(zeros.max())
    return (lhs - rhs) / np.maximum(scale, 1e-300)


# ---------------------------------------------------------------------------
# Action <-> wave function
# ---------------------------------------------------------------------------

def action_from_wavefunction(psi: ScalarField, consts: PhysicalConstants
                             ) -> ScalarField:
    """S = (hbar/i) ln(psi) with phase unwrapped axis by axis from the origin.

    For unimodular psi = exp(i theta) the result is the real field
    hbar * theta.  Requires phase increments below pi between neighbors
    (|k| h < pi for plane waves).
    """
    nonzero_peak(psi.values,
                 "psi crosses zero: the logarithm branch is ambiguous")
    theta = np.angle(psi.values)
    for ax in range(psi.grid.ndim):
        theta = np.unwrap(theta, axis=ax)
    s_vals = consts.hbar * theta - 1j * consts.hbar * np.log(np.abs(psi.values))
    return psi.with_values(s_vals)


def wavefunction_from_action(action: ScalarField, consts: PhysicalConstants
                             ) -> ScalarField:
    """psi = exp(i S / hbar); inverse of action_from_wavefunction."""
    return action.with_values(np.exp(1j * action.values / consts.hbar))


# ---------------------------------------------------------------------------
# JSON serialization (documented schema; exact round trip)
# ---------------------------------------------------------------------------
# pde_spec_dumps is json_dumps: a spec's fields in declaration order, each
# term as the object of its fields, and complex values as [re, im] arrays.

def _json(v, kind, rule: str):
    """v itself if it is a JSON value of ``kind``; a bool is not a number."""
    if not isinstance(v, kind) or (isinstance(v, bool) and kind is not bool):
        raise ValueError(f"{rule}, got {v!r}")
    return v


def _unpair(v) -> complex:
    if not isinstance(v, list) or len(v) != 2:
        raise ValueError(f"complex values are [re, im] pairs, got {v!r}")
    z = complex(*(_json(x, (int, float), "complex parts are numbers")
                  for x in v))
    if not cmath.isfinite(z):
        raise ValueError(f"complex values must be finite, got {v!r}")
    return z


def pde_spec_from_obj(obj: dict) -> PdeSpec:
    """Inverse of pde_spec_dumps's object; a malformed object raises
    FormatError.  ``homogeneous`` and ``transform_constant`` may be absent,
    as in a plain spec written by hand."""
    try:
        terms = tuple(
            PdeTerm(_json(t["degree"], int, "degree must be an integer"),
                    [_json(i, int, "indices are integers")
                     for i in _json(t["indices"], list, "indices are a list")],
                    _unpair(t["coeff"]))
            for t in obj["terms"]
        )
        tc = obj.get("transform_constant")
        return PdeSpec(
            n=_json(obj["n"], int, "n must be an integer"),
            m=_json(obj["m"], int, "m must be an integer"),
            terms=terms,
            b=_unpair(obj["b"]),
            homogeneous=_json(obj.get("homogeneous", False), bool,
                              "homogeneous must be true or false"),
            transform_constant=None if tc is None else _unpair(tc),
        )
    except KeyError as exc:
        raise FormatError(f"PDE spec lacks the key {exc}") from None
    except (AttributeError, OverflowError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed PDE spec: {exc}") from None


def pde_spec_dumps(spec: PdeSpec) -> str:
    return json_dumps(spec)


def pde_spec_loads(text: str) -> PdeSpec:
    return pde_spec_from_obj(json.loads(text))


def load_pde_spec(path) -> PdeSpec:
    with open(path) as fh:
        return pde_spec_loads(fh.read())
