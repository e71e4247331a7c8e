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
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateQuadraticError,
    DomainError,
    FormatError,
    NumericalError,
    UnsupportedOrderError,
    ZeroFieldError,
)
from .fields import (_ZERO_FIELD_CUTOFF, ScalarField, central_difference,
                     nonzero_peak, second_difference)
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
    carries psi^(m - degree), and b multiplies psi^m.
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

def hje_pde_spec(consts: PhysicalConstants, massless: bool = False) -> PdeSpec:
    """Free-particle Hamilton-Jacobi equation as a coefficient tensor.

    Arguments are (x, y, z, t): diagonal matrix with +1 on the t-t entry,
    -c^2 on the spatial diagonal, and free term -m0^2 c^4 (0 if massless).
    """
    c2 = consts.c_squared
    terms = [PdeTerm(2, (j, j), -c2) for j in (1, 2, 3)]
    terms.append(PdeTerm(2, (4, 4), 1.0))
    b = 0.0 if massless else -(consts.rest_energy**2)
    return PdeSpec(n=4, m=2, terms=tuple(terms), b=b)


def hje_pde_spec_1d(consts: PhysicalConstants, massless: bool = False) -> PdeSpec:
    """One space dimension variant with arguments (x, t)."""
    b = 0.0 if massless else -(consts.rest_energy**2)
    terms = (PdeTerm(2, (1, 1), -consts.c_squared), PdeTerm(2, (2, 2), 1.0))
    return PdeSpec(n=2, m=2, terms=terms, b=b)


# ---------------------------------------------------------------------------
# Transforms
# ---------------------------------------------------------------------------

def log_transform(spec: PdeSpec, A: complex) -> PdeSpec:
    """Substitute y = A ln(psi): degree-j coefficients gain A^j, b gains psi^m.

    The result is flagged homogeneous; every monomial of the image carries
    an implicit psi^(m - degree) factor so that all monomials share total
    degree m in psi.
    """
    A = complex(A)
    if A == 0:
        raise DomainError("transform constant A must be nonzero")
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


def _quadratic_entries(spec: PdeSpec, A: complex | None = None
                       ) -> tuple[list[tuple[int, int, complex]], complex]:
    """Nonzero (j, k, M_jk) of linearize's M in row-major order, and b.

    Indices are 0-based; entries hit by several terms are summed in term
    order before the zero test.
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
        factor = complex(A) ** 2
    acc: dict[tuple[int, int], complex] = {}
    for t in spec.terms:
        j, k = t.indices
        acc[j - 1, k - 1] = acc.get((j - 1, k - 1), 0j) + factor * t.coeff
    entries = [(j, k, m) for (j, k), m in sorted(acc.items()) if m != 0]
    return entries, spec.b


def linearize(spec: PdeSpec, A: complex | None = None) -> LinearPdeSpec:
    """Equivalent linear second-order PDE: M = A^2 a_jk, zeroth coefficient b.

    For a homogeneous spec the A^2 factor is already folded into the stored
    coefficients; a supplied A must then match the recorded constant.
    """
    entries, b = _quadratic_entries(spec, A)
    mat = np.zeros((spec.n, spec.n), dtype=np.complex128)
    for j, k, m in entries:
        mat[j, k] = m
    return LinearPdeSpec(n=spec.n, second_order_coeffs=mat, zeroth_coeff=b)


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

    def require_nonzero(self) -> None:
        if self.value == 0:
            raise ZeroFieldError("identity divides by psi^2")


class _Sampled:
    """Whole-grid central differences of a ScalarField, and a checked point.

    Each array, and each equation evaluated from them, is computed once
    per field, on first use, into the field's ``_memo``.
    """

    def __init__(self, field: ScalarField, point, n: int):
        shape = field.grid.shape
        if len(shape) != n:
            raise DomainError(
                f"field has {len(shape)} axes but the equation has {n} arguments"
            )
        self._field, self.value, self.hs = field, field.values, field.grid.spacings
        if point is not None:
            point = tuple(map(int, point))
            if len(point) != n:
                raise DomainError("point must carry one index per grid axis")
            if min(point) < 0 or not all(map(int.__lt__, point, shape)):
                raise DomainError("point lies outside the grid")
        self.point = point

    def read(self, key, make):
        memo = self._field._memo
        if key not in memo:
            with np.errstate(all="ignore"):
                memo.setdefault(key, make(self))  # a concurrent first use wins
        return memo[key]

    def d1(self, axis: int) -> np.ndarray:
        return self.read(("d1", axis), lambda f: central_difference(
            f.value, axis, f.hs[axis]))

    def d2(self, ax1: int, ax2: int) -> np.ndarray:
        if ax1 == ax2:
            make = lambda f: second_difference(f.value, ax1, f.hs[ax1])
        else:
            ax1, ax2 = sorted((ax1, ax2))
            make = lambda f: central_difference(central_difference(
                f.value, ax2, f.hs[ax2]), ax1, f.hs[ax1])
        return self.read(("d2", ax1, ax2), make)

    def log_d2(self, ax1: int, ax2: int) -> np.ndarray:
        """Second derivative of ln(psi) from principal logs of neighbour ratios.

        Independent of d1/d2, and winding-safe.
        """
        def make(f):
            v, hs = f.value, f.hs
            if ax1 == ax2:
                up = np.log(np.roll(v, -1, axis=ax1) / v)  # ln(psi+ / psi)
                return (up - np.roll(up, 1, axis=ax1)) / hs[ax1] ** 2
            across = np.log(np.roll(v, -1, axis=ax2) / np.roll(v, 1, axis=ax2))
            return central_difference(across / (2 * hs[ax2]), ax1, hs[ax1])
        return self.read(("log_d2", ax1, ax2), make)

    def require_nonzero(self) -> None:
        """Refuse a sample, or an axis neighbour of one, below the cutoff."""
        def make(f):  # 2 at a small sample, else 1 next to one, else 0
            small = np.abs(f.value) < _ZERO_FIELD_CUTOFF * f._field.max_abs()
            near = sum(np.roll(small, shift, axis=ax)
                       for ax in range(small.ndim) for shift in (1, -1))
            return np.where(small, 2, near > 0)
        code = self.read("zeros", make)
        code = code.max() if self.point is None else code.item(self.point)
        if code == 2:
            raise ZeroFieldError("field magnitude below 1e-12 of its maximum")
        if code == 1:
            raise ZeroFieldError("stencil touches a near-zero of the field")


# ---------------------------------------------------------------------------
# Residual evaluators; on a ScalarField one whole-grid evaluation per equation
# ---------------------------------------------------------------------------

def residual_nonlinear(spec: PdeSpec, field, point) -> complex:
    """Left-hand side of the nonlinear equation at one point.

    Plain specs are evaluated in the original variable y; homogeneous specs
    in psi, including the implicit psi^(m - degree) and b psi^m factors.
    Analytic fields use exact derivatives, sampled fields second-order
    central differences with periodic wrap.
    """
    def nonlinear(f):
        v = f.value
        total = 0.0 + 0.0j
        for t in spec.terms:
            prod = t.coeff
            for i in t.indices:
                prod *= f.d1(i - 1)
            if spec.homogeneous and spec.m != t.degree:
                prod *= v ** (spec.m - t.degree)
            total += prod
        return total + (spec.b * v**spec.m if spec.homogeneous else spec.b)
    if isinstance(field, ScalarField):
        f = _Sampled(field, point, spec.n)
        return f.read(("nonlinear", spec._key), nonlinear).item(f.point)
    return complex(nonlinear(_Exact(field, point, spec.n)))


def residual_linear(lspec: LinearPdeSpec, field, point) -> complex:
    """Left-hand side sum_jk M_jk d2 psi/dx_j dx_k + b psi at one point."""
    def linear(f):
        total = lspec.zeroth_coeff * f.value
        for j, row in enumerate(lspec.second_order_coeffs.tolist()):
            for k, m in enumerate(row):
                if m != 0:
                    total += m * f.d2(j, k)
        return total
    if isinstance(field, ScalarField):
        f = _Sampled(field, point, lspec.n)
        key = ("linear", lspec.second_order_coeffs.tobytes(),
               repr(lspec.zeroth_coeff))
        return f.read(key, linear).item(f.point)
    return complex(linear(_Exact(field, point, lspec.n)))


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
    """lhs, rhs, scale and correction at ``point``, or everywhere if None.

    Memoised on a sampled field: _quadratic_entries runs on a miss only,
    and an A it rejects raises before the field is read, on every call.
    """
    key = ("decomposition", spec._key, repr(A))
    sampled = isinstance(field, ScalarField)
    hit = sampled and key in field._memo
    entries, b = (None, None) if hit else _quadratic_entries(spec, A)
    f = (_Sampled if sampled else _Exact)(field, point, spec.n)
    f.require_nonzero()
    if not sampled:
        return _decomposition_terms(entries, b, f)
    terms = f.read(key, lambda f: _decomposition_terms(entries, b, f))
    return terms if point is None else [a.item(f.point) for a in terms]


def _decomposition_terms(entries, b: complex, f):
    """lhs, rhs, scale and correction from the reader f, at its point or grid.

    The sums run over the nonzero M_jk in row-major order, then add b terms.
    """
    v = f.value
    lhs = linear = curvature = 0j
    scale = 0.0
    for j, k, m in entries:
        gg = f.d1(j) * f.d1(k)
        lhs += m * gg
        linear += m * f.d2(j, k)
        curvature += m * f.log_d2(j, k)
        scale += abs(m) * abs(gg)
    lhs += b * v * v
    linear += b * v
    correction = -(v * v) * curvature
    rhs = v * linear + correction
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
    return ResidualDecomposition(
        lhs=lhs, rhs=rhs, mismatch=mismatch, log_curvature_term=correction
    )


def decomposition_defect(spec: PdeSpec, A: complex | None,
                         field: ScalarField) -> np.ndarray:
    """(lhs - rhs) / scale at every grid point: the mismatch with its phase."""
    lhs, rhs, scale, _ = _decomposition(spec, A, field, None)
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

def pde_spec_to_obj(spec: PdeSpec) -> dict:
    # complex values serialize as two-element [re, im] arrays
    obj = {
        "n": spec.n,
        "m": spec.m,
        "terms": [
            {
                "degree": t.degree,
                "indices": list(t.indices),
                "coeff": t.coeff,
            }
            for t in spec.terms
        ],
        "b": spec.b,
    }
    # Extension keys beyond the base schema, present only for transformed specs.
    if spec.homogeneous:
        obj["homogeneous"] = True
        if spec.transform_constant is not None:
            obj["transform_constant"] = spec.transform_constant
    return obj


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
    """Inverse of pde_spec_to_obj; a malformed object raises FormatError."""
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
    return json_dumps(pde_spec_to_obj(spec))


def pde_spec_loads(text: str) -> PdeSpec:
    return pde_spec_from_obj(json.loads(text))


def load_pde_spec(path) -> PdeSpec:
    with open(path) as fh:
        return pde_spec_loads(fh.read())
