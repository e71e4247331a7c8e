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
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    DegenerateQuadraticError,
    DomainError,
    FormatError,
    UnsupportedOrderError,
    ZeroFieldError,
)
from .fields import _ZERO_FIELD_CUTOFF, ScalarField, nonzero_peak
from .kinematics import PhysicalConstants
from .reporting import json_dumps


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


@dataclass(frozen=True)
class LinearPdeSpec:
    """Second-order linear PDE  sum_jk M_jk d2psi/dx_j dx_k + b psi = 0."""

    n: int
    second_order_coeffs: np.ndarray  # (n, n) complex, already includes A^2
    zeroth_coeff: complex

    def __post_init__(self):
        mat = np.asarray(self.second_order_coeffs, dtype=np.complex128)
        if mat.shape != (self.n, self.n):
            raise ValueError("coefficient matrix must be n x n")
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

    def positive_root(self, imag_tol: float = 1e-9) -> float:
        for r in sorted(self.roots, key=lambda z: (-z.real, z.imag)):
            if r.real > 0 and abs(r.imag) <= imag_tol * max(1.0, abs(r.real)):
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
    c2 = consts.c**2
    terms = [PdeTerm(2, (j, j), -c2) for j in (1, 2, 3)]
    terms.append(PdeTerm(2, (4, 4), 1.0))
    b = 0.0 if massless else -(consts.rest_energy**2)
    return PdeSpec(n=4, m=2, terms=tuple(terms), b=b)


def hje_pde_spec_1d(consts: PhysicalConstants, massless: bool = False) -> PdeSpec:
    """One space dimension variant with arguments (x, t)."""
    b = 0.0 if massless else -(consts.rest_energy**2)
    return PdeSpec(
        n=2,
        m=2,
        terms=(PdeTerm(2, (1, 1), -consts.c**2), PdeTerm(2, (2, 2), 1.0)),
        b=b,
    )


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


def quadratic_matrix(spec: PdeSpec, A: complex | None = None
                     ) -> tuple[np.ndarray, complex]:
    """Effective (M, b) with M_jk = A^2 a_jk for a purely quadratic spec.

    For a homogeneous spec the A^2 factor is already folded into the stored
    coefficients; a supplied A must then match the recorded constant.
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
    mat = np.zeros((spec.n, spec.n), dtype=np.complex128)
    for t in spec.terms:
        j, k = t.indices
        mat[j - 1, k - 1] += factor * t.coeff
    return mat, spec.b


def linearize(spec: PdeSpec, A: complex | None = None) -> LinearPdeSpec:
    """Equivalent linear second-order PDE: M = A^2 a_jk, zeroth coefficient b."""
    mat, b = quadratic_matrix(spec, A)
    return LinearPdeSpec(n=spec.n, second_order_coeffs=mat, zeroth_coeff=b)


def dispersion_quadratic(spec: PdeSpec, A: complex | None, k
                         ) -> DispersionQuadratic:
    """Frequency polynomial of the plane wave exp(i(k . r + w t)), argument 4 = t.

    With M = A^2 a_jk the polynomial is

        M_44 w^2 + [sum_i k_i (M_i4 + M_4i)] w
          + [sum_{i<j} (M_ij + M_ji) k_i k_j + sum_i M_ii k_i^2] - b = 0.

    When M_44 = 0 the polynomial is linear in w and a single root is
    reported with ``degenerate`` set; if the linear coefficient also
    vanishes there is no frequency content and an error is raised.
    """
    if spec.n != 4:
        raise UnsupportedOrderError(
            "dispersion extraction is defined for n = 4 (x, y, z, t)"
        )
    k = np.asarray(k, dtype=float)
    if k.shape != (3,):
        raise DomainError("k must be a 3-vector")
    mat, b = quadratic_matrix(spec, A)

    q2 = mat[3, 3]
    q1 = sum(k[i] * (mat[i, 3] + mat[3, i]) for i in range(3))
    q0 = -b
    for i in range(3):
        q0 += mat[i, i] * k[i] ** 2
        for j in range(i + 1, 3):
            q0 += (mat[i, j] + mat[j, i]) * k[i] * k[j]

    if q2 != 0:
        disc = cmath.sqrt(q1 * q1 - 4 * q2 * q0)
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


def plane_wave_residual_factor(spec: PdeSpec, A: complex | None, alpha
                               ) -> complex:
    """Exact prefactor r with residual(exp(i alpha . x)) = r * psi^2.

    For a quadratic spec, substituting d psi/dx_l = i alpha_l psi gives
    r = b - sum_jk M_jk alpha_j alpha_k, i.e. minus the dispersion
    polynomial evaluated at alpha.
    """
    mat, b = quadratic_matrix(spec, A)
    alpha = np.asarray(alpha, dtype=complex)
    if alpha.shape != (spec.n,):
        raise DomainError(f"alpha must have length n = {spec.n}")
    return complex(b - alpha @ mat @ alpha)


# ---------------------------------------------------------------------------
# Analytic fields (exact derivatives)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AnalyticField:
    """Scalar field of n arguments with closed-form value/gradient/Hessian."""

    n: int
    value: Callable[[np.ndarray], complex]
    grad: Callable[[np.ndarray], np.ndarray]
    hess: Callable[[np.ndarray], np.ndarray]

    @classmethod
    def exponential(cls, amplitude: complex, rates) -> "AnalyticField":
        """amplitude * exp(sum_l rates_l x_l) with complex rates."""
        r = np.asarray(rates, dtype=np.complex128)
        a = complex(amplitude)
        outer = np.outer(r, r)

        def value(x):
            return a * np.exp(complex(np.dot(r, np.asarray(x, dtype=float))))

        return cls(
            n=r.size,
            value=value,
            grad=lambda x: r * value(x),
            hess=lambda x: outer * value(x),
        )

    @classmethod
    def plane_wave(cls, amplitude: complex, alpha) -> "AnalyticField":
        """amplitude * exp(i sum_l alpha_l x_l) with real exponents alpha."""
        alpha = np.asarray(alpha, dtype=float)
        return cls.exponential(amplitude, 1j * alpha)

    @classmethod
    def from_modes(cls, amplitudes, alphas) -> "AnalyticField":
        """Superposition sum_m a_m exp(i alpha_m . x)."""
        amps = [complex(a) for a in amplitudes]
        mat = np.asarray(alphas, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != len(amps):
            raise ValueError("alphas must be (modes, n)")
        n = mat.shape[1]

        def phases(x):
            x = np.asarray(x, dtype=float)
            return [a * np.exp(1j * complex(np.dot(al, x)))
                    for a, al in zip(amps, mat)]

        def value(x):
            return sum(phases(x))

        def grad(x):
            return sum(p * 1j * al for p, al in zip(phases(x), mat))

        def hess(x):
            return sum(p * -np.outer(al, al) for p, al in zip(phases(x), mat))

        return cls(n=n, value=value, grad=grad, hess=hess)

    @classmethod
    def constant(cls, n: int, amplitude: complex) -> "AnalyticField":
        return cls.exponential(amplitude, np.zeros(n))

    def log_hessian(self, x) -> np.ndarray:
        """Exact d2 ln(psi) / dx_j dx_k = (psi H - g g^T) / psi^2."""
        v = self.value(x)
        if v == 0:
            raise ZeroFieldError("log derivative at a zero of the field")
        g = self.grad(x)
        return (v * self.hess(x) - np.outer(g, g)) / (v * v)


# ---------------------------------------------------------------------------
# Grid stencils (pointwise, periodic wrap)
# ---------------------------------------------------------------------------

def _shifted(point, axis, delta, shape):
    idx = list(point)
    idx[axis] = (idx[axis] + delta) % shape[axis]
    return tuple(idx)


def _check_point(field: ScalarField, point, n: int) -> tuple[int, ...]:
    point = tuple(int(i) for i in point)
    if field.grid.ndim != n:
        raise DomainError(
            f"field has {field.grid.ndim} axes but the equation has {n} arguments"
        )
    if len(point) != n:
        raise DomainError("point must carry one index per grid axis")
    if any(not (0 <= i < s) for i, s in zip(point, field.grid.shape)):
        raise DomainError("point lies outside the grid")
    return point


def _d1(field: ScalarField, point, axis: int) -> complex:
    shape = field.grid.shape
    h = field.grid.spacings[axis]
    vp = field.values[_shifted(point, axis, +1, shape)]
    vm = field.values[_shifted(point, axis, -1, shape)]
    return (vp - vm) / (2 * h)


def _d2(field: ScalarField, point, ax1: int, ax2: int) -> complex:
    shape = field.grid.shape
    hs = field.grid.spacings
    if ax1 == ax2:
        vp = field.values[_shifted(point, ax1, +1, shape)]
        v0 = field.values[point]
        vm = field.values[_shifted(point, ax1, -1, shape)]
        return (vp - 2 * v0 + vm) / hs[ax1] ** 2
    vpp = field.values[_shifted(_shifted(point, ax1, +1, shape), ax2, +1, shape)]
    vpm = field.values[_shifted(_shifted(point, ax1, +1, shape), ax2, -1, shape)]
    vmp = field.values[_shifted(_shifted(point, ax1, -1, shape), ax2, +1, shape)]
    vmm = field.values[_shifted(_shifted(point, ax1, -1, shape), ax2, -1, shape)]
    return (vpp - vpm - vmp + vmm) / (4 * hs[ax1] * hs[ax2])


def _log_d1(field: ScalarField, point, axis: int) -> complex:
    """d ln(psi)/dx via the principal log of the neighbor ratio (winding-safe)."""
    shape = field.grid.shape
    h = field.grid.spacings[axis]
    vp = field.values[_shifted(point, axis, +1, shape)]
    vm = field.values[_shifted(point, axis, -1, shape)]
    return cmath.log(vp / vm) / (2 * h)


def _log_d2(field: ScalarField, point, ax1: int, ax2: int) -> complex:
    """Second derivative of ln(psi) from ratio logs (independent of _d1/_d2)."""
    shape = field.grid.shape
    hs = field.grid.spacings
    if ax1 == ax2:
        vp = field.values[_shifted(point, ax1, +1, shape)]
        v0 = field.values[point]
        vm = field.values[_shifted(point, ax1, -1, shape)]
        return (cmath.log(vp / v0) - cmath.log(v0 / vm)) / hs[ax1] ** 2
    gp = _log_d1(field, _shifted(point, ax1, +1, shape), ax2)
    gm = _log_d1(field, _shifted(point, ax1, -1, shape), ax2)
    return (gp - gm) / (2 * hs[ax1])


# ---------------------------------------------------------------------------
# Residual evaluators
# ---------------------------------------------------------------------------

def residual_nonlinear(spec: PdeSpec, field, point) -> complex:
    """Left-hand side of the nonlinear equation at one point.

    Plain specs are evaluated in the original variable y; homogeneous specs
    in psi, including the implicit psi^(m - degree) and b psi^m factors.
    Analytic fields use exact derivatives, sampled fields second-order
    central differences with periodic wrap.
    """
    if isinstance(field, AnalyticField):
        if field.n != spec.n:
            raise DomainError("field dimensionality does not match the spec")
        x = np.asarray(point, dtype=float)
        g = field.grad(x)
        v = field.value(x) if spec.homogeneous else None
        deriv = lambda axis: g[axis]
    elif isinstance(field, ScalarField):
        point = _check_point(field, point, spec.n)
        v = field.values[point] if spec.homogeneous else None
        deriv = lambda axis: _d1(field, point, axis)
    else:
        raise TypeError("field must be an AnalyticField or a ScalarField")

    first = {}

    def d(axis):
        if axis not in first:
            first[axis] = deriv(axis)
        return first[axis]

    total = 0.0 + 0.0j
    for t in spec.terms:
        prod = t.coeff
        for i in t.indices:
            prod *= d(i - 1)
        if spec.homogeneous and spec.m != t.degree:
            prod *= v ** (spec.m - t.degree)
        total += prod
    if spec.homogeneous:
        total += spec.b * v**spec.m
    else:
        total += spec.b
    return complex(total)


def residual_linear(lspec: LinearPdeSpec, field, point) -> complex:
    """Left-hand side sum_jk M_jk d2 psi/dx_j dx_k + b psi at one point."""
    mat = lspec.second_order_coeffs
    if isinstance(field, AnalyticField):
        if field.n != lspec.n:
            raise DomainError("field dimensionality does not match the spec")
        x = np.asarray(point, dtype=float)
        return complex(
            np.sum(mat * field.hess(x)) + lspec.zeroth_coeff * field.value(x)
        )
    if isinstance(field, ScalarField):
        point = _check_point(field, point, lspec.n)
        total = lspec.zeroth_coeff * field.values[point]
        for j in range(lspec.n):
            for k in range(lspec.n):
                if mat[j, k] != 0:
                    total += mat[j, k] * _d2(field, point, j, k)
        return complex(total)
    raise TypeError("field must be an AnalyticField or a ScalarField")


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


def residual_decomposition_check(spec: PdeSpec, A: complex | None, field,
                                 point) -> ResidualDecomposition:
    """Certify that linearization preserves residuals up to log curvature.

    On analytic fields the identity is exact (the correction term uses
    exact derivatives).  On sampled fields the correction is estimated
    from second differences of ln(psi) - deliberately *not* from the same
    stencils as the residuals - so the mismatch measures genuine O(h^2)
    discretization error instead of cancelling algebraically.
    """
    mat, b = quadratic_matrix(spec, A)
    n = spec.n

    if isinstance(field, AnalyticField):
        x = np.asarray(point, dtype=float)
        v = field.value(x)
        if v == 0:
            raise ZeroFieldError("identity divides by psi^2")
        g = field.grad(x)
        h = field.hess(x)
        log_hess = field.log_hessian(x)
    elif isinstance(field, ScalarField):
        point = _check_point(field, point, n)
        peak = field.max_abs()
        v = field.values[point]
        if abs(v) < _ZERO_FIELD_CUTOFF * peak:
            raise ZeroFieldError("field magnitude below 1e-12 of its maximum")
        neighborhood = [point]
        for ax in range(n):
            neighborhood.append(_shifted(point, ax, +1, field.grid.shape))
            neighborhood.append(_shifted(point, ax, -1, field.grid.shape))
        if any(abs(field.values[q]) < _ZERO_FIELD_CUTOFF * peak
               for q in neighborhood):
            raise ZeroFieldError("stencil touches a near-zero of the field")
        g = np.array([_d1(field, point, ax) for ax in range(n)])
        h = np.array(
            [[_d2(field, point, j, k) for k in range(n)] for j in range(n)]
        )
        log_hess = np.array(
            [[_log_d2(field, point, j, k) if mat[j, k] != 0 else 0.0
              for k in range(n)] for j in range(n)]
        )
    else:
        raise TypeError("field must be an AnalyticField or a ScalarField")

    lhs = complex(g @ mat @ g + b * v * v)
    linear = complex(np.sum(mat * h) + b * v)
    correction = complex(-(v * v) * np.sum(mat * log_hess))
    rhs = v * linear + correction

    scale = (
        float(np.sum(np.abs(mat) * np.abs(np.outer(g, g))))
        + abs(b) * abs(v) ** 2
        + abs(correction)
    )
    diff = abs(lhs - rhs)
    mismatch = 0.0 if diff == 0.0 else diff / max(scale, 1e-300)
    return ResidualDecomposition(
        lhs=lhs, rhs=rhs, mismatch=mismatch, log_curvature_term=correction
    )


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


def _unpair(v) -> complex:
    if not isinstance(v, (list, tuple)) or len(v) != 2:
        raise ValueError(f"complex values are [re, im] pairs, got {v!r}")
    return complex(float(v[0]), float(v[1]))


def pde_spec_from_obj(obj: dict) -> PdeSpec:
    """Inverse of pde_spec_to_obj; a malformed object raises FormatError."""
    try:
        terms = tuple(
            PdeTerm(int(t["degree"]), tuple(t["indices"]), _unpair(t["coeff"]))
            for t in obj["terms"]
        )
        tc = obj.get("transform_constant")
        return PdeSpec(
            n=int(obj["n"]),
            m=int(obj["m"]),
            terms=terms,
            b=_unpair(obj["b"]),
            homogeneous=bool(obj.get("homogeneous", False)),
            transform_constant=None if tc is None else _unpair(tc),
        )
    except KeyError as exc:
        raise FormatError(f"PDE spec lacks the key {exc}") from None
    except (AttributeError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed PDE spec: {exc}") from None


def pde_spec_dumps(spec: PdeSpec) -> str:
    return json_dumps(pde_spec_to_obj(spec))


def pde_spec_loads(text: str) -> PdeSpec:
    import json

    return pde_spec_from_obj(json.loads(text))


def save_pde_spec(path, spec: PdeSpec) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(pde_spec_dumps(spec))


def load_pde_spec(path) -> PdeSpec:
    with open(path) as fh:
        return pde_spec_loads(fh.read())
