import cmath
import dataclasses
import itertools
import json
import math
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hjwave import (
    AnalyticField,
    DegenerateQuadraticError,
    DomainError,
    FormatError,
    Grid,
    LinearPdeSpec,
    PdeSpec,
    PdeTerm,
    PhysicalConstants,
    ResidualDecomposition,
    ScalarField,
    UnsupportedOrderError,
    ZeroFieldError,
    action_from_wavefunction,
    decomposition_defect,
    residual_decomposition_check,
    dispersion_omega,
    dispersion_quadratic,
    hje_pde_spec,
    hje_pde_spec_1d,
    linearize,
    load_pde_spec,
    log_transform,
    pde_spec_dumps,
    pde_spec_loads,
    plane_wave_field,
    residual_linear,
    residual_nonlinear,
    wavefunction_from_action,
)
from hjwave import pde_algebra
from hjwave.pde_algebra import pde_spec_from_obj
from hjwave.reporting import json_dumps
from hjwave.verify import random_mode_field

NAT = PhysicalConstants()
MASSLESS = PhysicalConstants(m0=0.0)
A_QM = NAT.hbar / 1j  # the physical transform constant


# ---------------------------------------------------------------------------
# Spec construction and validation
# ---------------------------------------------------------------------------

class TestSpecValidation:
    def test_hje_spec_coefficients(self):
        spec = hje_pde_spec(PhysicalConstants(1.0, 2.0, 3.0))
        lin = linearize(spec, A=1.0)
        assert np.array_equal(np.diag(lin.second_order_coeffs),
                              [-4.0, -4.0, -4.0, 1.0])
        assert lin.zeroth_coeff == -(3.0 * 4.0) ** 2  # -(m0 c^2)^2

    def test_free_term_out_of_range_is_named(self):
        for consts in (PhysicalConstants(m0=1e200), PhysicalConstants(c=1e100),
                       PhysicalConstants(m0=1e-200)):
            with pytest.raises(DomainError, match=r"^rest energy m0 c\^2 = "):
                hje_pde_spec(consts)
        b = hje_pde_spec(PhysicalConstants(c=1e100, m0=0.0)).b
        assert b == 0 and math.copysign(1.0, b.real) == 1.0  # +0.0

    def test_term_validation(self):
        with pytest.raises(ValueError):
            PdeTerm(2, (1,), 1.0)  # indices shorter than degree
        with pytest.raises(ValueError):
            PdeTerm(0, (), 1.0)

    def test_m_must_be_tight(self):
        with pytest.raises(ValueError):
            PdeSpec(n=2, m=3, terms=(PdeTerm(2, (1, 1), 1.0),), b=0.0)

    def test_index_bound(self):
        with pytest.raises(ValueError):
            PdeSpec(n=1, m=2, terms=(PdeTerm(2, (1, 2), 1.0),), b=0.0)


# ---------------------------------------------------------------------------
# Logarithmic transform
# ---------------------------------------------------------------------------

class TestLogTransform:
    def test_massive_1d_coefficients(self):
        spec = hje_pde_spec_1d(NAT)
        out = log_transform(spec, A=2.0 + 1.0j)
        a2 = (2.0 + 1.0j) ** 2
        coeffs = {t.indices: t.coeff for t in out.terms}
        assert coeffs[(1, 1)] == -NAT.c**2 * a2
        assert coeffs[(2, 2)] == a2
        assert out.b == spec.b
        assert out.homogeneous and out.transform_constant == 2.0 + 1.0j

    def test_identity_constant(self):
        spec = hje_pde_spec_1d(NAT)
        out = log_transform(spec, A=1.0)
        assert all(
            t.coeff == s.coeff for t, s in zip(out.terms, spec.terms)
        )

    def test_physical_constant_flips_signs(self):
        # (hbar/i)^2 = -hbar^2, so the time term picks up -hbar^2 and the
        # space term +c^2 hbar^2
        spec = hje_pde_spec_1d(MASSLESS)
        out = log_transform(spec, A_QM)
        coeffs = {t.indices: t.coeff for t in out.terms}
        assert coeffs[(2, 2)] == pytest.approx(-1.0, abs=1e-15)
        assert coeffs[(1, 1)] == pytest.approx(1.0, abs=1e-15)

    def test_zero_constant_rejected(self):
        with pytest.raises(DomainError):
            log_transform(hje_pde_spec_1d(NAT), 0.0)

    def test_double_transform_rejected(self):
        once = log_transform(hje_pde_spec_1d(NAT), 1.0)
        with pytest.raises(DomainError):
            log_transform(once, 1.0)

    def test_general_order_conjugacy_analytic(self):
        # mixed degrees, m = 3: residual of the image on psi equals
        # psi^m times the original residual evaluated at y = A ln psi
        spec = PdeSpec(
            n=1, m=3,
            terms=(PdeTerm(1, (1,), 2.0), PdeTerm(3, (1, 1, 1), 1.0)),
            b=4.0,
        )
        a_const = 0.7 - 0.3j
        image = log_transform(spec, a_const)
        g = 0.37
        psi = AnalyticField([1.0], [[g]])
        x = np.array([0.83])
        lhs = residual_nonlinear(image, psi, x)
        # original residual at y = A ln psi: dy/dx = A g (value-independent)
        plain = 2.0 * (a_const * g) + (a_const * g) ** 3 + 4.0
        rhs = psi.value(x) ** 3 * plain
        assert cmath.isclose(lhs, rhs, rel_tol=1e-13)

    def test_conjugacy_on_grid_converges_quadratically(self):
        # positive field exp(sin x), y = A sin x, static 1D quadratic spec
        spec = PdeSpec(n=1, m=2, terms=(PdeTerm(2, (1, 1), 1.0),), b=0.5)
        a_const = 1.3
        image = log_transform(spec, a_const)
        errors = []
        for n in (64, 128, 256):
            grid = Grid.line(n, 2 * math.pi)
            x = grid.axes()[0]
            field = ScalarField(grid, np.exp(np.sin(x)))
            j = n // 8  # x = pi/4 at every resolution
            got = residual_nonlinear(image, field, (j,))
            exact = np.exp(np.sin(x[j])) ** 2 * (
                (a_const * math.cos(x[j])) ** 2 + 0.5
            )
            errors.append(abs(got - exact))
        order = math.log2(errors[0] / errors[1])
        assert 1.8 <= order <= 2.2
        assert errors[-1] < 5e-3


# ---------------------------------------------------------------------------
# Linearization
# ---------------------------------------------------------------------------

class TestLinearize:
    def test_massive_pipeline_reproduces_wave_operator(self):
        # exact integer relation in natural units, one global sign
        lin = linearize(log_transform(hje_pde_spec(NAT), A_QM))
        target = np.diag([-1.0, -1.0, -1.0, 1.0]).astype(complex)
        assert np.array_equal(-lin.second_order_coeffs, target)
        assert -lin.zeroth_coeff == 1.0 + 0.0j

    def test_massless_1d_gives_wave_equation(self):
        lin = linearize(log_transform(hje_pde_spec_1d(MASSLESS), A_QM))
        assert np.array_equal(
            -lin.second_order_coeffs, np.diag([-1.0, 1.0]).astype(complex)
        )
        assert lin.zeroth_coeff == 0.0

    def test_identity_matrix_gives_laplace(self):
        spec = PdeSpec(
            n=3, m=2,
            terms=tuple(PdeTerm(2, (j, j), 1.0) for j in (1, 2, 3)),
            b=0.0,
        )
        lin = linearize(spec, A=1.0)
        assert np.array_equal(lin.second_order_coeffs, np.eye(3, dtype=complex))

    def test_plain_spec_requires_constant(self):
        with pytest.raises(DomainError):
            linearize(hje_pde_spec(NAT), None)

    def test_mismatched_constant_rejected(self):
        image = log_transform(hje_pde_spec(NAT), 1.0j)
        with pytest.raises(DomainError):
            linearize(image, 2.0)

    def test_degree_one_terms_rejected(self):
        spec = PdeSpec(
            n=2, m=2,
            terms=(PdeTerm(1, (1,), 1.0), PdeTerm(2, (2, 2), 1.0)),
            b=0.0,
        )
        with pytest.raises(UnsupportedOrderError):
            linearize(spec, 1.0)

    def test_cubic_rejected(self):
        spec = PdeSpec(n=1, m=3, terms=(PdeTerm(3, (1, 1, 1), 1.0),), b=0.0)
        with pytest.raises(UnsupportedOrderError):
            linearize(spec, 1.0)

    def test_linear_spec_is_immutable(self):
        given = np.eye(2, dtype=complex)
        lin = LinearPdeSpec(2, given, zeroth_coeff=1.0)
        given[0, 0] = 5.0  # the caller's array is not the spec's
        assert np.array_equal(lin.second_order_coeffs, np.eye(2))
        with pytest.raises(ValueError, match="read-only"):
            lin.second_order_coeffs[0, 0] = 5.0
        assert np.array_equal(lin.second_order_coeffs, np.eye(2))


# ---------------------------------------------------------------------------
# Dispersion extraction
# ---------------------------------------------------------------------------

class TestDispersionQuadratic:
    def test_general_constant_roots(self):
        # omega = +-sqrt(c^2 k^2 - (m0 c^2 / A)^2) with A = 2: 1 - 1/4
        disp = dispersion_quadratic(hje_pde_spec(NAT), 2.0, (1.0, 0, 0))
        expected = math.sqrt(0.75)
        roots = sorted(r.real for r in disp.roots)
        assert roots == pytest.approx([-expected, expected], rel=1e-14)

    def test_physical_constant_matches_dispersion(self):
        for k in np.linspace(0.0, 10.0, 20):
            disp = dispersion_quadratic(hje_pde_spec(NAT), A_QM, (k, 0, 0))
            assert disp.positive_root() == pytest.approx(
                dispersion_omega(k, NAT), rel=1e-12
            )

    def test_massless_roots(self):
        disp = dispersion_quadratic(
            hje_pde_spec(MASSLESS), A_QM, (2.0, 0, 0)
        )
        roots = sorted(r.real for r in disp.roots)
        assert roots == pytest.approx([-2.0, 2.0], rel=1e-14)

    def test_cross_terms_enter_linear_coefficient(self):
        spec = PdeSpec(
            n=4, m=2,
            terms=(PdeTerm(2, (1, 4), 3.0), PdeTerm(2, (4, 4), 1.0)),
            b=-1.0,
        )
        disp = dispersion_quadratic(spec, 1.0, (2.0, 0, 0))
        q2, q1, q0 = disp.coefficients
        assert (q2, q1, q0) == (1.0, 6.0, 1.0)
        for root in disp.roots:
            assert abs(q2 * root**2 + q1 * root + q0) < 1e-12

    def test_degenerate_linear_case(self):
        spec = PdeSpec(
            n=4, m=2,
            terms=(PdeTerm(2, (1, 4), 1.0), PdeTerm(2, (1, 1), 1.0)),
            b=-1.0,
        )
        disp = dispersion_quadratic(spec, 1.0, (2.0, 0, 0))
        assert disp.degenerate
        assert disp.roots == (-2.5 + 0j,)

    def test_no_frequency_dependence_raises(self):
        spec = PdeSpec(n=4, m=2, terms=(PdeTerm(2, (1, 1), 1.0),), b=-1.0)
        with pytest.raises(DegenerateQuadraticError):
            dispersion_quadratic(spec, 1.0, (2.0, 0, 0))

    def test_wrong_arity_rejected(self):
        with pytest.raises(UnsupportedOrderError):
            dispersion_quadratic(hje_pde_spec_1d(NAT), 1.0, (1.0, 0, 0))

    def test_evanescent_branch_has_no_positive_root(self):
        disp = dispersion_quadratic(hje_pde_spec(NAT), 2.0, (0.0, 0, 0))
        with pytest.raises(DomainError):
            disp.positive_root()


# ---------------------------------------------------------------------------
# Residuals on plane waves (both directions)
# ---------------------------------------------------------------------------

def plane_wave_residual_factor(spec, A, alpha):
    """Exact prefactor r with residual(exp(i alpha . x)) = r * psi^2.

    For a quadratic spec, substituting d psi/dx_l = i alpha_l psi gives
    r = b - sum_jk M_jk alpha_j alpha_k, i.e. minus the dispersion
    polynomial evaluated at alpha.
    """
    lin = linearize(spec, A)
    mat, b = lin.second_order_coeffs, lin.zeroth_coeff
    alpha = np.asarray(alpha, dtype=complex)
    return complex(b - alpha @ mat @ alpha)


class TestPlaneWaveResiduals:
    def setup_method(self):
        self.spec = hje_pde_spec(NAT)
        self.image = log_transform(self.spec, A_QM)
        self.lin = linearize(self.image)
        self.point = np.array([0.3, 0.7, -0.2, 0.11])

    def test_on_shell_residuals_vanish(self):
        for k in np.linspace(0.1, 10.0, 20):
            omega = dispersion_quadratic(
                self.spec, A_QM, (k, 0, 0)
            ).positive_root()
            wave = AnalyticField.plane_wave(1.0, [k, 0.0, 0.0, omega])
            scale = max(abs(NAT.c**2 * k**2), omega**2, 1.0)
            assert abs(residual_nonlinear(self.image, wave, self.point)) <= 1e-12 * scale
            assert abs(residual_linear(self.lin, wave, self.point)) <= 1e-12 * scale

    def test_off_shell_residual_matches_quadratic_form(self):
        for k in np.linspace(0.1, 10.0, 20):
            omega = dispersion_omega(k, NAT) + 0.1
            alpha = np.array([k, 0.0, 0.0, omega])
            wave = AnalyticField.plane_wave(1.0, alpha)
            factor = plane_wave_residual_factor(self.spec, A_QM, alpha)
            got = residual_nonlinear(self.image, wave, self.point)
            expected = factor * wave.value(self.point) ** 2
            assert abs(got - expected) <= 1e-10 * abs(expected)
            assert abs(factor) > 1e-3  # genuinely off shell
            # the equivalent linear equation rejects the same wave
            lin_res = residual_linear(self.lin, wave, self.point)
            expected_lin = factor * wave.value(self.point)
            assert abs(lin_res - expected_lin) <= 1e-10 * abs(expected_lin)

    def test_constant_field_with_zero_free_term(self):
        spec = log_transform(hje_pde_spec(MASSLESS), A_QM)
        const = AnalyticField([1.0], np.zeros((1, 4)))
        assert residual_nonlinear(spec, const, np.zeros(4)) == 0.0
        assert residual_linear(linearize(spec), const, np.zeros(4)) == 0.0

    def test_constant_grid_field_with_zero_free_term(self):
        lin = LinearPdeSpec(1, [[1.0]], zeroth_coeff=0.0)
        grid = Grid.line(8, 1.0)
        ones = ScalarField(grid, np.ones(8))
        assert residual_linear(lin, ones, (3,)) == 0.0

    def test_linear_residual_on_grid_converges_quadratically(self):
        # Helmholtz-style oracle: stencil symbol gives residual
        # (k^2 - (2/h sin(kh/2))^2) psi exactly
        k = 3.0
        lin = LinearPdeSpec(1, [[1.0]], zeroth_coeff=k**2)
        errors = []
        for n in (32, 64, 128):
            grid = Grid.line(n, 2 * math.pi)
            field = plane_wave_field(grid, k, omega=0.0)
            got = residual_linear(lin, field, (n // 3,))
            h = grid.spacing
            k_stencil_sq = (2 / h * math.sin(k * h / 2)) ** 2
            expected = (k**2 - k_stencil_sq) * field.values[n // 3]
            assert got == pytest.approx(expected, rel=1e-10)
            errors.append(abs(got))
        order = math.log2(errors[0] / errors[1])
        assert 1.9 <= math.log2(errors[1] / errors[2]) <= 2.1
        assert 1.9 <= order <= 2.1

    def test_spacetime_grid_residual_converges(self):
        # (x, t) sampling of an on-shell wave on a commensurate box
        k = 1.0
        omega = dispersion_omega(k, NAT)
        spec1d = log_transform(hje_pde_spec_1d(NAT), A_QM)
        lin1d = linearize(spec1d)
        errors = []
        for n in (32, 64, 128):
            grid = Grid((n, n), (2 * math.pi, 2 * math.pi / omega))
            xs, ts = grid.meshgrid()
            field = ScalarField(grid, np.exp(1j * (k * xs - omega * ts)))
            errors.append(abs(residual_linear(lin1d, field, (n // 4, n // 3))))
        assert 1.9 <= math.log2(errors[0] / errors[1]) <= 2.1
        assert 1.9 <= math.log2(errors[1] / errors[2]) <= 2.1


class TestAnalyticField:
    def test_constructors_share_one_representation(self):
        wave = AnalyticField.plane_wave(2.0, [1.0, -0.5])
        assert wave.amplitudes.shape == (1,) and wave.rates.shape == (1, 2)
        assert np.array_equal(wave.rates, [[1j, -0.5j]])
        modes = AnalyticField([1.0, 0.5], [[1j, 0.0], [0.0, 2j]])
        assert modes.n == 2 and modes.rates.shape == (2, 2)
        assert AnalyticField([0.5], np.zeros((1, 3))).value(np.ones(3)) == 0.5

    def test_modes_and_rates_must_agree(self):
        with pytest.raises(ValueError, match="modes"):
            AnalyticField([1.0, 2.0], [[1j, 0.0]])

    def test_value_is_the_sum_of_the_modes(self):
        x = np.array([0.4, -1.1])
        field = AnalyticField([0.5, 2j], [[1.0, 0.5j], [-0.3, 0.0]])
        expected = 0.5 * cmath.exp(0.4 - 0.55j) + 2j * cmath.exp(-0.12)
        assert cmath.isclose(field.value(x), expected, rel_tol=1e-15)


# ---------------------------------------------------------------------------
# Residual decomposition certificate
# ---------------------------------------------------------------------------

def seeded_mode_field(grid: Grid, seed: int = 0) -> ScalarField:
    """Unit background plus three small integer-mode waves (fixed seed)."""
    rng = np.random.default_rng(seed)
    values = np.ones(grid.shape, dtype=complex)
    coords = grid.meshgrid()
    for _ in range(3):
        alpha = rng.integers(-2, 3, size=grid.ndim)
        while not np.any(alpha):
            alpha = rng.integers(-2, 3, size=grid.ndim)
        amp = 1e-3 * (0.5 + rng.random()) * np.exp(2j * np.pi * rng.random())
        values = values + amp * np.exp(
            1j * sum(a * x for a, x in zip(alpha, coords))
        )
    return ScalarField(grid, values)


class TestResidualDecomposition:
    def test_on_shell_plane_wave_all_zero(self):
        spec = hje_pde_spec(NAT)
        image = log_transform(spec, A_QM)
        omega = dispersion_omega(2.0, NAT)
        wave = AnalyticField.plane_wave(1.0, [2.0, 0.0, 0.0, omega])
        chk = residual_decomposition_check(image, A_QM, wave, np.array([0.1, 0.2, 0.3, 0.4]))
        assert abs(chk.lhs) <= 1e-12
        assert abs(chk.rhs) <= 1e-12
        assert abs(chk.log_curvature_term) <= 1e-12
        assert chk.mismatch <= 1e-12

    def test_exponential_hand_example(self):
        # psi = exp(x), a11 = 1, b = 0, A = 1: nonlinear e^{2x},
        # linear e^x, log-curvature term 0
        spec = PdeSpec(n=1, m=2, terms=(PdeTerm(2, (1, 1), 1.0),), b=0.0)
        psi = AnalyticField([1.0], [[1.0]])
        x = np.array([0.37])
        chk = residual_decomposition_check(spec, 1.0, psi, x)
        assert chk.lhs == pytest.approx(math.exp(2 * 0.37), rel=1e-14)
        assert chk.rhs == pytest.approx(chk.lhs, rel=1e-14)
        assert abs(chk.log_curvature_term) <= 1e-14
        assert chk.mismatch <= 1e-14

    def test_nonzero_log_curvature_analytic_identity(self):
        # superpositions of plane waves have genuinely nonzero log curvature
        spec = PdeSpec(n=2, m=2,
                       terms=(PdeTerm(2, (1, 1), 1.0), PdeTerm(2, (2, 2), -0.5)),
                       b=2.0)
        field = AnalyticField(
            [1.0, 0.3, 0.2j], 1j * np.array([[1.0, 0.0], [0.0, 2.0], [1.0, -1.0]])
        )
        x = np.array([0.4, 0.9])
        chk = residual_decomposition_check(spec, 1.5 + 0.5j, field, x)
        assert abs(chk.log_curvature_term) > 1e-3
        assert chk.mismatch <= 1e-12

    def test_grid_mismatch_is_small_and_second_order(self):
        spec = log_transform(hje_pde_spec_1d(NAT), A_QM)
        rng = np.random.default_rng(11)
        mismatches = []
        for n in (64, 128):
            grid = Grid((n, n), (2 * math.pi, 2 * math.pi))
            field = seeded_mode_field(grid, seed=0)
            worst = 0.0
            for _ in range(16):
                pt = tuple(int(v) for v in rng.integers(0, n, 2))
                worst = max(
                    worst, residual_decomposition_check(spec, A_QM, field, pt).mismatch
                )
            mismatches.append(worst)
        assert mismatches[1] <= 1e-7
        assert 1.5 <= math.log2(mismatches[0] / mismatches[1]) <= 2.5

    def test_analytic_field_of_wrong_dimension_rejected(self):
        spec = log_transform(hje_pde_spec(NAT), A_QM)
        wave = AnalyticField.plane_wave(1.0, [1.0, 0.0, 0.0])
        for point in (np.zeros(3), np.zeros(4)):
            with pytest.raises(DomainError, match="4 arguments"):
                residual_decomposition_check(spec, A_QM, wave, point)
            with pytest.raises(DomainError, match="4 arguments"):
                residual_nonlinear(spec, wave, point)
            with pytest.raises(DomainError, match="4 arguments"):
                residual_linear(linearize(spec), wave, point)

    def test_analytic_point_of_wrong_length_rejected(self):
        spec = log_transform(hje_pde_spec(NAT), A_QM)
        wave = AnalyticField.plane_wave(1.0, [1.0, 0.0, 0.0, 1.5])
        with pytest.raises(DomainError, match="4 arguments"):
            residual_decomposition_check(spec, A_QM, wave, np.zeros(3))

    def test_zero_analytic_field_rejected(self):
        spec = PdeSpec(n=1, m=2, terms=(PdeTerm(2, (1, 1), 1.0),), b=0.0)
        with pytest.raises(ZeroFieldError):
            residual_decomposition_check(
                spec, 1.0, AnalyticField([0.0], [[0.0]]), np.zeros(1))

    def test_near_zero_field_rejected(self):
        spec = PdeSpec(n=1, m=2, terms=(PdeTerm(2, (1, 1), 1.0),), b=0.0)
        grid = Grid.line(8, 1.0)
        values = np.ones(8, dtype=complex)
        values[3] = 1e-15
        field = ScalarField(grid, values)
        with pytest.raises(ZeroFieldError):
            residual_decomposition_check(spec, 1.0, field, (3,))


# ---------------------------------------------------------------------------
# Stencil oracle: the per-point evaluators on sampled fields as they were
# written with shifted index tuples, kept as the reference for the
# flat-index stencil reader
# ---------------------------------------------------------------------------

def _ref_shifted(point, axis, delta, shape):
    idx = list(point)
    idx[axis] = (idx[axis] + delta) % shape[axis]
    return tuple(idx)


def _ref_check_point(field, point, n):
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


def _ref_d1(field, point, axis):
    shape = field.grid.shape
    h = field.grid.spacings[axis]
    vp = field.values[_ref_shifted(point, axis, +1, shape)]
    vm = field.values[_ref_shifted(point, axis, -1, shape)]
    return (vp - vm) / (2 * h)


def _ref_d2(field, point, ax1, ax2):
    shape = field.grid.shape
    hs = field.grid.spacings
    sh = lambda p, ax, d: _ref_shifted(p, ax, d, shape)
    if ax1 == ax2:
        vp = field.values[sh(point, ax1, +1)]
        v0 = field.values[point]
        vm = field.values[sh(point, ax1, -1)]
        return (vp - 2 * v0 + vm) / hs[ax1] ** 2
    vpp = field.values[sh(sh(point, ax1, +1), ax2, +1)]
    vpm = field.values[sh(sh(point, ax1, +1), ax2, -1)]
    vmp = field.values[sh(sh(point, ax1, -1), ax2, +1)]
    vmm = field.values[sh(sh(point, ax1, -1), ax2, -1)]
    return (vpp - vpm - vmp + vmm) / (4 * hs[ax1] * hs[ax2])


def _ref_log_d1(field, point, axis):
    shape = field.grid.shape
    h = field.grid.spacings[axis]
    vp = field.values[_ref_shifted(point, axis, +1, shape)]
    vm = field.values[_ref_shifted(point, axis, -1, shape)]
    return cmath.log(vp / vm) / (2 * h)


def _ref_log_d2(field, point, ax1, ax2):
    shape = field.grid.shape
    hs = field.grid.spacings
    if ax1 == ax2:
        vp = field.values[_ref_shifted(point, ax1, +1, shape)]
        v0 = field.values[point]
        vm = field.values[_ref_shifted(point, ax1, -1, shape)]
        return (cmath.log(vp / v0) - cmath.log(v0 / vm)) / hs[ax1] ** 2
    gp = _ref_log_d1(field, _ref_shifted(point, ax1, +1, shape), ax2)
    gm = _ref_log_d1(field, _ref_shifted(point, ax1, -1, shape), ax2)
    return (gp - gm) / (2 * hs[ax1])


def _ref_matrix(spec, A):
    factor = 1.0 if spec.homogeneous else complex(A) ** 2
    mat = np.zeros((spec.n, spec.n), dtype=complex)
    for t in spec.terms:
        j, k = t.indices
        mat[j - 1, k - 1] += factor * t.coeff
    return mat, spec.b


def ref_nonlinear(spec, field, point):
    """(residual, summed term magnitude) by the index-tuple stencils."""
    point = _ref_check_point(field, point, spec.n)
    v = field.values[point] if spec.homogeneous else None
    first = {}
    total, size = 0j, 0.0
    for t in spec.terms:
        prod = t.coeff
        for i in t.indices:
            if i - 1 not in first:
                first[i - 1] = _ref_d1(field, point, i - 1)
            prod *= first[i - 1]
        if spec.homogeneous and spec.m != t.degree:
            prod *= v ** (spec.m - t.degree)
        total += prod
        size += abs(prod)
    free = spec.b * v**spec.m if spec.homogeneous else spec.b
    return complex(total + free), size + abs(free)


def ref_linear(lspec, field, point):
    point = _ref_check_point(field, point, lspec.n)
    mat = lspec.second_order_coeffs
    total = lspec.zeroth_coeff * field.values[point]
    size = abs(total)
    for j in range(lspec.n):
        for k in range(lspec.n):
            if mat[j, k] != 0:
                term = mat[j, k] * _ref_d2(field, point, j, k)
                total += term
                size += abs(term)
    return complex(total), size


def ref_decomposition(spec, A, field, point):
    """(ResidualDecomposition, summed magnitude of every term it adds)."""
    mat, b = _ref_matrix(spec, A)
    n = spec.n
    point = _ref_check_point(field, point, n)
    peak = float(np.max(np.abs(field.values)))
    v = field.values[point]
    if abs(v) < 1e-12 * peak:
        raise ZeroFieldError("field magnitude below 1e-12 of its maximum")
    neighborhood = [point]
    for ax in range(n):
        neighborhood.append(_ref_shifted(point, ax, +1, field.grid.shape))
        neighborhood.append(_ref_shifted(point, ax, -1, field.grid.shape))
    if any(abs(field.values[q]) < 1e-12 * peak for q in neighborhood):
        raise ZeroFieldError("stencil touches a near-zero of the field")
    g = np.array([_ref_d1(field, point, ax) for ax in range(n)])
    h = np.array([[_ref_d2(field, point, j, k) for k in range(n)]
                  for j in range(n)])
    log_hess = np.array(
        [[_ref_log_d2(field, point, j, k) if mat[j, k] != 0 else 0.0
          for k in range(n)] for j in range(n)]
    )
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
    size = float(np.sum(np.abs(mat) * (
        np.abs(np.outer(g, g)) + abs(v) * np.abs(h)
        + abs(v) ** 2 * np.abs(log_hess)
    ))) + 2 * abs(b) * abs(v) ** 2
    chk = ResidualDecomposition(lhs=lhs, rhs=complex(rhs), mismatch=mismatch,
                                log_curvature_term=correction)
    return chk, size


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except (DomainError, ZeroFieldError) as exc:
        return type(exc).__name__, str(exc)


# Unequal spacings on every axis; at least 4 points per axis.
ORACLE_GRIDS = {
    1: Grid((9,), (2.0,)),
    2: Grid((7, 5), (2 * math.pi, 1.3)),
    3: Grid((5, 4, 6), (1.0, 2.5, 0.7)),
    4: Grid((4, 5, 4, 4), (1.1, 0.9, 2.0, 1.7)),
}
A_ORACLE = 0.8 + 0.3j


def oracle_field(grid, seed):
    """Unit background plus three random integer modes; |psi| >= 0.55."""
    rng = np.random.default_rng(seed)
    coords = grid.meshgrid()
    values = np.ones(grid.shape, dtype=complex)
    for _ in range(3):
        alpha = rng.integers(-2, 3, size=grid.ndim)
        amp = 0.1 * (0.5 + rng.random()) * np.exp(2j * np.pi * rng.random())
        values = values + amp * np.exp(
            1j * sum(a * x for a, x in zip(alpha, coords))
        )
    return ScalarField(grid, values)


def oracle_specs(n, seed):
    """A diagonal spec and, for n >= 2, one with off-diagonal terms.

    Both include a repeated diagonal entry, so accumulation is exercised.
    """
    rng = np.random.default_rng(seed)
    rand = lambda: complex(rng.standard_normal(), rng.standard_normal())
    diag = [PdeTerm(2, (j, j), rand()) for j in range(1, n + 1)]
    diag.append(PdeTerm(2, (1, 1), rand()))
    specs = [PdeSpec(n=n, m=2, terms=tuple(diag), b=rand())]
    if n >= 2:
        mixed = diag + [PdeTerm(2, (1, n), rand()), PdeTerm(2, (n, 1), rand())]
        if n >= 3:
            mixed.append(PdeTerm(2, (2, 3), rand()))
        specs.append(PdeSpec(n=n, m=2, terms=tuple(mixed), b=rand()))
    return specs


class TestStencilOracle:
    @pytest.mark.parametrize("n", sorted(ORACLE_GRIDS))
    def test_evaluators_match_index_tuple_reference(self, n):
        grid = ORACLE_GRIDS[n]
        field = oracle_field(grid, seed=n)
        quadratic = oracle_specs(n, seed=10 + n)
        mixed_degree = PdeSpec(
            n=n, m=2, b=0.7 - 0.2j,
            terms=(PdeTerm(1, (n,), 0.5 + 0.1j), PdeTerm(2, (1, 1), -1.3)),
        )
        nonlinear_specs = quadratic + [mixed_degree]
        nonlinear_specs += [log_transform(s, A_ORACLE) for s in nonlinear_specs]
        decomposition_specs = quadratic + [log_transform(s, A_ORACLE)
                                           for s in quadratic]
        linear_specs = [linearize(s, A_ORACLE) for s in quadratic]
        for point in np.ndindex(grid.shape):
            for spec in decomposition_specs:
                got = residual_decomposition_check(spec, A_ORACLE, field, point)
                want, size = ref_decomposition(spec, A_ORACLE, field, point)
                assert abs(got.lhs - want.lhs) <= 1e-12 * size
                assert abs(got.rhs - want.rhs) <= 1e-12 * size
                assert (abs(got.log_curvature_term - want.log_curvature_term)
                        <= 1e-12 * size)
                assert abs(got.mismatch - want.mismatch) <= 1e-13
            for spec in nonlinear_specs:
                want, size = ref_nonlinear(spec, field, point)
                got = residual_nonlinear(spec, field, point)
                assert abs(got - want) <= 1e-12 * size
            for lspec in linear_specs:
                want, size = ref_linear(lspec, field, point)
                assert abs(residual_linear(lspec, field, point) - want) <= 1e-12 * size

    @pytest.mark.parametrize("n", sorted(ORACLE_GRIDS))
    def test_zero_field_rejects_match_reference(self, n):
        grid = ORACLE_GRIDS[n]
        values = np.array(oracle_field(grid, seed=n).values)
        zero = tuple(s // 2 for s in grid.shape)
        values[zero] = 1e-15
        field = ScalarField(grid, values)
        spec = oracle_specs(n, seed=10 + n)[-1]
        rejected = {}
        for point in np.ndindex(grid.shape):
            got = _outcome(residual_decomposition_check, spec, A_ORACLE, field, point)
            want = _outcome(ref_decomposition, spec, A_ORACLE, field, point)
            assert got[0] == want[0]
            if got[0] != "ok":
                assert got == want
                rejected[point] = got[1]
        # the zero itself, then its 2n axis neighbours
        assert len(rejected) == 2 * n + 1
        assert rejected.pop(zero) == "field magnitude below 1e-12 of its maximum"
        assert set(rejected.values()) == {"stencil touches a near-zero of the field"}

    @pytest.mark.parametrize("n", sorted(ORACLE_GRIDS))
    def test_bad_points_raise_the_same_domain_errors(self, n):
        grid = ORACLE_GRIDS[n]
        field = oracle_field(grid, seed=n)
        spec = oracle_specs(n, seed=10 + n)[-1]
        lspec = linearize(spec, A_ORACLE)
        other = ORACLE_GRIDS[n % 4 + 1]
        wrong_dims = oracle_field(other, seed=0)
        cases = [
            (field, (-1,) + (0,) * (n - 1)),
            (field, (0,) * (n - 1) + (grid.shape[-1],)),
            (field, (0,) * (n - 1)),
            (field, (0,) * (n + 1)),
            (wrong_dims, (0,) * other.ndim),
        ]
        pairs = [
            (lambda f, p: residual_decomposition_check(spec, A_ORACLE, f, p),
             lambda f, p: ref_decomposition(spec, A_ORACLE, f, p)),
            (lambda f, p: residual_nonlinear(spec, f, p),
             lambda f, p: ref_nonlinear(spec, f, p)),
            (lambda f, p: residual_linear(lspec, f, p),
             lambda f, p: ref_linear(lspec, f, p)),
        ]
        for f, point in cases:
            for new, ref in pairs:
                got = _outcome(new, f, point)
                assert got[0] == "DomainError"
                assert got == _outcome(ref, f, point)


# ---------------------------------------------------------------------------
# Whole-grid decomposition defect against the per-point evaluator
# ---------------------------------------------------------------------------

# |decomposition_defect| and the per-point mismatch share one numpy
# evaluation of lhs, rhs and scale; they differ only in taking |.| before
# or after dividing by the scale.  Over every point of the fields below
# they differed by at most 2.8e-17, a few ulps of mismatches below 1.
DEFECT_TOL = 1e-15


def per_point_mismatch(spec, A, field):
    shape = field.grid.shape
    return np.array([residual_decomposition_check(spec, A, field, p).mismatch
                     for p in np.ndindex(shape)]).reshape(shape)


def log_samples():
    """Named complex sample sets for the in-place log against np.log."""
    rng = np.random.default_rng(5)
    size = 20_000
    near = 1.0 + 1e-3 * (rng.standard_normal(size)
                         + 1j * rng.standard_normal(size))
    angles = rng.uniform(-math.pi, math.pi, size)
    circle = np.cos(angles) + 1j * np.sin(angles)
    mags = np.exp(np.linspace(-40.0, 40.0, size))
    spread = mags * np.exp(1j * rng.uniform(-math.pi, math.pi, size))
    negative = np.empty(2 * 500, dtype=complex)
    negative.real = -np.tile(np.exp(np.linspace(-40.0, 40.0, 500)), 2)
    negative.imag = np.repeat([0.0, -0.0], 500)
    return {"near 1": near, "unit circle": circle, "e^-40..e^40": spread,
            "negative axis": negative}


class TestLogInPlace:
    @pytest.mark.parametrize("name", list(log_samples()))
    def test_within_two_ulps_of_np_log(self, name):
        r = log_samples()[name]
        want = np.log(r)
        got = pde_algebra._log_in_place(r.copy())
        tol = 2 * np.spacing(np.maximum(np.abs(want), 1.0))
        assert np.all(np.abs(got.real - want.real) <= tol)
        assert np.all(np.abs(got.imag - want.imag) <= tol)
        if name == "near 1":  # the angles of neighbour ratios: same bits
            assert got.imag.tobytes() == want.imag.tobytes()

    def test_writes_into_its_argument(self):
        r = log_samples()["near 1"]
        assert pde_algebra._log_in_place(r) is r

    def test_special_values_match_np_log(self):
        # every pair of these parts but the four finite nonzero ones
        parts = np.array([0.0, -0.0, 2.0, -2.0, math.inf, -math.inf, math.nan])
        re, im = np.repeat(parts, parts.size), np.tile(parts, parts.size)
        keep = ~((np.abs(re) == 2.0) & (np.abs(im) == 2.0))
        r = np.empty(int(keep.sum()), dtype=complex)
        r.real, r.imag = re[keep], im[keep]
        with np.errstate(all="ignore"):
            want = np.log(r)
            got = pde_algebra._log_in_place(r.copy())
        for part in ("real", "imag"):
            g, w = getattr(got, part), getattr(want, part)
            assert np.array_equal(np.isnan(g), np.isnan(w))
            same = ~np.isnan(w)
            assert np.array_equal(g[same], w[same])
            assert np.array_equal(np.signbit(g[same]), np.signbit(w[same]))


class TestDecompositionDefect:
    @pytest.mark.parametrize("n", sorted(ORACLE_GRIDS))
    def test_matches_per_point_mismatch_on_oracle_grids(self, n):
        grid = ORACLE_GRIDS[n]
        quadratic = oracle_specs(n, seed=10 + n)
        for spec in quadratic + [log_transform(s, A_ORACLE) for s in quadratic]:
            # a fresh field each, so that neither path reads the other's arrays
            defect = decomposition_defect(spec, A_ORACLE, oracle_field(grid, n))
            assert defect.shape == grid.shape
            want = per_point_mismatch(spec, A_ORACLE, oracle_field(grid, n))
            assert np.max(np.abs(np.abs(defect) - want)) <= DEFECT_TOL

    def test_matches_per_point_mismatch_on_a_random_mode_field(self):
        spec = log_transform(hje_pde_spec_1d(NAT), A_QM)
        grid = Grid((128, 128), (2 * math.pi, 2 * math.pi))
        defect = decomposition_defect(spec, A_QM, random_mode_field(grid, 0))
        want = per_point_mismatch(spec, A_QM, random_mode_field(grid, 0))
        assert np.max(np.abs(np.abs(defect) - want)) <= DEFECT_TOL
        assert 1e-9 <= np.max(want) <= 1e-7  # the O(h^2) defect, not 0

    def test_each_difference_is_computed_once_per_evaluation(self,
                                                             monkeypatch):
        # a reader lives for one evaluation: every whole-grid call, and each
        # equation's first per-point call, takes each first difference once
        calls = []

        def counted(values, axis, h):
            calls.append(axis)
            return central_difference(values, axis, h)

        central_difference = pde_algebra.central_difference
        monkeypatch.setattr(pde_algebra, "central_difference", counted)
        spec = log_transform(hje_pde_spec_1d(NAT), A_QM)
        field = random_mode_field(Grid((16, 16), (2 * math.pi,) * 2), 3)
        for _ in range(2):
            decomposition_defect(spec, A_QM, field)
            assert sorted(calls) == [0, 1]
            calls.clear()
        for point in np.ndindex(field.grid.shape):
            residual_decomposition_check(spec, A_QM, field, point)
            residual_nonlinear(spec, field, point)
        assert sorted(calls) == [0, 0, 1, 1]  # one entry per equation

    def test_near_zero_anywhere_is_refused(self):
        spec = oracle_specs(2, seed=12)[-1]
        values = np.array(oracle_field(ORACLE_GRIDS[2], seed=2).values)
        values[3, 2] = 1e-15
        with pytest.raises(ZeroFieldError, match="below 1e-12"):
            decomposition_defect(spec, A_ORACLE, ScalarField(ORACLE_GRIDS[2], values))

    def test_field_of_wrong_dimension_is_refused(self):
        spec = oracle_specs(2, seed=12)[-1]
        with pytest.raises(DomainError, match="3 axes but the equation has 2"):
            decomposition_defect(spec, A_ORACLE, oracle_field(ORACLE_GRIDS[3], 3))

    def test_an_analytic_field_is_refused(self):
        spec = oracle_specs(2, seed=12)[-1]
        wave = AnalyticField.plane_wave(1.0, (0.3, -0.2))
        with pytest.raises(DomainError):
            decomposition_defect(spec, A_ORACLE, wave)


# ---------------------------------------------------------------------------
# Per-point calls read one memoised whole-grid evaluation per equation
# ---------------------------------------------------------------------------

MEMO_GRID = Grid((40, 25), (2 * math.pi, 1.3))  # 1,000 points


def memo_equations(coeff=(1.0, 0.5), b=0.7 - 0.2j, A=A_ORACLE):
    """A new plain spec, its linearization and A, equal for equal arguments.

    The coefficient is a new complex on every call, so a NaN in it is not
    the same object twice.
    """
    spec = PdeSpec(n=2, m=2, b=b, terms=(PdeTerm(2, (1, 1), complex(*coeff)),
                                         PdeTerm(2, (2, 2), -1.3 + 0.4j),
                                         PdeTerm(2, (1, 2), 0.2)))
    return spec, linearize(spec, A), A


def memo_calls(equations, field, point):
    spec, lspec, A = equations
    return (residual_decomposition_check(spec, A, field, point),
            residual_nonlinear(spec, field, point),
            residual_linear(lspec, field, point))


def sweep_bits(results):
    """The bytes of every number in a sweep's results, record fields included."""
    numbers = []
    for record, nonlinear, linear in results:
        numbers += [getattr(record, f.name) for f in dataclasses.fields(record)]
        numbers += [nonlinear, linear]
    return np.array(numbers, dtype=np.complex128).tobytes()


def equation_keys(field):
    """The kind of each memo entry; every entry is one equation's."""
    kinds = sorted(k[0] for k in field._memo)
    assert set(kinds) <= {"decomposition", "nonlinear", "linear"}
    return kinds


class TestWholeGridMemo:
    @pytest.mark.parametrize("coeff", [(1.0, 0.5), (math.nan, 1.0)])
    def test_equal_equations_rebuilt_at_each_point_share_one_entry(self, coeff):
        field = oracle_field(MEMO_GRID, seed=5)
        sizes = set()
        for point in np.ndindex(MEMO_GRID.shape):
            memo_calls(memo_equations(coeff), field, point)
            sizes.add(len(field._memo))
        assert len(sizes) == 1
        assert equation_keys(field) == ["decomposition", "linear", "nonlinear"]

    @pytest.mark.parametrize("other", [
        {"coeff": (1.0 + 1e-3, 0.5)},
        {"b": 0.7 - 0.2j + 1e-3},
        {"A": A_ORACLE + 1e-3},
    ])
    def test_equations_differing_in_one_value_never_share_arrays(self, other):
        pair = (memo_equations(), memo_equations(**other))
        shared = oracle_field(MEMO_GRID, seed=6)
        alone = [oracle_field(MEMO_GRID, seed=6) for _ in pair]
        for point in np.ndindex(MEMO_GRID.shape):
            got = [memo_calls(eq, shared, point) for eq in pair]
            assert got == [memo_calls(eq, f, point) for eq, f in zip(pair, alone)]
            assert got[0][0].lhs != got[1][0].lhs
            assert got[0][2] != got[1][2]
        assert equation_keys(shared) == ["decomposition"] * 2 + ["linear"] * 2 + [
            "nonlinear"] * (1 if "A" in other else 2)

    def test_a_rejected_constant_raises_on_every_call(self):
        image = log_transform(oracle_specs(2, seed=12)[-1], A_ORACLE)
        plain = oracle_specs(2, seed=12)[-1]
        field = oracle_field(ORACLE_GRIDS[2], seed=2)
        decomposition_defect(image, A_ORACLE, field)
        decomposition_defect(plain, A_ORACLE, field)
        wrong_dims = oracle_field(ORACLE_GRIDS[3], seed=3)
        for point in np.ndindex(field.grid.shape):
            residual_decomposition_check(image, A_ORACLE, field, point)
            with pytest.raises(DomainError, match="A does not match"):
                residual_decomposition_check(image, 2 * A_ORACLE, field, point)
            with pytest.raises(DomainError, match="A is required"):
                residual_decomposition_check(plain, None, field, point)
        # the constant is checked before the field and the point
        with pytest.raises(DomainError, match="A does not match"):
            residual_decomposition_check(image, 2 * A_ORACLE, field, (99, 99))
        with pytest.raises(DomainError, match="A does not match"):
            residual_decomposition_check(image, 2 * A_ORACLE, wrong_dims, (0,) * 3)
        with pytest.raises(DomainError, match="A does not match"):
            decomposition_defect(image, 2 * A_ORACLE, field)

    def test_zero_rejects_stay_per_point_after_the_grid_is_evaluated(self):
        grid = ORACLE_GRIDS[2]
        values = np.array(oracle_field(grid, seed=2).values)
        values[3, 2] = 1e-15
        field = ScalarField(grid, values)
        spec = oracle_specs(2, seed=12)[-1]
        residual_decomposition_check(spec, A_ORACLE, field, (0, 0))
        assert equation_keys(field) == ["decomposition"]
        for point in ((2, 2), (4, 2), (3, 1), (3, 3)):
            with pytest.raises(ZeroFieldError, match="stencil touches"):
                residual_decomposition_check(spec, A_ORACLE, field, point)
        with pytest.raises(ZeroFieldError, match="below 1e-12"):
            residual_decomposition_check(spec, A_ORACLE, field, (3, 2))
        residual_decomposition_check(spec, A_ORACLE, field, (0, 0))
        with pytest.raises(ZeroFieldError, match="below 1e-12"):
            decomposition_defect(spec, A_ORACLE, field)

    def test_decomposition_terms_run_once_per_entry_and_per_grid_call(
            self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args[-1].value.shape)
            return decomposition_terms(*args)

        decomposition_terms = pde_algebra._decomposition_terms
        monkeypatch.setattr(pde_algebra, "_decomposition_terms", counted)
        grid = Grid((16, 16), (2 * math.pi,) * 2)
        fields = [random_mode_field(grid, seed) for seed in (3, 4)]
        for field in fields:
            for point in np.ndindex(grid.shape):
                for consts in (NAT, MASSLESS):
                    spec = log_transform(hje_pde_spec_1d(consts), A_QM)
                    residual_decomposition_check(spec, A_QM, field, point)
        assert calls == [grid.shape] * 4  # two fields times two equations
        calls.clear()
        for field in fields:  # the whole grid is evaluated on every call
            for _ in range(3):
                decomposition_defect(spec, A_QM, field)
            assert equation_keys(field) == ["decomposition"] * 2
        assert calls == [grid.shape] * 6

    def test_a_warm_sweep_computes_and_stores_nothing(self, monkeypatch):
        spec = log_transform(hje_pde_spec_1d(NAT), A_QM)
        equations = (spec, linearize(spec), A_QM)
        field = random_mode_field(Grid((64, 64), (2 * math.pi,) * 2), 1)

        def sweep():
            return [memo_calls(equations, field, point)
                    for point in np.ndindex(field.grid.shape)]

        first = sweep()
        stored = dict(field._memo)
        assert equations[1]._key in stored  # the linear spec's own key
        calls = []
        for module, name in ((pde_algebra, "central_difference"),
                             (pde_algebra, "second_difference"),
                             (pde_algebra, "_decomposition_terms"),
                             (pde_algebra, "linearize"),
                             (pde_algebra, "_check_point"),
                             (pde_algebra, "_Sampled"),
                             (np, "roll")):
            monkeypatch.setattr(module, name,
                                lambda *args, name=name, **kw: calls.append(name))
        second = sweep()
        assert calls == []
        assert field._memo.keys() == stored.keys()
        assert all(field._memo[key] is entry for key, entry in stored.items())
        assert sweep_bits(second) == sweep_bits(first)

    def test_only_per_point_calls_store_and_one_entry_per_equation(self):
        equations = memo_equations()
        spec, lspec, A = equations
        field = oracle_field(MEMO_GRID, seed=8)
        decomposition_defect(spec, A, field)
        assert field._memo == {}
        for point in ((0, 0), (39, 24), (7, 3)):
            memo_calls(equations, field, point)
            decomposition_defect(spec, A, field)
            decomposition_defect(log_transform(spec, A), A, field)
            assert equation_keys(field) == ["decomposition", "linear",
                                            "nonlinear"]

    def test_a_changed_callers_array_leaves_only_per_point_entries_stale(self):
        # the field views the caller's array: whole-grid calls and max_abs
        # read the samples as they are now, per-point entries as they were
        equations = memo_equations()
        spec, _, A = equations
        values = np.array(oracle_field(MEMO_GRID, seed=8).values)
        field = ScalarField(MEMO_GRID, values)
        point = memo_calls(equations, field, (1, 2))
        defect, peak = decomposition_defect(spec, A, field), field.max_abs()
        values[...] = 2 * oracle_field(MEMO_GRID, seed=9).values
        fresh = ScalarField(MEMO_GRID, values.copy())
        assert sweep_bits([memo_calls(equations, field, (1, 2))]) == (
            sweep_bits([point]))
        now = decomposition_defect(spec, A, field)
        assert now.tobytes() == decomposition_defect(spec, A, fresh).tobytes()
        assert now.tobytes() != defect.tobytes()
        assert field.max_abs() == fresh.max_abs() != peak
        assert equation_keys(field) == ["decomposition", "linear", "nonlinear"]

    @pytest.mark.parametrize("warm", [False, True])
    def test_points_are_checked_as_the_reference_checks_them(self, warm):
        grid = ORACLE_GRIDS[2]
        spec = oracle_specs(2, seed=12)[-1]
        equations = (spec, linearize(spec, A_ORACLE), A_ORACLE)
        field = oracle_field(grid, seed=2)
        three_axes = oracle_field(ORACLE_GRIDS[3], seed=3)
        if warm:
            memo_calls(equations, field, (0, 0))
            decomposition_defect(oracle_specs(3, seed=13)[-1], A_ORACLE,
                                 three_axes)

        def fresh(f):  # cold: every call meets an empty memo
            return f if warm else f.with_values(f.values)

        rows, cols = grid.shape
        cases = [
            (field, (np.int64(rows - 1), np.int64(cols - 1))),
            (field, (np.int64(2), 3)),
            # numpy refuses bools and lists, which the reference takes
            (field, (True, 0)),
            (field, [1, 2]),
            (field, (np.array(1), 2)),
            (field, (1, np.uint8(3))),
            (field, (-1, 0)),
            (field, (-1, 2)),
            (field, (0, -1)),
            (field, (np.int64(-1), np.int64(-1))),
            (field, (rows, 0)),
            (field, (0, cols)),
            (field, (np.int64(rows), np.int64(0))),
            (field, (2**70, 0)),  # numpy overflows a C long
            (field, (0,)),
            (field, (0, 0, 0)),
            (three_axes, (0, 0)),
            (three_axes, (0, 0, 0)),
        ]
        # the reference takes these through int(); numpy's bool has no
        # __index__, and None, the whole grid elsewhere, carries no index
        not_integers = ("DomainError", "point indices must be integers")
        own = [
            ((np.True_, 0), not_integers),
            ((None, 1), not_integers),
            (("1", 2), not_integers),
            ((np.array([1]), 2), not_integers),
            (None, ("DomainError",
                    "point must carry one index per grid axis")),
        ]
        spec, lspec, A = equations
        calls = (lambda f, p: residual_decomposition_check(spec, A, f, p),
                 lambda f, p: residual_nonlinear(spec, f, p),
                 lambda f, p: residual_linear(lspec, f, p))
        for f, point in cases:
            want = _outcome(_ref_check_point, f, point, 2)
            for call in calls:
                got = _outcome(call, fresh(f), point)
                if want[0] == "ok":
                    assert got == ("ok", call(fresh(f), want[1]))
                else:
                    assert got == want
        for point, want in own:
            for call in calls:
                assert _outcome(call, fresh(field), point) == want

    def test_racing_first_uses_all_read_the_one_stored_entry(self,
                                                             monkeypatch):
        # more threads than cores, switching often, all missing one entry;
        # each miss makes an entry of its own number
        field = oracle_field(MEMO_GRID, seed=7)
        _, lspec, _ = memo_equations()
        made, got, numbers = [], [], itertools.count()
        start, second_miss = threading.Barrier(8), threading.Event()

        def linear_of(lspec, f):
            entry = np.full(MEMO_GRID.shape, next(numbers), dtype=complex)
            made.append(entry)
            if len(made) >= 2:
                second_miss.set()
            second_miss.wait(timeout=5)  # nothing is stored before two misses
            return entry

        def use():
            start.wait(timeout=5)
            got.append(residual_linear(lspec, field, (1, 2)))

        monkeypatch.setattr(pde_algebra, "_linear_of", linear_of)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=use) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(got) == 8 and len(made) >= 2
        stored = field._memo[lspec._key]
        assert any(entry is stored for entry in made)
        assert got == [stored[1, 2]] * 8
        assert equation_keys(field) == ["linear"]


class TestPointIndices:
    @pytest.mark.parametrize("warm", [False, True])
    def test_float_indices_are_refused_and_bools_are_indices(self, warm):
        grid = ORACLE_GRIDS[2]
        spec = oracle_specs(2, seed=12)[-1]
        equations = (spec, linearize(spec, A_ORACLE), A_ORACLE)
        field = oracle_field(grid, seed=2)
        if warm:
            memo_calls(equations, field, (0, 0))
        spec, lspec, A = equations
        calls = (lambda p: residual_decomposition_check(spec, A, field, p),
                 lambda p: residual_nonlinear(spec, field, p),
                 lambda p: residual_linear(lspec, field, p))
        # _ref_check_point truncates with int(), so these cases carry
        # their own expectation
        for point in ((2.7, 0.9), (-0.5, 0), (np.float64(2.0), 1), (2, 1.0)):
            for call in calls:
                with pytest.raises(DomainError,
                                   match="point indices must be integers"):
                    call(point)
        assert memo_calls(equations, field, (True, False)) == memo_calls(
            equations, field, (1, 0))


class TestOneFormulaEach:
    """The decomposition composes the nonlinear and the linear residual."""

    @pytest.mark.parametrize("n", sorted(ORACLE_GRIDS))
    def test_sides_are_the_residual_evaluators_on_a_sampled_field(self, n):
        grid = ORACLE_GRIDS[n]
        field = oracle_field(grid, seed=n)
        for spec in oracle_specs(n, seed=10 + n):
            for form in (spec, log_transform(spec, A_ORACLE)):
                image = log_transform(spec, A_ORACLE)
                lspec = linearize(form, A_ORACLE)
                _, lhs, rhs, _, correction = pde_algebra._Sampled(
                    field).decomposition(form, A_ORACLE, lspec)
                nonlinear = np.array([residual_nonlinear(image, field, p)
                                      for p in np.ndindex(grid.shape)])
                linear = np.array([residual_linear(lspec, field, p)
                                   for p in np.ndindex(grid.shape)])
                assert lhs.ravel().tobytes() == nonlinear.tobytes()
                want = field.values.ravel() * linear + correction.ravel()
                assert rhs.ravel().tobytes() == want.tobytes()

    def test_sides_are_the_residual_evaluators_on_an_analytic_field(self):
        spec = oracle_specs(4, seed=14)[-1]
        image = log_transform(spec, A_ORACLE)
        wave = AnalyticField([1.0, 0.3 - 0.1j],
                             [[0.2j, -0.5j, 0.1j, 1.1j], [-1j, 0.4j, 0, 0.3j]])
        point = (0.3, -0.7, 1.1, 0.4)
        got = residual_decomposition_check(spec, A_ORACLE, wave, point)
        assert got.lhs == residual_nonlinear(image, wave, point)
        linear = residual_linear(linearize(image), wave, point)
        assert got.rhs == wave.value(point) * linear + got.log_curvature_term

    def test_equal_constants_share_one_decomposition_entry(self):
        spec = oracle_specs(2, seed=12)[-1]
        field = oracle_field(ORACLE_GRIDS[2], seed=2)
        results = [(residual_decomposition_check(spec, A, field, (1, 2)),
                    decomposition_defect(spec, A, field))
                   for A in (1, 1.0, 1 + 0j)]
        assert equation_keys(field) == ["decomposition"]
        bits = [(np.array(dataclasses.astuple(record), dtype=complex).tobytes(),
                 defect.tobytes()) for record, defect in results]
        assert bits[1] == bits[0] and bits[2] == bits[0]

    def test_signed_zero_constants_keep_their_own_entries(self):
        # a homogeneous spec without a recorded constant takes any A
        image = log_transform(oracle_specs(2, seed=12)[-1], A_ORACLE)
        bare = PdeSpec(image.n, image.m, image.terms, image.b, homogeneous=True)
        field = oracle_field(ORACLE_GRIDS[2], seed=2)
        for A in (0.0, -0.0, None, 0j):
            residual_decomposition_check(bare, A, field, (1, 2))
        assert equation_keys(field) == ["decomposition"] * 3


# ---------------------------------------------------------------------------
# Action <-> wave function
# ---------------------------------------------------------------------------

class TestActionWavefunction:
    def test_plane_wave_action_is_px_minus_et(self):
        grid = Grid.line(128, 2 * math.pi)
        k, t = 2.0, 0.3
        omega = dispersion_omega(k, NAT)
        psi = plane_wave_field(grid, k, omega, t=t)
        action = action_from_wavefunction(psi, NAT)
        x = grid.axes()[0]
        expected = NAT.hbar * (k * x - omega * t)
        assert np.allclose(action.values.real, expected, atol=1e-12)
        assert np.max(np.abs(action.values.imag)) <= 1e-12

    def test_unit_field_gives_zero_action(self):
        grid = Grid.line(16, 1.0)
        psi = ScalarField(grid, np.ones(16))
        action = action_from_wavefunction(psi, NAT)
        assert np.all(action.values == 0.0)

    def test_unwrap_spans_many_turns(self):
        # psi = exp(3 i x) on [0, 4 pi): the action sweeps ~12 pi hbar
        # without 2 pi jumps; oracle = cumulative principal increments
        grid = Grid.line(256, 4 * math.pi)
        x = grid.axes()[0]
        psi = ScalarField(grid, np.exp(3j * x))
        action = action_from_wavefunction(psi, NAT)
        theta = action.values.real / NAT.hbar

        v = psi.values
        increments = np.angle(v[1:] / v[:-1])
        oracle = np.concatenate(([np.angle(v[0])], np.angle(v[0]) + np.cumsum(increments)))
        assert np.allclose(theta, oracle, atol=1e-10)
        span = theta.max() - theta.min()
        assert span == pytest.approx(3 * (4 * math.pi - grid.spacing), rel=1e-12)
        steps = np.diff(theta)
        assert np.max(np.abs(steps - 3 * grid.spacing)) <= 1e-12

    def test_three_dimensional_unwrap(self):
        grid = Grid.cube(16, 2 * math.pi)
        k = np.array([1.0, 2.0, 1.0])
        psi = plane_wave_field(grid, k, omega=0.0)
        action = action_from_wavefunction(psi, NAT)
        xs, ys, zs = grid.meshgrid()
        expected = k[0] * xs + k[1] * ys + k[2] * zs
        assert np.allclose(action.values.real, expected, atol=1e-10)

    def test_round_trip_unimodular(self):
        grid = Grid.line(128, 2 * math.pi)
        rng = np.random.default_rng(3)
        x = grid.axes()[0]
        theta = sum(
            (0.4 / m) * np.sin(m * x + 2 * np.pi * rng.random())
            for m in (1, 2, 3)
        )
        psi = ScalarField(grid, np.exp(1j * theta))
        back = wavefunction_from_action(action_from_wavefunction(psi, NAT), NAT)
        assert np.max(np.abs(back.values - psi.values)) <= 1e-12

    def test_inverse_direction(self):
        grid = Grid.line(64, 2 * math.pi)
        x = grid.axes()[0]
        k, E, t = 3.0, 2.0, 0.05
        action = ScalarField(grid, NAT.hbar * k * x - E * t, time_stamp=t)
        psi = wavefunction_from_action(action, NAT)
        expected = plane_wave_field(grid, k, E / NAT.hbar, t=t)
        assert np.allclose(psi.values, expected.values, atol=1e-12)

    def test_zero_values_rejected(self):
        grid = Grid.line(8, 1.0)
        values = np.ones(8, dtype=complex)
        values[2] = 0.0
        with pytest.raises(ZeroFieldError):
            action_from_wavefunction(ScalarField(grid, values), NAT)


# ---------------------------------------------------------------------------
# JSON round trip
# ---------------------------------------------------------------------------

class TestJsonSerialization:
    @given(
        n=st.integers(min_value=1, max_value=4),
        coeff_parts=st.lists(
            st.tuples(
                st.floats(-1e6, 1e6, allow_nan=False),
                st.floats(-1e6, 1e6, allow_nan=False),
            ),
            min_size=1,
            max_size=4,
        ),
        b_re=st.floats(-1e6, 1e6, allow_nan=False),
    )
    def test_round_trip_property(self, n, coeff_parts, b_re):
        rng_indices = [(1 + (i % n), 1 + ((i * 2) % n)) for i in range(len(coeff_parts))]
        terms = tuple(
            PdeTerm(2, idx, complex(re, im))
            for idx, (re, im) in zip(rng_indices, coeff_parts)
        )
        spec = PdeSpec(n=n, m=2, terms=terms, b=complex(b_re, 0.5))
        text = pde_spec_dumps(spec)
        assert pde_spec_loads(text) == spec
        assert pde_spec_dumps(pde_spec_loads(text)) == text

    def test_plain_round_trip_is_byte_exact(self):
        spec = hje_pde_spec(PhysicalConstants(1.0, 2.9979, 0.7))
        text = pde_spec_dumps(spec)
        again = pde_spec_loads(text)
        assert again == spec
        assert pde_spec_dumps(again) == text

    def test_homogeneous_round_trip(self):
        image = log_transform(hje_pde_spec(NAT), A_QM)
        text = pde_spec_dumps(image)
        again = pde_spec_loads(text)
        assert again == image
        assert again.homogeneous and again.transform_constant == A_QM

    @pytest.mark.parametrize("drop", ["n", "m", "terms", "b"])
    def test_missing_key_raises_format_error(self, drop):
        obj = json.loads(pde_spec_dumps(hje_pde_spec(NAT)))
        del obj[drop]
        with pytest.raises(FormatError, match=f"'{drop}'"):
            pde_spec_loads(json.dumps(obj))

    @pytest.mark.parametrize("text", [
        "[]",
        '{"n": 1, "m": 2, "terms": [{"degree": 2}], "b": [0, 0]}',
        '{"n": 1, "m": 2, "terms": [], "b": 1.5}',
    ])
    def test_malformed_spec_raises_format_error(self, text):
        with pytest.raises(FormatError):
            pde_spec_loads(text)

    @pytest.mark.parametrize("where, key, value", [
        ("spec", "homogeneous", "no"),
        ("spec", "homogeneous", 1),
        ("spec", "n", 2.9),
        ("spec", "n", 4.0),
        ("spec", "n", True),
        ("term", "degree", 2.5),
        ("term", "indices", "11"),
        ("term", "indices", [1, 1.0]),
        ("term", "indices", {"1": 1, "2": 1}),
        ("term", "coeff", ["1e3", 0]),
        ("term", "coeff", [True, 0]),
        ("term", "coeff", [math.nan, 0]),
        ("spec", "b", [0, math.inf]),
        ("spec", "transform_constant", [1, None]),
        ("spec", "homogeneous", False),  # a plain spec with a constant
    ])
    def test_ill_typed_value_raises_format_error(self, where, key, value):
        spec = PdeSpec(n=1, m=2, terms=(PdeTerm(2, (1, 1), 1.0),), b=0.5)
        obj = json.loads(pde_spec_dumps(log_transform(spec, A_QM)))
        (obj["terms"][0] if where == "term" else obj)[key] = value
        with pytest.raises(FormatError):
            pde_spec_from_obj(obj)

    def test_integer_coefficients_are_numbers(self):
        obj = json.loads(pde_spec_dumps(hje_pde_spec(NAT)))
        obj["terms"][0]["coeff"] = [-1, 0]
        assert pde_spec_from_obj(obj) == hje_pde_spec(NAT)

    def test_file_round_trip(self, tmp_path):
        spec = hje_pde_spec_1d(PhysicalConstants(0.3, 1.7, 2.2))
        path = tmp_path / "spec.json"
        path.write_text(pde_spec_dumps(spec))
        assert load_pde_spec(path) == spec

    def test_plain_spec_writes_both_extension_keys(self):
        obj = json.loads(pde_spec_dumps(hje_pde_spec(NAT)))
        assert list(obj) == ["n", "m", "terms", "b", "homogeneous",
                             "transform_constant"]
        assert obj["homogeneous"] is False and obj["transform_constant"] is None
        del obj["homogeneous"], obj["transform_constant"]  # the hand-written form
        assert pde_spec_from_obj(obj) == hje_pde_spec(NAT)

    def test_plain_spec_refuses_a_transform_constant(self):
        # nothing reads it, and no file could carry it (see the file case
        # of test_ill_typed_value_raises_format_error)
        with pytest.raises(ValueError, match="has no transform constant"):
            PdeSpec(n=1, m=2, terms=(PdeTerm(2, (1, 1), 1.0),), b=0.5,
                    transform_constant=2.0)


def _hand_image_obj(image):
    """The object the deleted hand encoder built for a transformed spec."""
    return {"n": image.n, "m": image.m,
            "terms": [{"degree": t.degree, "indices": list(t.indices),
                       "coeff": t.coeff} for t in image.terms],
            "b": image.b, "homogeneous": True,
            "transform_constant": image.transform_constant}


def _hand_linear_obj(lin):
    """The object ``hjwave transform --emit-linear`` built by hand."""
    return {"n": lin.n,
            "second_order_coeffs": lin.second_order_coeffs.tolist(),
            "zeroth_coeff": lin.zeroth_coeff}


@pytest.mark.parametrize("consts", [NAT, PhysicalConstants(0.3, 7.0, 2.5),
                                    PhysicalConstants(m0=0.0)])
def test_chain_specs_are_written_as_their_fields(consts):
    # the transform's outputs keep the bytes of the hand-built objects
    image = log_transform(hje_pde_spec(consts), consts.hbar / 1j)
    assert pde_spec_dumps(image) == json_dumps(_hand_image_obj(image))
    lin = linearize(image)
    assert json_dumps(lin) == json_dumps(_hand_linear_obj(lin))


# JSON-shaped values whose object keys are mostly the spec schema's, so
# that parsing gets past the key lookups; json.loads turns 1e999 into inf,
# and integers may exceed the float range.
SPEC_KEYS = ["n", "m", "terms", "b", "degree", "indices", "coeff",
             "homogeneous", "transform_constant"]
JSON_SCALARS = (
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.sampled_from([math.inf, -math.inf, math.nan, 10**400])
    | st.text(max_size=6)
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
        st.sampled_from(SPEC_KEYS) | st.text(max_size=3), inner, max_size=5),
    max_leaves=8,
)


def _spec_or_format_error(obj):
    try:
        spec = pde_spec_from_obj(obj)
    except FormatError:
        return
    assert isinstance(spec, PdeSpec)


@settings(max_examples=150, deadline=None)
@given(obj=JSON_VALUES)
def test_any_json_value_gives_a_spec_or_a_format_error(obj):
    _spec_or_format_error(obj)


@settings(max_examples=150, deadline=None)
@given(key=st.sampled_from(SPEC_KEYS), value=JSON_SCALARS | JSON_VALUES,
       in_term=st.booleans())
@example(key="n", value=math.inf, in_term=False)
def test_spec_with_one_value_replaced_gives_a_spec_or_a_format_error(
        key, value, in_term):
    obj = json.loads(pde_spec_dumps(log_transform(hje_pde_spec(NAT), A_QM)))
    (obj["terms"][0] if in_term else obj)[key] = value
    _spec_or_format_error(obj)


def test_overflowing_number_raises_format_error():
    obj = json.loads(pde_spec_dumps(hje_pde_spec(NAT)))
    obj["n"] = math.inf  # what json.loads makes of 1e999
    with pytest.raises(FormatError):
        pde_spec_from_obj(obj)
    obj["n"] = 4
    obj["b"] = [10**400, 0]
    with pytest.raises(FormatError):
        pde_spec_from_obj(obj)
