import cmath
import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

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
    ScalarField,
    UnsupportedOrderError,
    ZeroFieldError,
    action_from_wavefunction,
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
    plane_wave_residual_factor,
    quadratic_matrix,
    residual_linear,
    residual_nonlinear,
    save_pde_spec,
    wavefunction_from_action,
)

NAT = PhysicalConstants.natural()
A_QM = NAT.hbar / 1j  # the physical transform constant


# ---------------------------------------------------------------------------
# Spec construction and validation
# ---------------------------------------------------------------------------

class TestSpecValidation:
    def test_hje_spec_coefficients(self):
        spec = hje_pde_spec(PhysicalConstants(1.0, 2.0, 3.0))
        mat, b = quadratic_matrix(spec, A=1.0)
        assert np.array_equal(np.diag(mat), [-4.0, -4.0, -4.0, 1.0])
        assert b == -(3.0 * 4.0) ** 2  # -(m0 c^2)^2

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
        spec = hje_pde_spec_1d(NAT, massless=True)
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
        psi = AnalyticField.exponential(1.0, [g])
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
        lin = linearize(log_transform(hje_pde_spec_1d(NAT, massless=True), A_QM))
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
            hje_pde_spec(NAT, massless=True), A_QM, (2.0, 0, 0)
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
        spec = log_transform(hje_pde_spec(NAT, massless=True), A_QM)
        const = AnalyticField.constant(4, 1.0)
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
        psi = AnalyticField.exponential(1.0, [1.0])
        x = np.array([0.37])
        chk = residual_decomposition_check(spec, 1.0, psi, x)
        assert chk.lhs == pytest.approx(math.exp(2 * 0.37), rel=1e-14)
        assert chk.rhs == pytest.approx(chk.lhs, rel=1e-14)
        assert abs(chk.log_curvature_term) <= 1e-14
        assert chk.mismatch <= 1e-14

    def test_nonzero_log_curvature_analytic_identity(self):
        # psi = exp(x^2 / 2)-like Gaussian exponent via modes is awkward;
        # use exp(g x) * exp(i w x) products through from_modes instead:
        # superpositions have genuinely nonzero log curvature
        spec = PdeSpec(n=2, m=2,
                       terms=(PdeTerm(2, (1, 1), 1.0), PdeTerm(2, (2, 2), -0.5)),
                       b=2.0)
        field = AnalyticField.from_modes(
            [1.0, 0.3, 0.2j], [[1.0, 0.0], [0.0, 2.0], [1.0, -1.0]]
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

    def test_near_zero_field_rejected(self):
        spec = PdeSpec(n=1, m=2, terms=(PdeTerm(2, (1, 1), 1.0),), b=0.0)
        grid = Grid.line(8, 1.0)
        values = np.ones(8, dtype=complex)
        values[3] = 1e-15
        field = ScalarField(grid, values)
        with pytest.raises(ZeroFieldError):
            residual_decomposition_check(spec, 1.0, field, (3,))


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

    def test_file_round_trip(self, tmp_path):
        spec = hje_pde_spec_1d(PhysicalConstants(0.3, 1.7, 2.2))
        path = tmp_path / "spec.json"
        save_pde_spec(path, spec)
        assert load_pde_spec(path) == spec
