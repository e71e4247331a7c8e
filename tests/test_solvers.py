import math
import re

import numpy as np
import pytest

from hjwave import (
    CRANK_NICOLSON,
    DomainError,
    Grid,
    InsufficientDataError,
    NumericalError,
    ParticleState,
    PhysicalConstants,
    PlaneWave,
    ScalarField,
    SolverConfig,
    StabilityError,
    ZeroFieldError,
    dispersion_omega,
    eigen_checks,
    fit_order,
    hje_residual,
    leapfrog_stability_limit,
    log_curvature_check,
    plane_wave_field,
    solve_plane_wave,
    solve_relativistic,
    solve_schrodinger,
    solve_wave,
)
from hjwave import solvers
from hjwave.fields import central_gradient, second_difference
from hjwave.solvers import MAX_POINTS, MAX_STEPS, _dft, _stencil_eigenvalues

NAT = PhysicalConstants()
MASSLESS = PhysicalConstants(1.0, 1.0, 0.0)


def traveling_wave_setup(n, k, consts, cfl=0.5):
    grid = Grid.line(n, 2 * math.pi)
    initial = plane_wave_field(grid, k, omega=0.0)
    omega = dispersion_omega(k, consts)
    rate = initial.with_values(-1j * omega * initial.values)
    dt = cfl * grid.spacing / consts.c
    return grid, initial, rate, dt


def random_field(grid, seed):
    """Complex Gaussian samples: every Fourier mode, k = 0 included, is set."""
    rng = np.random.default_rng(seed)
    shape = grid.shape
    values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return ScalarField(grid, values)


def laplacian(values, grid):
    """Second-order periodic central Laplacian, one axis at a time."""
    out = np.zeros_like(values)
    for ax, h in enumerate(grid.spacings):
        out += second_difference(values, ax, h)
    return out


def stepped_leapfrog(initial, rate, c, mu, dt, steps):
    """Leapfrog advanced one step at a time: the reference for the closed form.

    Returns the final values and, per step, the norm, the energy and the
    magnitude of the terms the energy sums.
    """
    grid = initial.grid
    w = grid.cell_volume
    op = lambda u: c * c * laplacian(u, grid) - mu * mu * u
    u_prev = initial.values.astype(np.complex128)
    op_prev = op(u_prev)
    u_curr = u_prev + dt * rate.values + 0.5 * dt * dt * op_prev
    norms, energies, scales = [], [], []
    for i in range(steps):
        if i:
            op_prev = op(u_curr)
            u_prev, u_curr = u_curr, 2 * u_curr - u_prev + dt * dt * op_prev
        kin = 0.5 * w * np.sum(np.abs((u_curr - u_prev) / dt) ** 2)
        pot = -0.5 * w * np.conj(u_curr) * op_prev
        norms.append(math.sqrt(w * np.sum(np.abs(u_curr) ** 2)))
        energies.append(kin + np.sum(pot).real)
        scales.append(kin + np.sum(np.abs(pot)))
    return u_curr, np.array(norms), np.array(energies), np.array(scales)


def stepped_crank_nicolson(initial, consts, dt, steps):
    """Crank-Nicolson advanced one FFT-diagonal step at a time (reference)."""
    grid = initial.grid
    impulse = np.zeros(grid.shape)
    impulse.flat[0] = 1.0
    lam = np.fft.fftn(laplacian(impulse, grid)).real  # stencil symbol
    z = 0.25j * dt * consts.hbar / consts.m0 * lam
    amp = (1 + z) / (1 - z)
    kin = -0.5 * consts.hbar**2 / consts.m0 * lam
    w, npts = grid.cell_volume, grid.npoints
    u = initial.values.astype(np.complex128)
    norms, energies = [], []
    for _ in range(steps):
        spectrum = amp * np.fft.fftn(u)
        u = np.fft.ifftn(spectrum)
        norms.append(math.sqrt(w * np.sum(np.abs(u) ** 2)))
        energies.append(w / npts * np.sum(kin * np.abs(spectrum) ** 2))
    return u, np.array(norms), np.array(energies)


ORACLE_GRIDS = {
    "1d": Grid.line(32, 2 * math.pi),
    "3d": Grid.cube(8, 2 * math.pi),
}


class TestConfigAndStability:
    def test_config_validation(self):
        with pytest.raises(DomainError):
            SolverConfig(dt=0.0, steps=10)
        with pytest.raises(DomainError):
            SolverConfig(dt=0.1, steps=0)
        with pytest.raises(DomainError):
            SolverConfig(dt=0.1, steps=1, scheme="euler")

    def test_grid_requirements(self):
        f = ScalarField(Grid((8, 8), (1.0, 1.0)), np.zeros((8, 8)))
        with pytest.raises(DomainError):
            solve_wave(f, f, NAT, SolverConfig(dt=1e-3, steps=1))
        small = ScalarField(Grid.line(4, 1.0), np.zeros(4))
        with pytest.raises(DomainError):
            solve_wave(small, small, NAT, SolverConfig(dt=1e-3, steps=1))

    def test_cfl_limit_formula(self):
        # 1D massless: dt_max = h/c
        grid = Grid.line(64, 2 * math.pi)
        assert leapfrog_stability_limit(grid, 2.0) == pytest.approx(
            grid.spacing / 2.0, rel=1e-14
        )
        # massive bound (h/c) / sqrt(1 + (m0 c h / hbar)^2 / 4)
        mu = NAT.rest_frequency
        h = grid.spacing
        expected = (h / NAT.c) / math.sqrt(1 + (NAT.m0 * NAT.c * h / NAT.hbar) ** 2 / 4)
        assert leapfrog_stability_limit(grid, NAT.c, mu) == pytest.approx(
            expected, rel=1e-14
        )

    @pytest.mark.parametrize("c, mu, name", [
        (1e200, 0.0, "c"), (1e-200, 0.0, "c"), (1.0, math.inf, "rest frequency"),
        (1.0, 1e-200, "rest frequency"), (1e154, 0.0, "c"),
    ])
    def test_limit_refuses_c_and_mu_out_of_range(self, c, mu, name):
        with pytest.raises(DomainError, match=f"{name} .* is out of range"):
            leapfrog_stability_limit(Grid.line(64, 2 * math.pi), c, mu)

    def test_cfl_violation_raises_before_stepping(self):
        grid, initial, rate, _ = traveling_wave_setup(64, 1.0, MASSLESS)
        bad = SolverConfig(dt=1.01 * grid.spacing, steps=10)
        with pytest.raises(StabilityError):
            solve_wave(initial, rate, MASSLESS, bad)

    @pytest.mark.parametrize("consts", [MASSLESS, NAT], ids=["massless", "massive"])
    def test_limit_is_exact(self, consts):
        grid, initial, rate, _ = traveling_wave_setup(64, 1.0, consts)
        limit = leapfrog_stability_limit(grid, consts.c, consts.rest_frequency)
        solve_relativistic(initial, rate, consts, SolverConfig(dt=limit, steps=3))
        past = SolverConfig(dt=limit * (1 + 1e-12), steps=3)
        with pytest.raises(StabilityError):
            solve_relativistic(initial, rate, consts, past)


class TestWaveSolver:
    def test_zero_initial_data_stays_zero(self):
        grid = Grid.line(32, 2 * math.pi)
        zero = ScalarField(grid, np.zeros(32))
        report = solve_wave(zero, zero, NAT, SolverConfig(dt=0.01, steps=50))
        assert np.all(report.final.values == 0.0)
        assert np.all(report.diagnostics.norm == 0.0)

    def test_standing_wave_returns_after_one_period(self):
        k = 2.0
        errors = []
        for n in (64, 128):
            grid = Grid.line(n, 2 * math.pi)
            x = grid.axes()[0]
            initial = ScalarField(grid, np.sin(k * x))
            rate = ScalarField(grid, np.zeros(n))
            period = 2 * math.pi / (NAT.c * k)
            steps = 2 * n  # dt = period / steps satisfies CFL at these sizes
            cfg = SolverConfig(dt=period / steps, steps=steps)
            report = solve_wave(initial, rate, NAT, cfg)
            errors.append(
                float(np.max(np.abs(report.final.values - initial.values)))
            )
        # at a full period the phase error enters through cos at an
        # extremum, so refinement gains at least the generic factor 4
        assert errors[1] < errors[0] < 0.05
        assert errors[0] / errors[1] >= 3.5

    def test_traveling_wave_converges_at_order_two(self):
        k = 1.0
        hs, errors = [], []
        for n in (32, 64, 128):
            grid, initial, rate, dt = traveling_wave_setup(n, k, MASSLESS)
            steps = n // 2  # exactly t = pi/2 at cfl 0.5
            report = solve_wave(initial, rate, MASSLESS, SolverConfig(dt=dt, steps=steps))
            target = plane_wave_field(grid, k, MASSLESS.c * k, t=report.final.time_stamp)
            hs.append(grid.spacing)
            errors.append(float(np.max(np.abs(report.final.values - target.values))))
        q = fit_order(hs, errors).order
        assert 1.9 <= q <= 2.1

    def test_diagnostics_shape_and_times(self):
        grid, initial, rate, dt = traveling_wave_setup(32, 1.0, MASSLESS)
        report = solve_wave(initial, rate, MASSLESS, SolverConfig(dt=dt, steps=7))
        d = report.diagnostics
        assert list(d.step) == [1, 2, 3, 4, 5, 6, 7]
        assert np.allclose(d.time, dt * np.arange(1, 8))
        assert report.final.time_stamp == pytest.approx(7 * dt)

    def test_energy_exactly_conserved(self):
        grid, initial, rate, dt = traveling_wave_setup(64, 3.0, MASSLESS)
        report = solve_wave(initial, rate, MASSLESS, SolverConfig(dt=dt, steps=2000))
        e = report.diagnostics.energy
        assert np.max(np.abs(e - e[0])) <= 1e-9 * abs(e[0])


class TestRelativisticSolver:
    def test_plane_wave_phase_converges_at_order_two(self):
        k = 1.0
        hs, errors = [], []
        for n in (32, 64, 128):
            grid, initial, rate, _ = traveling_wave_setup(n, k, NAT)
            omega = dispersion_omega(k, NAT)
            dt = 0.5 * leapfrog_stability_limit(grid, NAT.c, NAT.rest_frequency)
            steps = int(round(1.0 / dt))
            report = solve_relativistic(
                initial, rate, NAT, SolverConfig(dt=dt, steps=steps)
            )
            target = plane_wave_field(grid, k, omega, t=report.final.time_stamp)
            hs.append(grid.spacing)
            errors.append(float(np.max(np.abs(report.final.values - target.values))))
        q = fit_order(hs, errors).order
        assert 1.9 <= q <= 2.1

    def test_massless_matches_wave_solver_bitwise(self):
        grid, initial, rate, dt = traveling_wave_setup(64, 2.0, MASSLESS)
        cfg = SolverConfig(dt=dt, steps=100)
        a = solve_wave(initial, rate, MASSLESS, cfg)
        b = solve_relativistic(initial, rate, MASSLESS, cfg)
        assert np.array_equal(a.final.values, b.final.values)
        assert np.array_equal(a.diagnostics.norm, b.diagnostics.norm)
        assert np.array_equal(a.diagnostics.energy, b.diagnostics.energy)

    def test_rest_mode_rotates_at_rest_frequency(self):
        grid = Grid.line(32, 2 * math.pi)
        mu = NAT.rest_frequency
        initial = ScalarField(grid, np.ones(32, dtype=complex))
        rate = initial.with_values(-1j * mu * initial.values)
        dt = 1e-3
        steps = 500
        report = solve_relativistic(initial, rate, NAT, SolverConfig(dt=dt, steps=steps))
        expected = np.exp(-1j * mu * steps * dt)
        assert np.max(np.abs(report.final.values - expected)) <= 1e-4

    def test_massive_cfl_is_stricter(self):
        grid = Grid.line(64, 2 * math.pi)
        heavy = PhysicalConstants(1.0, 1.0, 50.0)
        limit = leapfrog_stability_limit(grid, heavy.c, heavy.rest_frequency)
        assert limit < grid.spacing / heavy.c
        initial = plane_wave_field(grid, 1.0, omega=0.0)
        rate = initial.with_values(np.zeros(64, dtype=complex))
        with pytest.raises(StabilityError):
            solve_relativistic(
                initial, rate, heavy, SolverConfig(dt=1.05 * limit, steps=2)
            )

    def test_three_dimensional_plane_wave(self):
        grid = Grid.cube(16, 2 * math.pi)
        k = np.array([1.0, 1.0, 0.0])
        kmag = float(np.linalg.norm(k))
        omega = dispersion_omega(kmag, NAT)
        initial = plane_wave_field(grid, k, omega=0.0)
        rate = initial.with_values(-1j * omega * initial.values)
        dt = 0.5 * leapfrog_stability_limit(grid, NAT.c, NAT.rest_frequency)
        report = solve_relativistic(initial, rate, NAT, SolverConfig(dt=dt, steps=40))
        target = plane_wave_field(grid, k, omega, t=report.final.time_stamp)
        assert np.max(np.abs(report.final.values - target.values)) <= 0.05


class TestSchrodingerSolver:
    def test_plane_wave_phase(self):
        grid = Grid.line(64, 2 * math.pi)
        k = 1.0
        cfg = SolverConfig(dt=2e-3, steps=250, scheme=CRANK_NICOLSON)
        report = solve_schrodinger(plane_wave_field(grid, k, 0.0), NAT, cfg)
        omega = NAT.hbar * k**2 / (2 * NAT.m0)
        target = plane_wave_field(grid, k, omega, t=report.final.time_stamp)
        err = np.max(np.abs(report.final.values - target.values))
        # dominated by the stencil-symbol phase drift |k_h^2 - k^2| t / 2
        h = grid.spacing
        bound = abs((2 / h * math.sin(k * h / 2)) ** 2 - k**2) / 2
        assert err <= 1.1 * bound * report.final.time_stamp + 1e-6

    def test_constant_mode_is_stationary(self):
        grid = Grid.line(32, 2 * math.pi)
        initial = ScalarField(grid, np.ones(32, dtype=complex))
        cfg = SolverConfig(dt=0.05, steps=100, scheme=CRANK_NICOLSON)
        report = solve_schrodinger(initial, NAT, cfg)
        assert np.max(np.abs(report.final.values - 1.0)) <= 1e-13

    def test_convergence_order_two_in_h_and_dt(self):
        k = 2.0
        tee = 0.25
        hs, errors = [], []
        for n in (32, 64, 128):
            grid = Grid.line(n, 2 * math.pi)
            steps = 20 * (n // 32)
            cfg = SolverConfig(dt=tee / steps, steps=steps, scheme=CRANK_NICOLSON)
            report = solve_schrodinger(plane_wave_field(grid, k, 0.0), NAT, cfg)
            omega = NAT.hbar * k**2 / (2 * NAT.m0)
            target = plane_wave_field(grid, k, omega, t=tee)
            hs.append(grid.spacing)
            errors.append(float(np.max(np.abs(report.final.values - target.values))))
        q = fit_order(hs, errors).order
        assert 1.9 <= q <= 2.1

    def test_gaussian_packet_norm_and_centroid(self):
        grid = Grid.line(256, 2 * math.pi)
        x = grid.axes()[0]
        x0, sigma, k0 = math.pi, 0.25, 8.0
        envelope = np.exp(-((x - x0) ** 2) / (4 * sigma**2))
        initial = ScalarField(grid, envelope * np.exp(1j * k0 * (x - x0)))
        tee = 0.1
        steps = 500
        cfg = SolverConfig(dt=tee / steps, steps=steps, scheme=CRANK_NICOLSON)
        report = solve_schrodinger(initial, NAT, cfg)

        norms = report.diagnostics.norm
        per_step = np.abs(norms[1:] / norms[:-1] - 1.0)
        assert np.max(per_step) <= 1e-12

        dens0 = np.abs(initial.values) ** 2
        dens1 = np.abs(report.final.values) ** 2
        c0 = float(np.sum(x * dens0) / np.sum(dens0))
        c1 = float(np.sum(x * dens1) / np.sum(dens1))
        drift = c1 - c0
        assert drift == pytest.approx(NAT.hbar * k0 * tee / NAT.m0, abs=0.02)

    def test_three_dimensional_plane_wave(self):
        grid = Grid.cube(16, 2 * math.pi)
        k = np.array([1.0, 2.0, 0.0])
        initial = plane_wave_field(grid, k, omega=0.0)
        tee = 0.2
        cfg = SolverConfig(dt=tee / 100, steps=100, scheme=CRANK_NICOLSON)
        report = solve_schrodinger(initial, NAT, cfg)
        omega = NAT.hbar * float(k @ k) / (2 * NAT.m0)
        target = plane_wave_field(grid, k, omega, t=tee)
        err = float(np.max(np.abs(report.final.values - target.values)))
        # the error is the 3D stencil-symbol phase drift, predictable exactly
        h = grid.spacing
        symbol = sum((2 / h * math.sin(kk * h / 2)) ** 2 for kk in k)
        predicted = abs(symbol - float(k @ k)) / 2 * tee
        assert err == pytest.approx(predicted, rel=1e-3)

    def test_scheme_and_mass_validation(self):
        grid = Grid.line(32, 2 * math.pi)
        f = plane_wave_field(grid, 1.0, 0.0)
        with pytest.raises(DomainError):
            solve_schrodinger(f, NAT, SolverConfig(dt=0.01, steps=1))
        with pytest.raises(DomainError):
            solve_schrodinger(
                f, MASSLESS, SolverConfig(dt=0.01, steps=1, scheme=CRANK_NICOLSON)
            )


def oracle_hje_residual(S, consts, massless=False, grid=None):
    """Hand-coded (dS/dt)^2 - c^2 (grad S)^2 - m0^2 c^4, and its terms' size."""
    if isinstance(S, ParticleState):
        dsdt = np.full(grid.shape, -S.E, dtype=np.complex128)
        grads = [np.full(grid.shape, p, dtype=np.complex128)
                 for p in S.p[: grid.ndim]]
    elif isinstance(S, PlaneWave):
        values = plane_wave_field(grid, S.k, S.omega, 0.0, S.amplitude).values
        dsdt = -1j * S.omega * values
        grads = [1j * S.k[ax] * values for ax in range(grid.ndim)]
    else:
        s0, s1 = S
        dt = s1.time_stamp - s0.time_stamp
        dsdt = (s1.values - s0.values) / dt
        grads = [0.5 * (a + b)
                 for a, b in zip(central_gradient(s0.values, s0.grid),
                                 central_gradient(s1.values, s1.grid))]
    mass_term = 0.0 if massless else consts.rest_energy**2
    residual, size = dsdt**2, np.abs(dsdt)**2 + mass_term
    for g in grads:
        residual = residual - consts.c**2 * g**2
        size = size + consts.c**2 * np.abs(g)**2
    return residual - mass_term, size


HJE_GRIDS = [Grid.line(12, 2 * math.pi),
             Grid((8, 6), (2 * math.pi, 1.7)),
             Grid((6, 5, 4), (2 * math.pi, 1.3, 2.1))]


class TestHjeResidual:
    def test_particle_action_on_shell_massless(self):
        grid = Grid.line(16, 2 * math.pi)
        action = ParticleState.from_momentum((2.0, 0.0, 0.0), MASSLESS)
        res = hje_residual(action, MASSLESS, massless=True, grid=grid)
        assert res.max_abs() == 0.0

    def test_wave_action_on_shell_massless(self):
        grid = Grid.line(64, 2 * math.pi)
        action = PlaneWave.on_shell(0.7, (3.0, 0.0, 0.0), MASSLESS)
        res = hje_residual(action, MASSLESS, massless=True, grid=grid)
        assert res.max_abs() <= 1e-12

    def test_off_shell_witness_is_minus_one(self):
        grid = Grid.line(16, 2 * math.pi)
        action = ParticleState(E=1.0, p=(1.0, 0.0, 0.0))
        res = hje_residual(action, NAT, grid=grid)
        assert np.all(res.values == -1.0)

    def test_grid_pair_matches_analytic_at_order_two(self):
        k = 2.0
        omega = k * NAT.c
        errors = []
        for n in (64, 128):
            grid = Grid.line(n, 2 * math.pi)
            dt = grid.spacing / 2
            s0 = plane_wave_field(grid, k, omega, t=0.0, amplitude=0.8)
            s1 = plane_wave_field(grid, k, omega, t=dt, amplitude=0.8)
            res = hje_residual((s0, s1), NAT, massless=True)
            assert res.time_stamp == pytest.approx(dt / 2)
            errors.append(res.max_abs())
        assert 1.8 <= math.log2(errors[0] / errors[1]) <= 2.2

    def test_single_level_rejected(self):
        grid = Grid.line(16, 2 * math.pi)
        f = plane_wave_field(grid, 1.0, 1.0)
        with pytest.raises(InsufficientDataError):
            hje_residual(f, NAT)

    def test_mass_term_out_of_range_is_named(self):
        grid = Grid.line(16, 2 * math.pi)
        heavy = PhysicalConstants(m0=1e200)
        action = ParticleState(E=1.0, p=(1.0, 0.0, 0.0))
        with pytest.raises(DomainError, match="rest energy m0 c\\^2 = 1e\\+200"):
            hje_residual(action, heavy, grid=grid)
        # the massless equation has no mass term to form
        res = hje_residual(action, heavy, massless=True, grid=grid)
        assert np.all(res.values == 0.0)

    @pytest.mark.parametrize("grid", HJE_GRIDS, ids=lambda g: f"{g.ndim}d")
    @pytest.mark.parametrize("massless", [False, True])
    def test_matches_the_hand_coded_equation(self, grid, massless):
        consts = PhysicalConstants(0.7, 2.0, 1.3)
        k = (1.0, -2.0, 1.0)
        omega = dispersion_omega(math.hypot(*k), consts)
        levels = [plane_wave_field(grid, k, omega, t=t, amplitude=0.8)
                  for t in (0.0, 0.05)]
        actions = [ParticleState.from_momentum((0.4, -1.1, 0.3), consts),
                   PlaneWave.on_shell(0.6, k, consts), tuple(levels)]
        for action in actions:
            got = hje_residual(action, consts, massless, grid=grid).values
            want, size = oracle_hje_residual(action, consts, massless, grid)
            # the same terms, rounded in another order: 1.9e-16 of their
            # summed size at most, on these grids
            assert np.all(np.abs(got - want) <= 1e-15 * size)

    def test_light_speed_out_of_range_is_named(self):
        grid = Grid.line(16, 2 * math.pi)
        action = ParticleState(E=1.0, p=(1.0, 0.0, 0.0))
        for massless in (False, True):
            with pytest.raises(DomainError, match="c = 1e\\+200 is out of range"):
                hje_residual(action, PhysicalConstants(c=1e200), massless,
                             grid=grid)

    def test_closed_forms_refuse_a_fourth_space_axis(self):
        grid = Grid((4, 4, 4, 4), (1.0,) * 4)
        for action in (ParticleState(E=1.0, p=(1.0, 0.0, 0.0)),
                       PlaneWave.on_shell(1.0, (1.0, 0.0, 0.0), NAT)):
            with pytest.raises(DomainError, match="at most 3 space axes"):
                hje_residual(action, NAT, grid=grid)

    def test_misordered_levels_rejected(self):
        grid = Grid.line(16, 2 * math.pi)
        s0 = plane_wave_field(grid, 1.0, 1.0, t=0.1)
        s1 = plane_wave_field(grid, 1.0, 1.0, t=0.0)
        with pytest.raises(InsufficientDataError):
            hje_residual((s0, s1), NAT)


class TestEigenChecks:
    def test_unit_field_with_zero_eigenvalues(self):
        grid = Grid.line(32, 2 * math.pi)
        s0 = ScalarField(grid, np.ones(32, dtype=complex), time_stamp=0.0)
        s1 = ScalarField(grid, np.ones(32, dtype=complex), time_stamp=0.1)
        mom, en = eigen_checks((s0, s1), (0.0, 0.0, 0.0), 0.0, NAT)
        assert mom == 0.0 and en == 0.0

    def test_plane_wave_defects_shrink_quadratically(self):
        k = 1.0
        omega = dispersion_omega(k, NAT)
        moms, ens = [], []
        for n in (64, 128):
            grid = Grid.line(n, 2 * math.pi)
            dt = grid.spacing / 2
            pair = (
                plane_wave_field(grid, k, omega, t=0.0),
                plane_wave_field(grid, k, omega, t=dt),
            )
            mom, en = eigen_checks(
                pair, (NAT.hbar * k, 0.0, 0.0), NAT.hbar * omega, NAT
            )
            moms.append(mom)
            ens.append(en)
        assert 1.9 <= math.log2(moms[0] / moms[1]) <= 2.1
        assert 1.9 <= math.log2(ens[0] / ens[1]) <= 2.1

    def test_defects_normalized_by_amplitude(self):
        k = 1.0
        omega = dispersion_omega(k, NAT)
        grid = Grid.line(64, 2 * math.pi)
        dt = grid.spacing / 2
        results = []
        for amp in (1.0, 0.37):
            pair = (
                plane_wave_field(grid, k, omega, t=0.0, amplitude=amp),
                plane_wave_field(grid, k, omega, t=dt, amplitude=amp),
            )
            results.append(
                eigen_checks(pair, (NAT.hbar * k, 0, 0), NAT.hbar * omega, NAT)
            )
        assert results[0][0] == pytest.approx(results[1][0], rel=1e-10)
        assert results[0][1] == pytest.approx(results[1][1], rel=1e-10)

    def test_wrong_momentum_detected_linearly(self):
        k, delta = 1.0, 0.05
        omega = dispersion_omega(k, NAT)
        grid = Grid.line(256, 2 * math.pi)
        dt = grid.spacing / 2
        pair = (
            plane_wave_field(grid, k, omega, t=0.0),
            plane_wave_field(grid, k, omega, t=dt),
        )
        mom, _ = eigen_checks(
            pair, (NAT.hbar * k + delta, 0.0, 0.0), NAT.hbar * omega, NAT
        )
        assert mom == pytest.approx(delta, abs=5e-4)  # |delta| + O(h^2)

    def test_zero_field_rejected(self):
        grid = Grid.line(16, 1.0)
        values = np.ones(16, dtype=complex)
        values[5] = 0.0
        s0 = ScalarField(grid, values, time_stamp=0.0)
        s1 = ScalarField(grid, values, time_stamp=0.1)
        with pytest.raises(ZeroFieldError):
            eigen_checks((s0, s1), (0.0, 0.0, 0.0), 0.0, NAT)


class TestLogCurvature:
    def _levels(self, grid, k, omega, dt):
        return tuple(
            plane_wave_field(grid, k, omega, t=i * dt) for i in range(3)
        )

    def test_plane_wave_defects_are_quadratically_small(self):
        k = 1.0
        omega = dispersion_omega(k, NAT)
        spaces, times = [], []
        for n in (64, 128):
            grid = Grid.line(n, 2 * math.pi)
            dt = grid.spacing / 2
            s, t = log_curvature_check(self._levels(grid, k, omega, dt))
            # quotient-formula defect on exp(ikx) is 4 sin^4(kh/2)/h^2
            h = grid.spacing
            expected = 4 * math.sin(k * h / 2) ** 4 / h**2
            assert s == pytest.approx(expected, rel=1e-6)
            spaces.append(s)
            times.append(t)
        assert 1.9 <= math.log2(spaces[0] / spaces[1]) <= 2.1
        assert 1.9 <= math.log2(times[0] / times[1]) <= 2.1

    def test_gaussian_exponent_detected(self):
        # psi = exp(x^2): d2 ln psi / dx2 = 2 exactly
        grid = Grid.line(128, 1.0)
        x = grid.axes()[0]
        dt = 0.01
        levels = tuple(
            ScalarField(grid, np.exp(x**2), time_stamp=i * dt) for i in range(3)
        )
        space, time = log_curvature_check(levels)
        assert space == pytest.approx(2.0, rel=1e-2)
        assert time == 0.0

    def test_constant_field(self):
        grid = Grid.line(16, 1.0)
        levels = tuple(
            ScalarField(grid, np.full(16, 2.0 + 1.0j), time_stamp=i * 0.1)
            for i in range(3)
        )
        space, time = log_curvature_check(levels)
        assert space == 0.0 and time == 0.0

    def test_uneven_spacing_rejected(self):
        grid = Grid.line(16, 1.0)
        mk = lambda t: ScalarField(grid, np.ones(16, dtype=complex), time_stamp=t)
        with pytest.raises(InsufficientDataError):
            log_curvature_check((mk(0.0), mk(0.1), mk(0.3)))

    @pytest.mark.parametrize("levels", [
        (1, 2, 3), None, (), "abc", [0.0] * 3,
    ], ids=["ints", "none", "empty", "text", "floats"])
    def test_levels_that_are_not_fields_rejected(self, levels):
        with pytest.raises(InsufficientDataError):
            log_curvature_check(levels)

    def test_level_count_and_order_checked(self):
        grid = Grid.line(16, 1.0)
        mk = lambda t: ScalarField(grid, np.ones(16, dtype=complex), time_stamp=t)
        with pytest.raises(InsufficientDataError):
            log_curvature_check((mk(0.0), mk(0.1)))
        with pytest.raises(InsufficientDataError):
            log_curvature_check((mk(0.2), mk(0.1), mk(0.0)))
        for t in (math.nan, math.inf):
            with pytest.raises(InsufficientDataError):
                log_curvature_check((mk(0.0), mk(t), mk(0.2)))
            with pytest.raises(InsufficientDataError):
                hje_residual((mk(0.0), mk(t)), NAT)
        with pytest.raises(DomainError):
            other = ScalarField(Grid.line(8, 1.0), np.ones(8, dtype=complex), 0.2)
            log_curvature_check((mk(0.0), mk(0.1), other))
        with pytest.raises(InsufficientDataError):
            eigen_checks((mk(0.0), mk(0.1), mk(0.2)), (0.0,), 0.0, NAT)


class TestClosedFormAgainstSteppedOracle:
    STEPS = 201  # odd, so the sign (-1)^n of theta = pi modes shows

    @pytest.mark.parametrize("dims", sorted(ORACLE_GRIDS))
    @pytest.mark.parametrize(
        "consts, dt_fraction",
        [(NAT, 0.5), (MASSLESS, 0.9), (MASSLESS, 1.0)],
        ids=["massive", "massless", "massless-at-limit"],
    )
    def test_leapfrog(self, dims, consts, dt_fraction):
        # massless: the k = 0 mode drifts linearly (theta = 0); at the limit
        # the highest mode has theta = pi
        grid = ORACLE_GRIDS[dims]
        initial, rate = random_field(grid, 1), random_field(grid, 2)
        mu = consts.rest_frequency
        dt = dt_fraction * leapfrog_stability_limit(grid, consts.c, mu)
        cfg = SolverConfig(dt=dt, steps=self.STEPS)
        report = solve_relativistic(initial, rate, consts, cfg)
        final, norms, energies, scales = stepped_leapfrog(
            initial, rate, consts.c, mu, dt, self.STEPS
        )
        assert np.max(np.abs(report.final.values - final)) <= (
            1e-12 * np.max(np.abs(final))
        )
        d = report.diagnostics
        assert np.all(np.abs(d.norm - norms) <= 1e-12 * norms)
        # the stepped energy is a sum of terms that may grow while their
        # sum stays constant: its rounding follows the terms
        assert np.all(np.abs(d.energy - energies) <= 1e-12 * scales)

    def test_leapfrog_top_mode_rounded_past_theta_pi(self):
        # on this grid, at dt = limit, the top mode's sin(theta)^2 rounds
        # to just below 0; it takes the theta = pi formula
        grid = Grid.line(16, 19.35831069229324)
        c = 0.5368411647403111
        dt = leapfrog_stability_limit(grid, c)
        q = 0.5 * dt * np.sqrt(-(c * c * _stencil_eigenvalues(grid)))
        assert np.any(4.0 * q * q * (1.0 - q) * (1.0 + q) < 0.0)
        initial, rate = random_field(grid, 1), random_field(grid, 2)
        consts = PhysicalConstants(1.0, c, 0.0)
        report = solve_wave(initial, rate, consts,
                            SolverConfig(dt=dt, steps=self.STEPS))
        final, norms, _, _ = stepped_leapfrog(initial, rate, c, 0.0, dt,
                                              self.STEPS)
        assert np.max(np.abs(report.final.values - final)) <= (
            1e-10 * np.max(np.abs(final))
        )
        assert np.all(np.abs(report.diagnostics.norm - norms) <= 1e-10 * norms)

    @pytest.mark.parametrize("dims", sorted(ORACLE_GRIDS))
    def test_crank_nicolson(self, dims):
        grid = ORACLE_GRIDS[dims]
        initial = random_field(grid, 3)
        dt = 0.01
        cfg = SolverConfig(dt=dt, steps=self.STEPS, scheme=CRANK_NICOLSON)
        report = solve_schrodinger(initial, NAT, cfg)
        final, norms, energies = stepped_crank_nicolson(
            initial, NAT, dt, self.STEPS
        )
        assert np.max(np.abs(report.final.values - final)) <= (
            1e-12 * np.max(np.abs(final))
        )
        d = report.diagnostics
        assert np.all(np.abs(d.norm - norms) <= 1e-12 * norms)
        assert np.all(np.abs(d.energy - energies) <= 1e-12 * energies)


def masked_leapfrog(initial, rate, c, mu, dt, steps):
    """Leapfrog's closed form with the flat and oscillating modes gathered
    apart and scattered back, the eigenvalues computed afresh: the
    formulation solve_relativistic had before it evaluated every mode at
    once.  Returns the final field, the norm rows and the energy."""
    grid = initial.grid
    per_axis = [-(4.0 / h**2) * np.sin(np.pi * np.arange(n) / n) ** 2
                for n, h in zip(grid.shape, grid.spacings)]
    lam = sum(np.meshgrid(*per_axis, indexing="ij", sparse=True))
    scale = grid.cell_volume / grid.npoints
    q = 0.5 * dt * np.sqrt(-(c * c * lam - mu * mu)).ravel()
    s2 = 4.0 * q * q * (1.0 - q) * (1.0 + q)
    osc = s2 > 0.0
    flat = ~osc
    theta = 2.0 * np.arcsin(q[osc])
    root = np.sqrt(s2[osc])
    sign = np.where(q[flat] < 0.5, 1.0, -1.0)
    a = np.fft.fftn(initial.values).ravel()
    b = dt * np.fft.fftn(rate.values).ravel()
    cos_n = np.empty(q.size)
    sin_n = np.empty(q.size)
    cos_n[osc] = np.cos(steps * theta)
    sin_n[osc] = np.sin(steps * theta) / root
    cos_n[flat] = sign**steps
    sin_n[flat] = steps * sign ** (steps - 1)
    final = np.fft.ifftn((cos_n * a + sin_n * b).reshape(grid.shape))
    aa = a.real**2 + a.imag**2
    bb = b.real**2 + b.imag**2
    ab = (a * b.conj()).real
    energy = 0.5 * scale / dt**2 * float(np.sum(bb + s2 * aa))
    ao, bo = aa[osc], bb[osc] / s2[osc]
    weights = 0.5 * (ao - bo) - 1j * (ab[osc] / root)
    norms = solvers._exponential_sums(2.0 * theta, weights, steps)
    norms += float(np.sum(0.5 * (ao + bo))) + float(np.sum(aa[flat]))
    if flat.any():
        n = np.arange(1.0, steps + 1)
        linear = 2.0 * float(np.sum(sign * ab[flat]))
        norms += n * (linear + n * float(np.sum(bb[flat])))
    np.maximum(norms, 0.0, out=norms)
    norms *= scale
    np.sqrt(norms, out=norms)
    return final, norms, energy


class TestClosedFormAgainstMaskedOracle:
    """solve_relativistic equals the masked formulation bit for bit."""

    STEPS = 201  # odd, so the sign (-1)^n of theta = pi modes shows
    GRIDS = {"1d-64": Grid.line(64, 2 * math.pi),
             "1d-4096": Grid.line(4096, 2 * math.pi),
             "3d-16": Grid.cube(16, 2 * math.pi),
             # at dt = limit the top mode's s2 rounds one ulp below 0
             "1d-16-past-pi": Grid.line(16, 19.35831069229324)}
    # (m0, dt as a fraction of the limit, flat modes expected)
    CASES = {"half-limit": (1.0, 0.5, False),
             "at-limit": (1.0, 1.0, True),  # theta = pi
             "massless": (0.0, 0.5, True),  # theta = 0 at k = 0
             "massless-at-limit": (0.0, 1.0, True)}  # both

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("name", sorted(GRIDS))
    def test_bitwise(self, name, case):
        grid = self.GRIDS[name]
        m0, fraction, has_flat = self.CASES[case]
        c = 0.5368411647403111 if name == "1d-16-past-pi" else 1.0
        consts = PhysicalConstants(1.0, c, m0)
        mu = consts.rest_frequency
        dt = fraction * leapfrog_stability_limit(grid, c, mu)
        q = 0.5 * dt * np.sqrt(-(c * c * _stencil_eigenvalues(grid) - mu * mu))
        s2 = 4.0 * q * q * (1.0 - q) * (1.0 + q)
        assert bool(np.any(s2 <= 0.0)) == has_flat
        if name == "1d-16-past-pi" and case == "massless-at-limit":
            assert np.any(s2 < 0.0)
        initial, rate = random_field(grid, 1), random_field(grid, 2)
        report = solve_relativistic(initial, rate, consts,
                                    SolverConfig(dt=dt, steps=self.STEPS))
        final, norms, energy = masked_leapfrog(initial, rate, c, mu, dt,
                                               self.STEPS)
        d = report.diagnostics
        assert report.final.values.tobytes() == final.tobytes()
        assert d.norm.tobytes() == norms.tobytes()
        assert d.energy.tobytes() == np.full(self.STEPS, energy).tobytes()


class TestOneDimensionalTransforms:
    @pytest.mark.parametrize("shape", [(8,), (17,), (64,), (4096,), (8, 8, 8)])
    def test_dft_gives_the_bytes_of_fftn(self, shape):
        # 1D grids take np.fft.fft/ifft, which must match fftn/ifftn exactly
        rng = np.random.default_rng(len(shape) * 10_000 + shape[0])
        values = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        ndim = len(shape)
        assert _dft(values, ndim).tobytes() == np.fft.fftn(values).tobytes()
        assert (_dft(values, ndim, inverse=True).tobytes()
                == np.fft.ifftn(values).tobytes())


class TestStencilEigenvalueTable:
    def test_read_only(self):
        table = _stencil_eigenvalues(Grid.cube(8, 1.0))
        assert table.shape == (8, 8, 8)
        with pytest.raises(ValueError):
            table[0, 0, 0] = 1.0

    def test_one_table_per_grid(self, monkeypatch):
        seen = []

        def recording(grid):
            seen.append(_stencil_eigenvalues(grid))
            return seen[-1]

        monkeypatch.setattr(solvers, "_stencil_eigenvalues", recording)
        grid, initial, rate, dt = traveling_wave_setup(32, 1.0, NAT)
        for _ in range(2):
            solve_relativistic(initial, rate, NAT, SolverConfig(dt, 10))
        solve_schrodinger(initial, NAT, SolverConfig(dt, 10, CRANK_NICOLSON))
        assert len(seen) == 3
        assert seen[0] is seen[1] is seen[2]

    @pytest.mark.parametrize("build", [
        lambda: Grid.line(64, 2 * math.pi),
        lambda: Grid.cube(12, 3.0),
        lambda: Grid((8, 8, 8), (1.0, 1.0, 1.0)),
    ], ids=["line", "cube", "explicit"])
    def test_equal_grids_give_equal_tables(self, build):
        first, second = build(), build()
        assert first == second and first is not second
        a, b = _stencil_eigenvalues(first), _stencil_eigenvalues(second)
        assert a is not b
        assert a.tobytes() == b.tobytes()


def test_leapfrog_overflow_raises_with_rows_so_far():
    # a stable run whose k = 0 mode (theta = 0) drifts as n dt V until the
    # squared norm overflows
    grid = Grid.line(64, 2 * math.pi)
    initial = ScalarField(grid, np.ones(64, dtype=np.complex128))
    rate = initial.with_values(np.full(64, 1e150, dtype=np.complex128))
    dt = 0.5 * leapfrog_stability_limit(grid, MASSLESS.c)
    cfg = SolverConfig(dt=dt, steps=200_000)
    report = solve_wave(initial, rate, MASSLESS, cfg)  # the final field is finite
    with pytest.raises(NumericalError) as err:
        report.diagnostics  # the rows are computed, and checked, when read
    step = int(re.fullmatch(r"leapfrog produced non-finite values at step "
                            r"(\d+)", str(err.value)).group(1))
    assert 1 < step < cfg.steps
    # the rows so far are those of the same run stopped one step earlier
    d = solve_wave(initial, rate, MASSLESS,
                   SolverConfig(dt=dt, steps=step - 1)).diagnostics
    assert list(d.step) == list(range(1, step))
    assert np.all(np.isfinite(d.norm)) and np.all(np.isfinite(d.energy))


def test_non_finite_final_field_raises_at_the_call():
    grid = Grid.line(16, 2 * math.pi)
    values = np.ones(16, dtype=np.complex128)
    values[3] = np.inf
    initial = ScalarField(grid, values)
    cfg = SolverConfig(dt=0.5 * leapfrog_stability_limit(grid, 1.0), steps=10)
    with pytest.raises(NumericalError, match="leapfrog produced non-finite"):
        solve_wave(initial, initial.with_values(np.zeros(16)), MASSLESS, cfg)


def nan_input_leapfrog(steps):
    """A 32^3 leapfrog run, one NaN in its initial field, of ``steps`` steps."""
    grid = Grid.cube(32, 2 * math.pi)
    values = np.ones(grid.shape, dtype=np.complex128)
    values[1, 2, 3] = np.nan
    initial = ScalarField(grid, values)
    dt = 0.5 * leapfrog_stability_limit(grid, MASSLESS.c)
    return solve_wave(initial, initial.with_values(np.zeros(grid.shape)),
                      MASSLESS, SolverConfig(dt, steps))


def test_non_finite_final_field_past_the_step_bound_raises_at_the_call():
    # the final field is checked before, and apart from, the rows' bound
    with pytest.raises(NumericalError, match=f"at step {MAX_STEPS + 1}$"):
        nan_input_leapfrog(MAX_STEPS + 1)


def test_reports_are_built_without_computing_rows(monkeypatch):
    def no_rows(*args):
        raise AssertionError("a per-step row was computed")

    monkeypatch.setattr(solvers, "_exponential_sums", no_rows)
    with pytest.raises(NumericalError, match="leapfrog produced non-finite"):
        nan_input_leapfrog(10_000)
    grid, initial, rate, dt = traveling_wave_setup(32, 1.0, NAT)
    solve_relativistic(initial, rate, NAT, SolverConfig(dt, 10_000))
    solve_schrodinger(initial, NAT, SolverConfig(dt, 10_000, CRANK_NICOLSON))


@pytest.mark.parametrize("equation", ["relativistic", "schrodinger"])
def test_rows_past_the_step_bound_are_refused_when_read(equation):
    # the bound caps the memory of per-step rows, so a run past it still
    # yields its final field, and refuses only to compute its rows
    grid, initial, rate, dt = traveling_wave_setup(32, 1.0, NAT)
    if equation == "relativistic":
        report = solve_relativistic(initial, rate, NAT,
                                    SolverConfig(dt, MAX_STEPS + 1))
    else:
        report = solve_schrodinger(
            initial, NAT, SolverConfig(dt, MAX_STEPS + 1, CRANK_NICOLSON))
    assert np.all(np.isfinite(report.final.values))
    message = f"a run of {MAX_STEPS + 1} steps exceeds the bound of {MAX_STEPS}"
    with pytest.raises(DomainError, match=message):
        report.diagnostics


@pytest.mark.parametrize("equation", ["wave", "schrodinger"])
def test_diagnostics_are_computed_once(equation):
    grid, initial, rate, dt = traveling_wave_setup(32, 1.0, MASSLESS)
    if equation == "wave":
        report = solve_wave(initial, rate, MASSLESS, SolverConfig(dt, 5))
    else:
        report = solve_schrodinger(initial, NAT,
                                   SolverConfig(dt, 5, CRANK_NICOLSON))
    assert report.diagnostics is report.diagnostics
    assert list(report.diagnostics.step) == [1, 2, 3, 4, 5]


def test_diagnostics_csv(tmp_path):
    grid, initial, rate, dt = traveling_wave_setup(32, 1.0, MASSLESS)
    report = solve_wave(initial, rate, MASSLESS, SolverConfig(dt=dt, steps=5))
    path = tmp_path / "diag.csv"
    report.diagnostics.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "step,time,norm,energy"
    assert len(lines) == 6


def ungrouped_exponential_sums(phases, weights, steps):
    """Reference: the block algorithm with one table column per mode."""
    out = np.zeros(steps)
    rows = max(1, min(steps, solvers._BLOCK_ENTRIES // phases.size))
    rates = 1j * phases
    table = np.exp(np.multiply.outer(np.arange(rows), rates))
    advance = np.exp(rows * rates)
    for block, start in enumerate(range(0, steps, rows)):
        if block % solvers._ANCHOR_BLOCKS == 0:
            head = weights * np.exp((start + 1) * rates)
        else:
            head *= advance
        stop = min(start + rows, steps)
        out[start:stop] = (table[: stop - start] @ head).real
    return out


def longdouble_exponential_sums(phases, weights, steps):
    """Reference: each row summed term by term in long double."""
    n = np.arange(1, steps + 1, dtype=np.longdouble)[:, None]
    angle = n * phases.astype(np.longdouble)
    return (np.cos(angle) * weights.real.astype(np.longdouble)
            - np.sin(angle) * weights.imag.astype(np.longdouble)).sum(axis=1)


def leapfrog_row_sums(monkeypatch, run):
    """The (phases, weights, steps) a leapfrog report's rows sum over."""
    calls = []
    real = solvers._exponential_sums

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(solvers, "_exponential_sums", spy)
    run().diagnostics
    (args,) = calls
    return args


class TestGroupedRows:
    @pytest.mark.parametrize("shape,steps", [((64,), 10_000), ((4096,), 2000),
                                             ((16,) * 3, 300), ((32,) * 3, 200)])
    def test_matches_the_ungrouped_sums(self, monkeypatch, shape, steps):
        grid = Grid(shape, (2 * math.pi,) * len(shape))
        initial = random_field(grid, len(shape))
        rate = random_field(grid, len(shape) + 1)
        dt = 0.5 * leapfrog_stability_limit(grid, NAT.c, NAT.rest_frequency)
        phases, weights, steps = leapfrog_row_sums(
            monkeypatch,
            lambda: solve_relativistic(initial, rate, NAT, SolverConfig(dt, steps)))
        # a cubic grid's symmetric modes share their rates
        assert np.unique(phases).size < phases.size
        got = solvers._exponential_sums(phases, weights, steps)
        want = ungrouped_exponential_sums(phases, weights, steps)
        # relative to sum |weights|, which bounds every row: the two differ
        # in summation order only, by at most 7.8e-16 of it (32^3, seeds 0-4)
        scale = float(np.sum(np.abs(weights)))
        assert np.max(np.abs(got - want)) <= 1e-15 * scale

    def test_nyquist_wave_is_no_further_from_long_double(self, monkeypatch):
        # hjwave solve --equation wave --c 3 --points 32 --mode 16 --steps 2049
        consts = PhysicalConstants(c=3.0)
        grid = Grid.line(32, 2 * math.pi)
        dt = 0.5 * leapfrog_stability_limit(grid, consts.c)
        phases, weights, steps = leapfrog_row_sums(
            monkeypatch,
            lambda: solve_plane_wave("wave", grid, 16.0, consts, dt, 2049)[0])
        exact = longdouble_exponential_sums(phases, weights, steps)
        got = solvers._exponential_sums(phases, weights, steps)
        ungrouped = ungrouped_exponential_sums(phases, weights, steps)
        assert np.max(np.abs(got - exact)) <= np.max(np.abs(ungrouped - exact))


def stencil_wavenumber(grid, k):
    """|(2/h) sin(kh/2)|, the wavenumber the central Laplacian sees."""
    h = grid.spacings[0]
    return abs((2.0 / h) * math.sin(0.5 * k * h))


class TestSolvePlaneWave:
    @pytest.mark.parametrize("grid", [Grid.line(32, 2 * math.pi),
                                      Grid.cube(8, 2 * math.pi)],
                             ids=["1d", "3d"])
    def test_wave_is_solve_wave(self, grid):
        # the massless relativistic run is solve_wave's from the stencil
        # rate, bit for bit; the constants' own mass does not enter
        consts = PhysicalConstants(0.7, 2.0, 1.3)
        k, steps = 2.0, 37
        dt = 0.5 * leapfrog_stability_limit(grid, consts.c)
        report, omega, _ = solve_plane_wave("wave", grid, k, consts, dt, steps)
        initial = plane_wave_field(grid, (k, 0.0, 0.0), omega=0.0)
        omega_h = consts.c * stencil_wavenumber(grid, k)
        rate = initial.with_values(-1j * omega_h * initial.values)
        expected = solve_wave(initial, rate, consts, SolverConfig(dt, steps))
        assert omega == consts.c * k
        assert np.array_equal(report.final.values, expected.final.values)
        assert report.final.time_stamp == expected.final.time_stamp

    @pytest.mark.parametrize("grid", [Grid.line(32, 2 * math.pi),
                                      Grid.cube(8, 2 * math.pi)],
                             ids=["1d", "3d"])
    def test_relativistic_is_solve_relativistic(self, grid):
        # the limit study's relativistic runs go through here, so their
        # fields must be solve_relativistic's from the stencil rate
        consts = PhysicalConstants(0.7, 2.0, 1.3)
        k, steps = 2.0, 37
        dt = 0.5 * leapfrog_stability_limit(grid, consts.c,
                                            consts.rest_frequency)
        report, omega, _ = solve_plane_wave("relativistic", grid, k, consts,
                                            dt, steps)
        initial = plane_wave_field(grid, (k, 0.0, 0.0), omega=0.0)
        omega_h = dispersion_omega(stencil_wavenumber(grid, k), consts)
        rate = initial.with_values(-1j * omega_h * initial.values)
        expected = solve_relativistic(initial, rate, consts,
                                      SolverConfig(dt, steps))
        assert omega == dispersion_omega(k, consts)
        assert np.array_equal(report.final.values, expected.final.values)
        assert report.final.time_stamp == expected.final.time_stamp

    @pytest.mark.parametrize("equation", ["wave", "relativistic"])
    def test_stencil_start_drifts_less(self, equation):
        # solve's default 1D run: the analytic rate -i omega(k) psi seeds
        # the backward leapfrog branch, and the norm beats with it
        consts = NAT if equation == "relativistic" else MASSLESS
        grid = Grid.line(64, 2 * math.pi)
        dt = 0.5 * leapfrog_stability_limit(grid, consts.c,
                                            consts.rest_frequency)
        report, omega, _ = solve_plane_wave(equation, grid, 1.0, NAT, dt, 200)
        initial = plane_wave_field(grid, (1.0, 0.0, 0.0), omega=0.0)
        rate = initial.with_values(-1j * omega * initial.values)
        analytic = solve_relativistic(initial, rate, consts,
                                      SolverConfig(dt, 200))

        def drift(r):
            norms = r.diagnostics.norm
            return float(np.max(np.abs(norms / norms[0] - 1.0)))

        assert drift(report) < drift(analytic)

    def test_grid_is_checked_before_sampling(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("plane wave sampled")

        monkeypatch.setattr(solvers, "plane_wave_field", refuse)
        with pytest.raises(DomainError, match=f"exceeds the bound of "
                                              f"{MAX_POINTS}"):
            solve_plane_wave("relativistic", Grid.line(MAX_POINTS + 1,
                                                       2 * math.pi),
                             1.0, NAT, 0.01, 5)

    @pytest.mark.parametrize("grid", [Grid.line(32, 2 * math.pi),
                                      Grid.cube(8, 2 * math.pi)],
                             ids=["1d", "3d"])
    def test_schrodinger_is_solve_schrodinger(self, grid):
        # the limit study's endpoint and verify-all's norm run go through
        # here, so their fields must be solve_schrodinger's, bit for bit
        consts = PhysicalConstants(0.7, 2.0, 1.3)
        k, dt, steps = 2.0, 0.013, 37
        report, omega, _ = solve_plane_wave("schrodinger", grid, k, consts,
                                            dt, steps)
        initial = plane_wave_field(grid, (k, 0.0, 0.0), omega=0.0)
        expected = solve_schrodinger(
            initial, consts, SolverConfig(dt, steps, scheme=CRANK_NICOLSON))
        assert omega == consts.hbar * k**2 / (2 * consts.m0)
        assert np.array_equal(report.final.values, expected.final.values)
        assert report.final.time_stamp == expected.final.time_stamp

    @pytest.mark.parametrize("equation", ["wave", "relativistic",
                                          "schrodinger"])
    @pytest.mark.parametrize("grid", [Grid.line(32, 2 * math.pi),
                                      Grid.cube(8, 2 * math.pi)],
                             ids=["1d", "3d"])
    def test_error_is_the_distance_from_the_continuum_wave(self, grid,
                                                           equation):
        # error is measured against the initial sample rotated by
        # exp(-i omega T); a fresh sample rounds its phase k x - omega T at
        # the size of omega T (2 to 27 here), so the two references part
        # by a few omega T 2^-53 (6e-15 at omega T = 100)
        consts = PhysicalConstants(0.7, 2.0, 1.3)
        k, steps = 2.0, 37
        mu = consts.rest_frequency if equation == "relativistic" else 0.0
        dt = 0.5 * leapfrog_stability_limit(grid, consts.c, mu)
        report, omega, error = solve_plane_wave(equation, grid, k, consts,
                                                dt, steps)
        fresh = plane_wave_field(grid, (k, 0.0, 0.0), omega,
                                 t=report.final.time_stamp)
        distance = float(np.max(np.abs(report.final.values - fresh.values)))
        assert abs(error - distance) <= 1e-15

    def test_unknown_equation(self):
        with pytest.raises(DomainError, match="unknown equation 'heat'"):
            solve_plane_wave("heat", Grid.line(32, 2 * math.pi), 1.0, NAT,
                             0.01, 5)
