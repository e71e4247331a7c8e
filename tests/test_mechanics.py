import math

import numpy as np
import pytest

from hjwave import (
    DivergenceError,
    DomainError,
    Grid,
    PhysicalConstants,
    Potential,
    Trajectory,
    curl_check,
    fit_order,
    gradient_field,
    integrate_newton,
    mechanics,
    momentum_from_velocity,
    particle_velocity,
)
from hjwave.reporting import write_csv

NAT = PhysicalConstants()


def stepped_rk4(potential, r0, p0, consts, dt, steps):
    """Array-form RK4: one particle_velocity and one -grad Phi per stage.

    Returns the rows up to, not including, the first non-finite state.
    """
    force = np.array(potential.force)

    def deriv(rr, pp):
        # grad Phi = kappa r - F, the kappa term left out at kappa = 0
        grad = potential.kappa * rr - force if potential.kappa else -force
        return particle_velocity(pp, consts), -grad

    r = np.asarray(r0, dtype=float).copy()
    p = np.asarray(p0, dtype=float).copy()
    rs, ps = [r], [p]
    with np.errstate(all="ignore"):
        for _ in range(steps):
            k1r, k1p = deriv(r, p)
            k2r, k2p = deriv(r + 0.5 * dt * k1r, p + 0.5 * dt * k1p)
            k3r, k3p = deriv(r + 0.5 * dt * k2r, p + 0.5 * dt * k2p)
            k4r, k4p = deriv(r + dt * k3r, p + dt * k3p)
            r = r + dt / 6.0 * (k1r + 2 * k2r + 2 * k3r + k4r)
            p = p + dt / 6.0 * (k1p + 2 * k2p + 2 * k3p + k4p)
            if not (np.isfinite(r).all() and np.isfinite(p).all()):
                break
            rs.append(r)
            ps.append(p)
    return np.array(rs), np.array(ps)


def seeded_vector(rng):
    """A 3-vector with some components replaced by +0.0 or -0.0."""
    v = rng.normal(size=3) * 10.0 ** rng.integers(-2, 2)
    zeros = rng.integers(0, 3, size=3)  # 0: keep, 1: 0.0, 2: -0.0
    return np.where(zeros == 1, 0.0, np.where(zeros == 2, -0.0, v))


class TestVelocityMomentum:
    def test_rest(self):
        assert np.all(particle_velocity((0, 0, 0), NAT) == 0.0)

    def test_characteristic_momentum(self):
        v = particle_velocity((NAT.m0 * NAT.c, 0, 0), NAT)
        assert np.allclose(v, [NAT.c / math.sqrt(2), 0, 0], rtol=1e-15)

    def test_inverse_round_trip(self):
        p = np.array([0.3, -1.2, 2.0])
        back = momentum_from_velocity(particle_velocity(p, NAT), NAT)
        assert np.allclose(back, p, rtol=1e-12)

    def test_massless_rejected(self):
        with pytest.raises(DomainError):
            particle_velocity((1, 0, 0), PhysicalConstants(1, 1, 0))


class TestPotentials:
    def test_potentials_are_data(self):
        assert Potential.harmonic(2) == Potential(2.0, (0.0, 0.0, 0.0))
        assert Potential.linear([1, -2, 0.5]).force == (1.0, -2.0, 0.5)
        with pytest.raises(DomainError):
            Potential.linear([1.0, 2.0])

    def test_preset_values(self):
        r = np.array([1.0, 2.0, 3.0])
        assert Potential.free().value(r) == 0.0
        assert Potential.linear((1.0, 0, 0)).value(r) == -1.0
        assert Potential.harmonic(2.0).value(r) == pytest.approx(14.0)


class TestIntegrateNewton:
    def test_free_particle_exact(self):
        p0 = np.array([0.7, 0.2, -0.1])
        traj = integrate_newton(
            Potential.free(), np.zeros(3), p0, NAT, dt=1e-2, steps=500
        )
        assert np.max(np.abs(traj.p - p0)) <= 1e-12
        v = particle_velocity(p0, NAT)
        expected = traj.t[:, None] * v
        assert np.max(np.abs(traj.r - expected)) <= 1e-12

    def test_constant_force_momentum(self):
        force = np.array([1.0, 0.0, 0.0])
        traj = integrate_newton(
            Potential.linear(force), np.zeros(3), np.zeros(3), NAT,
            dt=1e-3, steps=1000,
        )
        expected = traj.t[:, None] * force
        assert np.max(np.abs(traj.p - expected)) <= 1e-10

    def test_harmonic_small_amplitude_period(self):
        # weak-field, slow motion: period -> 2 pi sqrt(m0/kappa)
        consts = PhysicalConstants(hbar=1.0, c=1e3, m0=1.0)
        kappa = 1.0
        pot = Potential.harmonic(kappa)
        t0 = 2 * math.pi * math.sqrt(consts.m0 / kappa)
        dt = t0 / 2000
        traj = integrate_newton(
            pot, np.array([0.1, 0.0, 0.0]), np.zeros(3), consts,
            dt=dt, steps=2600,
        )
        # r_x = a cos(w t): successive zero crossings are half a period apart
        rx = traj.r[:, 0]
        crossings = []
        for i in range(len(rx) - 1):
            if rx[i] > 0 >= rx[i + 1] or rx[i] < 0 <= rx[i + 1]:
                frac = rx[i] / (rx[i] - rx[i + 1])
                crossings.append(traj.t[i] + frac * dt)
        assert len(crossings) >= 2
        period = 2 * (crossings[1] - crossings[0])
        assert abs(period - t0) / t0 <= 1e-4

    def test_subluminal_everywhere(self):
        traj = integrate_newton(
            Potential.linear((5.0, 0, 0)), np.zeros(3), np.zeros(3), NAT,
            dt=0.01, steps=2000,
        )
        assert np.all(traj.speeds(NAT) < NAT.c)

    def test_energy_conserved_at_order_four(self):
        pot = Potential.harmonic(1.0)
        dts, drifts = [], []
        for dt in (2e-2, 1e-2, 5e-3):
            steps = int(round(2.0 / dt))
            traj = integrate_newton(
                pot, np.array([1.0, 0.0, 0.0]), np.zeros(3), NAT,
                dt=dt, steps=steps,
            )
            energies = traj.energies(pot, NAT)
            dts.append(dt)
            drifts.append(float(np.max(np.abs(energies - energies[0]))))
        q = fit_order(dts, drifts).order
        assert 3.8 <= q <= 4.2

    def test_divergence_reports_partial_trajectory(self):
        # p_n = n * 1e306 overflows at n = 180, before the first check stride;
        # the run stopped one step earlier is the trajectory before it
        potential = Potential.linear([1e306, 0.0, 0.0])
        with pytest.raises(DivergenceError, match=r"at step 180$"):
            integrate_newton(potential, np.zeros(3), np.zeros(3), NAT,
                             dt=1.0, steps=250)
        partial = integrate_newton(potential, np.zeros(3), np.zeros(3), NAT,
                                   dt=1.0, steps=179)
        assert np.all(np.isfinite(partial.p))

    def test_late_divergence_reports_its_first_step(self):
        # p_n = n * 1e305 overflows at n = 1798, past several check strides
        potential = Potential.linear([1e305, 0.0, 0.0])
        with pytest.raises(DivergenceError, match=r"at step 1798$"):
            integrate_newton(potential, np.zeros(3), np.zeros(3), NAT,
                             dt=1.0, steps=5000)
        partial = integrate_newton(potential, np.zeros(3), np.zeros(3), NAT,
                                   dt=1.0, steps=1797)
        assert np.all(np.isfinite(partial.p))
        assert partial.p[-1, 0] == pytest.approx(1797e305)

    def test_argument_validation(self):
        with pytest.raises(DomainError):
            integrate_newton(Potential.free(), np.zeros(3), np.zeros(3), NAT,
                             dt=-1.0, steps=5)

    def test_trajectory_field_duality_free_case(self):
        # grad S of the on-shell action equals p(t) along the free motion
        p0 = np.array([0.4, -0.3, 0.2])
        traj = integrate_newton(
            Potential.free(), np.array([1.0, 2.0, 3.0]), p0, NAT,
            dt=5e-3, steps=400,
        )
        grad_s = p0  # S = -E t + p0 . r
        assert np.max(np.abs(traj.p - grad_s)) <= 1e-12

    def test_csv_output(self, tmp_path):
        pot = Potential.harmonic(1.0)
        traj = integrate_newton(
            pot, np.array([1.0, 0, 0]), np.zeros(3), NAT, dt=0.1, steps=10
        )
        path = tmp_path / "traj.csv"
        write_csv(path, *traj.table(traj.energies(pot, NAT)))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,rx,ry,rz,px,py,pz,energy"
        assert len(lines) == 12  # header + 11 samples


POTENTIALS = {
    "free": lambda rng: Potential.free(),
    "linear": lambda rng: Potential.linear(seeded_vector(rng)),
    "harmonic": lambda rng: Potential.harmonic(rng.uniform(0.1, 4.0)),
    # harmonic with kappa < 0: still the (-kappa) s force form
    "inverted": lambda rng: Potential.harmonic(-rng.uniform(0.1, 4.0)),
    # kappa != 0 and F != 0: the -(kappa s - F) force form
    "affine": lambda rng: Potential(
        rng.uniform(0.1, 4.0), tuple((seeded_vector(rng) + 0.5).tolist())),
}


def test_momentum_norms_by_columns_match_the_row_reduction():
    # Trajectory's |p| by columns rounds exactly like np.hypot.reduce over
    # each row, on a strided view like Trajectory.p and at +-0, inf and nan
    rng = np.random.default_rng(0)
    rows = rng.normal(size=(4000, 6)) * 10.0 ** rng.integers(-300, 300,
                                                             size=(4000, 6))
    specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324])
    mask = rng.random(rows.shape) < 0.2
    rows[mask] = rng.choice(specials, size=int(mask.sum()))
    p = rows[:, 3:]
    with np.errstate(all="ignore"):
        want = np.hypot.reduce(p, axis=1)
        assert mechanics._norms(p).tobytes() == want.tobytes()


def test_energies_and_speeds_read_one_momentum_column(monkeypatch):
    traj = integrate_newton(Potential.harmonic(0.5), (1.0, 0.0, -1.0),
                            (0.2, 0.3, 0.0), NAT, 0.01, 500)
    want = np.hypot.reduce(traj.p, axis=1)
    calls = []

    def counting(p):
        calls.append(p)
        return want.copy()

    monkeypatch.setattr(mechanics, "_norms", counting)
    energies = traj.energies(Potential.harmonic(0.5), NAT)
    speeds = traj.speeds(NAT)
    assert len(calls) == 1
    assert traj.momentum_norms.tobytes() == want.tobytes()
    assert not traj.momentum_norms.flags.writeable
    monkeypatch.undo()
    fresh = Trajectory(traj.t, traj.r, traj.p)
    assert energies.tobytes() == fresh.energies(Potential.harmonic(0.5),
                                                NAT).tobytes()
    assert speeds.tobytes() == fresh.speeds(NAT).tobytes()
    ratios = want / (NAT.m0 * NAT.c)
    assert energies.tobytes() == (
        NAT.rest_energy * np.hypot(1.0, ratios)
        + Potential.harmonic(0.5).value(traj.r)).tobytes()


class TestSteppedOracle:
    """integrate_newton rows equal the array-form RK4 bit for bit."""

    @pytest.mark.parametrize("kind", sorted(POTENTIALS))
    @pytest.mark.parametrize("seed", range(8))
    def test_rows_bit_identical(self, kind, seed):
        rng = np.random.default_rng(seed)
        potential = POTENTIALS[kind](rng)
        r0, p0 = seeded_vector(rng), seeded_vector(rng)
        consts = PhysicalConstants(1.0, rng.uniform(0.5, 20.0),
                                   rng.uniform(0.2, 5.0))
        dt = 10.0 ** rng.uniform(-4, -1)
        traj = integrate_newton(potential, r0, p0, consts, dt, 300)
        rs, ps = stepped_rk4(potential, r0, p0, consts, dt, 300)
        assert traj.r.tobytes() == rs.tobytes()
        assert traj.p.tobytes() == ps.tobytes()

    @pytest.mark.parametrize("potential", [
        Potential.free(), Potential.linear([1.5, -0.0, 0.0]),
        Potential.harmonic(2.0), Potential(2.0, (0.0, 0.0, -0.0))],
        ids=["free", "linear", "harmonic", "affine-negative-zero"])
    def test_signed_zeros_kept(self, potential):
        # p_y = -0.0 stays -0.0 only if every force on it is -0.0:
        # -(kappa * 0.0) is -0.0, where 0.0 - kappa * 0.0 would be +0.0.
        # With F_z = -0.0 at r_z = -0.0, -(kappa r_z - F_z) is -0.0 where
        # (-kappa) r_z would be +0.0, so that potential keeps the affine form
        r0, p0 = np.array([1.0, 0.0, -0.0]), np.array([0.3, -0.0, -0.0])
        traj = integrate_newton(potential, r0, p0, NAT, 0.01, 300)
        rs, ps = stepped_rk4(potential, r0, p0, NAT, 0.01, 300)
        assert traj.r.tobytes() == rs.tobytes()
        assert traj.p.tobytes() == ps.tobytes()
        assert math.copysign(1.0, traj.p[-1, 1]) == -1.0

    def test_divergence_matches(self):
        potential = Potential.linear([3e305, -1.0, 0.0])
        r0, p0 = np.array([0.5, -0.0, 2.0]), np.array([1.0, -0.0, 0.0])
        rs, ps = stepped_rk4(potential, r0, p0, NAT, 0.7, 2000)
        step = len(rs)  # the oracle's first non-finite step
        assert step - 1 > 256
        with pytest.raises(DivergenceError, match=f"at step {step}$"):
            integrate_newton(potential, r0, p0, NAT, 0.7, 2000)
        traj = integrate_newton(potential, r0, p0, NAT, 0.7, step - 1)
        assert traj.r.tobytes() == rs.tobytes()
        assert traj.p.tobytes() == ps.tobytes()

    # one step, runs ending on the 256-step block boundaries where the
    # finiteness check runs, and one step past the first of them
    @pytest.mark.parametrize("steps", [1, 256, 257, 512])
    @pytest.mark.parametrize("kind", sorted(POTENTIALS))
    def test_rows_bit_identical_at_edge_step_counts(self, kind, steps):
        rng = np.random.default_rng(steps)
        potential = POTENTIALS[kind](rng)
        r0, p0 = seeded_vector(rng), seeded_vector(rng)
        traj = integrate_newton(potential, r0, p0, NAT, 0.01, steps)
        rs, ps = stepped_rk4(potential, r0, p0, NAT, 0.01, steps)
        assert traj.r.shape == traj.p.shape == (steps + 1, 3)
        assert traj.r.tobytes() == rs.tobytes()
        assert traj.p.tobytes() == ps.tobytes()

    def test_rows_are_read_only_views_of_one_buffer(self):
        traj = integrate_newton(Potential.harmonic(1.0), [1.0, 0.0, 0.0],
                                [0.0, 0.5, 0.0], NAT, 0.01, 10)
        assert not traj.r.flags.writeable and not traj.p.flags.writeable
        assert traj.r.base is traj.p.base
        with pytest.raises(ValueError, match="read-only"):
            traj.r[0, 0] = 2.0
        with pytest.raises(ValueError, match="read-only"):
            traj.p[-1] = 0.0


class TestCurlCheck:
    def test_gradient_witness(self):
        grid = Grid.cube(24, 2 * math.pi)
        xs, ys, zs = grid.meshgrid()
        p = np.stack([2 * xs, 2 * ys, np.zeros_like(zs)])  # grad(x^2 + y^2)
        assert curl_check(p, grid) <= 1e-10

    def test_rotational_witness(self):
        grid = Grid.cube(24, 2 * math.pi)
        xs, ys, zs = grid.meshgrid()
        p = np.stack([-ys, xs, np.zeros_like(zs)])
        defect = curl_check(p, grid)
        assert defect == pytest.approx(2.0, rel=1e-10)

    def test_constant_field(self):
        grid = Grid.cube(8, 1.0)
        p = np.ones((3,) + grid.shape)
        assert curl_check(p, grid) == 0.0

    def test_sampled_gradient_of_periodic_scalar(self):
        grid = Grid.cube(24, 2 * math.pi)
        xs, ys, _ = grid.meshgrid()
        scalar = np.sin(xs) * np.cos(2 * ys)
        p = gradient_field(scalar, grid)
        # discrete gradients are curl-free up to O(h^2) cross terms
        assert curl_check(p, grid) <= 0.05

    def test_shape_validation(self):
        grid = Grid.cube(8, 1.0)
        with pytest.raises(DomainError):
            curl_check(np.zeros((2,) + grid.shape), grid)


def test_total_energy_matches_trajectory_energies():
    pot = Potential.harmonic(0.5)
    r = np.array([1.0, 0.0, -1.0])
    p = np.array([0.2, 0.3, 0.0])
    traj = Trajectory(t=np.zeros(1), r=r[None, :], p=p[None, :])
    (traj_val,) = traj.energies(pot, NAT)
    kinetic = NAT.rest_energy * math.hypot(1.0, np.linalg.norm(p) / (NAT.m0 * NAT.c))
    assert traj_val == pytest.approx(kinetic + 0.5 * 0.5 * 2.0, rel=1e-14)
