import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hjwave import (
    DomainError,
    ParticleState,
    PhysicalConstants,
    PlaneWave,
    de_broglie_momentum,
    dispersion_omega,
    energy_from_momentum,
    group_velocity,
    momentum_from_velocity,
    particle_velocity,
    phase_velocity,
    planck_energy,
)

NAT = PhysicalConstants()
MASSLESS = PhysicalConstants(hbar=1.0, c=1.0, m0=0.0)


class TestEnergyFromMomentum:
    def test_rest_energy(self):
        assert energy_from_momentum((0, 0, 0), NAT) == 1.0

    def test_massless_is_pc(self):
        assert energy_from_momentum((2, 0, 0), MASSLESS) == 2.0

    def test_euclidean_norm(self):
        # |p| = 5 by hand for (3, 4, 0)
        assert energy_from_momentum((3, 4, 0), MASSLESS) == pytest.approx(5.0, rel=1e-15)

    def test_general_units(self):
        consts = PhysicalConstants(hbar=2.0, c=3.0, m0=0.5)
        p = np.array([1.0, -2.0, 2.0])  # |p| = 3
        expected = math.sqrt(9.0 * 9.0 + (0.5 * 9.0) ** 2)
        assert energy_from_momentum(p, consts) == pytest.approx(expected, rel=1e-15)


class TestPlanckDeBroglie:
    def test_planck_zero(self):
        assert planck_energy(0.0, NAT) == 0.0

    def test_planck_identity(self):
        assert planck_energy(1.0, NAT) == 1.0

    def test_planck_product(self):
        assert planck_energy(2.5, PhysicalConstants(2.0, 1.0, 1.0)) == 5.0

    def test_de_broglie_zero(self):
        assert np.all(de_broglie_momentum((0, 0, 0), NAT) == 0.0)

    def test_de_broglie_identity(self):
        assert np.array_equal(de_broglie_momentum((1, 0, 0), NAT), [1.0, 0.0, 0.0])

    def test_de_broglie_scaling(self):
        consts = PhysicalConstants(0.5, 1.0, 1.0)
        assert np.array_equal(
            de_broglie_momentum((1, 2, 3), consts), [0.5, 1.0, 1.5]
        )


class TestDispersion:
    def test_rest_frequency(self):
        assert dispersion_omega(0.0, NAT) == 1.0

    def test_overflowing_c_squared_is_named(self):
        # c^2 overflows past sqrt(max float) = 1.34e154
        big = PhysicalConstants(hbar=0.5, c=1.35e154, m0=0.0)
        message = r"^c = 1\.35e\+154 is out of range: its square overflows$"
        for rest in ("c_squared", "rest_energy", "rest_frequency"):
            with pytest.raises(DomainError, match=message):
                getattr(big, rest)
        edge = PhysicalConstants(hbar=0.5, c=1.34e154, m0=0.5)
        assert edge.rest_energy == 0.5 * 1.34e154**2
        assert edge.rest_frequency == 0.5 * 1.34e154**2 / 0.5

    def test_rest_energy_square_out_of_range_is_named(self):
        for m0, which in ((1e200, "overflows"), (1e-200, "underflows")):
            with pytest.raises(DomainError) as exc:
                PhysicalConstants(m0=m0).rest_energy_squared
            assert str(exc.value) == (f"rest energy m0 c^2 = {m0!r} is out "
                                      f"of range: its square {which}")
        assert PhysicalConstants(c=3.0, m0=0.5).rest_energy_squared == 4.5**2
        zero = MASSLESS.rest_energy_squared
        assert zero == 0.0 and math.copysign(1.0, zero) == 1.0

    def test_massless(self):
        assert dispersion_omega(3.0, MASSLESS) == 3.0

    def test_unit_wavenumber(self):
        assert dispersion_omega(1.0, NAT) == pytest.approx(math.sqrt(2.0), rel=1e-15)

    def test_negative_wavenumber_rejected(self):
        with pytest.raises(DomainError):
            dispersion_omega(-1.0, NAT)

    @given(st.floats(min_value=1e-6, max_value=1e6))
    def test_on_shell_identity(self, k):
        # (hbar omega)^2 - (hbar k)^2 c^2 - m0^2 c^4 = 0 relative to E^2
        omega = dispersion_omega(k, NAT)
        e2 = (NAT.hbar * omega) ** 2
        defect = abs(e2 - (NAT.hbar * k) ** 2 - 1.0)
        assert defect <= 1e-12 * e2

    @given(
        st.floats(min_value=1e-3, max_value=1e3),
        st.floats(min_value=1.01, max_value=10.0),
    )
    def test_strictly_increasing(self, k, factor):
        assert dispersion_omega(k * factor, NAT) > dispersion_omega(k, NAT)


class TestPhaseVelocity:
    def test_massless_equals_c(self):
        for k in (0.5, 1.0, 7.0):
            assert phase_velocity(k, MASSLESS) == 1.0

    def test_superluminal_massive(self):
        assert phase_velocity(1.0, NAT) == pytest.approx(math.sqrt(2.0), rel=1e-15)
        assert phase_velocity(1.0, NAT) > NAT.c

    def test_large_k_asymptote(self):
        v = phase_velocity(1e6, NAT)
        assert abs(v - NAT.c) / NAT.c <= 1e-11

    def test_zero_wavenumber_massive_raises(self):
        with pytest.raises(DomainError):
            phase_velocity(0.0, NAT)

    def test_zero_wavenumber_massless_limit(self):
        assert phase_velocity(0.0, MASSLESS) == 1.0


class TestGroupVelocity:
    def test_zero_wavevector(self):
        assert np.all(group_velocity((0, 0, 0), NAT) == 0.0)

    def test_massless_speed_c(self):
        assert np.allclose(group_velocity((5, 0, 0), MASSLESS), [1.0, 0, 0], atol=1e-15)

    def test_unit_wavevector(self):
        expected = np.array([1.0 / math.sqrt(2.0), 0.0, 0.0])
        assert np.allclose(group_velocity((1, 0, 0), NAT), expected, rtol=1e-14)

    @given(st.floats(min_value=1e-3, max_value=1e3))
    def test_subluminal_massive(self, k):
        assert np.linalg.norm(group_velocity((k, 0, 0), NAT)) < NAT.c

    @given(st.floats(min_value=1e-3, max_value=1e3))
    def test_phase_group_product(self, k):
        vgr = np.linalg.norm(group_velocity((k, 0, 0), NAT))
        assert phase_velocity(k, NAT) * vgr == pytest.approx(NAT.c**2, rel=1e-12)

    @given(st.floats(min_value=1e-3, max_value=1e3))
    def test_phase_group_product_massless(self, k):
        vgr = np.linalg.norm(group_velocity((k, 0, 0), MASSLESS))
        product = phase_velocity(k, MASSLESS) * vgr
        assert product == pytest.approx(MASSLESS.c**2, rel=1e-12)


class TestParticleVelocity:
    def test_at_rest(self):
        assert np.all(particle_velocity((0, 0, 0), NAT) == 0.0)

    def test_characteristic_momentum(self):
        # p = m0 c gives |v| = c/sqrt(2)
        v = particle_velocity((1.0, 0, 0), NAT)
        assert np.linalg.norm(v) == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-15)

    def test_massless_rejected(self):
        with pytest.raises(DomainError):
            particle_velocity((1, 0, 0), MASSLESS)

    @given(st.floats(min_value=1e-3, max_value=1e3))
    def test_duality_with_group_velocity(self, k):
        kvec = np.array([k, 0.4 * k, -0.2 * k])
        vp = particle_velocity(NAT.hbar * kvec, NAT)
        vg = group_velocity(kvec, NAT)
        assert np.allclose(vp, vg, rtol=1e-12, atol=1e-300)

    @given(
        st.floats(min_value=-0.99, max_value=0.99),
        st.floats(min_value=-0.5, max_value=0.5),
    )
    def test_momentum_velocity_round_trip(self, vx, vy):
        v = np.array([vx, vy, 0.1])
        if np.linalg.norm(v) >= 0.999:
            return
        p = momentum_from_velocity(v, NAT)
        assert np.allclose(particle_velocity(p, NAT), v, rtol=1e-12, atol=1e-15)

    def test_superluminal_momentum_rejected(self):
        with pytest.raises(DomainError):
            momentum_from_velocity((1.5, 0, 0), NAT)

    def test_momentum_at_extreme_c(self):
        # |v| / c is formed before it is squared: c^2 would overflow at
        # c = 1e200, and |v|^2 / c^2 divide by an underflowed 0 at 1e-200
        v = np.array([0.1, 0.0, 0.0])
        slow = PhysicalConstants(c=1e200, m0=2.5)
        assert np.array_equal(momentum_from_velocity(v, slow), 2.5 * v)
        with pytest.raises(DomainError, match=r"^\|v\| must be below c$"):
            momentum_from_velocity(v, PhysicalConstants(c=1e-200))


class TestMasslessDegeneration:
    """At m0 = 0 every relation collapses to E = pc and omega = ck."""

    @given(st.floats(min_value=1e-3, max_value=1e3))
    def test_energy_momentum(self, p):
        assert energy_from_momentum((p, 0, 0), MASSLESS) == pytest.approx(
            p * MASSLESS.c, rel=1e-15
        )

    @given(st.floats(min_value=1e-3, max_value=1e3))
    def test_dispersion(self, k):
        assert dispersion_omega(k, MASSLESS) == k * MASSLESS.c


class TestStateTypes:
    def test_on_shell_state_from_momentum(self):
        state = ParticleState.from_momentum((3, 4, 0), NAT)
        assert state.E == energy_from_momentum((3, 4, 0), NAT)
        assert state.p.tolist() == [3.0, 4.0, 0.0]

    @pytest.mark.parametrize("p, E", [((1e200, 0, 0), 1e200),
                                      ((1e-200, 0, 0), 1.0),
                                      ((1e200, 1e200, 1e200), 3**0.5 * 1e200)])
    def test_extreme_momentum_energy_is_finite(self, p, E):
        assert ParticleState.from_momentum(p, NAT).E == pytest.approx(
            E, rel=1e-15)

    def test_plane_wave_on_shell(self):
        wave = PlaneWave.on_shell(1.0, (1, 2, 2), NAT)
        assert wave.omega == dispersion_omega(math.hypot(1, 2, 2), NAT)
        assert wave.omega == pytest.approx(math.sqrt(10.0), rel=1e-15)

    def test_constants_validation(self):
        with pytest.raises(DomainError):
            PhysicalConstants(hbar=0.0)
        with pytest.raises(DomainError):
            PhysicalConstants(c=-1.0)
        with pytest.raises(DomainError):
            PhysicalConstants(m0=-0.1)

    @pytest.mark.parametrize("name", ["hbar", "c", "m0"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_constants_rejected(self, name, value):
        with pytest.raises(DomainError):
            PhysicalConstants(**{name: value})

    def test_huge_wavevector_magnitudes_do_not_overflow(self):
        k = (1e300, 1e300, 0.0)
        assert np.allclose(group_velocity(k, NAT), [2**-0.5, 2**-0.5, 0.0],
                           rtol=1e-15)
        wave = PlaneWave.on_shell(1.0, k, NAT)
        assert wave.omega == pytest.approx(2**0.5 * 1e300, rel=1e-15)
        assert wave.omega == dispersion_omega(math.hypot(*k), NAT)
