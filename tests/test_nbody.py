"""Tests for particles, CIC, and the leapfrog integrator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gravity import acceleration_from_potential, gravity_source, solve_periodic
from repro.nbody import ParticleSet, cic_deposit, cic_gather, drift, kick, kick_drift_kick
from repro.precision import DDArray


def _random_particles(n, seed=0, vmax=0.1):
    rng = np.random.default_rng(seed)
    pos = DDArray(rng.random((n, 3)))
    vel = vmax * rng.standard_normal((n, 3))
    mass = rng.random(n) + 0.5
    return ParticleSet(pos, vel, mass)


class TestParticleSet:
    def test_construction_and_len(self):
        p = _random_particles(10)
        assert len(p) == 10
        assert p.total_mass > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            ParticleSet(DDArray(np.zeros((3, 3))), np.zeros((2, 3)), np.zeros(3))
        with pytest.raises(ValueError):
            ParticleSet(DDArray(np.zeros((3, 3))), np.zeros((3, 3)), np.zeros(4))

    def test_select_and_concat(self):
        p = _random_particles(10)
        a = p.select(np.arange(4))
        b = p.select(np.arange(4, 10))
        c = a.concatenated(b)
        assert len(c) == 10
        np.testing.assert_array_equal(np.sort(c.ids), np.arange(10))

    def test_in_region(self):
        p = ParticleSet(DDArray(np.array([[0.1, 0.1, 0.1], [0.9, 0.9, 0.9]])),
                        np.zeros((2, 3)), np.ones(2))
        mask = p.in_region([0.0, 0.0, 0.0], [0.5, 0.5, 0.5])
        np.testing.assert_array_equal(mask, [True, False])

    def test_empty(self):
        p = ParticleSet.empty()
        assert len(p) == 0
        assert p.total_mass == 0.0


class TestCIC:
    def test_mass_conservation_periodic(self):
        p = _random_particles(500, seed=1)
        n = 8
        dx = 1.0 / n
        rho = cic_deposit(p.positions.hi, p.masses, (n, n, n), dx)
        assert np.isclose(rho.sum() * dx**3, p.total_mass, rtol=1e-12)

    def test_particle_at_cell_centre(self):
        n = 8
        dx = 1.0 / n
        pos = np.array([[(3 + 0.5) * dx, (4 + 0.5) * dx, (5 + 0.5) * dx]])
        rho = cic_deposit(pos, np.array([2.0]), (n, n, n), dx)
        assert np.isclose(rho[3, 4, 5], 2.0 / dx**3)
        assert np.isclose(rho.sum() * dx**3, 2.0)

    def test_particle_between_cells_splits_mass(self):
        n = 8
        dx = 1.0 / n
        pos = np.array([[4 * dx, (4 + 0.5) * dx, (4 + 0.5) * dx]])  # on x-face
        rho = cic_deposit(pos, np.array([1.0]), (n, n, n), dx)
        assert np.isclose(rho[3, 4, 4], 0.5 / dx**3)
        assert np.isclose(rho[4, 4, 4], 0.5 / dx**3)

    def test_periodic_wrap(self):
        n = 4
        dx = 1.0 / n
        pos = np.array([[0.01 * dx, 0.5 * dx, 0.5 * dx]])  # near x=0 face
        rho = cic_deposit(pos, np.array([1.0]), (n, n, n), dx)
        assert np.isclose(rho.sum() * dx**3, 1.0)
        assert rho[n - 1, 0, 0] > 0  # wraps to the far side

    def test_nonperiodic_drops_outside(self):
        n = 4
        dx = 1.0 / n
        pos = np.array([[-0.5, 0.5, 0.5], [0.5, 0.5, 0.5]])
        rho = cic_deposit(pos, np.ones(2), (n, n, n), dx, periodic=False)
        assert np.isclose(rho.sum() * dx**3, 1.0)

    def test_gather_constant_field(self):
        n = 8
        field = np.ones((3, n, n, n)) * np.array([1.0, 2.0, 3.0])[:, None, None, None]
        off = np.random.default_rng(2).random((20, 3))
        g = cic_gather(field, off, 1.0 / n)
        np.testing.assert_allclose(g, np.array([1.0, 2.0, 3.0]) * np.ones((20, 3)))

    def test_deposit_gather_adjoint_self_force(self):
        """A single particle's self-force through deposit->solve->gather must
        vanish on a periodic grid (CIC symmetry)."""
        n = 16
        dx = 1.0 / n
        pos = np.array([[0.37, 0.52, 0.61]])
        rho = cic_deposit(pos, np.array([1.0]), (n, n, n), dx)
        src = gravity_source(rho, g_code=1.0)
        phi = solve_periodic(src, dx)
        g = acceleration_from_potential(phi, dx)
        f = cic_gather(g, pos, dx)
        assert np.all(np.abs(f) < 1e-10)

    @given(st.integers(1, 200), st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_mass_conserved_property(self, n_p, seed):
        rng = np.random.default_rng(seed)
        pos = rng.random((n_p, 3))
        mass = rng.random(n_p)
        n = 8
        rho = cic_deposit(pos, mass, (n, n, n), 1.0 / n)
        assert np.isclose(rho.sum() / n**3, mass.sum(), rtol=1e-10)


class TestIntegrator:
    def test_drift_moves_positions(self):
        p = ParticleSet(DDArray(np.array([[0.5, 0.5, 0.5]])),
                        np.array([[0.1, 0.0, -0.2]]), np.ones(1))
        drift(p, dt=0.5, a=1.0)
        np.testing.assert_allclose(p.positions.hi, [[0.55, 0.5, 0.4]])

    def test_drift_scales_with_a(self):
        p = ParticleSet(DDArray(np.array([[0.5, 0.5, 0.5]])),
                        np.array([[0.1, 0.0, 0.0]]), np.ones(1))
        drift(p, dt=0.5, a=2.0)
        np.testing.assert_allclose(p.positions.hi[0, 0], 0.525)

    def test_drift_wraps(self):
        p = ParticleSet(DDArray(np.array([[0.95, 0.5, 0.5]])),
                        np.array([[0.2, 0.0, 0.0]]), np.ones(1))
        drift(p, dt=0.5, a=1.0)
        assert 0.0 <= p.positions.hi[0, 0] < 1.0

    def test_kick_with_drag(self):
        p = ParticleSet(DDArray(np.array([[0.5, 0.5, 0.5]])),
                        np.array([[1.0, 0.0, 0.0]]), np.ones(1))
        kick(p, None, dt=0.1, a=1.0, adot=1.0)
        assert np.isclose(p.velocities[0, 0], np.exp(-0.1))

    def test_two_body_circular_orbit_energy(self):
        """Two particles orbiting on a periodic PM grid: the PM force is not
        exactly Keplerian, but KDK must hold the separation bounded and not
        secularly pump energy over a few orbits."""
        n = 32
        dx = 1.0 / n
        sep = 6 * dx
        m = 1.0
        pos0 = np.array([[0.5 - sep / 2, 0.5, 0.5], [0.5 + sep / 2, 0.5, 0.5]])

        def accel_fn(p):
            rho = cic_deposit(p.positions.hi + p.positions.lo, p.masses, (n, n, n), dx)
            src = gravity_source(rho, g_code=1.0)
            phi = solve_periodic(src, dx)
            g = acceleration_from_potential(phi, dx)
            return cic_gather(g, p.positions.hi + p.positions.lo, dx)

        # measure the actual PM force to set the circular velocity
        probe = ParticleSet(DDArray(pos0.copy()), np.zeros((2, 3)), np.full(2, m))
        f = accel_fn(probe)
        g_mag = abs(f[0, 0])
        v_circ = np.sqrt(g_mag * sep / 2)
        vel0 = np.array([[0.0, v_circ, 0.0], [0.0, -v_circ, 0.0]])
        p = ParticleSet(DDArray(pos0.copy()), vel0.copy(), np.full(2, m))
        t_orbit = 2 * np.pi * (sep / 2) / v_circ
        dt = t_orbit / 200
        seps = []
        for _ in range(400):  # two orbits
            kick_drift_kick(p, accel_fn, dt)
            d = p.positions.hi[1] - p.positions.hi[0]
            d -= np.round(d)
            seps.append(np.sqrt((d**2).sum()))
        seps = np.array(seps)
        assert seps.min() > 0.5 * sep
        assert seps.max() < 2.0 * sep

    def test_momentum_conserved_in_pm(self):
        n = 16
        dx = 1.0 / n
        p = _random_particles(50, seed=7, vmax=0.05)

        def accel_fn(pp):
            rho = cic_deposit(pp.positions.hi + pp.positions.lo, pp.masses, (n, n, n), dx)
            src = gravity_source(rho, g_code=1.0)
            phi = solve_periodic(src, dx)
            g = acceleration_from_potential(phi, dx)
            return cic_gather(g, pp.positions.hi + pp.positions.lo, dx)

        p0 = p.momentum().copy()
        for _ in range(10):
            kick_drift_kick(p, accel_fn, dt=0.01)
        p1 = p.momentum()
        scale = np.abs(p.velocities).max() * p.total_mass
        assert np.all(np.abs(p1 - p0) < 1e-8 * scale)
