"""Tests for the FoF and spherical-overdensity halo finders."""

import numpy as np
import pytest

from repro.analysis.halos import friends_of_friends, spherical_overdensity
from repro.nbody.particles import ParticleSet
from repro.precision import DDArray


def _clustered_particles(n_halo=200, n_field=200, centre=(0.5, 0.5, 0.5),
                         radius=0.02, seed=0):
    rng = np.random.default_rng(seed)
    halo = np.asarray(centre) + radius * rng.standard_normal((n_halo, 3)) / 3
    field = rng.random((n_field, 3))
    pos = np.vstack([halo, field]) % 1.0
    vel = rng.standard_normal((n_halo + n_field, 3)) * 0.01
    mass = np.full(n_halo + n_field, 1.0 / (n_halo + n_field))
    return ParticleSet(DDArray(pos), vel, mass)


class TestFoF:
    def test_finds_the_halo(self):
        p = _clustered_particles()
        groups = friends_of_friends(p, min_members=20)
        assert len(groups) >= 1
        main = groups[0]
        assert main["n_members"] > 150
        assert np.all(np.abs(main["position"] - 0.5) < 0.05)

    def test_uniform_field_no_big_groups(self):
        rng = np.random.default_rng(1)
        n = 400
        p = ParticleSet(DDArray(rng.random((n, 3))),
                        np.zeros((n, 3)), np.full(n, 1.0 / n))
        groups = friends_of_friends(p, min_members=50)
        assert groups == []

    def test_periodic_halo_across_boundary(self):
        p = _clustered_particles(centre=(0.01, 0.5, 0.5), seed=2)
        groups = friends_of_friends(p, min_members=20)
        assert len(groups) >= 1
        main = groups[0]
        # centre of mass near x~0 (or ~1), wrapped
        assert min(main["position"][0], 1 - main["position"][0]) < 0.05
        assert main["n_members"] > 150

    def test_two_halos_separated(self):
        rng = np.random.default_rng(3)
        a = np.array([0.25, 0.25, 0.25]) + 0.01 * rng.standard_normal((150, 3))
        b = np.array([0.75, 0.75, 0.75]) + 0.01 * rng.standard_normal((150, 3))
        pos = np.vstack([a, b]) % 1.0
        p = ParticleSet(DDArray(pos), np.zeros((300, 3)), np.full(300, 1 / 300))
        groups = friends_of_friends(p, min_members=50)
        assert len(groups) == 2
        assert abs(groups[0]["mass"] - 0.5) < 0.05

    def test_empty(self):
        assert friends_of_friends(ParticleSet.empty()) == []

    def test_velocity_dispersion_reported(self):
        p = _clustered_particles(seed=4)
        groups = friends_of_friends(p, min_members=20)
        assert groups[0]["velocity_dispersion"] > 0


class TestSO:
    def test_virial_radius_of_concentration(self):
        p = _clustered_particles(n_halo=400, n_field=100, radius=0.01, seed=5)
        halo = spherical_overdensity(p, (0.5, 0.5, 0.5), mean_density=1.0)
        assert halo["radius"] > 0
        assert halo["mass"] > 0.5  # most of the halo mass captured
        # enclosed mean density at R_vir is by construction ~ Delta
        rho_mean = halo["mass"] / (4 / 3 * np.pi * halo["radius"] ** 3)
        assert rho_mean == pytest.approx(18 * np.pi**2, rel=0.5)

    def test_no_halo_in_uniform_field(self):
        rng = np.random.default_rng(6)
        n = 500
        p = ParticleSet(DDArray(rng.random((n, 3))),
                        np.zeros((n, 3)), np.full(n, 1.0 / n))
        halo = spherical_overdensity(p, (0.5, 0.5, 0.5), mean_density=1.0)
        # a uniform field has no 178x overdense sphere beyond shot noise
        assert halo["mass"] < 0.05

    def test_periodic_centre(self):
        p = _clustered_particles(centre=(0.99, 0.5, 0.5), seed=7)
        halo = spherical_overdensity(p, (0.99, 0.5, 0.5), mean_density=1.0)
        assert halo["n_members"] > 100
