"""Regression tests for the hot-path bugfixes:

* a particle drifting across a sibling face is advanced exactly once,
* the gravity sibling iteration detects convergence (early exit),
* parent->child time interpolation never extrapolates (frac clamped),
* a non-finite timestep falls back loudly, not to a silent magic 1.0.
"""

import warnings

import numpy as np
import pytest

from repro.amr import Grid, Hierarchy, HierarchyEvolver
from repro.amr.boundary import _time_fraction, set_boundary_values
from repro.amr.gravity import HierarchyGravity
from repro.hydro import PPMSolver
from repro.nbody.particles import ParticleSet
from repro.precision.doubledouble import DoubleDouble
from repro.precision.position import PositionDD


def _two_sibling_level(n_root=8):
    """Level 1 fully tiled by two face-sharing siblings (x-split halves)."""
    h = Hierarchy(n_root=n_root)
    n1 = 2 * n_root
    a = Grid(1, (0, 0, 0), (n1 // 2, n1, n1), n_root=n_root)
    b = Grid(1, (n1 // 2, 0, 0), (n1 // 2, n1, n1), n_root=n_root)
    h.add_grid(a, h.root)
    h.add_grid(b, h.root)
    return h, a, b


class TestParticleSingleAdvance:
    def test_cross_face_drift_advanced_once(self):
        """A particle whose drift carries it across the shared sibling face
        must receive exactly one kick-drift-kick, not one per grid."""
        h, a, b = _two_sibling_level()
        v = 1.0
        h.particles = ParticleSet(
            PositionDD(np.array([[0.49, 0.25, 0.25]])),
            np.array([[v, 0.0, 0.0]]),
            np.array([1.0]),
        )
        grav = HierarchyGravity(g_code=1.0, mean_density=1.0)
        ev = HierarchyEvolver(h, PPMSolver(), gravity=grav)

        calls = []
        orig = grav.particle_accelerations

        def spy(grid, acc_field, hi, lo):
            calls.append(grid.grid_id)
            return orig(grid, acc_field, hi, lo)

        grav.particle_accelerations = spy
        accel = {
            g.grid_id: np.zeros((3,) + g.shape_with_ghosts)
            for g in h.level_grids(1)
        }
        dt = 0.04
        ev._advance_particles(1, dt, a=1.0, adot=0.0, accel=accel)

        x = float(h.particles.positions.hi[0, 0] + h.particles.positions.lo[0, 0])
        assert x == pytest.approx(0.49 + v * dt, abs=1e-12)
        assert x > 0.5  # the drift really crossed the face
        # two half-kicks from exactly one grid
        assert len(calls) == 2
        assert calls[0] == calls[1] == a.grid_id
        np.testing.assert_allclose(h.particles.velocities[0], [v, 0.0, 0.0])

    def test_first_containing_grid_wins_on_overlap(self):
        """With overlapping siblings, assignment is unique (first wins)."""
        h = Hierarchy(n_root=8)
        a = Grid(1, (0, 0, 0), (10, 16, 16), n_root=8)   # overlaps b in x
        b = Grid(1, (6, 0, 0), (10, 16, 16), n_root=8)
        h.add_grid(a, h.root)
        h.add_grid(b, h.root)
        h.particles = ParticleSet(
            PositionDD(np.array([[0.45, 0.5, 0.5]])),  # inside both
            np.array([[0.0, 0.0, 0.0]]),
            np.array([1.0]),
        )
        grav = HierarchyGravity(g_code=1.0, mean_density=1.0)
        ev = HierarchyEvolver(h, PPMSolver(), gravity=grav)
        calls = []
        grav.particle_accelerations = (
            lambda grid, acc, hi, lo: (calls.append(grid.grid_id),
                                       np.zeros((hi.shape[0], 3)))[1]
        )
        accel = {
            g.grid_id: np.zeros((3,) + g.shape_with_ghosts)
            for g in h.level_grids(1)
        }
        ev._advance_particles(1, 0.01, a=1.0, adot=0.0, accel=accel)
        assert set(calls) == {a.grid_id}


class TestSiblingIterationConverges:
    def test_converged_exchange_exits_early(self):
        """Zero source + zero rims reach the fixpoint on pass one; the
        solver must stop there instead of burning every allowed pass.  An
        exchange that does move rim values runs the next pass."""
        h, a, b = _two_sibling_level()
        # uniform density == mean: the Poisson source vanishes identically
        grav = HierarchyGravity(g_code=1.0, mean_density=1.0,
                                sibling_iterations=5)
        grav.solve_level(h, 0)
        solves = []
        orig = grav.mg.solve

        def spy(src, dx, rim, **kwargs):
            solves.append(dx)
            return orig(src, dx, rim, **kwargs)

        grav.mg.solve = spy
        assert grav.solve_level(h, 1)[:2] == (1, 2)
        # one pass over the two grids, then the unchanged exchange breaks
        assert len(solves) == 2, (
            f"{len(solves)} mg solves: the sibling iteration did not detect "
            "convergence"
        )

        # a source on grid a only: pass one gives a a potential b's rim
        # did not hold, so the exchange moves values and the second (here
        # the last allowed) pass runs
        a.fields["density"][a.interior][:2] = 3.0
        grav.sibling_iterations = 2
        assert grav.solve_level(h, 1)[:2] == (2, 4)
        assert len(solves) == 2 + 4


class TestTimeFractionClamp:
    def _parent_child(self):
        parent = Grid(0, (0, 0, 0), (8, 8, 8), n_root=8)
        parent.allocate()
        parent.save_old_state()
        parent.old_time = DoubleDouble(0.0)
        parent.time = DoubleDouble(1.0)
        child = Grid(1, (4, 4, 4), (8, 8, 8), n_root=8)
        return parent, child

    def test_overshoot_clamped_to_one(self):
        parent, child = self._parent_child()
        child.time = DoubleDouble(1.0 + 1e-9)  # last-subcycle overshoot
        assert _time_fraction(child, parent) == 1.0

    def test_undershoot_clamped_to_zero(self):
        parent, child = self._parent_child()
        child.time = DoubleDouble(-1e-9)
        assert _time_fraction(child, parent) == 0.0

    def test_interior_fraction_untouched(self):
        parent, child = self._parent_child()
        child.time = DoubleDouble(0.25)
        assert _time_fraction(child, parent) == pytest.approx(0.25)


class TestTimestepFallback:
    def _vacuum_evolver(self):
        h = Hierarchy(n_root=4)
        h.root.fields["internal"][:] = 0.0  # zero sound speed
        h.root.fields["energy"][:] = 0.0
        return HierarchyEvolver(h, PPMSolver())

    def test_falls_back_to_remaining_and_warns(self):
        ev = self._vacuum_evolver()
        with pytest.warns(RuntimeWarning, match="level 0"):
            dt = ev.compute_timestep(0, a=1.0, adot=0.0, remaining=0.125)
        assert dt == 0.125

    def test_expansion_constraint_bounds_vacuum_without_warning(self):
        """With a finite expansion timestep in the min, vacuum is already
        bounded — no fallback, no warning."""
        ev = self._vacuum_evolver()
        from repro.hydro.timestep import expansion_timestep

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dt = ev.compute_timestep(0, a=1.0, adot=0.5, remaining=100.0)
        assert dt == pytest.approx(expansion_timestep(1.0, 0.5))

    def test_falls_back_to_unit_time_without_remaining(self):
        ev = self._vacuum_evolver()
        with pytest.warns(RuntimeWarning, match="level 0"):
            dt = ev.compute_timestep(0, a=1.0, adot=0.0)
        assert dt == 1.0

    def test_finite_timestep_does_not_warn(self):
        h = Hierarchy(n_root=4)  # default fields carry a finite sound speed
        ev = HierarchyEvolver(h, PPMSolver())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dt = ev.compute_timestep(0, a=1.0, adot=0.0, remaining=1.0)
        assert np.isfinite(dt)
