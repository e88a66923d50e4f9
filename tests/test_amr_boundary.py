"""Tests for boundary filling, projection, flux correction and refinement."""

import numpy as np
import pytest

from repro.amr import Grid, Hierarchy, RefinementCriteria
from repro.amr.boundary import fill_ghosts, set_boundary_values
from repro.amr.flux_correction import (
    accumulate_boundary_fluxes,
    correct_parent,
    init_flux_accumulator,
)
from repro.amr.projection import project_child_to_parent
from repro.amr.rebuild import _fill_level
from repro.amr.topology import LevelTopology
from repro.hydro import PPMSolver
from repro.hydro.state import fill_ghosts_periodic, total_energy
from tests.oracles import copy_from_siblings


def _hierarchy_with_child(n_root=8, child_start=(8, 8, 8), child_dims=(8, 8, 8)):
    h = Hierarchy(n_root=n_root)
    # smooth root field
    root = h.root
    x, y, z = np.meshgrid(
        *[(np.arange(n_root + 6) - 2.5) / n_root] * 3, indexing="ij"
    )
    root.fields["density"][:] = 1.0 + 0.5 * np.sin(2 * np.pi * x)
    root.fields["internal"][:] = 2.0 + 0.1 * np.cos(2 * np.pi * y)
    root.fields["energy"][:] = root.fields["internal"]
    fill_ghosts_periodic(root.fields, 3)
    child = Grid(1, child_start, child_dims, n_root=n_root)
    h.add_grid(child, root)
    return h, root, child


class TestParentInterpolation:
    def test_ghosts_filled_interior_preserved(self):
        h, root, child = _hierarchy_with_child()
        child.fields["density"][child.interior] = 42.0
        fill_ghosts(LevelTopology([child], child.nghost, [root]))
        ng = child.nghost
        assert np.all(child.fields["density"][child.interior] == 42.0)
        # ghosts now hold interpolated (finite, root-scale) values
        ghosts = child.fields["density"][0, :, :]
        assert np.all(np.isfinite(ghosts))
        assert np.all((ghosts > 0.3) & (ghosts < 1.7))

    def test_interpolation_smooth_accuracy(self):
        h, root, child = _hierarchy_with_child()
        fill_ghosts(LevelTopology([child], child.nghost, [root]))
        # compare ghost values to the analytic field at child resolution
        ng = child.nghost
        xs = (child.start_index[0] - ng + np.arange(child.shape_with_ghosts[0]) + 0.5) * child.dx
        expected = 1.0 + 0.5 * np.sin(2 * np.pi * xs)
        got = child.fields["density"][:, ng + 4, ng + 4]
        # ghost layers only (first ng entries)
        assert np.abs(got[:ng] - expected[:ng]).max() < 0.06

    def test_time_interpolation(self):
        h, root, child = _hierarchy_with_child()
        root.save_old_state()
        from repro.precision.doubledouble import DoubleDouble

        root.time = DoubleDouble(1.0)
        root.fields["density"][:] *= 2.0  # new state doubled
        child.time = DoubleDouble(0.5)  # halfway
        fill_ghosts(LevelTopology([child], child.nghost, [root]))
        # ghost value should be ~1.5x the old field
        ng = child.nghost
        xs = (child.start_index[0] - ng + 0.5) * child.dx
        expected_old = 1.0 + 0.5 * np.sin(2 * np.pi * xs)
        got = child.fields["density"][0, ng + 4, ng + 4]
        assert abs(got / expected_old - 1.5) < 0.05


class TestSiblingCopy:
    def test_sibling_overrides_ghosts(self):
        h = Hierarchy(n_root=8)
        a = Grid(1, (4, 4, 4), (4, 8, 8), n_root=8)
        b = Grid(1, (8, 4, 4), (4, 8, 8), n_root=8)
        h.add_grid(a, h.root)
        h.add_grid(b, h.root)
        b.fields["density"][b.interior] = 7.0
        copy_from_siblings(a, [b])
        ng = a.nghost
        # a's high-x ghost zone overlaps b's interior
        assert np.all(a.fields["density"][ng + 4 :, ng : ng + 8, ng : ng + 8] == 7.0)

    def test_set_boundary_values_level(self):
        h, root, child = _hierarchy_with_child()
        set_boundary_values(h, 0)
        set_boundary_values(h, 1)
        assert np.all(np.isfinite(child.fields["density"]))


class TestProjection:
    def test_child_average_overwrites_parent(self):
        h, root, child = _hierarchy_with_child()
        child.fields["density"][child.interior] = 5.0
        child.fields["vx"][child.interior] = 1.0
        child.fields["internal"][child.interior] = 3.0
        child.fields["energy"][child.interior] = 3.5
        project_child_to_parent(child, root)
        ng = root.nghost
        covered = root.fields["density"][ng + 4 : ng + 8, ng + 4 : ng + 8, ng + 4 : ng + 8]
        np.testing.assert_allclose(covered, 5.0)
        np.testing.assert_allclose(
            root.fields["vx"][ng + 4 : ng + 8, ng + 4 : ng + 8, ng + 4 : ng + 8], 1.0
        )

    def test_projection_conserves_mass(self):
        h, root, child = _hierarchy_with_child()
        rng = np.random.default_rng(0)
        child.fields["density"][child.interior] = 1.0 + rng.random((8, 8, 8))
        mass_fine = child.fields["density"][child.interior].sum() * child.dx**3
        project_child_to_parent(child, root)
        ng = root.nghost
        covered = root.fields["density"][ng + 4 : ng + 8, ng + 4 : ng + 8, ng + 4 : ng + 8]
        mass_coarse = covered.sum() * root.dx**3
        assert np.isclose(mass_fine, mass_coarse, rtol=1e-12)


class TestRefinementCriteria:
    def _grid(self, rho=1.0):
        g = Grid(0, (0, 0, 0), (8, 8, 8), n_root=8)
        g.allocate()
        g.fields["density"][:] = rho
        return g

    def test_overdensity(self):
        g = self._grid(1.0)
        g.fields["density"][g.interior][4, 4, 4] = 10.0
        crit = RefinementCriteria(overdensity_threshold=5.0)
        flags = crit.flag_cells(g)
        assert flags[4, 4, 4]
        assert flags.sum() == 1

    def test_gas_mass(self):
        g = self._grid(1.0)
        crit = RefinementCriteria(gas_mass_threshold=0.5 * g.dx**3)
        flags = crit.flag_cells(g)
        assert flags.all()  # every cell has mass dx^3 > threshold

    def test_mass_threshold_level_scaling(self):
        g0 = self._grid(1.0)
        g1 = Grid(1, (0, 0, 0), (8, 8, 8), n_root=8)
        g1.allocate()
        g1.fields["density"][:] = 1.0
        # exponent < 0 lowers the threshold on finer levels
        crit = RefinementCriteria(gas_mass_threshold=0.5 * g0.dx**3, level_exponent=-1.0)
        assert crit._mass_threshold(1.0, g1) == 0.5

    def test_dm_mass(self):
        g = self._grid(1.0)
        dm = np.zeros((8, 8, 8))
        dm[2, 2, 2] = 100.0
        crit = RefinementCriteria(dm_mass_threshold=50.0 * g.dx**3)
        flags = crit.flag_cells(g, dm_density=dm)
        assert flags[2, 2, 2] and flags.sum() == 1

    def test_jeans(self):
        from repro.cosmology import CodeUnits, STANDARD_CDM

        units = CodeUnits.for_cosmology(STANDARD_CDM, 256.0, 100.0)
        g = self._grid(1.0)
        # very cold, dense cell: tiny Jeans length -> flagged
        e_cold = units.energy_from_temperature(1.0, 1.22, units.a_initial)
        g.fields["internal"][:] = 1e6  # hot everywhere else
        g.fields["density"][g.interior][1, 1, 1] = 1e6
        g.fields["internal"][g.interior][1, 1, 1] = e_cold
        crit = RefinementCriteria(jeans_number=4.0, units=units, a=units.a_initial)
        flags = crit.flag_cells(g)
        assert flags[1, 1, 1]

    def test_max_level_stops(self):
        g = self._grid(10.0)
        g2 = Grid(2, (0, 0, 0), (8, 8, 8), n_root=8)
        g2.allocate()
        g2.fields["density"][:] = 10.0
        crit = RefinementCriteria(overdensity_threshold=1.0, max_level=2)
        assert crit.flag_cells(g).any()
        assert not crit.flag_cells(g2).any()


class TestFluxCorrection:
    def test_accumulator_shapes(self):
        h, root, child = _hierarchy_with_child()
        set_boundary_values(h, 0)
        set_boundary_values(h, 1)
        solver = PPMSolver()
        fluxes = solver.step(child.fields, child.dx, 1e-4,
                             windows=child.hydro_plan()[0])
        accumulate_boundary_fluxes(child, fluxes)
        acc = child.flux_accumulator
        # lo/hi planes of density, vx, vy, vz, energy; 'internal' is never
        # corrected, so never stored
        assert acc.names == ("density", "vx", "vy", "vz", "energy")
        assert [b.shape for b in acc.blocks] == [(2, 5, 8, 8)] * 3
        assert acc.present.all()
        for block, planes in zip(acc.blocks, fluxes.boundary, strict=True):
            np.testing.assert_array_equal(block, planes)
        # a step that stored no boundary planes cannot be accumulated
        with pytest.raises(ValueError, match="no boundary planes"):
            accumulate_boundary_fluxes(
                child, solver.step(child.fields, child.dx, 1e-4))

    def test_correction_conserves_total_mass(self):
        """Parent + child evolved together: after correction + projection the
        total mass in the composite solution is conserved."""
        h, root, child = _hierarchy_with_child()
        # put structure inside the child region so flux flows across its edge
        ng = root.nghost
        set_boundary_values(h, 0)
        root.fields["vx"][:] = 0.3
        root.fields["energy"][:] = total_energy(root.fields)
        set_boundary_values(h, 0)
        fill_ghosts(LevelTopology([child], child.nghost, [root]))
        # child interior from parent (consistent start)
        _fill_level([(child, root, False)], [])
        solver = PPMSolver()

        def composite_mass():
            covered = h.covering_mask(root)
            rho_r = root.field_view("density")
            m = (rho_r * ~covered).sum() * root.dx**3
            m += child.field_view("density").sum() * child.dx**3
            return m

        m0 = composite_mass()
        dt = 2e-3
        root.save_old_state()
        root.last_fluxes = solver.step(root.fields, root.dx, dt,
                                       windows=root.hydro_plan()[0])
        from repro.precision.doubledouble import DoubleDouble

        root.time = DoubleDouble(dt)
        init_flux_accumulator(child)
        for sub in range(2):
            set_boundary_values(h, 1)
            fl = solver.step(child.fields, child.dx, dt / 2,
                             windows=child.hydro_plan()[0])
            accumulate_boundary_fluxes(child, fl)
            child.time = DoubleDouble(child.time + dt / 2)
        correct_parent(root, [child])
        project_child_to_parent(child, root)
        m1 = composite_mass()
        assert abs(m1 - m0) < 1e-10 * m0

    def test_parent_without_fluxes_drops_the_childs_fluxes(self):
        """A parent step with no fluxes (its hydro task failed and every
        rescue rung raised) corrects nothing — and the fine fluxes of that
        step must not be applied against the next coarse step."""
        from repro.precision.doubledouble import DoubleDouble

        h, root, child = _hierarchy_with_child()
        set_boundary_values(h, 0)
        root.fields["vx"][:] = 0.3
        root.fields["energy"][:] = total_energy(root.fields)
        set_boundary_values(h, 0)
        _fill_level([(child, root, False)], [])
        solver = PPMSolver()

        def composite_mass():
            covered = h.covering_mask(root)
            m = (root.field_view("density") * ~covered).sum() * root.dx**3
            return m + child.field_view("density").sum() * child.dx**3

        dt = 2e-3

        def parent_step(with_fluxes):
            root.save_old_state()
            fluxes = solver.step(root.fields, root.dx, dt,
                                 windows=root.hydro_plan()[0])
            root.last_fluxes = fluxes if with_fluxes else None
            root.time = DoubleDouble(root.time + dt)
            for _ in range(2):
                set_boundary_values(h, 1)
                accumulate_boundary_fluxes(
                    child, solver.step(child.fields, child.dx, dt / 2,
                                       windows=child.hydro_plan()[0]))
                child.time = DoubleDouble(child.time + dt / 2)
            correct_parent(root, [child])
            project_child_to_parent(child, root)
            set_boundary_values(h, 0)

        parent_step(with_fluxes=False)
        m1 = composite_mass()
        parent_step(with_fluxes=True)
        assert abs(composite_mass() - m1) < 1e-10 * m1
