"""Tests for Grid geometry and the Hierarchy container."""

import numpy as np
import pytest

from repro.amr import Grid, Hierarchy
from repro.amr.topology import box_overlaps
from repro.precision import DDArray
from tests.oracles import ghost_overlap


def _interior_overlaps(a, b):
    """:func:`box_overlaps` of grid ``a``'s interior against ``b``'s."""
    return box_overlaps(a.start_index[None], a.end_index[None], np.array([0]),
                        b.start_index[None], b.end_index[None], np.array([1]))


class TestGridGeometry:
    def test_root_grid(self):
        g = Grid(0, (0, 0, 0), (8, 8, 8), n_root=8)
        assert g.dx == 1.0 / 8
        np.testing.assert_array_equal(g.left_edge, [0, 0, 0])
        np.testing.assert_array_equal(g.right_edge, [1, 1, 1])

    def test_subgrid_edges(self):
        g = Grid(1, (4, 6, 8), (4, 4, 4), n_root=8)
        assert g.dx == 1.0 / 16
        np.testing.assert_array_equal(g.left_edge, [0.25, 0.375, 0.5])
        np.testing.assert_array_equal(g.right_edge, [0.5, 0.625, 0.75])

    def test_deep_level_dx_exact(self):
        g = Grid(40, (0, 0, 0), (4, 4, 4), n_root=8)
        # dyadic: dx exactly representable
        assert g.dx == 2.0**-43

    def test_deep_level_edges_exact(self):
        # start index 3 * 2^38 at level 40: edge = 3 * 2^38 / 2^43 = 3/32
        g = Grid(40, (3 * 2**38, 0, 0), (4, 4, 4), n_root=8)
        assert g.left_edge[0] == 3.0 / 32.0

    def test_shapes(self):
        g = Grid(0, (0, 0, 0), (8, 6, 4), n_root=8, nghost=3)
        assert g.shape_with_ghosts == (14, 12, 10)
        assert g.n_cells == 8 * 6 * 4

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            Grid(0, (0, 0, 0), (0, 4, 4), n_root=8)

    def test_cell_centres(self):
        g = Grid(1, (4, 4, 4), (2, 2, 2), n_root=4)
        cx = g.cell_centres()[0]
        np.testing.assert_allclose(cx, [(4.5) / 8, (5.5) / 8])

    def test_overlap(self):
        a = Grid(1, (0, 0, 0), (8, 8, 8), n_root=8)
        b = Grid(1, (4, 4, 4), (8, 8, 8), n_root=8)
        _, _, lo, hi = _interior_overlaps(a, b)
        np.testing.assert_array_equal(lo, [[4, 4, 4]])
        np.testing.assert_array_equal(hi, [[8, 8, 8]])

    def test_no_overlap(self):
        a = Grid(1, (0, 0, 0), (4, 4, 4), n_root=8)
        b = Grid(1, (4, 4, 4), (4, 4, 4), n_root=8)
        i, j, lo, hi = _interior_overlaps(a, b)
        assert len(i) == len(j) == len(lo) == len(hi) == 0

    def test_ghost_overlap_detects_adjacency(self):
        a = Grid(1, (0, 0, 0), (4, 4, 4), n_root=8, nghost=3)
        b = Grid(1, (4, 0, 0), (4, 4, 4), n_root=8, nghost=3)
        assert ghost_overlap(a, b) is not None

    def test_nesting(self):
        parent = Grid(0, (0, 0, 0), (8, 8, 8), n_root=8)
        child = Grid(1, (4, 4, 4), (4, 4, 4), n_root=8)
        assert child.is_nested_in(parent)
        stray = Grid(1, (14, 14, 14), (4, 4, 4), n_root=8)
        assert not stray.is_nested_in(parent)

    def test_parent_index_region(self):
        child = Grid(1, (4, 6, 8), (4, 2, 2), n_root=8)
        lo, hi = child.parent_index_region()
        np.testing.assert_array_equal(lo, [2, 3, 4])
        np.testing.assert_array_equal(hi, [4, 4, 5])

    def test_contains_point(self):
        g = Grid(1, (4, 4, 4), (4, 4, 4), n_root=8)
        assert g.contains_point([0.3, 0.3, 0.3])[0]
        assert not g.contains_point([0.1, 0.3, 0.3])[0]

    def test_allocate_and_views(self):
        g = Grid(0, (0, 0, 0), (4, 4, 4), n_root=4)
        g.allocate(advected=["HI"])
        assert g.fields["density"].shape == g.shape_with_ghosts
        assert g.field_view("density").shape == (4, 4, 4)
        assert "HI" in g.fields
        assert g.memory_bytes() > 0

    def test_save_old_state(self):
        g = Grid(0, (0, 0, 0), (4, 4, 4), n_root=4)
        g.allocate()
        g.fields["density"][:] = 2.0
        g.save_old_state()
        g.fields["density"][:] = 3.0
        assert np.all(g.old_fields["density"] == 2.0)

    def test_memory_bytes_counts_old_state(self):
        g = Grid(0, (0, 0, 0), (4, 4, 4), n_root=4)
        g.allocate()
        before = g.memory_bytes()
        g.save_old_state()
        field_bytes = sum(a.nbytes for _, a in g.fields.array_items())
        assert g.memory_bytes() == before + field_bytes


def _held_bytes(h):
    """Bytes of every distinct array the hierarchy's grids hold: fields,
    old state, potential, flux accumulator and kept flux planes."""
    held = {}
    for g in h.all_grids():
        arrays = [g.phi]
        for fs in (g.fields, g.old_fields):
            if fs is not None:
                arrays += [a for _, a in fs.array_items()]
        if g.flux_accumulator is not None:
            arrays += g.flux_accumulator.blocks
        if g.last_fluxes is not None:
            arrays += g.last_fluxes.planes()
        held.update((id(a), a.nbytes) for a in arrays if a is not None)
    return sum(held.values())


def test_total_memory_bytes_counts_flux_storage():
    """Between a parent's step and its flux correction the parent keeps
    the planes at its child's faces and the child its accumulator; both
    count, and correct_parent drops the parent's planes."""
    from repro.amr.flux_correction import (
        accumulate_boundary_fluxes,
        correct_parent,
    )
    from repro.hydro import PPMSolver

    h = Hierarchy(n_root=8)
    child = Grid(1, (4, 4, 4), (8, 8, 8), n_root=8)
    h.add_grid(child, h.root)
    solver = PPMSolver()
    h.root.last_fluxes = solver.step(h.root.fields, h.root.dx, 1e-3,
                                     windows=h.root.hydro_plan()[0])
    accumulate_boundary_fluxes(child, solver.step(
        child.fields, child.dx, 1e-3, windows=child.hydro_plan()[0]))
    planes = sum(p.nbytes for p in h.root.last_fluxes.planes())
    blocks = sum(b.nbytes for b in child.flux_accumulator.blocks)
    # three (2, 5, 4, 4) planes of the root, three (2, 5, 8, 8) sums
    assert (planes, blocks) == (3 * 2 * 5 * 16 * 8, 3 * 2 * 5 * 64 * 8)
    assert h.total_memory_bytes() == _held_bytes(h)
    fields_only = h.total_memory_bytes() - planes - blocks
    assert fields_only == sum(
        a.nbytes for g in h.all_grids()
        for a in [g.phi, *(arr for _, arr in g.fields.array_items())])
    correct_parent(h.root, [child])
    assert h.root.last_fluxes is None
    assert h.total_memory_bytes() == fields_only + blocks


def test_total_memory_bytes_after_a_step():
    # the first step snapshots the root's fields; the figure counts them
    from repro.problems import SedovBlast

    blast = SedovBlast(n_root=16, max_level=1, refine_shock=0.3)
    blast.run(max_root_steps=1)
    h = blast.sim.hierarchy
    assert any(g.old_fields is not None for g in h.all_grids())
    assert h.total_memory_bytes() == _held_bytes(h)


class TestHierarchy:
    def _two_level(self):
        h = Hierarchy(n_root=8)
        child = Grid(1, (4, 4, 4), (8, 8, 8), n_root=8)
        h.add_grid(child, h.root)
        return h, child

    def test_root_setup(self):
        h = Hierarchy(n_root=8)
        assert h.max_level == 0
        assert h.n_grids == 1
        assert h.root.fields is not None

    def test_add_grid(self):
        h, child = self._two_level()
        assert h.max_level == 1
        assert child.parent is h.root
        assert child in h.root.children
        assert h.validate_nesting()

    def test_add_rejects_non_nested(self):
        h = Hierarchy(n_root=8)
        bad = Grid(1, (12, 12, 12), (8, 8, 8), n_root=8)
        with pytest.raises(ValueError):
            h.add_grid(bad, h.root)

    def test_remove_level_grids(self):
        h, child = self._two_level()
        g2 = Grid(2, (10, 10, 10), (4, 4, 4), n_root=8)
        h.add_grid(g2, child)
        h.remove_level_grids(1)
        assert h.max_level == 0
        assert h.root.children == []
        assert child.parent is None and g2.parent is None
        assert child.children == []
        # the rebuild books destroyed grids; removal counts nothing
        assert h.grids_destroyed == 0

    def test_siblings(self):
        h = Hierarchy(n_root=8)
        a = Grid(1, (0, 0, 0), (4, 4, 4), n_root=8)
        b = Grid(1, (4, 0, 0), (4, 4, 4), n_root=8)
        c = Grid(1, (12, 12, 12), (4, 4, 4), n_root=8)
        for g in (a, b, c):
            h.add_grid(g, h.root)
        copies = h.level_topology(1).copies
        grids = h.level_grids(1)
        sibs = [grids[j] for j in copies[copies[:, 0] == 0, 1]]
        assert b in sibs and c not in sibs

    def test_finest_grid_at(self):
        h, child = self._two_level()
        assert h.finest_grid_at([0.5, 0.5, 0.5]) is child
        assert h.finest_grid_at([0.1, 0.1, 0.1]) is h.root

    def test_owned_particles(self):
        from repro.nbody.particles import ParticleSet

        h, child = self._two_level()
        h.particles = ParticleSet(
            DDArray(np.array([[0.5, 0.5, 0.5], [0.1, 0.1, 0.1]])),
            np.zeros((2, 3)),
            np.ones(2),
        )
        owned = {lvl: [(g, sel.tolist()) for g, sel in h.owned_particles(lvl)]
                 for lvl in (0, 1, 2)}
        assert owned == {0: [(h.root, [1])], 1: [(child, [0])], 2: []}

    def test_covering_mask(self):
        h, child = self._two_level()
        mask = h.covering_mask(h.root)
        assert mask.shape == (8, 8, 8)
        assert mask[3, 3, 3] and mask[2, 2, 2]
        assert not mask[0, 0, 0]
        assert mask.sum() == 4**3

    def test_sdr(self):
        h, _ = self._two_level()
        assert h.spatial_dynamic_range() == 16.0

    def test_grid_counters(self):
        h, _ = self._two_level()
        assert h.grids_created == 2


def _two_cube_hierarchy():
    """Fourteen level-1 grids over two overdense root cubes, each with one
    level-2 child, and the criteria that placed them."""
    from repro.amr import RefinementCriteria
    from repro.amr.boundary import set_boundary_values
    from repro.amr.rebuild import rebuild_hierarchy

    rho = np.ones((16, 16, 16))
    rho[3:6, 3:6, 3:6] = rho[10:13, 10:13, 10:13] = 10.0
    h = Hierarchy(n_root=16)
    h.root.fields["density"][h.root.interior] = rho
    set_boundary_values(h, 0)
    crit = RefinementCriteria(overdensity_threshold=3.0, max_level=2)
    rebuild_hierarchy(h, 1, crit)
    set_boundary_values(h, 1)
    return h, crit


class TestGridOwnedPlan:
    def test_rebuild_keeps_other_grids_windows_and_plans(self, kernel_tier):
        """A rebuild that changes the children of one level-1 grid keeps
        every other level-1 grid's face windows, its step plan and (on the
        compiled tier) the plan's pointer table; the changed grid gets new
        windows and a new plan."""
        from repro.amr.rebuild import rebuild_hierarchy
        from repro.hydro import PPMSolver

        h, crit = _two_cube_hierarchy()
        grids = h.level_grids(1)
        assert len(grids) > 1 and all(g.children for g in grids)
        solver = PPMSolver()
        before = {}
        for g in grids:
            windows, plan = g.hydro_plan()
            solver.step(g.fields, g.dx, 1e-6, windows=windows, plan=plan)
            before[g] = (windows, plan, plan.native)
            assert (plan.native is not None) == (kernel_tier == "cffi")
        changed = grids[-1]
        changed.fields["density"][changed.interior] = 1.0  # no flag left
        rebuild_hierarchy(h, 2, crit)
        assert h.level_grids(1) == grids and changed.children == []
        for g in grids:
            windows, plan = g.hydro_plan()
            old_windows, old_plan, old_native = before[g]
            if g is changed:
                assert windows is not old_windows and windows.children == []
                assert plan is not old_plan
            else:
                assert windows is old_windows and plan is old_plan
                assert plan.native is old_native

    def test_release_drops_windows_and_plan(self):
        """The windows name the grid's children and the plan its field
        arrays; both are kept between calls and dropped by release()."""
        h = Hierarchy(n_root=8)
        child = Grid(1, (4, 4, 4), (8, 8, 8), n_root=8)
        h.add_grid(child, h.root)
        windows, plan = h.root.hydro_plan()
        assert windows.children == [child.grid_id]
        assert plan.arrays[0] is h.root.fields["density"]
        again = h.root.hydro_plan()
        assert again[0] is windows and again[1] is plan
        h.root.release()
        assert h.root.windows is None and h.root.step_plan is None
