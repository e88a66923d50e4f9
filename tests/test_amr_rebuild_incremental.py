"""Incremental hierarchy rebuild: bitwise identity, freeing, counters.

The correctness gate for :mod:`repro.amr.rebuild`'s incremental path is
that it produces a hierarchy **bitwise identical** to the from-scratch
path (``incremental=False``) — same boxes in the same order, same field
contents, same times — while keeping every grid whose box survives and
freeing every retired grid's arrays at once.  These tests drive mirrored
hierarchies through identical flag evolutions (no-change, all-change,
some boxes kept and some moved, level-disappears, randomised) and compare
``Hierarchy.fingerprint()``, then pin that retired arrays are freed and
never aliased, the allocation counter, the parent-array bounds check in
``_fill_level``, the created/destroyed/reused counter split, which
cached level topologies a rebuild keeps, and — per kernel tier — that
the ghost fill never touches an interior cell and that the incremental
and from-scratch rebuilds still agree.
"""

import functools
import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.amr import Grid, Hierarchy, RefinementCriteria
from repro.amr.boundary import set_boundary_values
from repro.amr.rebuild import (BUFFER_CELLS, _dilate, _fill_level,
                               rebuild_hierarchy)
from repro.kernels import dispatch


def _blob_density(n_root, amplitude=10.0):
    centres = [(np.arange(n_root) + 0.5) / n_root] * 3
    x, y, z = np.meshgrid(*centres, indexing="ij")
    r2 = (x - 0.5) ** 2 + (y - 0.5) ** 2 + (z - 0.5) ** 2
    return 1.0 + amplitude * np.exp(-r2 / 0.01)


def _fresh_hierarchy(n_root=8, amplitude=10.0):
    h = Hierarchy(n_root=n_root)
    root = h.root
    root.fields["density"][root.interior] = _blob_density(n_root, amplitude)
    set_boundary_values(h, 0)
    return h


def _mirror_pair(n_root=8, amplitude=10.0):
    """Two hierarchies with identical initial data."""
    return (_fresh_hierarchy(n_root, amplitude),
            _fresh_hierarchy(n_root, amplitude))


def _set_root_density(h, interior_values):
    root = h.root
    root.fields["density"][root.interior] = interior_values
    set_boundary_values(h, 0)


CRIT1 = dict(overdensity_threshold=3.0, max_level=1)


def _boxes(h, level):
    """The set of ``(start, dims)`` boxes on one level."""
    return {(*g.start_index.tolist(), *g.dims.tolist())
            for g in h.level_grids(level)}


def _two_cubes(second, n=16):
    """Root density with two overdense 3^3 cubes: one fixed near the low
    corner, one whose low corner is ``second``."""
    rho = np.ones((n,) * 3)
    rho[3:6, 3:6, 3:6] = 10.0
    i, j, k = second
    rho[i:i + 3, j:j + 3, k:k + 3] = 10.0
    return rho


def _interiors(g):
    return {name: arr[g.interior].tobytes()
            for name, arr in [*g.fields.array_items(), ("phi", g.phi)]}


# ------------------------------------------------------- bitwise identity
class TestBitwiseIdentity:
    def test_no_change_full_reuse_identical(self):
        ha, hb = _mirror_pair()
        crit = RefinementCriteria(**CRIT1)
        for h in (ha, hb):
            rebuild_hierarchy(h, 1, crit)
        # second rebuild with unchanged flags: a reuses, b rebuilds raw
        rebuild_hierarchy(ha, 1, crit, incremental=True)
        rebuild_hierarchy(hb, 1, crit, incremental=False)
        assert ha.last_rebuild_stats["reused"] > 0
        assert ha.last_rebuild_stats["created"] == 0
        assert ha.last_rebuild_stats["reuse_rate"] == 1.0
        assert hb.last_rebuild_stats["reused"] == 0
        assert ha.fingerprint() == hb.fingerprint()

    def test_all_change_no_reuse_identical(self):
        ha, hb = _mirror_pair()
        crit = RefinementCriteria(**CRIT1)
        for h in (ha, hb):
            rebuild_hierarchy(h, 1, crit)
        # move the blob: every parent's flag set changes
        n = ha.root.dims[0]
        centres = [(np.arange(n) + 0.5) / n] * 3
        x, y, z = np.meshgrid(*centres, indexing="ij")
        r2 = (x - 0.25) ** 2 + (y - 0.25) ** 2 + (z - 0.25) ** 2
        moved = 1.0 + 10.0 * np.exp(-r2 / 0.01)
        boxes_before = _boxes(ha, 1)
        for h in (ha, hb):
            _set_root_density(h, moved)
        rebuild_hierarchy(ha, 1, crit, incremental=True)
        rebuild_hierarchy(hb, 1, crit, incremental=False)
        # only a box present before and after keeps its grid
        assert ha.last_rebuild_stats["reused"] == len(
            boxes_before & _boxes(ha, 1))
        assert ha.last_rebuild_stats["created"] > 0
        assert ha.fingerprint() == hb.fingerprint()
        assert ha.grids_per_level() == hb.grids_per_level()

    def test_level_disappears_identical(self):
        ha, hb = _mirror_pair()
        crit = RefinementCriteria(**CRIT1)
        for h in (ha, hb):
            rebuild_hierarchy(h, 1, crit)
            assert h.max_level == 1
            _set_root_density(h, np.ones(tuple(int(d) for d in h.root.dims)))
        rebuild_hierarchy(ha, 1, crit, incremental=True)
        rebuild_hierarchy(hb, 1, crit, incremental=False)
        assert ha.max_level == 0
        assert hb.max_level == 0
        assert ha.fingerprint() == hb.fingerprint()
        # and coming back after the wipe still matches
        blob = _blob_density(int(ha.root.dims[0]))
        for h in (ha, hb):
            _set_root_density(h, blob)
        rebuild_hierarchy(ha, 1, crit, incremental=True)
        rebuild_hierarchy(hb, 1, crit, incremental=False)
        assert ha.fingerprint() == hb.fingerprint()

    def test_deep_hierarchy_identical(self):
        """Two refined levels: level-1 parents reuse their level-2 children."""
        ha, hb = _mirror_pair(n_root=8, amplitude=30.0)
        crit = RefinementCriteria(overdensity_threshold=3.0, max_level=2)
        for h in (ha, hb):
            rebuild_hierarchy(h, 1, crit)
            assert h.max_level == 2
        rebuild_hierarchy(ha, 1, crit, incremental=True)
        rebuild_hierarchy(hb, 1, crit, incremental=False)
        assert ha.last_rebuild_stats["reused"] > 0
        assert ha.fingerprint() == hb.fingerprint()

    def _move_second_cube(self, max_level):
        """Rebuild mirrored hierarchies after the second cube moves; the
        first cube's boxes survive.  Checks every survivor and returns
        the reusing hierarchy, each level's grids before the move and the
        number of grids kept."""
        crit = RefinementCriteria(overdensity_threshold=3.0,
                                  max_level=max_level)
        ha, hb = Hierarchy(n_root=16), Hierarchy(n_root=16)
        for h in (ha, hb):
            _set_root_density(h, _two_cubes((10, 10, 10)))
            rebuild_hierarchy(h, 1, crit)
        assert ha.max_level == max_level
        before = {l: list(ha.level_grids(l))
                  for l in range(1, max_level + 1)}
        saved = {g.grid_id: (g.fields["density"], g.phi, _interiors(g))
                 for grids in before.values() for g in grids}
        for h in (ha, hb):
            _set_root_density(h, _two_cubes((10, 9, 11)))
        rebuild_hierarchy(ha, 1, crit)
        rebuild_hierarchy(hb, 1, crit, incremental=False)
        assert ha.fingerprint() == hb.fingerprint()
        assert ha.grids_per_level() == hb.grids_per_level()
        kept = 0
        for l, grids in before.items():
            by_box = {(*g.start_index.tolist(), *g.dims.tolist()): g
                      for g in grids}
            for g in ha.level_grids(l):
                old = by_box.get((*g.start_index.tolist(), *g.dims.tolist()))
                if old is None:
                    # a moved box: a new grid
                    assert all(g is not o for o in grids)
                    continue
                # a surviving box keeps its Grid, its arrays and its interior
                assert g is old
                density, phi, interiors = saved[g.grid_id]
                assert g.fields["density"] is density and g.phi is phi
                assert _interiors(g) == interiors
                kept += 1
        assert ha.last_rebuild_stats["reused"] == kept
        assert ha.last_rebuild_stats["created"] == ha.n_grids - 1 - kept
        return ha, before, kept

    def test_surviving_box_keeps_grid_moved_box_rebuilt(self):
        """One root flag set: the first cube's boxes survive, the second
        cube's move.  Only the survivors keep their grids."""
        ha, before, kept = self._move_second_cube(max_level=1)
        assert 0 < kept < len(before[1])

    def test_box_reuse_two_levels_under_kept_parent(self):
        """The same two levels down: a level-2 box under a level-1 grid
        that was itself kept by box keeps its grid too."""
        ha, before, kept = self._move_second_cube(max_level=2)
        kept2 = [g for g in ha.level_grids(2) if g in before[2]]
        assert kept2
        for g in kept2:
            assert g.parent in before[1]  # the parent was kept as well
        assert kept < len(before[1]) + len(before[2])

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=12, deadline=None)
    def test_random_flag_evolution_identical(self, seed):
        """Randomised density evolutions: incremental == from-scratch,
        epoch after epoch (mixtures of unchanged / grown / shrunk /
        vanished flag regions)."""
        rng = np.random.default_rng(seed)
        ha, hb = _mirror_pair()
        crit = RefinementCriteria(**CRIT1)
        n = int(ha.root.dims[0])
        base = _blob_density(n)
        for _ in range(4):
            op = rng.integers(0, 4)
            if op == 0:
                pass  # unchanged flags -> full reuse
            elif op == 1:
                # add a random overdense spot (local flag change)
                i, j, k = rng.integers(0, n, size=3)
                base = base.copy()
                base[i, j, k] += 10.0
            elif op == 2:
                # rescale: grows/shrinks the flagged region globally
                base = 1.0 + (base - 1.0) * float(rng.uniform(0.2, 2.0))
            else:
                # wipe: the refined level disappears
                base = np.ones_like(base)
            for h in (ha, hb):
                _set_root_density(h, base)
            rebuild_hierarchy(ha, 1, crit, incremental=True)
            rebuild_hierarchy(hb, 1, crit, incremental=False)
            assert ha.fingerprint() == hb.fingerprint()
            assert ha.grids_per_level() == hb.grids_per_level()


# --------------------------------------------------------- buffer zone
def _dilation_cases():
    rng = np.random.default_rng(11)
    for density in (0.02, 0.15, 0.5):
        yield pytest.param(rng.random((12, 9, 7)) < density,
                           id=f"random{density}")
    for shape in ((1, 6, 5), (2, 6, 5), (6, 1, 2), (1, 1, 1), (2, 2, 2)):
        yield pytest.param(rng.random(shape) < 0.4,
                           id="thin" + "x".join(map(str, shape)))
    yield pytest.param(np.zeros((5, 6, 7), dtype=bool), id="all_false")
    yield pytest.param(np.ones((5, 6, 7), dtype=bool), id="all_true")
    corner = np.zeros((5, 6, 7), dtype=bool)
    corner[0, 0, 0] = True
    yield pytest.param(corner, id="corner")


class TestBufferDilation:
    """The rebuild's NumPy buffer-zone dilation is scipy's
    ``binary_dilation`` (cross structure, ``border_value=0``) bit for bit,
    so clustering and reuse are those of the scipy call."""

    @pytest.mark.parametrize("flags", list(_dilation_cases()))
    def test_matches_scipy(self, flags):
        ndimage = pytest.importorskip("scipy.ndimage")
        ref = ndimage.binary_dilation(flags, iterations=BUFFER_CELLS)
        got = _dilate(flags, BUFFER_CELLS)
        assert got.dtype == ref.dtype
        np.testing.assert_array_equal(got, ref)


class TestRetiredGrids:
    def test_retired_grids_hold_no_arrays(self):
        """A rebuild frees a retired grid's arrays at once, by reference
        counting alone (the cyclic collector is off): after it, no array
        of any grid it retired is alive — its step plan and, on the
        compiled tier, the plan's pointer table pin none, nor do the
        level's ghost and Poisson plans — and no two live grids share
        storage."""
        from repro.amr.gravity import HierarchyGravity
        from repro.hydro import PPMSolver

        h = _fresh_hierarchy()
        crit = RefinementCriteria(**CRIT1)
        rebuild_hierarchy(h, 1, crit)
        set_boundary_values(h, 1)
        HierarchyGravity(g_code=1.0).solve_level(h, 1)
        topo = h.level_topology(1)
        ghost, poisson = topo.ghost_plan(), topo.poisson()
        # the topology, and what only its plans hold
        level_plans = [weakref.ref(x) for x in (
            topo, topo.rims, ghost.t_geom, poisson.rim_fill.t_geom)]
        ghost = poisson = None
        retired = list(h.level_grids(1))
        compiled = dispatch.active_backend() == "cffi"
        refs = []
        for g in retired:
            g.save_old_state()
            windows, plan = g.hydro_plan()
            PPMSolver().step(g.fields, g.dx, 1e-6, windows=windows,
                             plan=plan)
            assert (plan.native is not None) == compiled
            refs += [weakref.ref(arr) for _, arr in
                     [*g.fields.array_items(), *g.old_fields.array_items(),
                      ("phi", g.phi), ("windows", windows.table),
                      ("plan", plan.table)]]
        windows = plan = topo = None
        gc.disable()
        try:
            rebuild_hierarchy(h, 1, crit, incremental=False)
            assert h.last_rebuild_stats["destroyed"] == len(retired)
            for g in retired:
                assert g.fields is None and g.old_fields is None
                assert g.phi is None
                assert g.flux_accumulator is None and g.last_fluxes is None
                assert g.windows is None and g.step_plan is None
            assert not [r for r in refs if r() is not None]
            assert not [r for r in level_plans if r() is not None]
        finally:
            gc.enable()
        seen = {}
        for g in h.all_grids():
            for name, arr in list(g.fields.array_items()) + [("phi", g.phi)]:
                assert id(arr) not in seen, (
                    f"{name} of {g} aliases {seen[id(arr)]}")
                seen[id(arr)] = (name, g)

    @pytest.mark.parametrize("emptied", ["capped", "unflagged"])
    def test_emptied_level_keeps_no_topology(self, emptied):
        """A rebuild that empties the deepest level — a lower level cap,
        or no flagged cell left — drops that level's cached topology, with
        the plans and arrays it holds, by reference counting alone."""
        from repro.amr.gravity import HierarchyGravity

        h = _fresh_hierarchy()
        crit = RefinementCriteria(overdensity_threshold=3.0, max_level=2)
        rebuild_hierarchy(h, 1, crit)
        deepest = h.max_level
        assert deepest == 2
        grav = HierarchyGravity(g_code=1.0)
        for level in range(deepest + 1):
            set_boundary_values(h, level)
            grav.solve_level(h, level)
        topo = h.level_topology(deepest)
        ghost, poisson = topo.ghost_plan(), topo.poisson()
        refs = [weakref.ref(x) for x in (
            topo, topo.rims, ghost.t_geom, poisson.rim_fill.t_geom)]
        refs += [weakref.ref(arr) for g in topo.grids
                 for _, arr in [*g.fields.array_items(), ("phi", g.phi)]]
        topo = ghost = poisson = None
        if emptied == "capped":
            crit = RefinementCriteria(**CRIT1)
        else:
            _set_root_density(h, np.ones((8, 8, 8)))
        gc.disable()
        try:
            rebuild_hierarchy(h, 1, crit)
            assert h.max_level < deepest
            assert not [r for r in refs if r() is not None]
        finally:
            gc.enable()

    def test_rebuild_counts_allocated_arrays(self):
        """``hierarchy.pool`` keeps only the two counters the benchmark
        reads: ``acquires`` counts the arrays rebuilt grids allocate (their
        fields and potential), a kept grid allocates none, and ``hits``
        stays 0."""
        h = _fresh_hierarchy()
        crit = RefinementCriteria(**CRIT1)
        per_grid = len(h.root.fields.array_items()) + 1
        rebuild_hierarchy(h, 1, crit)
        created = h.last_rebuild_stats["created"]
        assert created > 0
        assert h.pool.acquires == per_grid * created
        rebuild_hierarchy(h, 1, crit)  # every box survives
        assert h.last_rebuild_stats["created"] == 0
        assert h.pool.acquires == per_grid * created
        rebuild_hierarchy(h, 1, crit, incremental=False)
        assert h.pool.acquires == 2 * per_grid * created
        assert h.pool.hits == 0


# ------------------------------------------- parent-slab bounds (bugfix)
class TestFillBounds:
    def test_child_flush_at_parent_edge_small_nghost(self):
        """A child flush against its parent's edge with nghost=1 used to
        produce a negative parent-slice start that silently wrapped,
        filling the child's low ghosts from the far side of the parent.
        The parent's arrays are now read in place, with zero slope at
        their edge."""
        n = 8
        h = Hierarchy(n_root=n, nghost=1)
        root = h.root
        # x-ramp: wraparound would pull high-x values into low-x ghosts
        shape = root.shape_with_ghosts
        xs = np.arange(shape[0], dtype=float) - root.nghost
        root.fields["density"][:] = 10.0 + xs[:, None, None]  # incl. ghosts

        child = Grid(1, (0, 0, 0), (4, 4, 4), n_root=n, nghost=1)
        h.add_grid(child, root)
        _fill_level([(child, root, False)], [])
        rho = child.fields["density"]
        # the low-x ghost plane sits at fine x=-1 -> coarse x~-0.5, where
        # the ramp is ~9.5; a wrapping slice would have read the high-x
        # end of the parent array (~19) instead
        assert np.all(rho[0] > 8.0)
        assert np.all(rho[0] < 11.0)

    def test_non_nested_region_raises(self):
        """A child whose ghost zones need parent cells outside the
        parent's allocated extent is a broken nesting invariant and must
        fail loudly before the kernel sees it, not wrap."""
        n = 8
        h = Hierarchy(n_root=n, nghost=1)
        child = Grid(1, (16, 0, 0), (4, 4, 4), n_root=n, nghost=1)
        child.allocate()
        with pytest.raises(ValueError, match="not nested"):
            _fill_level([(child, h.root, False)], [])


# ------------------------------------------------------------- counters
class TestCounters:
    def test_created_destroyed_reused_split(self):
        h = _fresh_hierarchy()
        crit = RefinementCriteria(**CRIT1)
        c0, d0, r0 = h.grids_created, h.grids_destroyed, h.grids_reused
        rebuild_hierarchy(h, 1, crit)
        n1 = len(h.level_grids(1))
        assert h.grids_created == c0 + n1
        assert h.grids_destroyed == d0
        assert h.grids_reused == r0
        # full-reuse rebuild: only the reused counter moves
        rebuild_hierarchy(h, 1, crit)
        assert h.grids_created == c0 + n1
        assert h.grids_destroyed == d0
        assert h.grids_reused == r0 + n1
        stats = h.last_rebuild_stats
        assert stats["created"] == 0
        assert stats["destroyed"] == 0
        assert stats["reused"] == n1
        assert stats["parents_reused"] >= 1
        # from-scratch rebuild: created and destroyed move together
        rebuild_hierarchy(h, 1, crit, incremental=False)
        assert h.grids_created == c0 + 2 * n1
        assert h.grids_destroyed == d0 + n1
        assert h.grids_reused == r0 + n1

    def test_hierarchy_stats_reuse_series(self):
        """The Fig. 5 allocation series from the step records: the rebuild
        blocks of the root steps add up to the hierarchy's counters."""
        from repro.runtime.telemetry import step_record

        sim = _build_sim()
        h = sim.hierarchy
        before = (h.grids_created, h.grids_destroyed, h.grids_reused)
        totals = dict.fromkeys(("created", "destroyed", "reused"), 0)
        for step in range(1, 4):
            dt = sim.evolver.advance_root_step(0.8)
            block = step_record(sim.evolver, step, dt)["rebuild"]
            for key in totals:
                totals[key] += block[key]
        assert totals["reused"] > 0
        assert (totals["created"], totals["destroyed"], totals["reused"]) == (
            h.grids_created - before[0], h.grids_destroyed - before[1],
            h.grids_reused - before[2])


# ------------------------------------------------ topology across rebuilds
class TestBulkUpdate:
    """A rebuild (one bulk of structural updates) keeps a level's cached
    topology exactly when the level's grids and its parent level's grids
    are the same objects afterwards: the level's epoch goes on."""

    def test_rebuild_that_changes_level_gives_new_topology(self):
        h = _fresh_hierarchy()
        crit = RefinementCriteria(**CRIT1)
        rebuild_hierarchy(h, 1, crit)
        topo = h.level_topology(1)
        # the same boxes, every one a new grid
        rebuild_hierarchy(h, 1, crit, incremental=False)
        fresh = h.level_topology(1)
        assert fresh is not topo
        assert fresh.grids == h.level_grids(1)

    def test_full_reuse_keeps_epoch_and_caches(self):
        from repro.amr.gravity import HierarchyGravity

        h = _fresh_hierarchy()
        crit = RefinementCriteria(**CRIT1)
        rebuild_hierarchy(h, 1, crit)
        topo = h.level_topology(1)
        windows, plan = h.root.hydro_plan()
        set_boundary_values(h, 1)
        HierarchyGravity(g_code=1.0).solve_level(h, 1)
        ghost, poisson = topo.ghost_plan(), topo.poisson()
        rebuild_hierarchy(h, 1, crit)  # nothing changes
        assert h.last_rebuild_stats["reuse_rate"] == 1.0
        assert h.level_topology(1) is topo  # cache stayed warm
        again = h.root.hydro_plan()  # the root's children are the same
        assert again[0] is windows and again[1] is plan
        # and so did the level's checked plans
        assert topo.ghost_plan() is ghost and topo.poisson() is poisson

    def test_query_between_remove_and_readd_sees_current_members(self):
        h = _fresh_hierarchy()
        crit = RefinementCriteria(**CRIT1)
        rebuild_hierarchy(h, 1, crit)
        grids = list(h.level_grids(1))
        h.level_topology(1)
        h.remove_level_grids(1)
        assert h.level_topology(1).grids == []
        for g in grids:
            h.add_grid(g, h.root, reused=True)
        assert h.level_topology(1).grids == grids

    def test_stale_topology_goes_before_new_grids_allocate(self,
                                                          monkeypatch):
        """A rebuild evicts a changed level's cached topology, with the
        plans that pin the old grids' arrays, before it allocates the
        level's first new grid; a level whose grids it keeps keeps its
        topology throughout."""
        h = _fresh_hierarchy()
        crit = RefinementCriteria(overdensity_threshold=3.0, max_level=2)
        rebuild_hierarchy(h, 1, crit)
        level1, level2 = list(h.level_grids(1)), list(h.level_grids(2))
        assert level2
        kept, stale = h.level_topology(1), h.level_topology(2)
        # the root is unchanged, so level 1 keeps its boxes; level 2's
        # flagged cells move to one corner of each level-1 grid
        for g in level1:
            rho = g.fields["density"]
            rho[...] = 1.0
            lo = g.nghost
            rho[lo:lo + 2, lo:lo + 2, lo:lo + 2] = 10.0
        cached = []
        allocate = Grid.allocate

        def spy(grid, *args, **kwargs):
            if grid.level == 2 and not cached:
                cached.append(dict(h._topologies))
            return allocate(grid, *args, **kwargs)

        monkeypatch.setattr(Grid, "allocate", spy)
        rebuild_hierarchy(h, 1, crit)
        assert h.level_grids(1) == level1
        assert set(h.level_grids(2)) - set(level2)  # new grids on level 2
        assert len(cached) == 1
        assert cached[0].get(1) is kept
        assert cached[0].get(2) is None
        assert stale not in cached[0].values()
        assert h.level_topology(1) is kept

    def test_kept_grid_under_new_parent_gets_new_topology(self):
        """A level whose members are unchanged but whose parent level was
        replaced keeps no cached topology: its parents are the new ones."""
        h = _fresh_hierarchy()
        old_parent = Grid(1, (4, 4, 4), (8, 8, 8), n_root=8)
        child = Grid(2, (10, 10, 10), (4, 4, 4), n_root=8)
        h.add_grid(old_parent, h.root)
        h.add_grid(child, old_parent)
        assert h.level_topology(2).parents == [old_parent]
        h.remove_level_grids(1)
        new_parent = Grid(1, (4, 4, 4), (8, 8, 8), n_root=8)
        h.add_grid(new_parent, h.root)
        h.add_grid(child, new_parent)
        assert h.level_topology(2).parents == [new_parent]


# ------------------------------------------------- evolver + backends
def _build_sim(backend=None, workers=None):
    from repro import Simulation, SimulationConfig

    sim = Simulation(SimulationConfig(
        n_root=8, self_gravity=True, max_level=1, refine_overdensity=3.0,
        g_code=2.0, cfl=0.3, exec_backend=backend, workers=workers,
    ))
    sim.set_density(lambda x, y, z: 1 + 10 * np.exp(
        -((x - .5) ** 2 + (y - .5) ** 2 + (z - .5) ** 2) / 0.01))
    sim.set_field("internal", lambda x, y, z: np.full_like(x, 0.05))
    sim.initialize()
    return sim


class TestEvolverIntegration:
    def test_incremental_run_bitwise_identical_across_backends(
            self, monkeypatch):
        """Full evolver steps (hydro + gravity + rebuild): the incremental
        path matches the from-scratch path on every exec backend."""
        import repro.amr.evolve as evolve_mod

        t_end = 0.8
        reference = _build_sim()
        with monkeypatch.context() as m:
            m.setattr(evolve_mod, "rebuild_hierarchy", functools.partial(
                evolve_mod.rebuild_hierarchy, incremental=False))
            for _ in range(3):
                reference.evolver.advance_root_step(t_end)
        assert reference.hierarchy.grids_reused == 0
        want = reference.hierarchy.fingerprint()
        for backend, workers in [(None, None), ("serial", 1),
                                 ("thread", 2)]:
            sim = _build_sim(backend=backend, workers=workers)
            for _ in range(3):
                sim.evolver.advance_root_step(t_end)
            assert sim.hierarchy.fingerprint() == want, (backend, workers)

    def test_rebuild_step_stats_and_telemetry(self):
        from repro.runtime.telemetry import step_record

        sim = _build_sim()
        t_end = 0.8
        sim.evolver.advance_root_step(t_end)
        record = step_record(sim.evolver, 1, 0.01)
        block = record["rebuild"]
        assert {"created", "destroyed", "reused", "reuse_rate"} <= set(block)
        assert all(key.startswith("flags.") for key in set(block) - {
            "created", "destroyed", "reused", "reuse_rate"})
        assert block == sim.evolver.step_stats["rebuild"].snapshot()
        # steady state: later steps should mostly reuse
        for _ in range(2):
            sim.evolver.advance_root_step(t_end)
        assert sim.evolver.step_stats["rebuild"].snapshot()["reused"] > 0

    def test_step_record_flags_sum_every_rebuild_of_the_step(self,
                                                             monkeypatch):
        """A root step on a two-level run calls rebuild_hierarchy(h, 2)
        after each level-1 step and rebuild_hierarchy(h, 1) last; the
        record's flag counts are the sum over all of those calls."""
        import repro.amr.evolve as evolve_mod
        from repro import Simulation, SimulationConfig
        from repro.runtime.telemetry import step_record

        sim = Simulation(SimulationConfig(
            n_root=8, self_gravity=True, max_level=2, refine_overdensity=3.0,
            g_code=2.0, cfl=0.3,
        ))
        sim.set_density(lambda x, y, z: 1 + 30 * np.exp(
            -((x - .5) ** 2 + (y - .5) ** 2 + (z - .5) ** 2) / 0.01))
        sim.set_field("internal", lambda x, y, z: np.full_like(x, 0.05))
        sim.initialize()
        assert sim.hierarchy.max_level == 2

        calls = []
        rebuild = evolve_mod.rebuild_hierarchy

        def recording(h, level, *args, **kwargs):
            rebuild(h, level, *args, **kwargs)
            calls.append((level, dict(h.last_rebuild_stats["flags"])))

        monkeypatch.setattr(evolve_mod, "rebuild_hierarchy", recording)
        dt = sim.evolver.advance_root_step(0.8)
        assert len(calls) >= 2 and calls[-1][0] == 1
        want: dict = {}
        for _, flags in calls:
            for criterion, count in flags.items():
                want[criterion] = want.get(criterion, 0) + count
        assert want != calls[-1][1]  # the last call alone undercounts
        block = step_record(sim.evolver, 1, dt)["rebuild"]
        got = {key[len("flags."):]: value for key, value in block.items()
               if key.startswith("flags.")}
        assert got == want


# ------------------------------------------------------- per kernel tier
def _two_level_hierarchy():
    h = _fresh_hierarchy(n_root=8, amplitude=30.0)
    rebuild_hierarchy(
        h, 1, RefinementCriteria(overdensity_threshold=3.0, max_level=2))
    assert h.max_level == 2
    return h


class TestKernelTiers:
    def test_boundary_fill_leaves_interiors_untouched(self, kernel_tier):
        """SetBoundaryValues writes ghost zones only: with the parents
        mid-step (old and new states differ, 0 < frac < 1) every child
        interior cell keeps its bytes and every ghost cell is rewritten."""
        h = _two_level_hierarchy()
        rng = np.random.default_rng(5)
        for level in (0, 1):
            for g in h.level_grids(level):
                g.save_old_state()
                g.fields["density"] *= 1.0 + 0.1 * rng.random(
                    g.fields["density"].shape)
                g.time = g.old_time + 1.0
        for level in (1, 2):
            grids = h.level_grids(level)
            for g in grids:
                g.time = g.parent.old_time + 0.37
                for _, arr in g.fields.array_items():
                    arr[...] = -1.0          # ghosts: must be overwritten
                    arr[g.interior] = rng.random(tuple(g.dims))
                g.phi[...] = -1.0
            before = [{k: v[g.interior].copy()
                       for k, v in g.fields.array_items()} for g in grids]
            set_boundary_values(h, level)
            for g, saved in zip(grids, before):
                for name, arr in g.fields.array_items():
                    assert arr[g.interior].tobytes() == saved[name].tobytes()
                    if name == "density":
                        shell = np.ones(arr.shape, dtype=bool)
                        shell[g.interior] = False
                        assert np.all(arr[shell] > 0.0)
                assert np.all(g.phi[g.interior] == -1.0)

    def test_incremental_matches_from_scratch(self, kernel_tier):
        """Reuse + ghost-shell refresh vs re-cluster + full fill, two
        refined levels, over unchanged, grown and moved flag sets — and
        both equal to what the NumPy tier builds."""
        def evolve(incremental):
            h = _two_level_hierarchy()
            crit = RefinementCriteria(overdensity_threshold=3.0, max_level=2)
            fps = []
            base = _blob_density(8, 30.0)
            for scale in (1.0, 1.0, 1.3, 0.6):
                _set_root_density(h, 1.0 + (base - 1.0) * scale)
                rebuild_hierarchy(h, 1, crit, incremental=incremental)
                fps.append(h.fingerprint())
            return fps, h.grids_reused

        inc, reused = evolve(True)
        raw, _ = evolve(False)
        assert reused > 0
        assert inc == raw
        dispatch.set_backend("numpy", env=False)
        assert evolve(True)[0] == inc
