"""Topology-cache behaviour: a level's cached topology lives exactly as
long as its members and its parent level's members, overlap-table
correctness, and the cached consumers producing the same answers as
direct scans."""

import numpy as np
import pytest

from repro.amr import Grid, Hierarchy
from repro.amr.boundary import set_boundary_values
from repro.amr.topology import LevelTopology
from repro.nbody.particles import ParticleSet
from repro.perf import ComponentTimers
from repro.precision import DDArray
from tests.oracles import copy_from_siblings, ghost_overlap, shell_boxes


def _grid(level, start, dims, n_root=8):
    return Grid(level, start, dims, n_root=n_root)


def _owned(h, level):
    return [(g, sel.tolist()) for g, sel in h.owned_particles(level)]


def _siblings(h, grid):
    """The sources of ``grid``'s rows in its level's ``copies`` table."""
    topo = h.level_topology(grid.level)
    rows = topo.copies[topo.copies[:, 0] == topo.grids.index(grid)]
    return [topo.grids[j] for j in rows[:, 1]]


class TestSiblingMap:
    def test_links_match_direct_scan(self):
        h = Hierarchy(n_root=8)
        a = _grid(1, (0, 0, 0), (4, 4, 4))
        b = _grid(1, (4, 0, 0), (4, 4, 4))
        c = _grid(1, (12, 12, 12), (4, 4, 4))
        for g in (a, b, c):
            h.add_grid(g, h.root)
        assert _siblings(h, a) == [b]
        assert _siblings(h, b) == [a]
        assert _siblings(h, c) == []

    def test_rim_slices_only_when_rim_touches(self):
        h = Hierarchy(n_root=8)
        a = _grid(1, (0, 0, 0), (4, 4, 4))
        b = _grid(1, (4, 0, 0), (4, 4, 4))   # face neighbour: rim overlap
        c = _grid(1, (6, 4, 4), (4, 4, 4))   # within ghosts (3) but not rim
        for g in (a, b, c):
            h.add_grid(g, h.root)
        topo = h.level_topology(1)
        pairs = {(t, s) for t, s in topo.copies[:, :2].tolist()}
        rim_pairs = {(t, s) for t, s in topo.rim_copies[:, :2].tolist()}
        assert {(0, 1), (0, 2)} <= pairs
        assert (0, 1) in rim_pairs and (0, 2) not in rim_pairs
        assert (0, 2) not in {(t, s) for t, s, *_ in
                              topo.rim_rows.tolist()}

    def test_build_matches_bruteforce_random(self):
        _assert_tables_match_bruteforce(_random_grids(30, 16, seed=3))

    def test_build_crosses_the_pair_block(self):
        """More grids than one row block of the all-pairs test: rows past
        the first block must pair with every column."""
        grids = _random_grids(320, 32, seed=4)
        assert len(grids) > 256
        _assert_tables_match_bruteforce(grids)


def _random_grids(n, n_root, seed):
    """``n`` small, possibly overlapping level-1 boxes (the tables do not
    need disjoint interiors)."""
    rng = np.random.default_rng(seed)
    grids = []
    for _ in range(n):
        start = rng.integers(0, 2 * n_root - 4, size=3)
        dims = rng.integers(2, 5, size=3)
        hi = np.minimum(start + dims, 2 * n_root)
        grids.append(Grid(1, tuple(start), tuple(hi - start), n_root=n_root))
    return grids


def _assert_tables_match_bruteforce(grids, ng=3):
    """``copies``, ``rim_copies`` and the gravity exchange's rows (the level
    plan's ``rim_rows``: the box's first cell in the target's rim and the
    source's potential, and its extent), row for row and in order,
    against a per-pair scan: ghost boxes from ``ghost_overlap``, rim
    boxes from the 1-cell rim rule applied to every pair (not only the
    pairs within ghost range)."""
    topo = LevelTopology(grids, ng)
    copies, rims, exchange = [], [], []
    for i, g in enumerate(grids):
        for j, o in enumerate(grids):
            if o is g:
                continue
            ghost = ghost_overlap(g, o)
            if ghost is not None:
                copies.append([i, j, *ghost[0], *ghost[1]])
            rl = np.maximum(g.start_index - 1, o.start_index)
            rh = np.minimum(g.end_index + 1, o.end_index)
            if np.all(rl < rh):
                rims.append([i, j, *rl, *rh])
                exchange.append([i, j, *(rl - g.start_index + 1),
                                 *(rl - o.start_index + ng), *(rh - rl)])
    np.testing.assert_array_equal(topo.copies, np.reshape(copies, (-1, 8)))
    np.testing.assert_array_equal(topo.rim_copies, np.reshape(rims, (-1, 8)))
    np.testing.assert_array_equal(topo.rim_rows,
                                  np.reshape(exchange, (-1, 11)))


class TestEpochInvalidation:
    """A cached topology is served while the level's grids and its parent
    level's grids are the very objects it was built from.  The tests call
    that span the level's epoch; no counter tracks it, a structural change
    ends it by changing the members."""

    def test_add_grid_bumps_epoch_and_refreshes_siblings(self):
        h = Hierarchy(n_root=8)
        a = _grid(1, (0, 0, 0), (4, 4, 4))
        h.add_grid(a, h.root)
        topo = h.level_topology(1)
        assert _siblings(h, a) == []
        b = _grid(1, (4, 0, 0), (4, 4, 4))
        h.add_grid(b, h.root)
        assert h.level_topology(1) is not topo
        assert _siblings(h, a) == [b]  # stale topology must not be served

    def test_remove_level_grids_bumps_epoch_and_refreshes(self):
        h = Hierarchy(n_root=8)
        a = _grid(1, (0, 0, 0), (4, 4, 4))
        b = _grid(1, (4, 0, 0), (4, 4, 4))
        h.add_grid(a, h.root)
        h.add_grid(b, h.root)
        assert _siblings(h, a) == [b]
        before = h.level_topology(1)
        h.remove_level_grids(1)
        topo = h.level_topology(1)
        assert topo is not before
        assert topo.grids == [] and len(topo.copies) == 0

    def test_same_epoch_reuses_map_object(self):
        h = Hierarchy(n_root=8)
        h.add_grid(_grid(1, (0, 0, 0), (4, 4, 4)), h.root)
        h.add_grid(_grid(1, (4, 0, 0), (4, 4, 4)), h.root)
        topo = h.level_topology(1)
        assert h.level_topology(1) is topo

    def test_new_childless_grid_gets_fresh_face_windows(self):
        """Adding a childless grid to level 1 leaves level 2's members and
        parents as they were: the new grid gets windows of its own with
        no child rows, and ``a``, whose children did not change, keeps its
        windows object."""
        h = Hierarchy(n_root=8)
        a = _grid(1, (0, 0, 0), (8, 8, 8))
        h.add_grid(a, h.root)
        child = _grid(2, (4, 4, 4), (4, 4, 4))
        h.add_grid(child, a)
        windows = a.hydro_plan()[0]
        assert windows.children == [child.grid_id]
        b = _grid(1, (8, 8, 8), (4, 4, 4))
        h.add_grid(b, h.root)
        fresh = b.hydro_plan()[0]
        assert fresh.children == [] and len(fresh.table) == 3
        assert a.hydro_plan()[0] is windows
        assert h.level_topology(2).parents == [a]

    def test_particle_ownership_follows_tree_and_motion(self):
        """Ownership is derived on every call, so a structural change or a
        particle move is seen at once: there is no cache to invalidate."""
        h = Hierarchy(n_root=8)
        child = _grid(1, (4, 4, 4), (8, 8, 8))
        h.add_grid(child, h.root)
        h.particles = ParticleSet(
            DDArray(np.array([[0.5, 0.5, 0.5], [0.1, 0.1, 0.1]])),
            np.zeros((2, 3)), np.ones(2),
        )
        assert _owned(h, 0) == [(h.root, [1])]
        assert _owned(h, 1) == [(child, [0])]

        # structural change
        h.remove_level_grids(1)
        assert _owned(h, 0) == [(h.root, [0, 1])]
        assert _owned(h, 1) == []

        # particle motion
        child = _grid(1, (4, 4, 4), (8, 8, 8))
        h.add_grid(child, h.root)
        h.particles.positions.hi[0] = [0.2, 0.2, 0.2]
        assert _owned(h, 0) == [(h.root, [0, 1])]
        assert _owned(h, 1) == []

    def test_particle_replacement_is_seen(self):
        h = Hierarchy(n_root=8)
        h.particles = ParticleSet(
            DDArray(np.array([[0.5, 0.5, 0.5]])), np.zeros((1, 3)), np.ones(1)
        )
        assert _owned(h, 0) == [(h.root, [0])]
        h.particles = ParticleSet.empty()
        assert _owned(h, 0) == []


class TestTimersSection:
    def test_topology_section_registers(self):
        h = Hierarchy(n_root=8)
        h.timers = ComponentTimers()
        h.add_grid(_grid(1, (0, 0, 0), (8, 8, 8)), h.root)
        set_boundary_values(h, 1)
        assert h.timers.totals.get("topology", 0.0) > 0.0
        assert h.timers.counts["topology"] >= 1


def _reference_fill(h, frac) -> None:
    """Level 1's ghost fill written out with the NumPy pieces: prolong
    each grid's whole ghost shell from the root at time fraction
    ``frac`` (its new state alone when ``frac`` is 1), then copy from
    every sibling."""
    from repro.amr.interpolation import prolong_boxes

    root, grids = h.root, h.level_grids(1)
    names = [k for k, _ in root.fields.array_items()]
    old = (None if frac >= 1.0 else
           [root.old_fields[n] for n in names] + [None])
    for g in grids:
        prolong_boxes(
            [root.fields[n] for n in names] + [root.phi], old, frac,
            [n not in ("vx", "vy", "vz") for n in names] + [False],
            root.start_index - root.nghost, 2,
            [g.fields[n] for n in names] + [g.phi],
            g.start_index - g.nghost,
            shell_boxes(g.start_index, g.end_index, g.nghost))
    for g in grids:
        copy_from_siblings(g, [o for o in grids if o is not g])


class TestConsumersAgree:
    def test_set_boundary_values_matches_per_grid_reference(self):
        """The level call (one ``fill.level``, covered ghost cells never
        prolonged) on every tier == the two-step procedure written out
        with the NumPy pieces: prolong each grid's whole ghost shell, then
        copy from every sibling — with the parent mid-step."""
        from repro.amr.rebuild import _fill_level
        from repro.kernels import dispatch
        from repro.precision.doubledouble import DoubleDouble

        def build():
            h = Hierarchy(n_root=8)
            rng = np.random.default_rng(7)
            h.root.fields["density"][h.root.interior] = 1.0 + rng.random((8, 8, 8))
            set_boundary_values(h, 0)
            a = _grid(1, (2, 2, 2), (6, 6, 6))
            b = _grid(1, (8, 2, 2), (4, 6, 6))
            c = _grid(1, (2, 8, 2), (10, 4, 4))
            for g in (a, b, c):
                h.add_grid(g, h.root)
                _fill_level([(g, h.root, False)], [])
            a.fields["density"][a.interior] += 0.5
            b.fields["density"][b.interior] += 0.25
            c.fields["vx"][c.interior] = -0.0
            h.root.save_old_state()
            h.root.fields["density"] *= 1.5
            h.root.time = DoubleDouble(1.0)
            for g in h.level_grids(1):
                g.time = DoubleDouble(0.25)
            return h

        ref = build()
        _reference_fill(ref, 0.25)
        grids = ref.level_grids(1)
        try:
            for tier in dispatch.available_backends():
                dispatch.set_backend(tier, env=False)
                h = build()
                set_boundary_values(h, 1)
                for g1, g2 in zip(h.level_grids(1), grids):
                    for name, arr in g1.fields.array_items():
                        np.testing.assert_array_equal(arr, g2.fields[name])
                        np.testing.assert_array_equal(
                            np.signbit(arr), np.signbit(g2.fields[name]))
                    np.testing.assert_array_equal(g1.phi, g2.phi)
        finally:
            dispatch._reset_for_tests()


def _plan_level(n_root=8):
    """A root and three level-1 grids (two abutting), ghosts filled."""
    h = Hierarchy(n_root=n_root)
    rng = np.random.default_rng(5)
    h.root.fields["density"][...] = 1.0 + rng.random(
        h.root.fields["density"].shape)
    set_boundary_values(h, 0)
    for start, dims in (((2, 2, 2), (4, 4, 4)), ((6, 2, 2), (4, 6, 4)),
                        ((2, 8, 8), (6, 4, 4))):
        h.add_grid(_grid(1, start, dims), h.root)
    return h


def _count_fill_plans(monkeypatch) -> list:
    """Every FillPlan a level topology builds from now on (its tables are
    checked once per build)."""
    from repro.amr import topology
    from repro.amr.interpolation import FillPlan

    built = []

    class Counted(FillPlan):
        __slots__ = ()

        def __init__(self, *args):
            built.append(self)
            super().__init__(*args)

    monkeypatch.setattr(topology, "FillPlan", Counted)
    return built


def _addresses(table, n):
    """The first ``n`` addresses of a compiled tier's pointer table."""
    from repro.kernels.backend_cffi import ffi

    return [int(ffi.cast("uintptr_t", table[i])) for i in range(n)]


def _same_arrays(items, others) -> bool:
    """Are two ``array_items()`` lists the same names bound to the very
    same arrays?"""
    return len(items) == len(others) and all(
        k == j and v is w for (k, v), (j, w) in zip(items, others))


class TestLevelPlan:
    def test_second_fill_in_an_epoch_checks_nothing(self, monkeypatch):
        """The ghost fill's tables are checked when the level's topology
        first builds them, and not again for the next fill or gravity
        solve of the same epoch."""
        from repro.amr.gravity import HierarchyGravity

        h = _plan_level()
        built = _count_fill_plans(monkeypatch)
        set_boundary_values(h, 1)
        assert len(built) == 1
        topo = h.level_topology(1)
        ghost = topo.ghost_plan()
        set_boundary_values(h, 1)
        assert len(built) == 1 and topo.ghost_plan() is ghost
        grav = HierarchyGravity(g_code=1.0)
        grav.solve_level(h, 0)
        grav.solve_level(h, 1)
        assert len(built) == 2  # the rim fill's, once
        poisson = topo.poisson()
        grav.solve_level(h, 1)
        assert len(built) == 2 and topo.poisson() is poisson
        assert h.level_topology(1) is topo

    def test_first_fill_snapshots_parent_and_plans_live_with_owner(
            self, monkeypatch):
        """The first ghost fill of a level whose parent has never stepped
        gives the parent a snapshot of its current state at its current
        time, so the fill equals one from the parent's new state; the
        parent's later snapshots copy in place and the same ghost plan
        serves every later fill, time-interpolated.  On the compiled tier
        the plan's pointers are the addresses of the arrays the grids
        hold, and a hydro step handed a plan made for other arrays builds
        a one-off.  A structural change gives a new topology and new
        plans."""
        from repro.hydro import PPMSolver
        from repro.kernels import dispatch
        from repro.precision.doubledouble import DoubleDouble

        def assert_level_equal(h, ref):
            for g, r in zip(h.level_grids(1), ref.level_grids(1)):
                for name, arr in g.fields.array_items():
                    np.testing.assert_array_equal(arr, r.fields[name])
                np.testing.assert_array_equal(g.phi, r.phi)

        def set_clocks(h, parent, child):
            h.root.time = DoubleDouble(parent)
            for g in h.level_grids(1):
                g.time = DoubleDouble(child)

        h, ref = _plan_level(), _plan_level()
        root, a = h.root, h.level_grids(1)[0]
        for hh in (h, ref):  # the parent has never stepped
            set_clocks(hh, 1.0, 0.25)
        built = _count_fill_plans(monkeypatch)
        assert root.old_fields is None
        set_boundary_values(h, 1)
        _reference_fill(ref, 1.0)
        assert_level_equal(h, ref)
        assert root.old_time == root.time
        for name, arr in root.fields.array_items():
            np.testing.assert_array_equal(root.old_fields[name], arr)
        topo = h.level_topology(1)
        ghost = topo.ghost_plan()
        assert len(built) == 1
        assert ghost.parents[0][1][0] is root.old_fields["density"]

        # later snapshots copy in place; the same plan interpolates in time
        snapshot = root.old_fields.array_items()
        for hh in (h, ref):
            hh.root.save_old_state()
            hh.root.fields["density"] *= 1.5
            set_clocks(hh, 2.0, 1.5)
        assert _same_arrays(root.old_fields.array_items(), snapshot)
        set_boundary_values(h, 1)
        _reference_fill(ref, 0.5)
        assert_level_equal(h, ref)
        assert topo.ghost_plan() is ghost and len(built) == 1
        poisson = topo.poisson()
        assert topo.poisson() is poisson and poisson.phis[0] is a.phi

        if "cffi" in dispatch.available_backends():
            dispatch.set_backend("cffi", env=False)
            try:
                from repro.hydro import ppm

                set_boundary_values(h, 1)
                nf = len(a.fields.array_items()) + 1
                args = ghost.native[0]
                fines = _addresses(args[4], nf)
                assert fines[0] == a.fields["density"].ctypes.data
                assert fines[-1] == a.phi.ctypes.data
                olds = _addresses(args[7], nf - 1)
                assert olds == [root.old_fields[n].ctypes.data
                                for n, _ in root.fields.array_items()]

                steps = []

                class Counted(ppm.StepPlan):
                    __slots__ = ()

                    def __init__(self, *args):
                        steps.append(self)
                        super().__init__(*args)

                monkeypatch.setattr(ppm, "StepPlan", Counted)
                windows, step = a.hydro_plan()
                other = a.fields.deep_copy()
                PPMSolver().step(other, a.dx, 1e-6, windows=windows,
                                 plan=step)
                assert len(steps) == 1
                assert steps[0].arrays[0] is other["density"]
                assert step.native is None  # never handed to the C
            finally:
                dispatch._reset_for_tests()

        # a structural change: a new topology, new plans
        h.add_grid(_grid(1, (12, 12, 12), (2, 2, 2)), h.root)
        grown = h.level_topology(1)
        assert grown is not topo
        assert grown.ghost_plan() is not ghost
        assert grown.poisson() is not poisson
        h.remove_level_grids(1)
        assert h.level_topology(1) is not grown
        assert h.level_topology(1).grids == []


class TestArraysKeepIdentity:
    def test_no_array_is_rebound(self, monkeypatch):
        """A grid's arrays are fixed for its life, so every plan lives as
        long as its owner: across root steps of the paper's collapse with
        the Jeans floor firing, rebuilds that keep grids, and a
        ``retry_half_dt`` rescue, every kept grid keeps its field arrays,
        its potential and, from its first snapshot on, its snapshot's
        arrays (every later snapshot copies into them); a level topology
        that survives a root step keeps its ghost and Poisson plans, and a
        grid that keeps its face windows keeps its step plan."""
        from repro.amr import evolve
        from repro.amr.grid import Grid as GridCls
        from repro.problems import PrimordialCollapse
        from repro.runtime.faults import FaultInjector, FaultSpec

        run = PrimordialCollapse(
            n_root=16, max_level=2, z_init=100.0, seed=7,
            amplitude_boost=4.0, jeans_number=4.0, mass_refine_factor=8.0,
            with_chemistry=True, with_dark_matter=True, max_dims=16)
        run.initial_rebuild()
        ev = run.evolver
        h = ev.hierarchy
        # the problem's floor (4 cells) first binds late in the run; 64
        # cells make the same code fire from the first finest-level step
        ev.jeans_floor_cells = 64.0
        floors = []
        real_floor = evolve.HierarchyEvolver._apply_jeans_floor

        def floor(self, grid, a):
            before = grid.fields["internal"].copy()
            items = grid.fields.array_items()
            real_floor(self, grid, a)
            assert _same_arrays(grid.fields.array_items(), items)
            floors.append(not np.array_equal(before,
                                             grid.fields["internal"]))

        monkeypatch.setattr(evolve.HierarchyEvolver, "_apply_jeans_floor",
                            floor)
        real_save = GridCls.save_old_state
        first = {}  # each grid's first snapshot, as array_items()
        snapshots = []

        def save(grid):
            real_save(grid)
            items = grid.old_fields.array_items()
            snapshots.append(_same_arrays(items, first.setdefault(grid,
                                                                  items)))

        monkeypatch.setattr(GridCls, "save_old_state", save)

        def arrays():
            return {g: (g.fields.array_items(), g.phi)
                    for g in h.all_grids()}

        def plans():
            topos = {t: (t._ghost, t._poisson)
                     for t in h._topologies.values()}
            grids = {g: (g.windows, g.step_plan) for g in h.all_grids()}
            return topos, grids

        t_end = run.code_time_of_redshift(20.0)
        kept_snapshots = kept_topo_plans = kept_step_plans = 0
        for step in range(5):
            if step == 4:  # a NaN in the first grid stepped: a retry
                ev.faults = FaultInjector([FaultSpec("nan_cell")])
            before, (topos, grids) = arrays(), plans()
            snapshotted = set(first)
            ev.advance_root_step(t_end)
            after, (topos_now, grids_now) = arrays(), plans()
            kept = before.keys() & after.keys()
            assert kept
            for g in kept:
                assert _same_arrays(after[g][0], before[g][0]), g
                assert after[g][1] is before[g][1], g
                kept_snapshots += g in snapshotted
            for g in after.keys() & first.keys():
                # a live grid keeps its first snapshot, rebuilds included
                assert g.old_fields is not None, g
                assert _same_arrays(g.old_fields.array_items(), first[g]), g
            for t in topos.keys() & topos_now.keys():
                for plan, plan_now in zip(topos[t], topos_now[t]):
                    if plan is not None:
                        assert plan_now is plan, t
                        kept_topo_plans += 1
            for g in grids.keys() & grids_now.keys():
                windows, plan = grids[g]
                if windows is not None and grids_now[g][0] is windows:
                    assert grids_now[g][1] is plan, g
                    kept_step_plans += 1
        assert h.max_level == 2 and any(floors)
        assert snapshots and all(snapshots)
        assert kept_snapshots and kept_topo_plans and kept_step_plans
        rungs = ev.defense.totals["rungs"]
        assert rungs.get("retry_half_dt") == 1, rungs
