"""Topology-cache behaviour: epoch invalidation, overlap-table
correctness, and the cached consumers producing the same answers as
direct scans."""

import numpy as np
import pytest

from repro.amr import Grid, Hierarchy
from repro.amr.boundary import copy_from_siblings, set_boundary_values
from repro.amr.gravity import rim_exchange
from repro.amr.topology import LevelTopology
from repro.nbody.particles import ParticleSet
from repro.perf import ComponentTimers
from repro.precision.position import PositionDD


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
        assert (0, 2) not in {(t, s) for t, s, *_ in rim_exchange(topo)}

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
    """``copies``, ``rim_copies`` and the gravity exchange's slices, row
    for row and in order, against a per-pair scan: ghost boxes from
    ``ghost_overlap_with``, rim boxes from the 1-cell rim rule applied to
    every pair (not only the pairs within ghost range)."""
    topo = LevelTopology(grids, ng)
    copies, rims, exchange = [], [], []
    for i, g in enumerate(grids):
        for j, o in enumerate(grids):
            if o is g:
                continue
            ghost = g.ghost_overlap_with(o)
            if ghost is not None:
                copies.append([i, j, *ghost[0], *ghost[1]])
            rl = np.maximum(g.start_index - 1, o.start_index)
            rh = np.minimum(g.end_index + 1, o.end_index)
            if np.all(rl < rh):
                rims.append([i, j, *rl, *rh])
                exchange.append((i, j,
                                 _sl(rl - g.start_index + 1,
                                     rh - g.start_index + 1),
                                 _sl(rl - o.start_index + ng,
                                     rh - o.start_index + ng)))
    np.testing.assert_array_equal(topo.copies, np.reshape(copies, (-1, 8)))
    np.testing.assert_array_equal(topo.rim_copies, np.reshape(rims, (-1, 8)))
    assert rim_exchange(topo) == exchange


def _sl(lo, hi):
    return tuple(slice(int(a), int(b)) for a, b in zip(lo, hi))


class TestEpochInvalidation:
    def test_add_grid_bumps_epoch_and_refreshes_siblings(self):
        h = Hierarchy(n_root=8)
        a = _grid(1, (0, 0, 0), (4, 4, 4))
        h.add_grid(a, h.root)
        e0 = h.topology_epoch
        assert _siblings(h, a) == []  # build + cache the level-1 topology
        b = _grid(1, (4, 0, 0), (4, 4, 4))
        h.add_grid(b, h.root)
        assert h.topology_epoch > e0
        assert _siblings(h, a) == [b]  # stale topology must not be served

    def test_remove_level_grids_bumps_epoch_and_refreshes(self):
        h = Hierarchy(n_root=8)
        a = _grid(1, (0, 0, 0), (4, 4, 4))
        b = _grid(1, (4, 0, 0), (4, 4, 4))
        h.add_grid(a, h.root)
        h.add_grid(b, h.root)
        assert _siblings(h, a) == [b]
        e0 = h.topology_epoch
        h.remove_level_grids(1)
        assert h.topology_epoch > e0
        topo = h.level_topology(1)
        assert topo.grids == [] and len(topo.copies) == 0

    def test_same_epoch_reuses_map_object(self):
        h = Hierarchy(n_root=8)
        h.add_grid(_grid(1, (0, 0, 0), (4, 4, 4)), h.root)
        h.add_grid(_grid(1, (4, 0, 0), (4, 4, 4)), h.root)
        topo = h.level_topology(1)
        assert h.level_topology(1) is topo

    def test_particle_ownership_follows_tree_and_motion(self):
        """Ownership is derived on every call, so a structural change or a
        particle move is seen at once: there is no cache to invalidate."""
        h = Hierarchy(n_root=8)
        child = _grid(1, (4, 4, 4), (8, 8, 8))
        h.add_grid(child, h.root)
        h.particles = ParticleSet(
            PositionDD(np.array([[0.5, 0.5, 0.5], [0.1, 0.1, 0.1]])),
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
            PositionDD(np.array([[0.5, 0.5, 0.5]])), np.zeros((1, 3)), np.ones(1)
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


class TestConsumersAgree:
    def test_set_boundary_values_matches_per_grid_reference(self):
        """The level call (one ``fill.level``, covered ghost cells never
        prolonged) on every tier == the two-step procedure written out
        with the NumPy pieces: prolong each grid's whole ghost shell, then
        copy from every sibling — with the parent mid-step."""
        from repro.amr.interpolation import prolong_boxes, shell_boxes
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
        root = ref.root
        names = [k for k, _ in root.fields.array_items()]
        grids = ref.level_grids(1)
        for g in grids:
            prolong_boxes(
                [root.fields[n] for n in names] + [root.phi],
                [root.old_fields[n] for n in names] + [None], 0.25,
                [n not in ("vx", "vy", "vz") for n in names] + [False],
                root.start_index - root.nghost, 2,
                [g.fields[n] for n in names] + [g.phi],
                g.start_index - g.nghost,
                shell_boxes(g.start_index, g.end_index, g.nghost))
        for g in grids:
            copy_from_siblings(g, [o for o in grids if o is not g])
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
