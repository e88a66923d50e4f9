"""Incremental hierarchy rebuild: bitwise identity, pooling, counters.

The correctness gate for :mod:`repro.amr.rebuild`'s incremental path is
that it produces a hierarchy **bitwise identical** to the from-scratch
path (``incremental=False``) — same boxes in the same order, same field
contents, same times — while reusing the unchanged parents' subgrids and
recycling retired buffers through the hierarchy's
:class:`~repro.amr.pool.FieldArrayPool`.  These tests drive mirrored
hierarchies through identical flag evolutions (no-change, all-change,
level-disappears, randomised) and compare ``Hierarchy.fingerprint()``,
then pin the pool's no-aliasing contract, the parent-array bounds check in
``_fill_new_grid``, the created/destroyed/reused counter split, the
single-epoch-bump ``bulk_update`` behaviour, and — per kernel tier — that
the ghost fill never touches an interior cell and that the incremental
and from-scratch rebuilds still agree.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.amr import FieldArrayPool, Grid, Hierarchy, RefinementCriteria
from repro.amr.boundary import set_boundary_values
from repro.amr.rebuild import _fill_new_grid, rebuild_hierarchy
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
    """Two hierarchies with identical initial data (independent pools)."""
    return (_fresh_hierarchy(n_root, amplitude),
            _fresh_hierarchy(n_root, amplitude))


def _set_root_density(h, interior_values):
    root = h.root
    root.fields["density"][root.interior] = interior_values
    set_boundary_values(h, 0)


CRIT1 = dict(overdensity_threshold=3.0, max_level=1)


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
        for h in (ha, hb):
            _set_root_density(h, moved)
        rebuild_hierarchy(ha, 1, crit, incremental=True)
        rebuild_hierarchy(hb, 1, crit, incremental=False)
        assert ha.last_rebuild_stats["reused"] == 0
        assert ha.last_rebuild_stats["created"] > 0
        assert ha.fingerprint() == hb.fingerprint()

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


# ------------------------------------------------------------ array pool
class TestFieldArrayPool:
    def test_acquire_release_roundtrip(self):
        pool = FieldArrayPool()
        a = pool.acquire((4, 4, 4))
        assert a.shape == (4, 4, 4) and a.dtype == np.float64
        pool.release(a)
        b = pool.acquire((4, 4, 4))
        assert b is a  # the freed buffer is recycled, not reallocated
        assert pool.stats()["hits"] == 1

    def test_views_and_foreign_dtypes_refused(self):
        pool = FieldArrayPool()
        owner = np.zeros((4, 4, 4))
        pool.release(owner[1:3])            # view
        pool.release(np.zeros(8, np.int32))  # wrong dtype
        pool.release(np.zeros((2, 2, 2)).T[::-1])  # non-contiguous view
        assert pool.free_arrays == 0
        assert pool.dropped == 3

    def test_cap_bounds_pool_memory(self):
        pool = FieldArrayPool(max_free_per_shape=2)
        for _ in range(4):
            pool.release(np.zeros((2, 2, 2)))
        assert pool.free_arrays == 2
        assert pool.dropped == 2

    def test_rebuild_recycles_buffers(self):
        """A re-clustering rebuild feeds destroyed grids' buffers to the
        new grids instead of the allocator."""
        h = _fresh_hierarchy()
        crit = RefinementCriteria(**CRIT1)
        rebuild_hierarchy(h, 1, crit)
        old_arrays = {id(arr) for g in h.level_grids(1)
                      for _, arr in g.fields.array_items()}
        # force re-clustering with the same shapes by disabling reuse; a
        # level's new grids are allocated before its old ones are retired,
        # so the first rebuild stocks the pool and the second draws on it
        rebuild_hierarchy(h, 1, crit, incremental=False)
        rebuild_hierarchy(h, 1, crit, incremental=False)
        assert h.pool.hits > 0
        new_arrays = {id(arr) for g in h.level_grids(1)
                      for _, arr in g.fields.array_items()}
        assert old_arrays & new_arrays  # buffers physically recycled

    def test_release_severs_refs_no_aliasing(self):
        """A retired grid keeps no reference to a buffer a live grid may
        have since acquired from the pool."""
        h = _fresh_hierarchy()
        crit = RefinementCriteria(**CRIT1)
        rebuild_hierarchy(h, 1, crit)
        retired = list(h.level_grids(1))
        rebuild_hierarchy(h, 1, crit, incremental=False)
        for g in retired:
            assert g.fields is None
            assert g.phi is None
            assert g.old_fields is None
        # no two live grids share storage
        seen = {}
        for g in h.all_grids():
            for name, arr in list(g.fields.array_items()) + [("phi", g.phi)]:
                assert id(arr) not in seen, (
                    f"{name} of {g} aliases {seen[id(arr)]}")
                seen[id(arr)] = (name, g)

    def test_pooled_allocation_bitwise_identical(self):
        """Dirty pooled buffers are fully overwritten: a pool-backed
        hierarchy matches one whose pool never has a hit."""
        ha, hb = _mirror_pair()
        hb.pool = FieldArrayPool(max_free_per_shape=0)  # always reallocate
        crit = RefinementCriteria(**CRIT1)
        for _ in range(3):
            rebuild_hierarchy(ha, 1, crit, incremental=False)
            rebuild_hierarchy(hb, 1, crit, incremental=False)
        assert ha.pool.hits > 0
        assert hb.pool.hits == 0
        assert ha.fingerprint() == hb.fingerprint()


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
        _fill_new_grid(child, root, [])
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
            _fill_new_grid(child, h.root, [])


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
        from repro.perf import HierarchyStats

        h = _fresh_hierarchy()
        crit = RefinementCriteria(**CRIT1)
        rebuild_hierarchy(h, 1, crit)
        rebuild_hierarchy(h, 1, crit)
        stats = HierarchyStats()
        stats.record_step(h, 0, 0.1, 0.1)
        s = stats.series()
        assert s["reuse_events"][-1] == h.grids_reused
        assert s["alloc_events"][-1] == h.grids_created + h.grids_destroyed
        assert "grid reuse events" in stats.report()


# ----------------------------------------------------------- bulk update
class TestBulkUpdate:
    def test_rebuild_bumps_epoch_once(self):
        h = _fresh_hierarchy()
        crit = RefinementCriteria(**CRIT1)
        e0 = h.topology_epoch
        rebuild_hierarchy(h, 1, crit)
        assert len(h.level_grids(1)) > 1  # many mutations...
        assert h.topology_epoch == e0 + 1  # ...one epoch transition

    def test_full_reuse_keeps_epoch_and_caches(self):
        h = _fresh_hierarchy()
        crit = RefinementCriteria(**CRIT1)
        rebuild_hierarchy(h, 1, crit)
        smap = h.sibling_map(1)
        e0 = h.topology_epoch
        rebuild_hierarchy(h, 1, crit)  # nothing changes
        assert h.last_rebuild_stats["reuse_rate"] == 1.0
        assert h.topology_epoch == e0
        assert h.sibling_map(1) is smap  # cache stayed warm

    def test_mid_bulk_queries_bypass_cache(self):
        h = _fresh_hierarchy()
        crit = RefinementCriteria(**CRIT1)
        rebuild_hierarchy(h, 1, crit)
        h.sibling_map(1)
        with h.bulk_update():
            h.remove_level_grids(1, tally=False)
            # tree mutated, epoch not yet bumped: the stale map must not
            # be served
            assert h.sibling_map(1) == {}

    def test_nested_bulk_single_bump(self):
        h = _fresh_hierarchy()
        e0 = h.topology_epoch
        with h.bulk_update():
            with h.bulk_update():
                g = Grid(1, (0, 0, 0), (4, 4, 4), n_root=8)
                h.add_grid(g, h.root)
            h.remove_level_grids(1)
        assert h.topology_epoch == e0  # membership ended where it began


# ------------------------------------------------- evolver + backends
def _build_sim(backend=None, workers=None, incremental=True):
    from repro import Simulation, SimulationConfig

    sim = Simulation(SimulationConfig(
        n_root=8, self_gravity=True, max_level=1, refine_overdensity=3.0,
        g_code=2.0, cfl=0.3, exec_backend=backend, workers=workers,
    ))
    sim.set_density(lambda x, y, z: 1 + 10 * np.exp(
        -((x - .5) ** 2 + (y - .5) ** 2 + (z - .5) ** 2) / 0.01))
    sim.set_field("internal", lambda x, y, z: np.full_like(x, 0.05))
    sim.initialize()
    sim.evolver.incremental_rebuild = incremental
    return sim


class TestEvolverIntegration:
    def test_incremental_run_bitwise_identical_across_backends(self):
        """Full evolver steps (hydro + gravity + rebuild): the incremental
        path matches the from-scratch path on every exec backend."""
        t_end = 0.8
        reference = _build_sim(incremental=False)
        for _ in range(3):
            reference.evolver.advance_root_step(t_end)
        want = reference.hierarchy.fingerprint()
        for backend, workers in [(None, None), ("serial", 1),
                                 ("thread", 2)]:
            sim = _build_sim(backend=backend, workers=workers,
                             incremental=True)
            for _ in range(3):
                sim.evolver.advance_root_step(t_end)
            assert sim.hierarchy.fingerprint() == want, (backend, workers)

    def test_rebuild_step_stats_and_telemetry(self):
        from repro.runtime.telemetry import step_record

        sim = _build_sim()
        t_end = 0.8
        sim.evolver.advance_root_step(t_end)
        snap = sim.evolver.rebuild_step_stats()
        assert snap is not None
        assert set(snap) == {"created", "destroyed", "reused", "reuse_rate",
                             "flags"}
        record = step_record(sim.evolver, 1, 0.01)
        assert record["rebuild"] == snap
        # steady state: later steps should mostly reuse
        for _ in range(2):
            sim.evolver.advance_root_step(t_end)
        snap = sim.evolver.rebuild_step_stats()
        assert snap["reused"] > 0


# ------------------------------------------------------- per kernel tier
@pytest.fixture(params=dispatch.BACKENDS)
def kernel_tier(request, monkeypatch):
    """Run the test with ``REPRO_KERNELS=<tier>`` (skipped when the tier
    does not load on this host)."""
    monkeypatch.setenv(dispatch.ENV_KERNELS, request.param)
    dispatch._reset_for_tests()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        resolved = dispatch.active_backend()
    if resolved != request.param:
        dispatch._reset_for_tests()
        pytest.skip(f"kernel tier {request.param} unavailable")
    yield request.param
    dispatch._reset_for_tests()


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
