"""Which particles a grid sees: ``Hierarchy.owned_particles`` and
``Hierarchy.dm_density``.

Ownership is pinned against a reference written out here the long way:
a per-particle finest level (the deepest level any of whose grids
contains the particle), then a first-wins pass over the level's grids.
Random nested three-level hierarchies, overlapping siblings included,
carry particles placed exactly on shared grid faces, on the box faces
and outside every subgrid; both answers must agree on every level in
grids, order and indices.  The deposit is pinned as the one source of
the dark-matter term in the gravity source and in the refinement flags.
"""

import numpy as np
import pytest

from repro.amr import Grid, Hierarchy, RefinementCriteria
from repro.amr.gravity import HierarchyGravity
from repro.amr.rebuild import rebuild_hierarchy
from repro.nbody.cic import cic_deposit
from repro.nbody.particles import ParticleSet
from repro.precision import DDArray

N_ROOT = 8


def _reference_owned(h, level):
    """Finest level per particle, then the first containing grid wins."""
    parts = h.particles
    pos = parts.positions.hi + parts.positions.lo
    level_of = np.zeros(len(parts), dtype=np.int32)
    for lvl in range(1, len(h.levels)):
        covered = np.zeros(len(parts), dtype=bool)
        for g in h.levels[lvl]:
            covered |= np.all(
                (pos >= g.left_edge) & (pos < g.right_edge), axis=1)
        level_of[covered] = lvl
    unassigned = level_of == level
    out = []
    for g in h.level_grids(level):
        if not unassigned.any():
            break
        sel = np.nonzero(
            parts.in_region(g.left_edge, g.right_edge) & unassigned)[0]
        if len(sel) == 0:
            continue
        unassigned[sel] = False
        out.append((g, sel))
    return out


def _random_box(rng, lo, hi):
    """A box of cells inside ``[lo, hi)`` (index space of its level)."""
    start = np.array([rng.integers(a, b) for a, b in zip(lo, hi)])
    end = np.array([rng.integers(s + 1, b + 1) for s, b in zip(start, hi)])
    return start, end - start


def _random_hierarchy(rng):
    """Root + up to four level-1 grids (siblings may overlap) + up to
    four level-2 grids, each nested in a random level-1 grid."""
    h = Hierarchy(n_root=N_ROOT)
    for _ in range(rng.integers(1, 5)):
        start, dims = _random_box(rng, (0,) * 3, (2 * N_ROOT,) * 3)
        h.add_grid(Grid(1, start, dims, n_root=N_ROOT), h.root)
    for _ in range(rng.integers(0, 5)):
        parent = h.level_grids(1)[rng.integers(len(h.level_grids(1)))]
        start, dims = _random_box(rng, 2 * parent.start_index,
                                  2 * parent.end_index)
        h.add_grid(Grid(2, start, dims, n_root=N_ROOT), parent)
    return h


def _particles(rng):
    """Random points, points on level-2 cell faces (every grid face is
    one), box-face points, and a few with a nonzero low word."""
    fine = 4 * N_ROOT
    on_faces = rng.integers(0, fine, size=(150, 3)) / fine
    # one coordinate on a face, the others anywhere
    mixed = rng.random((150, 3))
    axis = rng.integers(0, 3, size=150)
    mixed[np.arange(150), axis] = rng.integers(0, fine + 1, size=150) / fine
    box = np.array([[0.0, 0.5, 0.5], [0.5, 0.0, 0.0], [0.0, 0.0, 0.0],
                    [np.nextafter(1.0, 0.0), 0.5, 0.5], [1.0, 0.5, 0.5]])
    hi = np.concatenate([rng.random((200, 3)), on_faces, mixed, box])
    lo = np.zeros_like(hi)
    lo[:40] = rng.normal(scale=1e-18, size=(40, 3))
    n = len(hi)
    return ParticleSet(DDArray(hi, lo), np.zeros((n, 3)), np.ones(n))


def _as_lists(owned):
    return [(g, sel.tolist()) for g, sel in owned]


class TestOwnedParticles:
    @pytest.mark.parametrize("seed", range(25))
    def test_matches_finest_level_then_first_wins(self, seed):
        rng = np.random.default_rng(seed)
        h = _random_hierarchy(rng)
        h.particles = _particles(rng)
        seen = []
        for level in range(len(h.levels) + 1):
            got = h.owned_particles(level)
            assert _as_lists(got) == _as_lists(_reference_owned(h, level))
            assert all(len(sel) for _, sel in got)
            seen.extend(i for _, sel in got for i in sel.tolist())
        # every particle inside the box is advanced exactly once
        pos = h.particles.positions.hi + h.particles.positions.lo
        in_box = np.all((pos >= 0.0) & (pos < 1.0), axis=1)
        assert sorted(seen) == np.nonzero(in_box)[0].tolist()

    def test_overlapping_siblings_first_wins(self):
        h = Hierarchy(n_root=N_ROOT)
        a = Grid(1, (0, 0, 0), (10, 16, 16), n_root=N_ROOT)
        b = Grid(1, (6, 0, 0), (10, 16, 16), n_root=N_ROOT)
        h.add_grid(a, h.root)
        h.add_grid(b, h.root)
        # inside both, inside b only, and on b's left face (inside a too)
        h.particles = ParticleSet(
            DDArray(np.array([[0.45, 0.5, 0.5], [0.9, 0.5, 0.5],
                                 [6 / 16, 0.5, 0.5]])),
            np.zeros((3, 3)), np.ones(3))
        assert _as_lists(h.owned_particles(1)) == [(a, [0, 2]), (b, [1])]
        assert _as_lists(h.owned_particles(0)) == []

    def test_no_particles(self):
        h = Hierarchy(n_root=N_ROOT)
        assert h.owned_particles(0) == []
        assert h.dm_density(h.root) is None


def _deposit_hierarchy():
    h = Hierarchy(n_root=N_ROOT)
    child = Grid(1, (4, 4, 4), (6, 6, 6), n_root=N_ROOT)
    h.add_grid(child, h.root)
    rng = np.random.default_rng(3)
    h.root.fields["density"][h.root.interior] = 1.0 + rng.random((8, 8, 8))
    child.fields["density"][child.interior] = 1.0 + rng.random((6, 6, 6))
    pos = np.concatenate([rng.random((300, 3)),
                          0.25 + 0.375 * rng.random((100, 3))])
    h.particles = ParticleSet(DDArray(pos), np.zeros((400, 3)),
                              rng.random(400))
    return h, child


def _reference_deposit(h, grid):
    """Periodic on the root; elsewhere the particles within one cell."""
    parts = h.particles
    shape = tuple(int(d) for d in grid.dims)
    if grid.level == 0:
        return cic_deposit(parts.positions.hi + parts.positions.lo,
                           parts.masses, shape, grid.dx, periodic=True)
    sel = parts.select(parts.in_region(grid.left_edge - grid.dx,
                                       grid.right_edge + grid.dx))
    offsets = (sel.positions.hi + sel.positions.lo) - grid.left_edge
    return cic_deposit(offsets, sel.masses, shape, grid.dx, periodic=False)


class TestDmDensity:
    def test_total_density_is_gas_plus_deposit(self, kernel_tier):
        h, child = _deposit_hierarchy()
        grav = HierarchyGravity(g_code=1.0)
        for g in (h.root, child):
            dm = h.dm_density(g)
            assert dm.tobytes() == _reference_deposit(h, g).tobytes()
            want = g.field_view("density").copy()
            want += dm
            assert grav.total_density(h, g).tobytes() == want.tobytes()

    def test_root_deposit_is_periodic_and_conserves_mass(self):
        h, _ = _deposit_hierarchy()
        dm = h.dm_density(h.root)
        assert dm.sum() * h.root.dx**3 == pytest.approx(
            h.particles.masses.sum(), rel=1e-12)

    def test_subgrid_without_particles_has_no_deposit(self):
        h = Hierarchy(n_root=N_ROOT)
        child = Grid(1, (0, 0, 0), (4, 4, 4), n_root=N_ROOT)
        h.add_grid(child, h.root)
        h.particles = ParticleSet(DDArray(np.array([[0.8, 0.8, 0.8]])),
                                  np.zeros((1, 3)), np.ones(1))
        assert h.dm_density(child) is None
        assert h.dm_density(h.root) is not None

    def test_rebuild_flags_read_the_deposit(self):
        """The dark-matter criterion sees ``dm_density`` of each parent:
        a particle clump on uniform gas is flagged, and nothing else."""
        h = Hierarchy(n_root=N_ROOT)
        h.particles = ParticleSet(
            DDArray(np.full((50, 3), 0.53)), np.zeros((50, 3)),
            np.full(50, 1.0 / 50))
        crit = RefinementCriteria(dm_mass_threshold=0.1, max_level=1)
        rebuild_hierarchy(h, 1, crit)
        assert h.last_rebuild_stats["flags"]["dm_mass"] > 0
        assert h.max_level == 1
        assert any(g.contains_point([[0.53, 0.53, 0.53]])[0]
                   for g in h.level_grids(1))
