"""The grid hierarchy: a tree of Grids plus the global particle store.

"Our parallel implementation places no limit on the depth or complexity of
the adaptive grid hierarchy." (paper abstract) — the container below is a
list-of-levels tree with no depth cap; practical depth is set by the
refinement criteria and the run budget, not the data structure.

Dark-matter particles live in one global :class:`ParticleSet` (the
functional equivalent of Enzo's per-grid ownership without the migration
bookkeeping).  The hierarchy answers both questions a grid asks of them:
:meth:`Hierarchy.owned_particles` says which particles a level advances
(each particle is advanced by the finest level containing it), and
:meth:`Hierarchy.dm_density` deposits them on a grid for its Poisson
source and its refinement flags.

Each level's :class:`~repro.amr.topology.LevelTopology` is cached here and
lives exactly as long as the level's and its parent level's members: a
query that finds it stale builds a new one, and the rebuild evicts a
stale one as soon as the level's old grids retire, so the arrays its
plans point to free level by level.
"""

from __future__ import annotations

import hashlib
from contextlib import nullcontext
from types import SimpleNamespace

import numpy as np

from repro.amr.grid import Grid
from repro.amr.topology import LevelTopology
from repro.hydro.state import FieldSet
from repro.nbody.cic import cic_deposit
from repro.nbody.particles import ParticleSet
from repro.precision.doubledouble import DoubleDouble


def _same(a, b) -> bool:
    """Are two sequences the very same objects, position by position?"""
    return len(a) == len(b) and all(x is y for x, y in zip(a, b))


class Hierarchy:
    """Container and bookkeeping for the SAMR grid tree.

    Topology queries (same-level overlap tables, fill geometry and the
    level's ghost and Poisson plans) are served from one cached
    :class:`~repro.amr.topology.LevelTopology` per level, valid while the
    level's grids and its parent level's grids are the very objects it
    was built from: the hot paths never re-derive overlaps or re-check
    fill tables while the tree is unchanged, a rebuild that keeps both
    levels keeps the topology and its plans, and any other change builds
    a new one on the next query.  Particle questions are answered from the
    current positions on every call: particles move every level step, so
    a cache of them would rarely hit.
    """

    def __init__(self, n_root: int, refine_factor: int = 2, nghost: int = 3,
                 advected=()):
        self.n_root = int(n_root)
        self.refine_factor = int(refine_factor)
        self.nghost = int(nghost)
        self.advected = list(advected)
        root = Grid(0, (0, 0, 0), (n_root,) * 3, n_root, refine_factor, nghost)
        root.allocate(self.advected)
        self.levels: list[list[Grid]] = [[root]]
        #: the evolver's ComponentTimers ("topology" section); None for a
        #: hierarchy no evolver drives
        self.timers = None
        self._topologies: dict[int, LevelTopology] = {}
        #: the arrays rebuilt grids allocate (``acquires``; ``hits`` is
        #: always 0): the two counters the end-to-end benchmark reads
        self.pool = SimpleNamespace(acquires=0, hits=0)
        #: summary dict of the most recent rebuild_hierarchy call
        #: (created/reused/destroyed/parents/reuse_rate); telemetry reads it
        self.last_rebuild_stats: dict | None = None
        self.particles: ParticleSet = ParticleSet.empty()
        # counters the performance layer reads (paper Fig. 5 discussion);
        # reused grids are counted separately so created/destroyed keep
        # meaning "allocator traffic"
        self.grids_created = 1
        self.grids_destroyed = 0
        self.grids_reused = 0

    # ------------------------------------------------------------- accessors
    @property
    def root(self) -> Grid:
        return self.levels[0][0]

    @property
    def max_level(self) -> int:
        return len(self.levels) - 1

    def level_grids(self, level: int) -> list[Grid]:
        if level < 0 or level >= len(self.levels):
            return []
        return self.levels[level]

    def all_grids(self):
        for lvl in self.levels:
            yield from lvl

    @property
    def n_grids(self) -> int:
        return sum(len(l) for l in self.levels)

    def grids_per_level(self) -> list[int]:
        return [len(l) for l in self.levels]

    # ------------------------------------------------------------- mutation
    def add_grid(self, grid: Grid, parent: Grid, *, reused: bool = False) -> None:
        """Insert a grid under its parent; allocates storage if needed.

        ``reused=True`` (the rebuild re-attaching a grid whose box
        survived) books the insert under ``grids_reused`` instead of
        ``grids_created`` — the grid's buffers never left the heap, so it
        is not allocator traffic.
        """
        if not grid.is_nested_in(parent):
            raise ValueError(f"{grid} is not fully nested in {parent}")
        while len(self.levels) <= grid.level:
            self.levels.append([])
        grid.parent = parent
        parent.children.append(grid)
        self.levels[grid.level].append(grid)
        if grid.fields is None:
            grid.allocate(self.advected)
        grid.time = DoubleDouble(parent.time)
        if reused:
            self.grids_reused += 1
        else:
            self.grids_created += 1

    def remove_level_grids(self, level: int) -> None:
        """Delete all grids at `level` and deeper (used by rebuild).

        Backrefs are severed on removal (``parent`` cleared, ``children``
        emptied) so a detached subtree cannot pin the whole old hierarchy
        alive through one surviving reference.  Nothing is counted here:
        the rebuild books its own created/destroyed/reused grids.
        """
        for lvl in range(level, len(self.levels)):
            for g in self.levels[lvl]:
                p = g.parent
                if p is not None and g in p.children:
                    p.children.remove(g)
                g.parent = None
                g.children.clear()
            self.levels[lvl] = []
        while len(self.levels) > 1 and not self.levels[-1]:
            self.levels.pop()

    # --------------------------------------------------------------- queries
    def level_topology(self, level: int) -> LevelTopology:
        """A level's :class:`~repro.amr.topology.LevelTopology` (overlap
        tables, fill geometry and the plans the level's kernels read):
        the cached one while it is current (:meth:`_current_topology`),
        otherwise a new one."""
        topo = self._current_topology(level)
        if topo is None:
            with (nullcontext() if self.timers is None
                  else self.timers.section("topology")):
                topo = self._topologies[level] = LevelTopology(
                    self.level_grids(level), self.nghost,
                    parent_level=self.level_grids(level - 1))
        return topo

    def evict_stale_topology(self, level: int, members=None) -> None:
        """Drop the level's cached topology unless it is current for
        ``members`` (default: the level's grids), so the arrays its plans
        hold free now rather than at the level's next query.  The rebuild
        calls it with the members a level will have, before it allocates
        the level's new grids, and for each level it empties."""
        if self._current_topology(level, members) is None:
            self._topologies.pop(level, None)

    def _current_topology(self, level: int,
                          members=None) -> LevelTopology | None:
        """The cached topology of ``level`` while its grids, and the
        parent-level grids it was built from, are object for object
        ``members`` (default ``levels[level]``) and ``levels[level - 1]``
        (the parent level counts because a rebuild can re-attach a kept
        grid to a new parent; see :mod:`repro.amr.topology` for why that
        suffices); ``None`` otherwise."""
        if members is None:
            members = self.level_grids(level)
        topo = self._topologies.get(level)
        if topo is not None and _same(topo.grids, members) \
                and _same(topo.parent_level, self.level_grids(level - 1)):
            return topo
        return None

    def finest_grid_at(self, xyz) -> Grid:
        """Deepest grid whose interior contains the given point."""
        best = self.root
        for lvl in range(1, len(self.levels)):
            hit = None
            for g in self.levels[lvl]:
                if g.contains_point(xyz)[0]:
                    hit = g
                    break
            if hit is None:
                break
            best = hit
        return best

    def owned_particles(self, level: int) -> list[tuple[Grid, np.ndarray]]:
        """The particles ``level`` advances, as ``[(grid, indices)]`` in
        ``level_grids(level)`` order, grids owning none left out.

        A particle belongs to ``level`` when no ``level + 1`` grid contains
        it (proper nesting puts every deeper grid inside one), and goes to
        the first ``level`` grid that does: siblings may overlap, and a
        particle is advanced once.  Containment is ``ParticleSet.in_region``'s
        float64 ``[left, right)`` test.
        """
        parts = self.particles
        if len(parts) == 0:
            return []
        pos = parts.positions.hi + parts.positions.lo

        def inside(g):
            return np.all((pos >= g.left_edge) & (pos < g.right_edge), axis=1)

        free = np.ones(len(parts), dtype=bool)
        for child in self.level_grids(level + 1):
            free &= ~inside(child)
        owned = []
        for g in self.level_grids(level):
            if not free.any():
                break
            sel = np.nonzero(inside(g) & free)[0]
            if len(sel):
                free[sel] = False
                owned.append((g, sel))
        return owned

    def dm_density(self, grid: Grid) -> np.ndarray | None:
        """Dark-matter comoving density deposited (CIC) on ``grid``'s
        interior, or None when no particle reaches it.

        The root deposits periodically; any other grid takes the particles
        within one cell of it, so its boundary cells receive their share of
        straddling clouds.
        """
        parts = self.particles
        if len(parts) == 0:
            return None
        periodic = bool(grid.level == 0 and np.all(grid.dims == self.n_root))
        origin = 0.0  # x - 0.0 == x exactly: the root's offsets are positions
        if not periodic:
            mask = parts.in_region(grid.left_edge - grid.dx,
                                   grid.right_edge + grid.dx)
            if not mask.any():
                return None
            parts = parts.select(mask)
            origin = grid.left_edge
        offsets = (parts.positions.hi + parts.positions.lo) - origin
        return cic_deposit(offsets, parts.masses,
                           tuple(int(d) for d in grid.dims), grid.dx,
                           periodic=periodic)

    def covering_mask(self, grid: Grid) -> np.ndarray:
        """Boolean interior-shaped mask of cells covered by children."""
        mask = np.zeros(tuple(int(d) for d in grid.dims), dtype=bool)
        r = self.refine_factor
        for child in grid.children:
            lo, hi = child.parent_index_region()
            sl = tuple(
                slice(int(lo[d] - grid.start_index[d]), int(hi[d] - grid.start_index[d]))
                for d in range(3)
            )
            mask[sl] = True
        return mask

    # --------------------------------------------------------------- metrics
    def fingerprint(self) -> str:
        """SHA-256 digest of the full hierarchy state (structure + data).

        Covers every grid's level, box, time words, field arrays and
        potential, in tree order, plus the particle set's extended-precision
        position words, velocities and masses when particles are attached.
        Two hierarchies with equal fingerprints are bitwise identical in
        everything the physics can see — the equality the incremental-
        rebuild and preempt/resume correctness gates assert against their
        uninterrupted reference paths.
        """
        hsh = hashlib.sha256()
        for lvl, grids in enumerate(self.levels):
            for g in grids:
                hsh.update(np.int64([lvl, *g.start_index, *g.dims]).tobytes())
                hsh.update(np.float64([g.time.hi, g.time.lo]).tobytes())
                for name, arr in sorted(g.fields.array_items()):
                    hsh.update(name.encode())
                    hsh.update(np.ascontiguousarray(arr).tobytes())
                hsh.update(np.ascontiguousarray(g.phi).tobytes())
        particles = getattr(self, "particles", None)
        if particles is not None and len(particles.masses):
            for arr in (particles.positions.hi, particles.positions.lo,
                        particles.velocities, particles.masses):
                hsh.update(np.ascontiguousarray(arr).tobytes())
        return hsh.hexdigest()

    def total_memory_bytes(self) -> int:
        return sum(g.memory_bytes() for g in self.all_grids())

    def spatial_dynamic_range(self) -> float:
        """SDR = box length / finest cell width (paper's headline metric)."""
        return float(self.n_root * self.refine_factor**self.max_level)

    def validate_nesting(self) -> bool:
        """Every subgrid fully nested in its parent (paper's constraint)."""
        for lvl in range(1, len(self.levels)):
            for g in self.levels[lvl]:
                if g.parent is None or not g.is_nested_in(g.parent):
                    return False
        return True
