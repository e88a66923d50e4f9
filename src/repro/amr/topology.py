"""Cached hierarchy topology: per-level overlap tables and fill geometry.

The paper's hero run carries >8000 subgrids across 34 levels, and both the
boundary fill (Sec. 3.2.1 step 2) and the gravity sibling iteration
(Sec. 3.3) need, for every grid, the same-level interiors its ghost region
meets.  Re-deriving that per call is an O(N^2) scan with full overlap
tests — exactly the bookkeeping Enzo's driver amortises with per-level
boundary lists rebuilt only when the hierarchy changes (Bryan et al. 2014,
Sec. 3.8; O'Shea et al. 2004).

This module builds a :class:`LevelTopology` per level, and the
:class:`~repro.amr.hierarchy.Hierarchy` keeps it while the level's grids
and its parent level's grids are the very objects it was built from: the
level's same-level adjacency and the geometry of its parent->child fills
(``fill.level``) as int64 tables, the adjacency from one vectorised
overlap pass:

* ``copies`` — rows ``(target, source, lo, hi)`` in level indices: the box
  where the target's ghost-expanded region meets the source's interior;
  the sibling copies of the boundary fill.
* ``rim_copies`` — the same rows clipped to the target's 1-cell Dirichlet
  rim (the dims+2 array the multigrid solver takes), rows that miss the
  rim dropped; the gravity sibling exchange reads it.

Grid geometry is immutable after construction (integer ``start_index`` /
``dims``), and a grid keeps its parent while its own level's and its
parent level's membership are unchanged (a child box nests in exactly
one parent; the rebuild may re-attach a kept grid to a new parent only
when the parent level changed), so the tables never go stale — only
membership does, and membership is what the cache compares.

On top of a topology sits its :class:`LevelPlan`: what the level's
kernels read — the checked ``fill.level`` tables of the ghost and rim
fills and the ``mg.level`` tables — with the pointers to the arrays they
name, derived once per topology and refreshed only when an array they
point to is no longer the grid's.  Per-grid state (face windows and the
``hydro.step`` plan) lives on the grid itself
(:meth:`~repro.amr.grid.Grid.hydro_plan`).
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from repro.amr.interpolation import (
    FillPlan,
    is_positive_field,
    parent_covers,
    shell_table,
)

#: rows per block in the all-pairs overlap test; bounds the broadcast
#: temporaries to O(block * N) so a many-thousand-grid level stays in cache
#: instead of materialising an N x N x 3 array.
_PAIR_BLOCK = 256


def box_overlaps(lo_a, hi_a, ids_a, lo_b, hi_b, ids_b):
    """Every pair ``(i, j)`` whose boxes ``[lo_a[i], hi_a[i])`` and
    ``[lo_b[j], hi_b[j])`` meet, ``ids_a[i] != ids_b[j]``, in row-major
    order; returns ``(i, j, lo, hi)`` arrays, the intersections in the
    last two.  The test broadcasts block by block (``_PAIR_BLOCK`` rows)."""
    parts = []
    for row0 in range(0, len(lo_a), _PAIR_BLOCK):
        row1 = row0 + _PAIR_BLOCK
        lo = np.maximum(lo_a[row0:row1, None, :], lo_b[None, :, :])
        hi = np.minimum(hi_a[row0:row1, None, :], hi_b[None, :, :])
        touch = (np.all(lo < hi, axis=2)
                 & (ids_a[row0:row1, None] != ids_b[None, :]))
        i, j = np.nonzero(touch)
        parts.append((i + row0, j, lo[i, j], hi[i, j]))
    if not parts:
        empty = np.empty((0, 3), dtype=np.int64)
        return np.empty(0, np.int64), np.empty(0, np.int64), empty, empty
    return tuple(np.concatenate(p) for p in zip(*parts))


class LevelTopology:
    """One level's topology, built once per membership of the level and
    of its parent level.

    Everything is indexed by position in ``grids``: ``origins`` (first
    allocated cell) and ``starts`` / ``ends`` (interior) as int lists,
    ``parents`` (distinct, first-seen order) with ``parent_origins`` and
    each grid's ``parent_of`` index, and four int64 tables in level
    indices — ``shell`` ``(target, lo, hi)``, the six ghost slabs of every
    grid; ``copies`` ``(target, source, lo, hi)``, every ghost cell a
    sibling's interior covers; ``rim_copies``, the ``copies`` rows clipped
    to the target's rim ``[start - 1, end + 1)`` (rows that miss it
    dropped, order kept); ``rim`` ``(target, lo, hi)``, every grid's
    Dirichlet rim.  ``ghost_misfit`` / ``rim_misfit`` name the first grid
    whose ghost shell / rim needs parent cells (plus the one-cell slope
    rim) outside its parent's arrays, or are ``None``.  ``parents`` is
    ``None`` when a grid has no parent (the root level).  ``parent_level``
    is a copy of the parent level's grids it was built from (the
    hierarchy's cache compares it, with ``grids``, to the current levels:
    a kept grid can be re-attached to a new parent).  ``plan`` is the
    level's :class:`LevelPlan` (:meth:`level_plan` fills it on first use).
    """

    __slots__ = ("grids", "origins", "starts", "ends", "parents",
                 "parent_origins", "parent_of", "shell", "copies",
                 "rim_copies", "rim", "ghost_misfit", "rim_misfit",
                 "parent_level", "nghost", "plan")

    def __init__(self, grids, nghost: int, parents=None, parent_level=()):
        ng = self.nghost = int(nghost)
        self.grids = list(grids)
        self.parent_level = list(parent_level)
        self.plan = None
        n = len(self.grids)
        starts = np.array([g.start_index for g in self.grids],
                          dtype=np.int64).reshape(-1, 3)
        ends = np.array([g.end_index for g in self.grids],
                        dtype=np.int64).reshape(-1, 3)
        ids = np.array([g.grid_id for g in self.grids], dtype=np.int64)
        self.origins = (starts - ng).tolist()
        self.starts, self.ends = starts.tolist(), ends.tolist()
        self.shell = shell_table(starts, ends, ng)
        self.rim = np.column_stack([np.arange(n), starts - 1, ends + 1])
        self.copies = np.column_stack(box_overlaps(
            starts - ng, ends + ng, ids, starts, ends, ids))
        # a rim cell a sibling covers lies inside the ghost range, so the
        # rim rows are the ghost rows clipped to the rim
        t = self.copies[:, 0]
        lo = np.maximum(self.copies[:, 2:5], starts[t] - 1)
        hi = np.minimum(self.copies[:, 5:8], ends[t] + 1)
        touch = np.all(lo < hi, axis=1)
        self.rim_copies = np.column_stack(
            [self.copies[touch, :2], lo[touch], hi[touch]])
        self._parent_geometry(
            [g.parent for g in self.grids] if parents is None else parents,
            starts, ends, ng)

    def level_plan(self) -> "LevelPlan":
        """The level's :class:`LevelPlan`, built on first use and kept as
        long as this topology is (the hierarchy drops it with the level's
        grids)."""
        if self.plan is None:
            self.plan = LevelPlan(self)
        return self.plan

    def _parent_geometry(self, parents, starts, ends, ng: int) -> None:
        self.ghost_misfit = self.rim_misfit = None
        if not self.grids or any(p is None for p in parents):
            self.parents = self.parent_origins = self.parent_of = None
            return
        self.parents, self.parent_of, p_lo, p_hi = parent_table(parents)
        self.parent_origins = p_lo.tolist()
        p_lo, p_hi = p_lo[self.parent_of], p_hi[self.parent_of]
        r = self.grids[0].refine_factor
        # every sampled parent cell keeps both slope neighbours
        for attr, width in (("ghost_misfit", ng), ("rim_misfit", 1)):
            ok = parent_covers(starts - width, ends + width, p_lo, p_hi, r,
                               pad=1)
            if not ok.all():
                setattr(self, attr, int(np.argmin(ok)))


def parent_table(parents):
    """``(distinct, parent_of, lo, hi)``: the distinct grids of
    ``parents`` in first-seen order, each entry's index into them, and
    their allocated extents ``[lo, hi)`` (ghosts included) as ``(P, 3)``
    int64 arrays."""
    index: dict[int, int] = {}
    distinct, parent_of = [], []
    for p in parents:
        k = index.setdefault(id(p), len(distinct))
        if k == len(distinct):
            distinct.append(p)
        parent_of.append(k)
    lo = np.array([p.start_index - p.nghost for p in distinct],
                  dtype=np.int64).reshape(-1, 3)
    hi = np.array([p.end_index + p.nghost for p in distinct],
                  dtype=np.int64).reshape(-1, 3)
    return distinct, parent_of, lo, hi


def _same(a, b) -> bool:
    """Are two sequences the very same objects, position by position?"""
    return len(a) == len(b) and all(x is y for x, y in zip(a, b))


class LevelPlan:
    """What the kernels of one level read, derived from its
    :class:`LevelTopology` once per topology instead of once per call or
    per grid — Enzo keeps its boundary lists from one rebuild to the next
    in the same way (O'Shea et al. 2004).

    Static for the topology (geometry only): ``dx`` (the level's float64
    cell width), ``dims`` ``(n, 3)``, each grid's first element in a flat
    buffer of the level's interiors (``cell_offsets``) and of its
    Dirichlet rims (``rim_offsets``, both ``n + 1`` long), and
    ``rim_rows``, the topology's ``rim_copies`` as int64 rows ``(target,
    source, rim_lo, phi_lo, extent)``: the box's first cell in the
    target's ``dims + 2`` rim and in the source's ghost-padded ``phi``,
    and its extent.

    Bound to arrays: the checked :class:`~repro.amr.interpolation.FillPlan`
    of the ghost fill (:meth:`ghost_plan`) and the :class:`PoissonPlan`
    (:meth:`poisson`).  Each is keyed by the identities of the arrays it
    points to and rebuilt — its tables checked again — when one of them
    is no longer what a grid holds (a rebound array, a grid's first
    ``old_fields``), so the compiled tier never receives a pointer to an
    array a grid no longer owns.  The plan holds tables and pointers plus
    one flat rim buffer; no copy of any field.
    """

    __slots__ = ("topo", "dx", "dims", "cell_offsets", "rim_offsets",
                 "rim_rows", "rims", "_ghost", "_poisson")

    def __init__(self, topo: LevelTopology):
        self.topo = topo
        grids, ng = topo.grids, topo.nghost
        self.dx = float(grids[0].dx) if grids else 0.0
        dims = np.array([g.dims for g in grids],
                        dtype=np.int64).reshape(-1, 3)
        self.dims = dims
        self.cell_offsets = np.concatenate(
            [[0], np.cumsum(dims.prod(axis=1))]).astype(np.int64)
        self.rim_offsets = np.concatenate(
            [[0], np.cumsum((dims + 2).prod(axis=1))]).astype(np.int64)
        rows = topo.rim_copies
        t, s = rows[:, 0], rows[:, 1]
        lo, hi = rows[:, 2:5], rows[:, 5:8]
        starts = np.array(topo.starts, dtype=np.int64).reshape(-1, 3)
        origins = np.array(topo.origins, dtype=np.int64).reshape(-1, 3)
        r_lo, p_lo, extent = lo - (starts[t] - 1), lo - origins[s], hi - lo
        # the compiled exchange indexes raw memory with these rows
        if not (np.all(r_lo >= 0) and np.all(r_lo + extent <= dims[t] + 2)
                and np.all(p_lo >= 0)
                and np.all(p_lo + extent <= dims[s] + 2 * ng)
                and np.all(extent > 0)):
            raise ValueError("rim exchange row outside its arrays")
        self.rim_rows = np.ascontiguousarray(
            np.column_stack([t, s, r_lo, p_lo, extent]), dtype=np.int64)
        self.rims = None
        self._ghost: dict = {}
        self._poisson = None

    def ghost_plan(self, include_phi: bool = True) -> FillPlan:
        """The ghost fill of every grid (see
        :func:`~repro.amr.boundary.fill_ghosts`): the level's fields, and
        its potential when ``include_phi`` and every grid and parent
        carries one; each target's parent is the time-interpolated one,
        its ``frac`` left to the caller."""
        topo = self.topo
        grids, parents = topo.grids, topo.parents
        if parents is None:
            raise ValueError("a ghost fill needs every grid's parent")
        if topo.ghost_misfit is not None:
            child = grids[topo.ghost_misfit]
            raise ValueError(
                f"child ghost region leaves parent array: {child} in "
                f"{parents[topo.parent_of[topo.ghost_misfit]]}")
        names = [k for k, _ in grids[0].fields.array_items()]
        with_phi = include_phi and all(g.phi is not None
                                       for g in chain(grids, parents))

        def arrays(grid):
            out = [grid.fields[n] for n in names]
            if with_phi:
                out.append(grid.phi)
            return out

        mine = [arrays(g) for g in grids]
        new = [arrays(p) for p in parents]
        old = [None if p.old_fields is None
               else [p.old_fields[n] for n in names] + [None] * with_phi
               for p in parents]
        key = list(chain(chain.from_iterable(mine),
                         chain.from_iterable(new),
                         chain.from_iterable([None] if o is None else o
                                             for o in old)))
        cached = self._ghost.get(with_phi)
        if cached is not None and _same(key, cached[0]):
            return cached[1]
        plan = FillPlan(
            [(a, origin, k, 1.0) for a, origin, k in zip(
                mine, topo.origins, topo.parent_of)],
            [(a, o, origin) for a, o, origin in zip(
                new, old, topo.parent_origins)],
            [(a, origin, lo, hi) for a, origin, lo, hi in zip(
                mine, topo.origins, topo.starts, topo.ends)],
            topo.shell, topo.copies, grids[0].refine_factor,
            [is_positive_field(n) for n in names] + [False] * with_phi)
        self._ghost[with_phi] = (key, plan)
        return plan

    def poisson(self) -> "PoissonPlan":
        """The level's :class:`PoissonPlan` for the grids' and parents'
        current potentials."""
        topo = self.topo
        if topo.rim_misfit is not None:
            grid = topo.grids[topo.rim_misfit]
            raise ValueError(
                f"Dirichlet rim leaves parent array: {grid} in "
                f"{topo.parents[topo.parent_of[topo.rim_misfit]]}")
        phis = [g.phi for g in topo.grids]
        parent_phis = [p.phi for p in topo.parents]
        plan = self._poisson
        if plan is None or not (_same(phis, plan.phis)
                                and _same(parent_phis, plan.parent_phis)):
            if self.rims is None:
                self.rims = np.empty(int(self.rim_offsets[-1]))
            plan = self._poisson = PoissonPlan(self, phis, parent_phis)
        return plan


class PoissonPlan:
    """What the ``mg.level`` kernel reads for one level: the
    :class:`LevelPlan`'s tables, the grids' potentials ``phis`` (checked:
    C-contiguous float64 of shape ``dims + 2 nghost``), ``rim_views``
    (each grid's ``dims + 2`` view of the level plan's flat rim buffer
    ``rims``) and ``rim_fill``, the checked
    :class:`~repro.amr.interpolation.FillPlan` that interpolates every
    rim from the parents' potentials.  ``native`` is the compiled tier's
    pointer tables, filled on its first call.
    """

    __slots__ = ("dx", "nghost", "dims", "cell_offsets", "rim_offsets",
                 "rim_rows", "rims", "rim_views", "phis", "parent_phis",
                 "rim_fill", "native")

    def __init__(self, level: LevelPlan, phis, parent_phis):
        topo = level.topo
        ng = topo.nghost
        if ng < 1:
            raise ValueError("mg.level: a potential needs a ghost layer "
                             "to hold its rim")
        for phi, d in zip(phis, level.dims.tolist()):
            if (not isinstance(phi, np.ndarray) or phi.dtype != np.float64
                    or not phi.flags.c_contiguous or not phi.flags.writeable
                    or phi.shape != tuple(n + 2 * ng for n in d)):
                raise ValueError("mg.level: a potential is not a writable "
                                 "C-contiguous float64 array of its grid's "
                                 "shape")
        self.dx, self.nghost, self.dims = level.dx, ng, level.dims
        self.cell_offsets = level.cell_offsets
        self.rim_offsets, self.rim_rows = level.rim_offsets, level.rim_rows
        self.rims = level.rims
        off = level.rim_offsets.tolist()
        self.rim_views = [
            self.rims[a:b].reshape(tuple(n + 2 for n in d))
            for a, b, d in zip(off, off[1:], level.dims.tolist())]
        self.phis, self.parent_phis = list(phis), list(parent_phis)
        self.rim_fill = FillPlan(
            [([rim], [v - 1 for v in lo], k, 1.0) for rim, lo, k in zip(
                self.rim_views, topo.starts, topo.parent_of)],
            [([phi], None, origin) for phi, origin in zip(
                parent_phis, topo.parent_origins)],
            [], topo.rim, (), topo.grids[0].refine_factor, [False])
        self.native = None

    def interiors(self, buffer) -> list:
        """Each grid's interior-shaped view of a flat buffer of
        ``cell_offsets[-1]`` values."""
        off = self.cell_offsets.tolist()
        return [buffer[a:b].reshape(d) for a, b, d in zip(
            off, off[1:], self.dims.tolist())]
