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

The same object carries what the level's kernels read: the flat layout
of the ``mg.level`` tables, and the checked ``fill.level`` tables of the
ghost and rim fills with the pointers to the arrays they name, derived
once per topology.  A grid's arrays (fields, potential, and the
snapshot from its first ``save_old_state`` on) are fixed until
:meth:`~repro.amr.grid.Grid.release`, so a plan never outlives what it
points to.  There is one object per level and no back-reference,
so when the hierarchy drops a topology (a query that finds it stale, or
the rebuild evicting it) its plans and the arrays they hold free at once.
Per-grid state (face windows and the ``hydro.step`` plan) lives on the
grid itself (:meth:`~repro.amr.grid.Grid.hydro_plan`).
"""

from __future__ import annotations

import numpy as np

from repro.amr.interpolation import (
    FillPlan,
    fill_layout,
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
    """One level's topology and what the level's kernels read, built once
    per membership of the level and of its parent level.

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
    a kept grid can be re-attached to a new parent).

    The flat layout of the level's kernels, from geometry alone: ``dx``
    (the level's float64 cell width), ``dims`` ``(n, 3)``, each grid's
    first element in a flat buffer of the level's interiors
    (``cell_offsets``) and of its Dirichlet rims (``rim_offsets``, both
    ``n + 1`` long), and ``rim_rows``, the ``rim_copies`` as int64 rows
    ``(target, source, rim_lo, phi_lo, extent)``: the box's first cell in
    the target's ``dims + 2`` rim and in the source's ghost-padded
    ``phi``, and its extent.

    Bound to arrays: the checked :class:`~repro.amr.interpolation.FillPlan`
    of the ghost fill (:meth:`ghost_plan`) and the :class:`PoissonPlan`
    (:meth:`poisson`, with ``rims``, the one flat rim buffer), each built
    on its first call and kept for the topology's life: the arrays they
    point to are the grids' own from allocation to release, never
    rebound.  Neither refers back to the topology: a topology the
    hierarchy drops frees its plans, and the arrays they hold, by
    reference counting alone.
    """

    __slots__ = ("grids", "origins", "starts", "ends", "parents",
                 "parent_origins", "parent_of", "shell", "copies",
                 "rim_copies", "rim", "ghost_misfit", "rim_misfit",
                 "parent_level", "nghost", "dx", "dims", "cell_offsets",
                 "rim_offsets", "rim_rows", "rims", "_ghost", "_poisson",
                 "__weakref__")

    def __init__(self, grids, nghost: int, parents=None, parent_level=()):
        ng = self.nghost = int(nghost)
        self.grids = list(grids)
        self.parent_level = list(parent_level)
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
        self._flat_layout(starts, ng)
        self.rims = None
        self._ghost = self._poisson = None

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

    def _flat_layout(self, starts, ng: int) -> None:
        self.dx = float(self.grids[0].dx) if self.grids else 0.0
        dims = self.dims = np.array([g.dims for g in self.grids],
                                    dtype=np.int64).reshape(-1, 3)
        self.cell_offsets = np.concatenate(
            [[0], np.cumsum(dims.prod(axis=1))]).astype(np.int64)
        self.rim_offsets = np.concatenate(
            [[0], np.cumsum((dims + 2).prod(axis=1))]).astype(np.int64)
        rows = self.rim_copies
        t, s = rows[:, 0], rows[:, 1]
        lo, hi = rows[:, 2:5], rows[:, 5:8]
        r_lo, p_lo = lo - (starts[t] - 1), lo - (starts[s] - ng)
        extent = hi - lo
        # the compiled exchange indexes raw memory with these rows
        if not (np.all(r_lo >= 0) and np.all(r_lo + extent <= dims[t] + 2)
                and np.all(p_lo >= 0)
                and np.all(p_lo + extent <= dims[s] + 2 * ng)
                and np.all(extent > 0)):
            raise ValueError("rim exchange row outside its arrays")
        self.rim_rows = np.ascontiguousarray(
            np.column_stack([t, s, r_lo, p_lo, extent]), dtype=np.int64)

    def ghost_plan(self) -> FillPlan:
        """The ghost fill of every grid (see
        :func:`~repro.amr.boundary.fill_ghosts`): the level's fields and
        potentials (:func:`~repro.amr.interpolation.fill_layout`); each
        target's parent is the time-interpolated one, its ``frac`` left
        to the caller.  Built on the first call: a parent that has no
        snapshot yet takes one of its current state then
        (:meth:`~repro.amr.grid.Grid.save_old_state`), which puts its
        time fraction at 1.0 until its first step overwrites it."""
        if self._ghost is not None:
            return self._ghost
        grids, parents = self.grids, self.parents
        if parents is None:
            raise ValueError("a ghost fill needs every grid's parent")
        if self.ghost_misfit is not None:
            child = grids[self.ghost_misfit]
            raise ValueError(
                f"child ghost region leaves parent array: {child} in "
                f"{parents[self.parent_of[self.ghost_misfit]]}")
        for p in parents:
            if p.old_fields is None:
                p.save_old_state()
        names, arrays, positive = fill_layout(grids[0])
        mine = [arrays(g) for g in grids]
        self._ghost = FillPlan(
            [(a, origin, k, 1.0) for a, origin, k in zip(
                mine, self.origins, self.parent_of)],
            [(arrays(p), [p.old_fields[n] for n in names] + [None], origin)
             for p, origin in zip(parents, self.parent_origins)],
            [(a, origin, lo, hi) for a, origin, lo, hi in zip(
                mine, self.origins, self.starts, self.ends)],
            self.shell, self.copies, grids[0].refine_factor, positive)
        return self._ghost

    def poisson(self) -> "PoissonPlan":
        """The level's :class:`PoissonPlan` of the grids' and parents'
        potentials, built (with ``rims``) on the first call."""
        if self._poisson is None:
            if self.rim_misfit is not None:
                grid = self.grids[self.rim_misfit]
                raise ValueError(
                    f"Dirichlet rim leaves parent array: {grid} in "
                    f"{self.parents[self.parent_of[self.rim_misfit]]}")
            self.rims = np.empty(int(self.rim_offsets[-1]))
            self._poisson = PoissonPlan(self)
        return self._poisson


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


class PoissonPlan:
    """What the ``mg.level`` kernel reads for one level: the
    :class:`LevelTopology`'s flat layout, the grids' potentials ``phis``
    (checked: C-contiguous float64 of shape ``dims + 2 nghost``),
    ``rim_views`` (each grid's ``dims + 2`` view of the topology's flat
    rim buffer ``rims``) and ``rim_fill``, the checked
    :class:`~repro.amr.interpolation.FillPlan` that interpolates every
    rim from the parents' potentials.  ``native`` is the compiled tier's
    pointer tables, filled on its first call.  A grid's potential is
    fixed for its life, so the plan serves its topology's whole life.
    """

    __slots__ = ("dx", "nghost", "dims", "cell_offsets", "rim_offsets",
                 "rim_rows", "rims", "rim_views", "phis", "rim_fill",
                 "native")

    def __init__(self, topo: LevelTopology):
        ng = topo.nghost
        if ng < 1:
            raise ValueError("mg.level: a potential needs a ghost layer "
                             "to hold its rim")
        phis = [g.phi for g in topo.grids]
        for phi, d in zip(phis, topo.dims.tolist()):
            if (not isinstance(phi, np.ndarray) or phi.dtype != np.float64
                    or not phi.flags.c_contiguous or not phi.flags.writeable
                    or phi.shape != tuple(n + 2 * ng for n in d)):
                raise ValueError("mg.level: a potential is not a writable "
                                 "C-contiguous float64 array of its grid's "
                                 "shape")
        self.dx, self.nghost, self.dims = topo.dx, ng, topo.dims
        self.cell_offsets = topo.cell_offsets
        self.rim_offsets, self.rim_rows = topo.rim_offsets, topo.rim_rows
        self.rims = topo.rims
        off = topo.rim_offsets.tolist()
        self.rim_views = [
            self.rims[a:b].reshape(tuple(n + 2 for n in d))
            for a, b, d in zip(off, off[1:], topo.dims.tolist())]
        self.phis = phis
        self.rim_fill = FillPlan(
            [([rim], [v - 1 for v in lo], k, 1.0) for rim, lo, k in zip(
                self.rim_views, topo.starts, topo.parent_of)],
            [([p.phi], None, origin) for p, origin in zip(
                topo.parents, topo.parent_origins)],
            [], topo.rim, (), topo.grids[0].refine_factor, [False])
        self.native = None

    def interiors(self, buffer) -> list:
        """Each grid's interior-shaped view of a flat buffer of
        ``cell_offsets[-1]`` values."""
        off = self.cell_offsets.tolist()
        return [buffer[a:b].reshape(d) for a, b, d in zip(
            off, off[1:], self.dims.tolist())]
