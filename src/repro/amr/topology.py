"""Cached hierarchy topology: per-level overlap tables and fill geometry.

The paper's hero run carries >8000 subgrids across 34 levels, and both the
boundary fill (Sec. 3.2.1 step 2) and the gravity sibling iteration
(Sec. 3.3) need, for every grid, the same-level interiors its ghost region
meets.  Re-deriving that per call is an O(N^2) scan with full overlap
tests — exactly the bookkeeping Enzo's driver amortises with per-level
boundary lists rebuilt only when the hierarchy changes (Bryan et al. 2014,
Sec. 3.8; O'Shea et al. 2004).

This module builds a :class:`LevelTopology` once per *topology epoch* (a
counter the :class:`~repro.amr.hierarchy.Hierarchy` bumps in ``add_grid``
/ ``remove_level_grids``): the level's same-level adjacency and the
geometry of its parent->child fills (``fill.level``) as int64 tables, the
adjacency from one vectorised overlap pass:

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
when the parent level changed), so the cache never goes stale — only
membership does, and that is what the epoch tracks.
"""

from __future__ import annotations

import numpy as np

from repro.amr.interpolation import parent_covers, shell_table

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
    """One level's topology, built once per topology epoch.

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
    ``None`` when a grid has no parent (the root level).
    ``parent_windows`` is the parent level's flux windows
    (:meth:`~repro.amr.hierarchy.Hierarchy.face_windows` fills it on first
    use; they depend on this level's and the parent level's members only,
    as this topology does).
    """

    __slots__ = ("grids", "origins", "starts", "ends", "parents",
                 "parent_origins", "parent_of", "shell", "copies",
                 "rim_copies", "rim", "ghost_misfit", "rim_misfit",
                 "parent_windows")

    def __init__(self, grids, nghost: int, parents=None):
        ng = int(nghost)
        self.grids = list(grids)
        self.parent_windows = None
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
