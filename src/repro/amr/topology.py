"""Cached hierarchy topology: per-level sibling links and fill geometry.

The paper's hero run carries >8000 subgrids across 34 levels, and both the
boundary fill (Sec. 3.2.1 step 2) and the gravity sibling iteration
(Sec. 3.3) need, for every grid, the list of same-level grids it touches.
Re-deriving that list per call is an O(N^2) scan with full overlap tests —
exactly the bookkeeping Enzo's driver amortises with per-level boundary
lists rebuilt only when the hierarchy changes (Bryan et al. 2014, Sec. 3.8;
O'Shea et al. 2004).

This module builds a :class:`LevelTopology` once per *topology epoch* (a
counter the :class:`~repro.amr.hierarchy.Hierarchy` bumps in ``add_grid``
/ ``remove_level_grids``): the sibling links, with every slice pair the
consumers need, and the geometry of the level's parent->child fills
(``fill.level``) as int64 tables, all from one vectorised overlap pass:

* ``ghost_dst`` / ``ghost_src`` — my ghost-expanded region vs. the
  sibling's interior, in each array's local (ghost-padded) indices; the
  same boxes, in level indices, are the ``copies`` of the boundary fill.
* ``rim_dst`` / ``rim_src`` — my 1-cell Dirichlet rim (the dims+2 array the
  multigrid solver takes) vs. the sibling's interior; used by the gravity
  sibling exchange.  ``None`` when the grids are within ghost range but do
  not touch the rim.

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


class SiblingLink:
    """One precomputed grid -> sibling relationship (slices ready to use)."""

    __slots__ = ("sibling", "ghost_dst", "ghost_src", "rim_dst", "rim_src")

    def __init__(self, sibling, ghost_dst, ghost_src, rim_dst, rim_src):
        self.sibling = sibling
        self.ghost_dst = ghost_dst
        self.ghost_src = ghost_src
        self.rim_dst = rim_dst
        self.rim_src = rim_src

    def __repr__(self):
        return f"SiblingLink(to={self.sibling!r})"


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


def _slices(lo, hi):
    return tuple(map(slice, lo, hi))


class LevelTopology:
    """One level's topology, built once per topology epoch.

    ``links`` maps ``grid_id -> list[SiblingLink]`` (built on first use).
    The rest is the geometry of the level's ``fill.level`` calls, indexed
    by position in
    ``grids``: ``origins`` (first allocated cell) and ``starts`` / ``ends``
    (interior) as int lists, ``parents`` (distinct, first-seen order) with
    ``parent_origins`` and each grid's ``parent_of`` index, and three
    int64 tables — ``shell`` ``(target, lo, hi)``, the six ghost slabs of
    every grid; ``copies`` ``(target, source, lo, hi)``, every ghost cell a
    sibling's interior covers; ``rim`` ``(target, lo, hi)``, every grid's
    Dirichlet rim.  ``ghost_misfit`` / ``rim_misfit`` name the first grid
    whose ghost shell / rim needs parent cells (plus the one-cell slope
    rim) outside its parent's arrays, or are ``None``.  ``parents`` is
    ``None`` when a grid has no parent (the root level).
    """

    __slots__ = ("grids", "origins", "starts", "ends", "parents",
                 "parent_origins", "parent_of", "shell", "copies", "rim",
                 "ghost_misfit", "rim_misfit", "_nghost", "_links")

    def __init__(self, grids, nghost: int, parents=None):
        ng = self._nghost = int(nghost)
        self.grids = list(grids)
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
        self._links = None
        self._parent_geometry(
            [g.parent for g in self.grids] if parents is None else parents,
            starts, ends, ng)

    @property
    def links(self) -> dict:
        """``grid_id -> list[SiblingLink]``, built on first use from the
        ``copies`` table (a level without gravity never needs it)."""
        if self._links is None:
            ng = self._nghost
            starts, ends = (np.array(b, dtype=np.int64).reshape(-1, 3)
                            for b in (self.starts, self.ends))
            i, j = self.copies[:, 0], self.copies[:, 1]
            lo, hi = self.copies[:, 2:5], self.copies[:, 5:8]
            rl = np.maximum(starts[i] - 1, starts[j])
            rh = np.minimum(ends[i] + 1, ends[j])
            # every slice bound of every link as array arithmetic, then
            # plain ints for the slice objects
            columns = [a.tolist() for a in (
                i, j, np.all(rl < rh, axis=1),
                lo - starts[i] + ng, hi - starts[i] + ng,
                lo - starts[j] + ng, hi - starts[j] + ng,
                rl - starts[i] + 1, rh - starts[i] + 1,
                rl - starts[j] + ng, rh - starts[j] + ng)]
            links = {g.grid_id: [] for g in self.grids}
            for a, b, touch, gd0, gd1, gs0, gs1, rd0, rd1, rs0, rs1 in zip(
                    *columns):
                rim_dst = rim_src = None
                if touch:
                    rim_dst, rim_src = _slices(rd0, rd1), _slices(rs0, rs1)
                links[self.grids[a].grid_id].append(SiblingLink(
                    self.grids[b], _slices(gd0, gd1), _slices(gs0, gs1),
                    rim_dst, rim_src))
            self._links = links
        return self._links

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


def build_sibling_map(grids, nghost: int) -> dict:
    """``grid_id -> list[SiblingLink]`` for one level (see
    :class:`LevelTopology`)."""
    return LevelTopology(grids, nghost).links
