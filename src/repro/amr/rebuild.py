"""RebuildHierarchy (paper Sec. 3.2.2), incremental between epochs.

The three steps, per level, top-down:

1. apply the refinement test to the parent grids (boolean flag field,
   expanded by a safety buffer cell);
2. cluster flagged cells into rectangles (Berger-Rigoutsos,
   :mod:`repro.amr.clustering`) — clustering within each parent guarantees
   the full-nesting constraint by construction;
3. create the new grids, copying from old same-level grids where they
   overlap and interpolating from the parent elsewhere; the old grids are
   then dropped (freeing their memory — the alloc/free traffic the paper's
   Fig. 5 discussion highlights).

**Incremental reuse.**  At hero-run scale the hierarchy is rebuilt
thousands of times while most of the tree is unchanged between rebuilds
(the regime the Enzo method papers describe); re-clustering,
re-allocating and re-filling every subgrid from scratch each time is the
first-order cost the paper's Fig. 5 discussion attributes to
RebuildHierarchy.  This module therefore compares each parent's flag
field against a per-parent signature cached on the hierarchy: when the
flagged-cell set (and the clustering parameters) are unchanged, the
parent's previous subgrids are **reused** — same ``Grid`` objects, same
field arrays — and only their ghost shells are refreshed (prolongation
from the parent plus old same-level copies, exactly the values the
from-scratch fill would have produced there; interiors are overwritten
by their own old data in the from-scratch path, i.e. unchanged).  Parents
whose flag sets changed go through clustering/allocation/fill as before,
drawing buffers from the hierarchy's :class:`~repro.amr.pool
.FieldArrayPool` into which each retired level's arrays are released as
soon as its copy pass finishes.  The whole rebuild runs inside
``hierarchy.bulk_update()`` so the topology epoch moves at most once.

The correctness gate: an incremental rebuild produces a hierarchy
bitwise identical to the from-scratch path (``incremental=False``) —
same boxes in the same order, same field contents, same times.
"""

from __future__ import annotations

import hashlib

import numpy as np
from scipy.ndimage import binary_dilation

from repro.amr.clustering import cluster_flagged_cells
from repro.amr.grid import Grid
from repro.amr.interpolation import is_positive_field, parent_covers, shell_boxes
from repro.kernels import dispatch as kernels
from repro.precision.doubledouble import DoubleDouble


class _OldLevel:
    """One retired level's grids with vectorised interior boxes.

    The fill passes query "which old grids overlap this fine box?" once
    per filled region; the per-pair loop of numpy calls that question
    used to cost (O(N_new x N_old) `np.maximum`/`np.any` invocations)
    dominated deep rebuilds, so the boxes are stacked into two (N, 3)
    arrays and every query is one broadcast comparison.
    """

    __slots__ = ("grids", "starts", "ends")

    def __init__(self, grids):
        self.grids = list(grids)
        self.starts = np.array([g.start_index for g in self.grids],
                               dtype=np.int64).reshape(-1, 3)
        self.ends = np.array([g.end_index for g in self.grids],
                             dtype=np.int64).reshape(-1, 3)

    def overlapping(self, lo_f, hi_f):
        """``(grid, lo, hi)`` for every old interior meeting ``[lo_f, hi_f)``,
        in level-list order (the order the scalar loop copied in)."""
        if not self.grids:
            return []
        lo = np.maximum(self.starts, lo_f)
        hi = np.minimum(self.ends, hi_f)
        idx = np.nonzero((lo < hi).all(axis=1))[0]
        return [(self.grids[i], lo[i], hi[i]) for i in idx]


def _subtract_boxes(lo, hi, covers):
    """Sub-boxes of ``[lo, hi)`` not covered by any box in ``covers``.

    Standard SAMR box arithmetic: each cover splits every surviving box
    into up to six axis-aligned remainders (the covered core is dropped).
    Deterministic in the order of ``covers``; any decomposition yields the
    same cell set, and the prolongation is per-cell local, so the values
    filled are independent of how the remainder is tiled.
    """
    # plain int tuples throughout: these are 3-vectors hit tens of
    # thousands of times per rebuild, where numpy's per-call overhead
    # dwarfs the arithmetic
    boxes = [(tuple(int(v) for v in lo), tuple(int(v) for v in hi))]
    for clo, chi in covers:
        clo = (int(clo[0]), int(clo[1]), int(clo[2]))
        chi = (int(chi[0]), int(chi[1]), int(chi[2]))
        nxt = []
        for blo, bhi in boxes:
            ilo = (max(blo[0], clo[0]), max(blo[1], clo[1]),
                   max(blo[2], clo[2]))
            ihi = (min(bhi[0], chi[0]), min(bhi[1], chi[1]),
                   min(bhi[2], chi[2]))
            if ilo[0] >= ihi[0] or ilo[1] >= ihi[1] or ilo[2] >= ihi[2]:
                nxt.append((blo, bhi))
                continue
            cur_lo, cur_hi = list(blo), list(bhi)
            for d in range(3):
                if ilo[d] > cur_lo[d]:
                    nhi = list(cur_hi)
                    nhi[d] = ilo[d]
                    nxt.append((tuple(cur_lo), tuple(nhi)))
                    cur_lo[d] = ilo[d]
                if ihi[d] < cur_hi[d]:
                    nlo = list(cur_lo)
                    nlo[d] = ihi[d]
                    nxt.append((tuple(nlo), tuple(cur_hi)))
                    cur_hi[d] = ihi[d]
        boxes = nxt
        if not boxes:
            break
    return boxes


def _fill_boxes(grid: Grid, parent: Grid, old_level: _OldLevel, boxes) -> None:
    """Fill fine-index boxes of ``grid``'s arrays: old same-level
    interiors where they overlap, prolongation from the parent elsewhere.

    Prolongation is per-parent-cell local, so filling a sub-box is bitwise
    identical to cutting that box out of a full-array fill, and cells an
    old interior is about to overwrite need not be prolonged at all: only
    the *uncovered* remainder of each box goes through the interpolant,
    all of a grid's fragments in one ``prolong.linear`` call that reads
    the parent's arrays in place.
    """
    r = grid.refine_factor
    ng = grid.nghost
    base = grid.start_index - ng
    if not parent_covers(parent, base, grid.end_index + ng, r):
        # the kernel must never see a box outside the parent's arrays
        raise ValueError(
            f"{grid} with its ghost zones needs parent cells outside "
            f"{parent}'s allocated extent — the child is not nested in "
            f"its parent"
        )
    names = [k for k, _ in grid.fields.array_items()]
    arrays = [grid.fields[n] for n in names] + [grid.phi]
    fragments = []
    copies = []
    for lo_f, hi_f in boxes:
        overlaps = old_level.overlapping(lo_f, hi_f)
        fragments += _subtract_boxes(
            lo_f, hi_f, [(lo, hi) for _, lo, hi in overlaps])
        copies += overlaps
    kernels.get("prolong.linear")(
        [parent.fields[n] for n in names] + [parent.phi], None, 1.0,
        [is_positive_field(n) for n in names] + [False],
        parent.start_index - parent.nghost, r, arrays, base, fragments,
    )
    for old, lo, hi in copies:
        obase = old.start_index - old.nghost
        dst = tuple(
            slice(int(lo[d] - base[d]), int(hi[d] - base[d])) for d in range(3)
        )
        src = tuple(
            slice(int(lo[d] - obase[d]), int(hi[d] - obase[d]))
            for d in range(3)
        )
        old_arrays = [old.fields[n] for n in names] + [old.phi]
        for arr, old_arr in zip(arrays, old_arrays):
            arr[dst] = old_arr[src]


def _fill_new_grid(grid: Grid, parent: Grid, old_grids) -> None:
    """Fill the whole array (ghosts included): prolong from the parent,
    then overwrite with old same-level data where it overlaps.

    Filling ghosts too means a freshly rebuilt grid can take its next
    hydro step immediately (the paper's control flow rebuilds at the end
    of each step and solves at the top of the next iteration, before the
    next SetBoundaryValues).
    """
    if not isinstance(old_grids, _OldLevel):
        old_grids = _OldLevel(old_grids)
    ng = grid.nghost
    _fill_boxes(grid, parent, old_grids,
                [(grid.start_index - ng, grid.end_index + ng)])


def _refresh_ghost_shell(grid: Grid, parent: Grid, old_grids: _OldLevel) -> None:
    """Refill a *reused* grid's ghost shell only.

    The from-scratch fill overwrites a grid's interior with its own old
    interior (same-level interiors are disjoint, and a reused grid's box
    is unchanged), so the interior needs no work; the ghost shell is the
    only part whose from-scratch values (current-parent prolongation +
    old same-level copies) differ from what the reused arrays hold.  In a
    quiescent clustered region the old level covers most of the shell,
    so few cells are prolonged at all.
    """
    _fill_boxes(grid, parent, old_grids,
                shell_boxes(grid.start_index, grid.end_index, grid.nghost))


def _flag_signature(flags: np.ndarray, params_key: bytes) -> bytes:
    """Digest of one parent's (dilated) flag field + clustering params."""
    hsh = hashlib.sha1(params_key)
    hsh.update(np.int64(flags.shape).tobytes())
    hsh.update(np.packbits(flags).tobytes())
    return hsh.digest()


def rebuild_hierarchy(hierarchy, level: int, criteria, dm_density_fn=None,
                      efficiency: float = 0.7, min_size: int = 2,
                      buffer_cells: int = 1, max_dims: int = 32,
                      max_level: int | None = None,
                      incremental: bool = True) -> None:
    """Rebuild grids on ``level`` and deeper.

    ``criteria`` is a :class:`RefinementCriteria`; ``dm_density_fn(grid)``
    returns the deposited dark-matter density on a grid's interior (or
    None).  ``max_dims`` caps each new grid's extent per dimension (big
    boxes are bisected — keeps grids "generally small (~20^3) and numerous"
    as the paper describes).

    With ``incremental=True`` (the default) parents whose flag signature
    is unchanged since the last rebuild keep their subgrids alive (see
    the module docstring); ``incremental=False`` forces the from-scratch
    path everywhere.  Both paths produce bitwise-identical hierarchies;
    counters land in ``hierarchy.last_rebuild_stats`` and the cumulative
    ``grids_created`` / ``grids_destroyed`` / ``grids_reused``.
    """
    if level < 1:
        raise ValueError("the root grid is never rebuilt")

    pool = hierarchy.pool
    params_key = repr((float(efficiency), int(min_size), int(buffer_cells),
                       int(max_dims))).encode()
    stats = {"level": level, "parents": 0, "parents_reused": 0,
             "created": 0, "reused": 0, "destroyed": 0}
    flag_counts: dict[str, int] = {}
    new_signatures: dict[int, bytes] = {}

    # keep the old grids' data alive for copying while the tree is replaced;
    # each level's list is dropped (and its buffers pooled) as soon as that
    # level's copy pass finishes, so memory frees level-by-level
    old_by_level = {
        l: list(hierarchy.level_grids(l))
        for l in range(level, hierarchy.max_level + 1)
    }
    # parent -> previous children (and child -> parent id), captured before
    # removal severs backrefs
    old_children: dict[int, list[Grid]] = {}
    old_parent_id: dict[int, int] = {}
    for l in range(level - 1, hierarchy.max_level + 1):
        for g in hierarchy.level_grids(l):
            old_children[g.grid_id] = list(g.children)
            if g.parent is not None:
                old_parent_id[g.grid_id] = g.parent.grid_id

    def retire(old_grids, reused_ids):
        for g in old_grids:
            if g.grid_id in reused_ids:
                continue
            stats["destroyed"] += 1
            hierarchy.grids_destroyed += 1
            hierarchy._flag_signatures.pop(g.grid_id, None)
            pool.release_grid(g)

    hierarchy._in_rebuild = True
    try:
        with hierarchy.bulk_update():
            hierarchy.remove_level_grids(level, tally=False)

            lvl = level
            while True:
                if max_level is not None and lvl > max_level:
                    break
                if (getattr(criteria, "max_level", None) is not None
                        and lvl > criteria.max_level):
                    break
                parents = hierarchy.level_grids(lvl - 1)
                old_grids = _OldLevel(old_by_level.get(lvl, []))
                new_grids: list[tuple[Grid, Grid]] = []  # (child, parent)
                reused_ids: set[int] = set()
                r = hierarchy.refine_factor
                for parent in parents:
                    flags = criteria.flag_cells(
                        parent, dm_density_fn(parent) if dm_density_fn else None
                    )
                    for crit, count in getattr(
                        criteria, "last_flag_counts", {}
                    ).items():
                        flag_counts[crit] = flag_counts.get(crit, 0) + count
                    if buffer_cells > 0 and flags.any():
                        flags = binary_dilation(flags, iterations=buffer_cells)
                    sig = _flag_signature(flags, params_key)
                    stats["parents"] += 1
                    previous = (hierarchy._flag_signatures.get(parent.grid_id)
                                if incremental else None)
                    new_signatures[parent.grid_id] = sig
                    if previous == sig:
                        # unchanged flagged-cell set: same boxes, same data
                        # — keep the previous subgrids alive
                        stats["parents_reused"] += 1
                        for child in old_children.get(parent.grid_id, ()):
                            reused_ids.add(child.grid_id)
                            new_grids.append((child, parent))
                        continue
                    if not flags.any():
                        continue
                    boxes = cluster_flagged_cells(flags, efficiency=efficiency,
                                                  min_size=min_size)
                    for box in boxes:
                        for blo, bhi in _split_box(box.lo, box.hi, max_dims):
                            start = (parent.start_index + np.array(blo)) * r
                            dims = (np.array(bhi) - np.array(blo)) * r
                            g = Grid(lvl, start, dims, hierarchy.n_root, r,
                                     hierarchy.nghost)
                            g.allocate(hierarchy.advected, pool=pool)
                            new_grids.append((g, parent))

                for g, parent in new_grids:
                    if g.grid_id in reused_ids:
                        hierarchy.add_grid(g, parent, reused=True)
                        _refresh_ghost_shell(g, parent, old_grids)
                        # reset the per-step scratch a fresh Grid starts
                        # without, so reuse is invisible downstream
                        g.old_fields = None
                        g.old_time = DoubleDouble(0.0)
                        g.flux_accumulator = None
                        g.last_fluxes = None
                        stats["reused"] += 1
                    else:
                        hierarchy.add_grid(g, parent)
                        _fill_new_grid(g, parent, old_grids)
                        stats["created"] += 1
                    g.time = DoubleDouble(parent.time)

                # this level's copy pass is done: free the old level now
                retire(old_by_level.pop(lvl, []), reused_ids)
                if not new_grids:
                    break
                lvl += 1

            # levels past a break (cap reached / flags vanished) are gone;
            # their surviving parents lose their signatures too — a sig
            # must never claim children that no longer exist, or a later
            # deeper-cap rebuild would "reuse" an empty child set where
            # the from-scratch path would re-cluster
            for l in sorted(old_by_level):
                for g in old_by_level[l]:
                    pid = old_parent_id.get(g.grid_id)
                    if pid is not None:
                        hierarchy._flag_signatures.pop(pid, None)
                        new_signatures.pop(pid, None)
                retire(old_by_level.pop(l), set())
    finally:
        hierarchy._in_rebuild = False

    hierarchy._flag_signatures.update(new_signatures)
    total = stats["created"] + stats["reused"]
    stats["reuse_rate"] = stats["reused"] / total if total else 0.0
    stats["flags"] = flag_counts
    hierarchy.last_rebuild_stats = stats


def _split_box(lo, hi, max_dims: int):
    """Recursively bisect boxes larger than max_dims per dimension."""
    dims = [h - l for l, h in zip(lo, hi)]
    big = [d for d in range(3) if dims[d] > max_dims]
    if not big:
        yield tuple(lo), tuple(hi)
        return
    axis = big[0]
    mid = lo[axis] + dims[axis] // 2
    lo_a, hi_a = list(lo), list(hi)
    hi_a[axis] = mid
    lo_b = list(lo)
    lo_b[axis] = mid
    yield from _split_box(tuple(lo_a), tuple(hi_a), max_dims)
    yield from _split_box(tuple(lo_b), tuple(hi), max_dims)
