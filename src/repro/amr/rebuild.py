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
from repro.amr.interpolation import is_positive_field, parent_covers, shell_table
from repro.amr.topology import box_overlaps, parent_table
from repro.kernels import dispatch as kernels
from repro.precision.doubledouble import DoubleDouble

#: safety cells each parent's flag field is dilated by before clustering
BUFFER_CELLS = 1


def _fill_level(entries, old_grids) -> None:
    """Fill one level's rebuilt grids in one ``fill.level`` call (see
    :func:`rebuild_fill_args`)."""
    if entries:
        kernels.get("fill.level")(*rebuild_fill_args(entries, old_grids))


def rebuild_fill_args(entries, old_grids) -> tuple:
    """The ``fill.level`` arguments that fill one level's rebuilt grids.

    ``entries`` are ``(grid, parent, reused)``.  A new grid is filled over
    its whole array, ghosts included, so a freshly rebuilt grid can take
    its next hydro step immediately (the paper's control flow rebuilds at
    the end of each step and solves at the top of the next iteration,
    before the next SetBoundaryValues).  A reused grid's ghost shell is
    the only part refilled: the from-scratch fill would overwrite its
    interior with its own old interior (same-level interiors are
    disjoint, and its box is unchanged).  Wherever an interior of
    ``old_grids`` (the retired level) overlaps, it is copied; only the
    remainder is prolonged from the parent.  Prolongation is per-cell
    local, so filling the remainder alone is bitwise what filling
    everything and copying over it gives.
    """
    grids = [g for g, _, _ in entries]
    ng, r = grids[0].nghost, grids[0].refine_factor
    starts = np.array([g.start_index for g in grids], dtype=np.int64)
    ends = np.array([g.end_index for g in grids], dtype=np.int64)
    parents, parent_of, p_lo, p_hi = parent_table([p for _, p, _ in entries])
    ok = parent_covers(starts - ng, ends + ng, p_lo[parent_of],
                       p_hi[parent_of], r)
    if not ok.all():
        # the kernel must never see a box outside the parent's arrays
        k = int(np.argmin(ok))
        raise ValueError(
            f"{grids[k]} with its ghost zones needs parent cells outside "
            f"{parents[parent_of[k]]}'s allocated extent — the child is not "
            f"nested in its parent"
        )
    reused = np.array([flag for _, _, flag in entries], dtype=bool)
    n = len(grids)
    fill = np.concatenate([
        shell_table(starts, ends, ng).reshape(n, 6, 7)[reused].reshape(-1, 7),
        np.column_stack([np.arange(n), starts - ng, ends + ng])[~reused],
    ])
    fill = fill[np.argsort(fill[:, 0], kind="stable")]
    # old interiors meeting each ghost-padded box, never a grid's own
    old_grids = list(old_grids)
    i, j, lo, hi = box_overlaps(
        starts - ng, ends + ng, np.array([g.grid_id for g in grids]),
        np.array([o.start_index for o in old_grids],
                 dtype=np.int64).reshape(-1, 3),
        np.array([o.end_index for o in old_grids],
                 dtype=np.int64).reshape(-1, 3),
        np.array([o.grid_id for o in old_grids], dtype=np.int64))
    used, j = np.unique(j, return_inverse=True)

    names = [k for k, _ in grids[0].fields.array_items()]

    def arrays(grid):
        return [grid.fields[name] for name in names] + [grid.phi]

    sources = []
    for o in (old_grids[u] for u in used.tolist()):
        sources.append((arrays(o), (o.start_index - o.nghost).tolist(),
                        o.start_index.tolist(), o.end_index.tolist()))
    return (
        [(arrays(g), origin, k, 1.0)
         for g, origin, k in zip(grids, (starts - ng).tolist(), parent_of)],
        [(arrays(p), None, origin) for p, origin in zip(parents, p_lo.tolist())],
        sources, fill, np.column_stack([i, j, lo, hi]), r,
        [is_positive_field(name) for name in names] + [False],
    )


def _fill_new_grid(grid: Grid, parent: Grid, old_grids) -> None:
    """Fill one new grid's whole array, ghosts included: old same-level
    data where it overlaps, prolongation from the parent elsewhere."""
    _fill_level([(grid, parent, False)], old_grids)


def _flag_signature(flags: np.ndarray, params_key: bytes) -> bytes:
    """Digest of one parent's (dilated) flag field + clustering params."""
    hsh = hashlib.sha1(params_key)
    hsh.update(np.int64(flags.shape).tobytes())
    hsh.update(np.packbits(flags).tobytes())
    return hsh.digest()


def rebuild_hierarchy(hierarchy, level: int, criteria, dm_density_fn=None,
                      incremental: bool = True) -> None:
    """Rebuild grids on ``level`` and deeper.

    ``criteria`` is a :class:`RefinementCriteria`: its tests flag the
    cells and its regrid policy (``max_level``, ``efficiency``,
    ``min_size``, ``max_dims``) shapes the grids.
    ``max_dims`` caps each new grid's extent per dimension in parent cells
    (big boxes are bisected — keeps grids "generally small (~20^3) and
    numerous" as the paper describes).  ``dm_density_fn(grid)`` returns the
    deposited dark-matter density on a grid's interior (or None).

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
    max_level = criteria.max_level
    params_key = repr((criteria.efficiency, criteria.min_size, BUFFER_CELLS,
                       criteria.max_dims)).encode()
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
                parents = hierarchy.level_grids(lvl - 1)
                new_grids: list[tuple[Grid, Grid]] = []  # (child, parent)
                reused_ids: set[int] = set()
                r = hierarchy.refine_factor
                for parent in parents:
                    flags = criteria.flag_cells(
                        parent, dm_density_fn(parent) if dm_density_fn else None
                    )
                    for crit, count in criteria.last_flag_counts.items():
                        flag_counts[crit] = flag_counts.get(crit, 0) + count
                    if flags.any():
                        flags = binary_dilation(flags, iterations=BUFFER_CELLS)
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
                    boxes = cluster_flagged_cells(
                        flags, efficiency=criteria.efficiency,
                        min_size=criteria.min_size)
                    for box in boxes:
                        for blo, bhi in _split_box(box.lo, box.hi,
                                                   criteria.max_dims):
                            start = (parent.start_index + np.array(blo)) * r
                            dims = (np.array(bhi) - np.array(blo)) * r
                            g = Grid(lvl, start, dims, hierarchy.n_root, r,
                                     hierarchy.nghost)
                            g.allocate(hierarchy.advected, pool=pool)
                            new_grids.append((g, parent))

                for g, parent in new_grids:
                    reused = g.grid_id in reused_ids
                    hierarchy.add_grid(g, parent, reused=reused)
                    if reused:
                        # reset the per-step scratch a fresh Grid starts
                        # without, so reuse is invisible downstream
                        g.old_fields = None
                        g.old_time = DoubleDouble(0.0)
                        g.flux_accumulator = None
                        g.last_fluxes = None
                        stats["reused"] += 1
                    else:
                        stats["created"] += 1
                    g.time = DoubleDouble(parent.time)
                _fill_level([(g, parent, g.grid_id in reused_ids)
                             for g, parent in new_grids],
                            old_by_level.get(lvl, []))

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
