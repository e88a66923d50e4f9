"""RebuildHierarchy (paper Sec. 3.2.2), keeping every grid whose box survives.

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

**Box reuse.**  At hero-run scale the hierarchy is rebuilt thousands of
times while most of the tree is unchanged between rebuilds (the regime
the Enzo method papers describe); re-allocating and re-filling every
subgrid from scratch each time is the first-order cost the paper's
Fig. 5 discussion attributes to RebuildHierarchy.  Every parent is
clustered afresh, and one rule decides reuse: a new box equal (start and
dims) to a retiring grid's box on the same level keeps that ``Grid`` —
same object, same arrays (fields, potential and old-state snapshot: a
grid's arrays are fixed for its life) — in the new box's place in the
level's grid order.  Only its ghost shell is refilled, in the level's one
``fill.level`` call (prolongation from the new parent plus old
same-level copies, exactly the values the from-scratch fill would have
produced there); its interior is what the from-scratch fill would copy
into a fresh grid of that box, i.e. unchanged.  Grids kept this way may
sit under a parent that was itself kept, or under a new one.  The other
boxes get new grids with new arrays, and each retired level's grids drop
their arrays (:meth:`~repro.amr.grid.Grid.release`) as soon as its copy
pass finishes, so nothing is held for a later rebuild.  A level whose
grids and whose parent level's grids all survive keeps its cached
topology (:meth:`~repro.amr.hierarchy.Hierarchy.level_topology`) with its
checked ghost and Poisson plans; any other level's topology is evicted,
since its plans point to the old grids' arrays: once every parent of the
level is clustered and before any of its new grids is allocated (so the
stale plans and the new arrays are never live together), and for the
levels the rebuild empties once their old grids retire.

The correctness gate: a reusing rebuild produces a hierarchy bitwise
identical to the from-scratch path (``incremental=False``) — same boxes
in the same order, same field contents, same times.
"""

from __future__ import annotations

import numpy as np

from repro.amr.clustering import cluster_flagged_cells
from repro.amr.grid import Grid
from repro.amr.interpolation import (
    FillPlan,
    fill_layout,
    parent_covers,
    shell_table,
)
from repro.amr.topology import box_overlaps, parent_table
from repro.kernels import dispatch as kernels

#: safety cells each parent's flag field is dilated by before clustering
BUFFER_CELLS = 1


def _fill_level(entries, old_grids) -> None:
    """Fill one level's rebuilt grids in one ``fill.level`` call (see
    :func:`rebuild_fill_plan`)."""
    if entries:
        kernels.get("fill.level")(rebuild_fill_plan(entries, old_grids))


def rebuild_fill_plan(entries, old_grids) -> FillPlan:
    """The one-off ``fill.level`` plan that fills one level's rebuilt
    grids.

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

    _, arrays, positive = fill_layout(grids[0])
    sources = []
    for o in (old_grids[u] for u in used.tolist()):
        sources.append((arrays(o), (o.start_index - o.nghost).tolist(),
                        o.start_index.tolist(), o.end_index.tolist()))
    return FillPlan(
        [(arrays(g), origin, k, 1.0)
         for g, origin, k in zip(grids, (starts - ng).tolist(), parent_of)],
        [(arrays(p), None, origin) for p, origin in zip(parents, p_lo.tolist())],
        sources, fill, np.column_stack([i, j, lo, hi]), r, positive)


def _dilate(flags: np.ndarray, iterations: int) -> np.ndarray:
    """Grow a boolean flag field by ``iterations`` face-neighbour cells.

    Each pass ORs in the six face-shifted copies of the previous pass;
    cells past the array border count as unflagged.  That is
    ``scipy.ndimage.binary_dilation`` with its default cross structure
    and ``border_value=0``, without importing scipy.
    """
    out = np.asarray(flags, dtype=bool)
    for _ in range(iterations):
        src, out = out, out.copy()
        for ax in range(src.ndim):
            lo = [slice(None)] * src.ndim
            hi = [slice(None)] * src.ndim
            lo[ax], hi[ax] = slice(None, -1), slice(1, None)
            out[tuple(hi)] |= src[tuple(lo)]
            out[tuple(lo)] |= src[tuple(hi)]
    return out


def rebuild_hierarchy(hierarchy, level: int, criteria,
                      incremental: bool = True) -> None:
    """Rebuild grids on ``level`` and deeper.

    ``criteria`` is a :class:`RefinementCriteria`: its tests flag the
    cells and its regrid policy (``max_level``, ``efficiency``,
    ``min_size``, ``max_dims``) shapes the grids.
    ``max_dims`` caps each new grid's extent per dimension in parent cells
    (big boxes are bisected — keeps grids "generally small (~20^3) and
    numerous" as the paper describes).  The dark-matter criterion reads
    each parent's deposit from ``hierarchy.dm_density``.

    With ``incremental=True`` (the default) every new box equal to a
    retiring grid's box keeps that grid (see the module docstring);
    ``incremental=False`` creates every grid afresh.  Both paths produce
    bitwise-identical hierarchies; counters land in
    ``hierarchy.last_rebuild_stats`` and the cumulative ``grids_created`` /
    ``grids_destroyed`` / ``grids_reused``; ``hierarchy.pool.acquires``
    counts the arrays the new grids allocate.
    """
    if level < 1:
        raise ValueError("the root grid is never rebuilt")

    max_level = criteria.max_level
    r = hierarchy.refine_factor
    stats = {"level": level, "parents": 0, "parents_reused": 0,
             "created": 0, "reused": 0, "destroyed": 0}
    flag_counts: dict[str, int] = {}

    # keep the old grids' data alive for copying while the tree is replaced;
    # each level's list is dropped (and its arrays freed) as soon as that
    # level's copy pass finishes, so memory frees level-by-level
    old_by_level = {
        l: list(hierarchy.level_grids(l))
        for l in range(level, hierarchy.max_level + 1)
    }

    def retire(old_grids):
        for g in old_grids:
            stats["destroyed"] += 1
            hierarchy.grids_destroyed += 1
            g.release()

    hierarchy.remove_level_grids(level)

    lvl = level
    while max_level is None or lvl <= max_level:
        old_grids = old_by_level.pop(lvl, [])
        # old grids by box; a new box equal to one keeps that grid
        retiring = {(*g.start_index.tolist(), *g.dims.tolist()): g
                    for g in old_grids}
        # every parent is clustered before any new grid is allocated:
        # (parent, start, dims, the kept grid or None), in grid order
        boxes: list[tuple[Grid, np.ndarray, np.ndarray, Grid | None]] = []
        for parent in hierarchy.level_grids(lvl - 1):
            flags = criteria.flag_cells(parent, hierarchy.dm_density(parent))
            for crit, count in criteria.last_flag_counts.items():
                flag_counts[crit] = flag_counts.get(crit, 0) + count
            stats["parents"] += 1
            if not flags.any():
                continue
            first = len(boxes)
            for box in cluster_flagged_cells(
                    _dilate(flags, BUFFER_CELLS),
                    efficiency=criteria.efficiency,
                    min_size=criteria.min_size):
                for blo, bhi in _split_box(box.lo, box.hi, criteria.max_dims):
                    start = (parent.start_index + np.array(blo)) * r
                    dims = (np.array(bhi) - np.array(blo)) * r
                    key = (*start.tolist(), *dims.tolist())
                    kept = retiring.pop(key, None) if incremental else None
                    boxes.append((parent, start, dims, kept))
            if all(kept is not None for *_, kept in boxes[first:]):
                stats["parents_reused"] += 1  # every box survived

        # the level's members are known now (a box that gets a new grid
        # stands as None, which matches no cached member): a stale
        # topology and the plans it holds go before the new arrays come
        hierarchy.evict_stale_topology(lvl, [kept for *_, kept in boxes])
        # (child, parent, kept): the entries the level's fill takes
        new_grids: list[tuple[Grid, Grid, bool]] = []
        for parent, start, dims, g in boxes:
            kept = g is not None
            if not kept:
                g = Grid(lvl, start, dims, hierarchy.n_root, r,
                         hierarchy.nghost)
                g.allocate(hierarchy.advected)
                # its fields and its potential
                hierarchy.pool.acquires += len(g.fields.array_items()) + 1
            hierarchy.add_grid(g, parent, reused=kept)
            if kept:
                # reset the per-step flux scratch a fresh Grid starts
                # without; the snapshot stays (its arrays are the grid's
                # for life, and its next step overwrites them)
                g.flux_accumulator = None
                g.last_fluxes = None
            stats["reused" if kept else "created"] += 1
            new_grids.append((g, parent, kept))
        _fill_level(new_grids, old_grids)

        # this level's copy pass is done: free its old grids now
        retire(retiring.values())
        if not new_grids:
            break
        lvl += 1

    # levels past a break (cap reached / flags vanished) are gone
    for l in sorted(old_by_level):
        retire(old_by_level.pop(l))
        hierarchy.evict_stale_topology(l)

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
