"""Parent -> child interpolation (prolongation).

Three uses in the hierarchy (paper Sec. 3.2, 3.3):

* filling a newborn child grid where no old same-level data exists,
* setting child *ghost* boundary values each step, time-interpolated
  between the parent's old and new states, and
* the Dirichlet rim of a subgrid's Poisson solve.

The spatial operator is conservative piecewise-linear reconstruction:
each parent cell gets MC-limited slopes and the children sample the linear
profile, so the mean of the r^3 children equals the parent value exactly
(the property the projection step and the conservation tests rely on).
:func:`prolong_linear` is the definition of the operator on a whole
array.  Every hierarchy call site fills a whole level's targets through
the ``fill.level`` kernel (:mod:`repro.kernels`): prolongation from the
parent wherever no same-level interior is copied in.  Its NumPy
reference is :func:`fill_level_numpy` (:func:`subtract_boxes`, then
:func:`prolong_boxes`, then slice copies); its tables come checked in a
:class:`FillPlan`.
"""

from __future__ import annotations

import numpy as np


def _limited_slopes(q: np.ndarray, axis: int) -> np.ndarray:
    """MC-limited slope per cell along one axis (zero at the array edges)."""
    dq = np.zeros_like(q)
    sl_c = [slice(None)] * q.ndim
    sl_c[axis] = slice(1, -1)
    # one diff serves both one-sided differences: dm/dp are adjacent
    # slices of it (identical subtractions, computed once)
    d = np.diff(q, axis=axis)
    sl_m = [slice(None)] * q.ndim
    sl_p = [slice(None)] * q.ndim
    sl_m[axis] = slice(0, -1)
    sl_p[axis] = slice(1, None)
    dm = d[tuple(sl_m)]
    dp = d[tuple(sl_p)]
    centred = 0.5 * (dm + dp)
    lim = np.where(
        dm * dp > 0.0,
        np.sign(centred) * np.minimum(np.abs(centred), 2.0 * np.minimum(np.abs(dm), np.abs(dp))),
        0.0,
    )
    dq[tuple(sl_c)] = lim
    return dq


def prolong_linear(coarse: np.ndarray, r: int, positive: bool = False) -> np.ndarray:
    """Conservative linear prolongation of a 3-d array by factor r.

    Output shape is ``r * coarse.shape``.  Mean over each r^3 block equals
    the coarse value exactly.  Slopes at the array boundary are zero
    (callers pass a coarse array padded by one cell when they need
    full-order boundary behaviour).

    With ``positive=True`` the three axis slopes are jointly rescaled per
    parent cell so no child value can undershoot zero (each axis limiter is
    positivity-preserving alone, but the *sum* of three slope terms is not
    — densities and energies need this, signed fields must not use it).
    """
    if r == 1:
        return coarse.copy()
    # child-centre offsets within the parent cell, in parent-cell units:
    # (i + 0.5)/r - 0.5 for i in 0..r-1; they average to zero
    offsets = (np.arange(r) + 0.5) / r - 0.5
    max_off = 0.5 * (1.0 - 1.0 / r)
    slopes = [_limited_slopes(coarse, axis) for axis in range(3)]
    if positive:
        reach = max_off * (np.abs(slopes[0]) + np.abs(slopes[1]) + np.abs(slopes[2]))
        with np.errstate(invalid="ignore", divide="ignore"):
            scale = np.where(reach > coarse, coarse / np.maximum(reach, 1e-300), 1.0)
        scale = np.clip(scale, 0.0, 1.0)
        slopes = [s * scale for s in slopes]
    out = np.repeat(np.repeat(np.repeat(coarse, r, 0), r, 1), r, 2)
    for axis in range(3):
        s_rep = np.repeat(np.repeat(np.repeat(slopes[axis], r, 0), r, 1), r, 2)
        off_axis = offsets[np.arange(out.shape[axis]) % r]
        bshape = [1, 1, 1]
        bshape[axis] = out.shape[axis]
        out = out + s_rep * off_axis.reshape(bshape)
    return out


def prolong_slopes(stack: np.ndarray, r: int, positive) -> list[np.ndarray]:
    """Per-axis MC-limited slopes for a ``(F, ...)`` stack, positivity
    rescale applied to the fields flagged in ``positive`` — the
    reconstruction state :func:`gather_prolong_boxes` samples."""
    slopes = [_limited_slopes(stack, axis) for axis in (1, 2, 3)]
    mask = np.asarray(positive, dtype=bool)
    if mask.any():
        max_off = 0.5 * (1.0 - 1.0 / r)
        pos = stack[mask]
        reach = max_off * (np.abs(slopes[0][mask])
                           + np.abs(slopes[1][mask])
                           + np.abs(slopes[2][mask]))
        with np.errstate(invalid="ignore", divide="ignore"):
            scale = np.where(reach > pos, pos / np.maximum(reach, 1e-300), 1.0)
        scale = np.clip(scale, 0.0, 1.0)
        for s in slopes:
            s[mask] *= scale
    return slopes


def gather_prolong_boxes(stack: np.ndarray, slopes, r: int, boxes):
    """Sample many fine windows of the linear reconstruction in one pass.

    ``boxes`` is a list of ``(offset, shape)`` windows in the fine image
    of the slab; the return value is a ``(F, N)`` array over all the
    windows' cells — each window raveled in C order, windows concatenated
    in list order.  Each fine cell gathers its parent's value and per-axis
    slopes and applies the three slope terms in axis order, exactly as
    :func:`prolong_linear` does.
    """
    ny_s, nz_s = stack.shape[2], stack.shape[3]
    flat_idx = []
    offs_flat = [[], [], []]
    offsets = (np.arange(r) + 0.5) / r - 0.5
    for off, shape in boxes:
        ax_idx = []
        for a in range(3):
            f = np.arange(int(off[a]), int(off[a]) + int(shape[a]))
            ax_idx.append(f // r)
            offs_flat[a].append(
                np.broadcast_to(
                    offsets[f % r].reshape(
                        [-1 if d == a else 1 for d in range(3)]
                    ),
                    tuple(int(s) for s in shape),
                ).ravel()
            )
        # one flat index into the slab's raveled spatial dims per cell
        flat_idx.append(
            (ax_idx[0][:, None, None] * (ny_s * nz_s)
             + ax_idx[1][None, :, None] * nz_s
             + ax_idx[2][None, None, :]).ravel()
        )
    idx = np.concatenate(flat_idx)
    out = stack.reshape(stack.shape[0], -1)[:, idx]
    for a in range(3):
        out = out + (slopes[a].reshape(stack.shape[0], -1)[:, idx]
                     * np.concatenate(offs_flat[a]))
    return out


def prolong_boxes(coarse, coarse_old, frac, positive, coarse_origin, r,
                  fine, fine_origin, boxes) -> None:
    """The prolongation step of :func:`fill_level_numpy` for one target.

    Fills the fine-index ``boxes`` (``(lo, hi)`` pairs) of the child
    arrays ``fine`` (first cell at fine index ``fine_origin``) by
    conservative linear prolongation of the parent arrays ``coarse``
    (first cell at coarse index ``coarse_origin``, refinement ``r >= 2``).
    Field ``f`` is first interpolated in time, ``coarse_old[f] * (1 -
    frac) + coarse[f] * frac``, when it has an old state and ``frac <
    1``; fields flagged in ``positive`` get the positivity rescale.  A
    slope is zero only along an axis where the parent cell sits on the
    edge of the parent array; every other sampled cell keeps both
    neighbours, so the values do not depend on how a region is tiled
    into boxes.  Callers guarantee the boxes lie inside ``fine`` and the
    parent cells under them inside ``coarse``.
    """
    if r < 2:
        raise ValueError("fill.level needs a refinement factor >= 2")
    if not boxes:
        return
    lo = np.array([b[0] for b in boxes], dtype=np.int64).reshape(-1, 3)
    hi = np.array([b[1] for b in boxes], dtype=np.int64).reshape(-1, 3)
    origin = np.asarray(coarse_origin, dtype=np.int64)
    # the parent cells under the boxes plus a 1-cell slope pad, clamped
    # to the parent arrays (where the slope is zero by definition)
    slab_lo = np.maximum(lo.min(axis=0) // r - 1, origin)
    slab_hi = np.minimum(-(-hi.max(axis=0) // r) + 1,
                         origin + coarse[0].shape)
    p_sl = tuple(slice(int(a - o), int(b - o))
                 for a, b, o in zip(slab_lo, slab_hi, origin))
    interpolate = coarse_old is not None and frac < 1.0
    stack = np.stack([
        time_interpolate(coarse_old[f][p_sl], new[p_sl], frac)
        if interpolate and coarse_old[f] is not None else new[p_sl]
        for f, new in enumerate(coarse)
    ])
    slopes = prolong_slopes(stack, r, positive)
    values = gather_prolong_boxes(
        stack, slopes, r, list(zip(lo - slab_lo * r, hi - lo)))
    # scatter through one flat (C-order) index per call
    base = np.asarray(fine_origin, dtype=np.int64)
    ny_a, nz_a = fine[0].shape[1:]
    dst = np.concatenate([
        (np.arange(l[0], h[0])[:, None, None] * (ny_a * nz_a)
         + np.arange(l[1], h[1])[None, :, None] * nz_a
         + np.arange(l[2], h[2])[None, None, :]).ravel()
        for l, h in zip(lo - base, hi - base)
    ])
    for arr, vals in zip(fine, values):
        np.put(arr, dst, vals)


class FillPlan:
    """One ``fill.level`` call's tables, checked once.

    Built from ``(targets, parents, sources, fill, copies, r, positive)``.
    ``targets`` are ``(arrays, origin, parent, frac)``: the target's
    arrays, one per field (first cell at fine index ``origin``), an index
    into ``parents`` and the time fraction its parent is interpolated
    at.  ``parents`` are ``(arrays, old, origin)``: the coarse arrays,
    their old states (``None``, or a list holding ``None`` for a field
    without one) and the coarse index of their first cell.  ``sources``
    are ``(arrays, origin, lo, hi)``: same-level arrays and their
    interior ``[lo, hi)``.  ``fill`` rows are ``(target, lo, hi)``
    fine-index boxes, ``copies`` rows ``(target, source, lo, hi)``, both
    grouped by target in ascending order; ``positive`` flags the
    sign-definite fields.

    The constructor is the one place the tables are checked, because the
    compiled tier indexes raw memory with them: every table index, every
    box, the parent cells under every fill box and every copy source
    against the arrays they reach, and that no target writes its own
    interior as a source (so no target reads what another writes, and
    the order of the targets is irrelevant).  The ``frac`` entries are
    the default time fractions (``fracs``); a plan a
    :class:`~repro.amr.topology.LevelTopology` keeps is run again with
    new ones.  The plan holds the arrays themselves, so ``native`` (the
    compiled tier's pointer tables, filled on its first call) never
    outlives them.
    """

    __slots__ = ("targets", "parents", "sources", "fill", "copies", "r",
                 "positive", "fracs", "t_geom", "p_geom", "s_geom", "native")

    def __init__(self, targets, parents, sources, fill, copies, r,
                 positive):
        r, nf = int(r), len(positive)
        if r < 2:
            raise ValueError("fill.level needs a refinement factor >= 2")
        fill = _box_rows(fill, 7, "fill")
        copies = _box_rows(copies, 8, "copy")
        t_geom = [(*_field_shape(arrays, nf), *origin, p)
                  for arrays, origin, p, _ in targets]
        p_geom = []
        for arrays, old, origin in parents:
            shape = _field_shape(arrays, nf)
            if old is not None and (len(old) != nf or any(
                    a is not None and a.shape != shape for a in old)):
                raise ValueError("fill.level: field shapes differ")
            p_geom.append((*shape, *origin))
        s_geom = [(*_field_shape(arrays, nf), *origin)
                  for arrays, origin, _, _ in sources]
        s_box = [(*lo, *hi) for _, _, lo, hi in sources]
        t_geom, p_geom, s_geom, s_box = (
            np.array(x, dtype=np.int64).reshape(-1, w)
            for x, w in ((t_geom, 7), (p_geom, 6), (s_geom, 6), (s_box, 6)))

        n_t = len(t_geom)
        for index, bound, grouped in ((fill[:, 0], n_t, True),
                                      (copies[:, 0], n_t, True),
                                      (copies[:, 1], len(s_geom), False),
                                      (t_geom[:, 6], len(p_geom), False)):
            if index.size and (index.min() < 0 or index.max() >= bound
                               or grouped and np.any(index[1:] < index[:-1])):
                raise ValueError("fill.level: table rows out of range or "
                                 "not grouped by target")

        def inside(lo, hi, geom):
            return np.all((lo <= hi) & (lo >= geom[:, 3:6])
                          & (hi <= geom[:, 3:6] + geom[:, :3]))

        f_lo, f_hi = fill[:, 1:4], fill[:, 4:7]
        c_lo, c_hi = copies[:, 2:5], copies[:, 5:8]
        pg = p_geom[t_geom[fill[:, 0], 6]]
        if not (inside(f_lo, f_hi, t_geom[fill[:, 0]])
                and inside(c_lo, c_hi, t_geom[copies[:, 0]])
                and np.all(f_lo // r >= pg[:, 3:6])
                and np.all(-(-f_hi // r) <= pg[:, 3:6] + pg[:, :3])):
            raise ValueError("fill.level: box outside the arrays")
        if not inside(s_box[:, :3], s_box[:, 3:], s_geom):
            raise ValueError("fill.level: source interior outside its "
                             "arrays")
        src = s_box[copies[:, 1]]
        if not np.all((c_lo >= src[:, :3]) & (c_hi <= src[:, 3:])):
            raise ValueError("fill.level: copy source outside its interior")
        owner = {id(a): s for s, source in enumerate(sources)
                 for a in source[0]}
        as_source = np.full(n_t, -1)
        for t, (arrays, *_) in enumerate(targets):
            for a in arrays:
                if id(a) in owner:
                    as_source[t] = owner[id(a)]
                    break
        for t, lo, hi in ((fill[:, 0], f_lo, f_hi),
                          (copies[:, 0], c_lo, c_hi)):
            s = as_source[t]
            own = s_box[s[s >= 0]]
            if np.any(np.all(np.maximum(lo[s >= 0], own[:, :3])
                             < np.minimum(hi[s >= 0], own[:, 3:]), axis=1)):
                raise ValueError("fill.level: a target writes its own "
                                 "interior as a source")

        self.targets = [(list(arrays), origin, p)
                        for arrays, origin, p, _ in targets]
        self.fracs = [float(t[3]) for t in targets]
        self.parents = [(list(arrays), None if old is None else list(old),
                         origin) for arrays, old, origin in parents]
        self.sources = [(list(arrays), origin) for arrays, origin, _, _
                        in sources]
        self.fill, self.copies, self.r = fill, copies, r
        self.positive = [bool(p) for p in positive]
        self.t_geom, self.p_geom, self.s_geom = t_geom, p_geom, s_geom
        self.native = None


def _box_rows(table, width, what):
    """``table`` as contiguous int64 rows of ``width`` columns."""
    rows = np.ascontiguousarray(table, dtype=np.int64)
    if rows.size == 0:
        return rows.reshape(0, width)
    if rows.ndim != 2 or rows.shape[1] != width:
        raise ValueError(f"fill.level: {what} rows need {width} columns")
    return rows


def _field_shape(arrays, nf):
    """The one 3-d shape of ``nf`` arrays."""
    shape = arrays[0].shape if nf and len(arrays) == nf else ()
    if len(shape) != 3 or any(a.shape != shape for a in arrays):
        raise ValueError("fill.level: field shapes differ")
    return shape


def fill_level_numpy(plan: FillPlan, fracs=None) -> None:
    """NumPy reference of the ``fill.level`` kernel: fill the target
    arrays of ``plan`` (a :class:`FillPlan`) from their parents and from
    same-level interiors, target ``t`` at time fraction ``fracs[t]``
    (default ``plan.fracs``).

    For each target, in table order: its copy boxes are subtracted from
    its fill boxes (:func:`subtract_boxes`), the remaining cells are
    prolonged from its parent (:func:`prolong_boxes`), and the copies are
    applied.  Prolongation is per-cell local, so a cell a copy overwrites
    never needs prolonging.
    """
    fracs = plan.fracs if fracs is None else fracs
    fill, copies = plan.fill, plan.copies
    n_t = len(plan.targets)
    f_at = np.searchsorted(fill[:, 0], np.arange(n_t + 1)).tolist()
    c_at = np.searchsorted(copies[:, 0], np.arange(n_t + 1)).tolist()
    for t, (arrays, origin, p) in enumerate(plan.targets):
        coarse, old, coarse_origin = plan.parents[p]
        mine = copies[c_at[t]:c_at[t + 1]].tolist()
        covers = [(c[2:5], c[5:8]) for c in mine]
        fragments = []
        for row in fill[f_at[t]:f_at[t + 1]].tolist():
            fragments += subtract_boxes(row[1:4], row[4:7], covers)
        prolong_boxes(coarse, old, float(fracs[t]), plan.positive,
                      coarse_origin, plan.r, arrays, origin, fragments)
        for _, s, *box in mine:
            src, src_origin = plan.sources[s]
            dst_sl, src_sl = _box_slices(box, origin), _box_slices(box,
                                                                  src_origin)
            for arr, src_arr in zip(arrays, src):
                arr[dst_sl] = src_arr[src_sl]


def _box_slices(box, origin):
    """The fine-index ``box`` (``lo + hi``) as slices of an array whose
    first cell sits at fine index ``origin``."""
    return tuple(slice(int(box[d] - origin[d]), int(box[d + 3] - origin[d]))
                 for d in range(3))


def subtract_boxes(lo, hi, covers):
    """Sub-boxes of ``[lo, hi)`` not covered by any box in ``covers``.

    Standard SAMR box arithmetic: each cover splits every surviving box
    into up to six axis-aligned remainders (the covered core is dropped).
    Deterministic in the order of ``covers``; any decomposition yields the
    same cell set, and the prolongation is per-cell local, so the values
    filled are independent of how the remainder is tiled.
    """
    # plain int tuples throughout: these are 3-vectors, where numpy's
    # per-call overhead dwarfs the arithmetic
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


#: the six ghost-shell slabs as picks from (start - ng, start, end,
#: end + ng), one per corner coordinate: the x slabs span the whole
#: shell, the y slabs the x interior, the z slabs the x-y interior
_SHELL = np.array([(0, 0, 0, 1, 3, 3), (2, 0, 0, 3, 3, 3),
                   (1, 0, 0, 2, 1, 3), (1, 2, 0, 2, 3, 3),
                   (1, 1, 0, 2, 2, 1), (1, 1, 2, 2, 2, 3)])


def shell_table(starts, ends, ng: int) -> np.ndarray:
    """``(6 n, 7)`` int64 rows ``(target, lo, hi)``: the six disjoint
    fine-index boxes tiling the ``ng``-wide ghost shell around each
    interior ``[starts[t], ends[t])``, grouped by target."""
    s = np.asarray(starts, dtype=np.int64).reshape(-1, 3)
    e = np.asarray(ends, dtype=np.int64).reshape(-1, 3)
    bounds = np.stack([s - ng, s, e, e + ng])
    out = np.empty((len(s), 6, 7), dtype=np.int64)
    out[:, :, 0] = np.arange(len(s))[:, None]
    out[:, :, 1:] = bounds[_SHELL, :, np.arange(6) % 3].transpose(2, 0, 1)
    return out.reshape(-1, 7)


def parent_covers(lo_f, hi_f, parent_lo, parent_hi, r: int,
                  pad: int = 0) -> np.ndarray:
    """Per row: do parent arrays allocated over the coarse indices
    ``[parent_lo, parent_hi)`` hold every parent cell under the fine
    region ``[lo_f, hi_f)``, plus ``pad`` cells?"""
    need_lo = np.floor_divide(lo_f, r) - pad
    need_hi = -(-np.asarray(hi_f) // r) + pad
    return np.all((need_lo >= parent_lo) & (need_hi <= parent_hi), axis=-1)


def is_positive_field(name: str) -> bool:
    """Densities, energies and species partial densities are sign-definite;
    velocity components (and the potential) are not."""
    return name not in ("vx", "vy", "vz")


def fill_layout(grid):
    """The arrays every level fill moves, in order: the fields of
    ``grid``'s layout, then the potential.  Returns ``(names, arrays,
    positive)``: the field names, ``arrays(g)`` listing a grid's arrays in
    that order, and their sign-definite flags (the potential's ``False``)."""
    names = [k for k, _ in grid.fields.array_items()]

    def arrays(g):
        return [g.fields[n] for n in names] + [g.phi]

    return names, arrays, [is_positive_field(n) for n in names] + [False]


def time_interpolate(old: np.ndarray, new: np.ndarray, frac: float) -> np.ndarray:
    """Linear interpolation in time between two parent states."""
    frac = float(np.clip(frac, 0.0, 1.0))
    return old * (1.0 - frac) + new * frac
