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
array; every hierarchy call site goes through the ``prolong.linear``
kernel (:mod:`repro.kernels`), whose NumPy reference is
:func:`prolong_boxes`.
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
    """NumPy reference of the ``prolong.linear`` kernel.

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
        raise ValueError("prolong.linear needs a refinement factor >= 2")
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


def shell_boxes(start, end, ng: int):
    """Six disjoint fine-index boxes tiling the ``ng``-wide ghost shell
    around the interior ``[start, end)``."""
    s = tuple(int(v) for v in start)
    e = tuple(int(v) for v in end)
    lo = (s[0] - ng, s[1] - ng, s[2] - ng)
    hi = (e[0] + ng, e[1] + ng, e[2] + ng)
    return [
        (lo, (s[0], hi[1], hi[2])),
        ((e[0], lo[1], lo[2]), hi),
        ((s[0], lo[1], lo[2]), (e[0], s[1], hi[2])),
        ((s[0], e[1], lo[2]), (e[0], hi[1], hi[2])),
        ((s[0], s[1], lo[2]), (e[0], e[1], s[2])),
        ((s[0], s[1], e[2]), (e[0], e[1], hi[2])),
    ]


def parent_covers(parent, lo_f, hi_f, r: int, pad: int = 0) -> bool:
    """Do ``parent``'s allocated (ghost-padded) arrays hold every parent
    cell under the fine region ``[lo_f, hi_f)``, plus ``pad`` cells?"""
    ng = parent.nghost
    need_lo = np.floor_divide(lo_f, r) - pad
    need_hi = -(-np.asarray(hi_f) // r) + pad
    return bool(np.all(need_lo >= parent.start_index - ng)
                and np.all(need_hi <= parent.end_index + ng))


def is_positive_field(name: str) -> bool:
    """Densities, energies and species partial densities are sign-definite;
    velocity components (and the potential) are not."""
    return name not in ("vx", "vy", "vz")


def time_interpolate(old: np.ndarray, new: np.ndarray, frac: float) -> np.ndarray:
    """Linear interpolation in time between two parent states."""
    frac = float(np.clip(frac, 0.0, 1.0))
    return old * (1.0 - frac) + new * frac
