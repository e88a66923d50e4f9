"""Berger–Rigoutsos point clustering ("an edge-detection algorithm from
machine vision studies", paper Sec. 3.2.2).

Given a boolean flag field, produce a small set of rectangular boxes that
(a) cover every flagged cell, (b) waste few unflagged cells (efficiency
threshold), using the classic signature / zero-gap / Laplacian-inflection
splitting recursion of Berger & Rigoutsos (1991).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Box:
    """Half-open integer box [lo, hi) in the flag array's index space."""

    lo: tuple
    hi: tuple

    @property
    def dims(self):
        return tuple(h - l for l, h in zip(self.lo, self.hi))

    @property
    def n_cells(self) -> int:
        return int(np.prod(self.dims))

    def shifted(self, offset) -> "Box":
        off = tuple(int(o) for o in offset)
        return Box(
            tuple(l + o for l, o in zip(self.lo, off)),
            tuple(h + o for h, o in zip(self.hi, off)),
        )


def _efficiency(flags: np.ndarray) -> float:
    return float(flags.sum()) / flags.size


def _bounding_box(flags: np.ndarray):
    """Tight bounding box of flagged cells, or None if none are set."""
    if not flags.any():
        return None
    lo, hi = [], []
    for axis in range(flags.ndim):
        proj = flags.any(axis=tuple(a for a in range(flags.ndim) if a != axis))
        idx = np.nonzero(proj)[0]
        lo.append(int(idx[0]))
        hi.append(int(idx[-1]) + 1)
    return tuple(lo), tuple(hi)


def _signatures(flags: np.ndarray):
    """Per-axis signature: count of flagged cells in each plane."""
    return [
        flags.sum(axis=tuple(a for a in range(flags.ndim) if a != axis))
        for axis in range(flags.ndim)
    ]


def _find_split(flags: np.ndarray, min_size: int):
    """Choose (axis, position) to split, or None.

    Preference order (Berger-Rigoutsos): a zero in a signature ("hole"),
    then the strongest zero-crossing of the signature's second derivative
    ("edge"), else the midpoint of the longest axis.
    """
    sigs = _signatures(flags)
    shape = flags.shape

    # 1. holes
    best = None
    for axis, sig in enumerate(sigs):
        zeros = np.nonzero(sig == 0)[0]
        zeros = zeros[(zeros >= min_size) & (zeros <= shape[axis] - min_size)]
        if len(zeros):
            # the hole closest to the centre gives the most balanced split
            pos = zeros[np.argmin(np.abs(zeros - shape[axis] / 2))]
            cand = (axis, int(pos))
            if best is None:
                best = cand
    if best is not None:
        return best

    # 2. inflection: max |delta(second derivative)| across a zero crossing
    best_val = 0
    best = None
    for axis, sig in enumerate(sigs):
        if shape[axis] < 2 * min_size + 2:
            continue
        lap = np.zeros(len(sig), dtype=np.int64)
        lap[1:-1] = sig[2:] - 2 * sig[1:-1] + sig[:-2]
        for i in range(min_size, shape[axis] - min_size):
            if lap[i - 1] * lap[i] < 0:
                val = abs(lap[i] - lap[i - 1])
                if val > best_val:
                    best_val = val
                    best = (axis, i)
    if best is not None:
        return best

    # 3. bisect the longest splittable axis
    axis = int(np.argmax(shape))
    if shape[axis] >= 2 * min_size:
        return axis, shape[axis] // 2
    return None


def cluster_flagged_cells(
    flags: np.ndarray,
    efficiency: float = 0.7,
    min_size: int = 2,
    max_boxes: int = 10000,
) -> list[Box]:
    """Cover all flagged cells with rectangles of at least ``efficiency``.

    Returns boxes in the index space of ``flags``.  The recursion accepts a
    box when its flagged fraction reaches the efficiency target, when it is
    already minimal, or when no admissible split exists.
    """
    flags = np.asarray(flags, dtype=bool)
    out: list[Box] = []
    bb = _bounding_box(flags)
    if bb is None:
        return out
    stack = [bb]
    while stack and len(out) < max_boxes:
        lo, hi = stack.pop()
        sub = flags[tuple(slice(l, h) for l, h in zip(lo, hi))]
        tight = _bounding_box(sub)
        if tight is None:
            continue
        # shrink to the tight bounding box (in global indices)
        hi = tuple(l + t for l, t in zip(lo, tight[1]))
        lo = tuple(l + t for l, t in zip(lo, tight[0]))
        sub = flags[tuple(slice(l, h) for l, h in zip(lo, hi))]
        eff = _efficiency(sub)
        if eff >= efficiency or all(s <= min_size for s in sub.shape):
            out.append(Box(lo, hi))
            continue
        split = _find_split(sub, min_size)
        if split is None:
            out.append(Box(lo, hi))
            continue
        axis, pos = split
        lo_a = list(lo)
        hi_a = list(hi)
        hi_a[axis] = lo[axis] + pos
        lo_b = list(lo)
        lo_b[axis] = lo[axis] + pos
        stack.append((tuple(lo_a), tuple(hi_a)))
        stack.append((tuple(lo_b), tuple(hi)))
    return out
