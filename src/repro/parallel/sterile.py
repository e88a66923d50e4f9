"""Sterile objects: metadata-only grid replicas (paper Sec. 3.4).

"We solved this problem by creating a type of object which contained
information about the location and size of a grid, but did not contain the
actual solution.  These sterile objects are small and so each processor can
hold the entire hierarchy.  Only those grids which are local to that
processor are non-sterile."
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SterileGrid:
    """Location + size + owner of a grid; no solution arrays.

    ~100 bytes instead of megabytes — the paper's point is precisely this
    ratio, which is what lets every rank replicate the whole hierarchy.
    """

    grid_id: int
    level: int
    start_index: tuple
    dims: tuple
    proc: int
    nghost: int = 3

    @classmethod
    def from_grid(cls, grid) -> "SterileGrid":
        return cls(
            grid_id=grid.grid_id,
            level=grid.level,
            start_index=tuple(int(s) for s in grid.start_index),
            dims=tuple(int(d) for d in grid.dims),
            proc=grid.proc,
            nghost=grid.nghost,
        )

    @property
    def end_index(self) -> tuple:
        return tuple(s + d for s, d in zip(self.start_index, self.dims))

    @property
    def n_cells(self) -> int:
        return int(np.prod(self.dims))

    @property
    def nbytes(self) -> int:
        """Approximate metadata footprint."""
        return 8 * (3 + 3 + 4)

    def data_nbytes(self, n_fields: int = 18) -> int:
        """What the full (non-sterile) grid would occupy."""
        padded = np.prod([d + 2 * self.nghost for d in self.dims])
        return int(padded) * 8 * n_fields

    def ghost_overlap(self, other: "SterileGrid"):
        """Same-level ghost-region intersection (None if disjoint)."""
        if other.level != self.level:
            return None
        lo = tuple(
            max(s - self.nghost, o) for s, o in zip(self.start_index, other.start_index)
        )
        hi = tuple(
            min(e + self.nghost, oe) for e, oe in zip(self.end_index, other.end_index)
        )
        if any(l >= h for l, h in zip(lo, hi)):
            return None
        return lo, hi


class SterileHierarchy:
    """Every rank's local replica of the full hierarchy metadata."""

    def __init__(self, sterile_grids=()):
        self.by_level: dict[int, list[SterileGrid]] = {}
        for s in sterile_grids:
            self.by_level.setdefault(s.level, []).append(s)

    @classmethod
    def from_hierarchy(cls, hierarchy) -> "SterileHierarchy":
        return cls(SterileGrid.from_grid(g) for g in hierarchy.all_grids())

    def add(self, sterile: SterileGrid) -> None:
        self.by_level.setdefault(sterile.level, []).append(sterile)

    def level(self, level: int) -> list[SterileGrid]:
        return self.by_level.get(level, [])

    @property
    def n_grids(self) -> int:
        return sum(len(v) for v in self.by_level.values())

    @property
    def nbytes(self) -> int:
        return sum(s.nbytes for lvl in self.by_level.values() for s in lvl)

    def find_siblings(self, grid: SterileGrid) -> list[SterileGrid]:
        """Neighbour lookup — entirely local, zero messages."""
        return [
            o for o in self.level(grid.level)
            if o.grid_id != grid.grid_id and grid.ghost_overlap(o) is not None
        ]

def find_siblings_with_probes(grid: SterileGrid, cluster, rank: int,
                              all_grids_by_rank: dict) -> list[SterileGrid]:
    """The pre-sterile alternative: ask every other rank what it owns.

    Each remote rank costs one probe round-trip; the answer is then
    filtered locally.  Used by the benchmarks to quantify what sterile
    objects save.
    """
    results = []
    for other_rank in range(cluster.n_ranks):
        if other_rank == rank:
            candidates = all_grids_by_rank.get(rank, [])
        else:
            cluster.probe(rank, other_rank)
            candidates = all_grids_by_rank.get(other_rank, [])
        for o in candidates:
            if (
                o.level == grid.level
                and o.grid_id != grid.grid_id
                and grid.ghost_overlap(o) is not None
            ):
                results.append(o)
    return results
