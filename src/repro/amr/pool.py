"""Field-array pool: recycled float64 buffers for grid (re)builds.

The paper's Fig. 5 discussion singles out grid allocation/free traffic as
a first-order cost of RebuildHierarchy at hero-run scale ("the entire
grid hierarchy is rebuilt thousands of times"): at ~8000 subgrids a
rebuild destroys and recreates thousands of ~20^3 field arrays whose
shapes repeat almost exactly between epochs.  This free-list keeps those
buffers alive across rebuilds — keyed by ``shape_with_ghosts`` — so a
destroyed grid's arrays become the next created grid's arrays instead of
a round-trip through the allocator.

Contracts:

* Only owning, C-contiguous float64 arrays enter the pool (views are
  refused), so an acquired buffer can never alias a live grid's data.
* Buffers come back *dirty*; every consumer overwrites them in full
  (``make_fields`` writes the uniform initial state, ``_fill_level``
  the prolonged/copied one), which keeps pooled and unpooled allocation
  bitwise identical.
* ``release_grid`` detaches the grid's arrays (``fields``/``phi``/
  ``old_fields`` become ``None``) before pooling them, so a retired grid
  object cannot reach a buffer that a live grid has since acquired.
* A buffer is kept for one rebuild only.  :meth:`age` (the last thing
  every ``rebuild_hierarchy`` call does) hands the buffers released
  before the previous ``age`` and still unclaimed back to the allocator,
  and ``acquire`` draws those older buffers first.  Shapes the run has
  stopped producing are therefore freed one rebuild later, and after any
  rebuild the free list holds at most that rebuild's releases.
"""

from __future__ import annotations

import numpy as np


class FieldArrayPool:
    """Free-list of ndarray buffers keyed by shape, in two generations:
    ``_older`` (released before the last :meth:`age`) and ``_newer``."""

    def __init__(self):
        self._older: dict[tuple, list[np.ndarray]] = {}
        self._newer: dict[tuple, list[np.ndarray]] = {}
        # telemetry counters (benchmarks and the pool tests read these)
        self.acquires = 0
        self.hits = 0
        self.releases = 0
        self.dropped = 0

    # --------------------------------------------------------------- acquire
    def acquire(self, shape) -> np.ndarray:
        """A float64 buffer of ``shape``; contents are unspecified."""
        shape = tuple(int(s) for s in shape)
        self.acquires += 1
        for free in (self._older.get(shape), self._newer.get(shape)):
            if free:
                self.hits += 1
                return free.pop()
        return np.empty(shape, dtype=np.float64)

    # --------------------------------------------------------------- release
    def release(self, arr: np.ndarray) -> None:
        """Return one buffer to the free list (views/foreign dtypes dropped)."""
        if (
            not isinstance(arr, np.ndarray)
            or arr.base is not None
            or arr.dtype != np.float64
            or not arr.flags.c_contiguous
            or not arr.flags.writeable
        ):
            self.dropped += 1
            return
        self.releases += 1
        self._newer.setdefault(arr.shape, []).append(arr)

    def release_grid(self, grid) -> None:
        """Recycle a retired grid's storage and sever its array refs."""
        for fields in (grid.fields, grid.old_fields):
            if fields is not None:
                for _, arr in fields.array_items():
                    self.release(arr)
        if grid.phi is not None:
            self.release(grid.phi)
        grid.fields = None
        grid.old_fields = None
        grid.phi = None
        grid.flux_accumulator = None
        grid.last_fluxes = None

    def age(self) -> None:
        """End a rebuild: drop the older generation's unclaimed buffers
        to the allocator; what was released since the last call becomes
        the older generation."""
        self.dropped += sum(len(v) for v in self._older.values())
        self._older, self._newer = self._newer, {}

    # --------------------------------------------------------------- metrics
    def _lists(self):
        return [*self._older.values(), *self._newer.values()]

    @property
    def free_arrays(self) -> int:
        return sum(len(v) for v in self._lists())

    def free_bytes(self) -> int:
        return sum(a.nbytes for v in self._lists() for a in v)

    def stats(self) -> dict:
        return {
            "acquires": self.acquires,
            "hits": self.hits,
            "hit_rate": self.hits / max(self.acquires, 1),
            "releases": self.releases,
            "dropped": self.dropped,
            "free_arrays": self.free_arrays,
            "free_bytes": self.free_bytes(),
        }

    def clear(self) -> None:
        self._older.clear()
        self._newer.clear()
