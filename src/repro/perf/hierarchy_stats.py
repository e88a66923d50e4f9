"""Hierarchy statistics recorder (paper Fig. 5 and the Sec. 5 discussion).

Tracks, per root-grid step (or on demand):

* maximum refinement level vs time (Fig. 5 top-left),
* total number of grids vs time (top-right),
* grids per level at chosen snapshot times (bottom-left),
* estimated computational work per level (bottom-right) — cells x substeps,
  with each level stepping ~r^level times per root step,
* memory usage and the cumulative allocation/free event count
  ("the entire grid hierarchy is rebuilt thousands of times").
"""

from __future__ import annotations

import numpy as np


class HierarchyStats:
    """Recorder with the ``record_step`` hook the evolver calls."""

    def __init__(self):
        self.times: list[float] = []
        self.max_levels: list[int] = []
        self.n_grids: list[int] = []
        self.memory_bytes: list[int] = []
        self.alloc_events: list[int] = []
        self.reuse_events: list[int] = []
        self.snapshots: dict[float, list[int]] = {}
        self.level_steps: dict[int, int] = {}

    # ------------------------------------------------------------- recording
    def record_step(self, hierarchy, level: int, dt: float, time: float) -> None:
        self.level_steps[level] = self.level_steps.get(level, 0) + 1
        if level != 0:
            return
        self.times.append(time)
        self.max_levels.append(hierarchy.max_level)
        self.n_grids.append(hierarchy.n_grids)
        self.memory_bytes.append(hierarchy.total_memory_bytes())
        # created + destroyed is real allocator traffic; grids the
        # incremental rebuild kept alive are tracked separately so the
        # Fig. 5-style alloc/free series stays truthful under reuse
        self.alloc_events.append(
            hierarchy.grids_created + hierarchy.grids_destroyed
        )
        self.reuse_events.append(getattr(hierarchy, "grids_reused", 0))

    def snapshot_levels(self, hierarchy, time: float) -> None:
        """Store grids-per-level at a chosen time (Fig. 5 bottom-left)."""
        self.snapshots[time] = hierarchy.grids_per_level()

    # --------------------------------------------------------------- queries
    def work_per_level(self, hierarchy) -> np.ndarray:
        """Relative computational work per level, normalised to max 1.

        Work(l) ~ (cells on level l) x (substeps per root step ~ r^l), the
        estimate behind the paper's bottom-right panel.
        """
        r = hierarchy.refine_factor
        work = []
        for lvl, grids in enumerate(hierarchy.levels):
            cells = sum(g.n_cells for g in grids)
            work.append(cells * r**lvl)
        work = np.asarray(work, dtype=float)
        if work.max() > 0:
            work /= work.max()
        return work

    def series(self) -> dict:
        return {
            "time": np.asarray(self.times),
            "max_level": np.asarray(self.max_levels),
            "n_grids": np.asarray(self.n_grids),
            "memory_bytes": np.asarray(self.memory_bytes),
            "alloc_events": np.asarray(self.alloc_events),
            "reuse_events": np.asarray(self.reuse_events),
        }

    def report(self) -> str:
        s = self.series()
        if len(s["time"]) == 0:
            return "no steps recorded"
        lines = [
            f"root steps recorded : {len(s['time'])}",
            f"final max level     : {s['max_level'][-1]}",
            f"peak grid count     : {s['n_grids'].max()}",
            f"peak memory         : {s['memory_bytes'].max() / 1e6:.1f} MB",
            f"alloc/free events   : {s['alloc_events'][-1]}",
            f"grid reuse events   : {s['reuse_events'][-1]}",
        ]
        return "\n".join(lines)
