"""Distributed objects and load balancing (paper Sec. 3.4).

"We leveraged the object-oriented design by distributing the objects over
the processors, rather than attempting to distribute an individual grid.
This makes sense because the grids are generally small (~20^3) and numerous."

"...load balancing becomes a serious headache since small regions of the
original grid eventually dominate the computational requirements."

Strategies:

* ``round_robin``    — grid i -> rank i mod P (cheap, ignores work).
* ``greedy``         — longest-processing-time-first onto the least-loaded
  rank (the standard remedy; what Lan, Taylor & Bryan's dynamic
  load-balancing work [22] refines).
* ``level_blocks``   — contiguous blocks per level (locality-flavoured:
  neighbours tend to share ranks, reducing off-rank boundary traffic).

This is the execution engine's scheduler; the simulated cluster of
:mod:`repro.parallel` reuses it.  All strategies accept any object with
``grid_id``, ``level``, ``n_cells`` (and ``start_index`` for
``level_blocks``) — the live grids of a level the execution engine
splits into chunks, or sterile grids from the virtual cluster.  A
``cost_model`` (anything with ``cost(obj) -> float | None``, e.g.
:class:`repro.exec.calibration.WorkCalibrator`) replaces the analytic
cells-times-substeps estimate with *measured* per-grid wall times, closing
the loop between the virtual-cluster model and real execution.
"""

from __future__ import annotations

import numpy as np

#: relative cost per cell-update (hydro+gravity+chemistry on one cell).
WORK_PER_CELL = 1.0


def grid_work(sterile, refine_factor: int = 2, cost_model=None) -> float:
    """Work estimate for one grid over a *root* timestep.

    A level-l grid substeps ~r^l times per root step, so its share of the
    total work is cells * r^level — the same estimate behind the paper's
    Fig. 5 work-per-level panel.  When a ``cost_model`` is supplied and has
    a measurement for this grid, its (seconds-based) estimate is used
    instead of the analytic one.
    """
    if cost_model is not None:
        w = cost_model.cost(sterile)
        if w is not None:
            return float(w)
    return WORK_PER_CELL * sterile.n_cells * refine_factor**sterile.level


def balance_grids(steriles, n_ranks: int, strategy: str = "greedy",
                  refine_factor: int = 2, cost_model=None) -> dict[int, int]:
    """Assign grids to ranks; returns {grid_id: rank}."""
    steriles = list(steriles)
    if strategy == "round_robin":
        return {s.grid_id: i % n_ranks for i, s in enumerate(steriles)}

    if strategy == "greedy":
        loads = np.zeros(n_ranks)
        assignment = {}
        order = sorted(
            steriles, key=lambda s: -grid_work(s, refine_factor, cost_model)
        )
        for s in order:
            rank = int(np.argmin(loads))
            assignment[s.grid_id] = rank
            loads[rank] += grid_work(s, refine_factor, cost_model)
        return assignment

    if strategy == "level_blocks":
        assignment = {}
        by_level: dict[int, list] = {}
        for s in steriles:
            by_level.setdefault(s.level, []).append(s)
        for level, grids in by_level.items():
            grids = sorted(grids, key=lambda s: s.start_index)
            work = np.array(
                [grid_work(s, refine_factor, cost_model) for s in grids]
            )
            targets = np.cumsum(work) / max(work.sum(), 1e-300) * n_ranks
            for s, t in zip(grids, targets):
                assignment[s.grid_id] = min(int(t), n_ranks - 1)
        return assignment

    raise ValueError(f"unknown strategy '{strategy}'")


def load_imbalance(steriles, assignment: dict[int, int], n_ranks: int,
                   refine_factor: int = 2, cost_model=None) -> float:
    """max(rank load) / mean(rank load); 1.0 is perfect balance."""
    loads = np.zeros(n_ranks)
    for s in steriles:
        loads[assignment[s.grid_id]] += grid_work(s, refine_factor, cost_model)
    mean = loads.mean()
    if mean <= 0:
        return 1.0
    return float(loads.max() / mean)
