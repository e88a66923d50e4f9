"""Dynamic load balancing across hierarchy rebuilds (paper ref. [22]).

"...load balancing becomes a serious headache since small regions of the
original grid eventually dominate the computational requirements" — and the
paper points to Lan, Taylor & Bryan (ICPP 2001) for dynamic balancing.

The scheme here follows that work's structure: after each rebuild, keep the
existing placement where possible (migration costs bandwidth) and move the
smallest sufficient set of grids from overloaded to underloaded ranks until
the imbalance is under a threshold.  The balancer accounts migration bytes
so the benchmarks can weigh imbalance against data motion — the actual
trade-off that paper studies.
"""

from __future__ import annotations

import numpy as np

from repro.exec.distribution import grid_work


class DynamicLoadBalancer:
    """Incremental rebalancer with migration-cost accounting.

    Parameters
    ----------
    n_ranks:
        Rank count.
    threshold:
        Rebalance until max/mean load <= threshold (1.0 = perfect).
    refine_factor:
        For the work estimate (substeps ~ r^level).
    """

    def __init__(self, n_ranks: int, threshold: float = 1.25,
                 refine_factor: int = 2):
        self.n_ranks = int(n_ranks)
        self.threshold = float(threshold)
        self.r = int(refine_factor)
        self.assignment: dict[int, int] = {}
        self.total_migrated_bytes = 0
        self.migration_events = 0
        self.history: list[float] = []

    # ------------------------------------------------------------------ core
    def update(self, steriles) -> dict[int, int]:
        """Re-place the current grid population; returns {grid_id: rank}.

        New grids are placed on the least-loaded rank; existing grids keep
        their rank unless the imbalance exceeds the threshold, in which
        case grids migrate (cheapest-sufficient-first) off the overloaded
        ranks.
        """
        steriles = list(steriles)
        known = {s.grid_id for s in steriles}
        # drop departed grids
        self.assignment = {
            gid: rank for gid, rank in self.assignment.items() if gid in known
        }
        loads = np.zeros(self.n_ranks)
        by_id = {}
        for s in steriles:
            by_id[s.grid_id] = s
            if s.grid_id in self.assignment:
                loads[self.assignment[s.grid_id]] += grid_work(s, self.r)

        # place newcomers on the least-loaded rank (no migration cost: they
        # are created in place)
        newcomers = sorted(
            (s for s in steriles if s.grid_id not in self.assignment),
            key=lambda s: -grid_work(s, self.r),
        )
        for s in newcomers:
            rank = int(np.argmin(loads))
            self.assignment[s.grid_id] = rank
            loads[rank] += grid_work(s, self.r)

        # migrate until balanced
        self._migrate(by_id, loads)
        mean = loads.mean() if loads.mean() > 0 else 1.0
        self.history.append(float(loads.max() / mean))
        return dict(self.assignment)

    def _migrate(self, by_id: dict, loads: np.ndarray) -> None:
        mean = loads.mean()
        if mean <= 0:
            return
        guard = 0
        while loads.max() / mean > self.threshold and guard < 10 * len(by_id):
            guard += 1
            src = int(np.argmax(loads))
            dst = int(np.argmin(loads))
            # candidates on the overloaded rank, smallest move that helps
            candidates = [
                s for s in by_id.values() if self.assignment[s.grid_id] == src
            ]
            if not candidates:
                break
            excess = loads[src] - mean
            candidates.sort(key=lambda s: abs(grid_work(s, self.r) - excess))
            moved = False
            for s in candidates:
                w = grid_work(s, self.r)
                if loads[dst] + w < loads[src]:
                    self.assignment[s.grid_id] = dst
                    loads[src] -= w
                    loads[dst] += w
                    self.total_migrated_bytes += s.data_nbytes()
                    self.migration_events += 1
                    moved = True
                    break
            if not moved:
                break

    # -------------------------------------------------------------- metrics
    def imbalance(self, steriles) -> float:
        loads = np.zeros(self.n_ranks)
        for s in steriles:
            loads[self.assignment[s.grid_id]] += grid_work(s, self.r)
        mean = loads.mean()
        return float(loads.max() / mean) if mean > 0 else 1.0

    def report(self) -> dict:
        return {
            "final_imbalance": self.history[-1] if self.history else 1.0,
            "mean_imbalance": float(np.mean(self.history)) if self.history else 1.0,
            "migration_events": self.migration_events,
            "migrated_bytes": self.total_migrated_bytes,
        }
