"""Measured per-cell cost model.

The paper's load-balancing story (Sec. 3.4) rests on a *work estimate* per
grid — the analytic ``cells * r^level`` model in
:func:`repro.exec.distribution.grid_work`.  A calibrator replaces the
analytic constant with measured seconds per cell: the service scheduler
feeds it whole-run and root-step wall times, and
``benchmarks/bench_parallel.py`` feeds it every task time of the exec
dispatches it instruments.  It plugs straight into ``balance_grids(...,
cost_model=...)``, so the virtual cluster's predicted imbalance can be
compared against what real execution measured.  The exec engine itself
schedules by cell count: each of its dispatches holds one task kind on
one level, where a per-(kind, level) rate scales every cost alike.
"""

from __future__ import annotations

from collections import defaultdict


class WorkCalibrator:
    """Exponential-moving-average cost-per-cell, keyed by (kind, level).

    ``kind`` is the task kind ("hydro", "chemistry", "gravity"); objects
    without a ``kind`` attribute (e.g. sterile grids, which stand for a
    whole root-step of work) are costed with the summed per-level rates
    times the ``r^level`` substep factor.
    """

    def __init__(self, alpha: float = 0.3, refine_factor: int = 2):
        self.alpha = float(alpha)
        self.refine_factor = int(refine_factor)
        #: (kind, level) -> EMA seconds per cell
        self.rates: dict[tuple[str, int], float] = {}
        #: (kind, level) -> number of observations folded in
        self.samples: dict[tuple[str, int], int] = defaultdict(int)

    # ------------------------------------------------------------- observe
    def observe(self, kind: str, level: int, cells: int,
                seconds: float) -> None:
        """Fold one measured task (cells, wall seconds) into the EMA."""
        if cells <= 0 or seconds < 0.0:
            return
        key = (str(kind), int(level))
        rate = seconds / cells
        prev = self.rates.get(key)
        if prev is None:
            self.rates[key] = rate
        else:
            self.rates[key] = (1.0 - self.alpha) * prev + self.alpha * rate
        self.samples[key] += 1

    def observe_report(self, report) -> None:
        """Feed every task timing recorded in an :class:`ExecReport`."""
        for kind, level, cells, seconds in report.task_times:
            self.observe(kind, level, cells, seconds)

    # ---------------------------------------------------------------- cost
    def rate(self, kind: str, level: int) -> float | None:
        """Measured seconds/cell, falling back to the nearest coarser level
        with data (deep levels appear before they have been timed)."""
        for lvl in range(int(level), -1, -1):
            r = self.rates.get((kind, lvl))
            if r is not None:
                return r
        return None

    def cost(self, obj) -> float | None:
        """Predicted seconds for a task (or a sterile grid's root step).

        Returns None when nothing relevant has been measured yet, which
        makes :func:`repro.exec.distribution.grid_work` fall back to
        the analytic model.
        """
        kind = getattr(obj, "kind", None)
        level = int(obj.level)
        cells = int(obj.n_cells)
        if kind is not None:
            r = self.rate(kind, level)
            return None if r is None else r * cells
        # sterile grid: whole root-step cost = sum over kinds, r^level substeps
        kinds = {k for (k, _lvl) in self.rates}
        if not kinds:
            return None
        total_rate = sum(self.rate(k, level) or 0.0 for k in kinds)
        if total_rate <= 0.0:
            return None
        return total_rate * cells * self.refine_factor**level

    # -------------------------------------------------------------- report
    def summary(self) -> dict:
        """JSON-friendly dump of the measured rates (ns/cell)."""
        return {
            f"{kind}/L{level}": {
                "ns_per_cell": round(1e9 * rate, 3),
                "samples": self.samples[(kind, level)],
            }
            for (kind, level), rate in sorted(self.rates.items())
        }
