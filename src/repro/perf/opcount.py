"""Per-module operation counting, live during a run.

The paper: "One solution ... would be to instrument each module to return
its operation count ... However, the code is nearly 100,000 lines, so this
remains a future project."  Here the modules *are* instrumented: the
recorder hooks the evolver's per-step callback and tallies the analytic
per-module costs of the work actually performed, giving the live flop
estimate the paper could only approximate from one timed section.
"""

from __future__ import annotations

import time

from repro.perf.flops import OperationCounts, sustained_flop_rate


class OperationRecorder:
    """Per-module operation counts of the work one evolver performs.

    Installs itself as ``evolver.stats``; read ``counts`` /
    ``sustained_rate()`` afterwards.  Poisson work is counted only when the
    evolver has gravity, and chemistry from the cell-substeps the
    integrator measured (the step record's ``chemistry.substeps_total``).
    """

    def __init__(self, evolver):
        self.evolver = evolver
        self.counts = OperationCounts()
        self._t0 = time.perf_counter()
        self.steps_recorded = 0
        evolver.stats = self

    def record_step(self, hierarchy, level: int, dt: float, t: float) -> None:
        cells = sum(g.n_cells for g in hierarchy.level_grids(level))
        self.counts.add_hydro(cells)
        if self.evolver.gravity is not None:
            self.counts.add_gravity(cells)
        self.counts.add_boundary(cells)
        if level == 0:
            # the root's record_step closes the root step, so the
            # chemistry block holds every level's substeps of that step
            substeps = self.evolver.chem_stats.snapshot().get(
                "substeps_total", 0)
            if substeps:
                self.counts.add_chemistry(substeps)
        if len(hierarchy.particles):
            self.counts.add_particles(sum(
                len(sel) for _, sel in hierarchy.owned_particles(level)))
        self.steps_recorded += 1

    def record_rebuild(self, hierarchy, level: int) -> None:
        self.counts.add_rebuild(
            sum(g.n_cells for g in hierarchy.all_grids())
        )

    @property
    def wall_time(self) -> float:
        return time.perf_counter() - self._t0

    def sustained_rate(self) -> float:
        """Estimated flop/s over the recorder's lifetime (paper Sec. 5)."""
        return sustained_flop_rate(self.counts.total, self.wall_time)

    def report(self) -> str:
        lines = [f"estimated operations: {self.counts.total:.3e}",
                 f"wall time           : {self.wall_time:.2f} s",
                 f"sustained rate      : {self.sustained_rate() / 1e6:.1f} Mflop/s"]
        for name, frac in sorted(self.counts.fractions().items(),
                                 key=lambda kv: -kv[1]):
            lines.append(f"  {name:<16s} {100 * frac:5.1f} %")
        return "\n".join(lines)
