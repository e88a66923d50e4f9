"""Figure 2: the W-cycle ordering of timesteps across levels.

"First the root grid is advanced, and then the subgrids 'catch-up'.  This
permits the calculation of time-centered subgrid boundary conditions for
higher temporal accuracy."

This bench instruments EvolveLevel on a 3-level hierarchy, records the
(level, time) sequence of every hydro step, prints it, and verifies the
defining W-cycle properties.
"""

import numpy as np

from repro.amr import Grid, Hierarchy, HierarchyEvolver
from repro.amr.boundary import set_boundary_values
from repro.hydro import PPMSolver


class RecordingSolver(PPMSolver):
    """PPM solver that logs (level-resolution, start-time, dt) per step."""

    def __init__(self, log, **kw):
        super().__init__(**kw)
        self.log = log

    def step(self, fields, dx, dt, a=1.0, adot=0.0, accel=None, permute=0,
             **kw):
        self.log.append({"dx": dx, "dt": dt})
        return super().step(fields, dx, dt, a, adot, accel, permute, **kw)


def build_and_run():
    h = Hierarchy(n_root=8)
    g1 = Grid(1, (4, 4, 4), (8, 8, 8), n_root=8)
    h.add_grid(g1, h.root)
    g2 = Grid(2, (12, 12, 12), (8, 8, 8), n_root=8)
    h.add_grid(g2, g1)
    set_boundary_values(h, 0)
    log = []
    ev = HierarchyEvolver(h, RecordingSolver(log), cfl=0.4)
    ev.advance_to(0.04)
    return h, log


def test_fig2_wcycle_ordering(benchmark):
    h, log = benchmark.pedantic(build_and_run, rounds=1, iterations=1)

    dx_to_level = {1.0 / 8: 0, 1.0 / 16: 1, 1.0 / 32: 2}
    seq = [dx_to_level[entry["dx"]] for entry in log]
    print("\nstep sequence by level (paper Fig. 2):")
    print("  " + " ".join(str(s) for s in seq))

    # 1. the root advances first
    assert seq[0] == 0
    # 2. every root step is followed by finer-level catch-up steps
    assert 1 in seq and 2 in seq
    # 3. level l+1 never runs before level l has stepped at least once
    first_seen = {}
    for i, lvl in enumerate(seq):
        first_seen.setdefault(lvl, i)
    assert first_seen[0] < first_seen[1] < first_seen[2]
    # 4. finer levels take more, smaller steps (the W shape)
    counts = {lvl: seq.count(lvl) for lvl in (0, 1, 2)}
    print(f"  steps per level: {counts}")
    assert counts[1] >= counts[0]
    assert counts[2] >= counts[1]
    dts = {lvl: np.mean([e["dt"] for e, s in zip(log, seq) if s == lvl])
           for lvl in (0, 1, 2)}
    print(f"  mean dt per level: { {k: f'{v:.2e}' for k, v in dts.items()} }")
    assert dts[1] <= dts[0] and dts[2] <= dts[1]
    # 5. all levels end at the same time
    times = [float(g.time) for g in h.all_grids()]
    assert np.allclose(times, times[0])
    print(f"  all grids synchronised at t = {times[0]:.3f}")
