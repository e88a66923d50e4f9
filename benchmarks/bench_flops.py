"""Section 5: sustained and virtual flop rates.

Reproduces the paper's two performance estimates:

1. **Sustained rate** — "we have estimated the flop rate in the following
   way": count the operations of a representative section (they used the
   R10000 hardware counter; we use the analytic per-module operation
   model), divide by the wall-clock time of that same section.  The paper
   got ~13 Gflop/s on 64 SP2 processors; a single-core NumPy run lands
   where a single-core interpreted stack lands — the bench prints both and
   the per-processor comparison.

2. **Virtual rate** — the equivalent-unigrid arithmetic: 1e12^3 cells x
   1e10 steps ~ 1e50 operations in ~1e6 s -> ~1e44 flop/s, plus the
   Moore's-law infeasibility estimate ("not until about 2200").
"""

from repro.perf import OperationRecorder, sustained_flop_rate, virtual_flop_rate
from repro.perf.flops import unigrid_infeasibility


def _representative_section():
    """Run a representative mid-collapse section under live op counting."""
    from repro.problems import SphereCollapse

    sc = SphereCollapse(n_root=16, max_level=2, overdensity=25.0, max_dims=8)
    # counts the work of every level step and rebuild as the evolver
    # performs it, from here to the end of the section
    rec = OperationRecorder(sc.evolver)
    sc.run(max_root_steps=15)
    return rec.counts, rec.wall_time


def test_sustained_flop_rate(benchmark):
    ops, wall = benchmark.pedantic(_representative_section, rounds=1, iterations=1)
    rate = sustained_flop_rate(ops.total, wall)
    print(f"\nestimated operations : {ops.total:.3e}")
    print(f"wall time            : {wall:.2f} s")
    print(f"sustained rate       : {rate / 1e6:.1f} Mflop/s (this machine, 1 core)")
    print(f"paper                : 13 Gflop/s on 64 SP2 processors "
          f"(~200 Mflop/s per processor)")
    print("fractions by module  :", {k: f"{v:.2f}" for k, v in ops.fractions().items()})
    assert rate > 1e5  # sanity: the estimate is a real number of useful size
    assert 0 < ops.fractions()["hydrodynamics"] < 1


def test_virtual_flop_rate(benchmark):
    rate = benchmark.pedantic(
        lambda: virtual_flop_rate(sdr=1e12, n_steps=1e10, wall_seconds=1e6),
        rounds=1, iterations=1,
    )
    print(f"\nvirtual flop rate for the hero run: {rate:.2e} flop/s "
          f"(paper: ~1e44)")
    assert 1e43 < rate < 1e45

    years = unigrid_infeasibility(sdr=1e12)
    print(f"Moore's-law years until an SDR=1e12 unigrid fits in memory: "
          f"{years:.0f} (paper: 'not ... until about 2200', ~200 years)")
    assert 100 < years < 350


def test_own_run_virtual_rate(benchmark, sphere_run):
    """The same arithmetic applied to our scaled run's own numbers."""
    sc = benchmark.pedantic(lambda: sphere_run, rounds=1, iterations=1)
    sdr = sc.hierarchy.spatial_dynamic_range()
    root_steps = sc.evolver.step_counter[0]
    # unigrid equivalent: sdr^3 cells, stepped at the finest dt
    finest_steps = root_steps * sc.hierarchy.refine_factor ** sc.hierarchy.max_level
    virtual_ops = sdr**3 * finest_steps * 1e4
    actual_cells = sum(g.n_cells for g in sc.hierarchy.all_grids())
    print(f"\nscaled run: SDR={sdr:.0f}, {root_steps} root steps, "
          f"{actual_cells} cells held vs {sdr**3:.2e} unigrid cells")
    print(f"equivalent unigrid operations: {virtual_ops:.2e}")
    ratio = sdr**3 / actual_cells
    print(f"memory advantage of AMR here: {ratio:.1f}x "
          f"(the hero run's was ~1e30)")
    assert ratio > 10
