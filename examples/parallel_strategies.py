"""The paper's parallelisation strategies on the virtual cluster.

Builds a realistic AMR hierarchy, distributes its grids over simulated
ranks, and measures what each of the Sec. 3.4 optimisations buys:
sterile objects (no probes), pipelined sends (less waiting), and work-aware
load balancing.

Run:  python examples/parallel_strategies.py
"""

import numpy as np

from repro.parallel import (
    SterileHierarchy,
    balance_grids,
    load_imbalance,
    simulate_level_update,
)
from repro.problems import SphereCollapse


def main():
    print("building an AMR hierarchy (sphere collapse, 3 levels)...")
    sc = SphereCollapse(n_root=16, max_level=2, overdensity=25.0, max_dims=8)
    sc.run(max_root_steps=15)
    h = sc.hierarchy
    print(f"hierarchy: {h.grids_per_level()} grids/level\n")

    sh = SterileHierarchy.from_hierarchy(h)
    steriles = [s for lvl in sh.by_level.values() for s in lvl]
    n_ranks = 8

    print(f"--- load balancing over {n_ranks} ranks ---")
    for strategy in ("round_robin", "level_blocks", "greedy"):
        assignment = balance_grids(steriles, n_ranks, strategy)
        imb = load_imbalance(steriles, assignment, n_ranks)
        print(f"  {strategy:<14s} imbalance = {imb:.3f}  "
              f"(parallel efficiency {100 / imb:.0f} %)")

    assignment = balance_grids(steriles, n_ranks, "greedy")
    level = min(1, h.max_level)

    print(f"\n--- one level-{level} update under the strategy matrix ---")
    print(f"{'sterile':>8} {'pipeline':>9} {'probes':>7} {'wait [ms]':>10} "
          f"{'makespan [ms]':>14}")
    for sterile in (False, True):
        for pipe in (False, True):
            r = simulate_level_update(
                sh, assignment, n_ranks, level=level,
                use_sterile=sterile, use_pipeline=pipe,
            )
            print(f"{str(sterile):>8} {str(pipe):>9} {r['probes']:7d} "
                  f"{1e3 * r['wait_time']:10.2f} {1e3 * r['makespan']:14.3f}")

    print("\nthe paper's configuration (sterile + pipelined) minimises both "
          "probes and wait time.")


if __name__ == "__main__":
    main()
