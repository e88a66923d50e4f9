"""Deep-run rebuild benchmark: box reuse vs from-scratch regrids.

The paper's hero run rebuilds the grid hierarchy thousands of times while
— between any two rebuilds — most of the tree is unchanged: refinement
tracks the collapsing core, and the quiescent bulk of the subgrids keeps
the same flagged-cell sets epoch after epoch.  The rebuild
(:mod:`repro.amr.rebuild`) exploits that with one reuse rule: every new
box equal to a retiring grid's box keeps that grid (only its ghost shell
is refreshed), so an unchanged region keeps its whole subtree.  A
retired grid's arrays are freed as soon as its level is rebuilt.

This bench grows a three-level hierarchy over a lattice of Gaussian
blobs, using a mass threshold that tightens with level
(``gas_mass_threshold`` + negative ``level_exponent``) so each blob
carries an L2 patch with a deep L3 subtree under it — the regime where
reuse pays most, since every surviving box keeps its grid and its
subtree's boxes survive with it.  Each round it perturbs a ~25% subset
of the level-1 parents and rebuilds levels 2..3 — once on a hierarchy
using box reuse and once on a mirror forced through the from-scratch
path — asserting after every round that the two hierarchies'
``fingerprint()`` digests are identical (the bitwise correctness gate).
The process's peak resident set (``ru_maxrss``) after the last round is
recorded as ``peak_rss_mb``.  Round 0 is a cold round
(allocators and caches warm up); the report uses **medians over the
warm rounds**, which is what keeps the numbers stable on noisy hosts.
Writes ``BENCH_deeprun.json`` next to this file, stamped with the host's
cpus, kernel tier, commit, Python and machine.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_deeprun.py [--smoke] [--out X.json]

or via pytest (smoke configuration)::

    PYTHONPATH=src python -m pytest benchmarks/bench_deeprun.py -q
"""

from __future__ import annotations

import argparse
import json
import resource
import time
from pathlib import Path

import numpy as np

from repro.amr import Hierarchy, RefinementCriteria
from repro.amr.boundary import set_boundary_values
from repro.amr.rebuild import rebuild_hierarchy

import record

# base gas-mass threshold in units of the mean root-cell mass; with
# level_exponent = -1.84 the effective density threshold per level is
# ~3, ~6.7, ~15 — each blob's core clears all three, its skirt only the
# first, which is what builds the nested three-level tower
BASE_THRESHOLD = 3.0
LEVEL_EXPONENT = -1.84
MAX_LEVEL = 3
PERTURB_HI = 8.0  # above the level-1 threshold (~6.7) ...
PERTURB_LO = 1.0  # ... and back below it


def _criteria(n_root: int, efficiency: float, min_size: int,
              max_dims: int) -> RefinementCriteria:
    """The refinement tests and the regrid policy every rebuild reads."""
    return RefinementCriteria(gas_mass_threshold=BASE_THRESHOLD / n_root**3,
                              level_exponent=LEVEL_EXPONENT,
                              max_level=MAX_LEVEL, efficiency=efficiency,
                              min_size=min_size, max_dims=max_dims)


# --------------------------------------------------------------- hierarchy
def build_hierarchy(blobs_per_dim: int, tile_cells: int, amplitude: float,
                    crit: RefinementCriteria) -> Hierarchy:
    """A lattice of ``blobs_per_dim^3`` Gaussian blobs, one per tile of
    ``tile_cells^3`` root cells, each overdense enough to refine three
    levels deep under ``crit`` — grown through the production rebuild
    path."""
    n_root = blobs_per_dim * tile_cells
    h = Hierarchy(n_root=n_root)
    root = h.root
    x = (np.arange(n_root) + 0.5) / n_root
    xx, yy, zz = np.meshgrid(x, x, x, indexing="ij")
    rho = np.ones_like(xx)
    width = (0.2 * tile_cells / n_root) ** 2
    for i in range(blobs_per_dim):
        for j in range(blobs_per_dim):
            for k in range(blobs_per_dim):
                cx = (i + 0.5) / blobs_per_dim
                cy = (j + 0.5) / blobs_per_dim
                cz = (k + 0.5) / blobs_per_dim
                r2 = (xx - cx) ** 2 + (yy - cy) ** 2 + (zz - cz) ** 2
                rho += amplitude * np.exp(-r2 / width)
    root.fields["density"][root.interior] = rho
    set_boundary_values(h, 0)
    rebuild_hierarchy(h, 1, crit)
    return h


def perturb_parents(h: Hierarchy, fraction: float, round_idx: int) -> int:
    """Toggle one corner-interior cell of every ``1/fraction``-th level-1
    grid between overdense and quiet, so that subset's flagged sets (and
    only theirs) change each round.  Deterministic in (parent order,
    round), so mirrored hierarchies stay bit-identical inputs."""
    parents = h.level_grids(1)
    stride = max(int(round(1.0 / fraction)), 1)
    touched = 0
    for idx, g in enumerate(parents):
        if idx % stride:
            continue
        cell = (g.nghost, g.nghost, g.nghost)  # interior corner, off-blob
        g.fields["density"][cell] = (
            PERTURB_HI if round_idx % 2 == 0 else PERTURB_LO
        )
        touched += 1
    return touched


# ------------------------------------------------------------------ timing
def run(config: dict) -> dict:
    crit = _criteria(config["blobs_per_dim"] * config["tile_cells"],
                     config["efficiency"], config["min_size"],
                     config["max_dims"])
    kwargs = dict(blobs_per_dim=config["blobs_per_dim"],
                  tile_cells=config["tile_cells"],
                  amplitude=config["amplitude"], crit=crit)
    h_inc = build_hierarchy(**kwargs)
    h_raw = build_hierarchy(**kwargs)
    assert h_inc.fingerprint() == h_raw.fingerprint()

    n_sub = h_inc.n_grids - 1
    fine_cells = int(sum(g.n_cells for lvl in (2, 3)
                         for g in h_inc.level_grids(lvl)))
    inc_times = []
    raw_times = []
    reuse_rates = []
    touched = 0
    for rnd in range(config["rounds"]):
        touched = perturb_parents(h_inc, config["fraction"], rnd)
        perturb_parents(h_raw, config["fraction"], rnd)

        t0 = time.perf_counter()
        rebuild_hierarchy(h_inc, 2, crit, incremental=True)
        inc_times.append(time.perf_counter() - t0)
        reuse_rates.append(h_inc.last_rebuild_stats["reuse_rate"])

        t0 = time.perf_counter()
        rebuild_hierarchy(h_raw, 2, crit, incremental=False)
        raw_times.append(time.perf_counter() - t0)

        # the correctness gate: bitwise-identical hierarchies every round
        assert h_inc.fingerprint() == h_raw.fingerprint(), \
            f"incremental rebuild diverged from from-scratch at round {rnd}"

    # round 0 is cold (first regrid after the build pays allocator and
    # cache warm-up for both paths); report medians over the warm rounds
    warm_inc = inc_times[1:] or inc_times
    warm_raw = raw_times[1:] or raw_times
    t_inc = float(np.median(warm_inc))
    t_raw = float(np.median(warm_raw))
    return {
        "n_subgrids": n_sub,
        "max_level": h_inc.max_level,
        "level1_parents": len(h_inc.level_grids(1)),
        "parents_perturbed_per_round": touched,
        "rebuilt_cells": fine_cells,
        "fingerprints_match": True,
        "rebuild": {
            "from_scratch_s": t_raw,
            "incremental_s": t_inc,
            "speedup": t_raw / t_inc,
            "reuse_rate": float(np.mean(reuse_rates)),
            "cells_per_s_incremental": fine_cells / t_inc,
            "cells_per_s_from_scratch": fine_cells / t_raw,
            "per_round_incremental_s": [round(t, 4) for t in inc_times],
            "per_round_from_scratch_s": [round(t, 4) for t in raw_times],
        },
        # Linux reports ru_maxrss in KiB
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


# ~25% of level-1 parents perturbed per round: the quiescent-bulk regime
# the incremental rebuild targets.  FULL uses fat boxes (low efficiency,
# large max_dims) so reused subtrees are volume-heavy while the refresh
# cost stays surface-bound.  SMOKE keeps FULL's tree shape (8 level-1
# parents, 584 subgrids) on an 8^3 root, so its two mirrored hierarchies
# fit in well under 256 MiB.
SMOKE = {"blobs_per_dim": 2, "tile_cells": 4, "amplitude": 100.0,
         "efficiency": 0.30, "min_size": 2, "max_dims": 4,
         "fraction": 0.25, "rounds": 3}
FULL = {"blobs_per_dim": 2, "tile_cells": 24, "amplitude": 100.0,
        "efficiency": 0.30, "min_size": 8, "max_dims": 24,
        "fraction": 0.25, "rounds": 7}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true",
                    help="small configuration for CI (8^3 root)")
    ap.add_argument("--out",
                    default=str(Path(__file__).parent / "BENCH_deeprun.json"))
    args = ap.parse_args(argv)
    config = SMOKE if args.smoke else FULL
    results = run(config)
    payload = {
        "bench": "deeprun",
        **record.header(),
        "mode": "smoke" if args.smoke else "full",
        "config": config,
        "results": results,
    }
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    print(json.dumps(payload, indent=2))
    print(f"\nwrote {args.out}")
    return 0


def test_deeprun_smoke():
    """Pytest entry: reuse happens, hashes match bitwise."""
    results = run(SMOKE)
    assert results["fingerprints_match"]
    assert results["rebuild"]["reuse_rate"] > 0.5, results["rebuild"]


if __name__ == "__main__":
    raise SystemExit(main())
