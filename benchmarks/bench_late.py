"""Late-collapse benchmark: where a deep, many-grid window spends its time.

The benchmark contract (``benchmarks/e2e``) times the collapse early, in
root steps 7-11 at ``max_level=2``.  Late in the run the hierarchy looks
different: at ``max_level=4`` and root steps 24-28 level 2 holds a few
hundred tiny grids, and the rebuild, the ghost fills and the per-grid
Python around the kernels dominate (ROADMAP item 8).  This bench builds
``collapse_chem``'s problem (the same arguments) at ``max_level=4``,
takes root steps 1-23 unrecorded and records root steps 24-28:

* ``layers_s``: the window's seconds per component of the evolver's
  timers (the paper's Sec. 5 table);
* ``hydro_us_per_cell``: per level, the hydro tasks' seconds per interior
  cell-update, in microseconds;
* ``ghost_ratio``: per level, ghost-inclusive cells per interior cell,
  the mean over the window's root steps;
* ``rebuild``: grids the window's rebuilds created and reused;
* ``kernels_calls``: kernel calls of every tier's registry;
* ``from_buffer_calls``: ``ffi.from_buffer`` calls of the compiled tier
  (0 on the NumPy tier);
* ``wall_s``, ``warmup_s`` and ``peak_rss_mb`` (``ru_maxrss``).

Writes ``BENCH_late.json`` next to this file with the header of
``benchmarks/record.py``.  ``--smoke`` runs a 8^3 root at
``max_level=2`` for two plus two root steps::

    PYTHONPATH=src python benchmarks/bench_late.py [--smoke] [--out X.json]
"""

from __future__ import annotations

import argparse
import json
import resource
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from repro.kernels import dispatch

import record

FULL = {"n_root": 16, "max_level": 4, "warmup": 23, "window": 5}
SMOKE = {"n_root": 8, "max_level": 2, "warmup": 2, "window": 2}


class _CountingFFI:
    """The compiled tier's ``ffi`` with its ``from_buffer`` calls counted."""

    def __init__(self, ffi):
        self._ffi = ffi
        self.calls = 0

    def from_buffer(self, *args, **kwargs):
        self.calls += 1
        return self._ffi.from_buffer(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._ffi, name)


def _counting_ffi():
    """Install a counting ``ffi`` in the compiled tier; None on NumPy."""
    if dispatch.active_backend() != "cffi":
        return None
    from repro.kernels import backend_cffi

    counting = _CountingFFI(backend_cffi.ffi)
    backend_cffi.ffi = counting
    return counting


def _ghost_ratios(hierarchy) -> list:
    return [sum(int(np.prod(g.fields.shape)) for g in grids)
            / sum(int(g.n_cells) for g in grids)
            for grids in (hierarchy.level_grids(level)
                          for level in range(len(hierarchy.levels)))
            if grids]


def run(config: dict) -> dict:
    from repro.problems import PrimordialCollapse

    dispatch.set_backend(None, env=False)
    dispatch.warm()
    problem = PrimordialCollapse(
        n_root=config["n_root"], max_level=config["max_level"],
        z_init=100.0, seed=7, amplitude_boost=4.0, jeans_number=4.0,
        mass_refine_factor=8.0, with_chemistry=True, with_dark_matter=True,
        max_dims=16)
    problem.initial_rebuild()
    evolver, h = problem.evolver, problem.hierarchy
    t_end = problem.code_time_of_redshift(20.0)

    def root_step():
        # what the controller's pre_step does (benchmarks/e2e/workloads.py)
        problem.criteria.a = problem.clock.a_of(h.root.time)
        assert evolver.advance_root_step(t_end) is not None

    t0 = time.perf_counter()
    for _ in range(config["warmup"]):
        root_step()
    warmup_s = time.perf_counter() - t0

    # per (kind, level): task seconds and cells of every dispatch
    tasks = defaultdict(lambda: [0.0, 0])
    dispatch_run = evolver.engine.run

    def traced_run(batch, level=None, timers=None):
        report = dispatch_run(batch, level=level, timers=timers)
        for kind, lvl, cells, seconds in report.task_times:
            tasks[kind, lvl][0] += seconds
            tasks[kind, lvl][1] += cells
        return report

    evolver.engine.run = traced_run
    layers0 = dict(evolver.timers.totals)
    created0, reused0 = h.grids_created, h.grids_reused
    ffi = _counting_ffi()
    kernels0 = dispatch.counters_totals()
    ratios = []
    t0 = time.perf_counter()
    for _ in range(config["window"]):
        root_step()
        ratios.append(_ghost_ratios(h))
    wall_s = time.perf_counter() - t0
    kernels = dispatch.counters_delta(kernels0)
    layers = {name: round(seconds - layers0.get(name, 0.0), 6)
              for name, seconds in evolver.timers.totals.items()
              if seconds - layers0.get(name, 0.0) > 0.0}
    depth = max(len(r) for r in ratios)
    hydro = {f"L{lvl}": round(1e6 * s / cells, 4)
             for (kind, lvl), (s, cells) in sorted(tasks.items())
             if kind == "hydro" and cells}
    return {
        "wall_s": round(wall_s, 4),
        "warmup_s": round(warmup_s, 4),
        "grids_per_level": h.grids_per_level(),
        "layers_s": dict(sorted(layers.items(), key=lambda kv: -kv[1])),
        "hydro_us_per_cell": hydro,
        "ghost_ratio": {f"L{lvl}": round(float(np.mean(
            [r[lvl] for r in ratios if len(r) > lvl])), 3)
            for lvl in range(depth)},
        "rebuild": {"created": h.grids_created - created0,
                    "reused": h.grids_reused - reused0},
        "kernels_calls": sum(d["calls"] for d in kernels.values()),
        "from_buffer_calls": 0 if ffi is None else ffi.calls,
        "peak_rss_mb": round(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 2),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true",
                    help="small configuration for CI (8^3 root, 2 levels)")
    ap.add_argument("--out",
                    default=str(Path(__file__).parent / "BENCH_late.json"))
    args = ap.parse_args(argv)
    config = SMOKE if args.smoke else FULL
    results = run(config)
    payload = {
        "bench": "late",
        **record.header(),
        "mode": "smoke" if args.smoke else "full",
        "config": config,
        "results": results,
    }
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    print(json.dumps(payload, indent=2))
    print(f"\nwrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
