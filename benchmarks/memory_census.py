"""What is live at a workload's traced memory peak.

Runs one rep of an end-to-end workload (``benchmarks/e2e/workloads.py``:
the same problem, warm-up and window) under ``tracemalloc`` and takes a
census of the hierarchy at every ``Hierarchy.add_grid``, boundary fill,
flux correction and rebuild.  The census at the hook where traced memory
is highest is the table's row:

* ``fields``: every grid's fields, old-state snapshot and potential
  (``Grid.memory_bytes`` without the flux storage);
* ``flux``: the flux storage grids keep between steps
  (``Grid.flux_bytes``: a parent's kept planes and the subgrids'
  boundary-flux accumulators);
* ``chem_scratch``: the chemistry network's per-thread slab buffers
  (``chemistry.network._SCRATCH`` of the stepping thread);
* ``rest``: everything else tracemalloc sees (solver and fill scratch,
  particles, retiring grids mid-rebuild, imports after start-up).

tracemalloc's own peak (``traced_peak``) can fall between hooks, inside
a kernel's scratch; it is reported beside the census.  NumPy registers
its buffers with tracemalloc, so array memory is counted exactly; the
allocator's slack and the start-up imports are not (``peak_rss_mb`` is
the end-to-end number).

Run::

    PYTHONPATH=src python benchmarks/memory_census.py --workload sedov_amr
"""

from __future__ import annotations

import argparse
import json
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

sys.path.insert(0, str(Path(__file__).parent / "e2e"))

MIB = 2.0 ** 20


class Census:
    """The census at the hook with the most traced memory."""

    def __init__(self, hierarchy):
        from repro.chemistry import network

        self.hierarchy = hierarchy
        # the stepping thread's chemistry scratch (the census runs serially)
        self.scratch = network._SCRATCH
        self.best = {"traced": -1}

    def take(self, where: str) -> None:
        current = tracemalloc.get_traced_memory()[0]
        if current <= self.best["traced"]:
            return
        h = self.hierarchy
        grids = list(h.all_grids())
        flux = sum(g.flux_bytes() for g in grids)
        fields = sum(g.memory_bytes() for g in grids) - flux
        chem = sum(buf.nbytes for buf in vars(self.scratch).values())
        self.best = {"traced": current, "where": where, "fields": fields,
                     "flux": flux, "chem_scratch": chem,
                     "rest": current - fields - flux - chem}

    def hook(self, fn, where: str):
        def wrapped(*args, **kwargs):
            self.take(where)
            try:
                return fn(*args, **kwargs)
            finally:
                self.take(where)
        return wrapped


def census(name: str, smoke: bool = False) -> dict:
    from workloads import WORKLOADS

    from repro.amr import evolve
    from repro.amr.hierarchy import Hierarchy
    from repro.kernels import dispatch

    dispatch.warm()
    wl = WORKLOADS[name]
    warmup, window = wl.steps(smoke)
    tracemalloc.start()
    # a controlled workload's problem steps here through the bare evolver
    problem = wl.build(smoke)
    evolver = wl.evolver(problem)
    c = Census(evolver.hierarchy)
    hooks = [mock.patch.object(Hierarchy, "add_grid",
                               c.hook(Hierarchy.add_grid, "rebuild")),
             mock.patch.object(evolve, "rebuild_hierarchy",
                               c.hook(evolve.rebuild_hierarchy, "rebuild")),
             mock.patch.object(evolve, "correct_level",
                               c.hook(evolve.correct_level,
                                      "flux correction")),
             mock.patch.object(evolve, "set_boundary_values",
                               c.hook(evolve.set_boundary_values,
                                      "boundary fill"))]
    for patch in hooks:
        patch.start()
    try:
        t_end = wl.t_end(problem)
        for _ in range(warmup + window):
            wl.pre_step(problem)
            if evolver.advance_root_step(t_end) is None:
                break
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        for patch in hooks:
            patch.stop()
        tracemalloc.stop()
    row = {k: v / MIB if isinstance(v, int) else v for k, v in c.best.items()}
    return {"workload": name, "traced_peak": peak / MIB, "at_census": row}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    print(json.dumps(census(args.workload, args.smoke), indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
