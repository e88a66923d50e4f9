"""Kernel-tier benchmark: compiled inner loops vs. the NumPy reference.

The compiled kernel tier (``repro.kernels``) takes over the hottest inner
loops — the fused hydro sweep, the chemistry rate-table blend and substep,
the multigrid V-cycle and the coarse-fine bookkeeping — with C loops
(cffi) that are **bitwise identical** to the vectorised reference (the
parity suite in ``tests/test_kernels.py`` enforces that).

This bench measures what that buys:

* the three fused grid sweeps of one step (``hydro.sweep``: everything
  ``PPMSolver`` does to one grid along one axis in a single compiled call)
  at 8^3 / 16^3 / 32^3 interior cells plus three ghosts, with the
  solver's pencil boxes (only the pencils a later sweep reads) and, for
  the compiled tier, with every pencil swept, in us per interior cell —
  *layer evidence* under the end-to-end numbers of ``benchmarks/e2e``,
  never a headline;
* one fused chemistry substep (``chem.step``: timescale control, the
  backward-Euler species/energy update and the renormalisation of every
  active cell of one grid in a single compiled call) at 512 / 10,648 /
  54,872 cells — the 8^3, 22^3 and 38^3 allocated grids of the
  ``collapse_chem`` workload — in us per cell-substep, layer evidence too;
* one multigrid V-cycle (``mg.vcycle``: smoothing, residual, restriction,
  the coarse cycle, prolongation and correction of one subgrid in a single
  compiled call) at 4^3 / 8^3 / 16x26x26 interior cells — the smallest,
  the typical and the largest subgrid of the ``sphere_deep`` workload — in
  us per V-cycle, layer evidence too;
* the coarse-fine bookkeeping in us per call: one ``flux.correct`` (every
  child of a 16^3 parent carrying the twelve species), ``cic.deposit`` /
  ``cic.gather`` of the ``collapse_chem`` workload's 16^3 dark matter
  particles on the periodic root and on a non-periodic subgrid, and two
  ``fill.level`` calls on a sibling-packed level of 64 8^3 grids: its
  boundary fill (time-interpolated parent, sibling copies) and a rebuild
  onto 27 grids shifted by half a grid (old interiors copied, the rest
  prolonged);
* the chemistry rate-table blend (``chem.blend``) on one table pass of
  tens of thousands of cells, NumPy vs. the compiled backend;
* an end-to-end primordial-collapse run (chemistry on, so every kernel
  family participates) stepped under both tiers, with the hierarchy
  fingerprints asserted bitwise-equal — the speedup you get for free
  without touching results.

Writes ``BENCH_kernels.json`` next to this file.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_kernels.py [--smoke] [--out X.json]

or via pytest (smoke configuration)::

    PYTHONPATH=src python -m pytest benchmarks/bench_kernels.py -q
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import time
import warnings
from pathlib import Path

import numpy as np

from repro import constants as const
from repro.amr.flux_correction import correct_numpy
from repro.amr.interpolation import fill_level_numpy
from repro.chemistry.network import (
    ChemistryNetwork,
    primordial_initial_fractions,
    step_numpy,
)
from repro.chemistry.rates import blend_table_numpy
from repro.chemistry.species import SPECIES, SPECIES_NAMES
from repro.gravity.multigrid import MultigridSolver, vcycle_numpy
from repro.hydro.ppm import pencil_boxes, sweep_numpy
from repro.kernels import dispatch
from repro.nbody.cic import deposit_numpy, gather_numpy


def _best(fn, repeats: int) -> float:
    best = np.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _compiled_backend() -> str | None:
    """The compiled backend if it loads on this host, or None."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        resolved = dispatch.resolve_backend("auto")
    return None if resolved == "numpy" else resolved


# ------------------------------------------------------------------- micro
def micro(config: dict, backend: str) -> dict:
    """The ``chem.blend`` table pass, best-of timings, NumPy reference vs.
    compiled."""
    rng = np.random.default_rng(0)
    reps = config["repeats"]
    logtab = rng.standard_normal((12, 400))
    idx = rng.integers(0, 399, size=config["n_cells_chem"]).astype(np.intp)
    wgt = rng.random(config["n_cells_chem"])

    def call(fn):
        return fn(logtab, idx, wgt)

    dispatch.set_backend(backend, env=False)
    dispatch.warm()
    compiled = dispatch._impls[(backend, "chem.blend")]
    # bitwise parity on the bench inputs, then timing
    assert np.array_equal(call(blend_table_numpy), call(compiled),
                          equal_nan=True)
    t_ref = _best(lambda: call(blend_table_numpy), reps)
    t_cmp = _best(lambda: call(compiled), reps)
    return {"chem.blend": {"numpy_s": t_ref, f"{backend}_s": t_cmp,
                           "speedup": t_ref / t_cmp}}


# ------------------------------------------------------------- fused sweep
def _commit() -> str:
    out = subprocess.run(
        ["git", "-C", str(Path(__file__).parent), "rev-parse", "HEAD"],
        capture_output=True, text=True, check=False)
    return out.stdout.strip() or "unknown"


def _three_sweeps(fn, arrays, ng, full):
    """The three ``hydro.sweep`` calls of one ``PPMSolver`` step (order x,
    y, z) on ``(rho, vx, vy, vz, e_tot, e_int)``, with the solver's pencil
    boxes or (``full``) every pencil; returns fluxes and counts."""
    out = []
    order = [0, 1, 2]
    for axis, pencils in zip(order, pencil_boxes(arrays[0].shape, ng, order,
                                                 full)):
        q = [arrays[0], arrays[1 + axis],
             *(arrays[1 + d] for d in range(3) if d != axis), *arrays[4:]]
        fluxes, counts = fn(q, axis, ng, pencils, 0.05, 0.4, 5.0 / 3.0,
                            "ppm+flatten", "hllc", 1e-12, 1e-30)
        out += [*fluxes, counts]
    return out


def sweep_rows(config: dict, backend: str) -> dict:
    """The three sweeps of one step on one grid, NumPy reference vs.
    compiled with the solver's pencil boxes, and compiled with every
    pencil swept, per interior cell."""
    ng = 3
    compiled = dispatch._impls[(backend, "hydro.sweep")]
    rows = []
    for interior in config["sweep_interiors"]:
        rng = np.random.default_rng(interior)
        shape = (interior + 2 * ng,) * 3
        rho = rng.random(shape) + 0.3
        vel = [0.3 * rng.standard_normal(shape) for _ in range(3)]
        e_int = rng.random(shape) + 0.2
        start = [rho, *vel, e_int + 0.5 * sum(v * v for v in vel), e_int]
        row = {"interior": interior}
        outputs = {}
        for name, fn, full in (("numpy", sweep_numpy, False),
                               (backend, compiled, False),
                               (f"{backend}_full_box", compiled, True)):
            best = np.inf
            for _ in range(config["repeats"] * 2):
                arrays = [a.copy() for a in start]
                t0 = time.perf_counter()
                out = _three_sweeps(fn, arrays, ng, full)
                best = min(best, time.perf_counter() - t0)
            outputs[name] = (arrays, out)
            row[f"{name}_us_per_cell"] = 1e6 * best / interior ** 3
        (f_r, x_r), (f_c, x_c) = outputs["numpy"], outputs[backend]
        assert all(np.array_equal(a, b) for a, b in zip(f_r + x_r, f_c + x_c))
        # the boxes change no flux and no active cell
        f_f, x_f = outputs[f"{backend}_full_box"]
        inner = (slice(ng, -ng),) * 3
        assert all(np.array_equal(a[inner], b[inner])
                   for a, b in zip(f_c, f_f))
        assert all(np.array_equal(a, b) for a, b in zip(x_c, x_f)
                   if isinstance(a, np.ndarray))
        row["speedup"] = (row["numpy_us_per_cell"]
                          / row[f"{backend}_us_per_cell"])
        row["box_saving"] = (row[f"{backend}_full_box_us_per_cell"]
                             / row[f"{backend}_us_per_cell"])
        rows.append(row)
    return {"host_cpus": len(os.sched_getaffinity(0)), "tier": backend,
            "commit": _commit(), "scheme": "ppm+flatten / hllc",
            "unit": "us per interior cell per step (three sweeps)",
            "rows": rows}


# ----------------------------------------------------------- fused chemistry
def chem_state(n_cells: int, seed: int = 5):
    """Collapse-like cgs state: a cool, lightly ionised molecular cloud.

    Returns the stacked ``(12, n_cells)`` number densities, the specific
    energy and the mass density — what ``advance_stacked`` integrates.
    """
    rng = np.random.default_rng(seed)
    T = 10 ** rng.uniform(1.8, 3.2, n_cells)
    rho = 10 ** rng.uniform(-24.0, -20.0, n_cells)
    fr = primordial_initial_fractions(
        x_e=10 ** rng.uniform(-4.5, -3.5, n_cells),
        f_h2=10 ** rng.uniform(-6.0, -3.0, n_cells))
    n = {s: fr[s] * rho / (SPECIES[s].mass_amu * const.HYDROGEN_MASS)
         for s in SPECIES_NAMES}
    e = ChemistryNetwork.energy_from_temperature(n, T, rho)
    return np.stack([n[s] for s in SPECIES_NAMES]), e, rho


def chem_step_rows(config: dict, backend: str) -> dict:
    """One substep of every cell of a grid, NumPy reference vs. compiled."""
    compiled = dispatch._impls[(backend, "chem.step")]
    net = ChemistryNetwork()
    dt, z = 1e11, 18.0
    rows = []
    for n_cells in config["chem_cells"]:
        state0, e0, rho = chem_state(n_cells)
        n0 = dict(zip(SPECIES_NAMES, state0))
        T0 = net.temperature(n0, e0, rho)
        active = np.arange(n_cells, dtype=np.intp)
        cube = state0[SPECIES_NAMES.index("HI")] ** 3
        block = net.rates.block(T0)
        row = {"cells": n_cells}
        outputs = {}
        for name, fn in (("numpy", step_numpy), (backend, compiled)):
            best = np.inf
            for _ in range(config["repeats"] * 3):
                state, e, T = state0.copy(), e0.copy(), T0.copy()
                t_done = np.zeros(n_cells)
                counts = np.zeros(n_cells, dtype=np.int64)
                t0 = time.perf_counter()
                fn(state, e, rho, None, t_done, counts, active, T, cube,
                   block, dt, z, net.safety, net.max_substeps, True, True,
                   True)
                best = min(best, time.perf_counter() - t0)
            outputs[name] = (state, e, t_done, counts, T)
            row[f"{name}_us_per_cell_substep"] = 1e6 * best / n_cells
        assert all(np.array_equal(a, b) for a, b in
                   zip(outputs["numpy"], outputs[backend]))
        row["speedup"] = (row["numpy_us_per_cell_substep"]
                          / row[f"{backend}_us_per_cell_substep"])
        rows.append(row)
    return {"host_cpus": len(os.sched_getaffinity(0)), "tier": backend,
            "commit": _commit(), "unit": "us per cell-substep",
            "rows": rows}


# ---------------------------------------------------------------- V-cycle
def vcycle_rows(config: dict, backend: str) -> dict:
    """One V-cycle of one subgrid at the solver's defaults, NumPy reference
    vs. compiled."""
    compiled = dispatch._impls[(backend, "mg.vcycle")]
    mg = MultigridSolver()
    rows = []
    for shape in config["vcycle_shapes"]:
        rng = np.random.default_rng(sum(shape))
        source = rng.standard_normal(shape)
        start = rng.standard_normal(tuple(n + 2 for n in shape))
        row = {"interior": list(shape)}
        outputs = {}
        for name, fn in (("numpy", vcycle_numpy), (backend, compiled)):
            best = np.inf
            for _ in range(config["repeats"] * 10):
                phi, residual = start.copy(), np.empty(shape)
                t0 = time.perf_counter()
                fn(phi, source, 0.1, mg.pre, mg.post, mg.min_size, residual)
                best = min(best, time.perf_counter() - t0)
            outputs[name] = (phi, residual)
            row[f"{name}_us_per_vcycle"] = 1e6 * best
        assert all(np.array_equal(a, b) for a, b in
                   zip(outputs["numpy"], outputs[backend]))
        row["speedup"] = (row["numpy_us_per_vcycle"]
                          / row[f"{backend}_us_per_vcycle"])
        rows.append(row)
    return {"host_cpus": len(os.sched_getaffinity(0)), "tier": backend,
            "commit": _commit(), "unit": "us per V-cycle", "rows": rows}


# ------------------------------------------------- coarse-fine bookkeeping
def _flux_parent(n_adv: int, n_children: int, seed: int = 3):
    """A 16^3 parent (three ghosts) with ``n_children`` 4^3-footprint
    children on a lattice, every field and face accumulated."""
    rng = np.random.default_rng(seed)
    ng, n = 3, 16
    shape = (n + 2 * ng,) * 3
    names = ("density", "vx", "vy", "vz", "energy") + tuple(
        f"s{i}" for i in range(n_adv))
    fields = {name: rng.random(shape) + 0.5 for name in names}
    fields["internal"] = 0.5 * fields["energy"]
    coarse = {}
    for ax, axis_name in enumerate(("x", "y", "z")):
        face = [n] * 3
        face[ax] += 1
        coarse[axis_name] = {name: 0.01 * rng.standard_normal(face)
                             for name in names}
    children = []
    for k in range(n_children):
        lo = np.array([1 + 5 * (k % 3), 1 + 5 * (k // 3 % 3), 1 + 5 * (k // 9)])
        blocks = [0.01 * rng.standard_normal((2, len(names), 8, 8))
                  for _ in range(3)]
        children.append((lo, lo + 4, blocks,
                         np.ones((3, len(names)), dtype=bool)))
    return fields, names, ng, children, coarse


def _packed_level():
    """``fill.level`` arguments of a sibling-packed level: the boundary
    fill of 64 8^3 grids tiling a 16^3 root mid-step, and the rebuild
    fill of 27 8^3 grids offset from them by half a grid."""
    import itertools

    from repro.amr import Grid, Hierarchy
    from repro.amr.boundary import ghost_fill_args
    from repro.amr.rebuild import rebuild_fill_args
    from repro.precision.doubledouble import DoubleDouble

    rng = np.random.default_rng(11)

    def randomise(grid):
        for _, arr in grid.fields.array_items():
            arr[...] = rng.random(arr.shape) + 0.5
        grid.phi[...] = rng.standard_normal(grid.phi.shape)

    h = Hierarchy(n_root=16)
    randomise(h.root)
    h.root.save_old_state()
    randomise(h.root)
    h.root.time = DoubleDouble(1.0)
    for corner in itertools.product(range(0, 32, 8), repeat=3):
        g = Grid(1, corner, (8, 8, 8), n_root=16)
        h.add_grid(g, h.root)
        randomise(g)
        g.time = DoubleDouble(0.5)
    shifted = []
    for corner in itertools.product(range(4, 28, 8), repeat=3):
        g = Grid(1, corner, (8, 8, 8), n_root=16)
        g.allocate()
        shifted.append((g, h.root, False))
    return (ghost_fill_args(h.level_topology(1)),
            rebuild_fill_args(shifted, h.level_grids(1)))


def _fill(fn, args, timed=False):
    fn(*args)
    if not timed:
        return np.concatenate([a.ravel() for t in args[0] for a in t[0]])


def bookkeeping_rows(config: dict, backend: str) -> dict:
    """One call of each coarse-fine bookkeeping kernel, NumPy reference vs.
    compiled, parity-asserted on the bench inputs (a level fill writes
    every cell it fills whatever they held, so one set of arrays serves
    both tiers)."""
    fields, names, ng, children, coarse = _flux_parent(
        12, config["flux_children"])
    boundary, rebuild = _packed_level()
    rng = np.random.default_rng(9)
    n_part = config["particles"]
    offsets = rng.random((n_part, 3))
    masses = rng.random(n_part) + 0.5
    field3 = rng.standard_normal((3, 22, 22, 22))
    dx = 1.0 / 16

    def flux(fn, out=None):
        # timed in place on one scratch copy: the copy is not the kernel
        if out is None:
            out = {k: v.copy() for k, v in fields.items()}
        fn(out, names, ng, dx, [False] * 3, coarse, 2, children)
        return out

    scratch = {k: v.copy() for k, v in fields.items()}

    cases = {
        "flux.correct": (lambda fn, timed=False: flux(
            fn, scratch if timed else None), correct_numpy),
        "cic.deposit (periodic)": (
            lambda fn, timed=False: _deposit(fn, offsets, masses, dx, True),
            deposit_numpy),
        "cic.deposit (subgrid)": (
            lambda fn, timed=False: _deposit(fn, 0.5 * offsets, masses, dx,
                                             False),
            deposit_numpy),
        "cic.gather (subgrid)": (
            lambda fn, timed=False: fn(field3, 0.5 * offsets + 3 * dx, dx,
                                       False),
            gather_numpy),
        "fill.level (boundary)": (
            lambda fn, timed=False: _fill(fn, boundary, timed),
            fill_level_numpy),
        "fill.level (rebuild)": (
            lambda fn, timed=False: _fill(fn, rebuild, timed),
            fill_level_numpy),
    }
    rows = []
    for label, (call, ref) in cases.items():
        compiled = dispatch._impls[(backend, label.split()[0])]
        ref_out, got_out = call(ref), call(compiled)
        if isinstance(ref_out, dict):
            ref_out, got_out = list(ref_out.values()), list(got_out.values())
        else:
            ref_out, got_out = [ref_out], [got_out]
        assert all(np.array_equal(a, b) for a, b in zip(ref_out, got_out))
        row = {"kernel": label}
        for name, fn in (("numpy", ref), (backend, compiled)):
            row[f"{name}_us_per_call"] = 1e6 * _best(
                lambda: call(fn, timed=True), config["repeats"] * 5)
        row["speedup"] = (row["numpy_us_per_call"]
                          / row[f"{backend}_us_per_call"])
        rows.append(row)
    return {"host_cpus": len(os.sched_getaffinity(0)), "tier": backend,
            "commit": _commit(), "unit": "us per call",
            "flux_children": config["flux_children"], "particles": n_part,
            "rows": rows}


def _deposit(fn, offsets, masses, dx, periodic):
    grid = np.zeros((16, 16, 16) if periodic else (22, 22, 22))
    fn(grid, offsets, masses, dx, dx ** 3, periodic)
    return grid


# -------------------------------------------------------------- end-to-end
def end_to_end(config: dict, backend: str) -> dict:
    """Step the collapse problem under both tiers; fingerprints must match."""
    from repro.problems import PrimordialCollapse

    def run_with(tier: str):
        dispatch.set_backend(tier, env=False)
        dispatch.warm()
        dispatch.reset_counters()
        problem = PrimordialCollapse(
            n_root=config["n_root"], max_level=config["max_level"],
            amplitude_boost=4.0, mass_refine_factor=8.0,
            with_chemistry=config["with_chemistry"],
        )
        problem.initial_rebuild()
        t0 = time.perf_counter()
        problem.run_to_redshift(50.0, max_root_steps=config["steps"])
        wall = time.perf_counter() - t0
        calls = {k: c for k, (c, _) in dispatch.counters_totals().items()}
        return problem.hierarchy.fingerprint(), wall, calls

    fp_np, wall_np, _ = run_with("numpy")
    fp_cmp, wall_cmp, calls = run_with(backend)
    assert fp_np == fp_cmp, (
        f"kernel tier changed the physics: numpy fingerprint {fp_np!r} "
        f"!= {backend} fingerprint {fp_cmp!r}"
    )
    return {
        "fingerprints_match": True,
        "numpy_s": wall_np,
        f"{backend}_s": wall_cmp,
        "speedup": wall_np / wall_cmp,
        "steps": config["steps"],
        "kernel_calls": calls,
    }


def run(config: dict) -> dict:
    backend = _compiled_backend()
    if backend is None:
        return {"compiled_backend": None,
                "note": "no compiled backend available on this host"}
    try:
        return {
            "compiled_backend": backend,
            "hydro.sweep": sweep_rows(config, backend),
            "chem.step": chem_step_rows(config, backend),
            "mg.vcycle": vcycle_rows(config, backend),
            "bookkeeping": bookkeeping_rows(config, backend),
            "micro": micro(config, backend),
            "end_to_end": end_to_end(config, backend),
        }
    finally:
        dispatch.set_backend("numpy", env=False)


SMOKE = {"n_cells_chem": 16384, "repeats": 2, "sweep_interiors": (8, 16, 32),
         "chem_cells": (512, 10648, 54872),
         "vcycle_shapes": ((4, 4, 4), (8, 8, 8), (16, 26, 26)),
         "flux_children": 8, "particles": 4096,
         "n_root": 8, "max_level": 1, "with_chemistry": False, "steps": 2}
FULL = {"n_cells_chem": 65536, "repeats": 5, "sweep_interiors": (8, 16, 32),
        "chem_cells": (512, 10648, 54872),
        "vcycle_shapes": ((4, 4, 4), (8, 8, 8), (16, 26, 26)),
        "flux_children": 8, "particles": 4096,
        "n_root": 8, "max_level": 2, "with_chemistry": True, "steps": 4}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true",
                    help="small configuration for CI")
    ap.add_argument("--out",
                    default=str(Path(__file__).parent / "BENCH_kernels.json"))
    args = ap.parse_args(argv)
    config = SMOKE if args.smoke else FULL
    results = run(config)
    payload = {
        "bench": "kernels",
        "mode": "smoke" if args.smoke else "full",
        "config": config,
        "results": results,
    }
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    print(json.dumps(payload, indent=2))
    print(f"\nwrote {args.out}")
    return 0


def test_kernels_smoke():
    """Pytest entry: every compiled kernel beats its NumPy reference in
    the noisy smoke configuration, parity holds on every bench input and
    the end-to-end step is bitwise."""
    import pytest

    results = run(SMOKE)
    if results["compiled_backend"] is None:
        pytest.skip("no compiled backend available")
    # the fused sweep is parity-checked inside sweep_rows; one compiled
    # call must beat the NumPy body even on the smallest grid, and the
    # solver's pencil boxes (372 of 588 pencils at 8^3) must beat the
    # full box
    assert results["hydro.sweep"]["rows"][0]["interior"] == 8
    assert results["hydro.sweep"]["rows"][0]["speedup"] > 1.0, \
        results["hydro.sweep"]
    assert results["hydro.sweep"]["rows"][0]["box_saving"] > 1.0, \
        results["hydro.sweep"]
    # likewise chem.step (parity-checked inside chem_step_rows)
    assert results["chem.step"]["rows"][0]["cells"] == 512
    assert all(r["speedup"] > 1.0 for r in results["chem.step"]["rows"]), \
        results["chem.step"]
    # and mg.vcycle (parity-checked inside vcycle_rows), at 8^3
    assert results["mg.vcycle"]["rows"][1]["interior"] == [8, 8, 8]
    assert results["mg.vcycle"]["rows"][1]["speedup"] > 1.0, \
        results["mg.vcycle"]
    # and the coarse-fine bookkeeping (parity-checked inside
    # bookkeeping_rows)
    assert all(r["speedup"] > 1.0 for r in results["bookkeeping"]["rows"]), \
        results["bookkeeping"]
    # and the chem.blend table pass (parity-checked inside micro)
    assert results["micro"]["chem.blend"]["speedup"] > 1.0, results["micro"]
    assert results["end_to_end"]["fingerprints_match"]


if __name__ == "__main__":
    raise SystemExit(main())
