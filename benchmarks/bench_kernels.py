"""Kernel-tier benchmark: compiled inner loops vs. the NumPy reference.

The compiled kernel tier (``repro.kernels``) takes over the hottest inner
loops — the fused hydro step, the chemistry rate-table blend and substep,
the multigrid solves of a level, the potential gradient and the
coarse-fine bookkeeping — with C loops (cffi) that are **bitwise identical** to the
vectorised reference (the parity suite in ``tests/test_kernels.py``
enforces that).

This bench measures what that buys:

* one fused grid step (``hydro.step``: everything ``PPMSolver.step`` does
  to one grid — half kicks, the three sweeps, drag, dual-energy sync and
  energy floor — in a single compiled call) with each face-state scheme
  the workloads run (``ppm+flatten`` and ``trace``, both with HLLC) at
  8^3 / 16^3 / 32^3 interior cells plus three ghosts, storing its fluxes
  in the face windows of a level-1 grid with one child (its six boundary
  planes and the six planes at the child's faces), with the solver's
  pencil boxes (only the pencils a later sweep reads) and, for the
  compiled tier, with every pencil swept, in us per interior cell and
  bytes allocated per call — *layer evidence* under the end-to-end
  numbers of ``benchmarks/e2e``, never a headline;
* one fused chemistry substep (``chem.step``: timescale control, the
  backward-Euler species/energy update and the renormalisation of every
  active cell of one grid in a single compiled call) at 512 / 10,648 /
  54,872 cells — the 8^3, 22^3 and 38^3 allocated grids of the
  ``collapse_chem`` workload — in us per cell-substep, layer evidence too;
* one sibling pass of a level's multigrid solves (``mg.level``: for each
  grid, V-cycles from its rim until the residual norm meets the
  hierarchy's tolerance and the write into its potential, then the rim
  exchange, in a single compiled call) on a level of one grid at 4^3 /
  8^3 / 16x26x26 interior cells — the smallest, the typical and the
  largest subgrid of the ``sphere_deep`` workload — and on
  ``sphere_deep``'s shape (32 abutting 8^3 grids), in us per grid-pass,
  layer evidence too;
* the per-grid bookkeeping in us and bytes allocated per call: one
  ``flux.correct`` (every child of a 16^3 parent carrying the twelve
  species, each child's fine sums beside the parent's planes at its
  faces), ``cic.deposit`` /
  ``cic.gather`` of the ``collapse_chem`` workload's 16^3 dark matter
  particles on the periodic root and on a non-periodic subgrid, and two
  ``fill.level`` calls on a sibling-packed level of 64 8^3 grids: its
  boundary fill (time-interpolated parent, sibling copies) and a rebuild
  onto 27 grids shifted by half a grid (old interiors copied, the rest
  prolonged); and one ``gravity.accel`` (the potential gradient of an 8^3
  grid with three ghosts);
* the plan-fed ghost fill at ``sphere_deep``'s shape, compiled tier, in
  us per grid-pass: the fill on its level topology's cached tables
  against a fill that checks its tables and builds its pointers on every
  call;
* the chemistry rate-table blend (``chem.blend``) on one table pass of
  tens of thousands of cells, NumPy vs. the compiled backend;
* an end-to-end primordial-collapse run (chemistry on, so every kernel
  family participates) stepped under both tiers, with the hierarchy
  fingerprints asserted bitwise-equal — the speedup you get for free
  without touching results.

Writes ``BENCH_kernels.json`` next to this file, with the host, cpus,
tier and commit it was measured on at its top level.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_kernels.py [--smoke] [--out X.json]

or via pytest (smoke configuration)::

    PYTHONPATH=src python -m pytest benchmarks/bench_kernels.py -q
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import subprocess
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np

from repro import constants as const
from repro.amr import Grid
from repro.amr.flux_correction import FaceWindows, correct_numpy
from repro.amr.gravity import (
    MG_BUDGET,
    MG_MIN_SIZE,
    MG_POST,
    MG_PRE,
    MG_TOL,
    accel_numpy,
)
from repro.amr.interpolation import fill_level_numpy
from repro.chemistry.network import (
    ChemistryNetwork,
    primordial_initial_fractions,
    step_numpy,
)
from repro.chemistry.rates import blend_table_numpy
from repro.chemistry.species import SPECIES, SPECIES_NAMES
from repro.gravity.multigrid import level_numpy
from repro.hydro.ppm import step_numpy as hydro_step_numpy
from repro.kernels import dispatch
from repro.nbody.cic import deposit_numpy, gather_numpy


def _best(fn, repeats: int) -> float:
    best = np.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _bytes_per_call(fn) -> int:
    """Peak bytes ``fn()`` allocates (tracemalloc, which sees NumPy's
    buffers), after one warm call."""
    fn()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


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


# -------------------------------------------------------------- fused step
def _commit() -> str:
    out = subprocess.run(
        ["git", "-C", str(Path(__file__).parent), "rev-parse", "HEAD"],
        capture_output=True, text=True, check=False)
    return out.stdout.strip() or "unknown"


def _host(backend: str) -> dict:
    """Where a section's numbers come from: cpus, the SIMD copy the
    compiled tier runs (``kernels.lanes()``), tier and commit."""
    return {"host_cpus": len(os.sched_getaffinity(0)),
            "lanes": dispatch.lanes(), "tier": backend, "commit": _commit()}


#: the (scheme, Riemann solver) pairs the e2e workloads step with:
#: ``sedov_amr`` traces characteristics, the collapse and sphere problems
#: flatten their PPM states
STEP_SCHEMES = (("ppm+flatten", "hllc"), ("trace", "hllc"))


def step_rows(config: dict, backend: str) -> dict:
    """One step of one grid (kicked and dragged) for each of
    :data:`STEP_SCHEMES`, NumPy reference vs. compiled with the solver's
    pencil boxes, and compiled with every pencil swept (``full_update``),
    per interior cell, and the bytes one call allocates besides the
    window blocks it fills (the grid's, listed as ``window_bytes``)."""
    ng = 3
    compiled = dispatch._impls[(backend, "hydro.step")]
    rows = []
    for (scheme, solver), interior in itertools.product(
            STEP_SCHEMES, config["step_interiors"]):
        rng = np.random.default_rng(interior)
        shape = (interior + 2 * ng,) * 3
        rho = rng.random(shape) + 0.3
        vel = [0.3 * rng.standard_normal(shape) for _ in range(3)]
        e_int = rng.random(shape) + 0.2
        start = [rho, *vel, e_int + 0.5 * sum(v * v for v in vel), e_int]
        accel = 0.01 * rng.standard_normal((3, *shape))
        # a level-1 grid with one child over its central half
        half = interior // 2
        windows = FaceWindows(
            Grid(1, (0, 0, 0), (interior,) * 3, n_root=16),
            [Grid(2, (half,) * 3, (interior,) * 3, n_root=16)])
        row = {"scheme": f"{scheme} / {solver}", "interior": interior}
        outputs = {}
        for name, fn, full in (("numpy", hydro_step_numpy, False),
                               (backend, compiled, False),
                               (f"{backend}_full_box", compiled, True)):
            def call():
                return fn(arrays, accel, ng, 1.0, 0.05, 1.0, 0, full, 5.0 / 3.0,
                   scheme, solver, 1e-12, 1e-30, 1e-3, (0.99, 0.98),
                   windows.table, outs)

            best = np.inf
            for _ in range(config["repeats"] * 2):
                arrays = [a.copy() for a in start]
                outs = windows.allocate(len(start) - 1)[0]
                t0 = time.perf_counter()
                counts = call()
                best = min(best, time.perf_counter() - t0)
            outputs[name] = (arrays, outs, counts)
            row[f"{name}_us_per_cell"] = 1e6 * best / interior ** 3
            # on copies: the checks below read the timed step's output
            arrays = [a.copy() for a in start]
            outs = windows.allocate(len(start) - 1)[0]
            row[f"{name}_bytes_per_call"] = _bytes_per_call(call)
        row["window_bytes"] = sum(out.nbytes for out in outs)
        (f_r, w_r, c_r), (f_c, w_c, c_c) = outputs["numpy"], outputs[backend]
        assert c_r == c_c
        assert all(np.array_equal(a, b) for a, b in zip(f_r + w_r, f_c + w_c))
        # the boxes change no flux and no active cell
        f_f, w_f, _ = outputs[f"{backend}_full_box"]
        inner = (slice(ng, -ng),) * 3
        assert all(np.array_equal(a[inner], b[inner])
                   for a, b in zip(f_c, f_f))
        assert all(np.array_equal(a, b) for a, b in zip(w_c, w_f))
        row["speedup"] = (row["numpy_us_per_cell"]
                          / row[f"{backend}_us_per_cell"])
        row["box_saving"] = (row[f"{backend}_full_box_us_per_cell"]
                             / row[f"{backend}_us_per_cell"])
        rows.append(row)
    return {**_host(backend), "unit": "us per interior cell per step",
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
    return {**_host(backend), "unit": "us per cell-substep",
            "rows": rows}


# ------------------------------------------------- coarse-fine bookkeeping
def _flux_parent(n_adv: int, n_children: int, seed: int = 3):
    """A 16^3 parent (three ghosts) with ``n_children`` 4^3-footprint
    children on a lattice, every field and face accumulated: each child's
    fine sums and the parent's planes at its faces."""
    rng = np.random.default_rng(seed)
    ng, n = 3, 16
    shape = (n + 2 * ng,) * 3
    names = ("density", "vx", "vy", "vz", "energy") + tuple(
        f"s{i}" for i in range(n_adv))
    fields = {name: rng.random(shape) + 0.5 for name in names}
    fields["internal"] = 0.5 * fields["energy"]
    children = []
    for k in range(n_children):
        lo = np.array([1 + 5 * (k % 3), 1 + 5 * (k // 3 % 3), 1 + 5 * (k // 9)])
        fine = [0.01 * rng.standard_normal((2, len(names), 8, 8))
                for _ in range(3)]
        coarse = [0.01 * rng.standard_normal((2, len(names), 4, 4))
                  for _ in range(3)]
        children.append((lo, lo + 4, fine, coarse,
                          np.ones((3, len(names)), dtype=bool)))
    return fields, names, ng, children


def _packed_hierarchy(corners, seed=11, dims=(8, 8, 8)):
    """A 16^3 root mid-step (an old and a new state) with a level-1 grid
    of ``dims`` interior cells at each of ``corners``, every array
    random."""
    from repro.amr import Grid, Hierarchy
    from repro.precision.doubledouble import DoubleDouble

    rng = np.random.default_rng(seed)

    def randomise(grid):
        for _, arr in grid.fields.array_items():
            arr[...] = rng.random(arr.shape) + 0.5
        grid.phi[...] = rng.standard_normal(grid.phi.shape)

    h = Hierarchy(n_root=16)
    randomise(h.root)
    h.root.save_old_state()
    randomise(h.root)
    h.root.time = DoubleDouble(1.0)
    for corner in corners:
        g = Grid(1, corner, dims, n_root=16)
        h.add_grid(g, h.root)
        randomise(g)
        g.time = DoubleDouble(0.5)
    return h


def _packed_level():
    """``fill.level`` plans and time fractions of a sibling-packed level:
    the boundary fill of 64 8^3 grids tiling a 16^3 root mid-step (the
    topology's), and the rebuild fill of 27 8^3 grids offset from them
    by half a grid (a one-off)."""
    from repro.amr import Grid
    from repro.amr.boundary import ghost_fractions
    from repro.amr.rebuild import rebuild_fill_plan

    h = _packed_hierarchy(itertools.product(range(0, 32, 8), repeat=3))
    shifted = []
    for corner in itertools.product(range(4, 28, 8), repeat=3):
        g = Grid(1, corner, (8, 8, 8), n_root=16)
        g.allocate()
        shifted.append((g, h.root, False))
    topo = h.level_topology(1)
    return ((topo.ghost_plan(), ghost_fractions(topo)),
            (rebuild_fill_plan(shifted, h.level_grids(1)), None))


def _fill(fn, args, timed=False):
    plan, fracs = args
    fn(plan, fracs)
    if not timed:
        return np.concatenate([a.ravel() for t in plan.targets for a in t[0]])


def bookkeeping_rows(config: dict, backend: str) -> dict:
    """One call of each per-grid bookkeeping kernel, NumPy reference vs.
    compiled, parity-asserted on the bench inputs (a level fill writes
    every cell it fills whatever they held, so one set of arrays serves
    both tiers)."""
    fields, names, ng, children = _flux_parent(12, config["flux_children"])
    boundary, rebuild = _packed_level()
    rng = np.random.default_rng(9)
    n_part = config["particles"]
    offsets = rng.random((n_part, 3))
    masses = rng.random(n_part) + 0.5
    field3 = rng.standard_normal((3, 22, 22, 22))
    phi = rng.standard_normal((14, 14, 14))
    dx = 1.0 / 16

    def flux(fn, out=None):
        # timed in place on one scratch copy: the copy is not the kernel
        if out is None:
            out = {k: v.copy() for k, v in fields.items()}
        fn(out, names, ng, dx, [False] * 3, 2, children)
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
        "gravity.accel": (
            lambda fn, timed=False: fn(phi, dx, 1.3), accel_numpy),
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
            row[f"{name}_bytes_per_call"] = _bytes_per_call(
                lambda: call(fn, timed=True))
        row["speedup"] = (row["numpy_us_per_call"]
                          / row[f"{backend}_us_per_call"])
        rows.append(row)
    return {**_host(backend), "unit": "us per call",
            "flux_children": config["flux_children"], "particles": n_part,
            "rows": rows}


def _deposit(fn, offsets, masses, dx, periodic):
    grid = np.zeros((16, 16, 16) if periodic else (22, 22, 22))
    fn(grid, offsets, masses, dx, dx ** 3, periodic)
    return grid


# ------------------------------------------------------------- level paths
#: the ``sphere_deep`` workload's shape: 32 level-1 grids of 8^3 interior
#: cells and three ghosts, abutting in a 4 x 4 x 2 block
LEVEL_CORNERS = tuple(itertools.product(range(0, 32, 8), range(0, 32, 8),
                                        range(8, 24, 8)))


def level_plan_rows(config: dict, backend: str) -> dict:
    """The plan-fed ghost fill at ``sphere_deep``'s shape
    (:data:`LEVEL_CORNERS`), compiled tier, in us per grid-pass: the fill
    on the level topology's cached tables against a fill that checks its
    tables and builds its pointers again (what every call paid before the
    plan)."""
    from repro.amr.boundary import ghost_fractions
    from repro.amr.interpolation import FillPlan

    fill = dispatch._impls[(backend, "fill.level")]
    h = _packed_hierarchy(LEVEL_CORNERS, seed=13)
    topo = h.level_topology(1)
    n = len(topo.grids)
    plan, fracs = topo.ghost_plan(), ghost_fractions(topo)
    args = ([(a, o, p, 1.0) for a, o, p in plan.targets],
            [(a, old, o) for a, old, o in plan.parents],
            [(a, o, tuple(lo), tuple(hi)) for (a, o), lo, hi in zip(
                plan.sources, topo.starts, topo.ends)],
            plan.fill, plan.copies, plan.r, plan.positive)
    reps = config["repeats"] * 10
    row = {
        "kernel": "fill.level (plan-fed)", "grids": n,
        f"{backend}_per_call_us_per_grid_pass": 1e6 * _best(
            lambda: fill(FillPlan(*args), fracs), reps) / n,
        f"{backend}_plan_fed_us_per_grid_pass": 1e6 * _best(
            lambda: fill(plan, fracs), reps) / n,
    }
    row["speedup"] = (row[f"{backend}_per_call_us_per_grid_pass"]
                      / row[f"{backend}_plan_fed_us_per_grid_pass"])
    return {**_host(backend), "unit": "us per grid-pass", "rows": [row]}


def mg_level_rows(config: dict, backend: str) -> dict:
    """One ``mg.level`` sibling pass at the hierarchy's V-cycle settings,
    from the rims the parent's potential gives, NumPy reference vs.
    compiled on the same plan, parity-asserted, in us per grid-pass: a
    level of one grid at each of ``solve_shapes``, and the 32 grids of
    :data:`LEVEL_CORNERS` with their rim exchange."""
    fill = dispatch._impls[(backend, "fill.level")]
    compiled = dispatch._impls[(backend, "mg.level")]
    cases = [([(0, 0, 0)], shape) for shape in config["solve_shapes"]]
    cases.append((LEVEL_CORNERS, (8, 8, 8)))
    rows = []
    for corners, dims in cases:
        plan = _packed_hierarchy(corners, seed=13, dims=dims).level_topology(
            1).poisson()
        fill(plan.rim_fill)
        n = len(plan.phis)
        src = np.random.default_rng(3).standard_normal(
            int(plan.cell_offsets[-1]))
        rims = plan.rims.copy()
        stats = np.zeros((n, 3))
        row = {"grids": n, "interior": list(dims)}
        outputs = {}
        for name, fn in (("numpy", level_numpy), (backend, compiled)):
            best = np.inf
            for _ in range(config["repeats"] * 3):
                plan.rims[...] = rims
                t0 = time.perf_counter()
                out = fn(plan, src, 0, n, MG_PRE, MG_POST, MG_MIN_SIZE,
                         MG_TOL, MG_BUDGET, False, False, True, stats)
                best = min(best, time.perf_counter() - t0)
            outputs[name] = [out, stats.copy(), plan.rims.copy(),
                             *(a.copy() for a in plan.phis)]
            row[f"{name}_us_per_grid_pass"] = 1e6 * best / n
        ref, got = outputs["numpy"], outputs[backend]
        assert ref[0] == got[0] and all(
            np.array_equal(a, b) for a, b in zip(ref[1:], got[1:]))
        row["vcycles"] = int(stats[:, 0].sum())
        row["speedup"] = (row["numpy_us_per_grid_pass"]
                          / row[f"{backend}_us_per_grid_pass"])
        rows.append(row)
    return {**_host(backend), "unit": "us per grid-pass", "rows": rows}


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
            "hydro.step": step_rows(config, backend),
            "chem.step": chem_step_rows(config, backend),
            "mg.level": mg_level_rows(config, backend),
            "bookkeeping": bookkeeping_rows(config, backend),
            "level_plan": level_plan_rows(config, backend),
            "micro": micro(config, backend),
            "end_to_end": end_to_end(config, backend),
        }
    finally:
        dispatch.set_backend("numpy", env=False)


SMOKE = {"n_cells_chem": 16384, "repeats": 2, "step_interiors": (8, 16, 32),
         "chem_cells": (512, 10648, 54872),
         "solve_shapes": ((4, 4, 4), (8, 8, 8), (16, 26, 26)),
         "flux_children": 8, "particles": 4096,
         "n_root": 8, "max_level": 1, "with_chemistry": False, "steps": 10}
FULL = {"n_cells_chem": 65536, "repeats": 5, "step_interiors": (8, 16, 32),
        "chem_cells": (512, 10648, 54872),
        "solve_shapes": ((4, 4, 4), (8, 8, 8), (16, 26, 26)),
        "flux_children": 8, "particles": 4096,
        "n_root": 8, "max_level": 2, "with_chemistry": True, "steps": 20}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true",
                    help="small configuration for CI")
    ap.add_argument("--out",
                    default=str(Path(__file__).parent / "BENCH_kernels.json"))
    args = ap.parse_args(argv)
    config = SMOKE if args.smoke else FULL
    results = run(config)
    backend = _compiled_backend()
    payload = {
        "bench": "kernels",
        "host": platform.node(),
        "cpus": len(os.sched_getaffinity(0)),
        "tier": backend or "numpy",
        "commit": _commit(),
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
    # the fused step is parity-checked inside step_rows; for both schemes
    # the workloads run, one compiled call must beat the NumPy body even on
    # the smallest grid, and the solver's pencil boxes (372 of 588 pencils
    # at 8^3) must beat the full box
    smallest = [r for r in results["hydro.step"]["rows"] if r["interior"] == 8]
    assert [r["scheme"] for r in smallest] == [
        f"{scheme} / {solver}" for scheme, solver in STEP_SCHEMES]
    assert all(r["speedup"] > 1.0 and r["box_saving"] > 1.0
               for r in smallest), results["hydro.step"]
    assert results["hydro.step"]["lanes"] is not None
    # likewise chem.step (parity-checked inside chem_step_rows)
    assert results["chem.step"]["rows"][0]["cells"] == 512
    assert all(r["speedup"] > 1.0 for r in results["chem.step"]["rows"]), \
        results["chem.step"]
    # and mg.level (parity-checked inside mg_level_rows), on every level
    assert [(r["grids"], r["interior"]) for r in results["mg.level"]["rows"]
            ] == [(1, list(shape)) for shape in SMOKE["solve_shapes"]] + [
                (32, [8, 8, 8])]
    assert all(r["speedup"] > 1.0 for r in results["mg.level"]["rows"]), \
        results["mg.level"]
    # and the per-grid bookkeeping, gravity.accel included (parity-checked
    # inside bookkeeping_rows)
    assert all(r["speedup"] > 1.0 for r in results["bookkeeping"]["rows"]), \
        results["bookkeeping"]
    # and the plan-fed ghost fill at sphere_deep's shape: the cached fill
    # tables beat checking them per call
    assert [r["kernel"] for r in results["level_plan"]["rows"]] == [
        "fill.level (plan-fed)"]
    assert results["level_plan"]["rows"][0]["speedup"] > 1.0, \
        results["level_plan"]
    # and the chem.blend table pass (parity-checked inside micro)
    assert results["micro"]["chem.blend"]["speedup"] > 1.0, results["micro"]
    assert results["end_to_end"]["fingerprints_match"]


if __name__ == "__main__":
    raise SystemExit(main())
