"""Property-based tests of AMR invariants over randomised configurations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.amr import Grid, Hierarchy
from repro.amr.boundary import set_boundary_values
from repro.amr.flux_correction import (
    accumulate_boundary_fluxes,
    apply_flux_correction,
    init_flux_accumulator,
)
from repro.amr.projection import project_child_to_parent
from repro.amr.rebuild import _fill_new_grid
from repro.hydro import PPMSolver
from repro.hydro.state import fill_ghosts_periodic, total_energy
from repro.precision.doubledouble import DoubleDouble


def _composite_mass(h):
    covered = h.covering_mask(h.root)
    m = (h.root.field_view("density") * ~covered).sum() * h.root.dx**3
    for g in h.level_grids(1):
        m += g.field_view("density").sum() * g.dx**3
    return m


@given(
    start=st.tuples(*(st.integers(0, 4) for _ in range(3))),
    dims=st.tuples(*(st.sampled_from([4, 6, 8]) for _ in range(3))),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=10, deadline=None)
def test_flux_corrected_composite_mass_conserved(start, dims, seed):
    """For arbitrary (nested) child placements and random smooth flows, the
    flux-corrected + projected composite conserves mass to round-off."""
    n_root = 8
    start = tuple(2 * min(s, (2 * n_root - d) // 2) for s, d in zip(start, dims))
    child_start = tuple(min(2 * s, 2 * n_root - d) for s, d in zip(start, dims))
    # ensure even alignment and nesting
    child_start = tuple((cs // 2) * 2 for cs in child_start)

    rng = np.random.default_rng(seed)
    h = Hierarchy(n_root=n_root)
    root = h.root
    shape = root.shape_with_ghosts
    root.fields["density"][:] = 1.0 + 0.3 * rng.random(shape)
    root.fields["vx"][:] = 0.3 * rng.standard_normal(shape)
    root.fields["vy"][:] = 0.3 * rng.standard_normal(shape)
    root.fields["internal"][:] = 1.0 + 0.2 * rng.random(shape)
    fill_ghosts_periodic(root.fields, 3)
    root.fields["energy"] = total_energy(root.fields)

    child = Grid(1, child_start, dims, n_root=n_root)
    h.add_grid(child, root)
    _fill_new_grid(child, root, [])

    m0 = _composite_mass(h)
    solver = PPMSolver()
    dt = 1.5e-3
    root.save_old_state()
    root.last_fluxes = solver.step(root.fields, root.dx, dt)
    root.time = DoubleDouble(dt)
    init_flux_accumulator(child)
    for _ in range(2):
        set_boundary_values(h, 1)
        fl = solver.step(child.fields, child.dx, dt / 2)
        accumulate_boundary_fluxes(child, fl)
        child.time = DoubleDouble(child.time + dt / 2)
    apply_flux_correction(root, child)
    project_child_to_parent(child, root)
    m1 = _composite_mass(h)
    assert abs(m1 - m0) < 1e-9 * max(abs(m0), 1.0)


@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=10, deadline=None)
def test_projection_idempotent(seed):
    """Projecting twice changes nothing (restriction is a projection)."""
    rng = np.random.default_rng(seed)
    h = Hierarchy(n_root=8)
    child = Grid(1, (4, 4, 4), (8, 8, 8), n_root=8)
    h.add_grid(child, h.root)
    for name, arr in child.fields.array_items():
        arr[:] = 0.5 + rng.random(arr.shape)
    project_child_to_parent(child, h.root)
    snapshot = h.root.fields["density"].copy()
    project_child_to_parent(child, h.root)
    np.testing.assert_array_equal(h.root.fields["density"], snapshot)


@given(
    seed=st.integers(0, 2**31 - 1),
    level=st.integers(1, 30),
)
@settings(max_examples=15, deadline=None)
def test_deep_boundary_interpolation_finite(seed, level):
    """Ghost filling stays finite and conservative at any depth."""
    rng = np.random.default_rng(seed)
    n_root = 8
    h = Hierarchy(n_root=n_root)
    parent = h.root
    start = np.array([n_root // 2] * 3, dtype=np.int64)
    for lvl in range(1, level + 1):
        start = start * 2 - 2
        g = Grid(lvl, start, (4, 4, 4), n_root)
        h.add_grid(g, parent)
        parent = g
        start = start + 2
    deepest = h.level_grids(level)[0]
    p = deepest.parent
    p.fields["density"][:] = 1.0 + rng.random(p.shape_with_ghosts)
    from repro.amr.boundary import interpolate_from_parent

    interpolate_from_parent(deepest, p)
    assert np.all(np.isfinite(deepest.fields["density"]))
    assert np.all(deepest.fields["density"] > 0)


@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=8, deadline=None)
def test_evolver_keeps_positivity(seed):
    """Random blobs + AMR + gravity: density and energy stay positive."""
    from repro.amr import HierarchyEvolver, RefinementCriteria
    from repro.amr.gravity import HierarchyGravity
    from repro.amr.rebuild import rebuild_hierarchy

    rng = np.random.default_rng(seed)
    h = Hierarchy(n_root=8)
    root = h.root
    x, y, z = np.meshgrid(*root.cell_centres(), indexing="ij")
    cx, cy, cz = rng.uniform(0.3, 0.7, 3)
    r2 = (x - cx) ** 2 + (y - cy) ** 2 + (z - cz) ** 2
    root.fields["density"][root.interior] = 1.0 + rng.uniform(3, 15) * np.exp(-r2 / 0.01)
    root.fields["internal"][:] = rng.uniform(0.01, 0.5)
    root.fields["energy"][:] = root.fields["internal"]
    set_boundary_values(h, 0)
    crit = RefinementCriteria(overdensity_threshold=3.0, max_level=1)
    rebuild_hierarchy(h, 1, crit)
    grav = HierarchyGravity(
        g_code=1.0, mean_density=float(root.field_view("density").mean())
    )
    ev = HierarchyEvolver(h, PPMSolver(), gravity=grav, criteria=crit,
                          cfl=0.3)
    ev.advance_to(0.02)
    for g in h.all_grids():
        assert np.all(g.field_view("density") > 0)
        assert np.all(g.field_view("internal") > 0)
        assert np.all(np.isfinite(g.field_view("vx")))
