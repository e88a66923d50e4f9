"""Ghost zones the solvers leave behind are dead.

``EvolveLevel`` calls ``SetBoundaryValues`` right after every level step
(paper Sec. 3.2), so a ghost value the hydro step or the chemistry update
leaves is rewritten before anything reads it — which is what lets
``PPMSolver.step`` advance only the pencils a later sweep of the same step
reads, and the tail of the step and the chemistry only the active zone.
Two runs check it on refined hierarchies:

* **poisoned** — every ghost cell of every field of the level is NaN when
  each boundary fill starts; a ghost value read before the fill would
  leave a NaN (or a rescue) behind;
* **full update** — every step advances every cell its stencils reach;
  a pencil box too small for a later sweep would change the active zone.

Both must end on the plain run's ``Hierarchy.fingerprint()``, which
hashes whole arrays, ghost zones included.
"""

import functools

import numpy as np
import pytest

from repro.amr import evolve
from repro.hydro.ppm import PPMSolver


def _poisoned(fill, calls):
    """``set_boundary_values`` that first NaN-fills the ghost zones."""
    def poison_then_fill(hierarchy, level, *args, **kwargs):
        calls.append(level)
        for g in hierarchy.level_grids(level):
            ghost = np.ones(g.fields.shape, dtype=bool)
            ghost[g.interior] = False
            for _, arr in g.fields.array_items():
                arr[ghost] = np.nan
        return fill(hierarchy, level, *args, **kwargs)
    return poison_then_fill


def _collapse():
    """Refined collapse with chemistry and dark matter."""
    from repro.problems import PrimordialCollapse

    problem = PrimordialCollapse(
        n_root=8, max_level=2, z_init=100.0, seed=7, amplitude_boost=4.0,
        jeans_number=4.0, mass_refine_factor=8.0, with_chemistry=True,
        with_dark_matter=True, max_dims=16)
    problem.initial_rebuild()
    t_end = problem.code_time_of_redshift(20.0)
    for _ in range(4):
        problem.evolver.advance_root_step(t_end)
    assert problem.evolver.chem_stats.snapshot()["cells"] > 0
    assert len(problem.hierarchy.levels) > 2
    return problem.hierarchy


def _sphere():
    """Many small sibling grids over three levels (``sphere_deep``-like)."""
    from repro.problems import SphereCollapse

    run = SphereCollapse(n_root=16, max_level=2, overdensity=25.0,
                         max_dims=8)
    t_end = 1.5 * run.free_fall_time(run.peak_density)
    for _ in range(3):
        run.evolver.advance_root_step(t_end)
    assert len(run.hierarchy.level_grids(2)) > 1
    return run.hierarchy


@pytest.mark.parametrize("problem", [_collapse, _sphere],
                         ids=["collapse", "sphere"])
def test_dead_ghosts_leave_the_fingerprint(problem, monkeypatch):
    plain = problem()
    for name, arr in plain.root.fields.array_items():
        assert np.isfinite(arr).all(), name
    fingerprints = {"plain": plain.fingerprint()}
    calls = []
    with monkeypatch.context() as m:
        m.setattr(evolve, "set_boundary_values",
                  _poisoned(evolve.set_boundary_values, calls))
        fingerprints["poisoned"] = problem().fingerprint()
    assert set(calls) == {0, 1, 2}, calls
    with monkeypatch.context() as m:
        m.setattr(PPMSolver, "step",
                  functools.partialmethod(PPMSolver.step, full_update=True))
        fingerprints["full_update"] = problem().fingerprint()
    assert len(set(fingerprints.values())) == 1, fingerprints
