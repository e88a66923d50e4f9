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

The finest level's fill after its last step before the parent's time is
not even made: the parent's rebuild of that level refills every ghost
cell of it (the shell of a kept grid, all of a new grid) before anything
reads one.  A third run poisons those ghosts where that fill would run.
"""

import functools

import numpy as np
import pytest

from repro.amr import evolve
from repro.hydro.ppm import PPMSolver


def _nan_ghosts(grids) -> None:
    for g in grids:
        ghost = np.ones(g.fields.shape, dtype=bool)
        ghost[g.interior] = False
        for _, arr in g.fields.array_items():
            arr[ghost] = np.nan


def _poisoned(fill, calls):
    """``set_boundary_values`` that first NaN-fills the ghost zones."""
    def poison_then_fill(hierarchy, level, *args, **kwargs):
        calls.append(level)
        _nan_ghosts(hierarchy.level_grids(level))
        return fill(hierarchy, level, *args, **kwargs)
    return poison_then_fill


def _poison_finest(monkeypatch, counts):
    """NaN-fill the finest level's ghosts right after its last step before
    its parent's time, where its post-step fill used to run, and count
    that level's steps, the times it is entered, its fills and the
    poisonings."""
    evolve_level = evolve.HierarchyEvolver.evolve_level
    fill = evolve.set_boundary_values
    parent_times = {}
    finest_level = [None]

    def traced(self, level, parent_time):
        finest = finest_level[0] = self.criteria.max_level
        if level == finest:
            counts["entered"] += bool(self.hierarchy.level_grids(level))
            parent_times[level] = parent_time
        elif level == finest + 1:  # called after every step of the finest
            counts["steps"] += 1
            if not bool(parent_time < parent_times[finest]):
                counts["poisoned"] += 1
                _nan_ghosts(self.hierarchy.level_grids(finest))
        return evolve_level(self, level, parent_time)

    def counted(hierarchy, level, *args, **kwargs):
        if level == finest_level[0]:
            counts["fills"] += 1
        return fill(hierarchy, level, *args, **kwargs)

    monkeypatch.setattr(evolve.HierarchyEvolver, "evolve_level", traced)
    monkeypatch.setattr(evolve, "set_boundary_values", counted)


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
        m.setattr(PPMSolver, "step_level", functools.partialmethod(
            PPMSolver.step_level, full_update=True))
        fingerprints["full_update"] = problem().fingerprint()
    counts = dict.fromkeys(("entered", "steps", "fills", "poisoned"), 0)
    with monkeypatch.context() as m:
        _poison_finest(m, counts)
        fingerprints["finest_poisoned"] = problem().fingerprint()
    assert counts["poisoned"] > 0, counts
    # one fill on entry and one after every step but the skipped ones
    assert counts["fills"] == (counts["entered"] + counts["steps"]
                               - counts["poisoned"]), counts
    assert len(set(fingerprints.values())) == 1, fingerprints
