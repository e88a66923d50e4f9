"""Tests for the live operation recorder (the paper's 'future project')."""

import numpy as np
import pytest

from repro.amr import Hierarchy, HierarchyEvolver, RefinementCriteria
from repro.amr.boundary import set_boundary_values
from repro.amr.gravity import HierarchyGravity
from repro.amr.rebuild import rebuild_hierarchy
from repro.hydro import PPMSolver
from repro.perf import OperationRecorder
from repro.perf.flops import FLOPS_PER_CELL_CHEMISTRY


def _blob_hierarchy():
    h = Hierarchy(n_root=8)
    root = h.root
    x, y, z = np.meshgrid(*root.cell_centres(), indexing="ij")
    r2 = (x - 0.5) ** 2 + (y - 0.5) ** 2 + (z - 0.5) ** 2
    root.fields["density"][root.interior] = 1.0 + 10 * np.exp(-r2 / 0.01)
    set_boundary_values(h, 0)
    return h


class TestOperationRecorder:
    def test_records_during_run(self):
        h = _blob_hierarchy()
        ev = HierarchyEvolver(h, PPMSolver(), cfl=0.3)
        rec = OperationRecorder(ev)
        assert ev.stats is rec
        ev.advance_to(0.01)
        assert rec.steps_recorded > 0
        assert rec.counts.total > 0
        assert rec.counts.counts["hydrodynamics"] > 0

    def test_counts_only_the_physics_the_run_has(self):
        """A hydro-only run does no Poisson solves and no chemistry."""
        h = _blob_hierarchy()
        ev = HierarchyEvolver(h, PPMSolver(), cfl=0.3)
        rec = OperationRecorder(ev)
        ev.advance_to(0.01)
        assert set(rec.counts.counts) == {"hydrodynamics", "boundary"}

        h = _blob_hierarchy()
        grav = HierarchyGravity(g_code=0.1, mean_density=float(
            h.root.field_view("density").mean()))
        ev = HierarchyEvolver(h, PPMSolver(), gravity=grav, cfl=0.3)
        rec = OperationRecorder(ev)
        ev.advance_to(0.005)
        assert rec.counts.counts["poisson"] > 0
        assert "chemistry" not in rec.counts.counts

    def test_chemistry_counts_the_measured_substeps(self):
        from repro.problems import PrimordialCollapse

        run = PrimordialCollapse(n_root=8, max_level=1, with_dark_matter=False)
        run.initial_rebuild()
        ev = run.evolver
        rec = OperationRecorder(ev)
        substeps = 0
        for _ in range(2):
            ev.advance_root_step(run.code_time_of_redshift(20.0))
            substeps += ev.chem_stats.snapshot()["substeps_total"]
        assert substeps > 0
        assert rec.counts.counts["chemistry"] == pytest.approx(
            substeps * FLOPS_PER_CELL_CHEMISTRY)

    def test_rebuild_recorded(self):
        h = _blob_hierarchy()
        crit = RefinementCriteria(overdensity_threshold=3.0, max_level=1)
        rebuild_hierarchy(h, 1, crit)
        ev = HierarchyEvolver(h, PPMSolver(), criteria=crit, cfl=0.3)
        rec = OperationRecorder(ev)
        ev.advance_to(0.01)
        assert rec.counts.counts.get("rebuild", 0) > 0

    def test_sustained_rate_positive(self):
        h = _blob_hierarchy()
        ev = HierarchyEvolver(h, PPMSolver(), cfl=0.3)
        rec = OperationRecorder(ev)
        ev.advance_to(0.005)
        assert rec.sustained_rate() > 0
        assert "Mflop/s" in rec.report()

    def test_deeper_levels_add_more_ops(self):
        """Ops scale with cells x steps: a refined run must count more."""
        h1 = _blob_hierarchy()
        ev1 = HierarchyEvolver(h1, PPMSolver(), cfl=0.3)
        r1 = OperationRecorder(ev1)
        ev1.advance_to(0.01)

        h2 = _blob_hierarchy()
        crit = RefinementCriteria(overdensity_threshold=3.0, max_level=1)
        rebuild_hierarchy(h2, 1, crit)
        ev2 = HierarchyEvolver(h2, PPMSolver(), criteria=None, cfl=0.3)
        r2 = OperationRecorder(ev2)
        ev2.advance_to(0.01)
        assert r2.counts.total > r1.counts.total
