"""Tests for the live operation recorder (the paper's 'future project')."""

import numpy as np
import pytest

from repro.amr import Hierarchy, HierarchyEvolver, RefinementCriteria
from repro.amr.boundary import set_boundary_values
from repro.amr.rebuild import rebuild_hierarchy
from repro.hydro import PPMSolver
from repro.perf import HierarchyStats, MultiStats, OperationRecorder


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
        rec = OperationRecorder()
        ev = HierarchyEvolver(h, PPMSolver(), stats=rec, cfl=0.3)
        ev.advance_to(0.01)
        assert rec.steps_recorded > 0
        assert rec.counts.total > 0
        assert rec.counts.counts["hydrodynamics"] > 0

    def test_rebuild_recorded(self):
        h = _blob_hierarchy()
        crit = RefinementCriteria(overdensity_threshold=3.0, max_level=1)
        rebuild_hierarchy(h, 1, crit)
        rec = OperationRecorder()
        ev = HierarchyEvolver(h, PPMSolver(), criteria=crit, stats=rec,
                              cfl=0.3)
        ev.advance_to(0.01)
        assert rec.counts.counts.get("rebuild", 0) > 0

    def test_sustained_rate_positive(self):
        h = _blob_hierarchy()
        rec = OperationRecorder()
        ev = HierarchyEvolver(h, PPMSolver(), stats=rec, cfl=0.3)
        ev.advance_to(0.005)
        assert rec.sustained_rate() > 0
        assert "Mflop/s" in rec.report()

    def test_deeper_levels_add_more_ops(self):
        """Ops scale with cells x steps: a refined run must count more."""
        h1 = _blob_hierarchy()
        r1 = OperationRecorder()
        HierarchyEvolver(h1, PPMSolver(), stats=r1, cfl=0.3).advance_to(0.01)

        h2 = _blob_hierarchy()
        crit = RefinementCriteria(overdensity_threshold=3.0, max_level=1)
        rebuild_hierarchy(h2, 1, crit)
        r2 = OperationRecorder()
        HierarchyEvolver(h2, PPMSolver(), criteria=None, stats=r2,
                         cfl=0.3).advance_to(0.01)
        assert r2.counts.total > r1.counts.total


class TestMultiStats:
    def test_fans_out(self):
        h = _blob_hierarchy()
        rec = OperationRecorder()
        hs = HierarchyStats()
        ev = HierarchyEvolver(h, PPMSolver(), stats=MultiStats(rec, hs), cfl=0.3)
        ev.advance_to(0.01)
        assert rec.steps_recorded > 0
        assert len(hs.times) > 0
