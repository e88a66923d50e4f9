"""Tests for the performance instrumentation layer."""

import time

import numpy as np
import pytest

from repro.perf import (
    ComponentTimers,
    OperationCounts,
    sustained_flop_rate,
    virtual_flop_rate,
)
from repro.perf.flops import unigrid_infeasibility


class TestComponentTimers:
    def test_sections_sum_to_wall(self):
        t = ComponentTimers()
        with t.section("a"):
            time.sleep(0.01)
        with t.section("b"):
            time.sleep(0.02)
        fr = t.fractions()
        assert fr["a"] > 0 and fr["b"] > fr["a"]
        assert abs(sum(fr.values()) - 1.0) < 1e-9

    def test_nested_exclusive(self):
        t = ComponentTimers()
        with t.section("outer"):
            time.sleep(0.01)
            with t.section("inner"):
                time.sleep(0.02)
            time.sleep(0.01)
        # inner time must NOT be charged to outer
        assert t.totals["inner"] == pytest.approx(0.02, abs=0.01)
        assert t.totals["outer"] == pytest.approx(0.02, abs=0.01)

    def test_counts(self):
        t = ComponentTimers()
        for _ in range(3):
            with t.section("x"):
                pass
        assert t.counts["x"] == 3

    def test_report_format(self):
        t = ComponentTimers()
        with t.section("hydrodynamics"):
            time.sleep(0.005)
        rep = t.report()
        assert "hydrodynamics" in rep
        assert "%" in rep

    def test_reset(self):
        t = ComponentTimers()
        with t.section("a"):
            pass
        t.reset()
        assert not t.totals


class TestFlops:
    def test_operation_counts_accumulate(self):
        oc = OperationCounts()
        oc.add_hydro(1000)
        oc.add_gravity(1000)
        oc.add_chemistry(1000, substeps=10)
        oc.add_particles(500)
        assert oc.total > 0
        fr = oc.fractions()
        assert abs(sum(fr.values()) - 1.0) < 1e-12
        assert fr["chemistry"] > fr["poisson"]  # 10 substeps dominate

    def test_sustained_rate(self):
        assert sustained_flop_rate(1e12, 100.0) == pytest.approx(1e10)

    def test_virtual_flop_rate_matches_paper(self):
        """Paper: 1e12^3 cells x 1e10 steps ~ 1e50 ops in 1e6 s -> ~1e44."""
        rate = virtual_flop_rate(sdr=1e12, n_steps=1e10, wall_seconds=1e6)
        assert 1e43 < rate < 1e45

    def test_unigrid_infeasibility_matches_paper(self):
        """Paper: a 1e12^3 unigrid wouldn't fit in memory 'until about 2200'
        under Moore's law — i.e. roughly two centuries from 2001."""
        years = unigrid_infeasibility(sdr=1e12)
        assert 100 < years < 350

    def test_unigrid_feasible_small(self):
        assert unigrid_infeasibility(sdr=100.0) == 0.0
