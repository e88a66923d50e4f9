"""Deep-hierarchy stress tests: the paper's headline claims at the
data-structure level.

"Our parallel implementation places no limit on the depth or complexity of
the adaptive grid hierarchy" — and the hero run used 34 levels for a
spatial dynamic range of 1e12.  Full physics at that depth needs the
hero run's CPU-months, but the *hierarchy machinery* (geometry, nesting,
boundary interpolation, EPA positions and times) must work at any depth —
that is what these tests drive, to level 40 (SDR ~ 8.8e12, beyond the
paper's 1e12).
"""

import numpy as np
import pytest

from repro.amr import Grid, Hierarchy
from repro.amr.boundary import fill_ghosts, set_boundary_values
from repro.amr.evolve import HierarchyEvolver
from repro.amr.topology import LevelTopology, box_overlaps
from repro.hydro import PPMSolver
from repro.precision.doubledouble import DoubleDouble


def build_deep_tower(n_levels: int, n_root: int = 8, dims: int = 8):
    """A tower of nested grids, each centred in its parent."""
    h = Hierarchy(n_root=n_root)
    parent = h.root
    # centre of the box in level-l integer coordinates; keep each child
    # centred: child of size `dims` starts at parent_centre*2 - dims/2
    start = np.array([n_root // 2] * 3, dtype=np.int64)
    for level in range(1, n_levels + 1):
        start = start * 2 - dims // 2
        g = Grid(level, start, (dims,) * 3, n_root)
        h.add_grid(g, parent)
        parent = g
        start = start + dims // 2  # centre index at this level
    return h


class TestDeepTower:
    @pytest.fixture(scope="class")
    def tower(self):
        return build_deep_tower(40)

    def test_sdr_exceeds_paper(self, tower):
        """SDR = 8 * 2^40 ~ 8.8e12 > the paper's 1e12."""
        assert tower.max_level == 40
        assert tower.spatial_dynamic_range() > 1e12

    def test_nesting_valid_at_depth(self, tower):
        assert tower.validate_nesting()

    def test_geometry_exact_at_depth(self, tower):
        """Integer index geometry stays exact: edges are exact dyadics and
        parent/child edges coincide bit-for-bit."""
        g = tower.level_grids(40)[0]
        p = g.parent
        # child occupies the central half of its parent exactly
        lo, hi = g.parent_index_region()
        assert np.all(hi - lo == 4)
        # dyadic edge exactness: edge * 2^43 is an exact integer
        scale = float(2 ** 43)
        for e in g.left_edge:
            assert e * scale == round(e * scale)

    def test_cell_width_below_float64_epsilon_of_box(self, tower):
        g = tower.level_grids(40)[0]
        # dx ~ 1.1e-13: smaller than eps(1.0)*box ~ 2.2e-16? No — but the
        # *offset between adjacent deep grids* at non-dyadic positions is
        # what float64 loses; dx itself is representable:
        assert g.dx == 2.0 ** -43
        # the paper's criterion: dx/x ~ 1e-13 at x~1 needs >float64 headroom
        assert g.dx / 1.0 < 1e-12

    def test_time_accumulation_needs_epa(self, tower):
        """At level 40 the per-step dt/t ratio is ~1e-13: adding steps in
        float64 stagnates, the DoubleDouble time does not."""
        t_dd = DoubleDouble(1.0)
        t_f64 = 1.0
        dt = 2.0 ** -45 * 1.1  # a level-40-ish timestep, non-dyadic
        for _ in range(100):
            t_dd = DoubleDouble(t_dd + dt)
            t_f64 = t_f64 + dt
        exact = 1.0 + 100 * dt
        err_dd = abs(float(t_dd - DoubleDouble(exact)))
        # f64 accumulates representation error of order eps per step; dd
        # must be orders of magnitude better
        err_f64 = abs(t_f64 - exact)
        assert err_dd <= err_f64
        assert err_dd < 1e-25

    def test_boundary_interpolation_at_depth(self, tower):
        """Parent->child ghost filling must work at level 40."""
        g = tower.level_grids(40)[0]
        p = g.parent
        p.fields["density"][:] = 3.14
        g.fields["density"][g.interior] = 42.0
        fill_ghosts(LevelTopology([g], g.nghost, [p]))
        assert np.all(g.fields["density"][g.interior] == 42.0)
        np.testing.assert_allclose(g.fields["density"][0, :, :], 3.14)

    def test_memory_stays_linear(self, tower):
        """41 levels of 8^3 grids: memory is linear in depth, not SDR^3
        (the whole point of AMR; a unigrid would need (8*2^40)^3 cells)."""
        total = tower.total_memory_bytes()
        assert total < 200e6  # a few MB per grid x 41

    def test_evolve_one_step_at_depth(self):
        """The W-cycle itself functions on a (shallower) tower: run a tiny
        dt through 12 levels and confirm every level synchronises."""
        h = build_deep_tower(12)
        for g in h.all_grids():
            g.fields["density"][:] = 1.0
            g.fields["internal"][:] = 1.0
            g.fields["energy"][:] = 1.0
        set_boundary_values(h, 0)
        ev = HierarchyEvolver(h, PPMSolver(), cfl=0.4)
        # one shallow root step; max_steps guard in EvolveLevel keeps the
        # recursion finite because dt_child ~ dt_root at uniform data
        ev.advance_to(1e-4)
        times = [float(g.time) for g in h.all_grids()]
        assert np.allclose(times, 1e-4)


class TestGridsAtArbitraryDepth:
    def test_grid_beyond_level_100(self):
        """Nothing structural caps the depth (paper: 'no limit')."""
        g = Grid(100, (0, 0, 0), (4, 4, 4), n_root=8)
        assert g.dx == 2.0 ** -103
        assert g.cells_per_dim_at_level == 8 * 2 ** 100

    def test_index_arithmetic_at_depth_64(self):
        """Integer indices use int64; depth ~50 at n_root 8 is the int64
        frontier — verify the overlap math is still exact there."""
        lvl = 50
        start = np.int64(2) ** 52  # within int64
        a = Grid(lvl, (start, 0, 0), (8, 8, 8), n_root=8)
        b = Grid(lvl, (start + 4, 0, 0), (8, 8, 8), n_root=8)
        _, _, lo, hi = box_overlaps(
            a.start_index[None], a.end_index[None], np.array([0]),
            b.start_index[None], b.end_index[None], np.array([1]))
        assert hi[0, 0] - lo[0, 0] == 4
