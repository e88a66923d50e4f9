"""Flow-feature refinement criteria: shock detection and vorticity.

Each test builds analytic fields on the full ghosted root array (no
ghost fill), so stencil neighbours are exact continuations and the
expected flag sets can be pinned cell-for-cell.  The chaos entry runs
the Kelvin-Helmholtz workload with an injected NaN and checks the
defense ladder rescues it without losing scalar mass.
"""

import numpy as np

from repro import Simulation, SimulationConfig
from repro.amr import Hierarchy, RefinementCriteria
from repro.runtime.faults import FaultInjector, FaultSpec

N = 16


def make_root(n: int = N):
    """An allocated root grid; fields set analytically including ghosts."""
    return Hierarchy(n_root=n).root


def ghosted_coords(grid):
    """Cell-centre coordinate arrays over the full ghosted extent."""
    ng = grid.nghost
    axes = [
        (np.arange(-ng, int(d) + ng) + 0.5) * grid.dx for d in grid.dims
    ]
    return np.meshgrid(*axes, indexing="ij")


def uniform_state(grid, rho: float = 1.0, internal: float = 1.0):
    grid.fields["density"][:] = rho
    grid.fields["internal"][:] = internal
    grid.fields["energy"][:] = internal


class TestShockCriterion:
    def _planar_shock(self, grid):
        """Pressure jump at x = 0.5 with converging flow across it."""
        x, _, _ = ghosted_coords(grid)
        uniform_state(grid)
        grid.fields["internal"][:] = np.where(x < 0.5, 1.0, 10.0)
        grid.fields["vx"][:] = np.where(x < 0.5, 1.0, -1.0)
        grid.fields["energy"][:] = (
            grid.fields["internal"] + 0.5 * grid.fields["vx"] ** 2
        )

    def test_flags_exactly_the_jump_planes(self):
        grid = make_root()
        self._planar_shock(grid)
        crit = RefinementCriteria(shock_threshold=0.33)
        flags = crit.flag_cells(grid)
        # the centred stencil sees the jump from the two abutting planes
        expected = np.zeros((N, N, N), dtype=bool)
        expected[N // 2 - 1: N // 2 + 1, :, :] = True
        np.testing.assert_array_equal(flags, expected)
        assert crit.last_flag_counts == {"shock": 2 * N * N}

    def test_diverging_jump_not_flagged(self):
        # same pressure jump, but the flow pulls apart: no shock
        grid = make_root()
        self._planar_shock(grid)
        grid.fields["vx"][:] = -grid.fields["vx"]
        flags = RefinementCriteria(shock_threshold=0.33).flag_cells(grid)
        assert not flags.any()

    def test_solid_body_rotation_flags_nothing(self):
        grid = make_root()
        uniform_state(grid)
        x, y, _ = ghosted_coords(grid)
        omega = 1.0
        grid.fields["vx"][:] = -omega * (y - 0.5)
        grid.fields["vy"][:] = omega * (x - 0.5)
        grid.fields["energy"][:] = grid.fields["internal"] + 0.5 * (
            grid.fields["vx"] ** 2 + grid.fields["vy"] ** 2
        )
        crit = RefinementCriteria(shock_threshold=0.33,
                                  vorticity_threshold=0.3)
        flags = crit.flag_cells(grid)
        # no compression and |omega| dx well under 0.3 c_s: nothing flags
        assert not flags.any()
        assert crit.last_flag_counts == {"shock": 0, "vorticity": 0}


class TestVorticityCriterion:
    def test_shear_layer_flags_the_interface(self):
        grid = make_root()
        uniform_state(grid)
        _, y, _ = ghosted_coords(grid)
        grid.fields["vx"][:] = np.where(y < 0.5, 1.0, -1.0)
        grid.fields["energy"][:] = (
            grid.fields["internal"] + 0.5 * grid.fields["vx"] ** 2
        )
        crit = RefinementCriteria(vorticity_threshold=0.3)
        flags = crit.flag_cells(grid)
        expected = np.zeros((N, N, N), dtype=bool)
        expected[:, N // 2 - 1: N // 2 + 1, :] = True
        np.testing.assert_array_equal(flags, expected)
        assert crit.last_flag_counts == {"vorticity": 2 * N * N}

    def test_resolved_shear_converges_away(self):
        # the same tanh shear resolved by more cells stops flagging:
        # |omega| dx halves per refinement while c_s stays fixed
        def count(n):
            grid = make_root(n)
            uniform_state(grid)
            _, y, _ = ghosted_coords(grid)
            grid.fields["vx"][:] = np.tanh((y - 0.5) / 0.25)
            grid.fields["energy"][:] = (
                grid.fields["internal"] + 0.5 * grid.fields["vx"] ** 2
            )
            crit = RefinementCriteria(vorticity_threshold=0.2)
            crit.flag_cells(grid)
            return crit.last_flag_counts["vorticity"]

        assert count(32) == 0
        assert count(8) > 0  # under-resolved at 8^3: dv per cell is large


class TestFlagCellsContract:
    def test_ghost_garbage_never_flags_or_crashes(self):
        """Audit: ghost zones are stencil inputs, never flagged, and
        interior-only criteria are immune to ghost contents entirely."""
        grid = make_root()
        uniform_state(grid)
        grid.fields["density"][grid.interior] = 1.0 + np.arange(
            N**3, dtype=float).reshape(N, N, N) / N**3
        crit = RefinementCriteria(gas_mass_threshold=1.5 * (1.0 / N) ** 3,
                                  overdensity_threshold=1.5)
        clean = crit.flag_cells(grid).copy()
        clean_counts = dict(crit.last_flag_counts)
        # poison every ghost zone
        interior_mask = np.zeros(grid.shape_with_ghosts, dtype=bool)
        interior_mask[grid.interior] = True
        for name in ("density", "internal", "vx", "vy", "vz", "energy"):
            grid.fields[name][~interior_mask] = np.nan
        np.testing.assert_array_equal(crit.flag_cells(grid), clean)
        assert crit.last_flag_counts == clean_counts
        # stencil criteria read the poisoned ghosts: they must neither
        # crash nor flag on NaN comparisons
        stencil = RefinementCriteria(shock_threshold=0.33,
                                     vorticity_threshold=0.3)
        with np.errstate(invalid="ignore"):
            flags = stencil.flag_cells(grid)
        assert flags.shape == (N, N, N)
        assert not flags[1:-1, 1:-1, 1:-1].any()

    def test_max_level_short_circuits(self):
        grid = make_root()
        uniform_state(grid)
        crit = RefinementCriteria(overdensity_threshold=0.1, max_level=0)
        flags = crit.flag_cells(grid)
        assert not flags.any()
        assert crit.last_flag_counts == {}


class TestFlagTelemetry:
    def test_mixed_mass_shock_counts_reach_rebuild_stats(self):
        """Pinned counts for a mass + shock config flow into the rebuild
        stats and the per-step telemetry dict."""
        sim = Simulation(SimulationConfig(
            n_root=8, max_level=1, refine_gas_mass=2.0 * (1.0 / 8) ** 3,
            refine_shock=0.33, cfl=0.3,
        ))
        sim.set_density(lambda x, y, z: np.where(x < 0.5, 1.0, 4.0))
        sim.set_field("internal", lambda x, y, z: np.full_like(x, 2.0))
        sim.set_field("vx", lambda x, y, z: np.where(x < 0.5, 1.0, -1.0))
        sim.initialize()
        flags = sim.hierarchy.last_rebuild_stats["flags"]
        # gas_mass: the dense half = 256 cells; shock: the two planes
        # abutting the converging jump at x = 0.5 (the periodic wrap jump
        # is diverging there, so it must NOT count)
        assert flags == {"gas_mass": 256, "shock": 128}
        sim.evolver.advance_root_step(0.5)
        block = sim.evolver.step_stats["rebuild"].snapshot()
        flagged = {key for key in block if key.startswith("flags.")}
        assert flagged <= {"flags.gas_mass", "flags.shock"}


class TestKelvinHelmholtzChaos:
    def test_nan_injection_is_rescued_with_scalars_intact(self):
        from repro.problems import KelvinHelmholtz

        kh = KelvinHelmholtz(n_root=8, n_scalars=1)
        root = kh.sim.hierarchy.root
        gas0 = float(root.fields["density"][root.interior].sum())
        mass0 = kh.scalar_mass()
        kh.sim.evolver.faults = FaultInjector([
            FaultSpec("nan_cell", level=0, grid_id=root.grid_id, step=0,
                      count=1),
        ], seed=7)
        kh.run(t_end=0.05)
        ladder = kh.sim.evolver.defense
        assert ladder.totals["rungs"].get("retry_half_dt") == 1
        assert ladder.totals["escalations"] == 0
        for g in kh.sim.hierarchy.all_grids():
            for name in ("density", "energy", "scalar00"):
                assert np.all(np.isfinite(g.fields[name]))
        # the in-place retry reuses pre-step ghosts for its second half
        # step, so it drifts mass by a small, bounded amount; scalars must
        # do no worse than gas
        gas_drift = abs(
            float(root.fields["density"][root.interior].sum()) - gas0
        ) / gas0
        scalar_drift = abs(kh.scalar_mass() - mass0) / mass0
        assert scalar_drift < 1e-5
        assert scalar_drift <= 10.0 * max(gas_drift, 1e-12)
