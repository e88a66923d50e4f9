"""Tests for the problem setups (validation + the paper's workload)."""

import numpy as np
import pytest

from repro.problems import PrimordialCollapse, SodShockTube, SphereCollapse, ZeldovichPancake


class TestSodProblem:
    def test_runs_and_converges(self):
        sod = SodShockTube(n=64)
        prof = sod.run(0.2)
        assert sod.l1_error() < 0.03
        assert "density_exact" in prof

    def test_zeus_cross_check(self):
        """The paper's double-check: both solvers agree on the tube."""
        from repro.hydro import ZeusSolver

        a = SodShockTube(n=64)
        a.run(0.2)
        b = SodShockTube(n=64)
        b.run(0.2, solver=ZeusSolver(gamma=1.4))
        d = np.abs(a.profiles()["density"] - b.profiles()["density"])
        assert d.mean() < 0.03

    def test_custom_states(self):
        sod = SodShockTube(n=32, left=(1.0, 0.0, 2.0), right=(0.5, 0.0, 0.5))
        sod.run(0.1)
        assert np.all(sod.profiles()["density"] > 0)


class TestZeldovichProblem:
    @pytest.fixture(scope="class")
    def result(self):
        zp = ZeldovichPancake(n=16, z_init=30.0, z_caustic=5.0)
        return zp.run(z_end=15.0)

    def test_density_matches_exact(self, result):
        err = np.abs(result["density"] - result["density_exact"]) / result["density_exact"]
        assert err.max() < 0.05

    def test_velocity_matches_exact(self, result):
        scale = np.abs(result["velocity_exact"]).max()
        err = np.abs(result["velocity"] - result["velocity_exact"]).max()
        assert err < 0.1 * scale

    def test_growth_amplifies_contrast(self, result):
        # z 30 -> 15: contrast must have grown relative to the initial one
        zp = ZeldovichPancake(n=16, z_init=30.0, z_caustic=5.0)
        rho0 = zp.exact_density(np.linspace(0, 1, 16), zp.a_init)
        assert result["density"].max() > rho0.max()


class TestSphereCollapse:
    @pytest.fixture(scope="class")
    def collapsed(self):
        sc = SphereCollapse(n_root=8, max_level=2, overdensity=20.0)
        out = sc.run(max_root_steps=25)
        return sc, out

    def test_density_grows(self, collapsed):
        sc, out = collapsed
        assert out["peak_density"] > 30.0

    def test_hierarchy_deepens(self, collapsed):
        sc, out = collapsed
        assert out["max_level"] >= 1
        assert out["sdr"] >= 16.0

    def test_stats_recorded(self, collapsed):
        """The sphere is timed like every other problem, and its step
        record carries the Fig. 5 hierarchy statistics."""
        from repro.runtime.telemetry import step_record

        sc, _ = collapsed
        assert sc.evolver.stats is None  # problems build no recorder
        assert sc.evolver.timers.counts["hydro"] > 0
        assert sc.evolver.timers.counts["gravity"] > 0
        record = step_record(sc.evolver, 1, 0.0)
        assert [lv["grids"] for lv in record["levels"]] == \
            sc.hierarchy.grids_per_level()
        assert {"hydro", "gravity", "boundary"} <= set(record["timers"])

    def test_solution_finite_positive(self, collapsed):
        sc, _ = collapsed
        for g in sc.hierarchy.all_grids():
            rho = g.field_view("density")
            assert np.all(np.isfinite(rho)) and np.all(rho > 0)

    def test_nesting_maintained(self, collapsed):
        sc, _ = collapsed
        assert sc.hierarchy.validate_nesting()

    def test_envelope_slope_isothermal(self, collapsed):
        """The collapse envelope steepens toward the rho ~ r^-2 profile the
        paper marks in Fig. 4A (Larson-Penston / singular isothermal
        sphere).  At this resolution we check the slope is in the right
        band rather than exactly -2."""
        from repro.analysis import radial_profiles

        sc, _ = collapsed
        prof = radial_profiles(sc.hierarchy, nbins=12, rmax=0.3)
        r, rho = prof["radius"], prof["density"]
        ok = np.isfinite(rho) & (rho > 2.0)
        if ok.sum() >= 4:
            slope = np.polyfit(np.log(r[ok]), np.log(rho[ok]), 1)[0]
            assert -3.5 < slope < -0.7, f"envelope slope {slope}"


class TestPrimordialCollapse:
    @pytest.fixture(scope="class")
    def run(self):
        pc = PrimordialCollapse(
            n_root=8, max_level=2, amplitude_boost=4.0, seed=7,
            with_chemistry=True, with_dark_matter=True,
        )
        pc.initial_rebuild()
        return pc

    def test_setup_species_sum(self, run):
        from repro.chemistry.species import SPECIES_NAMES

        root = run.hierarchy.root
        total = sum(root.field_view(s) for s in SPECIES_NAMES if s != "de")
        np.testing.assert_allclose(total, root.field_view("density"), rtol=1e-6)

    def test_setup_particles(self, run):
        assert len(run.hierarchy.particles) == 8**3
        cdm = run.params.omega_cdm / run.params.omega_matter
        assert np.isclose(run.hierarchy.particles.total_mass, cdm, rtol=1e-10)

    def test_short_evolution(self, run):
        z0 = run.current_redshift
        out = run.run_to_redshift(z0 - 6.0, max_root_steps=30)
        assert out["redshift"] < z0
        for g in run.hierarchy.all_grids():
            assert np.all(np.isfinite(g.field_view("density")))
            assert np.all(g.field_view("internal") > 0)

    def test_snapshot_profiles(self, run):
        snap = run.snapshot("test")
        prof = snap["profiles"]
        assert "number_density" in prof
        assert "f_H2" in prof
        assert np.nanmax(prof["number_density"]) > 0

    def test_static_nested_ic(self):
        pc = PrimordialCollapse(
            n_root=8, max_level=3, static_levels=1, amplitude_boost=4.0,
            with_chemistry=False, with_dark_matter=True, seed=3,
        )
        assert pc.hierarchy.max_level >= 1
        assert pc.hierarchy.validate_nesting()
        # refined-region particles are lighter
        m = pc.hierarchy.particles.masses
        assert m.max() / m.min() == pytest.approx(8.0, rel=1e-6)

    def test_controlled_run_records_timers(self, tmp_path):
        """A bare PrimordialCollapse is timed like a registry launch: every
        step record carries the component table, checkpoint I/O included."""
        from repro.runtime.telemetry import read_events, telemetry_path

        pc = PrimordialCollapse(
            n_root=8, max_level=1, with_chemistry=True,
            with_dark_matter=False, amplitude_boost=4.0,
        )
        pc.initial_rebuild()
        run_dir = str(tmp_path / "run")
        pc.make_controller(run_dir).run(pc.code_time_of_redshift(20.0),
                                        max_root_steps=2)
        steps = [e for e in read_events(telemetry_path(run_dir))
                 if e["event"] == "step"]
        assert len(steps) == 2
        for e in steps:
            assert {"io", "hydro", "chemistry", "gravity"} <= set(e["timers"])

    def test_chemistry_off_runs(self):
        pc = PrimordialCollapse(
            n_root=8, max_level=1, with_chemistry=False,
            with_dark_matter=False, amplitude_boost=4.0,
        )
        pc.initial_rebuild()
        out = pc.run_to_redshift(95.0, max_root_steps=10)
        assert out["redshift"] <= 100.0
