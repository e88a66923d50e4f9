"""Integration tests: rebuild, hierarchy gravity, and the EvolveLevel W-cycle."""

import numpy as np
import pytest

from repro.amr import Grid, Hierarchy, HierarchyEvolver, RefinementCriteria
from repro.amr.boundary import set_boundary_values
from repro.amr.gravity import HierarchyGravity
from repro.amr.rebuild import rebuild_hierarchy
from repro.hydro import PPMSolver, ZeusSolver
from repro.nbody.particles import ParticleSet
from repro.precision import DDArray
from repro.runtime.telemetry import step_record


def _blob_hierarchy(n_root=8, amplitude=10.0):
    h = Hierarchy(n_root=n_root)
    root = h.root
    centres = [(np.arange(n_root) + 0.5) / n_root] * 3
    x, y, z = np.meshgrid(*centres, indexing="ij")
    r2 = (x - 0.5) ** 2 + (y - 0.5) ** 2 + (z - 0.5) ** 2
    root.fields["density"][root.interior] = 1.0 + amplitude * np.exp(-r2 / 0.01)
    set_boundary_values(h, 0)
    return h


class TestRebuild:
    def test_creates_nested_grids(self):
        h = _blob_hierarchy()
        crit = RefinementCriteria(overdensity_threshold=3.0, max_level=2)
        rebuild_hierarchy(h, 1, crit)
        assert h.max_level >= 1
        assert h.validate_nesting()

    def test_refined_region_covers_blob(self):
        h = _blob_hierarchy()
        crit = RefinementCriteria(overdensity_threshold=3.0, max_level=1)
        rebuild_hierarchy(h, 1, crit)
        centre_grid = h.finest_grid_at([0.5, 0.5, 0.5])
        assert centre_grid.level == 1

    def test_data_copied_from_parent(self):
        h = _blob_hierarchy()
        crit = RefinementCriteria(overdensity_threshold=3.0, max_level=1)
        rebuild_hierarchy(h, 1, crit)
        g = h.finest_grid_at([0.5, 0.5, 0.5])
        # fine centre value should be near the coarse peak (~4.1 when the
        # blob straddles the 8^3 cell corners)
        assert g.field_view("density").max() > 3.5

    def test_rebuild_preserves_old_fine_data(self):
        h = _blob_hierarchy()
        crit = RefinementCriteria(overdensity_threshold=3.0, max_level=1)
        rebuild_hierarchy(h, 1, crit)
        g = h.finest_grid_at([0.5, 0.5, 0.5])
        marker = 123.456
        g.fields["density"][g.interior] = marker
        # perturb the root so the flagged set changes: the rebuild must then
        # re-cluster (no reuse) and copy the old fine data forward
        ri = h.root.interior
        h.root.fields["density"][ri][0, 0, 0] = 50.0
        set_boundary_values(h, 0)
        rebuild_hierarchy(h, 1, crit)
        g2 = h.finest_grid_at([0.5, 0.5, 0.5])
        assert g2 is not g  # new object ("old grids are then deleted")
        assert np.any(g2.field_view("density") == marker)

    def test_rebuild_unchanged_flags_reuses_grids(self):
        h = _blob_hierarchy()
        crit = RefinementCriteria(overdensity_threshold=3.0, max_level=1)
        rebuild_hierarchy(h, 1, crit)
        g = h.finest_grid_at([0.5, 0.5, 0.5])
        marker = 123.456
        g.fields["density"][g.interior] = marker
        rebuild_hierarchy(h, 1, crit)
        g2 = h.finest_grid_at([0.5, 0.5, 0.5])
        assert g2 is g  # unchanged flags: incremental rebuild keeps the grid
        assert np.any(g2.field_view("density") == marker)
        assert h.last_rebuild_stats["reused"] > 0
        assert h.last_rebuild_stats["created"] == 0

    def test_derefinement(self):
        h = _blob_hierarchy()
        crit = RefinementCriteria(overdensity_threshold=3.0, max_level=1)
        rebuild_hierarchy(h, 1, crit)
        assert h.max_level == 1
        # flatten the density: flags disappear, grids must go away
        h.root.fields["density"][:] = 1.0
        rebuild_hierarchy(h, 1, crit)
        assert h.max_level == 0

    def test_mass_conserved_through_rebuild(self):
        h = _blob_hierarchy()
        crit = RefinementCriteria(overdensity_threshold=3.0, max_level=1)
        m0 = h.root.field_view("density").sum() * h.root.dx**3
        rebuild_hierarchy(h, 1, crit)
        # composite mass (uncovered root + children)
        covered = h.covering_mask(h.root)
        m1 = (h.root.field_view("density") * ~covered).sum() * h.root.dx**3
        for g in h.level_grids(1):
            m1 += g.field_view("density").sum() * g.dx**3
        assert np.isclose(m0, m1, rtol=1e-12)

    def test_max_dims_split(self):
        h = _blob_hierarchy(n_root=16, amplitude=10.0)
        # broad blob -> big flagged region; max_dims forces multiple grids
        h.root.fields["density"][h.root.interior] = 10.0
        crit = RefinementCriteria(overdensity_threshold=3.0, max_level=1,
                                  max_dims=8)
        rebuild_hierarchy(h, 1, crit)
        assert all(np.all(g.dims <= 16) for g in h.level_grids(1))
        assert len(h.level_grids(1)) > 1

    @staticmethod
    def _sphere():
        from repro.problems import SphereCollapse

        return SphereCollapse(n_root=16, max_level=3, overdensity=25.0,
                              max_dims=8)

    def test_in_run_rebuilds_obey_max_dims(self):
        """The problem's ``max_dims`` caps the grids of every rebuild, not
        only the initial one: a box may span at most ``max_dims`` parent
        cells, i.e. ``2 * max_dims`` cells of its own level."""
        sphere = self._sphere()
        sphere.run(max_root_steps=2)
        h = sphere.hierarchy
        assert h.max_level >= 2
        for level in range(1, h.max_level + 1):
            for g in h.level_grids(level):
                assert np.all(g.dims <= 2 * 8), (level, g.dims)

    def test_in_run_rebuild_reuses_the_initial_grids(self):
        """The initial rebuild and an in-run rebuild (the criteria alone,
        as the evolver passes them) read one regrid policy, so their flag
        signatures agree: rebuilding with unchanged flags keeps every
        grid."""
        sphere = self._sphere()
        h = sphere.hierarchy
        before = h.fingerprint()
        n_sub = h.n_grids - 1
        assert n_sub > 1
        rebuild_hierarchy(h, 1, sphere.criteria)
        stats = h.last_rebuild_stats
        assert (stats["created"], stats["destroyed"]) == (0, 0)
        assert stats["reused"] == n_sub
        assert h.fingerprint() == before

    def test_root_rebuild_rejected(self):
        h = _blob_hierarchy()
        with pytest.raises(ValueError):
            rebuild_hierarchy(h, 0, RefinementCriteria())


class TestHierarchyGravity:
    def test_root_potential_tracks_overdensity(self):
        h = _blob_hierarchy()
        grav = HierarchyGravity(g_code=1.0)
        grav.solve_level(h, 0)
        phi = h.root.phi[h.root.interior]
        rho = h.root.field_view("density")
        # the potential minimum coincides with the density peak
        assert np.argmin(phi) == np.argmax(rho)

    def test_subgrid_potential_matches_root(self):
        """The multigrid subgrid solve must agree with the root FFT solution
        in the refined region (same source, boundary from the root)."""
        h = _blob_hierarchy(n_root=16)
        grav = HierarchyGravity(g_code=1.0, mean_density=float(
            h.root.field_view("density").mean()))
        grav.solve_level(h, 0)
        crit = RefinementCriteria(overdensity_threshold=2.0, max_level=1)
        rebuild_hierarchy(h, 1, crit)
        assert h.max_level == 1
        grav.solve_level(h, 1)
        g = h.finest_grid_at([0.5, 0.5, 0.5])
        # compare child phi (block-averaged) against root phi in the region
        from repro.amr.projection import block_average

        child_phi = block_average(g.phi[g.interior], 2)
        lo, hi = g.parent_index_region()
        ng = h.root.nghost
        root_phi = h.root.phi[
            ng + lo[0] : ng + hi[0], ng + lo[1] : ng + hi[1], ng + lo[2] : ng + hi[2]
        ]
        scale = np.abs(h.root.phi[h.root.interior]).max()
        assert np.abs(child_phi - root_phi).max() < 0.12 * scale

    def test_acceleration_points_inward(self):
        h = _blob_hierarchy()
        grav = HierarchyGravity(g_code=1.0)
        grav.solve_level(h, 0)
        (acc,), _ = grav.accelerations([h.root])
        ng = h.root.nghost
        # on the +x side of the blob, g_x must be negative (pull back in)
        assert acc[0][ng + 6, ng + 4, ng + 4] < 0
        assert acc[0][ng + 2, ng + 4, ng + 4] > 0

    def test_particle_deposit_included(self):
        h = Hierarchy(n_root=8)
        h.particles = ParticleSet(
            DDArray(np.array([[0.5, 0.5, 0.5]])), np.zeros((1, 3)), np.array([5.0])
        )
        grav = HierarchyGravity(g_code=1.0, mean_density=5.0 + 1.0)
        rho = grav.total_density(h, h.root)
        assert rho.max() > h.root.field_view("density").max()


class TestEvolveLevel:
    def test_wcycle_subgrid_steps(self):
        """Subgrids take more, smaller steps and end at the parent time."""
        h = _blob_hierarchy()
        crit = RefinementCriteria(overdensity_threshold=3.0, max_level=1)
        rebuild_hierarchy(h, 1, crit)
        ev = HierarchyEvolver(h, PPMSolver(), criteria=None, cfl=0.3)
        ev.advance_to(0.02)
        assert float(h.root.time) == pytest.approx(0.02)
        for g in h.level_grids(1):
            assert float(g.time) == pytest.approx(0.02)
        # W-cycle: level 1 took at least as many steps as level 0
        assert ev.step_counter[1] >= ev.step_counter[0]

    def test_composite_mass_conserved(self):
        h = _blob_hierarchy()
        crit = RefinementCriteria(overdensity_threshold=3.0, max_level=1)
        rebuild_hierarchy(h, 1, crit)

        def composite_mass():
            covered = h.covering_mask(h.root)
            m = (h.root.field_view("density") * ~covered).sum() * h.root.dx**3
            for g in h.level_grids(1):
                m += g.field_view("density").sum() * g.dx**3
            return m

        m0 = composite_mass()
        ev = HierarchyEvolver(h, PPMSolver(), criteria=None, cfl=0.3)
        ev.advance_to(0.02)
        m1 = composite_mass()
        assert abs(m1 - m0) < 1e-8 * m0

    def test_amr_matches_unigrid_on_smooth_flow(self):
        """A refined patch over smooth flow must not distort the solution:
        compare the AMR composite against a pure unigrid run."""
        def make(n_root):
            h = Hierarchy(n_root=n_root)
            root = h.root
            c = [(np.arange(n_root) + 0.5) / n_root] * 3
            x, y, z = np.meshgrid(*c, indexing="ij")
            root.fields["density"][root.interior] = 1.0 + 0.2 * np.sin(2 * np.pi * x)
            root.fields["vx"][root.interior] = 0.5
            root.fields["energy"][root.interior] = (
                root.fields["internal"][root.interior]
                + 0.5 * root.fields["vx"][root.interior] ** 2
            )
            set_boundary_values(h, 0)
            return h

        t_end = 0.05
        h_uni = make(8)
        ev_uni = HierarchyEvolver(h_uni, PPMSolver(), cfl=0.3)
        ev_uni.advance_to(t_end)

        h_amr = make(8)
        child = Grid(1, (4, 4, 4), (8, 8, 8), n_root=8)
        h_amr.add_grid(child, h_amr.root)
        from repro.amr.rebuild import _fill_level

        _fill_level([(child, h_amr.root, False)], [])
        ev_amr = HierarchyEvolver(h_amr, PPMSolver(), cfl=0.3)
        ev_amr.advance_to(t_end)

        rho_uni = h_uni.root.field_view("density")
        rho_amr = h_amr.root.field_view("density")  # projection folded child in
        assert np.abs(rho_amr - rho_uni).max() < 0.02

    def test_dynamic_refinement_follows_feature(self):
        h = _blob_hierarchy(amplitude=20.0)
        crit = RefinementCriteria(overdensity_threshold=3.0, max_level=2)
        rebuild_hierarchy(h, 1, crit)
        ev = HierarchyEvolver(h, PPMSolver(), criteria=crit, cfl=0.3)
        records = []
        while (dt := ev.advance_root_step(0.01)) is not None:
            records.append(step_record(ev, len(records) + 1, dt))
        assert h.max_level >= 1
        assert records
        levels = records[-1]["levels"]
        assert [lv["grids"] for lv in levels] == h.grids_per_level()
        assert levels[-1]["level"] == h.max_level

    def test_zeus_solver_also_runs(self):
        h = _blob_hierarchy()
        crit = RefinementCriteria(overdensity_threshold=3.0, max_level=1)
        rebuild_hierarchy(h, 1, crit)
        ev = HierarchyEvolver(h, ZeusSolver(), criteria=None, cfl=0.2)
        ev.advance_to(0.005)
        for g in h.all_grids():
            assert np.all(np.isfinite(g.field_view("density")))
            assert np.all(g.field_view("density") > 0)

    def test_timers_populate(self):
        h = _blob_hierarchy()
        grav = HierarchyGravity(g_code=0.1, mean_density=float(
            h.root.field_view("density").mean()))
        ev = HierarchyEvolver(h, PPMSolver(), gravity=grav, cfl=0.3)
        assert h.timers is ev.timers  # "topology" lands in the same table
        ev.advance_to(0.005)
        fr = ev.timers.fractions()
        assert fr.get("hydro", 0) > 0
        assert fr.get("gravity", 0) > 0
        assert abs(sum(fr.values()) - 1.0) < 1e-6
        # unigrid: the root level is one FFT per step, no subgrid solves
        assert not ev.step_stats["gravity"]

    def test_every_step_phase_is_booked(self, monkeypatch):
        """The level's CFL call and the pre-step snapshot run in "hydro",
        the defense's read of the step's health rows in "defense" and the
        boundary-flux accumulation in "flux_correction": none of them is
        "other overhead".  No grid is re-validated in NumPy."""
        from repro.amr import evolve
        from repro.amr.defense import DefenseLadder
        from repro.kernels import dispatch

        h = _blob_hierarchy()
        rebuild_hierarchy(h, 1, RefinementCriteria(
            overdensity_threshold=3.0, max_level=1))
        ev = HierarchyEvolver(h, PPMSolver(), cfl=0.3)
        booked = {}

        def spy(name, fn):
            def wrapped(*args, **kwargs):
                stack = ev.timers._stack
                booked.setdefault(name, set()).add(
                    stack[-1][0] if stack else None)
                return fn(*args, **kwargs)
            return wrapped

        cfl = (dispatch.active_backend(), "hydro.cfl")
        monkeypatch.setitem(dispatch._impls, cfl,
                            spy("hydro.cfl", dispatch._impls[cfl]))
        monkeypatch.setattr(Grid, "save_old_state", spy(
            "save_old_state", Grid.save_old_state))
        monkeypatch.setattr(DefenseLadder, "hydro_problems", spy(
            "hydro_problems", DefenseLadder.hydro_problems))
        monkeypatch.setattr(DefenseLadder, "validate_grid", spy(
            "validate_grid", DefenseLadder.validate_grid))
        monkeypatch.setattr(evolve, "accumulate_boundary_fluxes", spy(
            "accumulate", evolve.accumulate_boundary_fluxes))
        ev.advance_root_step(0.005)
        assert booked == {"hydro.cfl": {"hydro"},
                          "save_old_state": {"hydro"},
                          "hydro_problems": {"defense"},
                          "accumulate": {"flux_correction"}}

    def test_subgrid_solve_counts_reach_the_step_record(self):
        h = _blob_hierarchy(amplitude=20.0)
        crit = RefinementCriteria(overdensity_threshold=3.0, max_level=1)
        rebuild_hierarchy(h, 1, crit)
        grav = HierarchyGravity(g_code=0.1, mean_density=float(
            h.root.field_view("density").mean()))
        ev = HierarchyEvolver(h, PPMSolver(), gravity=grav, cfl=0.3)
        dt = ev.advance_root_step(0.005)
        stats = step_record(ev, 1, dt)["gravity"]
        assert set(stats) == {"passes.L1", "solves.L1", "vcycles.L1"}
        # every pass solves every level-1 grid once; a solve is >= 1 V-cycle
        assert stats["solves.L1"] >= stats["passes.L1"] >= 1
        assert stats["vcycles.L1"] >= stats["solves.L1"]

    def test_particles_advance_with_hierarchy(self):
        h = _blob_hierarchy()
        h.particles = ParticleSet(
            DDArray(np.array([[0.3, 0.5, 0.5]])),
            np.array([[0.5, 0.0, 0.0]]),
            np.array([1e-30]),  # massless tracer
        )
        grav = HierarchyGravity(g_code=1e-30, mean_density=1.0)
        ev = HierarchyEvolver(h, PPMSolver(), gravity=grav, cfl=0.3)
        ev.advance_to(0.02)
        # tracer drifted by ~v*t
        assert abs(h.particles.positions.hi[0, 0] - 0.31) < 2e-3

    def test_gravity_collapse_increases_density(self):
        """Self-gravity on: a cold overdense blob contracts (density grows)."""
        h = _blob_hierarchy(amplitude=5.0)
        h.root.fields["internal"][:] = 0.01  # cold: gravity beats pressure
        h.root.fields["energy"][:] = 0.01
        mean = float(h.root.field_view("density").mean())
        grav = HierarchyGravity(g_code=2.0, mean_density=mean)
        rho_max0 = h.root.field_view("density").max()
        ev = HierarchyEvolver(h, PPMSolver(), gravity=grav, cfl=0.3)
        ev.advance_to(0.15)
        assert h.root.field_view("density").max() > 1.05 * rho_max0
