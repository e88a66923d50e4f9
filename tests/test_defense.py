"""Chaos matrix for the grid-scoped defense ladder (repro.amr.defense)
and the deterministic fault-injection framework (repro.runtime.faults).

One deterministic fault scenario per ladder rung, plus the contract that
matters most: with no faults and no escalations, a defended run is
bitwise identical to an undefended one on every exec backend.
"""

import numpy as np
import pytest

from repro import Simulation, SimulationConfig
from repro.amr.defense import DefenseLadder, validate_fields
from repro.amr.gravity import MG_BUDGET, MG_TOL
from repro.chemistry.network import integrator_stats
from repro.gravity.multigrid import MultigridConvergenceError
from repro.nbody.particles import ParticleSet
from repro.runtime.faults import (
    FaultInjector,
    FaultSpec,
    InjectedFaultError,
    parse_spec,
)
from repro.runtime.recovery import StateCorruptionError
from repro.runtime.telemetry import read_events, summarise, telemetry_path

T_END = 0.8  # far enough that a handful of root steps never reaches it


def build_sim(defense: bool = True, backend: str | None = None,
              workers: int | None = None) -> Simulation:
    """The test_runtime harness: gravity + refinement + particles."""
    sim = Simulation(SimulationConfig(
        n_root=8, self_gravity=True, max_level=1, refine_overdensity=3.0,
        g_code=2.0, cfl=0.3, defense=defense, exec_backend=backend,
        workers=workers,
    ))
    sim.set_density(lambda x, y, z: 1 + 10 * np.exp(
        -((x - .5) ** 2 + (y - .5) ** 2 + (z - .5) ** 2) / 0.01))
    sim.set_field("internal", lambda x, y, z: np.full_like(x, 0.05))
    rng = np.random.default_rng(3)
    sim.hierarchy.particles = ParticleSet.from_arrays(
        rng.random((20, 3)), 0.01 * rng.standard_normal((20, 3)),
        np.full(20, 1e-3))
    sim.initialize()
    return sim


def advance(sim: Simulation, steps: int) -> None:
    for _ in range(steps):
        sim.evolver.advance_root_step(T_END)


def assert_hierarchies_identical(ha, hb):
    assert ha.grids_per_level() == hb.grids_per_level()
    for ga, gb in zip(ha.all_grids(), hb.all_grids()):
        assert float(ga.time.hi) == float(gb.time.hi)
        assert float(ga.time.lo) == float(gb.time.lo)
        for name, arr in ga.fields.array_items():
            np.testing.assert_array_equal(arr, gb.fields[name], err_msg=name)
        np.testing.assert_array_equal(ga.phi, gb.phi)
    np.testing.assert_array_equal(
        ha.particles.positions.hi, hb.particles.positions.hi)
    np.testing.assert_array_equal(
        ha.particles.velocities, hb.particles.velocities)


# ---------------------------------------------------------------- fault specs
class TestFaultSpecs:
    def test_parse_round_trip(self):
        specs = parse_spec(
            "nan_cell:level=1,grid=3,step=2,count=4; mg_diverge:level=1")
        assert len(specs) == 2
        s = specs[0]
        assert (s.kind, s.level, s.grid_id, s.step, s.count) == \
            ("nan_cell", 1, 3, 2, 4)
        assert specs[1].kind == "mg_diverge"
        assert specs[1].grid_id is None

    def test_parse_rejects_unknown_kind_and_key(self):
        with pytest.raises(ValueError):
            parse_spec("frobnicate:level=0")
        with pytest.raises(ValueError):
            parse_spec("nan_cell:bogus=1")
        with pytest.raises(ValueError):
            FaultSpec("nan_cell", count=0)

    def test_take_respects_site_filter_and_budget(self):
        inj = FaultInjector([FaultSpec("mg_diverge", level=1, count=2)])
        assert inj.take("mg_diverge", level=0, grid_id=7) is None
        assert inj.take("mg_diverge", level=1, grid_id=7) is not None
        assert inj.take("mg_diverge", level=1, grid_id=8) is not None
        assert inj.take("mg_diverge", level=1, grid_id=9) is None  # spent
        assert len(inj.fired) == 2

    def test_step_context_matching(self):
        inj = FaultInjector([FaultSpec("nan_cell", level=0, step=3)])
        inj.set_step(0, 2)
        assert inj.take("nan_cell", level=0, grid_id=0) is None
        inj.set_step(0, 3)
        assert inj.take("nan_cell", level=0, grid_id=0) is not None

    def test_nan_plan_is_seed_deterministic(self):
        def plan(seed):
            inj = FaultInjector([FaultSpec("nan_cell")], seed=seed)
            return inj.plan_nan_cell(1, 4, (8, 8, 8), 3)

        a, b = plan(42), plan(42)
        assert a == b  # same seed, same site, same firing -> same cell
        assert a["field"] == "density"
        assert all(3 <= i < 11 for i in a["index"])  # interior, ghost offset

    def test_maybe_raise(self):
        inj = FaultInjector([FaultSpec("chem_blowup")])
        with pytest.raises(InjectedFaultError):
            inj.maybe_raise("chem_blowup", 0, 0)
        inj.maybe_raise("chem_blowup", 0, 0)  # budget spent: no raise


# ----------------------------------------------------------------- validation
class TestValidateFields:
    def test_healthy_grid_reports_nothing(self):
        g = build_sim().hierarchy.root
        assert validate_fields(g.fields, g.interior) == []

    def test_nonfinite_and_nonpositive_labelled(self):
        g = build_sim().hierarchy.root
        g.fields["density"][5, 5, 5] = np.nan
        g.fields["internal"][6, 6, 6] = -1.0
        problems = validate_fields(g.fields, g.interior)
        assert "density:nonfinite=1" in problems
        assert "internal:nonpositive=1" in problems

    def test_ghost_corruption_is_ignored(self):
        g = build_sim().hierarchy.root
        g.fields["density"][0, 0, 0] = np.inf  # ghost cell
        assert validate_fields(g.fields, g.interior) == []


# --------------------------------------------------------- bitwise invariance
class TestNoFaultBitwiseIdentity:
    def test_defense_on_equals_defense_off(self):
        a = build_sim(defense=True)
        b = build_sim(defense=False)
        advance(a, 3)
        advance(b, 3)
        assert a.evolver.defense is not None
        assert b.evolver.defense is None
        assert_hierarchies_identical(a.hierarchy, b.hierarchy)
        assert a.evolver.defense.totals["rungs"] == {}
        assert a.evolver.defense.totals["escalations"] == 0

    @pytest.mark.parametrize("backend", ["thread"])
    def test_defended_parallel_backends_match_serial(self, backend):
        ref = build_sim(defense=False)
        advance(ref, 2)
        sim = build_sim(defense=True, backend=backend, workers=2)
        advance(sim, 2)
        assert_hierarchies_identical(ref.hierarchy, sim.hierarchy)


# ------------------------------------------------------------- ladder rungs
RUNG_BY_COUNT = {
    1: "retry_half_dt",
    2: "first_order",
    3: "zeus_fallback",
    4: "floor_repair",
}


class TestHydroLadder:
    @pytest.mark.parametrize("count", [1, 2, 3, 4])
    def test_repeated_nan_climbs_one_rung_per_firing(self, count):
        sim = build_sim()
        root_id = sim.hierarchy.root.grid_id  # ids are process-global
        sim.evolver.faults = FaultInjector([
            FaultSpec("nan_cell", level=0, grid_id=root_id, step=0,
                      count=count),
        ], seed=7)
        advance(sim, 2)
        ladder = sim.evolver.defense
        rescued = RUNG_BY_COUNT[count]
        assert ladder.totals["rungs"].get(rescued) == 1
        # every rung below the rescuing one was attempted and failed
        for lower in list(RUNG_BY_COUNT.values())[:count - 1]:
            assert ladder.totals["rungs"].get(lower) is None
        assert ladder.totals["escalations"] == 0
        assert len(sim.evolver.faults.fired) == count
        for g in sim.hierarchy.all_grids():
            assert np.all(np.isfinite(g.fields["density"]))

    def test_retry_half_dt_is_two_full_update_half_steps(self):
        """Nothing refills the ghost zones between the rung's two half
        steps and the second reads them, so the first advances every
        cell: the rescued active zone and fluxes are those of two
        full-update half steps — which two plain half steps are not."""
        from repro.hydro.ppm import PPMSolver

        h = build_sim().hierarchy
        g = h.root
        windows = g.hydro_plan()[0]
        g.save_old_state()
        solver = PPMSolver()
        accel = 0.1 * np.random.default_rng(2).standard_normal(
            (3, *g.fields.shape))
        dt, a, adot, permute = 0.02, 1.1, 0.3, 1
        got = DefenseLadder()._attempt_retry_half_dt(g, solver, dt, a, adot,
                                                      accel, permute, windows)

        def two_halves(full):
            fields = g.old_fields.deep_copy()
            halves = [solver.step(fields, g.dx, 0.5 * dt, a, adot, accel,
                                  permute, full_update=full, windows=windows)
                      for _ in range(2)]
            return fields, halves

        ref, halves = two_halves(True)
        for name, arr in ref.array_items():
            np.testing.assert_array_equal(g.fields[name][g.interior],
                                          arr[g.interior], err_msg=name)
        # the root's planes at its children's faces, summed plane by plane
        assert got.coarse and list(got.coarse) == windows.children
        for arr, first, second in zip(got.planes(), halves[0].planes(),
                                      halves[1].planes(), strict=True):
            np.testing.assert_array_equal(arr, first + second)
        plain, _ = two_halves(False)
        assert not np.array_equal(plain["density"][g.interior],
                                  ref["density"][g.interior])

    def test_fifth_firing_escalates_state_corruption(self):
        sim = build_sim()
        root_id = sim.hierarchy.root.grid_id
        sim.evolver.faults = FaultInjector([
            FaultSpec("nan_cell", level=0, grid_id=root_id, step=0, count=5),
        ], seed=7)
        with pytest.raises(StateCorruptionError) as err:
            advance(sim, 1)
        assert err.value.level == 0 and err.value.grid_id == root_id
        assert list(err.value.rungs) == list(RUNG_BY_COUNT.values())
        assert sim.evolver.defense.totals["escalations"] == 1

    def test_escalation_rolls_back_under_run_control(self, tmp_path):
        from repro.runtime import CheckpointPolicy

        run_dir = str(tmp_path / "chaos")
        sim = build_sim()
        sim.evolver.faults = FaultInjector([
            FaultSpec("nan_cell", level=0, grid_id=sim.hierarchy.root.grid_id,
                      step=1, count=5),
        ], seed=7)
        out = sim.make_controller(
            run_dir, policy=CheckpointPolicy(every_steps=1, keep_last=10),
        ).run(T_END, max_root_steps=3)
        assert out["status"] == "max_steps"
        assert out["recoveries"] == 1
        for g in sim.hierarchy.all_grids():
            assert np.all(np.isfinite(g.fields["density"]))
        events = read_events(telemetry_path(run_dir))
        defense = [e for e in events if e["event"] == "defense"]
        assert any(e.get("escalate") for e in defense)
        # the failed rung attempts were also reported, before the rollback
        assert any(e.get("rung") == "zeus_fallback" and not e["ok"]
                   for e in defense)
        assert summarise(run_dir)["defense_events"] >= 5

    def test_rescue_events_reach_telemetry(self, tmp_path):
        run_dir = str(tmp_path / "rescue")
        sim = build_sim()
        sim.evolver.faults = FaultInjector([
            FaultSpec("nan_cell", level=0, grid_id=sim.hierarchy.root.grid_id,
                      step=1, count=1),
        ], seed=7)
        out = sim.make_controller(run_dir).run(T_END, max_root_steps=3)
        assert out["recoveries"] == 0  # rescued in place, no rollback
        events = read_events(telemetry_path(run_dir))
        rescue = [e for e in events if e["event"] == "defense"]
        assert len(rescue) == 1
        assert rescue[0]["rung"] == "retry_half_dt" and rescue[0]["ok"]
        assert rescue[0]["step"] == 2  # fired during the second root step
        steps = [e for e in events if e["event"] == "step"]
        assert any(
            e.get("defense", {}).get("rungs.retry_half_dt") == 1
            for e in steps
        )


# ------------------------------------------------------------------ multigrid
class TestMultigridStrict:
    @staticmethod
    def _level_one(sim):
        """The level-1 grids, every potential overwritten with 7.0 so a
        solve that writes one shows."""
        grids = sim.hierarchy.level_grids(1)
        assert len(grids) > 2
        for g in grids:
            g.phi[...] = 7.0
        return grids

    def test_force_diverge_raises_with_diagnostics(self):
        """Defended (strict) solves: a grid whose solve and doubled-budget
        retry both diverge raises with the retry's diagnostics and its
        site, and keeps its potential unwritten; the grid before it was
        solved."""
        sim = build_sim()
        grids = self._level_one(sim)
        site = (1, grids[1].grid_id)
        faults = FaultInjector([FaultSpec("mg_diverge", level=1,
                                          grid_id=site[1], count=2)])
        with pytest.raises(MultigridConvergenceError) as err:
            sim.evolver.gravity.solve_level(sim.hierarchy, 1, faults=faults)
        d = err.value.diagnostics
        assert not d.converged
        assert d.cycles == d.budget == 2 * MG_BUDGET and d.tol == MG_TOL
        assert err.value.site == site
        assert f"at {site}" in str(err.value)
        assert not np.any(grids[0].phi == 7.0)
        assert np.all(grids[1].phi == 7.0)

    def test_non_strict_stays_silent(self):
        """Undefended solves are not strict: diverging solves spend their
        whole budget, raise nothing and write every potential."""
        sim = build_sim(defense=False)
        assert sim.evolver.gravity.defense is None
        grids = self._level_one(sim)
        faults = FaultInjector([FaultSpec("mg_diverge", level=1,
                                          count=100)])
        passes, solves, vcycles = sim.evolver.gravity.solve_level(
            sim.hierarchy, 1, faults=faults)
        assert solves == passes * len(grids)
        assert vcycles == solves * MG_BUDGET
        for g in grids:
            assert np.all(np.isfinite(g.phi)) and not np.any(g.phi == 7.0)

    def test_mg_diverge_fault_triggers_budget_retry(self):
        sim = build_sim()
        sim.evolver.faults = FaultInjector([FaultSpec("mg_diverge", level=1)])
        assert sim.hierarchy.max_level == 1  # a level-1 solve exists
        advance(sim, 1)
        ladder = sim.evolver.defense
        assert ladder.totals["rungs"].get("mg_budget_retry") == 1
        retry = [e for e in ladder.drain_events()
                 if e.get("rung") == "mg_budget_retry"]
        assert retry and retry[0]["diagnostics"]["converged"] is False
        for g in sim.hierarchy.all_grids():
            assert np.all(np.isfinite(g.phi))


    @pytest.mark.parametrize("case", ["count2", "two_grids"])
    def test_mg_diverge_order_is_the_per_grid_order(self, case):
        """With an injector attached, ``mg.level`` solves one grid per call
        and the injector is queried in grid order, before each solve and
        before each retry — the order of the per-grid path, which is
        observable because a spec's ``count`` spans grids.  Expected
        events (as positions in level 1) and fingerprints were recorded
        from the per-grid implementation; both tiers give them.

        ``count2``: both firings land on the level's first grid (its solve
        and its retry), so the retry fails too and escalates.
        ``two_grids``: the 6th and 3rd grids each fail once and are
        rescued, in grid order."""
        sim = build_sim()
        ids = [g.grid_id for g in sim.hierarchy.level_grids(1)]
        assert len(ids) == 8
        if case == "count2":
            specs = [FaultSpec("mg_diverge", level=1, count=2)]
        else:
            specs = [FaultSpec("mg_diverge", level=1, grid_id=ids[5]),
                     FaultSpec("mg_diverge", level=1, grid_id=ids[2])]
        sim.evolver.faults = FaultInjector(specs)
        if case == "count2":
            with pytest.raises(MultigridConvergenceError) as err:
                advance(sim, 1)
            assert err.value.site == (1, ids[0])
            assert err.value.diagnostics.budget == 120
        else:
            advance(sim, 1)
        events = [(e["level"], ids.index(e["grid"]))
                  for e in sim.evolver.defense.drain_events()
                  if e.get("rung") == "mg_budget_retry"]
        expect = {
            "count2": ([(1, 0)], "e6031637f788ec971108cb654a90ec02"
                                 "9718089c6d040c320db8cff40113bb86"),
            "two_grids": ([(1, 2), (1, 5)],
                          "08a9c7bbf2f1dc8f6205b1d6735a6ec4"
                          "87ba2617205f359ec7cc7c7b49e42ff8"),
        }[case]
        assert (events, sim.hierarchy.fingerprint()) == expect


# ------------------------------------------------------------------ chemistry
class _FakeNetwork:
    """Stands in for ChemistryNetwork: advances nothing, returns the stats
    of an advance, alternating between ``COUNTERS``: every cell in flight
    for one iteration, then half of them over three."""

    COUNTERS = ({"cells": 4, "substeps_total": 4, "substeps_max": 1,
                 "iterations": 1},
                {"cells": 4, "substeps_total": 6, "substeps_max": 3,
                 "iterations": 3})

    def __init__(self):
        self.calls = []

    def advance_fields(self, fields, dt_code, units, a):
        self.calls.append(float(dt_code))
        return integrator_stats(self.COUNTERS[(len(self.calls) - 1) % 2])


class _NegativeDensityNetwork(_FakeNetwork):
    """Leaves one interior cell's density negative on every advance."""

    def advance_fields(self, fields, dt_code, units, a):
        fields["density"][0, 0, 0] = -1.0
        return super().advance_fields(fields, dt_code, units, a)


def build_chem_sim(**config) -> Simulation:
    """Single root grid (no refinement) with a fake chemistry network."""
    sim = Simulation(SimulationConfig(n_root=8, cfl=0.3, **config))
    sim.set_density(lambda x, y, z: np.full_like(x, 1.0))
    sim.set_field("internal", lambda x, y, z: np.full_like(x, 0.05))
    sim.initialize()
    sim.evolver.chemistry = _FakeNetwork()
    sim.evolver.units = object()  # unused by the fake
    return sim


class TestChemistryLadder:
    def test_blowup_once_is_rescued_by_half_dt_retry(self):
        sim = build_chem_sim()
        sim.evolver.faults = FaultInjector([
            FaultSpec("chem_blowup", level=0,
                      grid_id=sim.hierarchy.root.grid_id, step=0, count=1),
        ])
        net = sim.evolver.chemistry
        advance(sim, 1)
        ladder = sim.evolver.defense
        assert ladder.totals["rungs"].get("chem_retry_half_dt") == 1
        # the rescue really ran two half-dt advances
        assert len(net.calls) == 2
        assert net.calls[0] == pytest.approx(net.calls[1])
        # the halves merge into one advance: 4 + 6 substeps over 1 + 3
        # iterations of 4 cells (not the mean of fractions 1.0 and 0.5)
        snap = sim.evolver.chem_stats.snapshot()
        assert snap["substeps_total"] == 10
        assert snap["substeps_max"] == 3
        assert snap["active_fraction_mean"] == 10 / (4 * 4)

    def test_blowup_twice_skips_chemistry_for_the_grid(self):
        sim = build_chem_sim()
        sim.evolver.faults = FaultInjector([
            FaultSpec("chem_blowup", level=0,
                      grid_id=sim.hierarchy.root.grid_id, step=0, count=2),
        ])
        net = sim.evolver.chemistry
        advance(sim, 1)
        ladder = sim.evolver.defense
        assert ladder.totals["rungs"].get("chem_skip") == 1
        assert ladder.totals["rungs"].get("chem_retry_half_dt") is None
        assert len(net.calls) == 0  # both the task and the retry raised

    def test_floor_repair_clamps_to_the_solvers_floors(self):
        sim = build_chem_sim(solver_options={"density_floor": 1e-8})
        sim.evolver.chemistry = _NegativeDensityNetwork()
        advance(sim, 1)
        ladder = sim.evolver.defense
        assert ladder.totals["rungs"].get("chem_floor_repair") == 1
        root = sim.hierarchy.root
        assert sim.evolver.solver.density_floor == 1e-8
        assert root.fields["density"][root.interior].min() >= 1e-8

    def test_no_fault_chemistry_untouched(self):
        sim = build_chem_sim()
        net = sim.evolver.chemistry
        advance(sim, 1)
        assert sim.evolver.defense.totals["rungs"] == {}
        assert len(net.calls) == 1


# ------------------------------------------------------------ per-run state
class TestInjectorIsPerRun:
    def test_injector_stays_with_its_evolver(self):
        """Two runs in one interpreter, stepped in turn, only one carrying
        an injector: its fault fires in its own root step 1 although the
        other run is two steps ahead, it publishes only its own step
        context, and the other run stays bitwise equal to an uninjected
        one."""
        ref = build_sim()
        advance(ref, 4)
        clean = build_sim()
        advance(clean, 2)
        faulty = build_sim()
        inj = FaultInjector([FaultSpec("nan_cell", level=0, step=1)], seed=7)
        faulty.evolver.faults = inj
        fired = []
        for _ in range(2):
            advance(faulty, 1)
            fired.append(len(inj.fired))
            advance(clean, 1)
        assert fired == [0, 1]
        assert inj.fired[0]["step"] == 1
        assert inj._step_ctx == {
            level: n - 1
            for level, n in faulty.evolver.step_counter.items() if n}
        assert faulty.evolver.defense.totals["rungs"] == {"retry_half_dt": 1}
        assert clean.evolver.faults is None
        assert clean.evolver.defense.totals["rungs"] == {}
        assert_hierarchies_identical(ref.hierarchy, clean.hierarchy)


# ---------------------------------------------------------- checkpoint faults
class TestCheckpointTruncate:
    def test_resume_falls_back_past_truncated_checkpoint(self, tmp_path):
        from repro.runtime import CheckpointPolicy

        run_dir = str(tmp_path / "trunc")
        sim = build_sim()
        sim.evolver.faults = FaultInjector([
            FaultSpec("checkpoint_truncate", step=3, count=1),
        ])
        sim.make_controller(
            run_dir, policy=CheckpointPolicy(every_steps=1, keep_last=10),
        ).run(T_END, max_root_steps=3)

        # an unfaulted straight run to the same point, for comparison
        ref = build_sim()
        advance(ref, 3)

        sim2 = build_sim()
        ctl2 = sim2.make_controller(run_dir)
        out = ctl2.resume(max_root_steps=3)
        assert out["steps"] == 3
        events = read_events(telemetry_path(run_dir))
        resumes = [e for e in events if e["event"] == "resume"]
        # the step-3 npz was chopped in half, so resume restarted from 2
        # and replayed the third root step bit-exactly
        assert resumes[-1]["step"] == 2
        assert_hierarchies_identical(ref.hierarchy, sim2.hierarchy)


# ------------------------------------------------------------ floor telemetry
class TestDefenseBookkeeping:
    def test_note_floors_and_snapshot(self):
        ladder = DefenseLadder()
        assert not ladder.stats
        ladder.note_floors({"density_floor": 2, "internal_floor": 0})
        ladder.note_floors({"density_floor": 1})
        assert ladder.stats.snapshot() == {"floors.density_floor": 3}
        ladder.stats.reset()  # per-step counters reset, totals persist
        assert not ladder.stats
        assert ladder.totals["floors"] == {"density_floor": 3}

    def test_record_event_counts_only_successful_rungs(self):
        ladder = DefenseLadder()
        ladder.record_event({"rung": "retry_half_dt", "ok": False})
        ladder.record_event({"rung": "first_order", "ok": True})
        ladder.record_event({"escalate": True, "rungs": []})
        assert ladder.stats.snapshot() == {"rungs.first_order": 1}
        assert len(ladder.drain_events()) == 3
        assert ladder.drain_events() == []
