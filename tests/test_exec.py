"""Tests for the task-based execution engine (repro.exec).

The engine's core promise is bitwise determinism: the serial and thread
backends, at any worker count, must produce byte-identical
hierarchies — fields, potentials, DoubleDouble clock words and particle
extended-precision word pairs.  These tests run real problems (a
self-gravitating refined collapse with particles, the Zel'dovich pancake,
a chemistry-enabled primordial collapse) under every backend and compare.
"""

import os
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest

from repro import Simulation, SimulationConfig
from repro.exec import (
    BACKENDS,
    ENV_BACKEND,
    ENV_WORKERS,
    ExecConfig,
    ExecutionEngine,
    WorkCalibrator,
)
from repro.nbody.particles import ParticleSet
from repro.perf import ComponentTimers


def build_sim(backend=None, workers=None) -> Simulation:
    """Small self-gravitating collapse with refinement and particles."""
    sim = Simulation(SimulationConfig(
        n_root=8, self_gravity=True, max_level=1, refine_overdensity=3.0,
        g_code=2.0, cfl=0.3, exec_backend=backend, workers=workers,
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


def assert_hierarchies_identical(ha, hb):
    """Fields, phi, particle EPA word pairs and clock words, bit-exact."""
    assert ha.grids_per_level() == hb.grids_per_level()
    for ga, gb in zip(ha.all_grids(), hb.all_grids()):
        assert float(ga.time.hi) == float(gb.time.hi)
        assert float(ga.time.lo) == float(gb.time.lo)
        for name, arr in ga.fields.array_items():
            np.testing.assert_array_equal(arr, gb.fields[name], err_msg=name)
        if ga.phi is not None or gb.phi is not None:
            np.testing.assert_array_equal(ga.phi, gb.phi)
    pa, pb = ha.particles, hb.particles
    assert (pa is None) == (pb is None)
    if pa is not None:
        np.testing.assert_array_equal(pa.positions.hi, pb.positions.hi)
        np.testing.assert_array_equal(pa.positions.lo, pb.positions.lo)
        np.testing.assert_array_equal(pa.velocities, pb.velocities)
        np.testing.assert_array_equal(pa.masses, pb.masses)


VARIANTS = [("serial", 1), ("thread", 2), ("thread", 4)]


# ------------------------------------------------------- backend equivalence
class TestBackendEquivalence:
    def test_simulation_bitwise_identical_across_backends(self):
        """Gravity + hydro + particles + refinement: every backend agrees."""
        t_end = 0.8  # far enough that 3 root steps never reach it
        reference = build_sim()
        for _ in range(3):
            reference.evolver.advance_root_step(t_end)
        for backend, workers in VARIANTS[1:]:
            sim = build_sim(backend=backend, workers=workers)
            assert sim.evolver.engine.config.backend == backend
            for _ in range(3):
                sim.evolver.advance_root_step(t_end)
            assert_hierarchies_identical(reference.hierarchy, sim.hierarchy)

    def test_zeldovich_bitwise_identical_across_backends(self):
        from repro.problems import ZeldovichPancake

        outputs = {}
        for backend, workers in [("serial", 1), ("thread", 2)]:
            zp = ZeldovichPancake(n=8)
            cfg = ExecConfig(backend=backend, workers=workers)
            outputs[backend] = zp.run(z_end=25.0, exec_config=cfg)
        np.testing.assert_array_equal(
            outputs["serial"]["density"], outputs["thread"]["density"])
        np.testing.assert_array_equal(
            outputs["serial"]["velocity"], outputs["thread"]["velocity"])

    def test_collapse_with_chemistry_identical_across_backends(self):
        """The chemistry network advance is also backend-independent."""
        from repro.problems import PrimordialCollapse

        def run(backend, workers):
            pc = PrimordialCollapse(
                n_root=8, max_level=1, amplitude_boost=4.0,
                mass_refine_factor=8.0, with_chemistry=True,
                exec_backend=backend, workers=workers)
            pc.initial_rebuild()
            pc.run_to_redshift(95.0, max_root_steps=3)
            return pc

        ref = run(None, None)
        other = run("thread", 2)
        assert_hierarchies_identical(ref.hierarchy, other.hierarchy)


# --------------------------------------------------- checkpoints and resume
class TestCheckpointResumeAcrossBackends:
    def test_resume_may_switch_backend(self, tmp_path):
        """run(6, serial) == run(3, serial) + resume(3 more, thread)."""
        t_end = 0.8
        dir_a, dir_b = str(tmp_path / "a"), str(tmp_path / "b")

        sim_a = build_sim()
        out_a = sim_a.make_controller(dir_a).run(t_end, max_root_steps=6)
        assert out_a["steps"] == 6

        sim_b = build_sim()
        sim_b.make_controller(dir_b).run(t_end, max_root_steps=3)

        sim_b2 = build_sim(backend="thread", workers=2)
        out = sim_b2.make_controller(dir_b).resume(max_root_steps=6)
        assert out["steps"] == 6
        assert_hierarchies_identical(sim_a.hierarchy, sim_b2.hierarchy)


# ------------------------------------------------------------- configuration
class TestExecConfig:
    @pytest.fixture()
    def clean_env(self, monkeypatch):
        """Neutralise the CI matrix env (REPRO_EXEC_BACKEND=thread ...)."""
        monkeypatch.delenv(ENV_BACKEND, raising=False)
        monkeypatch.delenv(ENV_WORKERS, raising=False)

    def test_default_is_serial_single_worker(self, clean_env):
        cfg = ExecConfig.resolve()
        assert cfg.backend == "serial" and cfg.workers == 1

    def test_environment_resolution(self, monkeypatch):
        monkeypatch.setenv(ENV_BACKEND, "thread")
        monkeypatch.setenv(ENV_WORKERS, "3")
        cfg = ExecConfig.resolve()
        assert cfg.backend == "thread" and cfg.workers == 3

    def test_explicit_args_beat_environment(self, monkeypatch):
        monkeypatch.setenv(ENV_BACKEND, "serial")
        monkeypatch.setenv(ENV_WORKERS, "8")
        cfg = ExecConfig.resolve(backend="thread", workers=2)
        assert cfg.backend == "thread" and cfg.workers == 2

    def test_value_beats_everything(self, monkeypatch):
        monkeypatch.setenv(ENV_BACKEND, "thread")
        cfg = ExecConfig.resolve(ExecConfig(backend="serial"),
                                 backend="thread", workers=4)
        assert cfg.backend == "serial" and cfg.workers == 1

    def test_workers_without_backend_means_thread(self, clean_env):
        cfg = ExecConfig.resolve(workers=4)
        assert cfg.backend == "thread" and cfg.workers == 4

    def test_serial_forces_one_worker(self, clean_env):
        cfg = ExecConfig.resolve(backend="serial", workers=8)
        assert cfg.workers == 1

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            ExecConfig(backend="mpi")

    @pytest.mark.parametrize("stale", ["process", "mpi"])
    def test_unknown_environment_backend_rejected(self, monkeypatch, stale):
        monkeypatch.setenv(ENV_BACKEND, stale)
        monkeypatch.delenv(ENV_WORKERS, raising=False)
        with pytest.raises(ValueError, match=r"unknown exec backend .*"
                           r"\('serial', 'thread'\)"):
            ExecConfig.resolve()

    def test_dict_spelling(self):
        cfg = ExecConfig.resolve({"backend": "thread", "workers": 2})
        assert cfg.backend == "thread" and cfg.workers == 2

    def test_config_has_backend_and_workers_only(self):
        assert [f.name for f in fields(ExecConfig)] == ["backend", "workers"]

    def test_backends_tuple_is_exhaustive(self):
        assert BACKENDS == ("serial", "thread")


# --------------------------------------------------------------- calibrator
class TestWorkCalibrator:
    def test_unmeasured_cost_is_none(self):
        cal = WorkCalibrator()

        class T:
            kind, level, n_cells = "hydro", 0, 512
        assert cal.cost(T()) is None

    def test_observe_then_cost(self):
        cal = WorkCalibrator()
        cal.observe("hydro", 0, 1000, 0.5)  # 0.5 ms/cell
        class T:
            kind, level, n_cells = "hydro", 0, 2000
        assert cal.cost(T()) == pytest.approx(1.0)

    def test_ema_blends_observations(self):
        cal = WorkCalibrator(alpha=0.5)
        cal.observe("hydro", 0, 100, 1.0)   # 0.01 s/cell
        cal.observe("hydro", 0, 100, 3.0)   # 0.03 s/cell
        assert cal.rate("hydro", 0) == pytest.approx(0.02)
        assert cal.samples[("hydro", 0)] == 2

    def test_finer_level_falls_back_to_coarser(self):
        cal = WorkCalibrator()
        cal.observe("chemistry", 0, 100, 1.0)
        assert cal.rate("chemistry", 3) == pytest.approx(0.01)

    def test_sterile_grid_cost_sums_kinds_with_substep_factor(self):
        cal = WorkCalibrator(refine_factor=2)
        cal.observe("hydro", 1, 100, 1.0)      # 0.01 s/cell
        cal.observe("chemistry", 1, 100, 2.0)  # 0.02 s/cell
        class Sterile:
            level, n_cells = 1, 1000
        # (0.01 + 0.02) * 1000 cells * 2^1 substeps
        assert cal.cost(Sterile()) == pytest.approx(60.0)

    def test_summary_reports_ns_per_cell(self):
        cal = WorkCalibrator()
        cal.observe("hydro", 0, 1000, 0.001)  # 1 us/cell = 1000 ns/cell
        s = cal.summary()
        assert s["hydro/L0"]["ns_per_cell"] == pytest.approx(1000.0)
        assert s["hydro/L0"]["samples"] == 1


# ------------------------------------------------------------------- engine
class _FakeTask:
    """Minimal task: scheduler proxies + inline execution."""

    kind = "hydro"

    def __init__(self, grid_id, n_cells, level=0):
        self.grid_id = grid_id
        self.level = level
        self.n_cells = n_cells
        self.start_index = (grid_id, 0, 0)
        self.result = None
        self.ran = False

    def run_inline(self):
        self.ran = True
        self.result = self.grid_id * 2


class TestExecutionEngine:
    def test_serial_runs_inline_with_timer_attribution(self):
        eng = ExecutionEngine(ExecConfig(backend="serial"))
        timers = ComponentTimers()
        tasks = [_FakeTask(i, 100) for i in range(3)]
        report = eng.run(tasks, level=0, timers=timers)
        assert all(t.ran for t in tasks)
        assert report.n_tasks == 3
        assert list(report.worker_busy) == [0]  # never left the caller
        assert timers.counts["hydro"] == 3
        # the report's own measurement is what reaches the timers
        assert timers.totals["hydro"] == pytest.approx(
            report.kernel_seconds["hydro"])

    def test_timer_attribution_is_the_same_on_every_backend(self):
        """Serial and thread x2 add the same per-kind task counts, each
        dispatch's overhead goes to "exec", and nothing is timed twice."""
        counts = {}
        for backend, workers in (("serial", 1), ("thread", 2)):
            eng = ExecutionEngine(ExecConfig(backend=backend,
                                             workers=workers))
            timers = ComponentTimers()
            for kind in ("hydro", "chemistry"):
                tasks = [_FakeTask(i, 100) for i in range(4)]
                for t in tasks:
                    t.kind = kind
                report = eng.run(tasks, level=0, timers=timers)
                assert timers.totals[kind] == pytest.approx(
                    report.kernel_seconds[kind])
            assert timers.counts["exec"] == 2
            counts[backend] = dict(timers.counts)
        assert counts["serial"] == counts["thread"] == {
            "hydro": 4, "chemistry": 4, "exec": 2}

    def test_thread_backend_runs_every_task(self):
        eng = ExecutionEngine(ExecConfig(backend="thread", workers=2))
        tasks = [_FakeTask(i, 100 * (i + 1)) for i in range(5)]
        report = eng.run(tasks, level=1)
        assert all(t.ran for t in tasks)
        assert report.n_tasks == 5
        assert report.busy_total > 0.0

    def test_small_dispatches_run_inline(self):
        eng = ExecutionEngine(ExecConfig(backend="thread", workers=2))
        # one task: below MIN_PARALLEL_TASKS, so it never leaves the caller
        report = eng.run([_FakeTask(0, 10)], timers=ComponentTimers())
        assert list(report.worker_busy) == [0]

    def test_plan_queues_covers_all_tasks_without_overlap(self):
        eng = ExecutionEngine(ExecConfig(backend="thread", workers=3))
        tasks = [_FakeTask(i, (i + 1) * 50) for i in range(10)]
        queues = eng.plan_queues(tasks)
        assert len(queues) == 3
        seen = [t.grid_id for q in queues for t in q]
        assert sorted(seen) == list(range(10))

    def test_plan_queues_uses_calibrated_costs(self):
        eng = ExecutionEngine(ExecConfig(backend="thread", workers=2))
        # make grid 0 "measured" to be enormously expensive: the greedy
        # schedule must isolate it on its own worker
        eng.calibrator.observe("hydro", 0, 100, 100.0)
        eng.calibrator.observe("hydro", 1, 100, 0.0001)
        big = _FakeTask(0, 1000, level=0)
        small = [_FakeTask(i, 1000, level=1) for i in range(1, 5)]
        queues = eng.plan_queues([big] + small)
        (big_queue,) = [q for q in queues if big in q]
        assert len(big_queue) == 1

    def test_step_snapshot_shape(self):
        eng = ExecutionEngine(ExecConfig(backend="thread", workers=2))
        eng.run([_FakeTask(i, 100) for i in range(4)], level=0)
        eng.run([_FakeTask(i, 100) for i in range(2)], level=1)
        snap = eng.stats.snapshot()
        assert set(snap) == {"dispatches", "tasks", "overhead",
                             "utilisation", "imbalance.L0", "imbalance.L1"}
        assert snap["dispatches"] == 2 and snap["tasks"] == 6
        assert 0.0 < snap["utilisation"] <= 1.0
        assert snap["imbalance.L0"] >= 1.0 and snap["imbalance.L1"] >= 1.0

    def test_calibrator_learns_from_dispatches(self):
        eng = ExecutionEngine(ExecConfig(backend="serial"))
        eng.run([_FakeTask(i, 100) for i in range(3)], level=0)
        assert eng.calibrator.rate("hydro", 0) is not None

    def test_environment_drives_evolver_backend(self, monkeypatch):
        monkeypatch.setenv(ENV_BACKEND, "thread")
        monkeypatch.setenv(ENV_WORKERS, "2")
        sim = build_sim()
        assert sim.evolver.engine.config.backend == "thread"
        assert sim.evolver.engine.config.workers == 2


def test_production_path_does_not_import_the_simulated_cluster():
    """The evolver schedules through repro.exec.distribution; the Sec. 3.4
    virtual-cluster package stays off the production import path."""
    code = ("import sys, repro.amr.evolve; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[:2] == ['repro', 'parallel']))")
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       os.pardir, "src")
    out = subprocess.run([sys.executable, "-c", code],
                         env={**os.environ, "PYTHONPATH": src}, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "[]"
