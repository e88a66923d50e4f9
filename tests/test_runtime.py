"""Tests for the fault-tolerant run-control subsystem (repro.runtime)."""

import json
import os
import signal

import numpy as np
import pytest

from repro import Simulation, SimulationConfig
from repro.io import CheckpointError, load_hierarchy
from repro.nbody.particles import ParticleSet
from repro.runtime import (
    CheckpointPolicy,
    RecoveryPolicy,
    RunFailedError,
    RunState,
    Watchdog,
    read_events,
    summarise,
    telemetry_path,
)
from repro.runtime.recovery import NonFiniteStateError


def build_sim() -> Simulation:
    """A small self-gravitating collapse with refinement and particles."""
    sim = Simulation(SimulationConfig(
        n_root=8, self_gravity=True, max_level=1, refine_overdensity=3.0,
        g_code=2.0, cfl=0.3,
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


T_END = 0.8  # far enough that 6 root steps never reach it


def assert_hierarchies_identical(ha, hb):
    """Fields, phi, particle EPA word pairs and per-grid times, bit-exact."""
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
        ha.particles.positions.lo, hb.particles.positions.lo)
    np.testing.assert_array_equal(
        ha.particles.velocities, hb.particles.velocities)
    np.testing.assert_array_equal(ha.particles.masses, hb.particles.masses)


class TestResumeBitExact:
    def test_run_resume_matches_straight_run(self, tmp_path):
        """run(N+M) == run(N) -> checkpoint -> resume(M), bit for bit."""
        n, total = 3, 6
        dir_a, dir_b = str(tmp_path / "a"), str(tmp_path / "b")

        sim_a = build_sim()
        assert sim_a.hierarchy.max_level == 1  # refinement is active
        out_a = sim_a.make_controller(dir_a).run(T_END, max_root_steps=total)
        assert out_a["status"] == "max_steps" and out_a["steps"] == total

        sim_b = build_sim()
        out_b = sim_b.make_controller(dir_b).run(T_END, max_root_steps=n)
        assert out_b["steps"] == n

        sim_b2 = build_sim()  # a fresh process would rebuild the problem too
        out_b2 = sim_b2.make_controller(dir_b).resume(max_root_steps=total)
        assert out_b2["steps"] == total

        assert_hierarchies_identical(sim_a.hierarchy, sim_b2.hierarchy)

    def test_resume_restores_run_state(self, tmp_path):
        run_dir = str(tmp_path / "r")
        sim = build_sim()
        sim.evolver.step_counter[0] = 0
        sim.make_controller(run_dir).run(T_END, max_root_steps=2)
        counters = dict(sim.evolver.step_counter)

        sim2 = build_sim()
        ctl2 = sim2.make_controller(run_dir)
        ctl2.resume(max_root_steps=2)  # already there: no extra steps
        assert dict(sim2.evolver.step_counter) == counters
        assert ctl2.step == 2
        assert sim2.evolver.cfl == sim.evolver.cfl


class TestCheckpointRotation:
    def test_keep_count_honoured(self, tmp_path):
        run_dir = str(tmp_path / "rot")
        sim = build_sim()
        policy = CheckpointPolicy(every_steps=1, keep_last=2)
        sim.make_controller(run_dir, policy=policy).run(
            T_END, max_root_steps=5)
        pairs = CheckpointPolicy.list_checkpoints(run_dir)
        assert len(pairs) == 2
        assert [p[0] for p in pairs] == [4, 5]  # newest survive
        # every surviving checkpoint is loadable
        for _, npz, state in pairs:
            load_hierarchy(npz)
            RunState.load(state)

    def test_no_temp_files_left(self, tmp_path):
        run_dir = str(tmp_path / "tmpfiles")
        sim = build_sim()
        sim.make_controller(run_dir).run(T_END, max_root_steps=2)
        assert not [n for n in os.listdir(run_dir) if n.endswith(".tmp")]


class TestCrashRecovery:
    def test_watchdog_rolls_back_and_retries(self, tmp_path):
        run_dir = str(tmp_path / "wd")
        sim = build_sim()
        poisoned = []

        def poison(ctl):
            if ctl.step == 2 and not poisoned:
                poisoned.append(True)
                ctl.hierarchy.root.fields["density"][5, 5, 5] = np.nan

        ctl = sim.make_controller(
            run_dir, pre_step=poison,
            policy=CheckpointPolicy(every_steps=1, keep_last=10))
        with pytest.warns(RuntimeWarning):
            out = ctl.run(T_END, max_root_steps=5)
        assert out["status"] == "max_steps"
        assert out["recoveries"] == 1
        assert sim.evolver.cfl == pytest.approx(0.15)  # reduced from 0.3
        for g in sim.hierarchy.all_grids():
            assert np.all(np.isfinite(g.fields["density"]))
        events = read_events(telemetry_path(run_dir))
        rec = [e for e in events if e["event"] == "recovery"]
        assert len(rec) == 1
        assert rec[0]["rollback_step"] == 2
        # the poisoned density is caught either by the strict gravity solve
        # (defense ladder on, the default) or by the end-of-step watchdog
        assert ("density" in rec[0]["reason"]
                or "multigrid" in rec[0]["reason"])

    def test_retries_exhausted_raises(self, tmp_path):
        run_dir = str(tmp_path / "fail")
        sim = build_sim()

        def always_poison(ctl):
            ctl.hierarchy.root.fields["density"][5, 5, 5] = np.nan

        ctl = sim.make_controller(
            run_dir, pre_step=always_poison,
            recovery=RecoveryPolicy(max_retries=2),
            policy=CheckpointPolicy(every_steps=1, keep_last=5))
        with pytest.warns(RuntimeWarning):
            with pytest.raises(RunFailedError):
                ctl.run(T_END, max_root_steps=5)
        events = read_events(telemetry_path(run_dir))
        assert events[-1]["event"] == "failed"
        # the latest checkpoint on disk still loads after the failure
        step, npz, state = CheckpointPolicy.latest(run_dir)
        load_hierarchy(npz)

    def test_corrupt_latest_falls_back_to_older(self, tmp_path):
        run_dir = str(tmp_path / "fallback")
        sim = build_sim()
        sim.make_controller(
            run_dir, policy=CheckpointPolicy(every_steps=1, keep_last=10)
        ).run(T_END, max_root_steps=3)
        step, npz, _ = CheckpointPolicy.latest(run_dir)
        with open(npz, "r+b") as fh:  # truncate the newest dump
            fh.truncate(100)
        sim2 = build_sim()
        ctl2 = sim2.make_controller(run_dir)
        ctl2.resume(max_root_steps=3)
        assert ctl2.step == 3  # re-ran the lost step from the older pair

    def test_watchdog_flags_nonfinite(self):
        sim = build_sim()
        Watchdog().check(sim.hierarchy, 0.1)
        with pytest.raises(NonFiniteStateError):
            Watchdog().check(sim.hierarchy, float("nan"))
        sim.hierarchy.root.fields["energy"][4, 4, 4] = np.inf
        with pytest.raises(NonFiniteStateError):
            Watchdog().check(sim.hierarchy, 0.1)


class TestSignalDrain:
    def test_sigterm_checkpoints_then_exits(self, tmp_path):
        run_dir = str(tmp_path / "sig")
        sim = build_sim()

        def send_term(ctl):
            if ctl.step == 2:
                os.kill(os.getpid(), signal.SIGTERM)

        ctl = sim.make_controller(
            run_dir, pre_step=send_term,
            policy=CheckpointPolicy(every_steps=100, keep_last=3))
        out = ctl.run(T_END, max_root_steps=10)
        assert out["status"] == "interrupted"
        assert out["signal"] == "SIGTERM"
        # the drain checkpoint is at the interrupted step and loads cleanly
        step, npz, state_path = CheckpointPolicy.latest(run_dir)
        assert step == out["steps"]
        load_hierarchy(npz)
        # a resumed run picks up exactly there and completes the budget
        sim2 = build_sim()
        out2 = sim2.make_controller(run_dir).resume(max_root_steps=5)
        assert out2["status"] == "max_steps"
        assert out2["steps"] == 5
        events = read_events(telemetry_path(run_dir))
        kinds = [e["event"] for e in events]
        assert "interrupted" in kinds and "resume" in kinds


class TestTelemetry:
    def test_one_step_record_per_root_step(self, tmp_path):
        run_dir = str(tmp_path / "tel")
        sim = build_sim()
        out = sim.make_controller(run_dir).run(T_END, max_root_steps=4)
        events = read_events(telemetry_path(run_dir))
        start = events[0]
        assert start["event"] == "start"
        assert {"exec_backend", "workers", "kernels"} <= set(start)
        steps = [e for e in events if e["event"] == "step"]
        assert len(steps) == out["steps"] == 4
        for i, e in enumerate(steps, start=1):
            assert e["step"] == i
            assert e["dt"] > 0 and np.isfinite(e["t"])
            assert e["a"] == pytest.approx(1.0)  # static clock
            assert sum(l["grids"] for l in e["levels"]) >= 1
            assert e["max_density"] > 1.0
            # serial fractions partition wall time exactly; parallel
            # backends attribute CPU-seconds summed across workers, so
            # their fractions may legitimately exceed 1 (see EXECUTOR.md)
            if start["exec_backend"] == "serial":
                assert abs(sum(e["timers"].values()) - 1.0) < 1e-4
            else:
                assert sum(e["timers"].values()) >= 1.0 - 1e-4
            assert "io" in e["timers"]  # checkpoint cost is attributed

    def test_every_line_is_valid_json(self, tmp_path):
        run_dir = str(tmp_path / "jsonl")
        sim = build_sim()
        sim.make_controller(run_dir).run(T_END, max_root_steps=3)
        with open(telemetry_path(run_dir)) as fh:
            for line in fh:
                json.loads(line)

    def test_summarise(self, tmp_path):
        run_dir = str(tmp_path / "sum")
        sim = build_sim()
        sim.make_controller(
            run_dir, policy=CheckpointPolicy(every_steps=2, keep_last=5)
        ).run(T_END, max_root_steps=4)
        s = summarise(run_dir)
        assert s["steps"] == 4
        assert s["checkpoints"] >= 3  # step 0, steps 2 & 4, final
        assert s["recoveries"] == 0
        assert s["lifecycle"][0] == "start"
        assert s["lifecycle"][-1] == "finish"
        assert s["grids"] >= 1 and s["cells"] >= 8 ** 3

    def test_torn_final_line_tolerated(self, tmp_path):
        path = str(tmp_path / "torn.jsonl")
        with open(path, "w") as fh:
            fh.write(json.dumps({"event": "step", "step": 1}) + "\n")
            fh.write('{"event": "step", "ste')  # crash mid-write
        events = read_events(path)
        assert len(events) == 1


class TestRunStateRoundtrip:
    def test_rng_state_roundtrip(self, tmp_path):
        np.random.seed(1234)
        np.random.random(7)  # advance the stream
        sim = build_sim()
        state = RunState.capture(sim.evolver, step=3, t_end=1.0)
        expected = np.random.random(5)  # consumes the stream...
        path = str(tmp_path / "state.json")
        state.save(path)
        restored = RunState.load(path)
        from repro.runtime import restore_rng_state
        restore_rng_state(restored.rng_state)  # ...and rewinds it
        np.testing.assert_array_equal(np.random.random(5), expected)
        assert restored.step == 3
        assert restored.t_hi == float(sim.hierarchy.root.time.hi)

    def test_level_times_word_pairs(self, tmp_path):
        from repro.precision.doubledouble import DoubleDouble

        sim = build_sim()
        sim.hierarchy.root.time = DoubleDouble(0.25, 3e-20)
        state = RunState.capture(sim.evolver)
        root_entry = state.level_times[0]
        assert root_entry["time_hi"] == 0.25
        assert root_entry["time_lo"] == 3e-20
        path = str(tmp_path / "state.json")
        state.save(path)
        assert RunState.load(path).level_times[0]["time_lo"] == 3e-20


class TestSimulationWiring:
    def test_make_controller_steps_the_sims_hierarchy(self, tmp_path):
        sim = build_sim()
        out = sim.make_controller(str(tmp_path / "wired")).run(
            T_END, max_root_steps=2)
        assert out["status"] == "max_steps" and out["steps"] == 2
        assert sim.summary()["time"] == out["t"] > 0.0

    def test_resume_with_no_checkpoints_raises(self, tmp_path):
        sim = build_sim()
        with pytest.raises(CheckpointError):
            sim.make_controller(str(tmp_path / "empty")).resume()
