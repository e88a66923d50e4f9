"""Tests for the run-supervision layer (repro.runtime.supervision):
heartbeats, staleness deadlines, the escalation ladder, checkpoint
digests, and the new liveness fault kinds."""

import json
import os
import threading

import numpy as np
import pytest

from repro import Simulation, SimulationConfig
from repro.io.checkpoint import (
    QUARANTINE_SUFFIX,
    load_hierarchy,
    verify_run_dir,
)
from repro.runtime import faults
from repro.runtime.checkpoint_policy import (
    CheckpointPolicy,
    digest_path,
    file_sha256,
    verify_digest,
    write_digest,
)
from repro.runtime.supervision import (
    HeartbeatWriter,
    SupervisionPolicy,
    Supervisor,
    heartbeat_age,
    heartbeat_path,
    read_heartbeat,
)
from repro.runtime.telemetry import read_events, telemetry_path


def build_sim() -> Simulation:
    """Same small self-gravitating collapse the runtime tests evolve."""
    from repro.nbody.particles import ParticleSet

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


T_END = 0.8


def assert_hierarchies_identical(ha, hb):
    assert ha.grids_per_level() == hb.grids_per_level()
    for ga, gb in zip(ha.all_grids(), hb.all_grids()):
        assert float(ga.time.hi) == float(gb.time.hi)
        assert float(ga.time.lo) == float(gb.time.lo)
        for name, arr in ga.fields.array_items():
            np.testing.assert_array_equal(arr, gb.fields[name], err_msg=name)
        np.testing.assert_array_equal(ga.phi, gb.phi)


# ---------------------------------------------------------------- heartbeats
class TestHeartbeat:
    def test_roundtrip(self, tmp_path):
        w = HeartbeatWriter(str(tmp_path))
        assert w.beat(step=3, phase="root_step", force=True)
        record = read_heartbeat(str(tmp_path))
        assert record["step"] == 3
        assert record["phase"] == "root_step"
        assert record["seq"] == 1
        assert record["pid"] == os.getpid()
        assert heartbeat_age(record) >= 0.0

    def test_sequence_continues_across_writers(self, tmp_path):
        """Build → episode → resume hand-offs look like ONE monotonic
        sequence to the daemon, so a writer restart never fakes progress
        loss (or progress)."""
        HeartbeatWriter(str(tmp_path)).beat(phase="build", force=True)
        w2 = HeartbeatWriter(str(tmp_path))
        w2.beat(step=1, force=True)
        w2.beat(step=2, force=True)
        assert read_heartbeat(str(tmp_path))["seq"] == 3

    def test_unforced_beats_are_rate_limited(self, tmp_path):
        w = HeartbeatWriter(str(tmp_path), min_interval=60.0)
        assert w.beat(step=1, force=True)
        assert not w.beat(phase="hydro")  # inside the interval: dropped
        assert read_heartbeat(str(tmp_path))["step"] == 1

    def test_missing_and_torn_reads_return_none(self, tmp_path):
        assert read_heartbeat(str(tmp_path)) is None
        with open(heartbeat_path(str(tmp_path)), "w") as fh:
            fh.write('{"seq": 1, "ste')  # torn write (non-atomic editor)
        assert read_heartbeat(str(tmp_path)) is None

    def test_no_torn_reads_under_concurrent_writer(self, tmp_path):
        """Property test: os.replace means a reader sees complete records
        only — every parse either fails cleanly on a missing file or
        yields a full record, never a partial one."""
        stop = threading.Event()
        errors = []

        def writer():
            w = HeartbeatWriter(str(tmp_path), min_interval=0.0)
            i = 0
            while not stop.is_set():
                w.beat(step=i, phase=f"phase-{i}", force=True)
                i += 1

        t = threading.Thread(target=writer)
        t.start()
        try:
            seen = 0
            last_seq = 0
            while seen < 500:
                record = read_heartbeat(str(tmp_path))
                if record is None:
                    continue
                seen += 1
                try:
                    # a torn record would miss keys or carry a mismatched
                    # step/phase pair
                    assert set(record) >= {"seq", "step", "phase", "wall"}
                    assert record["phase"] == f"phase-{record['step']}"
                    assert record["seq"] >= last_seq
                    last_seq = record["seq"]
                except AssertionError as exc:
                    errors.append(str(exc))
                    break
        finally:
            stop.set()
            t.join()
        assert not errors


# -------------------------------------------------------------------- policy
class TestSupervisionPolicy:
    def test_deadline_clamps(self):
        p = SupervisionPolicy(deadline_multiplier=10.0, deadline_floor=30.0,
                              deadline_ceiling=900.0)
        assert p.deadline(None) == 900.0  # unmeasured: the ceiling
        assert p.deadline(0.0) == 900.0
        assert p.deadline(1.0) == 30.0    # 10x1s clamped up to the floor
        assert p.deadline(10.0) == 100.0  # in band: multiplier rules
        assert p.deadline(1e6) == 900.0   # clamped down to the ceiling

    def test_backoff_doubles_and_caps(self):
        p = SupervisionPolicy(backoff_base=1.0, backoff_cap=6.0)
        assert [p.backoff(i) for i in range(6)] == \
            [0.0, 1.0, 2.0, 4.0, 6.0, 6.0]


# ---------------------------------------------------------------- supervisor
class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestSupervisor:
    def test_escalation_drain_then_kill(self):
        clock = FakeClock()
        policy = SupervisionPolicy(grace_seconds=5.0)
        sup = Supervisor(policy, clock=clock)
        sup.watch("r1")
        hb = {"seq": 1, "step": 0}
        assert sup.check("r1", hb, deadline=10.0) is None
        clock.now = 11.0  # same seq the whole time: stale past deadline
        action, info = sup.check("r1", hb, deadline=10.0)
        assert action == "drain"
        assert info["reason"] == "stalled"
        assert info["stale_seconds"] == pytest.approx(11.0)
        clock.now = 13.0  # inside the grace window: nothing new
        assert sup.check("r1", hb, deadline=10.0) is None
        clock.now = 16.1  # grace expired
        action, info = sup.check("r1", hb, deadline=10.0)
        assert action == "kill"
        assert info["reason"] == "stalled"
        # the kill is issued exactly once
        clock.now = 100.0
        assert sup.check("r1", hb, deadline=10.0) is None

    def test_progress_resets_staleness(self):
        clock = FakeClock()
        sup = Supervisor(SupervisionPolicy(), clock=clock)
        sup.watch("r1")
        clock.now = 9.0
        assert sup.check("r1", {"seq": 1}, deadline=10.0) is None
        clock.now = 18.0  # seq moved at t=9: only 9s stale now
        assert sup.check("r1", {"seq": 2}, deadline=10.0) is None
        assert sup.staleness("r1") == pytest.approx(0.0)
        clock.now = 29.0  # no seq change since t=18
        action, _ = sup.check("r1", {"seq": 2}, deadline=10.0)
        assert action == "drain"

    def test_identical_rewrites_cannot_fake_progress(self):
        """Judged by seq change, not file mtime or worker wall-clock."""
        clock = FakeClock()
        sup = Supervisor(SupervisionPolicy(), clock=clock)
        sup.watch("r1")
        clock.now = 9.0
        # first observation of seq 1 counts as progress
        assert sup.check("r1", {"seq": 1, "wall": 1e12},
                         deadline=10.0) is None
        clock.now = 23.0
        action, _ = sup.check("r1", {"seq": 1, "wall": 2e12},
                              deadline=10.0)
        assert action == "drain"

    def test_budget_reason_drains_regardless_of_liveness(self):
        clock = FakeClock()
        sup = Supervisor(SupervisionPolicy(), clock=clock)
        sup.watch("r1")
        action, info = sup.check("r1", {"seq": 1}, deadline=10.0,
                                 budget_reason="budget_exceeded")
        assert action == "drain"
        assert info["reason"] == "budget_exceeded"

    def test_missing_heartbeat_counts_as_stale(self):
        clock = FakeClock()
        sup = Supervisor(SupervisionPolicy(), clock=clock)
        sup.watch("r1")
        clock.now = 11.0
        action, _ = sup.check("r1", None, deadline=10.0)
        assert action == "drain"


# ---------------------------------------------------------------- digests
class TestCheckpointDigests:
    def _npz(self, path):
        with open(path, "wb") as fh:
            np.savez_compressed(fh, x=np.arange(8, dtype=np.float64))
        return str(path)

    def test_write_and_verify(self, tmp_path):
        path = self._npz(tmp_path / "chk_0000001.npz")
        digest = write_digest(path)
        assert digest == file_sha256(path)
        assert verify_digest(path)
        assert os.path.exists(digest_path(path))

    def test_missing_sidecar_policy(self, tmp_path):
        path = self._npz(tmp_path / "chk_0000001.npz")
        assert verify_digest(path)                     # lenient default
        assert not verify_digest(path, missing_ok=False)  # strict scrub

    def test_detects_corruption(self, tmp_path):
        path = self._npz(tmp_path / "chk_0000001.npz")
        write_digest(path)
        faults.apply_checkpoint_bitflip(path)
        assert not verify_digest(path)

    def test_torn_sidecar_vouches_for_nothing(self, tmp_path):
        path = self._npz(tmp_path / "chk_0000001.npz")
        with open(digest_path(path), "w") as fh:
            fh.write("")
        assert not verify_digest(path)

    def test_bitflip_still_loads_without_digests(self, tmp_path):
        """The failure mode digests exist for: corrupt but loadable."""
        run_dir = str(tmp_path / "r")
        sim = build_sim()
        sim.make_controller(run_dir).run(T_END, max_root_steps=2)
        step, npz, _state = CheckpointPolicy.latest(run_dir)
        clean = file_sha256(npz)
        faults.apply_checkpoint_bitflip(npz)
        assert file_sha256(npz) != clean
        load_hierarchy(npz)  # no exception: silently wrong physics
        assert not verify_digest(npz)


# ----------------------------------------------------------- fault plumbing
class TestLivenessFaults:
    def test_parse_seconds_and_attempt(self):
        specs = faults.parse_spec(
            "hang:level=0,step=3,seconds=60,attempt=1;"
            "slow_step:seconds=0.5;io_stall:step=2;checkpoint_bitflip:step=4")
        assert [s.kind for s in specs] == \
            ["hang", "slow_step", "io_stall", "checkpoint_bitflip"]
        assert specs[0].seconds == 60.0 and specs[0].attempt == 1
        assert specs[1].seconds == 0.5
        assert specs[2].seconds is None

    def test_attempt_scoping(self):
        spec = faults.FaultSpec("hang", attempt=1, seconds=0.0)
        inj1 = faults.FaultInjector([spec], attempt=1)
        assert inj1.take("hang") is not None
        spec2 = faults.FaultSpec("hang", attempt=1, seconds=0.0)
        inj2 = faults.FaultInjector([spec2], attempt=2)
        assert inj2.take("hang") is None  # wrong episode: inert

    def test_maybe_sleep_uses_spec_seconds(self, monkeypatch):
        slept = []
        monkeypatch.setattr(faults.time, "sleep", slept.append)
        inj = faults.FaultInjector(
            [faults.FaultSpec("slow_step", seconds=0.125)])
        fire = inj.maybe_sleep("slow_step")
        assert fire is not None and slept == [0.125]
        assert inj.maybe_sleep("slow_step") is None  # budget spent
        assert slept == [0.125]

    def test_slow_step_is_bitwise_invisible(self, tmp_path):
        """Timing faults must never change physics."""
        sim_a = build_sim()
        sim_a.make_controller(str(tmp_path / "a")).run(
            T_END, max_root_steps=3)
        sim_b = build_sim()
        inj = sim_b.evolver.faults = faults.FaultInjector(
            [faults.FaultSpec("slow_step", level=0, count=3, seconds=0.01)])
        sim_b.make_controller(str(tmp_path / "b")).run(
            T_END, max_root_steps=3)
        assert inj.fired, "slow_step never fired"
        assert_hierarchies_identical(sim_a.hierarchy, sim_b.hierarchy)


# --------------------------------------------------- controller integration
class TestControllerIntegration:
    def test_run_writes_heartbeats(self, tmp_path):
        run_dir = str(tmp_path / "r")
        sim = build_sim()
        sim.make_controller(run_dir).run(T_END, max_root_steps=2)
        record = read_heartbeat(run_dir)
        assert record is not None
        assert record["step"] == 2
        assert record["phase"].startswith("exit:")
        assert record["seq"] > 2  # phase beats fired along the way

    def test_checkpoints_carry_digests(self, tmp_path):
        run_dir = str(tmp_path / "r")
        sim = build_sim()
        sim.make_controller(run_dir).run(T_END, max_root_steps=2)
        pairs = CheckpointPolicy.list_checkpoints(run_dir)
        assert pairs
        for _step, npz, state in pairs:
            assert verify_digest(npz, missing_ok=False)
            assert verify_digest(state, missing_ok=False)

    def test_rotation_removes_digests(self, tmp_path):
        run_dir = str(tmp_path / "r")
        sim = build_sim()
        policy = CheckpointPolicy(every_steps=1, keep_last=2)
        sim.make_controller(run_dir, policy=policy).run(
            T_END, max_root_steps=4)
        names = set(os.listdir(run_dir))
        sidecars = {n for n in names if n.endswith(".sha256")}
        assert sidecars == {
            "chk_0000003.npz.sha256", "chk_0000003.json.sha256",
            "chk_0000004.npz.sha256", "chk_0000004.json.sha256",
        }

    def test_resume_rejects_bitflipped_pair_and_stays_bit_exact(
            self, tmp_path):
        """End-to-end acceptance: the newest pair is silently corrupted;
        resume falls back to the older verified pair and still matches an
        uninterrupted run bit for bit."""
        n, total = 4, 6
        dir_a, dir_b = str(tmp_path / "a"), str(tmp_path / "b")
        sim_a = build_sim()
        sim_a.make_controller(dir_a).run(T_END, max_root_steps=total)

        sim_b = build_sim()
        policy = CheckpointPolicy(every_steps=2, keep_last=3)
        sim_b.make_controller(dir_b, policy=policy).run(
            T_END, max_root_steps=n)
        step, npz, _state = CheckpointPolicy.latest(dir_b)
        assert step == n
        faults.apply_checkpoint_bitflip(npz)

        sim_b2 = build_sim()
        ctl = sim_b2.make_controller(dir_b, policy=policy)
        out = ctl.resume(max_root_steps=total)
        assert out["steps"] == total
        assert_hierarchies_identical(sim_a.hierarchy, sim_b2.hierarchy)
        events = read_events(telemetry_path(dir_b))
        rejected = [e for e in events
                    if e.get("event") == "checkpoint_rejected"]
        assert rejected and rejected[0]["step"] == n
        assert rejected[0]["reason"] == "digest_mismatch"

    def test_injected_bitflip_fault_detected_on_resume(self, tmp_path):
        """The fault-kind path: checkpoint_bitflip fires inside
        _checkpoint, after the digest was written over good bytes."""
        run_dir = str(tmp_path / "r")
        sim = build_sim()
        sim.evolver.faults = faults.FaultInjector(
            [faults.FaultSpec("checkpoint_bitflip", step=2)])
        sim.make_controller(run_dir).run(T_END, max_root_steps=2)
        assert sim.evolver.faults.fired
        _step, npz, _state = CheckpointPolicy.latest(run_dir)
        assert not verify_digest(npz)

    def test_supervised_run_identical_to_unsupervised(self, tmp_path):
        """Heartbeats and digests are pure observation: byte-identical
        physics with or without them (here: vs the pre-supervision world,
        approximated by a second identical run — determinism holds)."""
        sim_a = build_sim()
        sim_a.make_controller(str(tmp_path / "a")).run(
            T_END, max_root_steps=3)
        sim_b = build_sim()
        sim_b.make_controller(str(tmp_path / "b")).run(
            T_END, max_root_steps=3)
        assert_hierarchies_identical(sim_a.hierarchy, sim_b.hierarchy)


# ------------------------------------------------------------------- scrub
class TestVerifyRunDir:
    def _run(self, tmp_path, steps=4):
        run_dir = str(tmp_path / "r")
        sim = build_sim()
        policy = CheckpointPolicy(every_steps=1, keep_last=4)
        sim.make_controller(run_dir, policy=policy).run(
            T_END, max_root_steps=steps)
        return run_dir

    def test_clean_dir_reports_ok(self, tmp_path):
        run_dir = self._run(tmp_path)
        report = verify_run_dir(run_dir)
        assert report["corrupt"] == []
        assert {e["status"] for e in report["checked"]} == {"ok"}

    def test_reports_corrupt_pair(self, tmp_path):
        run_dir = self._run(tmp_path)
        _step, npz, _state = CheckpointPolicy.latest(run_dir)
        faults.apply_checkpoint_bitflip(npz)
        report = verify_run_dir(run_dir)
        assert len(report["corrupt"]) == 1
        assert "digest mismatch" in report["corrupt"][0]["detail"]
        assert report["quarantined"] == []

    def test_quarantine_renames_pair(self, tmp_path):
        run_dir = self._run(tmp_path)
        step, npz, state = CheckpointPolicy.latest(run_dir)
        faults.apply_checkpoint_bitflip(npz)
        report = verify_run_dir(run_dir, quarantine=True)
        assert report["quarantined"] == [step]
        assert not os.path.exists(npz)
        assert os.path.exists(npz + QUARANTINE_SUFFIX)
        # recovery no longer sees the quarantined pair
        remaining = CheckpointPolicy.list_checkpoints(run_dir)
        assert step not in [s for s, _n, _j in remaining]

    def test_strict_flags_missing_sidecars(self, tmp_path):
        run_dir = self._run(tmp_path, steps=2)
        _step, npz, _state = CheckpointPolicy.latest(run_dir)
        os.unlink(digest_path(npz))
        assert verify_run_dir(run_dir)["corrupt"] == []  # lenient default
        strict = verify_run_dir(run_dir, strict=True)
        assert len(strict["corrupt"]) == 1

    def test_cli_chk_verify(self, tmp_path, capsys):
        from repro.__main__ import main

        run_dir = self._run(tmp_path, steps=2)
        assert main(["chk", "verify", run_dir]) == 0
        _step, npz, _state = CheckpointPolicy.latest(run_dir)
        faults.apply_checkpoint_bitflip(npz)
        assert main(["chk", "verify", run_dir, "--quarantine"]) == 1
        out = capsys.readouterr().out
        assert "corrupt" in out and "quarantined" in out
