"""Run-service tests: registry, ledger, preempt/resume identity, chaos.

The expensive acceptance scenarios run real simulations through a live
daemon: a preempted-and-resumed run must be bitwise identical to an
uninterrupted one (serial and thread exec backends), and a poisoned run
must burn down inside its own subprocess while co-scheduled clean runs
finish untouched.
"""

import json
import os
import threading
import time

import pytest

from repro.exec import LedgerError, WorkerLedger
from repro.runtime.checkpoint_policy import CheckpointPolicy
from repro.runtime.supervision import read_heartbeat
from repro.runtime.telemetry import (
    JsonlFollower,
    follow_events,
    read_events,
)
from repro.service import (
    CANCELLED,
    DONE,
    FAILED,
    PREEMPTED,
    QUEUED,
    RUNNING,
    TERMINAL_STATES,
    IllegalTransitionError,
    InProcessLauncher,
    RunRegistry,
    RunService,
    ServiceClient,
    SubprocessLauncher,
    UnknownRunError,
    resolve_launcher,
)
from repro.service.specs import RunJob


def blob_spec(max_steps=12, **overrides):
    """The small deterministic self-gravitating workload the runtime
    tests evolve, expressed as a service run spec."""
    spec = {
        "problem": "simulation",
        "t_end": 0.5,
        "kwargs": {"n_root": 8, "max_level": 1, "self_gravity": True,
                   "refine_overdensity": 3.0, "g_code": 2.0, "cfl": 0.3},
        "preset": "blob",
        "preset_args": {"n_particles": 20},
        "checkpoint_every": 2,
        "keep_last": 3,
        "max_steps": max_steps,
    }
    spec.update(overrides)
    return spec


# ---------------------------------------------------------------- registry
class TestRegistry:
    def test_submit_assigns_monotonic_ids(self, tmp_path):
        registry = RunRegistry(tmp_path)
        a = registry.submit({"problem": "simulation"})
        b = registry.submit({"problem": "simulation"})
        assert (a.run_id, b.run_id) == ("r000001", "r000002")
        assert a.state == QUEUED

    def test_spec_is_persisted_verbatim(self, tmp_path):
        registry = RunRegistry(tmp_path)
        spec = blob_spec()
        record = registry.submit(spec)
        assert registry.load_spec(record.run_id) == spec

    def test_legal_lifecycle(self, tmp_path):
        registry = RunRegistry(tmp_path)
        rid = registry.submit({}).run_id
        for state in (RUNNING, PREEMPTED, RUNNING, DONE):
            registry.transition(rid, state)
        record = registry.load(rid)
        assert record.state == DONE
        assert record.attempts == 2
        assert record.preemptions == 1
        assert record.terminal

    @pytest.mark.parametrize("path,bad", [
        ((), RUNNING and PREEMPTED),          # QUEUED -> PREEMPTED
        ((), DONE),                            # QUEUED -> DONE
        ((RUNNING, DONE), RUNNING),            # DONE is terminal
        ((RUNNING, FAILED), QUEUED),           # FAILED is terminal
        ((CANCELLED,), RUNNING),               # CANCELLED is terminal
        ((RUNNING, PREEMPTED), DONE),          # must resume first
    ])
    def test_illegal_transitions_raise(self, tmp_path, path, bad):
        registry = RunRegistry(tmp_path)
        rid = registry.submit({}).run_id
        for state in path:
            registry.transition(rid, state)
        before = registry.load(rid).state
        with pytest.raises(IllegalTransitionError):
            registry.transition(rid, bad)
        assert registry.load(rid).state == before  # atomic: unchanged

    def test_unknown_run_raises(self, tmp_path):
        registry = RunRegistry(tmp_path)
        with pytest.raises(UnknownRunError):
            registry.load("r999999")
        with pytest.raises(UnknownRunError):
            registry.transition("r999999", RUNNING)

    def test_journal_records_every_edge(self, tmp_path):
        registry = RunRegistry(tmp_path)
        rid = registry.submit({}).run_id
        registry.transition(rid, RUNNING)
        registry.transition(rid, DONE)
        events = read_events(registry.journal_path)
        kinds = [e["event"] for e in events]
        assert kinds == ["submit", "transition", "transition"]
        assert [e["to"] for e in events[1:]] == [RUNNING, DONE]

    def test_state_file_always_valid_json(self, tmp_path):
        # the atomic replace means a reader never sees a torn state.json
        registry = RunRegistry(tmp_path)
        rid = registry.submit({}).run_id
        stop = threading.Event()
        errors = []

        def reader():
            while not stop.is_set():
                try:
                    registry.load(rid)
                except UnknownRunError:
                    errors.append("missing")
                except Exception as exc:
                    errors.append(repr(exc))

        thread = threading.Thread(target=reader)
        thread.start()
        for _ in range(30):
            registry.transition(rid, RUNNING)
            registry.transition(rid, PREEMPTED)
        stop.set()
        thread.join()
        assert errors == []


class TestCrashRestart:
    def test_recover_requeues_running_without_checkpoint(self, tmp_path):
        registry = RunRegistry(tmp_path)
        rid = registry.submit({}).run_id
        registry.transition(rid, RUNNING)
        # simulate daemon crash: new registry instance over the same root
        healed = RunRegistry(tmp_path).recover()
        assert healed == [(rid, QUEUED)]
        assert RunRegistry(tmp_path).load(rid).state == QUEUED

    def test_recover_preempts_running_with_checkpoint(self, tmp_path):
        registry = RunRegistry(tmp_path)
        rid = registry.submit(blob_spec(max_steps=3)).run_id
        # produce a real checkpoint in the run's controller dir
        RunJob(blob_spec(max_steps=3),
               registry.controller_dir(rid)).execute()
        registry.transition(rid, RUNNING)
        healed = RunRegistry(tmp_path).recover()
        assert healed == [(rid, PREEMPTED)]

    def test_recover_leaves_terminal_states_alone(self, tmp_path):
        registry = RunRegistry(tmp_path)
        rid = registry.submit({}).run_id
        registry.transition(rid, RUNNING)
        registry.transition(rid, DONE)
        assert RunRegistry(tmp_path).recover() == []
        # and the state machine still rejects illegal edges afterwards
        with pytest.raises(IllegalTransitionError):
            RunRegistry(tmp_path).transition(rid, RUNNING)

    def test_ids_keep_monotonic_across_restart(self, tmp_path):
        RunRegistry(tmp_path).submit({})
        assert RunRegistry(tmp_path).submit({}).run_id == "r000002"


# ------------------------------------------------------------------ ledger
class TestWorkerLedger:
    def test_lease_and_release(self):
        ledger = WorkerLedger(4)
        ledger.lease("a", 3)
        assert ledger.available() == 1
        assert ledger.release("a") == 3
        assert ledger.available() == 4

    def test_overcommit_raises(self):
        ledger = WorkerLedger(4)
        ledger.lease("a", 3)
        with pytest.raises(LedgerError):
            ledger.lease("b", 2)
        ledger.lease("b", 1)  # exact fit is fine

    def test_double_lease_raises(self):
        ledger = WorkerLedger(4)
        ledger.lease("a", 1)
        with pytest.raises(LedgerError):
            ledger.lease("a", 1)

    def test_release_is_idempotent(self):
        ledger = WorkerLedger(2)
        assert ledger.release("ghost") == 0

    def test_snapshot(self):
        ledger = WorkerLedger(4)
        ledger.lease("b", 1)
        ledger.lease("a", 2)
        assert ledger.snapshot() == {
            "total": 4, "in_use": 3, "leases": {"a": 2, "b": 1}}


# ----------------------------------------------------- telemetry tolerance
class TestTornTelemetry:
    def test_read_events_skips_torn_line_mid_file(self, tmp_path):
        path = tmp_path / "telemetry.jsonl"
        path.write_text('{"event": "start"}\n'
                        '{"event": "step", "st'      # torn by a crash
                        '\n{"event": "checkpoint"}\n')
        events = read_events(str(path))
        assert [e["event"] for e in events] == ["start", "checkpoint"]

    def test_follower_buffers_partial_lines(self, tmp_path):
        path = tmp_path / "telemetry.jsonl"
        follower = JsonlFollower(str(path))
        assert follower.poll() == []          # file does not exist yet
        with open(path, "w") as fh:
            fh.write('{"event": "a"}\n{"event"')
        assert [e["event"] for e in follower.poll()] == ["a"]
        with open(path, "a") as fh:
            fh.write(': "b"}\n')
        assert [e["event"] for e in follower.poll()] == ["b"]
        assert follower.poll() == []

    def test_follow_events_generator_stops_when_drained(self, tmp_path):
        path = tmp_path / "telemetry.jsonl"
        with open(path, "w") as fh:
            fh.write('{"event": "a"}\n{"event": "b"}\n')
        seen = [e["event"] for e in follow_events(
            str(path), poll_interval=0.01, stop=lambda: True)]
        assert seen == ["a", "b"]


# ------------------------------------------------- checkpoint retention pin
class TestResumeAnchorPin:
    def test_rotation_never_deletes_the_resume_anchor(self, tmp_path):
        # preempt a run, then resume with keep_last=1 and checkpoints on
        # every step: the pair the resume restarted from must survive
        # until a newer pair lands, however aggressive the retention
        run_dir = str(tmp_path / "run")
        spec = blob_spec(max_steps=10, checkpoint_every=1, keep_last=1)
        job = RunJob(spec, run_dir)
        job.request_drain("test")  # drains at the first step boundary
        first = job.execute()
        assert first["outcome"] == "preempted"
        resumed = RunJob(spec, run_dir).execute()
        assert resumed["outcome"] == "done"
        assert CheckpointPolicy.latest(run_dir) is not None


# ----------------------------------------------------------- daemon basics
def start_service(tmp_path, **kwargs):
    kwargs.setdefault("total_workers", 2)
    kwargs.setdefault("launcher", "inprocess")
    kwargs.setdefault("tick_interval", 0.02)
    service = RunService(str(tmp_path / "svc"), **kwargs)
    service.start()
    return service, ServiceClient(service.root)


def wait_for_state(client, run_id, state, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        entry = client.status(run_id)
        if entry["state"] == state:
            return entry
        if entry["state"] in TERMINAL_STATES:
            raise AssertionError(
                f"{run_id} reached {entry['state']} while waiting for "
                f"{state}: {entry}")
        time.sleep(0.02)
    raise AssertionError(f"timed out waiting for {run_id} -> {state}")


def wait_for_checkpoint(service, run_id, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if service.registry.has_checkpoint(run_id):
            return
        time.sleep(0.02)
    raise AssertionError(f"no checkpoint appeared for {run_id}")


def wait_for_heartbeat(service, run_id, ready, timeout=60.0):
    """Poll the run's heartbeat sidecar until ``ready(record)`` holds."""
    run_dir = service.registry.controller_dir(run_id)
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        record = read_heartbeat(run_dir)
        if record is not None and ready(record):
            return record
        time.sleep(0.02)
    raise AssertionError(f"heartbeat of {run_id} never got there: "
                         f"{read_heartbeat(run_dir)}")


class TestDaemon:
    def test_ping_reports_budget(self, tmp_path):
        service, client = start_service(tmp_path)
        try:
            reply = client.ping()
            assert reply["workers"]["total"] == 2
        finally:
            service.shutdown()

    def test_submit_run_done_roundtrip(self, tmp_path):
        service, client = start_service(tmp_path)
        try:
            rid = client.submit(blob_spec(max_steps=4))
            entry = client.wait(rid, timeout=120)[rid]
            assert entry["state"] == DONE
            assert entry["result"]["outcome"] == "done"
            assert entry["result"]["steps"] == 4
        finally:
            service.shutdown()

    def test_cancel_queued_run(self, tmp_path):
        service, client = start_service(tmp_path, total_workers=1)
        try:
            blocker = client.submit(blob_spec(max_steps=8))
            victim = client.submit(blob_spec(max_steps=8))
            wait_for_state(client, blocker, RUNNING)
            client.cancel(victim)
            assert client.status(victim)["state"] == CANCELLED
            client.cancel(blocker)
            entry = client.wait(blocker, timeout=120)[blocker]
            assert entry["state"] == CANCELLED
        finally:
            service.shutdown()

    def test_unknown_ops_and_runs_are_refused(self, tmp_path):
        from repro.service import ServiceError

        service, client = start_service(tmp_path)
        try:
            with pytest.raises(ServiceError, match="unknown run"):
                client.cancel("r999999")
            with pytest.raises(ServiceError, match="unknown op"):
                client.request("frobnicate")
        finally:
            service.shutdown()

    def test_worker_budget_is_respected(self, tmp_path):
        service, client = start_service(tmp_path, total_workers=1)
        try:
            first = client.submit(blob_spec(max_steps=6))
            second = client.submit(blob_spec(max_steps=6))
            wait_for_state(client, first, RUNNING)
            assert client.status(second)["state"] == QUEUED
            assert service.ledger.in_use() == 1
            entries = client.wait([first, second], timeout=240)
            assert all(e["state"] == DONE for e in entries.values())
        finally:
            service.shutdown()

    def test_telemetry_multiplexed_into_journal(self, tmp_path):
        service, client = start_service(tmp_path)
        try:
            rid = client.submit(blob_spec(max_steps=3))
            client.wait(rid, timeout=120)
        finally:
            service.shutdown()
        muxed = [e for e in read_events(service.registry.journal_path)
                 if e["event"] == "run_telemetry" and e["run"] == rid]
        kinds = {e["record"]["event"] for e in muxed}
        assert "step" in kinds

    def test_logs_op_returns_run_telemetry(self, tmp_path):
        service, client = start_service(tmp_path)
        try:
            rid = client.submit(blob_spec(max_steps=3))
            client.wait(rid, timeout=120)
            reply = client.logs(rid, n=5)
            assert reply["total"] > 0
            assert len(reply["events"]) <= 5
        finally:
            service.shutdown()

    def test_launchers_have_one_name_each(self):
        assert isinstance(resolve_launcher("inprocess"), InProcessLauncher)
        assert isinstance(resolve_launcher("subprocess"), SubprocessLauncher)
        assert isinstance(resolve_launcher(None), SubprocessLauncher)
        for alias in ("thread", "process"):
            with pytest.raises(ValueError, match="'subprocess' or "
                                                 "'inprocess'"):
                resolve_launcher(alias)


class TestPriorityScheduling:
    def test_high_priority_preempts_lower(self, tmp_path):
        service, client = start_service(tmp_path, total_workers=1)
        try:
            low = client.submit(blob_spec(max_steps=10), priority=0)
            wait_for_state(client, low, RUNNING)
            wait_for_checkpoint(service, low)
            high = client.submit(blob_spec(max_steps=4), priority=5)
            entry = client.wait(high, timeout=240)[high]
            assert entry["state"] == DONE
            low_entry = client.wait(low, timeout=240)[low]
            assert low_entry["state"] == DONE
            assert low_entry["preemptions"] >= 1
            # the preempted run still produced the full trajectory
            assert low_entry["result"]["steps"] == 10
        finally:
            service.shutdown()


# --------------------------------------------- preempt/resume == identity
class TestPreemptResumeIdentity:
    def _identity_roundtrip(self, tmp_path, launcher, backend):
        overrides = {}
        if backend != "serial":
            overrides = {"kwargs": {**blob_spec()["kwargs"],
                                    "exec_backend": backend, "workers": 2}}
        spec = blob_spec(max_steps=10, **overrides)
        service, client = start_service(
            tmp_path, total_workers=4, launcher=launcher,
            tick_interval=0.05)
        try:
            reference = client.submit(spec, tenant="ref")
            victim = client.submit(spec, tenant="victim")
            wait_for_state(client, victim, RUNNING)
            wait_for_checkpoint(service, victim)
            client.preempt(victim)
            entries = client.wait([reference, victim], timeout=300)
        finally:
            service.shutdown()
        ref, vic = entries[reference], entries[victim]
        assert ref["state"] == DONE and vic["state"] == DONE
        assert vic["preemptions"] >= 1, "preemption never landed"
        assert ref["preemptions"] == 0
        assert vic["result"]["fingerprint"] == \
            ref["result"]["fingerprint"], \
            "preempted-and-resumed run diverged from uninterrupted one"

    def test_identity_serial_backend_thread_drain(self, tmp_path):
        self._identity_roundtrip(tmp_path, "inprocess", "serial")

    def test_identity_serial_backend_sigint_drain(self, tmp_path):
        self._identity_roundtrip(tmp_path, "subprocess", "serial")

    def test_identity_thread_backend_sigint_drain(self, tmp_path):
        self._identity_roundtrip(tmp_path, "subprocess", "thread")


# ------------------------------------------------------------------- chaos
class TestChaosContainment:
    def test_poisoned_run_is_contained(self, tmp_path):
        """A run carrying nan_cell + checkpoint_truncate burns down
        inside its own subprocess: it reaches a terminal
        state with its rung trail in the service journal, while
        co-scheduled clean runs finish with zero rollbacks and matching
        fingerprints."""
        clean = blob_spec(max_steps=6, kwargs={
            **blob_spec()["kwargs"], "exec_backend": "thread",
            "workers": 2})
        poison = dict(clean)
        poison["faults"] = ("nan_cell:level=0,grid=0,step=3,count=99;"
                            "checkpoint_truncate:step=4")
        poison["fault_seed"] = 7
        service, client = start_service(
            tmp_path, total_workers=4, launcher="subprocess",
            tick_interval=0.05)
        try:
            poisoned = client.submit(poison, tenant="chaos")
            clean_a = client.submit(clean, tenant="clean")
            clean_b = client.submit(clean, tenant="clean")
            entries = client.wait([poisoned, clean_a, clean_b],
                                  timeout=420)
        finally:
            service.shutdown()

        assert entries[poisoned]["state"] in TERMINAL_STATES
        for rid in (clean_a, clean_b):
            assert entries[rid]["state"] == DONE
            assert entries[rid]["result"]["recoveries"] == 0, \
                "a clean run rolled back — chaos leaked across runs"
        assert entries[clean_a]["result"]["fingerprint"] == \
            entries[clean_b]["result"]["fingerprint"]

        # the poisoned run's defense-ladder trail is in the journal
        trail = [
            e for e in read_events(service.registry.journal_path)
            if e["event"] == "run_telemetry" and e["run"] == poisoned
            and e["record"]["event"] in ("defense", "recovery", "rollback")
        ]
        assert trail, "no rung trail for the poisoned run in the journal"

    def test_inprocess_poisoned_run_is_contained(self, tmp_path):
        """The same containment with all three runs on threads of one
        interpreter: the poisoned run's injector lives on its own evolver,
        so the clean runs neither roll back nor drift from a standalone
        unfaulted run.  (No ``grid=`` pin: grid ids are process-wide, so
        the root is grid 0 only in a fresh process.)"""
        clean = blob_spec(max_steps=6)
        reference = RunJob(clean, str(tmp_path / "ref")).execute()
        poison = dict(clean)
        poison["faults"] = ("nan_cell:level=0,step=3,count=99;"
                            "checkpoint_truncate:step=4")
        poison["fault_seed"] = 7
        service, client = start_service(
            tmp_path, total_workers=4, launcher="inprocess",
            tick_interval=0.05)
        try:
            poisoned = client.submit(poison, tenant="chaos")
            clean_a = client.submit(clean, tenant="clean")
            clean_b = client.submit(clean, tenant="clean")
            entries = client.wait([poisoned, clean_a, clean_b],
                                  timeout=420)
        finally:
            service.shutdown()

        assert entries[poisoned]["state"] in TERMINAL_STATES
        for rid in (clean_a, clean_b):
            assert entries[rid]["state"] == DONE
            assert entries[rid]["result"]["recoveries"] == 0, \
                "a clean run rolled back — chaos leaked across runs"
            assert entries[rid]["result"]["fingerprint"] == \
                reference["fingerprint"]
        trail = [
            e for e in read_events(service.registry.journal_path)
            if e["event"] == "run_telemetry" and e["run"] == poisoned
            and e["record"]["event"] == "recovery"
        ]
        assert trail, "the poisoned run never rolled back"

    def test_worker_result_file_is_atomic(self, tmp_path):
        # a torn result.json must read as "no result yet", not garbage:
        # the launcher only trusts a complete record
        from repro.service.launcher import SubprocessHandle

        class FakeProc:
            returncode = 3

            def poll(self):
                return 3

        run_dir = tmp_path / "reg" / "run"
        run_dir.mkdir(parents=True)
        (tmp_path / "reg" / "result.json").write_text('{"outcome": "do')
        handle = SubprocessHandle("r1", FakeProc(), str(run_dir))
        result = handle.poll()
        assert result["outcome"] == "failed"
        assert "without a result" in result["error"]


# ------------------------------------------------------------- supervision
def tight_policy(**overrides):
    """A supervision policy scaled to test time: fixed short staleness
    deadline (floor == ceiling, so calibration cannot stretch it), short
    grace, fast requeue backoff."""
    from repro.runtime.supervision import SupervisionPolicy

    kwargs = dict(deadline_floor=4.0, deadline_ceiling=4.0,
                  grace_seconds=0.5, max_strikes=3,
                  backoff_base=0.05, backoff_cap=0.2)
    kwargs.update(overrides)
    return SupervisionPolicy(**kwargs)


def processes_naming(path, settle: float = 5.0):
    """Command lines of live processes that mention ``path``; killed ones
    get ``settle`` seconds to leave the process table."""
    deadline = time.monotonic() + settle
    while True:
        found = []
        for pid in filter(str.isdigit, os.listdir("/proc")):
            try:
                with open(f"/proc/{pid}/cmdline", "rb") as fh:
                    cmdline = fh.read().replace(b"\0", b" ").decode(
                        errors="replace")
            except OSError:
                continue  # exited while we looked
            if str(path) in cmdline:
                found.append(f"{pid}: {cmdline}")
        if not found or time.monotonic() >= deadline:
            return found
        time.sleep(0.1)


class TestSupervision:
    def _hang_kill_resume_identity(self, tmp_path, backend):
        """Acceptance: a run hung by an injected fault is detected,
        killed, requeued with backoff and resumed bit-exactly."""
        overrides = {}
        if backend != "serial":
            overrides = {"kwargs": {**blob_spec()["kwargs"],
                                    "exec_backend": backend, "workers": 2}}
        clean = blob_spec(max_steps=8, **overrides)
        reference = RunJob(clean, str(tmp_path / "ref")).execute()
        assert reference["outcome"] == "done"

        hung = dict(clean)
        # wedge episode 1 inside root step 3 for longer than any drain
        # can wait; episode 2 (the supervised requeue) runs clean
        hung["faults"] = "hang:level=0,step=3,seconds=120,attempt=1"
        service, client = start_service(
            tmp_path, total_workers=2, launcher="subprocess",
            tick_interval=0.05, supervision=tight_policy())
        try:
            rid = client.submit(hung, tenant="chaos")
            entry = client.wait(rid, timeout=300)[rid]
        finally:
            service.shutdown()
        # the kill takes the worker's whole process group: nothing the
        # hung episode started is left sleeping in the injected hang
        assert processes_naming(tmp_path) == []
        assert entry["state"] == DONE
        assert entry["attempts"] >= 2, "the hung episode was never killed"
        assert entry["result"]["fingerprint"] == reference["fingerprint"], \
            "supervised kill-resume diverged from an uninterrupted run"
        events = read_events(service.registry.journal_path)
        kinds = {e["event"] for e in events if e.get("run") == rid}
        assert "stall_detected" in kinds
        assert "supervisor_kill" in kinds
        assert "stall_requeue" in kinds

    def test_hang_kill_resume_identity_serial(self, tmp_path):
        self._hang_kill_resume_identity(tmp_path, "serial")

    def test_hang_kill_resume_identity_thread(self, tmp_path):
        self._hang_kill_resume_identity(tmp_path, "thread")

    def test_io_stall_contained_and_tick_loop_stays_live(self, tmp_path):
        """A checkpoint write wedged on dead storage stalls only its own
        run: the daemon tick keeps scheduling, a co-scheduled clean run
        finishes untouched, and the stalled run recovers on attempt 2."""
        clean = blob_spec(max_steps=6)
        stalled = dict(clean)
        stalled["faults"] = "io_stall:step=2,seconds=120,attempt=1"
        service, client = start_service(
            tmp_path, total_workers=2, launcher="subprocess",
            tick_interval=0.05, supervision=tight_policy())
        try:
            bad = client.submit(stalled, tenant="chaos")
            good = client.submit(clean, tenant="clean")
            good_entry = client.wait(good, timeout=120)[good]
            assert good_entry["state"] == DONE, \
                "clean run starved behind an io_stall — tick loop wedged"
            assert good_entry["preemptions"] == 0
            bad_entry = client.wait(bad, timeout=300)[bad]
        finally:
            service.shutdown()
        assert bad_entry["state"] == DONE
        assert bad_entry["attempts"] >= 2
        assert bad_entry["result"]["fingerprint"] == \
            good_entry["result"]["fingerprint"]

    def test_retry_budget_exhaustion_quarantines(self, tmp_path):
        """A run that hangs on every attempt walks the full strike
        ladder into quarantine, with the trail journalled."""
        spec = blob_spec(max_steps=8)
        spec["faults"] = "hang:level=0,step=1,seconds=120,count=99"
        service, client = start_service(
            tmp_path, total_workers=2, launcher="subprocess",
            tick_interval=0.05,
            supervision=tight_policy(max_strikes=2))
        try:
            rid = client.submit(spec, tenant="chaos")
            deadline = time.monotonic() + 300
            while time.monotonic() < deadline:
                entry = client.status(rid)
                if entry["state"] in TERMINAL_STATES:
                    break
                time.sleep(0.1)
        finally:
            service.shutdown()
        assert entry["state"] == FAILED
        assert entry["note"] == "stalled"
        assert entry["strikes"] == 2
        events = [e for e in read_events(service.registry.journal_path)
                  if e.get("run") == rid]
        kinds = [e["event"] for e in events]
        assert kinds.count("stall_detected") >= 2
        assert "stall_requeue" in kinds
        assert "quarantined" in kinds
        # the lease came back: nothing still holds a worker
        assert service.ledger.in_use() == 0

    def test_wall_budget_enforced_daemon_side(self, tmp_path):
        """max_wall_seconds from the spec is policed by the daemon: the
        run is drained and quarantined as budget_exceeded."""
        # a far t_end leaves max_steps to bound the run: blob_spec's own
        # t_end is reached in 11 steps, which the compiled kernel tier
        # can finish inside the 0.3 s budget
        spec = blob_spec(max_steps=200, t_end=50.0)
        spec["max_wall_seconds"] = 0.3
        service, client = start_service(tmp_path, total_workers=2)
        try:
            rid = client.submit(spec)
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                entry = client.status(rid)
                if entry["state"] in TERMINAL_STATES:
                    break
                time.sleep(0.05)
        finally:
            service.shutdown()
        assert entry["state"] == FAILED
        assert entry["note"] == "budget_exceeded"
        events = [e for e in read_events(service.registry.journal_path)
                  if e.get("run") == rid]
        assert any(e["event"] == "budget_exceeded" for e in events)

    def test_ps_reports_heartbeat_and_queue_position(self, tmp_path):
        service, client = start_service(tmp_path, total_workers=1)
        try:
            running = client.submit(blob_spec(max_steps=8))
            queued = client.submit(blob_spec(max_steps=8))
            wait_for_state(client, running, RUNNING)
            deadline = time.monotonic() + 60
            entry = None
            while time.monotonic() < deadline:
                entry = client.status(running)
                if entry["state"] != RUNNING:
                    break  # already finished: heartbeat column is moot
                if "heartbeat_age_seconds" in entry:
                    break
                time.sleep(0.05)
            if entry["state"] == RUNNING:
                assert entry["heartbeat_age_seconds"] >= 0.0
            queued_entry = client.status(queued)
            if queued_entry["state"] == QUEUED:
                assert queued_entry["queue_position"] == 1
            client.cancel(queued)
            client.wait(running, timeout=120)
        finally:
            service.shutdown()

    def test_wait_timeout_names_states_and_heartbeats(self, tmp_path):
        from repro.service import ServiceError

        service, client = start_service(tmp_path, total_workers=1)
        try:
            rid = client.submit(blob_spec(max_steps=12))
            wait_for_state(client, rid, RUNNING)
            with pytest.raises(ServiceError) as err:
                client.wait(rid, timeout=0.2)
            message = str(err.value)
            assert rid in message
            assert RUNNING in message
            assert "heartbeat" in message
            client.wait(rid, timeout=120)
        finally:
            service.shutdown()

    def test_shutdown_drain_timeout_is_journalled(self, tmp_path):
        """Satellite fix: a handle still alive at the shutdown drain
        deadline gets a distinct drain_timeout event, a hard kill, an
        explicit lease release, and an unambiguous requeue state."""
        spec = blob_spec(max_steps=8)
        spec["faults"] = "hang:level=0,step=0,seconds=120"
        service, client = start_service(
            tmp_path, total_workers=2, launcher="subprocess",
            tick_interval=0.05)  # default (generous) supervision
        try:
            rid = client.submit(spec, tenant="chaos")
            wait_for_state(client, rid, RUNNING)
            # not the checkpoint's .npz: it lands before its sidecars and
            # before the step loop starts, and a drain in that gap ends the
            # run "before first step".  Step 0 beyond the build, start and
            # checkpoint beats is the controller's "root_step" beat (or a
            # level-sweep phase after it): the worker is wedged in root
            # step 0's level sweep
            wait_for_heartbeat(service, rid, lambda hb: hb["step"] == 0 and
                               hb["phase"] not in ("build", "start",
                                                   "checkpoint"))
        finally:
            service.shutdown(drain=True, timeout=1.0)
        events = read_events(service.registry.journal_path)
        assert any(e["event"] == "drain_timeout" and e.get("run") == rid
                   for e in events)
        assert service.ledger.in_use() == 0
        record = RunRegistry(service.root).load(rid)
        assert record.state in (QUEUED, PREEMPTED)
        assert not service._handles


# ---------------------------------------------------------------- recovery
class TestDaemonCrashRestart:
    def test_second_daemon_resumes_orphaned_run(self, tmp_path):
        """Kill a daemon mid-run (no drain); a fresh daemon over the same
        root must recover the orphan through the registry and finish it,
        producing the same fingerprint as an uninterrupted run."""
        root = tmp_path / "svc"
        spec = blob_spec(max_steps=8)
        reference = RunJob(spec, str(tmp_path / "ref")).execute()
        assert reference["outcome"] == "done"

        service, client = start_service(tmp_path, total_workers=1)
        try:
            orphan = client.submit(spec, tenant="orphan")
            wait_for_state(client, orphan, RUNNING)
            wait_for_checkpoint(service, orphan)
        finally:
            # hard stop: no drain and no reaping, simulating a daemon
            # crash — the registry is left claiming RUNNING
            service._stop.set()
            if service._tick_thread is not None:
                service._tick_thread.join(timeout=5.0)
            if service._sock is not None:
                service._sock.close()
                service._sock = None
            try:
                os.unlink(os.path.join(service.root, "service.sock"))
            except FileNotFoundError:
                pass
        # wait out the in-process episode so the restart sees a settled
        # checkpoint directory (a real crash would have killed it dead)
        for handle in service._handles.values():
            handle.job.request_drain("crash")
            while handle.poll() is None:
                time.sleep(0.02)
        assert RunRegistry(str(root)).load(orphan).state == RUNNING

        service2 = RunService(str(root), total_workers=1,
                              launcher="inprocess", tick_interval=0.02)
        service2.start()
        client2 = ServiceClient(str(root))
        try:
            entry = client2.wait(orphan, timeout=240)[orphan]
        finally:
            service2.shutdown()
        assert entry["state"] == DONE
        assert entry["preemptions"] >= 1  # the crash-recovery edge
        assert entry["result"]["fingerprint"] == reference["fingerprint"]

        # the crash-restart edge is journalled
        events = read_events(os.path.join(str(root), "journal.jsonl"))
        starts = [e for e in events if e["event"] == "service_start"]
        assert len(starts) == 2
        assert any(r["run"] == orphan for r in starts[1]["recovered"])
