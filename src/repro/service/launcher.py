"""Run launchers: how the daemon turns a scheduling decision into work.

Two interchangeable strategies behind one handle interface:

:class:`SubprocessLauncher` (production default)
    Each RUNNING episode is a ``repro service-worker`` child process.
    Preemption sends SIGINT, which the controller's
    :class:`~repro.runtime.recovery.SignalGuard` turns into the standard
    drain-to-checkpoint at the next root-step boundary.  Isolation is
    structural: an injected ``hang`` or ``checkpoint_truncate``
    inside one run can only touch that child's process tree and files,
    and per-run fault specs travel in the child's environment
    (``REPRO_FAULTS``), never the daemon's.

:class:`InProcessLauncher` (tests, embedding)
    Episodes run on daemon threads via
    :meth:`~repro.runtime.controller.RunController.request_drain` — the
    same drain path minus the signal, with no interpreter start-up cost,
    which is what makes the preempt/resume bitwise-identity tests cheap
    enough for tier 1.  Fault-carrying specs are refused: the injector is
    process-global, so in-process chaos would leak into co-scheduled runs
    — exactly the blast radius the service exists to prevent.

A handle's :meth:`poll` is non-blocking and returns the result record
once the episode ended; the daemon maps it onto registry transitions.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading

from repro.service.specs import RunJob

RESULT_NAME = "result.json"


def result_path(run_dir: str) -> str:
    """The worker's result drop next to (not inside) the controller dir."""
    return os.path.join(os.path.dirname(run_dir), RESULT_NAME)


class RunHandle:
    """Common interface over a live RUNNING episode."""

    run_id: str

    def poll(self) -> dict | None:
        """Result record once finished, else None (never blocks)."""
        raise NotImplementedError

    def preempt(self, reason: str = "preempt") -> None:
        """Ask the episode to drain to checkpoint and stop."""
        raise NotImplementedError

    def kill(self) -> None:
        """Hard-stop the episode (no drain); used on daemon shutdown."""
        raise NotImplementedError


# ----------------------------------------------------------------- threads
class InProcessHandle(RunHandle):
    def __init__(self, run_id: str, job: RunJob):
        self.run_id = run_id
        self.job = job
        self._result: dict | None = None
        self._thread = threading.Thread(
            target=self._main, name=f"svc-{run_id}", daemon=True)
        self._thread.start()

    def _main(self) -> None:
        try:
            self._result = self.job.execute()
        except Exception as exc:  # spec/build error: the run failed
            self._result = {"outcome": "failed", "error": repr(exc)}

    def poll(self) -> dict | None:
        if self._thread.is_alive():
            return None
        self._thread.join()
        return self._result

    def preempt(self, reason: str = "preempt") -> None:
        self.job.request_drain(reason)

    def kill(self) -> None:
        # no hard-stop for a thread: request the cooperative drain and
        # let the daemon's shutdown join with a timeout
        self.job.request_drain("shutdown")


class InProcessLauncher:
    """Run episodes on daemon threads (fast, shared interpreter)."""

    name = "inprocess"

    def launch(self, run_id: str, spec: dict, run_dir: str,
               attempt: int | None = None) -> RunHandle:
        if spec.get("faults"):
            raise ValueError(
                "fault-carrying specs need the subprocess launcher: the "
                "injector is process-global and would poison co-scheduled "
                "runs"
            )
        return InProcessHandle(run_id, RunJob(spec, run_dir))


# -------------------------------------------------------------- subprocess
class SubprocessHandle(RunHandle):
    def __init__(self, run_id: str, proc: subprocess.Popen, run_dir: str):
        self.run_id = run_id
        self.proc = proc
        self.run_dir = str(run_dir)

    def poll(self) -> dict | None:
        if self.proc.poll() is None:
            return None
        path = result_path(self.run_dir)
        try:
            with open(path, encoding="utf-8") as fh:
                return json.load(fh)
        except (OSError, json.JSONDecodeError):
            # the child died before writing a result (OOM, SIGKILL, bug)
            return {
                "outcome": "failed",
                "error": f"worker exited {self.proc.returncode} "
                         f"without a result",
            }

    def preempt(self, reason: str = "preempt") -> None:
        try:
            self.proc.send_signal(signal.SIGINT)
        except (ProcessLookupError, OSError):
            pass  # already gone; poll() will reap it

    def kill(self) -> None:
        # the worker leads its own session (start_new_session), so its
        # process group is the worker plus whatever it spawned — children
        # would otherwise outlive it, still asleep in whatever wedged the
        # episode
        if self.proc.poll() is not None:
            return  # already reaped: the pid may no longer be ours
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except OSError:
            pass  # gone between the poll and the signal
        try:
            self.proc.wait(timeout=5.0)
        except subprocess.TimeoutExpired:
            pass  # unkillable for now (e.g. in a dead mount); poll() reaps


class SubprocessLauncher:
    """One ``repro service-worker`` child per RUNNING episode."""

    name = "subprocess"

    def __init__(self, python: str | None = None):
        self.python = python or sys.executable

    def launch(self, run_id: str, spec: dict, run_dir: str,
               attempt: int | None = None) -> RunHandle:
        # a stale result from a previous episode must never be mistaken
        # for this episode's outcome if the worker dies before writing
        try:
            os.unlink(result_path(run_dir))
        except FileNotFoundError:
            pass
        env = dict(os.environ)
        # per-run chaos gate: fault specs are scoped to this child only
        env.pop("REPRO_FAULTS", None)
        env.pop("REPRO_FAULTS_SEED", None)
        env.pop("REPRO_FAULT_ATTEMPT", None)
        if spec.get("faults"):
            env["REPRO_FAULTS"] = str(spec["faults"])
            if spec.get("fault_seed") is not None:
                env["REPRO_FAULTS_SEED"] = str(spec["fault_seed"])
        if attempt is not None:
            # which RUNNING episode this is (1-based) — lets `attempt=N`
            # fault sites fire in one episode but not its resume
            env["REPRO_FAULT_ATTEMPT"] = str(int(attempt))
        src_root = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))))
        existing = env.get("PYTHONPATH", "")
        if src_root not in existing.split(os.pathsep):
            env["PYTHONPATH"] = (
                src_root + (os.pathsep + existing if existing else "")
            )
        proc = subprocess.Popen(
            [self.python, "-m", "repro", "service-worker",
             "--run-dir", run_dir,
             "--spec", os.path.join(os.path.dirname(run_dir), "spec.json")],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            start_new_session=True,  # daemon signals never hit workers
        )
        return SubprocessHandle(run_id, proc, run_dir)


def resolve_launcher(name_or_obj):
    """``"subprocess"`` | ``"inprocess"`` | a launcher instance."""
    if hasattr(name_or_obj, "launch"):
        return name_or_obj
    if name_or_obj in (None, "subprocess", "process"):
        return SubprocessLauncher()
    if name_or_obj in ("inprocess", "thread"):
        return InProcessLauncher()
    raise ValueError(f"unknown launcher {name_or_obj!r}")
