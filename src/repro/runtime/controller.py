"""RunController: the fault-tolerant advance loop.

Steps the hierarchy one ``HierarchyEvolver.advance_root_step`` at a time,
like every other driver, and wraps each root step with the run-control
services a weeks-long job needs:

* **durable checkpoints** — atomic hierarchy dumps plus a
  :class:`~repro.runtime.checkpoint_policy.RunState` record (clock words,
  per-level subcycle counters, CFL, RNG state, problem config) written as
  a pair, rotated to a keep-count, so ``resume()`` continues *bit-exactly*
  where ``run()`` stopped;
* **crash recovery** — a :class:`~repro.runtime.recovery.Watchdog` scans
  the state after each root step; on NaN/Inf (or a NaN timestep raised by
  the evolver) the controller rolls back to the newest loadable
  checkpoint, retries with a reduced CFL, and gives up only after
  ``RecoveryPolicy.max_retries`` consecutive trips without progress;
* **clean drains** — SIGINT/SIGTERM set a flag that is honoured at the
  next root-step boundary: checkpoint, telemetry epilogue, orderly return;
* **structured telemetry** — one JSONL record per root step (see
  :mod:`repro.runtime.telemetry`) plus checkpoint/recovery/lifecycle
  events.

Bit-exactness contract: ``run(2N steps)`` and ``run(N) -> resume(N)``
produce identical hierarchies because (a) the hierarchy npz round-trips
every array and every DoubleDouble word pair exactly, (b) the RunState
restores the evolver's per-level step counters (which drive the hydro
sweep permutation), CFL, gravity mean density and the global RNG, and
(c) both paths advance through the same ``advance_root_step`` code path.
"""

from __future__ import annotations

import os
import threading
import time
from collections import defaultdict

from repro.gravity.multigrid import MultigridConvergenceError
from repro.io.checkpoint import (
    CheckpointError,
    load_hierarchy,
    save_hierarchy,
)
from repro.precision.doubledouble import DoubleDouble
from repro.runtime.faults import apply_checkpoint_bitflip
from repro.runtime.checkpoint_policy import (
    CheckpointPolicy,
    RunState,
    digest_path,
    restore_rng_state,
    verify_digest,
    write_digest,
)
from repro.runtime.recovery import (
    NonFiniteStateError,
    RecoveryPolicy,
    RunFailedError,
    SignalGuard,
    Watchdog,
)
from repro.runtime.supervision import HeartbeatWriter
from repro.runtime.telemetry import (
    TelemetryWriter,
    run_setup,
    step_record,
    telemetry_path,
)


class RunController:
    """Fault-tolerant driver around a :class:`HierarchyEvolver`.

    Parameters
    ----------
    evolver:
        The configured :class:`repro.amr.evolve.HierarchyEvolver`.
    run_dir:
        Directory for checkpoints and ``telemetry.jsonl`` (created).
    policy / recovery / watchdog:
        Optional overrides of :class:`CheckpointPolicy`,
        :class:`RecoveryPolicy`, :class:`Watchdog`.
    problem:
        Optional owner object (``Simulation`` / ``PrimordialCollapse``)
        whose ``hierarchy`` attribute is kept in sync across rollbacks.
    pre_step:
        Optional callback ``pre_step(controller)`` invoked before every
        root step (e.g. to poison a cell or send a signal, the way the
        recovery and drain tests do).
    config:
        JSON-serialisable problem spec stored in every RunState so the
        CLI can rebuild the evolver on ``resume``.
    """

    def __init__(self, evolver, run_dir: str, *, policy=None, recovery=None,
                 watchdog=None, problem=None, pre_step=None, config=None):
        self.evolver = evolver
        self.run_dir = str(run_dir)
        self.policy = policy or CheckpointPolicy()
        self.recovery = recovery or RecoveryPolicy()
        self.watchdog = watchdog or Watchdog()
        self.problem = problem
        self.pre_step = pre_step
        self.config = dict(config or {})
        self.step = 0
        self.t_end: float = 0.0
        self.max_root_steps: int | None = None
        self.recoveries = 0
        self._retries = 0
        self._highest_failed_step = -1
        self._last_checkpoint_step = -1
        #: checkpoint step a resume() restarted from; pinned against
        #: rotation until a newer checkpoint is durably on disk
        self._resume_anchor: int | None = None
        self._drain = threading.Event()
        self._drain_reason: str | None = None
        self.telemetry: TelemetryWriter | None = None
        #: liveness sidecar (repro.runtime.supervision); the service
        #: daemon reads it every tick to judge staleness externally
        self.heartbeat: HeartbeatWriter | None = None

    # ---------------------------------------------------------------- drain
    def request_drain(self, reason: str = "drain") -> None:
        """Ask the loop to stop at the next root-step boundary.

        This is the same code path a SIGINT takes — checkpoint, telemetry
        epilogue, orderly ``"interrupted"`` return — but callable from
        another thread, which is how the run service preempts a job it
        wants to checkpoint and requeue.  Safe to call at any time,
        including before ``run()``/``resume()``.
        """
        self._drain_reason = str(reason)
        self._drain.set()

    # ------------------------------------------------------------ accessors
    @property
    def hierarchy(self):
        return self.evolver.hierarchy

    # ------------------------------------------------------------ heartbeat
    def _start_heartbeat(self, phase: str) -> None:
        """Create the liveness sidecar and hook sub-step phase beats.

        Heartbeats never touch simulation state — a supervised run is
        bitwise identical to an unsupervised one; they only make its
        progress externally observable.
        """
        self.heartbeat = HeartbeatWriter(self.run_dir)
        self.heartbeat.beat(step=self.step, phase=phase, force=True)
        if hasattr(self.evolver, "phase_hook"):
            self.evolver.phase_hook = self._phase_beat

    def _phase_beat(self, section: str) -> None:
        """Rate-limited beat at an evolver sub-step phase boundary."""
        if self.heartbeat is not None:
            self.heartbeat.beat(phase=section)

    def _beat(self, phase: str) -> None:
        if self.heartbeat is not None:
            self.heartbeat.beat(step=self.step, phase=phase, force=True)

    # -------------------------------------------------------------- control
    def run(self, t_end: float, max_root_steps: int | None = None) -> dict:
        """Fresh start: checkpoint the initial state, then advance."""
        os.makedirs(self.run_dir, exist_ok=True)
        self.t_end = float(t_end)
        self.max_root_steps = max_root_steps
        self.step = 0
        self.telemetry = TelemetryWriter(telemetry_path(self.run_dir))
        self._start_heartbeat("start")
        self.telemetry.emit("start", t_end=self.t_end,
                            max_root_steps=max_root_steps,
                            config=self.config, **run_setup(self.evolver))
        self._checkpoint()
        return self._loop()

    def resume(self, max_root_steps: int | None = None,
               t_end: float | None = None) -> dict:
        """Continue from the newest *verified* checkpoint in ``run_dir``."""
        # telemetry first: _latest_loadable emits checkpoint_rejected
        # events for any pair it has to skip over
        self.telemetry = TelemetryWriter(telemetry_path(self.run_dir))
        self._start_heartbeat("resume")
        step, hierarchy, state = self._latest_loadable()
        self._install(hierarchy, state)
        # rotation must never delete the pair we just restarted from until
        # a newer checkpoint exists: a preempt right after resume would
        # otherwise have nothing bit-exact to fall back to
        self._resume_anchor = step
        self.t_end = float(t_end) if t_end is not None else float(state.t_end)
        self.max_root_steps = (
            max_root_steps if max_root_steps is not None
            else state.max_root_steps
        )
        self.recoveries = int(state.recoveries)
        if state.config and not self.config:
            self.config = dict(state.config)
        self.telemetry.emit("resume", step=self.step, t=float(state.t_hi),
                            t_end=self.t_end,
                            max_root_steps=self.max_root_steps,
                            **run_setup(self.evolver))
        return self._loop()

    # ----------------------------------------------------------------- loop
    def _loop(self) -> dict:
        ev = self.evolver
        wall_start = time.monotonic()
        status = "finished"
        with SignalGuard() as guard:
            while True:
                if self.max_root_steps is not None and \
                        self.step >= self.max_root_steps:
                    status = "max_steps"
                    break
                if guard.triggered or self._drain.is_set():
                    status = "interrupted"
                    break
                if self.pre_step is not None:
                    self.pre_step(self)
                self._beat("root_step")
                try:
                    dt = ev.advance_root_step(self.t_end)
                    if dt is not None:
                        self.watchdog.check(ev.hierarchy, dt)
                except (FloatingPointError, NonFiniteStateError,
                        MultigridConvergenceError) as exc:
                    self._recover(str(exc))
                    continue
                if dt is None:  # root clock has reached t_end
                    break
                self.step += 1
                if self.step > self._highest_failed_step:
                    self._retries = 0
                self._beat("step_done")
                self.telemetry.emit("step", **step_record(ev, self.step, dt))
                self._drain_defense(self.step)
                if self.policy.due(self.step):
                    self._checkpoint()
                if guard.triggered or self._drain.is_set():
                    status = "interrupted"
                    break
            self._checkpoint()
            summary = {
                "status": status,
                "steps": self.step,
                "t": float(ev.hierarchy.root.time),
                "recoveries": self.recoveries,
                "wall": round(time.monotonic() - wall_start, 3),
                "run_dir": self.run_dir,
            }
            if guard.triggered:
                summary["signal"] = guard.triggered
            if self._drain.is_set() and self._drain_reason is not None:
                summary["drain"] = self._drain_reason
            self._beat(f"exit:{status}")
            self.telemetry.emit(
                "interrupted" if status == "interrupted" else "finish",
                **summary,
            )
            self.telemetry.close()
        return summary

    def _drain_defense(self, step: int) -> None:
        """Forward queued defense-ladder events into the telemetry stream."""
        if self.telemetry is None:
            return
        for event in self.evolver.defense.drain_events():
            self.telemetry.emit("defense", step=step, **event)

    # ----------------------------------------------------------- checkpoint
    def _checkpoint(self) -> str:
        """Write the (hierarchy, RunState) pair + sha256 sidecars."""
        data_path = self.policy.data_path(self.run_dir, self.step)
        if self._last_checkpoint_step == self.step:
            return data_path  # already durable for this step
        state_path = self.policy.state_path(self.run_dir, self.step)
        self._beat("checkpoint")
        faults = self.evolver.faults
        if faults is not None:
            # injected dead-storage stall: the write blocks and the
            # heartbeat goes stale, which is how the daemon's supervisor
            # catches it
            faults.maybe_sleep("io_stall", step=self.step)
        with self.evolver.timers.section("io"):
            save_hierarchy(self.evolver.hierarchy, data_path)
        # digest the *good* bytes before any injected post-write rot, so
        # the corruption faults below are exactly what verification catches
        write_digest(data_path)
        if faults is not None:
            if faults.take("checkpoint_truncate", step=self.step) is not None:
                # injected disk-full/torn-write: chop the npz in half so
                # recovery must skip this pair and fall back to an older one
                size = os.path.getsize(data_path)
                with open(data_path, "r+b") as fh:
                    fh.truncate(max(size // 2, 1))
            if faults.take("checkpoint_bitflip", step=self.step) is not None:
                # injected silent corruption: the npz still loads cleanly;
                # only the digest sidecar can tell it has rotted
                apply_checkpoint_bitflip(data_path)
        state = RunState.capture(
            self.evolver,
            step=self.step,
            t_end=self.t_end,
            max_root_steps=self.max_root_steps,
            config=self.config,
            checkpoint=os.path.basename(data_path),
            recoveries=self.recoveries,
        )
        state.save(state_path)
        write_digest(state_path)
        self._last_checkpoint_step = self.step
        if self._resume_anchor is not None and self.step > self._resume_anchor:
            self._resume_anchor = None  # a newer durable pair supersedes it
        removed = self.policy.rotate(self.run_dir, pin=self._resume_anchor)
        if self.telemetry is not None:
            self.telemetry.emit("checkpoint", step=self.step,
                                path=os.path.basename(data_path),
                                rotated_out=removed)
        return data_path

    def _latest_loadable(self) -> tuple[int, object, RunState]:
        """Newest checkpoint pair that verifies and loads (skips corrupt ones).

        Digest verification runs first: a bitflipped npz still loads
        cleanly, so the sha256 sidecars are the only thing standing
        between silent corruption and a poisoned trajectory.  Pairs
        written before digests existed (no sidecar) verify by default.
        """
        pairs = CheckpointPolicy.list_checkpoints(self.run_dir)
        last_error: Exception | None = None
        for step, npz, state_path in reversed(pairs):
            bad = None
            if not verify_digest(npz):
                bad = os.path.basename(npz)
            elif not verify_digest(state_path):
                bad = os.path.basename(state_path)
            if bad is not None:
                last_error = CheckpointError(f"digest mismatch: {bad}")
                if self.telemetry is not None:
                    self.telemetry.emit("checkpoint_rejected", step=step,
                                        path=bad, reason="digest_mismatch")
                continue
            try:
                with self.evolver.timers.section("io"):
                    hierarchy = load_hierarchy(npz)
                state = RunState.load(state_path)
            except (CheckpointError, OSError, ValueError) as exc:
                last_error = exc
                if self.telemetry is not None:
                    self.telemetry.emit("checkpoint_rejected", step=step,
                                        path=os.path.basename(npz),
                                        reason=str(exc))
                continue
            return step, hierarchy, state
        raise CheckpointError(
            f"no loadable checkpoint in {self.run_dir!r}"
            + (f" (last error: {last_error})" if last_error else "")
        )

    def _install(self, hierarchy, state: RunState,
                 cfl: float | None = None) -> None:
        """Swap a restored hierarchy + RunState into the live objects."""
        ev = self.evolver
        ev.hierarchy = hierarchy
        hierarchy.timers = ev.timers
        ev.step_counter = defaultdict(
            int, {int(k): int(v) for k, v in state.step_counter.items()}
        )
        ev.cfl = float(cfl) if cfl is not None else float(state.cfl)
        if ev.gravity is not None and state.gravity_mean_density is not None:
            ev.gravity.mean_density = float(state.gravity_mean_density)
        if state.rng_state:
            restore_rng_state(state.rng_state)
        if self.problem is not None and hasattr(self.problem, "hierarchy"):
            self.problem.hierarchy = hierarchy
        self.step = int(state.step)
        # any checkpoint beyond the restored step belongs to the abandoned
        # trajectory — never dedup against it
        self._last_checkpoint_step = -1

    # ------------------------------------------------------------- recovery
    def _recover(self, reason: str) -> None:
        """Roll back to the last good checkpoint and retry, CFL reduced."""
        failed_step = self.step + 1
        # events queued by the failed step must not be attributed to the
        # replayed one
        self._drain_defense(failed_step)
        self._highest_failed_step = max(self._highest_failed_step,
                                        failed_step)
        if self._retries >= self.recovery.max_retries:
            if self.telemetry is not None:
                self.telemetry.emit("failed", step=failed_step,
                                    reason=reason,
                                    retries=self._retries)
                self.telemetry.close()
            raise RunFailedError(
                f"run failed at root step {failed_step} after "
                f"{self._retries} rollback retries: {reason}"
            )
        self._retries += 1
        self.recoveries += 1
        step, hierarchy, state = self._latest_loadable()
        new_cfl = self.recovery.reduced_cfl(self.evolver.cfl)
        self._install(hierarchy, state, cfl=new_cfl)
        self._resume_anchor = step
        # drop checkpoints ahead of the rollback point: they belong to the
        # abandoned trajectory and must never be restored from again
        for s, npz, state_path in CheckpointPolicy.list_checkpoints(
                self.run_dir):
            if s > step:
                for path in (npz, state_path,
                             digest_path(npz), digest_path(state_path)):
                    try:
                        os.remove(path)
                    except OSError:
                        pass
        if self.telemetry is not None:
            self.telemetry.emit("recovery", step=failed_step, reason=reason,
                                rollback_step=step, cfl=new_cfl,
                                attempt=self._retries)
