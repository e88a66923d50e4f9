"""Persistent run registry: one directory per run, a crash-safe state machine.

The registry is the service's durable truth.  Every submitted run owns a
directory under ``<service root>/runs/<run_id>/``::

    spec.json     — the immutable run spec (problem, kwargs, budgets)
    state.json    — the mutable RunRecord (state machine, counters), always
                    replaced atomically so a crash can never leave it torn
    run/          — the RunController's run_dir: checkpoints + telemetry

State machine::

    QUEUED ──────► RUNNING ──────► DONE | FAILED
      │               │
      │               ├──────────► PREEMPTED ──► RUNNING (resume)
      │               │                │
      ▼               ▼                ▼
    CANCELLED ◄── CANCELLED        CANCELLED

plus the crash-recovery edge ``RUNNING → QUEUED`` (daemon restarted and
found a RUNNING record with no live worker and no checkpoint to resume
from).  Any other transition raises :class:`IllegalTransitionError` —
including after a crash-restart, which is what the legality tests drive.

Every transition is appended to the service journal
(``<root>/journal.jsonl``) *after* the atomic state replace, so the
journal is a complete, ordered audit trail of what the registry believes.
"""

from __future__ import annotations

import json
import os
import re
import threading
import time
from dataclasses import asdict, dataclass, field

from repro.runtime.checkpoint_policy import CheckpointPolicy

# ----------------------------------------------------------------- states
QUEUED = "QUEUED"
RUNNING = "RUNNING"
PREEMPTED = "PREEMPTED"
DONE = "DONE"
FAILED = "FAILED"
CANCELLED = "CANCELLED"

STATES = (QUEUED, RUNNING, PREEMPTED, DONE, FAILED, CANCELLED)
TERMINAL_STATES = frozenset({DONE, FAILED, CANCELLED})

#: legal edges; RUNNING -> QUEUED is the crash-requeue edge (no checkpoint)
LEGAL_TRANSITIONS = {
    QUEUED: frozenset({RUNNING, CANCELLED}),
    RUNNING: frozenset({PREEMPTED, DONE, FAILED, CANCELLED, QUEUED}),
    PREEMPTED: frozenset({RUNNING, CANCELLED}),
    DONE: frozenset(),
    FAILED: frozenset(),
    CANCELLED: frozenset(),
}

_RUN_ID_RE = re.compile(r"^r(\d{6})$")


class IllegalTransitionError(RuntimeError):
    """A state change the run lifecycle does not allow."""

    def __init__(self, run_id: str, current: str, requested: str):
        self.run_id = run_id
        self.current = current
        self.requested = requested
        super().__init__(
            f"run {run_id}: illegal transition {current} -> {requested}"
        )


class UnknownRunError(KeyError):
    """No run with that id in the registry."""


@dataclass
class RunRecord:
    """The mutable per-run record behind ``state.json``.

    Scheduling inputs (``priority``, ``tenant``, ``workers``) are copied
    out of the spec at submit time so the scheduler never has to re-read
    spec files; counters accumulate across preempt/resume cycles.
    """

    run_id: str
    state: str = QUEUED
    tenant: str = "default"
    #: larger = more important; preemption needs a *strictly* larger value
    priority: int = 0
    #: workers this run occupies while RUNNING (its exec-pool share)
    workers: int = 1
    #: submission sequence number — total order for FIFO tie-breaks
    seq: int = 0
    submitted_at: float = 0.0
    started_at: float | None = None
    finished_at: float | None = None
    #: RUNNING episodes so far (1 = never preempted)
    attempts: int = 0
    preemptions: int = 0
    #: wall seconds accumulated over completed RUNNING episodes
    wall: float = 0.0
    #: analytic size estimate (root cells) used before any run has been
    #: measured; the daemon feeds measured wall times into a WorkCalibrator
    cells: int = 0
    #: stall strikes accumulated by the supervisor; quarantine at the
    #: policy's max_strikes
    strikes: int = 0
    #: scheduler hold-down: a QUEUED/PREEMPTED run is not eligible to
    #: start before this wall-clock time (supervisor requeue backoff)
    not_before: float | None = None
    #: set when the run reaches a terminal state
    result: dict = field(default_factory=dict)
    #: why the last transition happened (preempt reason, failure message)
    note: str = ""

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES


class RunRegistry:
    """Directory-backed registry of runs plus the service journal.

    All mutation goes through :meth:`submit` and :meth:`transition`; both
    write ``state.json`` atomically (temp + ``os.replace``) before
    journalling, so a crash between the two loses only the journal line,
    never the state.  The class is thread-safe: the daemon's socket
    threads and scheduler tick share one instance.
    """

    def __init__(self, root: str):
        self.root = str(root)
        self.runs_dir = os.path.join(self.root, "runs")
        os.makedirs(self.runs_dir, exist_ok=True)
        self.journal_path = os.path.join(self.root, "journal.jsonl")
        self._lock = threading.RLock()
        self._seq = self._highest_existing() + 1

    # ------------------------------------------------------------- layout
    def run_dir(self, run_id: str) -> str:
        return os.path.join(self.runs_dir, run_id)

    def spec_path(self, run_id: str) -> str:
        return os.path.join(self.run_dir(run_id), "spec.json")

    def state_path(self, run_id: str) -> str:
        return os.path.join(self.run_dir(run_id), "state.json")

    def controller_dir(self, run_id: str) -> str:
        """The RunController run_dir (checkpoints + telemetry.jsonl)."""
        return os.path.join(self.run_dir(run_id), "run")

    def _highest_existing(self) -> int:
        highest = 0
        for name in os.listdir(self.runs_dir):
            m = _RUN_ID_RE.match(name)
            if m is not None:
                highest = max(highest, int(m.group(1)))
        return highest

    # ------------------------------------------------------------ journal
    def journal(self, event: str, **payload) -> None:
        """Append one event to the service journal (append + flush)."""
        record = {"event": event, "ts": round(time.time(), 6)}
        record.update(payload)
        with self._lock:
            with open(self.journal_path, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(record) + "\n")

    # ------------------------------------------------------------- submit
    def submit(self, spec: dict, *, tenant: str = "default",
               priority: int = 0, workers: int = 1) -> RunRecord:
        """Register a new run in QUEUED and journal the submission."""
        if workers < 1:
            raise ValueError("workers must be >= 1")
        with self._lock:
            seq = self._seq
            self._seq += 1
            run_id = f"r{seq:06d}"
            rdir = self.run_dir(run_id)
            os.makedirs(os.path.join(rdir, "run"), exist_ok=True)
            atomic_write_json(self.spec_path(run_id), dict(spec))
            record = RunRecord(
                run_id=run_id, tenant=str(tenant), priority=int(priority),
                workers=int(workers), seq=seq, submitted_at=time.time(),
                cells=_spec_cells(spec),
            )
            self._write(record)
            self.journal("submit", run=run_id, tenant=record.tenant,
                         priority=record.priority, workers=record.workers)
            return record

    # -------------------------------------------------------------- reads
    def load(self, run_id: str) -> RunRecord:
        try:
            with open(self.state_path(run_id), encoding="utf-8") as fh:
                data = json.load(fh)
        except FileNotFoundError:
            raise UnknownRunError(run_id) from None
        return RunRecord(**data)

    def load_spec(self, run_id: str) -> dict:
        try:
            with open(self.spec_path(run_id), encoding="utf-8") as fh:
                return json.load(fh)
        except FileNotFoundError:
            raise UnknownRunError(run_id) from None

    def list_runs(self) -> list[RunRecord]:
        """Every registered run, in submission order."""
        records = []
        for name in sorted(os.listdir(self.runs_dir)):
            if _RUN_ID_RE.match(name) and \
                    os.path.exists(self.state_path(name)):
                records.append(self.load(name))
        records.sort(key=lambda r: r.seq)
        return records

    def has_checkpoint(self, run_id: str) -> bool:
        """A preempted/crashed run can resume iff a loadable pair exists."""
        return CheckpointPolicy.latest(self.controller_dir(run_id)) is not None

    # --------------------------------------------------------- transitions
    def transition(self, run_id: str, new_state: str, *, note: str = "",
                   **updates) -> RunRecord:
        """Atomically move a run to ``new_state``; journal the edge.

        ``updates`` are extra RunRecord fields to set in the same atomic
        write (e.g. ``result=...`` together with ``DONE``).  Raises
        :class:`IllegalTransitionError` for edges the lifecycle forbids.
        """
        if new_state not in STATES:
            raise ValueError(f"unknown state {new_state!r}")
        with self._lock:
            record = self.load(run_id)
            if new_state not in LEGAL_TRANSITIONS[record.state]:
                raise IllegalTransitionError(run_id, record.state, new_state)
            previous = record.state
            record.state = new_state
            record.note = str(note)
            now = time.time()
            if new_state == RUNNING:
                record.started_at = now
                record.attempts += 1
                record.not_before = None  # hold-down consumed
            if new_state == PREEMPTED:
                record.preemptions += 1
            if new_state in TERMINAL_STATES:
                record.finished_at = now
            for key, value in updates.items():
                if not hasattr(record, key):
                    raise AttributeError(f"RunRecord has no field {key!r}")
                setattr(record, key, value)
            self._write(record)
            self.journal("transition", run=run_id, **{"from": previous},
                         to=new_state, note=record.note,
                         attempts=record.attempts,
                         preemptions=record.preemptions)
            return record

    def recover(self) -> list[tuple[str, str]]:
        """Heal the registry after a daemon crash-restart.

        Any RUNNING record necessarily lost its worker when the daemon
        died.  With a loadable checkpoint it becomes PREEMPTED (it will
        resume bit-exactly); without one it is requeued from scratch.
        Returns the applied ``(run_id, new_state)`` edges.
        """
        healed = []
        with self._lock:
            for record in self.list_runs():
                if record.state != RUNNING:
                    continue
                target = PREEMPTED if self.has_checkpoint(record.run_id) \
                    else QUEUED
                self.transition(record.run_id, target,
                                note="daemon crash-restart")
                healed.append((record.run_id, target))
        return healed

    # ------------------------------------------------------------ plumbing
    def _write(self, record: RunRecord) -> None:
        atomic_write_json(self.state_path(record.run_id), asdict(record))


def atomic_write_json(path: str, payload: dict) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def _spec_cells(spec: dict) -> int:
    """Analytic problem-size estimate (root cells) from a run spec."""
    kwargs = spec.get("kwargs", {})
    n_root = int(kwargs.get("n_root", 8))
    return n_root ** 3
