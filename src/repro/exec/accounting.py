"""Shared worker-pool accounting for multi-run operation.

The execution engine's thread pools are process-global (keyed by worker
count) and each :class:`~repro.exec.engine.ExecutionEngine` sizes
its dispatches as if it owned the machine.  That is correct for one run;
a run *service* packing several concurrent runs onto the same host needs
one ledger that answers "how much of the shared budget is spoken for?"
before it launches the next run — and it needs leases to survive daemon
bookkeeping in one place, whatever launcher (thread or subprocess) is
behind each run.

:class:`WorkerLedger` is that ledger: thread-safe lease/release of worker
slots against a fixed total.  The run-service daemon takes a lease before
starting a run and releases it when the run's handle is reaped, so the
sum of live leases never exceeds the budget the operator gave the
service, regardless of how individual runs size their pools.
"""

from __future__ import annotations

import threading


class LedgerError(RuntimeError):
    """A lease request that the budget cannot satisfy."""


class WorkerLedger:
    """Fixed-budget worker accounting for co-scheduled runs.

    Not a pool: it never creates workers, it only tracks who is entitled
    to how many.  The daemon consults :meth:`available` when applying
    scheduler decisions and the CLI's ``ps`` renders :meth:`snapshot`.
    """

    def __init__(self, total: int):
        if total < 1:
            raise ValueError("total workers must be >= 1")
        self.total = int(total)
        self._leases: dict[str, int] = {}
        self._lock = threading.Lock()

    # -------------------------------------------------------------- leases
    def lease(self, owner: str, workers: int) -> None:
        """Reserve ``workers`` slots for ``owner``; raises on overcommit."""
        workers = int(workers)
        if workers < 1:
            raise ValueError("lease must be >= 1 worker")
        with self._lock:
            if owner in self._leases:
                raise LedgerError(f"{owner!r} already holds a lease")
            in_use = sum(self._leases.values())
            if in_use + workers > self.total:
                raise LedgerError(
                    f"lease of {workers} for {owner!r} exceeds budget: "
                    f"{in_use}/{self.total} in use"
                )
            self._leases[owner] = workers

    def release(self, owner: str) -> int:
        """Free an owner's lease; returns the freed count (0 if absent —
        release is idempotent so reap paths never have to care)."""
        with self._lock:
            return self._leases.pop(owner, 0)

    # ------------------------------------------------------------- queries
    def held(self, owner: str) -> int:
        with self._lock:
            return self._leases.get(owner, 0)

    def in_use(self) -> int:
        with self._lock:
            return sum(self._leases.values())

    def available(self) -> int:
        return self.total - self.in_use()

    def snapshot(self) -> dict:
        """JSON-friendly view for ``ps`` output and the service journal."""
        with self._lock:
            return {
                "total": self.total,
                "in_use": sum(self._leases.values()),
                "leases": dict(sorted(self._leases.items())),
            }
