"""Task-based execution engine for per-grid work.

The paper's parallel design (Sec. 3.4) distributes the many small
same-level grids over workers; this package makes that real for the live
code: :class:`ExecutionEngine` runs independent per-grid tasks (hydro
sweeps, chemistry advances, gravity accelerations) in place on the live
grid arrays — ``serial`` (today's exact path) or on a ``thread`` pool (the
compiled kernels release the GIL) — while the scheduler reuses the
Sec. 3.4 greedy distribution strategy, costed by cell count.
Results are bitwise identical across backends and worker counts.  See
``docs/EXECUTOR.md``.
"""

from repro.exec.accounting import LedgerError, WorkerLedger
from repro.exec.calibration import WorkCalibrator
from repro.exec.config import BACKENDS, ENV_BACKEND, ENV_WORKERS, ExecConfig
from repro.exec.engine import (
    ExecReport,
    ExecutionEngine,
    shutdown_pools,
)
from repro.exec.tasks import ChemistryTask, GravityAccelTask, GridTask, HydroTask

__all__ = [
    "BACKENDS",
    "ENV_BACKEND",
    "ENV_WORKERS",
    "ChemistryTask",
    "ExecConfig",
    "ExecReport",
    "ExecutionEngine",
    "GravityAccelTask",
    "GridTask",
    "HydroTask",
    "LedgerError",
    "WorkCalibrator",
    "WorkerLedger",
    "shutdown_pools",
]
