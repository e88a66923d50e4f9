"""The task-based execution engine (serial / thread backends).

One :class:`ExecutionEngine` per :class:`HierarchyEvolver`.  The evolver
hands it the per-grid tasks of one level update (hydro sweeps, chemistry
advances, gravity accelerations); the engine orders and assigns them with
the Sec. 3.4 distribution strategies (fed by *measured* per-grid timings
via :class:`~repro.exec.calibration.WorkCalibrator`), executes them on the
selected backend, and reports per-worker busy times so the run telemetry
can carry real utilisation and load-imbalance figures.

Backends
--------
``serial``
    Tasks run inline, in the caller's thread, in submission order.
``thread``
    A shared :class:`ThreadPoolExecutor`; tasks operate directly on the
    live grid arrays (zero-copy) and the compiled kernels release the GIL
    while they run.  Each worker drains its own scheduler-assigned queue
    so per-worker busy time is meaningful.

Determinism: tasks on one level touch only their own grid and every task
runs the same code on the same inputs in place, so both backends and
every worker count produce bitwise identical hierarchies, and
checkpoints/resume work unchanged.

Pools are process-global (keyed by worker count), created lazily, and
drained at interpreter exit; SIGTERM drains therefore leave no orphaned
workers.
"""

from __future__ import annotations

import atexit
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter

from repro.exec.calibration import WorkCalibrator
from repro.exec.config import ExecConfig
from repro.exec.distribution import balance_grids
from repro.perf.timers import StepStats

#: distribution strategy that assigns tasks to worker queues
#: (see :func:`repro.exec.distribution.balance_grids`)
STRATEGY = "greedy"
#: dispatches with fewer tasks than this run inline (pool overhead cannot
#: pay for itself on one task)
MIN_PARALLEL_TASKS = 2


def _run_task(task) -> None:
    """Inline execution with error capture when the task supports it."""
    run_safe = getattr(task, "run_safe", None)
    if run_safe is not None:
        run_safe()
    else:
        task.run_inline()


# --------------------------------------------------------------------- pools
_POOLS: dict = {}


def _get_pool(workers: int) -> ThreadPoolExecutor:
    pool = _POOLS.get(workers)
    if pool is None:
        pool = _POOLS[workers] = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-exec"
        )
    return pool


def shutdown_pools(wait: bool = True) -> None:
    """Drain every shared worker pool (idempotent; also runs at exit)."""
    for pool in list(_POOLS.values()):
        pool.shutdown(wait=wait)
    _POOLS.clear()


atexit.register(shutdown_pools)


# ------------------------------------------------------------------- reports
class ExecReport:
    """What one dispatch measured: per-task times + per-worker busy time."""

    def __init__(self, backend: str, workers: int):
        self.backend = backend
        self.workers = int(workers)
        #: (kind, level, cells, seconds) per task, in submission order
        self.task_times: list[tuple] = []
        #: worker index -> busy seconds
        self.worker_busy: dict = defaultdict(float)
        self.dispatch_wall = 0.0

    def record(self, task, seconds: float, worker) -> None:
        self.task_times.append((task.kind, task.level, task.n_cells, seconds))
        self.worker_busy[worker] += seconds

    @property
    def n_tasks(self) -> int:
        return len(self.task_times)

    @property
    def kernel_seconds(self) -> dict:
        out: dict = defaultdict(float)
        for kind, _level, _cells, seconds in self.task_times:
            out[kind] += seconds
        return dict(out)

    @property
    def kind_counts(self) -> dict:
        out: dict = defaultdict(int)
        for kind, *_ in self.task_times:
            out[kind] += 1
        return dict(out)

    @property
    def busy_total(self) -> float:
        return float(sum(self.worker_busy.values()))

    @property
    def busy_max(self) -> float:
        return float(max(self.worker_busy.values(), default=0.0))

    @property
    def imbalance(self) -> float:
        """max/mean worker busy time over the configured pool (idle = 0)."""
        if not self.worker_busy or self.workers < 1:
            return 1.0
        mean = self.busy_total / self.workers
        if mean <= 0.0:
            return 1.0
        return self.busy_max / mean

    @property
    def overhead(self) -> float:
        """Dispatch wall time not covered by the busiest worker:
        scheduling and synchronisation — the engine's own cost."""
        return max(0.0, self.dispatch_wall - self.busy_max)


# -------------------------------------------------------------------- engine
class ExecutionEngine:
    """Dispatches per-grid tasks for one evolver.

    The engine object is cheap (pools are shared process-globals); each
    evolver owns one so its calibration state and per-root-step stats stay
    private.  ``stats`` is the step record's ``exec`` block, which the
    evolver resets at the top of every root step.
    """

    def __init__(self, config=None, calibrator: WorkCalibrator | None = None):
        self.config = ExecConfig.resolve(config)
        self.calibrator = calibrator or WorkCalibrator()
        self.stats = StepStats()

    # ----------------------------------------------------------- scheduling
    def plan_queues(self, tasks: list) -> list[list]:
        """Assign tasks to worker queues via the distribution strategies."""
        workers = self.config.workers
        if workers <= 1 or len(tasks) <= 1:
            return [list(tasks)]
        assignment = balance_grids(
            tasks, workers, STRATEGY, cost_model=self.calibrator,
        )
        queues: list[list] = [[] for _ in range(workers)]
        for task in tasks:
            queues[assignment[task.grid_id]].append(task)
        return queues

    # ------------------------------------------------------------- dispatch
    def run(self, tasks, level=None, timers=None) -> ExecReport:
        """Execute independent per-grid tasks in place.

        Returns the dispatch report (also folded into the calibrator and
        :attr:`stats`).  Given ``timers`` (a
        :class:`~repro.perf.timers.ComponentTimers`), it adds each task
        kind's measured seconds and the dispatch overhead ("exec") to them,
        the same way on every backend.
        """
        tasks = list(tasks)
        cfg = self.config
        report = ExecReport(cfg.backend, cfg.workers)
        if not tasks:
            return report
        t0 = perf_counter()
        if cfg.backend == "serial" or len(tasks) < MIN_PARALLEL_TASKS:
            self._run_inline(tasks, report)
        else:
            self._run_threads(tasks, report)
        report.dispatch_wall = perf_counter() - t0

        self.calibrator.observe_report(report)
        self._record(report, level)
        if timers is not None:
            for kind, seconds in report.kernel_seconds.items():
                timers.add_seconds(kind, seconds,
                                   count=report.kind_counts[kind])
            timers.add_seconds("exec", report.overhead)
        return report

    def _record(self, report: ExecReport, level) -> None:
        """Fold one joined dispatch into the per-root-step ``exec`` block:
        utilisation is busy / (workers * wall) over the step's dispatches,
        ``imbalance.L<k>`` the step's busy_max / busy_mean on level k."""
        stats = self.stats
        stats.add("dispatches")
        stats.add("tasks", report.n_tasks)
        stats.add("overhead", report.overhead)
        wall = report.dispatch_wall
        if wall > 0.0:
            stats.mean("utilisation",
                       report.busy_total / (report.workers * wall), wall)
        busy_mean = report.busy_total / report.workers
        if level is not None and busy_mean > 0.0:
            stats.mean(f"imbalance.L{int(level)}", report.imbalance,
                       busy_mean)

    # -------------------------------------------------------------- serial
    def _run_inline(self, tasks, report: ExecReport) -> None:
        for task in tasks:
            t0 = perf_counter()
            _run_task(task)
            report.record(task, perf_counter() - t0, 0)

    # ------------------------------------------------------------- threads
    def _run_threads(self, tasks, report: ExecReport) -> None:
        queues = self.plan_queues(tasks)
        pool = _get_pool(self.config.workers)

        def drain(queue):
            times = []
            for task in queue:
                t0 = perf_counter()
                _run_task(task)
                times.append(perf_counter() - t0)
            return times

        futures = [
            (idx, queue, pool.submit(drain, queue))
            for idx, queue in enumerate(queues)
            if queue
        ]
        for idx, queue, future in futures:
            for task, seconds in zip(queue, future.result()):
                report.record(task, seconds, idx)
