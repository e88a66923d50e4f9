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
    Today's exact code path: tasks run inline, in submission order, with
    the same component-timer attribution as before the engine existed.
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
from repro.parallel.distribution import balance_grids

#: distribution strategy that assigns tasks to worker queues
#: (see :func:`repro.parallel.distribution.balance_grids`)
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
        #: True when tasks ran inline under the caller's component timers
        #: (serial path) — kernel seconds are then already attributed
        self.inline_timed = False

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


class StepExecStats:
    """Aggregates dispatch reports across one root step (all levels)."""

    def __init__(self):
        self.dispatches = 0
        self.tasks = 0
        self.busy = 0.0
        self.wall = 0.0
        self.overhead = 0.0
        #: level -> [sum of busy_max, sum of busy_mean] across dispatches
        self.per_level: dict = defaultdict(lambda: [0.0, 0.0])

    def absorb(self, level, report: ExecReport) -> None:
        self.dispatches += 1
        self.tasks += report.n_tasks
        self.busy += report.busy_total
        self.wall += report.dispatch_wall
        self.overhead += report.overhead
        if level is not None and report.workers >= 1:
            acc = self.per_level[int(level)]
            acc[0] += report.busy_max
            acc[1] += report.busy_total / report.workers

    def snapshot(self, backend: str, workers: int) -> dict:
        """JSON-native summary for the telemetry step record."""
        return {
            "backend": backend,
            "workers": int(workers),
            "dispatches": self.dispatches,
            "tasks": self.tasks,
            "overhead": round(self.overhead, 6),
            "utilisation": (
                round(self.busy / (workers * self.wall), 4)
                if self.wall > 0.0 and workers >= 1
                else 1.0
            ),
            "imbalance": {
                str(level): round(acc[0] / acc[1], 4)
                for level, acc in sorted(self.per_level.items())
                if acc[1] > 0.0
            },
        }

    def reset(self) -> None:
        self.__init__()


# -------------------------------------------------------------------- engine
class ExecutionEngine:
    """Dispatches per-grid tasks for one evolver.

    The engine object is cheap (pools are shared process-globals); each
    evolver owns one so its calibration state and per-root-step stats stay
    private.
    """

    def __init__(self, config=None, calibrator: WorkCalibrator | None = None):
        self.config = ExecConfig.resolve(config)
        self.calibrator = calibrator or WorkCalibrator()
        self.step_stats = StepExecStats()

    # ------------------------------------------------------------ lifecycle
    def begin_root_step(self) -> None:
        self.step_stats.reset()

    def step_snapshot(self) -> dict:
        return self.step_stats.snapshot(self.config.backend,
                                        self.config.workers)

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
        the per-root-step telemetry stats).
        """
        tasks = list(tasks)
        cfg = self.config
        report = ExecReport(cfg.backend, cfg.workers)
        if not tasks:
            return report
        t0 = perf_counter()
        if cfg.backend == "serial" or len(tasks) < MIN_PARALLEL_TASKS:
            self._run_inline(tasks, report, timers)
        else:
            self._run_threads(tasks, report)
        report.dispatch_wall = perf_counter() - t0

        self.calibrator.observe_report(report)
        self.step_stats.absorb(level, report)
        if timers is not None:
            if not report.inline_timed:
                for kind, seconds in report.kernel_seconds.items():
                    timers.add_seconds(kind, seconds,
                                       count=report.kind_counts[kind])
            timers.add_seconds("exec", report.overhead)
        return report

    # -------------------------------------------------------------- serial
    def _run_inline(self, tasks, report: ExecReport, timers) -> None:
        report.inline_timed = timers is not None
        for task in tasks:
            t0 = perf_counter()
            if timers is not None:
                with timers.section(task.kind):
                    _run_task(task)
            else:
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
