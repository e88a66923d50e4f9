"""The task-based execution engine (serial / thread / process backends).

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
    live grid arrays (zero-copy) and NumPy releases the GIL inside the
    heavy kernels.  Each worker drains its own scheduler-assigned queue so
    per-worker busy time is meaningful.
``process``
    A shared fork-server pool; grid arrays are staged through POSIX shared
    memory (:mod:`repro.exec.shm` — the worker computes in place on the
    shared block; no pickling of bulk data).

Determinism: tasks on one level touch only their own grid, every kernel
runs the same NumPy code on the same inputs, and results are written back
in submission order — so all backends and worker counts produce bitwise
identical hierarchies, and checkpoints/resume work unchanged.

Pools are process-global (keyed by backend + worker count), created
lazily, and drained at interpreter exit; SIGTERM drains therefore leave no
orphaned workers.
"""

from __future__ import annotations

import atexit
import multiprocessing as mp
from collections import defaultdict
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from time import perf_counter

from repro.exec import shm as shm_codec
from repro.exec.calibration import WorkCalibrator
from repro.exec.config import ExecConfig
from repro.exec.worker import run_packed_task
from repro.kernels import dispatch as kernel_dispatch
from repro.parallel.distribution import balance_grids, grid_work

#: outstanding shared-memory tasks per worker before the dispatcher blocks
#: and reclaims (bounds staging memory on grid-rich levels)
PROCESS_WINDOW_PER_WORKER = 4


def _run_task(task) -> None:
    """Inline execution with error capture when the task supports it."""
    run_safe = getattr(task, "run_safe", None)
    if run_safe is not None:
        run_safe()
    else:
        task.run_inline()


# --------------------------------------------------------------------- pools
_POOLS: dict = {}


def _worker_init(kernel_backend: str) -> None:
    """Process-pool initializer: select + warm the kernel backend once per
    worker, so a cffi load or compile never lands inside a task timing."""
    kernel_dispatch.set_backend(kernel_backend, env=False)
    kernel_dispatch.warm()


def _process_pool_key(workers: int) -> tuple:
    # keyed by kernel backend too: switching tiers mid-process must not
    # reuse workers warmed (and pinned) on the old backend
    return ("process", workers, kernel_dispatch.active_backend())


def _get_pool(backend: str, workers: int):
    key = (
        _process_pool_key(workers)
        if backend == "process"
        else (backend, workers)
    )
    pool = _POOLS.get(key)
    if pool is None:
        if backend == "thread":
            pool = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="repro-exec"
            )
        else:
            ctx = (
                mp.get_context("fork")
                if "fork" in mp.get_all_start_methods()
                else None
            )
            pool = ProcessPoolExecutor(
                max_workers=workers,
                mp_context=ctx,
                initializer=_worker_init,
                initargs=(key[2],),
            )
        _POOLS[key] = pool
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
        #: worker key (index or pid) -> busy seconds
        self.worker_busy: dict = defaultdict(float)
        self.dispatch_wall = 0.0
        #: True when tasks ran inline under the caller's component timers
        #: (serial path) — kernel seconds are then already attributed
        self.inline_timed = False
        #: process-backend pools rebuilt after a worker death this dispatch
        self.worker_restarts = 0

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
        """Dispatch wall time not covered by the busiest worker: packing,
        scheduling, synchronisation — the engine's own cost."""
        return max(0.0, self.dispatch_wall - self.busy_max)


class StepExecStats:
    """Aggregates dispatch reports across one root step (all levels)."""

    def __init__(self):
        self.dispatches = 0
        self.tasks = 0
        self.busy = 0.0
        self.wall = 0.0
        self.overhead = 0.0
        self.worker_restarts = 0
        #: level -> [sum of busy_max, sum of busy_mean] across dispatches
        self.per_level: dict = defaultdict(lambda: [0.0, 0.0])

    def absorb(self, level, report: ExecReport) -> None:
        self.dispatches += 1
        self.tasks += report.n_tasks
        self.busy += report.busy_total
        self.wall += report.dispatch_wall
        self.overhead += report.overhead
        self.worker_restarts += report.worker_restarts
        if level is not None and report.workers >= 1:
            acc = self.per_level[int(level)]
            acc[0] += report.busy_max
            acc[1] += report.busy_total / report.workers

    def snapshot(self, backend: str, workers: int) -> dict:
        """JSON-native summary for the telemetry step record."""
        out = {
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
        if self.worker_restarts:
            out["worker_restarts"] = self.worker_restarts
        return out

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
        #: optional callback(event_dict) for defense-relevant engine events
        #: (worker restarts); wired up by the evolver when a ladder is active
        self.on_event = None

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
            tasks, workers, self.config.strategy,
            cost_model=self.calibrator,
        )
        queues: list[list] = [[] for _ in range(workers)]
        for task in tasks:
            queues[assignment[task.grid_id]].append(task)
        return queues

    def _submission_order(self, tasks: list) -> list:
        """Global order for pools that self-assign (process backend):
        longest-processing-time first approximates the greedy schedule."""
        if self.config.strategy == "greedy":
            return sorted(
                tasks,
                key=lambda t: -grid_work(t, cost_model=self.calibrator),
            )
        return list(tasks)

    # ------------------------------------------------------------- dispatch
    def run(self, tasks, level=None, timers=None) -> ExecReport:
        """Execute independent per-grid tasks; apply results in order.

        Returns the dispatch report (also folded into the calibrator and
        the per-root-step telemetry stats).
        """
        tasks = list(tasks)
        cfg = self.config
        report = ExecReport(cfg.backend, cfg.workers)
        if not tasks:
            return report
        t0 = perf_counter()
        if (
            cfg.backend == "serial"
            or len(tasks) < cfg.min_parallel_tasks
        ):
            self._run_inline(tasks, report, timers)
        elif cfg.backend == "thread":
            self._run_threads(tasks, report)
        else:
            self._run_processes(tasks, report)
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
        pool = _get_pool("thread", self.config.workers)

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

    # ----------------------------------------------------------- processes
    def _run_processes(self, tasks, report: ExecReport) -> None:
        """Dispatch through the shared pool; survive one worker death.

        A task whose kernel *raises* completes normally (the error travels
        in the return payload — see :func:`run_packed_task`).  A task whose
        worker *dies* (OOM killer, injected ``worker_kill``) breaks the
        pool: every in-flight future fails.  The engine then rebuilds the
        pool once and re-dispatches only the tasks that never finished —
        their staged inputs were copies, so a retry is bit-exact — and
        records a ``worker_restart`` event.  A second death aborts the
        dispatch (a systematically lethal task must not loop forever).
        """
        pending = self._submission_order(tasks)
        for attempt in range(2):
            try:
                self._process_pass(pending, report)
                return
            except BrokenProcessPool:
                _POOLS.pop(_process_pool_key(self.config.workers), None)
                pending = [t for t in pending if not getattr(t, "done", True)]
                if attempt == 1 or not pending:
                    raise
                report.worker_restarts += 1
                if self.on_event is not None:
                    self.on_event({
                        "worker_restart": True,
                        "retried_tasks": len(pending),
                    })

    def _process_pass(self, tasks, report: ExecReport) -> None:
        pool = _get_pool("process", self.config.workers)
        window = max(self.config.workers * PROCESS_WINDOW_PER_WORKER, 1)
        inflight: list = []

        def reclaim() -> None:
            # peek-then-pop so a raising future (dead worker) leaves the
            # entry in ``inflight`` for the cleanup path to release
            task, block, layout, future = inflight[0]
            out = future.result()
            inflight.pop(0)
            error = out.get("error")
            if error is None:
                views = shm_codec.views_of(block, layout)
                task.absorb(views, out["ret"])
                del views
            else:
                task.absorb_failure(error)
            task.done = True
            shm_codec.release(block, unlink=True)
            report.record(task, out["seconds"], out["pid"])
            # fold worker-side kernel activity into this process's counters
            kernel_dispatch.merge_counters(out.get("kernel_counters"))

        try:
            for task in tasks:
                kernel, arrays, outputs, meta = task.export()
                block, layout = shm_codec.pack(arrays, outputs)
                future = pool.submit(
                    run_packed_task, kernel, block.name, layout, meta
                )
                inflight.append((task, block, layout, future))
                if len(inflight) >= window:
                    reclaim()
            while inflight:
                reclaim()
        except Exception:
            # a broken pool must not leak shared memory
            for _task, block, _layout, future in inflight:
                future.cancel()
                try:
                    shm_codec.release(block, unlink=True)
                except BufferError:
                    pass
            raise
