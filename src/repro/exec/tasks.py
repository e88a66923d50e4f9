"""Work units the execution engine dispatches.

A task runs one independent unit of per-grid physics in place on the live
grid arrays (``run_safe``), whether the engine calls it from the
dispatching thread or from a pool worker: the hydro step, the gravity
acceleration or the chemistry advance of one *chunk* of a level's grids
(the engine's :meth:`~repro.exec.engine.ExecutionEngine.chunks`, one per
worker).  Tasks on the same level never touch each other's grids (the AMR
barrier structure: grids on a level are independent between boundary
exchanges), which is what makes results bitwise identical across
backends and worker counts.

Tasks expose ``kind``, ``level`` and ``n_cells`` (the cells of all their
grids) for the engine's report.
"""

from __future__ import annotations

from repro.runtime.faults import apply_nan_cell


class GridTask:
    """Base: the task's grids (one level), their kind and the result and
    error slots.

    ``error`` is filled (and ``result`` left None) when the task's kernel
    raised: the engine runs tasks through :meth:`run_safe` so one sick
    chunk cannot abort the dispatch of its healthy siblings — the defense
    ladder (:mod:`repro.amr.defense`) decides afterwards whether to rescue
    or re-raise.
    """

    kind = "task"

    def __init__(self, grids):
        self.grids = list(grids)
        self.result = None
        self.error: BaseException | None = None

    @property
    def level(self) -> int:
        return self.grids[0].level

    @property
    def n_cells(self) -> int:
        return sum(int(g.n_cells) for g in self.grids)

    # ---------------------------------------------------------------- run
    def run_safe(self) -> None:
        """Run inline, capturing any kernel exception into ``error``."""
        try:
            self.run_inline()
        except Exception as exc:
            self.result = None
            self.error = exc

    def run_inline(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class HydroChunkTask(GridTask):
    """One solver step of a chunk of a level's grids: one
    ``solver.step_level`` call.  ``steps`` holds each grid's ``(accel,
    windows, plan)``: its acceleration (or None), face windows and
    :class:`~repro.hydro.ppm.StepPlan` (:meth:`~repro.amr.grid.Grid
    .hydro_plan`).  The result is the grids' StepFluxes, in order.
    ``faults`` is the run's injector (or None), queried for a
    ``nan_cell`` firing on each grid after the step; ``poisoned`` names,
    per grid, whether one fired (its health row no longer describes it)."""

    kind = "hydro"

    def __init__(self, grids, solver, dt: float, a: float, adot: float,
                 steps, permute: int, faults=None):
        super().__init__(grids)
        self.solver = solver
        self.dt = float(dt)
        self.a = float(a)
        self.adot = float(adot)
        self.steps = list(steps)
        self.permute = int(permute)
        self.faults = faults
        self.poisoned = [False] * len(self.grids)

    def run_inline(self) -> None:
        grids = self.grids
        self.result = self.solver.step_level(
            [(g.fields, accel, windows, plan)
             for g, (accel, windows, plan) in zip(grids, self.steps)],
            grids[0].dx, self.dt, self.a, self.adot, self.permute)
        if self.faults is not None:
            for k, g in enumerate(grids):
                plan = self.faults.plan_nan_cell(
                    g.level, g.grid_id, tuple(int(d) for d in g.dims),
                    g.nghost)
                apply_nan_cell(g.fields, plan)
                self.poisoned[k] = plan is not None


class ChemistryChunkTask(GridTask):
    """Sub-cycled network + cooling advance of a chunk of a level's grids,
    one grid after another in grid order, each on its active zone (the
    ghost zones are refilled by the boundary exchange that follows).

    Each grid's outcome is its own: ``result[k]`` holds the ``k``-th
    grid's integrator stats, or None when its advance raised, and
    ``errors[k]`` what it raised, so one grid's failure sends only that
    grid to the defense ladder, never the grids its chunk already
    advanced.  ``faults`` is the run's injector (or None), queried for a
    ``chem_blowup`` before each grid's advance."""

    kind = "chemistry"

    def __init__(self, grids, network, dt_code: float, units, a: float,
                 faults=None):
        super().__init__(grids)
        self.network = network
        self.dt_code = float(dt_code)
        self.units = units
        self.a = float(a)
        self.faults = faults
        self.errors: list = [None] * len(self.grids)

    def run_inline(self) -> None:
        results = [None] * len(self.grids)
        for k, g in enumerate(self.grids):
            try:
                if self.faults is not None:
                    self.faults.maybe_raise("chem_blowup", g.level,
                                            g.grid_id)
                results[k] = self.network.advance_fields(
                    g.fields.view(g.interior), self.dt_code, self.units,
                    self.a)
            except Exception as exc:
                self.errors[k] = exc
        self.result = results


class GravityChunkTask(GridTask):
    """g = -grad(phi)/a on a chunk of a level's grids: one
    ``gravity.accel`` call; the result is ``(accels, gmax)``, each grid's
    (3, ...) acceleration and its largest interior |g|, in order."""

    kind = "gravity"

    def __init__(self, grids, gravity, a: float):
        super().__init__(grids)
        self.gravity = gravity
        self.a = float(a)

    def run_inline(self) -> None:
        self.result = self.gravity.accelerations(self.grids, self.a)
