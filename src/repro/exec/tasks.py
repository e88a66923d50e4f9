"""Per-grid work units the execution engine dispatches.

Each task wraps one independent unit of per-grid physics — a hydro sweep,
a chemistry network advance, or a gravity acceleration evaluation — for
exactly one grid, and runs it in place on the live grid arrays
(``run_inline``), whether the engine calls it from the dispatching thread
or from a pool worker.  Tasks on the same level never touch each other's
data (the AMR barrier structure: grids on a level are independent between
boundary exchanges), which is what makes results bitwise identical across
backends and worker counts.

Tasks also expose ``grid_id`` / ``level`` / ``n_cells`` / ``start_index``
so the scheduler can feed them straight through
:func:`repro.exec.distribution.balance_grids`.
"""

from __future__ import annotations

from repro.runtime.faults import apply_nan_cell


class GridTask:
    """Base: scheduling metadata + the result and error slots.

    ``error`` is filled (and ``result`` left None) when the task's kernel
    raised: the engine runs tasks through :meth:`run_safe` so one sick
    grid cannot abort the dispatch of its healthy siblings — the defense
    ladder (:mod:`repro.amr.defense`) decides afterwards whether to rescue
    or re-raise.
    """

    kind = "task"

    def __init__(self, grid):
        self.grid = grid
        self.result = None
        self.error: BaseException | None = None

    # ------------------------------------------------- scheduler interface
    @property
    def grid_id(self) -> int:
        return self.grid.grid_id

    @property
    def level(self) -> int:
        return self.grid.level

    @property
    def n_cells(self) -> int:
        return int(self.grid.n_cells)

    @property
    def start_index(self) -> tuple:
        return tuple(int(s) for s in self.grid.start_index)

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


class HydroTask(GridTask):
    """One solver step on one grid; result is the StepFluxes, stored in
    the grid's face ``windows`` (None: none).  ``plan`` is the grid's own
    :class:`~repro.hydro.ppm.StepPlan`, kept with its windows
    (:meth:`~repro.amr.grid.Grid.hydro_plan`; None: the step checks its
    inputs itself).  ``faults`` is the run's injector (or None), queried
    for a ``nan_cell`` firing after the step."""

    kind = "hydro"

    def __init__(self, grid, solver, dt: float, a: float, adot: float,
                 accel, permute: int, faults=None, windows=None, plan=None):
        super().__init__(grid)
        self.windows = windows
        self.plan = plan
        self.solver = solver
        self.dt = float(dt)
        self.a = float(a)
        self.adot = float(adot)
        self.accel = accel
        self.permute = int(permute)
        self.faults = faults

    def run_inline(self) -> None:
        self.result = self.solver.step(
            self.grid.fields, self.grid.dx, self.dt, self.a, self.adot,
            self.accel, self.permute, windows=self.windows, plan=self.plan,
        )
        if self.faults is not None:
            apply_nan_cell(self.grid.fields, self.faults.plan_nan_cell(
                self.level, self.grid_id,
                tuple(int(d) for d in self.grid.dims), self.grid.nghost,
            ))


class ChemistryTask(GridTask):
    """Sub-cycled network + cooling advance of one grid's active zone (its
    ghost zones are refilled by the boundary exchange that follows)."""

    kind = "chemistry"

    def __init__(self, grid, network, dt_code: float, units, a: float,
                 faults=None):
        super().__init__(grid)
        self.network = network
        self.dt_code = float(dt_code)
        self.units = units
        self.a = float(a)
        self.faults = faults

    def run_inline(self) -> None:
        if self.faults is not None:
            self.faults.maybe_raise("chem_blowup", self.level, self.grid_id)
        self.result = self.network.advance_fields(
            self.grid.fields.view(self.grid.interior), self.dt_code,
            self.units, self.a,
        )


class GravityAccelTask(GridTask):
    """g = -grad(phi)/a on one grid; result is the (3, ...) accel field."""

    kind = "gravity"

    def __init__(self, grid, gravity, a: float):
        super().__init__(grid)
        self.gravity = gravity
        self.a = float(a)

    def run_inline(self) -> None:
        self.result = self.gravity.acceleration(self.grid, self.a)
