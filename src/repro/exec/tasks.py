"""Per-grid work units the execution engine dispatches.

Each task wraps one independent unit of per-grid physics — a hydro sweep,
a chemistry network advance, or a gravity acceleration evaluation — for
exactly one grid.  Tasks on the same level never touch each other's data
(the AMR barrier structure: grids on a level are independent between
boundary exchanges), which is what makes results bitwise identical across
backends and worker counts.

Two execution paths:

* ``run_inline()`` — operate directly on the live grid arrays (serial and
  thread backends; zero copies).
* ``export()`` / ``absorb()`` — stage arrays through shared memory for the
  process backend: ``export`` names the input arrays and any output space,
  the worker-side runner (:mod:`repro.exec.worker`) computes in place on
  the shared block, and ``absorb`` writes the results back into the grid.

Tasks also expose ``grid_id`` / ``level`` / ``n_cells`` / ``start_index``
so the scheduler can feed them straight through
:func:`repro.parallel.distribution.balance_grids`.
"""

from __future__ import annotations

import numpy as np

from repro.hydro.ppm import StepFluxes
from repro.hydro.state import META_KEY
from repro.runtime import faults


class TaskFailure(RuntimeError):
    """Wrapper for a worker-side error that could not travel verbatim."""


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
        #: set once the task's result (or error) has been applied — the
        #: process backend uses it to re-dispatch only unfinished tasks
        #: after a worker death
        self.done = False

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

    # --------------------------------------------------------------- paths
    def run_safe(self) -> None:
        """Run inline, capturing any kernel exception into ``error``."""
        try:
            self.run_inline()
        except Exception as exc:
            self.result = None
            self.error = exc
        self.done = True

    def run_inline(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def export(self):  # pragma: no cover - abstract
        raise NotImplementedError

    def absorb(self, views: dict, ret) -> None:  # pragma: no cover
        raise NotImplementedError

    # --------------------------------------------------------------- utils
    def _field_names(self) -> list[str]:
        return [name for name, _ in self.grid.fields.array_items()]

    def _export_fields(self) -> dict:
        return {f"f:{name}": arr for name, arr in self.grid.fields.array_items()}

    def _absorb_fields(self, views: dict) -> None:
        for name, arr in self.grid.fields.array_items():
            arr[...] = views[f"f:{name}"]

    def _fault_meta(self, meta: dict) -> dict:
        """Attach parent-side fault decisions for the worker kernel.

        The decision to fire is taken here — in deterministic submission
        context, one ``take()`` per task exactly like the inline path — so
        which task fails never depends on worker scheduling.
        """
        if faults.take("worker_kill", self.level, self.grid_id) is not None:
            meta["fault_kill"] = True
        return meta

    def absorb_failure(self, error: BaseException) -> None:
        """Record a worker-side kernel error (process backend)."""
        self.result = None
        self.error = error


class HydroTask(GridTask):
    """One solver step on one grid; result is the StepFluxes."""

    kind = "hydro"

    def __init__(self, grid, solver, dt: float, a: float, adot: float,
                 accel, permute: int):
        super().__init__(grid)
        self.solver = solver
        self.dt = float(dt)
        self.a = float(a)
        self.adot = float(adot)
        self.accel = accel
        self.permute = int(permute)

    def _nan_fault_plan(self):
        return faults.plan_nan_cell(
            self.level, self.grid_id,
            tuple(int(d) for d in self.grid.dims), self.grid.nghost,
        )

    def run_inline(self) -> None:
        self.result = self.solver.step(
            self.grid.fields, self.grid.dx, self.dt, self.a, self.adot,
            self.accel, self.permute,
        )
        faults.apply_nan_cell(self.grid.fields, self._nan_fault_plan())

    def export(self):
        arrays = self._export_fields()
        if self.accel is not None:
            arrays["accel"] = self.accel
        meta = {
            "solver": self.solver,
            "field_names": self._field_names(),
            "advected": list(self.grid.fields.advected),
            "dx": float(self.grid.dx),
            "dt": self.dt,
            "a": self.a,
            "adot": self.adot,
            "permute": self.permute,
            "has_accel": self.accel is not None,
        }
        # fault decisions are taken parent-side (deterministic submission
        # context); the worker only applies what the meta tells it to
        plan = self._nan_fault_plan()
        if plan is not None:
            meta["fault_nan"] = plan
        return "hydro", arrays, {}, self._fault_meta(meta)

    def absorb(self, views: dict, ret) -> None:
        self._absorb_fields(views)
        out = StepFluxes()
        out.fluxes = ret["fluxes"]
        out.diagnostics = dict(ret.get("diag") or {})
        self.result = out


class ChemistryTask(GridTask):
    """Sub-cycled network + cooling advance of one grid's FieldSet."""

    kind = "chemistry"

    def __init__(self, grid, network, dt_code: float, units, a: float):
        super().__init__(grid)
        self.network = network
        self.dt_code = float(dt_code)
        self.units = units
        self.a = float(a)

    def run_inline(self) -> None:
        faults.maybe_raise("chem_blowup", self.level, self.grid_id)
        self.result = self.network.advance_fields(
            self.grid.fields, self.dt_code, self.units, self.a
        )

    def export(self):
        meta = {
            "network": self.network,
            "units": self.units,
            "field_names": self._field_names(),
            "advected": list(self.grid.fields.advected),
            "dt": self.dt_code,
            "a": self.a,
        }
        if faults.take("chem_blowup", self.level, self.grid_id) is not None:
            meta["fault_raise"] = "chem_blowup"
        return "chemistry", self._export_fields(), {}, self._fault_meta(meta)

    def absorb(self, views: dict, ret) -> None:
        self._absorb_fields(views)
        self.result = ret


class GravityAccelTask(GridTask):
    """g = -grad(phi)/a on one grid; result is the (3, ...) accel field."""

    kind = "gravity"

    def __init__(self, grid, gravity, a: float):
        super().__init__(grid)
        self.gravity = gravity
        self.a = float(a)

    def run_inline(self) -> None:
        self.result = self.gravity.acceleration(self.grid, self.a)

    def export(self):
        arrays = {"phi": self.grid.phi}
        outputs = {"acc": ((3,) + self.grid.phi.shape, "<f8")}
        meta = {"dx": float(self.grid.dx), "a": self.a}
        return "gravity", arrays, outputs, self._fault_meta(meta)

    def absorb(self, views: dict, ret) -> None:
        self.result = views["acc"].copy()


# re-exported so worker.py and tasks.py agree on the key
FIELD_META_KEY = META_KEY
