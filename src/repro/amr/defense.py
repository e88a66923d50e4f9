"""Grid-scoped solver defense ladder: validate, rescue locally, escalate last.

A weeks-long AMR run dies from a *local* numerical accident — one deep
subgrid whose PPM update goes NaN, one pathological chemistry cell — and
the PR-2 answer (root-step rollback with a reduced CFL) throws away every
healthy grid's work along with the sick one.  This module adds the missing
middle layer: after the execution engine joins a level's per-grid tasks,
every grid's result is **validated** (finite, positive, optionally
mass-conserving) and an invalid grid is retried *in place*, climbing a
ladder of increasingly dissipative rescues:

1. ``retry_half_dt``  — restore the pre-step state, take two half-dt
   solver steps (the usual cure for a marginally CFL-violating update);
2. ``first_order``    — restore and retry with first-order (donor-cell)
   reconstruction, the most robust scheme the Godunov solver supports;
3. ``zeus_fallback``  — restore and retry with the ZEUS finite-difference
   solver (the paper's "robust" second scheme, Sec. 3.2.1);
4. ``floor_repair``   — give up on recomputing: replace non-finite cells
   with their pre-step values, clamp to the positivity floors, rebuild
   the total energy and zero the non-finite fluxes, logging the mass
   delta the repair cost.

Only when the *repaired* state is still invalid does the ladder raise
:class:`~repro.runtime.recovery.StateCorruptionError`, handing the root
step to the run controller's rollback machinery.  Every rung attempt is
recorded as a ``defense`` telemetry event and counted per root step.

With no faults and no escalations the ladder is read-only — validation
looks at interior views and never writes — so results are bitwise
identical to a defense-less run on every exec backend.

Chemistry failures get a shorter ladder (``chem_retry_half_dt`` →
``chem_floor_repair`` → ``chem_skip``): the network advances an
operator-split source term, so skipping one grid-step of chemistry is a
bounded, local error while a poisoned hydro state is not.

Deterministic chaos tests drive every rung via
:mod:`repro.runtime.faults`; see ``docs/ROBUSTNESS.md``.
"""

from __future__ import annotations

import numpy as np

from repro.hydro.state import total_energy
from repro.hydro.zeus import ZeusSolver
from repro.runtime.faults import (
    active as _active_injector,
    apply_nan_cell,
    maybe_raise as _maybe_raise_fault,
    plan_nan_cell,
)
from repro.runtime.recovery import StateCorruptionError

#: hydro rescue rungs, in escalation order
HYDRO_RUNGS = ("retry_half_dt", "first_order", "zeus_fallback", "floor_repair")

#: chemistry rescue rungs, in escalation order
CHEM_RUNGS = ("chem_retry_half_dt", "chem_floor_repair", "chem_skip")

#: fields that must be finite everywhere on the interior
FINITE_FIELDS = ("density", "internal", "energy", "vx", "vy", "vz")

#: fields that must additionally be strictly positive
POSITIVE_FIELDS = ("density", "internal")


def validate_fields(fields, interior, mass_ref: float | None = None,
                    mass_drift_tol: float = float("inf")) -> list[str]:
    """Read-only health check of a grid's interior; returns problem labels.

    Ghost zones are deliberately excluded: truncated-stencil edge cells are
    repaired by the next boundary exchange and must not trigger rescues.
    """
    problems: list[str] = []
    for name in FINITE_FIELDS:
        arr = fields.get(name)
        if arr is None:
            continue
        view = arr[interior]
        bad = int(np.count_nonzero(~np.isfinite(view)))
        if bad:
            problems.append(f"{name}:nonfinite={bad}")
        elif name in POSITIVE_FIELDS:
            neg = int(np.count_nonzero(view <= 0.0))
            if neg:
                problems.append(f"{name}:nonpositive={neg}")
    for name in fields.advected:
        view = fields[name][interior]
        bad = int(np.count_nonzero(~np.isfinite(view)))
        if bad:
            problems.append(f"{name}:nonfinite={bad}")
    if (
        mass_ref is not None
        and np.isfinite(mass_drift_tol)
        and not problems
        and mass_ref > 0.0
    ):
        drift = abs(float(fields["density"][interior].sum()) - mass_ref)
        if drift > mass_drift_tol * mass_ref:
            problems.append(f"mass_drift={drift / mass_ref:.3e}")
    return problems


def _sum_fluxes(a, b):
    """Element-wise sum of two StepFluxes (two half steps = one full step)."""
    out = type(a)()
    for axis, per in a.fluxes.items():
        out.fluxes[axis] = {
            name: arr + b.fluxes[axis][name] for name, arr in per.items()
        }
    out.add_diagnostics(a.diagnostics)
    out.add_diagnostics(b.diagnostics)
    return out


class DefenseLadder:
    """Per-evolver rescue state machine + per-root-step defense counters.

    Parameters
    ----------
    mass_drift_tol:
        Relative interior-mass drift (vs the pre-step state) that counts as
        a validation failure.  Default ``inf`` — **off** — because boundary
        fluxes legitimately change a grid's interior mass; enable it only
        for isolated-grid test problems.
    max_events:
        Cap on queued (undrained) telemetry events, a backstop against a
        pathological run flooding memory.
    """

    def __init__(self, mass_drift_tol: float = float("inf"),
                 max_events: int = 10000):
        self.mass_drift_tol = float(mass_drift_tol)
        self.max_events = int(max_events)
        #: rung name -> activations this root step
        self.counters: dict[str, int] = {}
        #: floor kind -> activations this root step (from solver diagnostics)
        self.floors: dict[str, int] = {}
        #: queued telemetry events (drained by the run controller)
        self.events: list[dict] = []
        #: cumulative over the whole run, for tests and epilogues
        self.totals = {"rungs": {}, "floors": {}, "escalations": 0}

    # ---------------------------------------------------------- bookkeeping
    def begin_root_step(self) -> None:
        self.counters = {}
        self.floors = {}

    def note_floors(self, diagnostics: dict | None) -> None:
        """Fold a solver's per-step floor-activation counts into the block."""
        if not diagnostics:
            return
        for key, value in diagnostics.items():
            if value:
                self.floors[key] = self.floors.get(key, 0) + int(value)
                tot = self.totals["floors"]
                tot[key] = tot.get(key, 0) + int(value)

    def snapshot(self) -> dict | None:
        """JSON-native per-root-step summary for the telemetry step record."""
        out: dict = {}
        if self.counters:
            out["rungs"] = dict(self.counters)
        if self.floors:
            out["floors"] = dict(self.floors)
        return out or None

    def drain_events(self) -> list[dict]:
        events, self.events = self.events, []
        return events

    def record_event(self, event: dict) -> None:
        """Queue a defense event (rung attempt, mg retry, escalation)."""
        if len(self.events) < self.max_events:
            self.events.append(dict(event))
        rung = event.get("rung")
        if rung and event.get("ok"):
            self.counters[rung] = self.counters.get(rung, 0) + 1
            tot = self.totals["rungs"]
            tot[rung] = tot.get(rung, 0) + 1

    # ----------------------------------------------------------- validation
    def validate_grid(self, grid) -> list[str]:
        mass_ref = None
        if np.isfinite(self.mass_drift_tol) and grid.old_fields is not None:
            mass_ref = float(grid.old_fields["density"][grid.interior].sum())
        return validate_fields(grid.fields, grid.interior, mass_ref,
                               self.mass_drift_tol)

    # -------------------------------------------------------------- hydro
    def rescue_hydro(self, grid, solver, dt: float, a: float, adot: float,
                     accel, permute: int, problems):
        """Climb the ladder until the grid validates; returns the fluxes.

        ``problems`` is what the initial validation (or the task error)
        reported; ``grid.old_fields`` — the pre-step snapshot the evolver
        takes for time-interpolated child boundaries — is the restore
        point for every retry rung.
        """
        site = {"level": int(grid.level), "grid": int(grid.grid_id)}
        attempted: list[str] = []
        last_problems = list(problems)
        result = None

        for rung in ("retry_half_dt", "first_order", "zeus_fallback"):
            try:
                attempt = getattr(self, f"_attempt_{rung}")(
                    grid, solver, dt, a, adot, accel, permute
                )
            except Exception as exc:  # a rescue that blows up is a failed rung
                attempted.append(rung)
                last_problems = [f"raise:{type(exc).__name__}"]
                self.record_event({
                    "rung": rung, "ok": False,
                    "problems": last_problems, **site,
                })
                continue
            if attempt is None:  # rung not applicable to this solver
                continue
            attempted.append(rung)
            self._reinject(grid)
            last_problems = self.validate_grid(grid)
            self.record_event({
                "rung": rung, "ok": not last_problems,
                "problems": last_problems, **site,
            })
            if not last_problems:
                return attempt
            result = attempt

        # rung 4: conservative in-place repair of whatever the last
        # attempt produced (or the original task result)
        attempted.append("floor_repair")
        repair = self._floor_repair(grid, solver, result)
        self._reinject(grid)
        last_problems = self.validate_grid(grid)
        self.record_event({
            "rung": "floor_repair", "ok": not last_problems,
            "problems": last_problems, **site, **repair["stats"],
        })
        if not last_problems:
            return repair["fluxes"]

        self.totals["escalations"] += 1
        self.record_event({
            "escalate": True, "problems": last_problems,
            "rungs": attempted, **site,
        })
        raise StateCorruptionError(
            f"grid {grid.grid_id} (level {grid.level}) failed every defense "
            f"rung {attempted}: {last_problems}",
            level=int(grid.level), grid_id=int(grid.grid_id), rungs=attempted,
        )

    # ---- individual rungs
    def _restore(self, grid) -> None:
        if grid.old_fields is not None:
            grid.fields = grid.old_fields.deep_copy()

    def _reinject(self, grid) -> None:
        """Re-query the nan_cell fault so repeated firings climb the ladder."""
        if _active_injector() is None:
            return
        plan = plan_nan_cell(
            grid.level, grid.grid_id,
            tuple(int(d) for d in grid.dims), grid.nghost,
        )
        apply_nan_cell(grid.fields, plan)

    def _attempt_retry_half_dt(self, grid, solver, dt, a, adot, accel,
                               permute):
        self._restore(grid)
        half = 0.5 * dt
        f1 = solver.step(grid.fields, grid.dx, half, a, adot, accel, permute)
        f2 = solver.step(grid.fields, grid.dx, half, a, adot, accel, permute)
        return _sum_fluxes(f1, f2)

    def _attempt_first_order(self, grid, solver, dt, a, adot, accel,
                             permute):
        if getattr(solver, "reconstruction", None) is None:
            return None  # finite-difference solvers have no reconstruction
        try:
            safe = type(solver)(
                gamma=solver.gamma,
                reconstruction="flat",
                riemann_solver=solver.riemann_solver,
                nghost=solver.nghost,
                dual_energy_eta=solver.dual_energy_eta,
                density_floor=solver.density_floor,
                energy_floor=solver.energy_floor,
                flattening=False,
                characteristic_tracing=False,
            )
        except TypeError:
            return None
        self._restore(grid)
        return safe.step(grid.fields, grid.dx, dt, a, adot, accel, permute)

    def _attempt_zeus_fallback(self, grid, solver, dt, a, adot, accel,
                               permute):
        from repro import constants as const

        fallback = ZeusSolver(
            gamma=getattr(solver, "gamma", const.GAMMA),
            nghost=getattr(solver, "nghost", grid.nghost),
            density_floor=getattr(solver, "density_floor", 1e-12),
            energy_floor=getattr(solver, "energy_floor", 1e-30),
        )
        self._restore(grid)
        return fallback.step(grid.fields, grid.dx, dt, a, adot, accel,
                             permute)

    def _floor_repair(self, grid, solver, fluxes):
        """Last-resort in-place repair; logs the conservation delta.

        Non-finite cells take their pre-step values (or the positivity
        floor when the old state is unavailable), density/internal are
        clamped above their floors, advected species above zero, the total
        energy is rebuilt, and non-finite flux entries are zeroed so the
        coarse-fine flux correction cannot re-import the corruption.
        """
        density_floor = getattr(solver, "density_floor", 1e-12)
        energy_floor = getattr(solver, "energy_floor", 1e-30)
        fill = {"density": density_floor, "internal": energy_floor}
        old = grid.old_fields
        interior = grid.interior
        mass_before = None
        scalar_before: dict[str, float] = {}
        if old is not None:
            mass_before = float(old["density"][interior].sum())
            for name in grid.fields.advected:
                if name in old:
                    scalar_before[name] = float(old[name][interior].sum())

        repaired = 0
        for name, arr in grid.fields.array_items():
            bad = ~np.isfinite(arr)
            nbad = int(np.count_nonzero(bad))
            if nbad:
                if old is not None and name in old:
                    arr[bad] = old[name][bad]
                    bad = ~np.isfinite(arr)
                arr[bad] = fill.get(name, 0.0)
                repaired += nbad
        for name, floor in (("density", density_floor),
                            ("internal", energy_floor)):
            arr = grid.fields[name]
            clamped = int(np.count_nonzero(arr < floor))
            if clamped:
                np.maximum(arr, floor, out=arr)
                repaired += clamped
        for name in grid.fields.advected:
            arr = grid.fields[name]
            neg = int(np.count_nonzero(arr < 0.0))
            if neg:
                np.maximum(arr, 0.0, out=arr)
                repaired += neg
        grid.fields["energy"] = total_energy(grid.fields)

        if fluxes is not None:
            for per in fluxes.fluxes.values():
                for arr in per.values():
                    np.nan_to_num(arr, copy=False, nan=0.0,
                                  posinf=0.0, neginf=0.0)

        mass_delta = 0.0
        if mass_before:
            mass_delta = (
                float(grid.fields["density"][interior].sum()) - mass_before
            ) / mass_before
        # same conservation accounting for every advected scalar: the worst
        # relative drift across species (absolute drift when a species
        # started the step with zero mass)
        scalar_delta = 0.0
        for name, before in scalar_before.items():
            after = float(grid.fields[name][interior].sum())
            drift = (after - before) / before if before else after
            if abs(drift) > abs(scalar_delta):
                scalar_delta = drift
        stats = {
            "repaired_cells": repaired,
            "mass_delta": float(mass_delta),
        }
        if scalar_before:
            stats["scalar_mass_delta"] = float(scalar_delta)
        return {
            "fluxes": fluxes,
            "stats": stats,
        }

    # ------------------------------------------------------------ chemistry
    def rescue_chemistry(self, grid, network, dt_code: float, units,
                         a: float, error=None, problems=()):
        """Chemistry ladder; returns integrator stats or None (skipped)."""
        site = {"level": int(grid.level), "grid": int(grid.grid_id)}

        # rung 1: retry as two half-dt advances (the network mutates the
        # FieldSet only on success, so a raised retry leaves it untouched)
        try:
            _maybe_raise_fault("chem_blowup", grid.level, grid.grid_id)
            half = 0.5 * dt_code
            s1 = network.advance_fields(grid.fields, half, units, a)
            s2 = network.advance_fields(grid.fields, half, units, a)
            retry_error = None
            stats = _merge_chem_stats(s1, s2)
        except Exception as exc:
            retry_error = exc
            stats = None
        chem_problems = (
            self.validate_grid(grid) if retry_error is None else
            [f"task_error:{type(retry_error).__name__}"]
        )
        self.record_event({
            "rung": "chem_retry_half_dt", "ok": not chem_problems,
            "problems": chem_problems, **site,
        })
        if not chem_problems:
            return stats

        if retry_error is None:
            # the advance ran but produced an invalid state: repair it
            repair = self._floor_repair(grid, network, None)
            chem_problems = self.validate_grid(grid)
            self.record_event({
                "rung": "chem_floor_repair", "ok": not chem_problems,
                "problems": chem_problems, **site, **repair["stats"],
            })
            if not chem_problems:
                return stats

        # rung 3: skip this grid-step of chemistry (bounded local error for
        # an operator-split source term); hydro state is left as the hydro
        # defense validated it
        self.record_event({
            "rung": "chem_skip", "ok": True, "problems": [], **site,
        })
        return None


def _merge_chem_stats(s1: dict | None, s2: dict | None) -> dict | None:
    if not s1:
        return s2
    if not s2:
        return s1
    out = dict(s2)
    out["substeps_total"] = (
        int(s1.get("substeps_total", 0)) + int(s2.get("substeps_total", 0))
    )
    out["substeps_max"] = max(
        int(s1.get("substeps_max", 0)), int(s2.get("substeps_max", 0))
    )
    if "active_fraction_mean" in out:
        out["active_fraction_mean"] = 0.5 * (
            float(s1.get("active_fraction_mean", 0.0))
            + float(s2.get("active_fraction_mean", 0.0))
        )
    return out
