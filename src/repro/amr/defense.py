"""Grid-scoped solver defense ladder: validate, rescue locally, escalate last.

A weeks-long AMR run dies from a *local* numerical accident — one deep
subgrid whose PPM update goes NaN, one pathological chemistry cell — and
the PR-2 answer (root-step rollback with a reduced CFL) throws away every
healthy grid's work along with the sick one.  This module adds the missing
middle layer: after the execution engine joins a level's tasks, every
grid's result is **validated** (finite, positive) — a hydro step reports
each grid's health row, which the ladder reads; NumPy re-validates only a
grid an injected fault poisoned after its step and, through the rungs,
every grid of a chunk whose call raised — and an invalid grid is retried
*in place*, climbing a ladder of increasingly dissipative rescues:

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
recorded as a ``defense`` telemetry event; successful rungs and floor
activations are counted per root step in ``stats``.

With no faults and no escalations the ladder is read-only — validation
looks at interior views and never writes — so a run it never rescues is
the bare solvers' run bit for bit, on every exec backend.

Chemistry failures get a shorter ladder (``chem_retry_half_dt`` →
``chem_floor_repair`` → ``chem_skip``): the network advances an
operator-split source term, so skipping one grid-step of chemistry is a
bounded, local error while a poisoned hydro state is not.  Only an
advance that raised is retried; one that returned an invalid state has
advanced the grid already and goes straight to the repair.

Deterministic chaos tests drive every rung via
:mod:`repro.runtime.faults`; see ``docs/ROBUSTNESS.md``.
"""

from __future__ import annotations

import numpy as np

from repro.chemistry.network import integrator_stats
from repro.hydro.ppm import HEALTH_POSITIVE, STEP_FIELDS
from repro.hydro.state import total_energy
from repro.hydro.zeus import ZeusSolver
from repro.perf.timers import StepStats
from repro.runtime.faults import apply_nan_cell
from repro.runtime.recovery import StateCorruptionError

#: hydro rescue rungs, in escalation order
HYDRO_RUNGS = ("retry_half_dt", "first_order", "zeus_fallback", "floor_repair")

#: chemistry rescue rungs, in escalation order
CHEM_RUNGS = ("chem_retry_half_dt", "chem_floor_repair", "chem_skip")

#: fields that must be finite everywhere on the interior
FINITE_FIELDS = ("density", "internal", "energy", "vx", "vy", "vz")

#: fields that must additionally be strictly positive (the ones a
#: ``hydro.step`` health row counts)
POSITIVE_FIELDS = HEALTH_POSITIVE

#: cap on queued (undrained) telemetry events, a backstop against a
#: pathological run flooding memory
MAX_EVENTS = 10000


def validate_fields(fields, interior) -> list[str]:
    """Read-only health check of a grid's interior; returns problem labels.

    Ghost zones are deliberately excluded: the solvers leave them stale
    (or, at the truncated-stencil edge, garbage) and the next boundary
    exchange rewrites them, so they must not trigger rescues.
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
    return problems


def health_problems(row, advected) -> list[str]:
    """:func:`validate_fields`' labels, read from a ``hydro.step`` health
    row (:func:`repro.hydro.ppm.step_health`) of a grid whose advected
    fields are ``advected``: a field's non-positive count is read only
    when the field is finite, as :func:`validate_fields` reads it."""
    names = STEP_FIELDS + tuple(advected)
    nonfinite = dict(zip(names, row))
    nonpositive = dict(zip(HEALTH_POSITIVE, row[len(names):]))
    problems: list[str] = []
    for name in FINITE_FIELDS:
        if nonfinite[name]:
            problems.append(f"{name}:nonfinite={nonfinite[name]}")
        elif nonpositive.get(name):
            problems.append(f"{name}:nonpositive={nonpositive[name]}")
    for name in advected:
        if nonfinite[name]:
            problems.append(f"{name}:nonfinite={nonfinite[name]}")
    return problems


def _sum_fluxes(a, b):
    """Plane-wise sum of two StepFluxes (two half steps = one full step)."""
    out = type(a)()
    if a.boundary is not None:
        out.boundary = [p + q for p, q in zip(a.boundary, b.boundary)]
    out.coarse = {cid: [p + q for p, q in zip(per, b.coarse[cid])]
                  for cid, per in a.coarse.items()}
    out.add_diagnostics(a.diagnostics)
    out.add_diagnostics(b.diagnostics)
    out.health = b.health
    return out


class DefenseLadder:
    """Per-evolver rescue state machine + per-root-step defense counters.

    ``stats`` is the step record's ``defense`` block (``rungs.<rung>``,
    ``floors.<kind>``), reset by the evolver at every root step;
    ``totals`` accumulates the same counts over the whole run.
    """

    def __init__(self):
        self.stats = StepStats()
        #: queued telemetry events (drained by the run controller)
        self.events: list[dict] = []
        #: cumulative over the whole run, for tests and epilogues
        self.totals = {"rungs": {}, "floors": {}, "escalations": 0}

    # ---------------------------------------------------------- bookkeeping
    def note_floors(self, diagnostics: dict | None) -> None:
        """Fold a solver's per-step floor-activation counts into the block."""
        if not diagnostics:
            return
        for key, value in diagnostics.items():
            if value:
                self.stats.add(f"floors.{key}", int(value))
                tot = self.totals["floors"]
                tot[key] = tot.get(key, 0) + int(value)

    def drain_events(self) -> list[dict]:
        events, self.events = self.events, []
        return events

    def record_event(self, event: dict) -> None:
        """Queue a defense event (rung attempt, mg retry, escalation)."""
        if len(self.events) < MAX_EVENTS:
            self.events.append(dict(event))
        rung = event.get("rung")
        if rung and event.get("ok"):
            self.stats.add(f"rungs.{rung}")
            tot = self.totals["rungs"]
            tot[rung] = tot.get(rung, 0) + 1

    # ----------------------------------------------------------- validation
    def validate_grid(self, grid) -> list[str]:
        return validate_fields(grid.fields, grid.interior)

    def hydro_problems(self, grid, result, poisoned: bool) -> list[str]:
        """What is wrong with a grid after its hydro step: read from the
        step's health row, or re-validated in NumPy when a fault poisoned
        the grid after the step."""
        if poisoned:
            return self.validate_grid(grid)
        if not any(result.health):
            return []
        return health_problems(result.health, grid.fields.advected)

    # -------------------------------------------------------------- hydro
    def rescue_hydro(self, grid, solver, dt: float, a: float, adot: float,
                     accel, permute: int, windows, problems, faults=None):
        """Climb the ladder until the grid validates; returns the fluxes.

        ``problems`` is what the initial validation (or the task error)
        reported; ``grid.old_fields`` — the pre-step snapshot the evolver
        takes for time-interpolated child boundaries — is the restore
        point for every retry rung.  ``faults`` is the run's injector,
        re-queried for ``nan_cell`` after every rung; ``windows`` the
        grid's face windows, where every rung stores its fluxes.
        """
        site = {"level": int(grid.level), "grid": int(grid.grid_id)}
        attempted: list[str] = []
        last_problems = list(problems)
        result = None

        for rung in ("retry_half_dt", "first_order", "zeus_fallback"):
            try:
                attempt = getattr(self, f"_attempt_{rung}")(
                    grid, solver, dt, a, adot, accel, permute, windows
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
            self._reinject(grid, faults)
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
        self._reinject(grid, faults)
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
        """Copy the pre-step snapshot back into the grid's own arrays (never
        rebinding them: a level's cached plans point to those arrays)."""
        if grid.old_fields is not None:
            for name, arr in grid.old_fields.array_items():
                np.copyto(grid.fields[name], arr)

    def _reinject(self, grid, faults) -> None:
        """Re-query the nan_cell fault so repeated firings climb the ladder."""
        if faults is None:
            return
        plan = faults.plan_nan_cell(
            grid.level, grid.grid_id,
            tuple(int(d) for d in grid.dims), grid.nghost,
        )
        apply_nan_cell(grid.fields, plan)

    def _attempt_retry_half_dt(self, grid, solver, dt, a, adot, accel,
                               permute, windows):
        self._restore(grid)
        half = 0.5 * dt
        # no boundary fill between the halves: the second reads the ghost
        # zones the first leaves, so the first advances every cell
        f1 = solver.step(grid.fields, grid.dx, half, a, adot, accel, permute,
                         full_update=True, windows=windows)
        f2 = solver.step(grid.fields, grid.dx, half, a, adot, accel, permute,
                         windows=windows)
        return _sum_fluxes(f1, f2)

    def _attempt_first_order(self, grid, solver, dt, a, adot, accel,
                             permute, windows):
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
        return safe.step(grid.fields, grid.dx, dt, a, adot, accel, permute,
                         windows=windows)

    def _attempt_zeus_fallback(self, grid, solver, dt, a, adot, accel,
                               permute, windows):
        from repro import constants as const

        fallback = ZeusSolver(
            gamma=getattr(solver, "gamma", const.GAMMA),
            nghost=getattr(solver, "nghost", grid.nghost),
            density_floor=getattr(solver, "density_floor", 1e-12),
            energy_floor=getattr(solver, "energy_floor", 1e-30),
        )
        self._restore(grid)
        return fallback.step(grid.fields, grid.dx, dt, a, adot, accel,
                             permute, windows=windows)

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
        np.copyto(grid.fields["energy"], total_energy(grid.fields))

        if fluxes is not None:
            for planes in fluxes.planes():
                np.nan_to_num(planes, copy=False, nan=0.0, posinf=0.0,
                              neginf=0.0)

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
    def rescue_chemistry(self, grid, network, solver, dt_code: float, units,
                         a: float, error, stats, faults=None):
        """Chemistry ladder; returns integrator stats or None (skipped).

        ``error`` is what the grid's advance raised, or None when it
        returned ``stats`` and left an invalid state.  An advance that
        raised wrote no cell (the network writes a cell back only after
        integrating it, and no slab after the first can raise what the
        first did not), so it is retried; one that returned has advanced
        the grid over dt already, so it is repaired, never advanced again.
        ``solver`` is the run's hydro solver, whose positivity floors the
        repair rung clamps to, as the hydro ladder's does; ``faults`` is
        the run's injector, re-queried for ``chem_blowup`` by the retry.
        """
        site = {"level": int(grid.level), "grid": int(grid.grid_id)}

        if error is not None:
            # rung 1: retry as two half-dt advances (a raised retry, like
            # the advance it retries, leaves every cell untouched)
            try:
                if faults is not None:
                    faults.maybe_raise("chem_blowup", grid.level,
                                       grid.grid_id)
                half = 0.5 * dt_code
                active = grid.fields.view(grid.interior)
                s1 = network.advance_fields(active, half, units, a)
                s2 = network.advance_fields(active, half, units, a)
                error = None
                # one advance over dt: the counters of its halves summed
                stats = integrator_stats({
                    "cells": s2["cells"],
                    "substeps_total": (s1["substeps_total"]
                                       + s2["substeps_total"]),
                    "substeps_max": max(s1["substeps_max"],
                                        s2["substeps_max"]),
                    "iterations": s1["iterations"] + s2["iterations"]})
            except Exception as exc:
                error = exc
            problems = (self.validate_grid(grid) if error is None else
                        [f"task_error:{type(error).__name__}"])
            self.record_event({
                "rung": "chem_retry_half_dt", "ok": not problems,
                "problems": problems, **site,
            })
            if not problems:
                return stats

        if error is None:
            # rung 2: an advance ran but left an invalid state: repair it
            repair = self._floor_repair(grid, solver, None)
            problems = self.validate_grid(grid)
            self.record_event({
                "rung": "chem_floor_repair", "ok": not problems,
                "problems": problems, **site, **repair["stats"],
            })
            if not problems:
                return stats

        # rung 3: skip this grid-step of chemistry (bounded local error for
        # an operator-split source term); hydro state is left as the hydro
        # defense validated it
        self.record_event({
            "rung": "chem_skip", "ok": True, "problems": [], **site,
        })
        return None
