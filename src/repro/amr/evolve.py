"""The recursive EvolveLevel control algorithm (paper Sec. 3.2).

Direct transcription of the paper's pseudo-code::

    EvolveLevel(level, ParentTime):
        SetBoundaryValues(all grids)
        while (Time < ParentTime):
            dt = ComputeTimeStep(all grids)
            SolveHydroEquations(all grids, dt)
            Time += dt
            SetBoundaryValues(all grids)
            EvolveLevel(level+1, Time)
            FluxCorrection
            Projection
            RebuildHierarchy(level+1)

plus the physics the paper couples on every level: the Poisson solve
(before the hydro step, so gas and particles feel the same potential),
dark-matter particle kicks/drifts for the particles this level owns (the
finest level containing them), and the sub-cycled chemistry/cooling update.
Per-grid times are extended-precision (Sec. 3.5: absolute time is one of
the quantities that genuinely needs 128-bit once dt/t ~ 1e-12).
"""

from __future__ import annotations

import warnings
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from repro.amr.boundary import set_boundary_values
from repro.amr.defense import DefenseLadder
from repro.amr.flux_correction import accumulate_boundary_fluxes, correct_level
from repro.amr.projection import project_level
from repro.amr.rebuild import rebuild_hierarchy
from repro.exec import ChemistryTask, ExecutionEngine, GravityAccelTask, HydroTask
from repro.hydro.timestep import accel_timestep, expansion_timestep, hydro_timestep, particle_timestep
from repro.kernels import dispatch as kernel_dispatch
from repro.perf.timers import ComponentTimers, StepStats
from repro.precision.doubledouble import DoubleDouble


class StaticClock:
    """Non-cosmological runs: a = 1, adot = 0 forever."""

    def a_of(self, time_code) -> float:
        return 1.0

    def adot_of(self, time_code) -> float:
        return 0.0


class CosmologyClock:
    """Maps extended-precision code time to (a, da/dt_code).

    Code t=0 corresponds to the initial redshift of the unit system.
    """

    def __init__(self, friedmann, units):
        self.friedmann = friedmann
        self.units = units
        self.t0_cgs = float(friedmann.time_of_a(units.a_initial))

    def _t_cgs(self, time_code) -> float:
        return self.t0_cgs + float(time_code) * self.units.time_unit

    def a_of(self, time_code) -> float:
        return float(self.friedmann.a_of_time(self._t_cgs(time_code)))

    def adot_of(self, time_code) -> float:
        a = self.a_of(time_code)
        return float(self.friedmann.adot(a)) * self.units.time_unit

    def redshift_of(self, time_code) -> float:
        return 1.0 / self.a_of(time_code) - 1.0


class HierarchyEvolver:
    """Binds the hierarchy to its physics modules and runs the W-cycle.

    Parameters
    ----------
    hierarchy: Hierarchy
    solver:
        A PPMSolver / ZeusSolver (anything with .step(fields, dx, dt, ...)).
    gravity:
        Optional :class:`repro.amr.gravity.HierarchyGravity`.
    chemistry:
        Optional :class:`repro.chemistry.ChemistryNetwork` (requires units).
    criteria:
        Optional :class:`repro.amr.refinement.RefinementCriteria`;
        None freezes the current grid structure.  It carries the regrid
        policy of every rebuild, the depth cap ``max_level`` included.
    clock:
        StaticClock (default) or CosmologyClock.
    units:
        CodeUnits; required when chemistry is active.
    stats:
        Optional recorder; any of the methods ``record_step(hierarchy,
        level, dt, time)`` / ``record_rebuild(hierarchy, level)`` it defines
        are invoked.
    exec_config:
        Optional :class:`repro.exec.ExecConfig` (or dict) selecting the
        execution backend for independent per-grid work; None resolves
        from ``REPRO_EXEC_BACKEND`` / ``REPRO_WORKERS`` (default: serial).
        Results are bitwise identical across backends and worker counts.
    defense:
        ``None`` (default) attaches a :class:`repro.amr.defense
        .DefenseLadder` that validates every per-grid task result and
        rescues invalid grids in place before escalating to the run
        controller; ``False`` disables validation entirely (seed
        semantics: a task error aborts the step); or pass a configured
        ladder instance.  With no escalations the ladder is read-only, so
        results stay bitwise identical either way.
    """

    def __init__(self, hierarchy, solver, gravity=None, chemistry=None,
                 criteria=None, clock=None, units=None, cfl: float = 0.4,
                 stats=None, jeans_floor_cells: float = 0.0, exec_config=None,
                 defense=None):
        self.hierarchy = hierarchy
        self.solver = solver
        self.gravity = gravity
        self.chemistry = chemistry
        self.criteria = criteria
        self.clock = clock or StaticClock()
        self.units = units
        self.cfl = cfl
        self.stats = stats
        #: the run's component timers (paper Sec. 5 table); their clock
        #: starts here, and the hierarchy attributes its cache rebuilds to
        #: their "topology" section
        self.timers = ComponentTimers()
        hierarchy.timers = self.timers
        #: if > 0: pressure-support floor so the local Jeans length never
        #: falls below this many cell widths on the *finest allowed* level —
        #: the standard remedy (Machacek et al. 2001 lineage) for artificial
        #: fragmentation once the depth cap stops the paper's "refine
        #: forever" strategy.
        self.jeans_floor_cells = float(jeans_floor_cells)
        #: grid-scoped defense ladder (repro.amr.defense); validates task
        #: results and rescues sick grids locally before any rollback
        if defense is None:
            defense = DefenseLadder()
        elif defense is False:
            defense = None
        self.defense = defense
        if gravity is not None and getattr(gravity, "defense", None) is None:
            gravity.defense = self.defense
        #: execution engine for independent per-grid work (hydro sweeps,
        #: chemistry advances, gravity accelerations); see repro.exec
        self.engine = ExecutionEngine(exec_config)
        #: chemistry integrator diagnostics of the root step
        self.chem_stats = StepStats()
        #: component -> its statistics for the root step being taken, reset
        #: at the top of advance_root_step; each non-empty one becomes a
        #: block of the telemetry step record (docs/RUNTIME.md)
        self.step_stats = {"exec": self.engine.stats,
                           "chemistry": self.chem_stats,
                           "gravity": StepStats(), "rebuild": StepStats(),
                           "kernels": StepStats()}
        if self.defense is not None:
            self.step_stats["defense"] = self.defense.stats
        self.step_counter = defaultdict(int)
        #: optional liveness callback — called with the section name at
        #: every timed sub-step boundary (the RunController points this at
        #: its HeartbeatWriter so the daemon can tell "slow" from "hung")
        self.phase_hook = None
        #: this run's chaos injector (repro.runtime.faults.FaultInjector),
        #: handed to every fault hook the run reaches; None (the default)
        #: injects nothing
        self.faults = None

    # ------------------------------------------------------------------ time
    def compute_timestep(self, level: int, a: float, adot: float,
                         remaining: float | None = None) -> float:
        """min over the level's grids of every constraint (paper Sec. 3.1)."""
        h = self.hierarchy
        dts = [expansion_timestep(a, adot)]
        for g in h.level_grids(level):
            # scan the full array (ghosts included): the ghost zones hold
            # what set_boundary_values wrote (neighbour and parent data,
            # never sweep output), and the first sweep reads them, so
            # their signal speeds bind the CFL too
            dts.append(hydro_timestep(g.fields, g.dx, a, self.cfl))
        if len(h.particles) and level == 0:
            dts.append(particle_timestep(h.particles.velocities,
                                         h.root.dx, a, self.cfl))
        dt = float(min(dts))
        if np.isnan(dt):
            raise FloatingPointError(
                f"NaN timestep on level {level}: the solution has gone bad"
            )
        if not np.isfinite(dt):
            # no constraint bites (vacuum / zero-signal state, and the
            # expansion timestep — already part of the min — is unbounded
            # too): fall back to the time left to the parent, never a
            # silent magic constant
            if remaining is not None and np.isfinite(remaining) and remaining > 0.0:
                dt, fallback = float(remaining), "remaining time to parent"
            else:
                dt, fallback = 1.0, "unit code time"
            warnings.warn(
                f"non-finite timestep on level {level} (zero signal speed "
                f"everywhere — vacuum or empty level?); falling back to "
                f"{fallback} dt={dt:.6g}",
                RuntimeWarning,
                stacklevel=2,
            )
        return dt

    # -------------------------------------------------------------- evolve
    def advance_to(self, stop_time: float) -> None:
        """Evolve the whole hierarchy to ``stop_time``, one
        :meth:`advance_root_step` at a time."""
        while self.advance_root_step(stop_time) is not None:
            pass

    def advance_root_step(self, stop_time) -> float | None:
        """Take exactly one root-level step toward ``stop_time``.

        The only code that steps level 0: every driver (``advance_to``, the
        problems' run loops, the run controller) goes through here, so a
        problem takes the same root steps whichever drives it.  One call is
        one pass of the paper's ``EvolveLevel`` body on the root: fill the
        root's ghost zones, step, recurse into level 1.  Before the step the
        refinement criteria's scale factor is set from the root clock.
        Returns the root dt taken, or ``None`` if the root is already at
        ``stop_time``.
        """
        h = self.hierarchy
        target = (
            stop_time
            if isinstance(stop_time, DoubleDouble)
            else DoubleDouble(stop_time)
        )
        if not bool(h.root.time < target):
            return None
        for stats in self.step_stats.values():
            stats.reset()
        if self.criteria is not None:
            self.criteria.a = self.clock.a_of(h.root.time)
        mark = kernel_dispatch.counters_totals()
        self._timed("boundary", set_boundary_values, h, 0)
        dt = self._step_level(0, target)
        # per-kernel calls and seconds, pool threads included
        kernels = self.step_stats["kernels"]
        for name, d in kernel_dispatch.counters_delta(mark).items():
            kernels.add(f"{name}.calls", d["calls"])
            kernels.add(f"{name}.s", d["seconds"])
        return dt

    def evolve_level(self, level: int, parent_time) -> None:
        """Sub-cycle ``level`` (>= 1) up to its parent's time."""
        h = self.hierarchy
        grids = h.level_grids(level)
        if not grids:
            return
        self._timed("boundary", set_boundary_values, h, level)

        while grids and bool(grids[0].time < parent_time):
            if self._step_level(level, parent_time) is None:
                return
            grids = h.level_grids(level)

    def _step_level(self, level: int, parent_time) -> float | None:
        """One step of the EvolveLevel body; returns the dt taken."""
        h = self.hierarchy
        grids = h.level_grids(level)
        if not grids:
            return None
        inj = self.faults
        if inj is not None:
            # publish the step context in-step fault specs match against
            inj.set_step(level, self.step_counter[level])
            # injected liveness faults: a worker wedged mid-step (hang) or
            # merely dragging (slow_step) — sleeps happen between phase
            # beats so only the daemon-side supervisor can catch a hang
            inj.maybe_sleep("hang", level=level)
            inj.maybe_sleep("slow_step", level=level)
        time_now = grids[0].time
        a = self.clock.a_of(time_now)
        adot = self.clock.adot_of(time_now)
        remaining = float(parent_time - time_now)
        # the timestep's cost is the CFL scan of every grid: hydro's
        dt = self._timed("hydro", self.compute_timestep, level, a, adot,
                         remaining)

        # gravity first: gas and particles feel the same potential, and
        # the acceleration constrains the timestep (free-fall through a
        # cell must be resolved)
        accel = {}
        if self.gravity is not None:
            counts = self._timed("gravity", self.gravity.solve_level, h,
                                 level, a, self.faults)
            if level > 0:
                for key, count in zip(("passes", "solves", "vcycles"),
                                      counts):
                    self.step_stats["gravity"].add(f"{key}.L{level}", count)
            gravity_tasks = [GravityAccelTask(g, self.gravity, a)
                             for g in grids]
            self.engine.run(gravity_tasks, level=level, timers=self.timers)
            for g, task in zip(grids, gravity_tasks):
                acc = task.result
                accel[g.grid_id] = acc
                dt = min(
                    dt,
                    accel_timestep(acc[(slice(None),) + g.interior], g.dx, a),
                )

        dt = min(dt, remaining)
        dt = max(dt, remaining * 1e-12)
        a_mid = self.clock.a_of(float(time_now) + 0.5 * dt)
        adot_mid = self.clock.adot_of(float(time_now) + 0.5 * dt)

        # per-grid work between here and the next boundary exchange is
        # independent (no task reads another grid), so the engine may run
        # it on any backend/worker count with bitwise-identical results;
        # all cross-grid effects (flux accumulation, clock updates) are
        # applied below in deterministic grid order
        permute = self.step_counter[level] % 3
        with self._section("hydro"):
            # the pre-step snapshot the step overwrites
            for g in grids:
                g.save_old_state()
        with self.timers.section("topology"):
            plans = [g.hydro_plan() for g in grids]
        hydro_tasks = [
            HydroTask(g, self.solver, dt, a_mid, adot_mid,
                      accel.get(g.grid_id), permute, self.faults, windows,
                      plan)
            for g, (windows, plan) in zip(grids, plans)
        ]
        self.engine.run(hydro_tasks, level=level, timers=self.timers)
        results = self._validated(hydro_tasks, self._defend_hydro)
        if level > 0:
            with self._section("flux_correction"):
                for g, result in zip(grids, results):
                    if result is not None:
                        accumulate_boundary_fluxes(g, result)
                        # the accumulator holds them now
                        result.boundary = None
        for g, result in zip(grids, results):
            # a parent keeps the planes at its children's faces until
            # correct_parent reads them; a childless grid keeps nothing
            keep = result is not None and bool(result.coarse)
            g.last_fluxes = result if keep else None
            g.time = DoubleDouble(g.time + dt)

        self._timed("nbody", self._advance_particles, level, dt, a_mid,
                    adot_mid, accel)

        if self.chemistry is not None and self.units is not None:
            chemistry_tasks = [
                ChemistryTask(g, self.chemistry, dt, self.units, a_mid,
                              self.faults)
                for g in grids
            ]
            self.engine.run(chemistry_tasks, level=level, timers=self.timers)
            # aggregate integrator diagnostics serially after the engine
            # joins — identical result on every backend / worker count
            results = self._validated(chemistry_tasks,
                                      self._defend_chemistry)
            chem = self.chem_stats
            for stats in results:
                if stats is None:  # the defense ladder skipped this grid
                    continue
                chem.add("tasks")
                chem.add("cells", stats["cells"])
                chem.add("substeps_total", stats["substeps_total"])
                chem.peak("substeps_max", stats["substeps_max"])
                chem.mean("active_fraction_mean",
                          stats["active_fraction_mean"], stats["cells"])

        max_level = None if self.criteria is None else self.criteria.max_level
        if (
            self.jeans_floor_cells > 0.0
            and self.gravity is not None
            and max_level is not None
            and level >= max_level
        ):
            with self._section("hydro"):  # hydro's pressure floor
                for g in grids:
                    self._apply_jeans_floor(g, a_mid)

        self._timed("boundary", set_boundary_values, h, level)
        self.evolve_level(level + 1, grids[0].time)
        self._timed("flux_correction", correct_level, h, level + 1)
        self._timed("projection", project_level, h, level + 1)

        self.step_counter[level] += 1
        if self.criteria is not None and (max_level is None
                                          or level + 1 <= max_level):
            self._timed("rebuild", self._rebuild, level + 1)
            self._record_rebuild(h.last_rebuild_stats)
            if self.stats is not None and hasattr(self.stats, "record_rebuild"):
                self.stats.record_rebuild(h, level + 1)
        if self.stats is not None and hasattr(self.stats, "record_step"):
            self.stats.record_step(h, level, dt, float(grids[0].time))
        return dt

    def initial_rebuild(self) -> None:
        """Seed the adaptive hierarchy from the initial conditions: set the
        criteria's scale factor from the clock and rebuild below the
        deepest level present (levels the initial conditions installed
        are kept).  Without criteria the grid structure stays as it is."""
        if self.criteria is None:
            return
        h = self.hierarchy
        self.criteria.a = self.clock.a_of(h.root.time)
        self._timed("rebuild", self._rebuild, max(1, len(h.levels)))

    def _rebuild(self, level: int) -> None:
        """RebuildHierarchy(level): the one place a rebuild is made."""
        rebuild_hierarchy(self.hierarchy, level, self.criteria)

    def _record_rebuild(self, last: dict) -> None:
        """Fold one rebuild_hierarchy call into the step's ``rebuild`` block:
        allocator traffic (``created``/``destroyed``), grids whose box
        survived (``reused``), their ratio and the flagged cells
        per refinement criterion."""
        stats = self.step_stats["rebuild"]
        for key in ("created", "destroyed", "reused"):
            stats.add(key, last[key])
        stats.mean("reuse_rate", last["reuse_rate"],
                   last["created"] + last["reused"])
        for criterion, count in last["flags"].items():
            stats.add(f"flags.{criterion}", count)

    # -------------------------------------------------------------- defense
    def _validated(self, tasks, defend) -> list:
        """The tasks' results in grid order.  With a defense ladder every
        grid is validated and, if need be, rescued by ``defend(task)``;
        without one the first task error is raised."""
        if self.defense is None:
            for task in tasks:
                if task.error is not None:
                    raise task.error
            return [task.result for task in tasks]
        with self._section("defense"):
            return [defend(task) for task in tasks]

    def _defend_hydro(self, task):
        """Validate one grid's hydro result; rescue through the ladder.

        The no-fault fast path is read-only (interior isfinite/positivity
        checks plus floor-counter bookkeeping), which is what keeps
        defended runs bitwise identical to undefended ones.
        """
        d, g = self.defense, task.grid
        if task.error is None:
            d.note_floors(task.result.diagnostics)
            problems = d.validate_grid(g)
            if not problems:
                return task.result
        else:
            problems = [f"task_error:{type(task.error).__name__}"]
        return d.rescue_hydro(g, self.solver, task.dt, task.a, task.adot,
                              task.accel, task.permute, task.windows,
                              problems, self.faults)

    def _defend_chemistry(self, task):
        d, g = self.defense, task.grid
        if task.error is None and not d.validate_grid(g):
            return task.result
        return d.rescue_chemistry(g, self.chemistry, self.solver,
                                  task.dt_code, self.units, task.a,
                                  self.faults)

    # ------------------------------------------------------------- particles
    def _advance_particles(self, level: int, dt: float, a: float, adot: float,
                           accel: dict) -> None:
        h = self.hierarchy
        parts = h.particles
        if self.gravity is None:
            return
        # each particle is advanced by one grid, chosen from its
        # *pre-step* position: a particle drifting across a sibling face
        # mid-step must not be advanced again by the grid it lands in
        for g, sel in h.owned_particles(level):
            acc_field = accel.get(g.grid_id)
            if acc_field is None:
                continue
            pa = self.gravity.particle_accelerations(
                g, acc_field, parts.positions.hi[sel], parts.positions.lo[sel]
            )
            drag = np.exp(-(adot / a) * 0.5 * dt) if adot else 1.0
            v = parts.velocities[sel]
            v = v * drag + pa * 0.5 * dt
            # drift
            dx = v * (dt / a)
            pos = parts.positions[sel].shift(dx)
            parts.positions[sel] = pos.wrap_periodic()
            # second half kick (same potential)
            pa2 = self.gravity.particle_accelerations(
                g, acc_field, parts.positions.hi[sel], parts.positions.lo[sel]
            )
            v = v * drag + pa2 * 0.5 * dt
            parts.velocities[sel] = v

    def _apply_jeans_floor(self, grid, a: float) -> None:
        """Pressure support so L_J >= jeans_floor_cells * dx at the cap.

        In code units (comoving density rho, proper specific energy e):
        e >= N^2 dx^2 G rho / (pi a gamma (gamma-1)).
        """
        from repro import constants as const

        n = self.jeans_floor_cells
        gamma = getattr(self.solver, "gamma", const.GAMMA)
        g_code = self.gravity.g_code
        rho = grid.fields["density"]
        e_floor = (
            n * n * grid.dx**2 * g_code * rho
            / (np.pi * a * gamma * (gamma - 1.0))
        )
        internal = grid.fields["internal"]
        if (internal < e_floor).any():
            from repro.hydro.state import total_energy

            # in place: a level's cached plans hold pointers to these arrays
            np.maximum(internal, e_floor, out=internal)
            np.copyto(grid.fields["energy"], total_energy(grid.fields))

    # ---------------------------------------------------------------- timers
    @contextmanager
    def _section(self, section: str):
        if self.phase_hook is not None:
            self.phase_hook(section)
        with self.timers.section(section):
            yield

    def _timed(self, section: str, fn, *args):
        with self._section(section):
            return fn(*args)
