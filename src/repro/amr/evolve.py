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

import numpy as np

from repro.amr.boundary import set_boundary_values
from repro.amr.defense import DefenseLadder
from repro.amr.flux_correction import accumulate_boundary_fluxes, correct_level
from repro.amr.projection import project_level
from repro.amr.rebuild import rebuild_hierarchy
from repro.chemistry.network import ChemistryStepStats
from repro.exec import ChemistryTask, ExecutionEngine, GravityAccelTask, HydroTask
from repro.hydro.timestep import accel_timestep, expansion_timestep, hydro_timestep, particle_timestep
from repro.kernels import dispatch as kernel_dispatch
from repro.nbody.cic import cic_deposit
from repro.precision.doubledouble import DoubleDouble
from repro.runtime.faults import active as _active_faults
from repro.runtime.faults import maybe_sleep as _maybe_sleep_fault


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


class EvolveLevel:
    """Callable transcription of the pseudo-code (see HierarchyEvolver)."""

    def __init__(self, evolver: "HierarchyEvolver"):
        self.evolver = evolver

    def __call__(self, level: int, parent_time) -> None:
        self.evolver.evolve_level(level, parent_time)


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
        None freezes the current grid structure.
    clock:
        StaticClock (default) or CosmologyClock.
    units:
        CodeUnits; required when chemistry is active.
    stats:
        Optional recorder; any of the methods ``record_step(hierarchy,
        level, dt, time)`` / ``record_rebuild(hierarchy, level)`` it defines
        are invoked.
    timers:
        Optional :class:`repro.perf.timers.ComponentTimers`.
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
    incremental_rebuild:
        ``True`` (default) lets ``rebuild_hierarchy`` reuse the subgrids
        of parents whose flagged-cell sets are unchanged since the last
        rebuild; ``False`` forces every rebuild through the from-scratch
        path.  Both produce bitwise-identical hierarchies — the switch
        exists for the correctness gate and the deep-run benchmark.
    """

    def __init__(self, hierarchy, solver, gravity=None, chemistry=None,
                 criteria=None, clock=None, units=None, cfl: float = 0.4,
                 max_level: int | None = None, rebuild_every: int = 1,
                 stats=None, timers=None, jeans_floor_cells: float = 0.0,
                 exec_config=None, defense=None,
                 incremental_rebuild: bool = True):
        self.hierarchy = hierarchy
        self.solver = solver
        self.gravity = gravity
        self.chemistry = chemistry
        self.criteria = criteria
        self.clock = clock or StaticClock()
        self.units = units
        self.cfl = cfl
        self.max_level = max_level
        self.rebuild_every = max(int(rebuild_every), 1)
        #: parents with unchanged flag sets keep their subgrids across
        #: rebuilds (repro.amr.rebuild); False forces the from-scratch
        #: path — bitwise identical, used by the bitwise gate and benches
        self.incremental_rebuild = bool(incremental_rebuild)
        #: hierarchy counter snapshot at root-step start (telemetry deltas)
        self._rebuild_counters0 = (hierarchy.grids_created,
                                   hierarchy.grids_destroyed,
                                   hierarchy.grids_reused)
        self.stats = stats
        self.timers = timers
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
        #: per-root-step aggregate of the chemistry integrator diagnostics
        #: (substep counts, active-set occupancy); snapshotted by telemetry
        self.chem_stats = ChemistryStepStats()
        self.step_counter = defaultdict(int)
        #: optional liveness callback — called with the section name at
        #: every timed sub-step boundary (the RunController points this at
        #: its HeartbeatWriter so the daemon can tell "slow" from "hung")
        self.phase_hook = None
        if timers is not None:
            # let the hierarchy attribute its cache rebuilds to "topology"
            hierarchy.timers = timers

    # ------------------------------------------------------------------ time
    def compute_timestep(self, level: int, a: float, adot: float,
                         remaining: float | None = None) -> float:
        """min over the level's grids of every constraint (paper Sec. 3.1)."""
        h = self.hierarchy
        dts = [expansion_timestep(a, adot)]
        for g in h.level_grids(level):
            # scan the full array (ghosts included): ghost-band cells are
            # advanced transversally by the sweeps, so their signal speeds
            # bind the CFL too
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
        """Top-level driver: evolve the whole hierarchy to stop_time."""
        self._kernel_mark = kernel_dispatch.counters_totals()
        try:
            self.evolve_level(0, DoubleDouble(stop_time))
        finally:
            # library drivers (run_to_redshift etc.) come through here
            # rather than advance_root_step; close out kernel accounting
            # so the "kernels" timer section and last_kernel_stats stay
            # populated on both entry points
            self._finish_kernel_stats()

    def advance_root_step(self, stop_time) -> float | None:
        """Take exactly one root-level step toward ``stop_time``.

        The run-control layer (:mod:`repro.runtime`) drives the hierarchy
        through this entry point so it can checkpoint, emit telemetry, and
        watchdog-check the state at every root-step boundary — the only
        points where the whole hierarchy is time-synchronised.  Returns the
        root dt taken, or ``None`` if the root is already at ``stop_time``.
        """
        h = self.hierarchy
        target = (
            stop_time
            if isinstance(stop_time, DoubleDouble)
            else DoubleDouble(stop_time)
        )
        if not bool(h.root.time < target):
            return None
        self.engine.begin_root_step()
        self._rebuild_counters0 = (h.grids_created, h.grids_destroyed,
                                   h.grids_reused)
        self.chem_stats.reset()
        self._kernel_mark = kernel_dispatch.counters_totals()
        if self.defense is not None:
            self.defense.begin_root_step()
        self._timed("boundary", set_boundary_values, h, 0)
        dt = self._step_level(0, target)
        self._finish_kernel_stats()
        return dt

    def _finish_kernel_stats(self) -> None:
        """Close out one root step's kernel-tier accounting.

        Folds the per-kernel call/time deltas (pool threads included) into
        the ``"kernels"`` timer section and stashes them for the telemetry
        step record.
        """
        delta = kernel_dispatch.counters_delta(
            getattr(self, "_kernel_mark", {})
        )
        self.last_kernel_stats = {
            "backend": kernel_dispatch.active_backend(),
            "per_kernel": delta,
        }
        if self.timers is not None and delta:
            seconds = sum(d["seconds"] for d in delta.values())
            calls = sum(d["calls"] for d in delta.values())
            self.timers.add_seconds("kernels", seconds, count=calls)

    def evolve_level(self, level: int, parent_time) -> None:
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
        inj = _active_faults()
        if inj is not None:
            # publish the step context in-step fault specs match against
            inj.set_step(level, self.step_counter[level])
            # injected liveness faults: a worker wedged mid-step (hang) or
            # merely dragging (slow_step) — sleeps happen between phase
            # beats so only the daemon-side supervisor can catch a hang
            _maybe_sleep_fault("hang", level=level,
                               step=self.step_counter[level])
            _maybe_sleep_fault("slow_step", level=level,
                               step=self.step_counter[level])
        time_now = grids[0].time
        a = self.clock.a_of(time_now)
        adot = self.clock.adot_of(time_now)
        remaining = float(parent_time - time_now)
        dt = self.compute_timestep(level, a, adot, remaining)

        # gravity first: gas and particles feel the same potential, and
        # the acceleration constrains the timestep (free-fall through a
        # cell must be resolved)
        accel = {}
        if self.gravity is not None:
            counts = self._timed("gravity", self.gravity.solve_level, h,
                                 level, a)
            if self.timers is not None and level > 0:
                for key, count in zip(("passes", "solves", "vcycles"),
                                      counts):
                    self.timers.add_stat("gravity", f"{key}.L{level}", count,
                                         mode="sum")
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
        for g in grids:
            g.save_old_state()
        hydro_tasks = [
            HydroTask(g, self.solver, dt, a_mid, adot_mid,
                      accel.get(g.grid_id), permute)
            for g in grids
        ]
        self.engine.run(hydro_tasks, level=level, timers=self.timers)
        for g, task in zip(grids, hydro_tasks):
            result = task.result
            if self.defense is not None:
                result = self._defend_hydro(g, task, dt, a_mid, adot_mid,
                                            accel.get(g.grid_id), permute)
            elif task.error is not None:
                raise task.error
            g.last_fluxes = result
            if level > 0 and result is not None:
                accumulate_boundary_fluxes(g, result)
            g.time = DoubleDouble(g.time + dt)

        self._timed("nbody", self._advance_particles, level, dt, a_mid,
                    adot_mid, accel)

        if self.chemistry is not None and self.units is not None:
            chemistry_tasks = [
                ChemistryTask(g, self.chemistry, dt, self.units, a_mid)
                for g in grids
            ]
            self.engine.run(chemistry_tasks, level=level, timers=self.timers)
            # aggregate integrator diagnostics serially after the engine
            # joins — identical result on every backend / worker count
            for g, task in zip(grids, chemistry_tasks):
                stats = task.result
                if self.defense is not None:
                    stats = self._defend_chemistry(g, task, dt, a_mid)
                elif task.error is not None:
                    raise task.error
                self.chem_stats.absorb(stats)
            if self.timers is not None:
                snap = self.chem_stats
                self.timers.add_stat("chemistry", "substeps", snap.substeps_total,
                                     mode="set")
                self.timers.add_stat("chemistry", "max_substeps",
                                     snap.substeps_max, mode="max")
                self.timers.add_stat("chemistry", "active_fraction",
                                     snap.active_fraction_mean, mode="set")

        if (
            self.jeans_floor_cells > 0.0
            and self.gravity is not None
            and self.max_level is not None
            and level >= self.max_level
        ):
            for g in grids:
                self._apply_jeans_floor(g, a_mid)

        self._timed("boundary", set_boundary_values, h, level)
        self.evolve_level(level + 1, grids[0].time)
        self._timed("flux_correction", correct_level, h, level + 1)
        self._timed("projection", project_level, h, level + 1)

        self.step_counter[level] += 1
        if (
            self.criteria is not None
            and (self.max_level is None or level + 1 <= self.max_level)
            and self.step_counter[level] % self.rebuild_every == 0
        ):
            self._timed("rebuild", lambda: rebuild_hierarchy(
                h, level + 1, self.criteria, self._dm_density,
                max_level=self.max_level,
                incremental=self.incremental_rebuild))
            if self.stats is not None and hasattr(self.stats, "record_rebuild"):
                self.stats.record_rebuild(h, level + 1)
        if self.stats is not None and hasattr(self.stats, "record_step"):
            self.stats.record_step(h, level, dt, float(grids[0].time))
        return dt

    def rebuild_step_stats(self) -> dict | None:
        """Grid-churn counters since the last root-step start.

        ``created``/``destroyed`` are allocator traffic, ``reused`` the
        grids the incremental rebuild kept alive; ``reuse_rate`` is
        reused / (reused + created) over the root step.  Returns ``None``
        when no rebuild has ever run (nothing to report).
        """
        h = self.hierarchy
        if h.last_rebuild_stats is None:
            return None
        c0, d0, r0 = self._rebuild_counters0
        created = h.grids_created - c0
        destroyed = h.grids_destroyed - d0
        reused = h.grids_reused - r0
        total = created + reused
        out = {
            "created": created,
            "destroyed": destroyed,
            "reused": reused,
            "reuse_rate": round(reused / total, 6) if total else 0.0,
        }
        flags = h.last_rebuild_stats.get("flags")
        if flags:
            out["flags"] = dict(flags)
        return out

    # -------------------------------------------------------------- defense
    def _defend_hydro(self, g, task, dt, a, adot, accel, permute):
        """Validate one grid's hydro result; rescue through the ladder.

        The no-fault fast path is read-only (interior isfinite/positivity
        checks plus floor-counter bookkeeping), which is what keeps
        defended runs bitwise identical to undefended ones.
        """
        d = self.defense
        if task.error is None:
            d.note_floors(task.result.diagnostics)
            problems = d.validate_grid(g)
            if not problems:
                return task.result
        else:
            problems = [f"task_error:{type(task.error).__name__}"]
        return self._timed(
            "defense", d.rescue_hydro, g, self.solver, dt, a, adot,
            accel, permute, problems,
        )

    def _defend_chemistry(self, g, task, dt, a):
        d = self.defense
        if task.error is None:
            problems = d.validate_grid(g)
            if not problems:
                return task.result
        else:
            problems = [f"task_error:{type(task.error).__name__}"]
        return self._timed(
            "defense", d.rescue_chemistry, g, self.chemistry, dt,
            self.units, a, task.error, problems,
        )

    # ------------------------------------------------------------- particles
    def _advance_particles(self, level: int, dt: float, a: float, adot: float,
                           accel: dict) -> None:
        h = self.hierarchy
        parts = h.particles
        if len(parts) == 0 or self.gravity is None:
            return
        owner = h.finest_level_of_particles()
        mask = owner == level
        if not mask.any():
            return
        # assign every particle to exactly one grid from its *pre-step*
        # position (first containing grid wins): a particle drifting across
        # a sibling face mid-step must not be advanced again by the
        # later-iterated grid it lands in
        unassigned = mask.copy()
        assignments: list[tuple] = []
        for g in h.level_grids(level):
            if not unassigned.any():
                break
            sel = np.nonzero(
                parts.in_region(g.left_edge, g.right_edge) & unassigned
            )[0]
            if len(sel) == 0:
                continue
            unassigned[sel] = False
            assignments.append((g, sel))
        moved = False
        for g, sel in assignments:
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
            pos = parts.positions[sel]
            pos.translate_inplace(dx)
            pos = pos.wrap_periodic(0.0, 1.0)
            parts.positions[sel] = pos
            # second half kick (same potential)
            pa2 = self.gravity.particle_accelerations(
                g, acc_field, parts.positions.hi[sel], parts.positions.lo[sel]
            )
            v = v * drag + pa2 * 0.5 * dt
            parts.velocities[sel] = v
            moved = True
        if moved:
            h.notify_particles_moved()

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
        below = grid.fields["internal"] < e_floor
        if below.any():
            grid.fields["internal"] = np.maximum(grid.fields["internal"], e_floor)
            from repro.hydro.state import total_energy

            grid.fields["energy"] = total_energy(grid.fields)

    def _dm_density(self, grid) -> np.ndarray | None:
        parts = self.hierarchy.particles
        if len(parts) == 0:
            return None
        shape = tuple(int(d) for d in grid.dims)
        periodic = grid.level == 0 and np.all(grid.dims == self.hierarchy.n_root)
        if periodic:
            offsets = parts.positions.hi + parts.positions.lo
            return cic_deposit(offsets, parts.masses, shape, grid.dx, periodic=True)
        mask = parts.in_region(grid.left_edge - grid.dx, grid.right_edge + grid.dx)
        if not mask.any():
            return None
        sel = parts.select(mask)
        offsets = (sel.positions.hi + sel.positions.lo) - grid.left_edge
        return cic_deposit(offsets, sel.masses, shape, grid.dx, periodic=False)

    # ---------------------------------------------------------------- timers
    def _timed(self, section: str, fn, *args):
        if self.phase_hook is not None:
            self.phase_hook(section)
        if self.timers is None:
            return fn(*args)
        with self.timers.section(section):
            return fn(*args)
