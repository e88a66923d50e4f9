"""Top-level Simulation facade.

Wires a Hierarchy to its physics with one configuration object — the
entry point the examples use.  For the paper's specific workload see
:class:`repro.problems.collapse.PrimordialCollapse`, which layers the
cosmological initial conditions on top of this machinery.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.amr import Hierarchy, HierarchyEvolver, RefinementCriteria
from repro.amr.boundary import set_boundary_values
from repro.amr.evolve import CosmologyClock, StaticClock
from repro.amr.gravity import HierarchyGravity
from repro.exec import ExecConfig
from repro.hydro import PPMSolver, ZeusSolver
from repro.perf import ComponentTimers, HierarchyStats


@dataclass
class SimulationConfig:
    """Knobs for a generic AMR run."""

    n_root: int = 16
    max_level: int = 3
    refine_factor: int = 2
    solver: str = "ppm"  # or 'zeus'
    #: extra keyword arguments for the solver constructor (e.g.
    #: ``{"characteristic_tracing": True}``); empty leaves the solver
    #: exactly as before
    solver_options: dict = field(default_factory=dict)
    cfl: float = 0.4
    self_gravity: bool = False
    g_code: float = 1.0
    refine_overdensity: float | None = None
    refine_gas_mass: float | None = None
    jeans_number: float | None = None
    #: flow-feature refinement (docs/VALIDATION.md): relative pressure-jump
    #: threshold for shock detection and |curl v| dx / c_s for vorticity;
    #: None disables each
    refine_shock: float | None = None
    refine_vorticity: float | None = None
    advected: tuple = ()
    #: generic passive scalars: adds ``scalar00..`` to the advected list
    #: (transported conservatively by both solvers, flux-corrected,
    #: projected and prolonged); 0 leaves runs bitwise identical
    n_scalars: int = 0
    max_grid_dims: int = 16
    #: execution backend for per-grid work ('serial' | 'thread');
    #: None resolves from REPRO_EXEC_BACKEND / REPRO_WORKERS (see repro.exec)
    exec_backend: str | None = None
    workers: int | None = None
    #: kernel tier for the hydro/chemistry inner loops
    #: ('numpy' | 'cffi' | 'auto'; anything else is a ValueError); None
    #: resolves from REPRO_KERNELS (default numpy).  An unavailable
    #: compiled tier degrades to numpy with a warning (see repro.kernels)
    kernels: str | None = None
    #: in-step defense ladder (see docs/ROBUSTNESS.md); False disables the
    #: per-grid validation/rescue machinery entirely
    defense: bool = True
    #: controlled-run checkpoint cadence (root steps between checkpoints)
    #: and retention — forwarded into the default
    #: :class:`repro.runtime.CheckpointPolicy` built by
    #: :meth:`Simulation.make_controller`; rotation keeps the newest
    #: ``checkpoint_keep_last`` pairs, never the one a preempted run will
    #: resume from
    checkpoint_every: int = 10
    checkpoint_keep_last: int = 3


class Simulation:
    """A configured hierarchy + evolver with a small convenience API.

    Typical use::

        sim = Simulation(SimulationConfig(n_root=16, self_gravity=True,
                                          refine_overdensity=4.0, max_level=3))
        sim.set_density(lambda x, y, z: 1 + 10*np.exp(-((x-.5)**2+...)/0.01))
        sim.initialize()
        sim.run(t_end=0.5)
    """

    def __init__(self, config: SimulationConfig | None = None, units=None,
                 friedmann=None):
        self.config = config or SimulationConfig()
        c = self.config
        if c.kernels is not None:
            from repro import kernels as _kernels

            _kernels.set_backend(c.kernels)
        advected = tuple(c.advected)
        if c.n_scalars:
            from repro.hydro.state import scalar_names

            advected = advected + scalar_names(c.n_scalars)
        self.hierarchy = Hierarchy(
            n_root=c.n_root, refine_factor=c.refine_factor, advected=advected
        )
        self.timers = ComponentTimers()
        self.stats = HierarchyStats()
        solver = (
            PPMSolver(**c.solver_options)
            if c.solver == "ppm"
            else ZeusSolver(**c.solver_options)
        )
        clock = (
            CosmologyClock(friedmann, units)
            if (friedmann is not None and units is not None)
            else StaticClock()
        )
        self.gravity = (
            HierarchyGravity(g_code=c.g_code, mean_density=1.0)
            if c.self_gravity
            else None
        )
        self.criteria = None
        if any(
            v is not None
            for v in (c.refine_overdensity, c.refine_gas_mass, c.jeans_number,
                      c.refine_shock, c.refine_vorticity)
        ):
            self.criteria = RefinementCriteria(
                gas_mass_threshold=c.refine_gas_mass,
                jeans_number=c.jeans_number,
                overdensity_threshold=c.refine_overdensity,
                shock_threshold=c.refine_shock,
                vorticity_threshold=c.refine_vorticity,
                units=units,
                max_level=c.max_level,
                max_dims=c.max_grid_dims,
            )
        self.evolver = HierarchyEvolver(
            self.hierarchy, solver, gravity=self.gravity, criteria=self.criteria,
            clock=clock, units=units, cfl=c.cfl, stats=self.stats,
            timers=self.timers,
            exec_config=ExecConfig.resolve(backend=c.exec_backend,
                                           workers=c.workers),
            defense=None if c.defense else False,
        )

    # ----------------------------------------------------------------- setup
    def set_density(self, fn) -> None:
        """Set the root density from fn(x, y, z) on cell centres."""
        root = self.hierarchy.root
        x, y, z = np.meshgrid(*root.cell_centres(), indexing="ij")
        root.fields["density"][root.interior] = fn(x, y, z)

    def set_field(self, name: str, fn) -> None:
        root = self.hierarchy.root
        x, y, z = np.meshgrid(*root.cell_centres(), indexing="ij")
        root.fields[name][root.interior] = fn(x, y, z)
        if name in ("internal", "vx", "vy", "vz"):
            from repro.hydro.state import total_energy

            root.fields["energy"][root.interior] = total_energy(root.fields)[
                root.interior
            ]

    def initialize(self) -> None:
        """Fill ghosts, update gravity mean, build the initial hierarchy."""
        set_boundary_values(self.hierarchy, 0)
        if self.gravity is not None:
            self.gravity.mean_density = float(
                self.hierarchy.root.field_view("density").mean()
            )
        self.evolver.initial_rebuild()

    # ------------------------------------------------------------------- run
    def run(self, t_end: float) -> dict:
        self.evolver.advance_to(t_end)
        return self.summary()

    def make_controller(self, run_dir: str, **opts):
        """A fault-tolerant :class:`repro.runtime.RunController` for this sim.

        The controller owns the advance loop: atomic rotated checkpoints,
        bit-exact ``resume()``, watchdog rollback on non-finite state, and
        JSONL telemetry in ``run_dir``.  Keyword options are forwarded
        (``policy``, ``recovery``, ``watchdog``, ``pre_step``, ``config``).
        """
        from dataclasses import asdict

        from repro.runtime import CheckpointPolicy, RunController

        opts.setdefault(
            "config", {"problem": "simulation", "kwargs": asdict(self.config)}
        )
        opts.setdefault("policy", CheckpointPolicy(
            every_steps=self.config.checkpoint_every,
            keep_last=self.config.checkpoint_keep_last,
        ))
        return RunController(self.evolver, run_dir, problem=self, **opts)

    def summary(self) -> dict:
        return {
            "time": float(self.hierarchy.root.time),
            "max_level": self.hierarchy.max_level,
            "n_grids": self.hierarchy.n_grids,
            "sdr": self.hierarchy.spatial_dynamic_range(),
            "component_fractions": self.timers.fractions(),
        }


def simulation_from_kwargs(**kwargs) -> Simulation:
    """The registry factory: :class:`SimulationConfig` fields as they come
    out of a JSON run spec or a checkpointed config (tuples are lists)."""
    kwargs["advected"] = tuple(kwargs.get("advected", ()))
    return Simulation(SimulationConfig(**kwargs))
