"""The paper's headline problem: primordial star formation, ab initio.

Assembles every subsystem: SCDM Zel'dovich initial conditions (optionally
with nested static meshes, Sec. 4), dark-matter particles, the 12-species
chemistry + cooling, self-gravity, and mass/Jeans refinement — then follows
the collapse of the first object through the hierarchy.

Scaled-run policy: the hero run used ~1e6 CPU-seconds on 64 processors;
configurations here default to laptop scale (8^3-16^3 roots, capped depth)
and an optional ``amplitude_boost`` that raises the realisation's sigma_8 so
the first peak collapses after an affordable number of root steps.  The
boost changes *when* the halo forms, not the physics of how it collapses
(the paper's own ICs are a rare-peak selection for the same reason).
"""

from __future__ import annotations

import numpy as np

from repro.amr import Hierarchy, HierarchyEvolver, RefinementCriteria
from repro.amr.boundary import set_boundary_values
from repro.amr.evolve import CosmologyClock
from repro.amr.gravity import HierarchyGravity
from repro.analysis.profiles import find_densest_point, radial_profiles
from repro.chemistry import ChemistryNetwork, primordial_initial_fractions
from repro.chemistry.species import ADVECTED_SPECIES
from repro.cosmology import (
    CodeUnits,
    FriedmannSolver,
    NestedGridIC,
    PowerSpectrum,
    STANDARD_CDM,
    ZeldovichIC,
)
from repro.exec import ExecConfig
from repro.hydro import PPMSolver
from repro.nbody.particles import ParticleSet
from repro.perf import ComponentTimers, HierarchyStats


class PrimordialCollapse:
    """End-to-end primordial star formation simulation (scaled).

    Parameters
    ----------
    n_root:
        Root-grid cells per dimension.
    box_kpc:
        Comoving box size (the paper: 256 kpc).
    z_init:
        Starting redshift ("a few million years after the big bang").
    max_level:
        Hierarchy depth cap (the run budget knob; the paper reached 34).
    jeans_number:
        N_J of the Jeans refinement criterion (paper: 4..64).
    static_levels:
        Nested static-mesh IC levels over the refined region (paper: 3).
    amplitude_boost:
        Multiplies sigma_8 of the realisation (see module docstring).
    with_chemistry / with_dark_matter:
        Toggle the expensive subsystems (ablations, quick runs).
    mass_refine_factor:
        Cells are refined when they exceed this multiple of the initial
        mean cell gas (or DM) mass.
    """

    def __init__(self, n_root: int = 8, box_kpc: float = 256.0,
                 z_init: float = 100.0, seed: int = 7, max_level: int = 4,
                 jeans_number: float = 4.0, static_levels: int = 0,
                 amplitude_boost: float = 4.0, with_chemistry: bool = True,
                 with_dark_matter: bool = True, mass_refine_factor: float = 4.0,
                 region_left=(0.25, 0.25, 0.25), region_right=(0.75, 0.75, 0.75),
                 timers: ComponentTimers | None = None, cfl: float = 0.4,
                 max_dims: int = 16, exec_backend: str | None = None,
                 workers: int | None = None):
        #: constructor spec (JSON-serialisable) — stored in every RunState
        #: so ``python -m repro resume`` can rebuild this exact problem
        self.spec = {
            "n_root": int(n_root), "box_kpc": float(box_kpc),
            "z_init": float(z_init), "seed": int(seed),
            "max_level": int(max_level), "jeans_number": float(jeans_number),
            "static_levels": int(static_levels),
            "amplitude_boost": float(amplitude_boost),
            "with_chemistry": bool(with_chemistry),
            "with_dark_matter": bool(with_dark_matter),
            "mass_refine_factor": float(mass_refine_factor),
            "region_left": list(region_left),
            "region_right": list(region_right),
            "cfl": float(cfl), "max_dims": int(max_dims),
            "exec_backend": exec_backend,
            "workers": None if workers is None else int(workers),
        }
        self.params = STANDARD_CDM.with_(sigma8=STANDARD_CDM.sigma8 * amplitude_boost)
        self.units = CodeUnits.for_cosmology(self.params, box_kpc, z_init)
        self.friedmann = FriedmannSolver(self.params)
        self.clock = CosmologyClock(self.friedmann, self.units)
        self.z_init = float(z_init)
        self.n_root = int(n_root)
        self.max_level = int(max_level)
        self.stats = HierarchyStats()
        self.timers = timers

        advected = list(ADVECTED_SPECIES) if with_chemistry else []
        self.hierarchy = Hierarchy(n_root=self.n_root, advected=advected)
        power = PowerSpectrum(self.params)

        # --- initial conditions -------------------------------------------------
        if static_levels > 0:
            nested = NestedGridIC(
                self.params, self.units, z_init, n_root,
                static_levels=static_levels, region_left=region_left,
                region_right=region_right, seed=seed, power=power,
            )
            gas_levels = nested.level_fields()
            particles = nested.particles() if with_dark_matter else None
        else:
            zel = ZeldovichIC(self.params, self.units, z_init, n_root,
                              seed=seed, power=power)
            gas_levels = [zel.gas()]
            particles = zel.particles() if with_dark_matter else None

        self._install_gas(gas_levels, with_chemistry)
        if particles is not None:
            self.hierarchy.particles = ParticleSet(
                particles.positions, particles.velocities, particles.masses
            )

        # --- physics modules ---------------------------------------------------------
        self.gravity = HierarchyGravity(
            g_code=self.units.gravity_constant_code, mean_density=1.0
        )
        self.chemistry = ChemistryNetwork() if with_chemistry else None
        baryon_frac = self.params.omega_baryon / self.params.omega_matter
        mean_cell_gas = baryon_frac * self.hierarchy.root.dx**3
        mean_cell_dm = (1.0 - baryon_frac) * self.hierarchy.root.dx**3
        self.criteria = RefinementCriteria(
            gas_mass_threshold=mass_refine_factor * mean_cell_gas,
            dm_mass_threshold=(
                mass_refine_factor * mean_cell_dm if with_dark_matter else None
            ),
            jeans_number=jeans_number,
            units=self.units,
            a=self.units.a_initial,
            max_level=self.max_level,
            max_dims=max_dims,
        )
        self.evolver = HierarchyEvolver(
            self.hierarchy, PPMSolver(), gravity=self.gravity,
            chemistry=self.chemistry, criteria=self.criteria,
            clock=self.clock, units=self.units, cfl=cfl, stats=self.stats,
            timers=timers, jeans_floor_cells=4.0,
            exec_config=ExecConfig.resolve(backend=exec_backend,
                                           workers=workers),
        )
        self.snapshots: list[dict] = []

    # ------------------------------------------------------------------ setup
    def _install_gas(self, gas_levels, with_chemistry: bool) -> None:
        from repro.amr.grid import Grid

        fractions = primordial_initial_fractions() if with_chemistry else {}
        root = self.hierarchy.root

        def fill(grid, gas):
            sl = grid.interior
            grid.fields["density"][sl] = gas.density
            for i, name in enumerate(("vx", "vy", "vz")):
                grid.fields[name][sl] = gas.velocity[i]
            grid.fields["internal"][sl] = gas.energy
            grid.fields["energy"][sl] = gas.energy + 0.5 * sum(
                gas.velocity[i] ** 2 for i in range(3)
            )
            for name, frac in fractions.items():
                grid.fields[name][sl] = frac * gas.density

        fill(root, gas_levels[0])
        set_boundary_values(self.hierarchy, 0)
        r = self.hierarchy.refine_factor
        for level, gas in enumerate(gas_levels[1:], start=1):
            n_lvl = self.n_root * r**level
            start = np.round(np.asarray(gas.left_edge) * n_lvl).astype(int)
            dims = np.asarray(gas.density.shape)
            parent = self.hierarchy.level_grids(level - 1)[0] if level > 1 else root
            # find the parent grid containing this static region
            for cand in self.hierarchy.level_grids(level - 1):
                probe = Grid(level, start, dims, self.n_root, r, self.hierarchy.nghost)
                if probe.is_nested_in(cand):
                    parent = cand
                    break
            g = Grid(level, start, dims, self.n_root, r, self.hierarchy.nghost)
            self.hierarchy.add_grid(g, parent)
            fill(g, gas)
            set_boundary_values(self.hierarchy, level)

    # --------------------------------------------------------------------- state
    @property
    def current_redshift(self) -> float:
        return self.clock.redshift_of(self.hierarchy.root.time)

    @property
    def peak_density_code(self) -> float:
        return max(g.field_view("density").max() for g in self.hierarchy.all_grids())

    @property
    def peak_number_density_cgs(self) -> float:
        a = self.clock.a_of(self.hierarchy.root.time)
        return float(
            self.units.number_density_cgs(self.peak_density_code, a, 1.22)
        )

    # ----------------------------------------------------------------------- run
    def initial_rebuild(self) -> None:
        """Seed the adaptive hierarchy from the initial conditions."""
        self.evolver.initial_rebuild()

    def code_time_of_redshift(self, z: float) -> float:
        """Code time at which the background reaches redshift ``z``."""
        a = 1.0 / (1.0 + z)
        t_cgs = float(self.friedmann.time_of_a(a))
        return (t_cgs - self.clock.t0_cgs) / self.units.time_unit

    def make_controller(self, run_dir: str, z_end: float | None = None,
                        **opts):
        """A :class:`repro.runtime.RunController` wired for this problem.

        The stored config lets the CLI rebuild this problem on ``resume``.
        """
        from repro.runtime import RunController

        config = {"problem": "collapse", "kwargs": dict(self.spec)}
        if z_end is not None:
            config["z_end"] = float(z_end)
        opts.setdefault("config", config)
        return RunController(self.evolver, run_dir, problem=self, **opts)

    def run_to_redshift(self, z_end: float, max_root_steps: int = 10000,
                        snapshot_densities=None) -> dict:
        """Advance until redshift ``z_end``, snapshotting profiles on the way.

        ``snapshot_densities``: ascending list of central number densities
        (cm^-3) at which to record Fig.4-style radial profiles, checked
        after every root step.
        """
        targets = list(snapshot_densities or [])
        t_end = self.code_time_of_redshift(z_end)
        steps = 0
        while (steps < max_root_steps
               and self.evolver.advance_root_step(t_end) is not None):
            steps += 1
            while targets and self.peak_number_density_cgs >= targets[0]:
                self.snapshot(label=f"n={targets[0]:.1e}")
                targets.pop(0)
        return {
            "redshift": self.current_redshift,
            "peak_n_cgs": self.peak_number_density_cgs,
            "max_level": self.hierarchy.max_level,
            "n_grids": self.hierarchy.n_grids,
            "root_steps": steps,
            "sdr": self.hierarchy.spatial_dynamic_range(),
        }

    def snapshot(self, label: str = "") -> dict:
        """Record Fig. 4-style profiles at the current state."""
        a = self.clock.a_of(self.hierarchy.root.time)
        prof = radial_profiles(
            self.hierarchy, nbins=20, units=self.units, a=a,
            species=self.chemistry is not None,
        )
        snap = {
            "label": label,
            "redshift": self.current_redshift,
            "time_code": float(self.hierarchy.root.time),
            "peak_n_cgs": self.peak_number_density_cgs,
            # comoving, like profiles["density"]: the box's mean gas density
            "mean_density": float(self.hierarchy.root.field_view(
                "density").mean()),
            "profiles": prof,
        }
        self.snapshots.append(snap)
        return snap

    def densest_point(self) -> np.ndarray:
        return find_densest_point(self.hierarchy)


def instrumented_collapse(**kwargs) -> PrimordialCollapse:
    """The registry factory: launched runs are always instrumented, so their
    telemetry step records carry the per-component timer fractions (the
    paper's Sec. 5 usage table, live)."""
    return PrimordialCollapse(timers=ComponentTimers(), **kwargs)


def find_collapse_site(n_root: int = 8, z_init: float = 100.0, z_survey: float = 25.0,
                       seed: int = 7, amplitude_boost: float = 4.0) -> np.ndarray:
    """The paper's first pass: "We first run a low-resolution simulation to
    determine where the first star will form" — returns that position.
    """
    survey = PrimordialCollapse(
        n_root=n_root, z_init=z_init, seed=seed, max_level=1,
        amplitude_boost=amplitude_boost, with_chemistry=False,
        static_levels=0,
    )
    survey.initial_rebuild()
    survey.run_to_redshift(z_survey, max_root_steps=300)
    return survey.densest_point()
