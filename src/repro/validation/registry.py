"""Problem registry: every workload discoverable by name.

The registry is the seam between the launchers (``repro run --problem
<name>``, ``repro resume``, the run service), ``repro problems`` /
``repro validate`` and the problem classes in :mod:`repro.problems`.
Each entry is a :class:`ProblemSpec` whose ``factory`` builds the problem.

*Controllable* problems are launchable from a run spec through
:func:`repro.service.specs.build_job`, the one function every launcher
uses: the factory takes the spec's ``kwargs``, and its product has
``make_controller(run_dir, **opts)`` (which stores the problem's name and
normalised kwargs as the checkpointed config) and a stop time — a
``default_t_end``, or ``code_time_of_redshift(z)`` for a spec's ``z_end``.

Problems that additionally implement the *measurable* protocol —

* ``solution_fields() -> {name: ndarray}`` (interior numeric arrays)
* ``reference_fields() -> {name: ndarray} | None`` (analytic on the same
  cells, or None when only self-convergence is possible)

— are eligible for the convergence harness
(:func:`repro.validation.convergence.run_convergence`); ``spec.analytic``
records whether an analytic reference exists.

Factories are held as lazy ``module:attr`` strings so importing the
registry never pulls in heavy problem modules.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field


@dataclass(frozen=True)
class ProblemSpec:
    """One registered workload.

    ``size_arg`` names the factory keyword controlling linear resolution
    (``n`` or ``n_root``); ``default_resolutions`` are the harness's
    resolution ladder; ``run_kwargs`` the defaults handed to
    ``problem.run`` (controllable problems: the stop ``repro run`` uses
    when given none); ``measurable`` whether the convergence protocol is
    implemented and ``analytic`` whether a closed-form reference exists.
    ``fresh_start`` names the method that builds the initial hierarchy
    where the constructor does not: launchers call it on a fresh start
    only, since on a resume the checkpoint replaces the hierarchy.
    """

    name: str
    description: str
    factory_path: str               # 'module:attr', resolved lazily
    size_arg: str = "n"
    default_resolutions: tuple = (16, 32)
    convergence_fields: tuple = ("density",)
    factory_kwargs: dict = field(default_factory=dict)
    run_kwargs: dict = field(default_factory=dict)
    measurable: bool = False
    analytic: bool = False
    controllable: bool = False      # launchable from a run spec
    fresh_start: str = ""
    tags: tuple = ()
    aliases: tuple = ()

    @property
    def factory(self):
        module, attr = self.factory_path.split(":")
        return getattr(importlib.import_module(module), attr)

    def create(self, n: int | None = None, **overrides):
        """Instantiate the problem, honouring the size argument."""
        kwargs = dict(self.factory_kwargs)
        kwargs.update(overrides)
        if n is not None:
            kwargs[self.size_arg] = int(n)
        return self.factory(**kwargs)


_REGISTRY: dict[str, ProblemSpec] = {}
_ALIASES: dict[str, str] = {}


def register(spec: ProblemSpec) -> ProblemSpec:
    """Add a spec (idempotent per name; re-registering replaces)."""
    _REGISTRY[spec.name] = spec
    for alias in spec.aliases:
        _ALIASES[alias] = spec.name
    return spec


def get_problem(name: str) -> ProblemSpec:
    key = name.strip().lower().replace("-", "_")
    key = _ALIASES.get(key, key)
    if key not in _REGISTRY:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown problem {name!r} (known: {known})")
    return _REGISTRY[key]


def list_problems() -> list[ProblemSpec]:
    return [_REGISTRY[k] for k in sorted(_REGISTRY)]


# ---------------------------------------------------------------- built-ins
register(ProblemSpec(
    name="collapse",
    description="Paper workload: cosmological primordial-cloud collapse "
                "(AMR + gravity + chemistry)",
    factory_path="repro.problems.collapse:PrimordialCollapse",
    size_arg="n_root",
    # the demo-sized configuration `repro run` starts from
    factory_kwargs={"max_level": 2, "mass_refine_factor": 8.0},
    run_kwargs={"z_end": 80.0},
    controllable=True,
    fresh_start="initial_rebuild",
    tags=("cosmology", "amr", "chemistry"),
    aliases=("primordial_collapse",),
))

register(ProblemSpec(
    name="simulation",
    description="Generic AMR run: SimulationConfig fields as kwargs, "
                "initial state from a named preset",
    factory_path="repro.simulation:simulation_from_kwargs",
    size_arg="n_root",
    controllable=True,
    fresh_start="initialize",
    tags=("generic", "amr"),
))

register(ProblemSpec(
    name="shock_tube",
    description="Sod shock tube vs the exact Riemann solution (1-d)",
    factory_path="repro.problems.shock_tube:SodShockTube",
    default_resolutions=(64, 128),
    convergence_fields=("density", "velocity", "pressure"),
    run_kwargs={"t_end": 0.2},
    measurable=True,
    analytic=True,
    tags=("hydro", "analytic"),
    aliases=("sod",),
))

register(ProblemSpec(
    name="sphere_collapse",
    description="Self-gravitating sphere collapse (AMR + gravity)",
    factory_path="repro.problems.sphere_collapse:SphereCollapse",
    size_arg="n_root",
    tags=("gravity", "amr"),
))

register(ProblemSpec(
    name="zeldovich_pancake",
    description="Zeldovich pancake: 1-d cosmological caustic formation",
    factory_path="repro.problems.zeldovich_pancake:ZeldovichPancake",
    tags=("cosmology",),
    aliases=("pancake",),
))

register(ProblemSpec(
    name="sedov",
    description="Sedov-Taylor point blast vs the exact similarity solution",
    factory_path="repro.problems.sedov:SedovBlast",
    size_arg="n_root",
    # (16, 24): both sides of the smoke ladder bench_validation.py pins;
    # mass_profile is the integrated density diagnostic that converges at
    # first order while the per-cell error is still pre-asymptotic
    default_resolutions=(16, 24),
    convergence_fields=("density", "mass_profile"),
    measurable=True,
    analytic=True,
    controllable=True,
    tags=("hydro", "analytic", "3d"),
    aliases=("sedov_taylor", "blast"),
))

register(ProblemSpec(
    name="kelvin_helmholtz",
    description="Kelvin-Helmholtz shear instability with a dye scalar "
                "(linear growth rate vs theory)",
    factory_path="repro.problems.kelvin_helmholtz:KelvinHelmholtz",
    size_arg="n_root",
    default_resolutions=(16, 32),
    convergence_fields=("density", "vx", "scalar00"),
    measurable=True,
    analytic=False,                 # growth rate only; self-convergence
    controllable=True,
    tags=("hydro", "instability", "scalars"),
    aliases=("kh",),
))

register(ProblemSpec(
    name="rayleigh_taylor",
    description="Rayleigh-Taylor instability in a constant gravity field "
                "(mixing-layer growth vs sqrt(A g k))",
    factory_path="repro.problems.rayleigh_taylor:RayleighTaylor",
    default_resolutions=(16, 32),
    convergence_fields=("density", "scalar00"),
    measurable=True,
    analytic=False,
    tags=("hydro", "instability", "scalars"),
    aliases=("rt",),
))
