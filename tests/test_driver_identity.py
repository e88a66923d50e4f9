"""Every driver of a problem takes the same root steps.

``HierarchyEvolver.advance_root_step`` is the only code that steps level 0:
it fills the root's ghost zones, sets the refinement criteria's scale
factor from the root clock, and runs one pass of the ``EvolveLevel`` body.
``advance_to``, ``Simulation.run``, ``PrimordialCollapse.run_to_redshift``,
``SphereCollapse.run`` and the run controller all loop over it, so running
a problem through any of them ends on the same ``Hierarchy.fingerprint()``
(which hashes whole arrays, ghost zones included).
"""

import numpy as np


def _collapse():
    from repro.problems import PrimordialCollapse

    problem = PrimordialCollapse(
        n_root=8, max_level=2, z_init=100.0, seed=7, amplitude_boost=4.0,
        jeans_number=4.0, mass_refine_factor=8.0, with_chemistry=True,
        with_dark_matter=True, max_dims=16)
    problem.initial_rebuild()
    return problem


def test_collapse_drivers_agree(tmp_path):
    """run_to_redshift == controller == a bare root-step loop that never
    touches ``criteria.a``."""
    z_end, steps = 20.0, 3
    fingerprints = {}

    problem = _collapse()
    out = problem.run_to_redshift(z_end, max_root_steps=steps)
    assert out["root_steps"] == steps
    assert len(problem.hierarchy.levels) > 2
    fingerprints["run_to_redshift"] = problem.hierarchy.fingerprint()

    problem = _collapse()
    t_end = problem.code_time_of_redshift(z_end)
    out = problem.make_controller(str(tmp_path / "ctl"), z_end=z_end).run(
        t_end, max_root_steps=steps)
    assert out["steps"] == steps
    fingerprints["controller"] = problem.hierarchy.fingerprint()

    problem = _collapse()
    for _ in range(steps):
        assert problem.evolver.advance_root_step(t_end) is not None
    fingerprints["advance_root_step"] = problem.hierarchy.fingerprint()

    assert len(set(fingerprints.values())) == 1, fingerprints


def test_sedov_advance_to_matches_controller(tmp_path):
    """``Simulation.run`` (``advance_to``) == a controller run to ``t_end``."""
    from repro.problems import SedovBlast

    t_end = 0.03

    def blast():
        return SedovBlast(n_root=16, max_level=1, refine_shock=0.3)

    plain = blast()
    plain.sim.run(t_end)
    assert plain.sim.hierarchy.max_level == 1

    controlled = blast()
    out = controlled.make_controller(str(tmp_path / "ctl")).run(t_end)
    assert out["status"] == "finished" and out["steps"] > 1
    assert plain.sim.hierarchy.fingerprint() == \
        controlled.sim.hierarchy.fingerprint()


def test_sphere_run_counts_root_steps():
    """``SphereCollapse.run(max_root_steps=N)`` == N bare root steps."""
    from repro.problems import SphereCollapse

    def sphere():
        return SphereCollapse(n_root=8, max_level=2, overdensity=20.0)

    steps = 3
    run = sphere()
    run.run(max_root_steps=steps)
    assert run.evolver.step_counter[0] == steps

    loop = sphere()
    t_end = 1.5 * loop.free_fall_time(loop.peak_density)
    for _ in range(steps):
        loop.evolver.advance_root_step(t_end)
    assert run.hierarchy.fingerprint() == loop.hierarchy.fingerprint()


def test_advance_to_fills_the_kernels_block():
    """``advance_to`` resets and fills the per-root-step stat blocks."""
    from repro import Simulation, SimulationConfig

    sim = Simulation(SimulationConfig(n_root=8, max_level=1,
                                      refine_overdensity=1.5))
    sim.set_density(lambda x, y, z: 1.0 + np.exp(
        -((x - .5) ** 2 + (y - .5) ** 2 + (z - .5) ** 2) / 0.01))
    sim.set_field("internal", lambda x, y, z: np.full_like(x, 0.1))
    sim.initialize()
    sim.run(t_end=0.002)
    kernels = sim.evolver.step_stats["kernels"].snapshot()
    assert kernels.get("hydro.step.calls", 0) > 0, kernels
