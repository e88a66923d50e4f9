"""The four end-to-end workloads and their correctness checks.

Each workload is a real hierarchy run driven through the public entry
points (``advance_root_step`` or the run controller).  Windows are fixed
root-step counts, never wall-clock, so the work is identical on both sides
of a comparison.  See README.md for why each workload exists and which
layers it exercises.
"""

from __future__ import annotations

import numpy as np

#: the one Gaussian-random-field realisation the collapse workloads use.
#: ``--seed`` is recorded but feeds no workload's inputs: other realisations
#: abort inside the solver at this size (GRF seeds 2, 3 and 11 die within 13
#: root steps: multigrid non-convergence or an exhausted defense ladder),
#: and even a 1e-3 jitter of the sigma_8 boost on this realisation flips
#: the clustering between two regimes (29 vs 43 level-2 grids, wall_s 8 %
#: and peak RSS 40 % apart) -- no 10 % gate survives that.  The other two
#: workloads have analytic initial conditions.
GRF_SEED = 7


class Workload:
    """One benchmark scenario: how to build it, step it and check it."""

    name = ""
    why = ""
    #: warm-up and window lengths in root steps, (full, smoke)
    warmup = (0, 0)
    window = (0, 0)
    #: set-up + window of one rep on the reference host, full size; only
    #: used to turn ``--seconds`` into a rep count
    nominal_rep_s = 10.0
    #: drive the window through make_controller(...).resume(...)
    controlled = False
    #: relative root-grid gas-mass drift allowed over the window; set well
    #: above the drift measured at the seed commit (README.md, "Checks")
    mass_drift_tol = 0.0

    def build(self, smoke: bool):
        """Construct the problem, initial conditions and initial hierarchy."""
        raise NotImplementedError

    def evolver(self, problem):
        return problem.evolver

    def t_end(self, problem) -> float:
        raise NotImplementedError

    def pre_step(self, problem) -> None:
        """Driver work before every root step (none by default)."""

    def extra_checks(self, problem, smoke: bool) -> list:
        """Workload-specific (name, ok, detail) checks after the window."""
        return []

    def steps(self, smoke: bool) -> tuple[int, int]:
        i = 1 if smoke else 0
        return self.warmup[i], self.window[i]


class CollapseChem(Workload):
    name = "collapse_chem"
    why = ("the paper's own run: chemistry, N-body, gravity, hydro, rebuild "
           "and flux correction all work at once")
    warmup = (6, 3)
    window = (5, 2)
    nominal_rep_s = 9.5
    mass_drift_tol = 2e-3

    def construct(self, smoke: bool):
        from repro.problems import PrimordialCollapse

        return PrimordialCollapse(
            n_root=8 if smoke else 16, max_level=2, z_init=100.0,
            seed=GRF_SEED, amplitude_boost=4.0, jeans_number=4.0,
            mass_refine_factor=8.0, with_chemistry=True,
            with_dark_matter=True, max_dims=16,
        )

    def build(self, smoke):
        problem = self.construct(smoke)
        problem.initial_rebuild()
        return problem

    def t_end(self, problem):
        return problem.code_time_of_redshift(20.0)

    def pre_step(self, problem):
        # exactly what make_controller's pre_step does, so the bare-evolver
        # and controlled workloads refine identically
        problem.criteria.a = problem.clock.a_of(problem.hierarchy.root.time)


class CollapseChemCkpt(CollapseChem):
    name = "collapse_chem.ckpt"
    why = ("the same run driven as `repro run --dir` drives it: controller, "
           "telemetry, heartbeats, digest-backed checkpoint writes and one "
           "verified read")
    nominal_rep_s = 10.5
    controlled = True

    def controller(self, problem, run_dir: str):
        from repro.runtime import CheckpointPolicy

        return problem.make_controller(
            run_dir, policy=CheckpointPolicy(every_steps=3, keep_last=3))


class SedovAmr(Workload):
    name = "sedov_amr"
    why = ("hydro and boundary fill only, no gravity or chemistry: a gravity "
           "or chemistry change must show no change here")
    warmup = (5, 2)
    window = (5, 2)
    nominal_rep_s = 9.0
    mass_drift_tol = 1e-10
    #: |shock_radius / shock_radius_exact - 1| allowed at window end, (full,
    #: smoke): after the smoke run's four steps the shock has barely left
    #: the 3.5-cell deposit sphere (23 % off), after ten it is within 0.1 %
    shock_radius_tol = (0.06, 0.30)

    def build(self, smoke):
        from repro.problems import SedovBlast

        return SedovBlast(n_root=16 if smoke else 32, max_level=1,
                          refine_shock=0.3)

    def evolver(self, problem):
        return problem.sim.evolver

    def t_end(self, problem):
        return problem.default_t_end

    def extra_checks(self, problem, smoke):
        s = problem.summary()
        err = abs(s["shock_radius"] / s["shock_radius_exact"] - 1.0)
        return [("shock_radius", err <= self.shock_radius_tol[smoke],
                 f"{s['shock_radius']:.4f} vs exact "
                 f"{s['shock_radius_exact']:.4f} ({100 * err:.1f} %)")]


class SphereDeep(Workload):
    name = "sphere_deep"
    why = ("many small grids over four levels: multigrid, sibling exchange "
           "and small-grid hydro dominate, chemistry is absent")
    warmup = (1, 1)
    window = (1, 1)
    nominal_rep_s = 19.5
    mass_drift_tol = 3e-3

    def build(self, smoke):
        from repro.problems import SphereCollapse

        problem = SphereCollapse(n_root=16, max_level=2 if smoke else 3,
                                 overdensity=25.0, max_dims=8)
        problem.bench_t_end = 1.5 * problem.free_fall_time(
            problem.peak_density)
        return problem

    def t_end(self, problem):
        return problem.bench_t_end


WORKLOADS = {w.name: w for w in (CollapseChem(), SedovAmr(), SphereDeep(),
                                 CollapseChemCkpt())}


# ------------------------------------------------------------------- checks
def root_gas_mass(hierarchy) -> float:
    root = hierarchy.root
    return float(root.field_view("density").sum() * root.dx**3)


def all_finite(hierarchy) -> bool:
    from repro.runtime.recovery import NonFiniteStateError, Watchdog

    try:
        Watchdog(check_all=True).check(hierarchy)
    except NonFiniteStateError:
        return False
    parts = hierarchy.particles
    return not len(parts) or bool(np.isfinite(parts.positions.hi).all()
                                  and np.isfinite(parts.velocities).all())


def common_checks(workload: Workload, hierarchy, mass_before: float) -> list:
    """Tolerance-based checks every workload runs after its window."""
    drift = abs(root_gas_mass(hierarchy) / mass_before - 1.0)
    return [
        ("finite", all_finite(hierarchy), ""),
        ("nesting", bool(hierarchy.validate_nesting()), ""),
        ("mass_drift", drift <= workload.mass_drift_tol,
         f"{drift:.3e} (tol {workload.mass_drift_tol:.1e})"),
    ]
