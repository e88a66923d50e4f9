"""Self-gravity on the hierarchy (paper Sec. 3.3).

"On the root grid, this is done with an FFT ... On subgrids, we interpolate
the gravitational potential field and then solve the Poisson equation using
a traditional multi-grid relaxation technique.  In order to produce a
solution that is consistent across the boundaries of sibling grids, we use
an iterative method: first solving each grid separately, exchanging
boundary conditions, and then solving again."
"""

from __future__ import annotations

import numpy as np

from repro.amr.boundary import wrap_phi_ghosts
from repro.gravity.fft_poisson import solve_periodic
from repro.gravity.gradient import acceleration_from_potential
from repro.gravity.multigrid import (
    MultigridConvergenceError,
    MultigridDiagnostics,
)
from repro.kernels import dispatch as kernels
from repro.nbody.cic import cic_gather

#: the V-cycle of every subgrid solve: red-black sweeps before and after
#: the coarse-grid correction, the extent at or below which a level is
#: smoothed instead of restricted, the V-cycle budget (doubled once by the
#: defense's retry) and the relative residual tolerance
MG_PRE, MG_POST, MG_MIN_SIZE, MG_BUDGET, MG_TOL = 3, 3, 4, 60, 1e-6


class HierarchyGravity:
    """Level-by-level Poisson solves with sibling iteration.

    Parameters
    ----------
    g_code:
        Newton's constant in code units.
    mean_density:
        The comoving mean *total* density in code units (1.0 for the
        cosmological unit system; only fluctuations source peculiar gravity).
    sibling_iterations:
        Solve / exchange / re-solve passes on refined levels.
    """

    def __init__(self, g_code: float, mean_density: float = 1.0,
                 sibling_iterations: int = 2):
        self.g_code = g_code
        self.mean_density = mean_density
        self.sibling_iterations = int(sibling_iterations)
        #: defense ladder (set by the evolver): when present, subgrid
        #: solves run strict — non-convergence is retried once with a
        #: doubled V-cycle budget, then escalated — instead of silently
        #: accepting a bad potential
        self.defense = None

    # ------------------------------------------------------------ densities
    def total_density(self, hierarchy, grid) -> np.ndarray:
        """Gas + deposited dark-matter comoving density on the interior."""
        rho = grid.field_view("density").copy()
        dm = hierarchy.dm_density(grid)
        if dm is not None:
            rho += dm
        return rho

    def source(self, hierarchy, grid, a: float) -> np.ndarray:
        """RHS of the comoving Poisson equation on the grid interior."""
        rho = self.total_density(hierarchy, grid)
        return 4.0 * np.pi * self.g_code / a * (rho - self.mean_density)

    # --------------------------------------------------------------- solves
    def solve_level(self, hierarchy, level: int, a: float = 1.0,
                    faults=None) -> tuple[int, int, int]:
        """Fill ``grid.phi`` for every grid on a level.

        Returns ``(passes, solves, vcycles)``: the sibling passes run, the
        multigrid solves they made and the V-cycles those took (all zero
        on the root level, which is one FFT).  ``faults`` is the run's
        injector, queried for ``mg_diverge`` before every subgrid solve.
        """
        grids = hierarchy.level_grids(level)
        if not grids:
            return 0, 0, 0
        if level == 0:
            g = grids[0]
            src = self.source(hierarchy, g, a)
            phi = solve_periodic(src, g.dx)
            g.phi[g.interior] = phi
            wrap_phi_ghosts(g)
            return 0, 0, 0

        plan = hierarchy.level_topology(level).poisson()
        src = np.empty(int(plan.cell_offsets[-1]))
        for g, view in zip(grids, plan.interiors(src)):
            view[...] = self.source(hierarchy, g, a)
        # every Dirichlet rim, interpolated from the parents' potentials
        kernels.get("fill.level")(plan.rim_fill)
        stats = np.zeros((len(grids), 3))
        counts = [0, 0]  # solves, V-cycles
        passes = 0
        for iteration in range(self.sibling_iterations):
            passes += 1
            # the exchange after every pass but the last (nothing reads
            # the rims again); a pass whose exchange changes nothing means
            # the iteration has converged
            exchange = iteration < self.sibling_iterations - 1
            if not self._sibling_pass(plan, src, grids, faults, exchange,
                                      stats, counts):
                break
        return passes, counts[0], counts[1]

    def _sibling_pass(self, plan, src, grids, faults, exchange, stats,
                      counts) -> bool:
        """One pass of ``mg.level`` over the level; returns whether its
        exchange changed a rim.  ``stats`` receives each solve's
        ``(cycles, residual, converged)``, ``counts`` the solves and
        V-cycles.

        Defense off: an unconverged solve is kept silently.  Defense on:
        the solves are strict, and a grid whose solve does not converge (real,
        or injected via the ``mg_diverge`` fault) is retried once with
        the V-cycle budget doubled (:meth:`_budget_retry`) before the pass
        resumes at the next grid.  Without an injector the pass is one
        kernel call, or one more per retried grid; with one, every grid is
        its own call, so the injector is queried in grid order, before
        each solve and before each retry.
        """
        n = len(grids)
        strict = self.defense is not None
        level_kernel = kernels.get("mg.level")

        def run(first, stop, force=False, budget=MG_BUDGET, exchange=False):
            return level_kernel(plan, src, first, stop, MG_PRE, MG_POST,
                                MG_MIN_SIZE, MG_TOL, budget, strict, force,
                                exchange, stats)

        if faults is None:
            first = 0
            while True:
                failed, changed = run(first, n, exchange=exchange)
                stop = n if failed < 0 else failed
                counts[0] += stop - first
                counts[1] += int(stats[first:stop, 0].sum())
                if failed < 0:
                    return changed
                self._budget_retry(run, grids[failed], failed, stats, None,
                                   counts)
                first = failed + 1
        for i, g in enumerate(grids):
            force = faults.take("mg_diverge", g.level, g.grid_id) is not None
            if run(i, i + 1, force)[0] < 0:
                counts[0] += 1
                counts[1] += int(stats[i, 0])
            else:
                self._budget_retry(run, g, i, stats, faults, counts)
        return run(n, n, exchange=exchange)[1]

    def _budget_retry(self, run, grid, i, stats, faults, counts) -> None:
        """The ``mg_budget_retry`` rung: record grid ``i``'s failed strict
        solve, solve it again from its rim with double the V-cycle budget
        and, if that fails too, escalate the error to the run
        controller's rollback path."""
        site = (int(grid.level), int(grid.grid_id))
        failed = MultigridDiagnostics(
            cycles=int(stats[i, 0]), budget=MG_BUDGET,
            residual=float(stats[i, 1]), tol=MG_TOL, converged=False)
        self.defense.record_event({
            "rung": "mg_budget_retry", "ok": True,
            "level": site[0], "grid": site[1],
            "diagnostics": failed.as_dict(),
        })
        force = faults is not None and faults.take(
            "mg_diverge", grid.level, grid.grid_id) is not None
        budget = 2 * MG_BUDGET
        if run(i, i + 1, force, budget)[0] >= 0:
            raise MultigridConvergenceError(MultigridDiagnostics(
                cycles=int(stats[i, 0]), budget=budget,
                residual=float(stats[i, 1]), tol=MG_TOL, converged=False),
                site=site)
        counts[0] += 2
        counts[1] += failed.cycles + int(stats[i, 0])

    # --------------------------------------------------------- acceleration
    def acceleration(self, grid, a: float = 1.0) -> np.ndarray:
        """g = -grad(phi)/a on the full (ghost-padded) array: one
        ``gravity.accel`` kernel call.

        Central differences; the outermost ghost layer is one-sided.  Only
        interior values feed the dynamics (ghosts are refreshed each step).
        """
        return kernels.get("gravity.accel")(grid.phi, grid.dx, a)

    def particle_accelerations(self, grid, accel_full: np.ndarray,
                               positions_hi, positions_lo) -> np.ndarray:
        """CIC-gather the grid's acceleration at particle positions."""
        ng = grid.nghost
        offsets = (positions_hi + positions_lo) - grid.left_edge + ng * grid.dx
        return cic_gather(accel_full, offsets, grid.dx, periodic=False)


def accel_numpy(phi: np.ndarray, dx: float, a: float) -> np.ndarray:
    """NumPy reference of the ``gravity.accel`` kernel: the non-periodic
    :func:`~repro.gravity.gradient.acceleration_from_potential`,
    ``-np.gradient(phi, dx, axis=k) / a`` for each axis k."""
    return acceleration_from_potential(phi, dx, a, periodic=False)
