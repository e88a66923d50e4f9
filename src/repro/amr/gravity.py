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
from repro.gravity.multigrid import MultigridConvergenceError, MultigridSolver
from repro.kernels import dispatch as kernels
from repro.nbody.cic import cic_deposit, cic_gather


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
                 sibling_iterations: int = 2, mg_tol: float = 1e-6):
        self.g_code = g_code
        self.mean_density = mean_density
        self.sibling_iterations = int(sibling_iterations)
        self.mg = MultigridSolver(tol=mg_tol)
        #: defense ladder (set by the evolver): when present, subgrid
        #: solves run strict — non-convergence is retried once with a
        #: doubled V-cycle budget, then escalated — instead of silently
        #: accepting a bad potential
        self.defense = None

    # ------------------------------------------------------------ densities
    def total_density(self, hierarchy, grid) -> np.ndarray:
        """Gas + deposited dark-matter comoving density on the interior."""
        rho = grid.field_view("density").copy()
        parts = hierarchy.particles
        if len(parts) == 0:
            return rho
        periodic = grid.level == 0 and np.all(grid.dims == hierarchy.n_root)
        if periodic:
            offsets = parts.positions.hi + parts.positions.lo
            rho += cic_deposit(offsets, parts.masses, rho.shape, grid.dx, periodic=True)
        else:
            # take particles within one cell of the grid so boundary cells
            # receive their share of straddling clouds
            pad = grid.dx
            mask = parts.in_region(grid.left_edge - pad, grid.right_edge + pad)
            if mask.any():
                sel = parts.select(mask)
                offsets = (
                    sel.positions.hi + sel.positions.lo
                ) - grid.left_edge
                rho += cic_deposit(
                    offsets, sel.masses, rho.shape, grid.dx, periodic=False
                )
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

        sources = {g.grid_id: self.source(hierarchy, g, a) for g in grids}
        topo = hierarchy.level_topology(level)
        boundaries = dict(zip((g.grid_id for g in grids),
                              parent_boundaries(topo)))
        smap = topo.links
        passes = solves = vcycles = 0
        for iteration in range(self.sibling_iterations):
            passes += 1
            for g in grids:
                rim = boundaries[g.grid_id]
                sol, attempts, cycles = self._solve_grid(
                    g, sources[g.grid_id], rim, faults)
                solves += attempts
                vcycles += cycles
                self._store_phi(g, sol)
            if iteration == self.sibling_iterations - 1:
                break  # nothing reads the rims again
            # exchange: overwrite rim values with sibling solutions; a pass
            # that changes nothing means the iteration has converged
            improved = False
            for g in grids:
                rim = boundaries[g.grid_id]
                for link in smap.get(g.grid_id, ()):
                    if link.rim_dst is None:
                        continue
                    new = link.sibling.phi[link.rim_src]
                    if not np.array_equal(rim[link.rim_dst], new):
                        rim[link.rim_dst] = new
                        improved = True
            if not improved:
                break
        return passes, solves, vcycles

    def _solve_grid(self, grid, src: np.ndarray, rim: np.ndarray,
                    faults=None) -> tuple[np.ndarray, int, int]:
        """One subgrid multigrid solve, defended when a ladder is attached;
        returns the solution, the solves it took and their V-cycles.

        Defense off: today's silent solve, bit for bit.  Defense on: the
        solve is strict; on non-convergence (real, or injected via the
        ``mg_diverge`` fault) it is retried once with the V-cycle budget
        doubled, and only a second failure escalates the error to the run
        controller's rollback path.
        """
        site = (int(grid.level), int(grid.grid_id))
        strict = self.defense is not None
        force = faults is not None and faults.take(
            "mg_diverge", grid.level, grid.grid_id) is not None
        try:
            sol = self.mg.solve(src, grid.dx, rim, strict=strict,
                                site=site, force_diverge=force)
            return sol, 1, self.mg.last_cycles
        except MultigridConvergenceError as exc:
            self.defense.record_event({
                "rung": "mg_budget_retry", "ok": True,
                "level": site[0], "grid": site[1],
                "diagnostics": exc.diagnostics.as_dict(),
            })
            force = faults is not None and faults.take(
                "mg_diverge", grid.level, grid.grid_id) is not None
            sol = self.mg.solve(
                src, grid.dx, rim, strict=True,
                max_cycles=2 * self.mg.max_cycles, site=site,
                force_diverge=force,
            )
            return sol, 2, exc.diagnostics.cycles + self.mg.last_cycles

    def _store_phi(self, grid, rim_solution: np.ndarray) -> None:
        """Write the rim-padded MG solution into grid.phi (ghost layout).

        The ghost layers beyond the 1-cell rim are edge-replicated so the
        acceleration gradient stays bounded everywhere — stale values there
        would create huge spurious ghost-band accelerations that destabilise
        the next hydro step before the ghosts are refreshed.
        """
        ng = grid.nghost
        sl = tuple(slice(ng - 1, ng + int(d) + 1) for d in grid.dims)
        grid.phi[sl] = rim_solution
        for axis in range(3):
            n = grid.phi.shape[axis]
            lo_edge = [slice(None)] * 3
            lo_edge[axis] = slice(ng - 1, ng)
            hi_edge = [slice(None)] * 3
            hi_edge[axis] = slice(n - ng, n - ng + 1)
            lo_dst = [slice(None)] * 3
            lo_dst[axis] = slice(0, ng - 1)
            hi_dst = [slice(None)] * 3
            hi_dst[axis] = slice(n - ng + 1, n)
            grid.phi[tuple(lo_dst)] = grid.phi[tuple(lo_edge)]
            grid.phi[tuple(hi_dst)] = grid.phi[tuple(hi_edge)]

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


def parent_boundaries(topo) -> list[np.ndarray]:
    """Dirichlet rims (dims+2) of every grid of ``topo``, interpolated from
    the parents' potentials in one ``fill.level`` call."""
    grids, parents = topo.grids, topo.parents
    if topo.rim_misfit is not None:
        grid = grids[topo.rim_misfit]
        raise ValueError(
            f"Dirichlet rim leaves parent array: {grid} in "
            f"{parents[topo.parent_of[topo.rim_misfit]]}")
    rims = [np.empty(tuple(int(d) + 2 for d in g.dims)) for g in grids]
    kernels.get("fill.level")(
        [([rim], [v - 1 for v in lo], k, 1.0)
         for rim, lo, k in zip(rims, topo.starts, topo.parent_of)],
        [([p.phi], None, origin)
         for p, origin in zip(parents, topo.parent_origins)],
        [], topo.rim, (), grids[0].refine_factor, [False])
    return rims

