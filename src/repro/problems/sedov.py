"""Sedov-Taylor point explosion: the canonical 3-d blast-wave validation.

A finite pulse of thermal energy is deposited in a small sphere at the
centre of a uniform cold periodic box; the resulting spherical shock must
track the exact similarity solution ``R(t) = beta (E t^2 / rho0)^{1/5}``
(see :func:`repro.validation.analytic.sedov_solution`).

The problem runs through the :class:`repro.simulation.Simulation` facade,
so it inherits every subsystem the collapse workload uses — exec
backends, the defense ladder, shock-criterion AMR (``refine_shock``),
checkpointed run control via :meth:`make_controller` — and doubles as a
chaos-matrix / convergence-harness target.
"""

from __future__ import annotations

import numpy as np

from repro import constants as const
from repro.simulation import Simulation, SimulationConfig
from repro.validation.analytic import sedov_solution


class SedovBlast:
    """Spherical blast in an ``n_root``^3 periodic unit box.

    ``energy`` is deposited uniformly inside ``deposit_radius_cells`` root
    cells of the centre (a smoothed source keeps the early evolution
    resolution-matched, which is what makes the L1 error converge at
    first order through the shock).  ``t_end`` defaults to the time the
    shock reaches roughly 70% of the half-box, before periodic images
    interact.
    """

    default_t_end = 0.05

    def __init__(self, n_root: int = 32, energy: float = 1.0,
                 rho0: float = 1.0, e_ambient: float = 1e-6,
                 deposit_radius_cells: float = 3.5,
                 max_level: int = 0, refine_shock: float | None = None,
                 solver: str = "ppm", cfl: float = 0.4,
                 characteristic_tracing: bool = True, n_scalars: int = 0,
                 exec_backend: str | None = None, workers: int | None = None,
                 max_grid_dims: int = 16):
        self._spec_kwargs = {
            "n_root": int(n_root), "energy": float(energy),
            "rho0": float(rho0), "e_ambient": float(e_ambient),
            "deposit_radius_cells": float(deposit_radius_cells),
            "max_level": int(max_level), "refine_shock": refine_shock,
            "solver": solver, "cfl": float(cfl),
            "characteristic_tracing": bool(characteristic_tracing),
            "n_scalars": int(n_scalars), "exec_backend": exec_backend,
            "workers": workers, "max_grid_dims": int(max_grid_dims),
        }
        self.n = int(n_root)
        self.energy = float(energy)
        self.rho0 = float(rho0)
        self.gamma = const.GAMMA
        solver_options = (
            {"characteristic_tracing": True}
            if (characteristic_tracing and solver == "ppm")
            else {}
        )
        self.sim = Simulation(SimulationConfig(
            n_root=int(n_root), max_level=int(max_level), solver=solver,
            solver_options=solver_options,
            cfl=cfl, refine_shock=refine_shock, n_scalars=int(n_scalars),
            exec_backend=exec_backend, workers=workers,
            max_grid_dims=max_grid_dims,
        ))
        self.steps = 0
        self._setup(float(e_ambient), float(deposit_radius_cells))

    def _setup(self, e_ambient: float, deposit_radius_cells: float) -> None:
        root = self.sim.hierarchy.root
        dx = root.dx
        x, y, z = np.meshgrid(*root.cell_centres(), indexing="ij")
        r = np.sqrt((x - 0.5) ** 2 + (y - 0.5) ** 2 + (z - 0.5) ** 2)
        inside = r < deposit_radius_cells * dx
        n_in = int(np.count_nonzero(inside))
        # specific energy that integrates to exactly `energy` on this grid
        e_blast = self.energy / (self.rho0 * n_in * dx**3)
        e = np.where(inside, e_blast, e_ambient)
        root.fields["density"][root.interior] = self.rho0
        root.fields["internal"][root.interior] = e
        root.fields["energy"][root.interior] = e  # velocities are zero
        if self.sim.hierarchy.advected:
            # dye the energy-deposit sphere so scalar transport is visible
            for name in self.sim.hierarchy.advected:
                root.fields[name][root.interior] = np.where(
                    inside, self.rho0, 0.0
                )
        self.sim.initialize()

    @property
    def time(self) -> float:
        return float(self.sim.hierarchy.root.time)

    # ------------------------------------------------------------------ run
    def run(self, t_end: float | None = None,
            max_root_steps: int | None = None) -> dict:
        t_end = self.default_t_end if t_end is None else float(t_end)
        evolver = self.sim.evolver
        while self.time < t_end:
            if max_root_steps is not None and self.steps >= max_root_steps:
                break
            if evolver.advance_root_step(t_end) is None:
                break
            self.steps += 1
        return self.summary()

    def make_controller(self, run_dir: str, **opts):
        """Checkpointed run control (CLI ``run --problem sedov --dir ...``)."""
        opts.setdefault("config", {
            "problem": "sedov", "kwargs": dict(self._spec_kwargs),
        })
        return self.sim.make_controller(run_dir, **opts)

    # -------------------------------------------------------------- measure
    def _radii(self) -> np.ndarray:
        root = self.sim.hierarchy.root
        x, y, z = np.meshgrid(*root.cell_centres(), indexing="ij")
        return np.sqrt((x - 0.5) ** 2 + (y - 0.5) ** 2 + (z - 0.5) ** 2)

    #: fixed radii count for the cumulative mass profile (resolution-
    #: independent, so profiles are comparable across the harness ladder)
    profile_bins = 32
    profile_r_max = 1.25  # in units of the exact shock radius

    def _profile_radii(self, exact) -> np.ndarray:
        return np.linspace(
            0.0, self.profile_r_max * exact.r_shock, self.profile_bins + 1
        )[1:]

    def mass_profile(self, exact=None) -> np.ndarray:
        """Normalised cumulative mass M(<r) at fixed radii r/R_exact.

        Cell membership is smoothed over one cell width, so the profile's
        error is dominated by the O(dx) shock-front smear rather than
        sphere-surface aliasing — this is the first-order-convergent
        Sedov diagnostic the validation floors pin.
        """
        exact = exact or sedov_solution(
            self.time, energy=self.energy, rho0=self.rho0, gamma=self.gamma
        )
        root = self.sim.hierarchy.root
        dx = root.dx
        r_cell = self._radii().ravel()
        m_cell = root.fields["density"][root.interior].ravel() * dx**3
        m_norm = (4.0 / 3.0) * np.pi * exact.r_shock**3 * self.rho0
        out = np.empty(self.profile_bins)
        for j, rj in enumerate(self._profile_radii(exact)):
            w = np.clip((rj - r_cell) / dx + 0.5, 0.0, 1.0)
            out[j] = float((w * m_cell).sum()) / m_norm
        return out

    def solution_fields(self) -> dict[str, np.ndarray]:
        """Root-grid interior fields plus the cumulative mass profile."""
        root = self.sim.hierarchy.root
        interior = root.interior
        rho = root.fields["density"][interior]
        e = root.fields["internal"][interior]
        return {
            "density": rho.copy(),
            "pressure": (self.gamma - 1.0) * rho * e,
            "mass_profile": self.mass_profile(),
        }

    def reference_fields(self) -> dict[str, np.ndarray]:
        """Exact similarity solution sampled at the root cell centres."""
        exact = sedov_solution(
            self.time, energy=self.energy, rho0=self.rho0, gamma=self.gamma
        )
        sampled = exact.sample(self._radii())
        # exact cumulative mass: integrate the similarity density, ambient
        # rho0 beyond the shock
        shell_mass = 4.0 * np.pi * exact.r**2 * exact.density
        m_in = np.concatenate([
            [0.0],
            np.cumsum(0.5 * (shell_mass[1:] + shell_mass[:-1])
                      * np.diff(exact.r)),
        ])
        m_norm = (4.0 / 3.0) * np.pi * exact.r_shock**3 * self.rho0
        radii = self._profile_radii(exact)
        m_exact = np.interp(radii, exact.r, m_in)
        outside = radii > exact.r_shock
        m_exact[outside] = m_in[-1] + (4.0 / 3.0) * np.pi * self.rho0 * (
            radii[outside]**3 - exact.r_shock**3
        )
        return {
            "density": sampled["density"],
            "pressure": sampled["pressure"],
            "mass_profile": m_exact / m_norm,
        }

    def shock_radius(self) -> float:
        """Numerical shock position: density-weighted radius of the peak."""
        r = self._radii().ravel()
        rho = self.sim.hierarchy.root.fields["density"][
            self.sim.hierarchy.root.interior
        ].ravel()
        excess = np.maximum(rho - self.rho0, 0.0)
        w = excess**2
        total = float(w.sum())
        return float((r * w).sum() / total) if total > 0 else 0.0

    def summary(self) -> dict:
        exact = sedov_solution(
            max(self.time, 1e-30), energy=self.energy, rho0=self.rho0,
            gamma=self.gamma,
        )
        return {
            "time": self.time,
            "steps": self.steps,
            "shock_radius": self.shock_radius(),
            "shock_radius_exact": exact.r_shock,
            "max_density": float(
                self.sim.hierarchy.root.field_view("density").max()
            ),
            "n_grids": self.sim.hierarchy.n_grids,
        }
