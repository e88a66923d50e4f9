"""Zel'dovich pancake: the standard cosmological hydro validation.

A single plane-wave perturbation in an Einstein-de Sitter universe
collapses to a caustic at a chosen redshift z_c.  Before caustic formation
the exact solution is the Zel'dovich map

    x(q, a)  = q + (D(a)/D(a_c)) * A sin(2 pi q) / (2 pi)
    rho/rho0 = 1 / (1 + (D/D_c) A cos(2 pi q))

which this problem evaluates for comparison.  Exercises the comoving
source terms, cold-flow dual energy, and the gravity coupling all at once.
"""

from __future__ import annotations

import numpy as np

from repro.amr import Hierarchy, HierarchyEvolver
from repro.amr.boundary import set_boundary_values
from repro.amr.evolve import CosmologyClock
from repro.amr.gravity import HierarchyGravity
from repro.cosmology import CodeUnits, FriedmannSolver, STANDARD_CDM
from repro.hydro import PPMSolver


class ZeldovichPancake:
    """1-d pancake in a thin 3-d box (n x 1 x 1 root cells... actually
    n^3 with the perturbation along x only)."""

    def __init__(self, n: int = 32, z_init: float = 30.0, z_caustic: float = 5.0,
                 box_mpc: float = 64.0, temperature: float = 100.0):
        self.params = STANDARD_CDM
        self.friedmann = FriedmannSolver(self.params)
        self.units = CodeUnits.for_cosmology(
            self.params, box_mpc * 1e3, z_init
        )
        self.n = int(n)
        self.z_init = float(z_init)
        self.z_caustic = float(z_caustic)
        self.a_init = 1.0 / (1.0 + z_init)
        self.a_caustic = 1.0 / (1.0 + z_caustic)
        # EdS: D = a; amplitude chosen to caustic exactly at a_caustic
        self.amplitude = 1.0
        self.temperature = float(temperature)
        self.hierarchy = self._build()

    # --- analytic solution -------------------------------------------------------
    def growth_ratio(self, a: float) -> float:
        return float(self.friedmann.growth_factor(a) / self.friedmann.growth_factor(self.a_caustic))

    def exact_density(self, q: np.ndarray, a: float) -> np.ndarray:
        d = self.growth_ratio(a) * self.amplitude
        return 1.0 / np.maximum(1.0 - d * np.cos(2.0 * np.pi * q), 1e-10)

    def exact_velocity_code(self, q: np.ndarray, a: float) -> np.ndarray:
        """Proper peculiar velocity in code units (EdS: dD/dt = H D)."""
        h_a = float(self.friedmann.hubble(a))
        d = self.growth_ratio(a) * self.amplitude
        v_comoving_per_s = -h_a * d * np.sin(2.0 * np.pi * q) / (2.0 * np.pi)
        v_proper = a * v_comoving_per_s * self.units.length_unit
        return v_proper / self.units.velocity_unit

    # --- setup ----------------------------------------------------------------------
    def _build(self) -> Hierarchy:
        h = Hierarchy(n_root=self.n)
        root = h.root
        # Lagrangian sampling: deposit sheet masses via the exact map at a_init
        x_grid = (np.arange(self.n) + 0.5) / self.n
        # Eulerian density at a_init from the exact solution (low amplitude,
        # so direct evaluation at Eulerian positions is adequate at start)
        q = self._invert_map(x_grid, self.a_init)
        rho_1d = self.exact_density(q, self.a_init)
        v_1d = self.exact_velocity_code(q, self.a_init)
        root.fields["density"][root.interior] = rho_1d[:, None, None]
        root.fields["vx"][root.interior] = v_1d[:, None, None]
        e = float(
            self.units.energy_from_temperature(self.temperature, 1.22, self.a_init)
        )
        root.fields["internal"][:] = e
        root.fields["energy"][:] = (
            root.fields["internal"] + 0.5 * root.fields["vx"] ** 2
        )
        set_boundary_values(h, 0)
        return h

    def _invert_map(self, x: np.ndarray, a: float) -> np.ndarray:
        """Newton-invert x(q) for the Lagrangian coordinate q."""
        d = self.growth_ratio(a) * self.amplitude
        q = x.copy()
        for _ in range(50):
            f = q - d * np.sin(2 * np.pi * q) / (2 * np.pi) - x
            fp = 1.0 - d * np.cos(2 * np.pi * q)
            q = q - f / np.maximum(fp, 1e-3)
        return q

    # --- run -------------------------------------------------------------------------
    def run(self, z_end: float = 10.0, cfl: float = 0.3,
            exec_config=None) -> dict:
        """Evolve to z_end (must stay before the caustic for the comparison).

        ``exec_config`` selects the per-grid execution backend (see
        :mod:`repro.exec`); results are bitwise identical across backends.
        """
        clock = CosmologyClock(self.friedmann, self.units)
        grav = HierarchyGravity(
            g_code=self.units.gravity_constant_code, mean_density=1.0
        )
        ev = HierarchyEvolver(
            self.hierarchy, PPMSolver(), gravity=grav, clock=clock,
            units=self.units, cfl=cfl, exec_config=exec_config,
        )
        self.evolver = ev
        a_end = 1.0 / (1.0 + z_end)
        t_end_cgs = float(self.friedmann.time_of_a(a_end))
        t_end_code = (t_end_cgs - clock.t0_cgs) / self.units.time_unit
        ev.advance_to(t_end_code)
        return self.profiles(a_end)

    def profiles(self, a: float) -> dict:
        root = self.hierarchy.root
        sl = root.interior
        x = (np.arange(self.n) + 0.5) / self.n
        rho = root.fields["density"][sl].mean(axis=(1, 2))
        vx = root.fields["vx"][sl].mean(axis=(1, 2))
        q = self._invert_map(x, a)
        return {
            "x": x,
            "density": rho,
            "velocity": vx,
            "density_exact": self.exact_density(q, a),
            "velocity_exact": self.exact_velocity_code(q, a),
            "a": a,
        }
