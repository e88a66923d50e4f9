"""Friedmann expansion: a(t), t(z), H(a) and the growth factor.

The simulation is "carried out in a proper expanding cosmological background
spacetime" (paper Sec. 1).  Hydro and N-body solvers consume ``a`` and
``adot`` per timestep; initial-condition generation needs the linear growth
factor D(a).

For the paper's Einstein–de Sitter model everything is analytic
(a proportional to t^(2/3)); for general (open / Lambda) models the solver
integrates the Friedmann equation once at construction and interpolates.
"""

from __future__ import annotations

import numpy as np

from repro.cosmology.parameters import CosmologyParameters
from repro.cosmology.quadrature import qags


class FriedmannSolver:
    """Expansion history of a Friedmann model.

    Times are in seconds since the big bang; ``a`` is normalised to 1 at z=0.
    """

    def __init__(self, params: CosmologyParameters, a_min: float = 1e-6):
        self.params = params
        self.a_min = a_min
        self._eds = (
            abs(params.omega_matter - 1.0) < 1e-12 and abs(params.omega_lambda) < 1e-12
        )
        if not self._eds:
            self._tabulate()

    # --- core relations ---------------------------------------------------------
    def hubble(self, a) -> np.ndarray:
        """H(a) in s^-1."""
        p = self.params
        a = np.asarray(a, dtype=float)
        e2 = p.omega_matter / a**3 + p.omega_curvature / a**2 + p.omega_lambda
        return p.h0_cgs * np.sqrt(e2)

    def adot(self, a) -> np.ndarray:
        """da/dt in s^-1."""
        return np.asarray(a, dtype=float) * self.hubble(a)

    def addot(self, a) -> np.ndarray:
        """d^2a/dt^2 (acceleration), used by some comoving source terms."""
        p = self.params
        a = np.asarray(a, dtype=float)
        return p.h0_cgs**2 * (-0.5 * p.omega_matter / a**2 + p.omega_lambda * a)

    @staticmethod
    def redshift(a) -> np.ndarray:
        return 1.0 / np.asarray(a, dtype=float) - 1.0

    @staticmethod
    def scale_factor(z) -> np.ndarray:
        return 1.0 / (1.0 + np.asarray(z, dtype=float))

    # --- time <-> a ----------------------------------------------------------------
    def time_of_a(self, a) -> np.ndarray:
        """Cosmic time t(a) in seconds."""
        a = np.asarray(a, dtype=float)
        if self._eds:
            # a = (3 H0 t / 2)^(2/3)  =>  t = 2 a^(3/2) / (3 H0)
            return 2.0 * a**1.5 / (3.0 * self.params.h0_cgs)
        return self._t_of_a(np.log(a))

    def a_of_time(self, t) -> np.ndarray:
        """Scale factor a(t)."""
        t = np.asarray(t, dtype=float)
        if self._eds:
            return (1.5 * self.params.h0_cgs * t) ** (2.0 / 3.0)
        return np.exp(self._lna_of_t(t))

    def time_of_z(self, z) -> np.ndarray:
        return self.time_of_a(self.scale_factor(z))

    def age_today(self) -> float:
        return float(self.time_of_a(1.0))

    def _tabulate(self):
        """Integrate dt/dlna = 1/H from a_min to beyond a=1 and build splines."""
        from scipy.integrate import solve_ivp
        from scipy.interpolate import interp1d

        lna = np.linspace(np.log(self.a_min), np.log(4.0), 4096)

        def rhs(ln_a, t):
            return 1.0 / self.hubble(np.exp(ln_a))

        # time at a_min: matter/curvature-dominated early limit ~ EdS
        t0 = 2.0 * self.a_min**1.5 / (3.0 * self.params.h0_cgs * np.sqrt(self.params.omega_matter))
        sol = solve_ivp(rhs, (lna[0], lna[-1]), [t0], t_eval=lna, rtol=1e-10, atol=1e-30)
        t = sol.y[0]
        self._t_of_a = interp1d(lna, t, kind="cubic")
        self._lna_of_t = interp1d(t, lna, kind="cubic")

    # --- linear growth ---------------------------------------------------------------
    def growth_factor(self, a) -> np.ndarray:
        """Linear growth factor D(a), normalised so D(1) = 1.

        EdS: D = a exactly.  General models use the standard integral
        D(a) ~ H(a) * Integral[ da' / (a' H(a'))^3 ].
        """
        a = np.asarray(a, dtype=float)
        if self._eds:
            return a
        return np.vectorize(self._growth_one)(a) / self._growth_one(1.0)

    def _growth_one(self, a: float) -> float:
        p = self.params

        def integrand(ap):
            e2 = p.omega_matter / ap**3 + p.omega_curvature / ap**2 + p.omega_lambda
            return ap**-3 * e2**-1.5

        val, _ = qags(integrand, 1e-8, a, limit=200)
        return np.sqrt(
            p.omega_matter / a**3 + p.omega_curvature / a**2 + p.omega_lambda
        ) * val

    def growth_rate(self, a) -> np.ndarray:
        """f = dlnD/dlna, used for Zel'dovich velocities (EdS: f = 1)."""
        a = np.asarray(a, dtype=float)
        if self._eds:
            return np.ones_like(a)
        eps = 1e-5
        lo = self.growth_factor(a * (1 - eps))
        hi = self.growth_factor(a * (1 + eps))
        return (np.log(hi) - np.log(lo)) / (2 * eps)
