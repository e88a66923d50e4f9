"""Analytic reference solutions for the validation battery.

* :func:`sedov_solution` — the Sedov–Taylor point-explosion similarity
  solution (spherical, uniform cold ambient medium), evaluated from the
  exact parametric form (Sedov 1959; Kamm & Timmes 2007 parametrisation)
  with the energy-integral normalisation computed numerically, so the
  profiles conserve the injected energy to quadrature accuracy by
  construction.
* :func:`riemann_profile` — exact Riemann (shock-tube) profiles, thin
  wrapper over :func:`repro.hydro.riemann.exact_riemann`.
* :func:`kh_growth_rate` / :func:`rt_growth_rate` — incompressible linear
  growth rates for the Kelvin–Helmholtz and Rayleigh–Taylor instabilities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.hydro.riemann import exact_riemann

_trapz = getattr(np, "trapezoid", None) or np.trapz  # numpy 2.x rename


# --------------------------------------------------------------------- Sedov
@dataclass
class SedovSolution:
    """Tabulated similarity profiles plus the scalars tests assert on.

    ``r`` is ascending from (near) the origin to the shock radius
    ``r_shock``; ``density``/``velocity``/``pressure`` are the profiles at
    time ``t``.  ``beta`` is the dimensionless shock-position constant in
    ``R(t) = beta * (E t^2 / rho0)**(1/5)``.
    """

    t: float
    energy: float
    rho0: float
    gamma: float
    beta: float
    r_shock: float
    shock_speed: float
    r: np.ndarray
    density: np.ndarray
    velocity: np.ndarray
    pressure: np.ndarray

    def sample(self, radius: np.ndarray) -> dict[str, np.ndarray]:
        """Profiles interpolated onto arbitrary radii (ambient beyond R)."""
        radius = np.asarray(radius, dtype=float)
        rho = np.interp(radius, self.r, self.density,
                        left=self.density[0], right=self.rho0)
        u = np.interp(radius, self.r, self.velocity, left=0.0, right=0.0)
        p = np.interp(radius, self.r, self.pressure,
                      left=self.pressure[0], right=0.0)
        outside = radius > self.r_shock
        rho = np.where(outside, self.rho0, rho)
        u = np.where(outside, 0.0, u)
        p = np.where(outside, 0.0, p)
        return {"density": rho, "velocity": u, "pressure": p}

    def total_energy(self) -> float:
        """Volume integral of kinetic + thermal energy over the profiles.

        Equals ``energy`` to quadrature accuracy — the self-consistency
        check the unit tests pin.
        """
        e = 0.5 * self.density * self.velocity**2 + self.pressure / (
            self.gamma - 1.0
        )
        return float(_trapz(4.0 * np.pi * self.r**2 * e, self.r))


def _sedov_similarity(gamma: float, n_points: int):
    """Exact parametric similarity profiles for nu=3 (spherical), w=0.

    Returns ascending arrays ``(l, V, g, Z)`` where ``l = r/R``,
    ``u = V r/t``, ``g = rho/rho2`` (post-shock density), and
    ``c^2 = (4 r^2 / 25 t^2) Z`` closes the pressure via
    ``p = rho c^2 / gamma`` (Landau & Lifshitz §106).
    """
    g_ = float(gamma)
    if not 1.0 < g_ < 7.0 or abs(g_ - 2.0) < 1e-12:
        raise ValueError(f"sedov_solution: unsupported gamma={g_}")
    v0 = 2.0 / (5.0 * g_)            # origin (V -> v0, l -> 0)
    v2 = 4.0 / (5.0 * (g_ + 1.0))    # immediately behind the shock (l = 1)

    a_ = 5.0 * (g_ + 1.0) / 4.0
    b_ = (g_ + 1.0) / (g_ - 1.0)
    c_ = 5.0 * g_ / 2.0
    d_ = 5.0 * (g_ + 1.0) / (7.0 - g_)
    e_ = (3.0 * g_ - 1.0) / 2.0

    alpha0 = 2.0 / 5.0
    alpha2 = -(g_ - 1.0) / (2.0 * (g_ - 1.0) + 3.0)
    alpha1 = (5.0 * g_ / (2.0 + 3.0 * (g_ - 1.0))) * (
        6.0 * (2.0 - g_) / (25.0 * g_) - alpha2
    )
    alpha3 = 3.0 / (2.0 * (g_ - 1.0) + 3.0)
    alpha4 = 5.0 * alpha1 / (2.0 - g_)
    alpha5 = -2.0 / (2.0 - g_)

    # cluster samples toward the origin, where x2 -> 0 makes l and g vary
    # over many decades; s_min keeps V - v0 well above machine epsilon so
    # Z stays finite at the innermost sample
    s = np.linspace(1e-3, 1.0, n_points)
    V = v0 + (v2 - v0) * s**4

    x1 = a_ * V
    x2 = b_ * np.maximum(c_ * V - 1.0, 1e-300)
    x3 = d_ * (1.0 - e_ * V)
    x4 = b_ * (1.0 - (c_ / g_) * V)

    l = x1**-alpha0 * x2**-alpha2 * x3**-alpha1
    g = x2**alpha3 * x3**alpha4 * x4**alpha5

    vbar = 2.5 * V  # Landau-Lifshitz's velocity variable
    Z = g_ * (g_ - 1.0) * (1.0 - vbar) * vbar**2 / (
        2.0 * np.maximum(g_ * vbar - 1.0, 1e-300)
    )
    return l, V, g, Z


def sedov_solution(t: float, energy: float = 1.0, rho0: float = 1.0,
                   gamma: float = 1.4, n_points: int = 4000) -> SedovSolution:
    """Exact Sedov–Taylor blast-wave state at time ``t``.

    The normalisation constant ``beta`` comes from requiring the similarity
    profiles to integrate to ``energy`` — no tabulated constants, so the
    result is self-consistent for any supported gamma.
    """
    t = float(t)
    if t <= 0.0:
        raise ValueError("sedov_solution needs t > 0")
    l, V, g, Z = _sedov_similarity(gamma, n_points)

    # energy integral: E = (rho0 R^5 / t^2) * I  =>  beta = I**(-1/5)
    integrand = l**4 * g * (0.5 * V**2 + 4.0 * Z / (
        25.0 * gamma * (gamma - 1.0)
    ))
    I = 4.0 * np.pi * (gamma + 1.0) / (gamma - 1.0) * _trapz(integrand, l)
    beta = float(I ** (-0.2))

    r_shock = beta * (energy * t**2 / rho0) ** 0.2
    shock_speed = 0.4 * r_shock / t  # dR/dt = (2/5) R / t

    rho2 = rho0 * (gamma + 1.0) / (gamma - 1.0)  # strong-shock jump
    r = l * r_shock
    density = g * rho2
    velocity = V * r / t
    pressure = density * (4.0 * r**2 / (25.0 * t**2)) * Z / gamma
    return SedovSolution(
        t=t, energy=float(energy), rho0=float(rho0), gamma=float(gamma),
        beta=beta, r_shock=float(r_shock), shock_speed=float(shock_speed),
        r=r, density=density, velocity=velocity, pressure=pressure,
    )


# ------------------------------------------------------------------- Riemann
def riemann_profile(left, right, gamma: float, x: np.ndarray, t: float,
                    x0: float = 0.5) -> dict[str, np.ndarray]:
    """Exact shock-tube profiles at positions ``x`` and time ``t``.

    ``left``/``right`` are (rho, u, p) primitive states either side of the
    initial discontinuity at ``x0``.
    """
    x = np.asarray(x, dtype=float)
    if t <= 0.0:
        rho = np.where(x < x0, left[0], right[0])
        u = np.where(x < x0, left[1], right[1])
        p = np.where(x < x0, left[2], right[2])
        return {"density": rho, "velocity": u, "pressure": p}
    xi = (x - x0) / t
    rho, u, p = exact_riemann(left, right, gamma, xi)
    return {"density": rho, "velocity": u, "pressure": p}


# ------------------------------------------------------- linear growth rates
def kh_growth_rate(k: float, rho1: float, rho2: float,
                   u1: float, u2: float) -> float:
    """Incompressible Kelvin–Helmholtz linear growth rate (Chandrasekhar).

    sigma = k sqrt(rho1 rho2) |u1 - u2| / (rho1 + rho2) for a sharp
    interface between streams of densities rho1/rho2 and velocities u1/u2;
    ``k`` is the perturbation wavenumber (2 pi / wavelength).
    """
    return float(
        k * np.sqrt(rho1 * rho2) * abs(u1 - u2) / (rho1 + rho2)
    )


def rt_growth_rate(k: float, rho_heavy: float, rho_light: float,
                   g: float) -> float:
    """Incompressible Rayleigh–Taylor growth rate sigma = sqrt(A g k).

    ``A`` is the Atwood number (rho_h - rho_l)/(rho_h + rho_l); ``g`` the
    magnitude of the acceleration pointing from heavy toward light fluid.
    """
    atwood = (rho_heavy - rho_light) / (rho_heavy + rho_light)
    return float(np.sqrt(max(atwood * g * k, 0.0)))
