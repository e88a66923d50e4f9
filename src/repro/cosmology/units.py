"""Comoving code units (Enzo conventions).

The hierarchy works in dimensionless comoving coordinates x in [0,1), with
comoving gas density and peculiar velocity.  This module owns every
conversion between those code quantities and cgs, so physics modules
(chemistry rates, cooling, Jeans length) can be written in physical units
and driven from code-unit fields.

Conventions
-----------
* ``length_unit``   — comoving cm per code length (the box size).
* ``density_unit``  — g/cm^3 of *comoving* density per code density, chosen
  as the mean matter density, so the cosmic mean is rho_code = 1.
* ``time_unit``     — seconds per code time, chosen as the gravitational
  dynamical time of the mean density at the initial redshift
  (1 / sqrt(4 pi G rho_mean_proper(z_init))); collapse then unfolds over
  O(1..100) code times.
* proper density  = comoving density / a^3;  proper length = a * comoving.
* code velocity is the *proper peculiar* velocity v = a dx/dt (Enzo's
  choice), in units of ``velocity_unit``; comoving coordinate drift is
  therefore dx/dt_code = v_code / a.
* code specific energy is the *proper* specific internal energy in units of
  ``energy_unit`` — with this choice the adiabatic expansion source term is
  the clean exponential exp(-3(gamma-1) (adot/a) dt).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import constants as const
from repro.cosmology.parameters import CosmologyParameters


@dataclass(frozen=True)
class CodeUnits:
    """Conversion factors between code units and cgs for one simulation."""

    length_unit: float  # comoving cm
    density_unit: float  # comoving g/cm^3
    time_unit: float  # s
    a_initial: float  # scale factor at initialisation (a=1 today)

    @classmethod
    def for_cosmology(
        cls,
        params: CosmologyParameters,
        box_comoving_kpc: float,
        z_initial: float,
    ) -> "CodeUnits":
        """Build the unit system the paper uses: a 256 comoving-kpc box."""
        a_i = 1.0 / (1.0 + z_initial)
        rho_mean_comoving = params.mean_matter_density_z0
        rho_mean_proper_init = rho_mean_comoving / a_i**3
        t_dyn = 1.0 / np.sqrt(
            4.0 * np.pi * const.GRAVITATIONAL_CONSTANT * rho_mean_proper_init
        )
        return cls(
            length_unit=box_comoving_kpc * const.KILOPARSEC,
            density_unit=rho_mean_comoving,
            time_unit=t_dyn,
            a_initial=a_i,
        )

    @classmethod
    def simple(cls, length_cm: float = 1.0, density_cgs: float = 1.0, time_s: float = 1.0):
        """Trivial unit system for non-cosmological test problems."""
        return cls(length_cm, density_cgs, time_s, a_initial=1.0)

    # --- derived units ---------------------------------------------------------
    @property
    def mass_unit(self) -> float:
        """g per code mass."""
        return self.density_unit * self.length_unit**3

    @property
    def velocity_unit(self) -> float:
        """cm/s (comoving) per code velocity."""
        return self.length_unit / self.time_unit

    @property
    def energy_unit(self) -> float:
        """erg/g per code specific energy."""
        return self.velocity_unit**2

    @property
    def gravity_constant_code(self) -> float:
        """G expressed in code units (for the Poisson solve)."""
        return (
            const.GRAVITATIONAL_CONSTANT
            * self.density_unit
            * self.time_unit**2
        )

    # --- proper/comoving helpers ---------------------------------------------------
    def proper_density_cgs(self, rho_code, a: float) -> np.ndarray:
        """Proper mass density in g/cm^3 from comoving code density."""
        return np.asarray(rho_code) * self.density_unit / a**3

    # --- thermodynamics ---------------------------------------------------------------
    def temperature_from_energy(self, e_code, mu, a: float = 1.0, gamma: float = const.GAMMA):
        """Gas temperature in K from proper specific internal energy in code units.

        The ``a`` argument is accepted for interface symmetry but unused:
        code energy is already proper.
        """
        del a
        e_proper = np.asarray(e_code) * self.energy_unit
        return (gamma - 1.0) * np.asarray(mu) * const.HYDROGEN_MASS * e_proper / const.BOLTZMANN_CONSTANT

    def energy_from_temperature(self, temperature, mu, a: float = 1.0, gamma: float = const.GAMMA):
        """Inverse of :meth:`temperature_from_energy`."""
        del a
        e_proper = (
            const.BOLTZMANN_CONSTANT
            * np.asarray(temperature)
            / ((gamma - 1.0) * np.asarray(mu) * const.HYDROGEN_MASS)
        )
        return e_proper / self.energy_unit

    def number_density_cgs(self, rho_code, a: float, mean_mass_amu: float = 1.0):
        """Particle number density in cm^-3 from comoving code density."""
        return self.proper_density_cgs(rho_code, a) / (mean_mass_amu * const.HYDROGEN_MASS)

    def jeans_length_code(self, rho_code, e_code, a: float, gamma: float = const.GAMMA):
        """Comoving Jeans length in code units.

        L_J = c_s * sqrt(pi / (G rho_proper)); everything converted so the
        result is directly comparable to comoving cell widths.
        """
        cs_proper = np.sqrt(gamma * (gamma - 1.0) * np.asarray(e_code)) * self.velocity_unit
        rho_proper = self.proper_density_cgs(rho_code, a)
        lj_proper_cm = cs_proper * np.sqrt(
            np.pi / (const.GRAVITATIONAL_CONSTANT * np.maximum(rho_proper, 1e-300))
        )
        return lj_proper_cm / (a * self.length_unit)
