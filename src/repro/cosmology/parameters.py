"""Cosmological parameter sets.

The paper simulates "standard" CDM (Sec. 2.1, citing Ostriker 1993): a flat,
matter-dominated universe whose power-spectrum amplitude reproduces the
statistics of present-day galaxies and clusters.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro import constants as const


@dataclass(frozen=True)
class CosmologyParameters:
    """A Friedmann world model plus power-spectrum normalisation.

    Attributes
    ----------
    omega_matter:
        Total matter density in units of critical (CDM + baryons).
    omega_lambda:
        Cosmological-constant density parameter.
    omega_baryon:
        Baryon density parameter (must not exceed ``omega_matter``).
    hubble:
        Dimensionless Hubble parameter h (H0 = 100 h km/s/Mpc).
    sigma8:
        rms linear density fluctuation in 8 Mpc/h top-hat spheres at z=0.
    spectral_index:
        Primordial power-law index n (n=1 is scale-invariant).
    cmb_temperature:
        Present CMB temperature in K (sets Compton cooling and the gas floor).
    """

    omega_matter: float = 1.0
    omega_lambda: float = 0.0
    omega_baryon: float = 0.06
    hubble: float = 0.5
    sigma8: float = 0.7
    spectral_index: float = 1.0
    cmb_temperature: float = const.CMB_TEMPERATURE_Z0

    def __post_init__(self):
        if not 0.0 < self.omega_matter:
            raise ValueError("omega_matter must be positive")
        if not 0.0 <= self.omega_baryon <= self.omega_matter:
            raise ValueError("omega_baryon must lie in [0, omega_matter]")
        if not 0.0 < self.hubble < 2.0:
            raise ValueError("hubble parameter h out of plausible range")

    @property
    def omega_cdm(self) -> float:
        return self.omega_matter - self.omega_baryon

    @property
    def omega_curvature(self) -> float:
        return 1.0 - self.omega_matter - self.omega_lambda

    @property
    def h0_cgs(self) -> float:
        """H0 in s^-1."""
        return self.hubble * const.HUBBLE_CGS

    @property
    def critical_density_z0(self) -> float:
        """Critical density today in g/cm^3."""
        return const.CRITICAL_DENSITY_H2 * self.hubble**2

    @property
    def mean_matter_density_z0(self) -> float:
        """Comoving mean total-matter density in g/cm^3."""
        return self.omega_matter * self.critical_density_z0

    def with_(self, **kwargs) -> "CosmologyParameters":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)


#: The paper's standard-CDM model: Omega = 1, h = 0.5, cluster-normalised
#: sigma_8, scale-invariant primordial spectrum.
STANDARD_CDM = CosmologyParameters()
