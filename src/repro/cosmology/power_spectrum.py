"""CDM power spectrum of density fluctuations P(k).

The paper's initial conditions come from "an inflation-inspired cosmological
model" whose power spectrum P(k) is "known or calculable once a Friedmann
world model is specified" (Sec. 2.1).  We implement the classic BBKS
(Bardeen, Bond, Kaiser & Szalay 1986) transfer function — the standard
choice for SCDM work of that era — plus the Eisenstein & Hu (1998)
zero-baryon form as an alternative, with top-hat sigma_8 normalisation.

The key property the paper relies on — logarithmically divergent rms
fluctuations toward small mass scales, driving bottom-up hierarchical
collapse — is tested in the suite via sigma(M) monotonicity.
"""

from __future__ import annotations

import numpy as np

from repro import constants as const
from repro.cosmology.friedmann import FriedmannSolver
from repro.cosmology.parameters import CosmologyParameters
from repro.cosmology.quadrature import qags


def bbks_transfer(k_over_hmpc: np.ndarray, gamma_shape: float) -> np.ndarray:
    """BBKS CDM transfer function T(k).

    Parameters
    ----------
    k_over_hmpc:
        Wavenumber in h/Mpc (comoving).
    gamma_shape:
        Shape parameter, Gamma = Omega_m * h for pure CDM.
    """
    k = np.asarray(k_over_hmpc, dtype=float)
    q = k / gamma_shape
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (
            np.log(1.0 + 2.34 * q)
            / (2.34 * q)
            * (1.0 + 3.89 * q + (16.1 * q) ** 2 + (5.46 * q) ** 3 + (6.71 * q) ** 4)
            ** -0.25
        )
    return np.where(q <= 0, 1.0, t)


def eisenstein_hu_transfer(
    k_over_hmpc: np.ndarray, omega_m: float, omega_b: float, h: float, theta_cmb: float = 2.725 / 2.7
) -> np.ndarray:
    """Eisenstein & Hu (1998) zero-baryon ("no-wiggle") transfer function."""
    k = np.asarray(k_over_hmpc, dtype=float) * h  # 1/Mpc
    om_h2 = omega_m * h * h
    ob_h2 = omega_b * h * h
    # sound horizon fit (Eq. 26)
    s = 44.5 * np.log(9.83 / om_h2) / np.sqrt(1.0 + 10.0 * ob_h2**0.75)
    alpha_gamma = (
        1.0
        - 0.328 * np.log(431.0 * om_h2) * (ob_h2 / om_h2)
        + 0.38 * np.log(22.3 * om_h2) * (ob_h2 / om_h2) ** 2
    )
    gamma_eff = omega_m * h * (
        alpha_gamma + (1.0 - alpha_gamma) / (1.0 + (0.43 * k * s) ** 4)
    )
    q = k * theta_cmb**2 / (gamma_eff * h)
    l0 = np.log(2.0 * np.e + 1.8 * q)
    c0 = 14.2 + 731.0 / (1.0 + 62.5 * q)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = l0 / (l0 + c0 * q * q)
    return np.where(q <= 0, 1.0, t)


def _tophat_window(x: np.ndarray) -> np.ndarray:
    """Fourier transform of a real-space top-hat, W(kR)."""
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < 1e-6
    with np.errstate(divide="ignore", invalid="ignore"):
        w = 3.0 * (np.sin(x) - x * np.cos(x)) / x**3
    return np.where(small, 1.0 - x**2 / 10.0, w)


class PowerSpectrum:
    """sigma_8-normalised linear matter power spectrum at any redshift.

    ``P(k)`` returns the z=0 spectrum in (Mpc/h)^3 for k in h/Mpc; use
    ``at_redshift`` scaling (via the growth factor) for initial conditions.
    """

    def __init__(
        self,
        params: CosmologyParameters,
        transfer: str = "bbks",
        friedmann: FriedmannSolver | None = None,
    ):
        self.params = params
        self.friedmann = friedmann or FriedmannSolver(params)
        if transfer == "bbks":
            gamma_shape = params.omega_matter * params.hubble
            self._transfer = lambda k: bbks_transfer(k, gamma_shape)
        elif transfer == "eisenstein_hu":
            self._transfer = lambda k: eisenstein_hu_transfer(
                k, params.omega_matter, params.omega_baryon, params.hubble
            )
        else:
            raise ValueError(f"unknown transfer function '{transfer}'")
        self._norm = 1.0
        self._norm = (params.sigma8 / self.sigma_r(8.0)) ** 2

    def transfer(self, k_over_hmpc) -> np.ndarray:
        return self._transfer(np.asarray(k_over_hmpc, dtype=float))

    def __call__(self, k_over_hmpc) -> np.ndarray:
        """z=0 power P(k) in (Mpc/h)^3; k in h/Mpc."""
        k = np.asarray(k_over_hmpc, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            p = self._norm * k**self.params.spectral_index * self.transfer(k) ** 2
        return np.where(k <= 0.0, 0.0, p)

    def at_redshift(self, k_over_hmpc, z: float) -> np.ndarray:
        """Linear power spectrum at redshift z."""
        d = float(self.friedmann.growth_factor(1.0 / (1.0 + z)))
        return self(k_over_hmpc) * d * d

    def sigma_r(self, radius_mpc_h: float, z: float = 0.0) -> float:
        """rms linear fluctuation in a top-hat of comoving radius R (Mpc/h)."""
        def integrand(lnk):
            k = np.exp(lnk)
            return k**3 * self(k) * _tophat_window(k * radius_mpc_h) ** 2 / (2.0 * np.pi**2)

        val, _ = qags(integrand, np.log(1e-5), np.log(1e5), limit=400)
        d = 1.0 if z == 0.0 else float(self.friedmann.growth_factor(1.0 / (1.0 + z)))
        return float(np.sqrt(val)) * d

    def sigma_mass(self, mass_msun_h: float, z: float = 0.0) -> float:
        """rms fluctuation on mass scale M (Msun/h), via the top-hat radius."""
        rho_mean = self.params.mean_matter_density_z0  # g/cm^3 comoving
        mass_g = mass_msun_h * const.SOLAR_MASS / self.params.hubble
        r_cm = (3.0 * mass_g / (4.0 * np.pi * rho_mean)) ** (1.0 / 3.0)
        r_mpc_h = r_cm / const.MEGAPARSEC * self.params.hubble
        return self.sigma_r(r_mpc_h, z)
