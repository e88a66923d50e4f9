"""Radiative cooling/heating of the primordial gas (paper Sec. 2.2).

"We include all known radiative loss terms due to atoms, ions, and
molecules that are appropriate for our primordial gas.  Also the energy
exchange between the cosmic microwave background and free electrons
(Compton heating and cooling) is included."

Terms (all optically thin, ground-state excitation only, as the paper
argues is accurate at these densities):

* H and He+ collisional line excitation, collisional ionisation,
  recombination, dielectronic recombination (Cen 1992 / Black 1981 fits);
* thermal bremsstrahlung;
* H2 rovibrational cooling: Galli & Palla (1998) low-density limit bridged
  to the Hollenbach & McKee (1979) LTE limit — this is the channel that
  cools the paper's "primordial molecular cloud" to a few hundred K;
* a simple HD cooling term (important only below ~200 K);
* Compton scattering against the CMB (cools when T > T_cmb, heats below).

``cooling_rate`` returns the net volumetric energy *loss* rate in
erg s^-1 cm^-3 (positive = cooling).

The temperature-only *coefficient* of every channel is exposed through
``COOLING_CHANNELS`` (name -> fn(T)), so the tabulated rate machinery
(:mod:`repro.chemistry.rates`) can precompute them on its log-T grid;
``cooling_rate_from_channels`` assembles the total loss rate from a dict of
channel coefficient arrays (interpolated or analytic) plus densities — the
same arithmetic, with the transcendental part hoisted out.
"""

from __future__ import annotations

import numpy as np

from repro import constants as const
from repro.chemistry.species import electron_density


def _g(T):
    return np.maximum(np.asarray(T, dtype=float), 1.0)


def _damp(T):
    return 1.0 / (1.0 + np.sqrt(T / 1e5))


# --------------------------------------------------------------- channels
# Each channel is the smooth T-only coefficient of one loss term; the
# density product it multiplies is listed on the right.  All are positive
# and log-smooth, so the rate tabulation can store ln(coefficient) on its
# log-T grid and interpolate linearly.
def _ce_HI(T):
    """H Ly-alpha collisional excitation (x ne * n_HI)."""
    return 7.50e-19 * np.exp(-118348.0 / _g(T)) * _damp(_g(T))


def _ce_HeII(T):
    """He+ n=2 collisional excitation (x ne * n_HeII)."""
    T = _g(T)
    return 5.54e-17 * T**-0.397 * np.exp(-473638.0 / T) * _damp(T)


def _ci_HI(T):
    """H collisional ionisation (x ne * n_HI)."""
    T = _g(T)
    return 1.27e-21 * np.sqrt(T) * np.exp(-157809.1 / T) * _damp(T)


def _ci_HeI(T):
    """He collisional ionisation (x ne * n_HeI)."""
    T = _g(T)
    return 9.38e-22 * np.sqrt(T) * np.exp(-285335.4 / T) * _damp(T)


def _ci_HeII(T):
    """He+ collisional ionisation (x ne * n_HeII)."""
    T = _g(T)
    return 4.95e-22 * np.sqrt(T) * np.exp(-631515.0 / T) * _damp(T)


def _rec_HII(T):
    """H+ recombination (x ne * n_HII)."""
    T = _g(T)
    return 8.70e-27 * np.sqrt(T) * (T / 1e3) ** -0.2 / (1.0 + (T / 1e6) ** 0.7)


def _rec_HeII(T):
    """He+ radiative recombination (x ne * n_HeII)."""
    return 1.55e-26 * _g(T) ** 0.3647


def _rec_HeIII(T):
    """He++ recombination (x ne * n_HeIII)."""
    T = _g(T)
    return 3.48e-26 * np.sqrt(T) * (T / 1e3) ** -0.2 / (1.0 + (T / 1e6) ** 0.7)


def _diel_HeII(T):
    """Dielectronic He+ recombination (x ne * n_HeII)."""
    T = _g(T)
    return (
        1.24e-13
        * T**-1.5
        * np.exp(-470000.0 / T)
        * (1.0 + 0.3 * np.exp(-94000.0 / T))
    )


def _brem(T):
    """Bremsstrahlung with gaunt factor (x ne * (n_HII + n_HeII + 4 n_HeIII))."""
    T = _g(T)
    gff = 1.1 + 0.34 * np.exp(-((5.5 - np.log10(T)) ** 2) / 3.0)
    return 1.43e-27 * np.sqrt(T) * gff


def _h2_ldl_branch(T):
    """GP98 low-density polynomial, *unclamped* (smooth on the full grid).

    The physical fit clamps T into [10, 1e4] K; that clamp kinks the
    ln-coefficient at both boundaries, which linear interpolation on the
    log-T table cannot follow to rtol.  So the smooth polynomial is the
    tabulated channel and :func:`h2_cooling_from_channels` re-applies the
    clamp exactly (the out-of-range values are the boundary constants).
    """
    logt = np.log10(_g(T))
    log_ldl = (
        -103.0
        + 97.59 * logt
        - 48.05 * logt**2
        + 10.80 * logt**3
        - 0.9032 * logt**4
    )
    with np.errstate(under="ignore"):
        return 10.0**log_ldl


#: GP98 fit values at the clamp boundaries (used verbatim outside [10, 1e4] K).
H2_LDL_LO = float(_h2_ldl_branch(10.0))
H2_LDL_HI = float(_h2_ldl_branch(1e4))


def _clamp_h2_ldl(T, branch):
    """Re-apply the [10, 1e4] K clamp of the GP98 fit to a branch array."""
    return np.where(T < 10.0, H2_LDL_LO, np.where(T > 1e4, H2_LDL_HI, branch))


def _h2_lte(T):
    """HM79 LTE cooling per H2 molecule, erg/s (x n_H2 after bridging)."""
    t3 = _g(T) / 1000.0
    lte_rot = (
        9.5e-22 * t3**3.76 / (1.0 + 0.12 * t3**2.1) * np.exp(-((0.13 / t3) ** 3))
        + 3.0e-24 * np.exp(-0.51 / t3)
    )
    lte_vib = 6.7e-19 * np.exp(-5.86 / t3) + 1.6e-18 * np.exp(-11.7 / t3)
    return lte_rot + lte_vib


def _hd(T):
    """HD rotational cooling coefficient (x n_HDI * n_HI / 1e6)."""
    T = _g(T)
    return 1e-25 * (T / 100.0) ** 2.5 * np.exp(-128.0 / T)


#: name -> coefficient fn(T); order is the tabulation column order.
COOLING_CHANNELS = {
    "ce_HI": _ce_HI,
    "ce_HeII": _ce_HeII,
    "ci_HI": _ci_HI,
    "ci_HeI": _ci_HeI,
    "ci_HeII": _ci_HeII,
    "rec_HII": _rec_HII,
    "rec_HeII": _rec_HeII,
    "rec_HeIII": _rec_HeIII,
    "diel_HeII": _diel_HeII,
    "brem": _brem,
    "h2_ldl_branch": _h2_ldl_branch,
    "h2_lte": _h2_lte,
    "hd": _hd,
}

COOLING_CHANNEL_NAMES = tuple(COOLING_CHANNELS)


def cooling_channels(T) -> dict:
    """Evaluate every channel coefficient analytically at T."""
    T = _g(T)
    return {name: fn(T) for name, fn in COOLING_CHANNELS.items()}


# -------------------------------------------------------------- assembly
def atomic_cooling_from_channels(n: dict, T, ch: dict) -> np.ndarray:
    """H/He losses from precomputed channel coefficients."""
    T = _g(T)
    ne = np.maximum(electron_density(n), 0.0)
    rate = np.zeros_like(T)
    rate += ch["ce_HI"] * ne * n["HI"]
    rate += ch["ce_HeII"] * ne * n["HeII"]
    rate += ch["ci_HI"] * ne * n["HI"]
    rate += ch["ci_HeI"] * ne * n["HeI"]
    rate += ch["ci_HeII"] * ne * n["HeII"]
    rate += ch["rec_HII"] * ne * n["HII"]
    rate += ch["rec_HeII"] * ne * n["HeII"]
    rate += ch["rec_HeIII"] * ne * n["HeIII"]
    rate += ch["diel_HeII"] * ne * n["HeII"]
    rate += ch["brem"] * ne * (n["HII"] + n["HeII"] + 4.0 * n["HeIII"])
    # the fits are not valid below ~10 K (they would otherwise extrapolate
    # recombination cooling past the regime where Compton sets the floor)
    return np.where(T < 10.0, 0.0, rate)


def h2_cooling_from_channels(n: dict, T, ch: dict) -> np.ndarray:
    """H2 rovibrational cooling from precomputed LDL/LTE coefficients."""
    T = _g(T)
    n_h = np.maximum(n["HI"], 1e-300)
    ldl = _clamp_h2_ldl(T, ch["h2_ldl_branch"])
    low = ldl * n_h  # per H2 molecule, low-density limit
    with np.errstate(over="ignore"):
        lam = ch["h2_lte"] / (1.0 + ch["h2_lte"] / np.maximum(low, 1e-300))
    out = n["H2I"] * lam
    return np.where(T < 10.0, 0.0, out)


def hd_cooling_from_channels(n: dict, ch: dict) -> np.ndarray:
    return n["HDI"] * np.maximum(n["HI"], 0.0) / 1e3 * ch["hd"] / 1e3


def cooling_rate_from_channels(n: dict, T, z: float, ch: dict) -> np.ndarray:
    """Total net cooling rate from precomputed channel coefficients.

    Identical arithmetic to :func:`cooling_rate`; only the evaluation of
    the T-dependent coefficients has been hoisted into ``ch`` (the
    Compton term is linear in T and stays analytic).
    """
    return (
        atomic_cooling_from_channels(n, T, ch)
        + h2_cooling_from_channels(n, T, ch)
        + hd_cooling_from_channels(n, ch)
        + compton(n, T, z)
    )


# ------------------------------------------------------- analytic wrappers
def atomic_cooling(n: dict, T) -> np.ndarray:
    """H/He line, ionisation, recombination and bremsstrahlung losses."""
    T = _g(T)
    ch = {name: COOLING_CHANNELS[name](T) for name in (
        "ce_HI", "ce_HeII", "ci_HI", "ci_HeI", "ci_HeII",
        "rec_HII", "rec_HeII", "rec_HeIII", "diel_HeII", "brem",
    )}
    return atomic_cooling_from_channels(n, T, ch)


def h2_cooling(n: dict, T) -> np.ndarray:
    """H2 rovibrational cooling: GP98 low-density limit -> HM79 LTE limit."""
    T = _g(T)
    return h2_cooling_from_channels(
        n, T, {"h2_ldl_branch": _h2_ldl_branch(T), "h2_lte": _h2_lte(T)}
    )


def hd_cooling(n: dict, T) -> np.ndarray:
    """Approximate HD rotational cooling (Galli & Palla 1998 magnitude).

    Matters only in the 30-200 K regime; a power-law bridge anchored at
    Lambda_HD(100 K) ~ 1e-25 n_H erg/s per molecule reproduces the published
    curve to within a factor ~2 over that range.
    """
    return hd_cooling_from_channels(n, {"hd": _hd(_g(T))})


def compton_coefficient(t_cmb: float) -> float:
    """4 sigma_T a_r T_cmb^4 k_B / (m_e c), erg/s/K per electron."""
    return (
        4.0
        * const.THOMSON_CROSS_SECTION
        * const.RADIATION_CONSTANT
        * t_cmb**4
        * const.BOLTZMANN_CONSTANT
        / (const.ELECTRON_MASS * const.SPEED_OF_LIGHT)
    )


def compton(n: dict, T, z: float, t_cmb0: float = const.CMB_TEMPERATURE_Z0) -> np.ndarray:
    """Compton energy exchange with the CMB (positive = cooling).

    Lambda_C = (4 sigma_T a_r T_cmb^4 k_B / (m_e c)) * n_e * (T - T_cmb).
    """
    T = _g(T)
    t_cmb = t_cmb0 * (1.0 + z)
    ne = np.maximum(electron_density(n), 0.0)
    return compton_coefficient(t_cmb) * ne * (T - t_cmb)


def cooling_rate(n: dict, T, z: float = 0.0) -> np.ndarray:
    """Total net volumetric cooling rate, erg s^-1 cm^-3 (positive=cooling)."""
    return atomic_cooling(n, T) + h2_cooling(n, T) + hd_cooling(n, T) + compton(n, T, z)
