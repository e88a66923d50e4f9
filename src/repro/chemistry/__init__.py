"""12-species primordial chemistry and radiative cooling (paper Sec. 2.2).

"We solve the time dependent chemical reaction network involving twelve
species (including deuterium and helium)" — H, H+, He, He+, He++, e-, H-,
H2+, H2, D, D+, HD — "a fast numerical method to solve this set of stiff
ordinary differential equations has been developed by some of us
[Anninos et al. 1997]."

* :mod:`repro.chemistry.species`  — the species registry (masses, charges).
* :mod:`repro.chemistry.rates`    — reaction-rate coefficient fits.
* :mod:`repro.chemistry.cooling`  — radiative loss terms (atomic lines,
  recombination, bremsstrahlung, H2 rovibrational, HD, Compton).
* :mod:`repro.chemistry.network`  — the sub-cycled backward-Euler solver
  coupling the network and the thermal energy, per cell, vectorised.
"""

from repro.chemistry.species import SPECIES, Species, electron_density
from repro.chemistry.rates import RateTable
from repro.chemistry.cooling import cooling_rate
from repro.chemistry.network import ChemistryNetwork, primordial_initial_fractions
from repro.chemistry.equilibrium import cie_fractions, cooling_curve
from repro.chemistry.thermal import cooling_vs_freefall, equilibrium_temperature

__all__ = [
    "SPECIES",
    "Species",
    "electron_density",
    "RateTable",
    "cooling_rate",
    "ChemistryNetwork",
    "primordial_initial_fractions",
    "cie_fractions",
    "cooling_curve",
    "cooling_vs_freefall",
    "equilibrium_temperature",
]
