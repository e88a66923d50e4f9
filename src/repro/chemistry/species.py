"""The twelve primordial species and their bookkeeping.

Naming follows Enzo's field conventions (HI = neutral hydrogen, HII =
ionised, HM = H-, H2I = molecular hydrogen, H2II = H2+, de = electrons).
Species are carried by the hydro solvers as comoving partial mass densities;
the network converts to proper number densities internally.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Species:
    name: str
    mass_amu: float  # in hydrogen masses
    charge: int
    hydrogen_nuclei: int = 0
    helium_nuclei: int = 0
    deuterium_nuclei: int = 0


#: The paper's 12 species.  Electron "mass" uses the conventional m_H scale
#: trick (Enzo stores electron density scaled by m_H/m_e) — we store true
#: electron mass density; it is dynamically negligible either way.
SPECIES: dict[str, Species] = {
    "HI": Species("HI", 1.0, 0, hydrogen_nuclei=1),
    "HII": Species("HII", 1.0, 1, hydrogen_nuclei=1),
    "HeI": Species("HeI", 4.0, 0, helium_nuclei=1),
    "HeII": Species("HeII", 4.0, 1, helium_nuclei=1),
    "HeIII": Species("HeIII", 4.0, 2, helium_nuclei=1),
    "de": Species("de", 5.443205e-4, -1),  # m_e / m_H
    "HM": Species("HM", 1.0, -1, hydrogen_nuclei=1),
    "H2I": Species("H2I", 2.0, 0, hydrogen_nuclei=2),
    "H2II": Species("H2II", 2.0, 1, hydrogen_nuclei=2),
    "DI": Species("DI", 2.0, 0, deuterium_nuclei=1),
    "DII": Species("DII", 2.0, 1, deuterium_nuclei=1),
    "HDI": Species("HDI", 3.0, 0, hydrogen_nuclei=1, deuterium_nuclei=1),
}

#: Order used for array layouts.
SPECIES_NAMES = tuple(SPECIES.keys())

#: Names advected by the hydro solvers (all of them).
ADVECTED_SPECIES = SPECIES_NAMES


def electron_density(n: dict) -> np.ndarray:
    """Electron number density from charge neutrality (cm^-3)."""
    return (
        n["HII"] + n["HeII"] + 2.0 * n["HeIII"] + n["H2II"] + n["DII"] - n["HM"]
    )


def nuclei_totals(n: dict) -> dict:
    """Conserved nuclei number densities (for conservation tests)."""
    return {
        "H": sum(SPECIES[s].hydrogen_nuclei * n[s] for s in SPECIES_NAMES),
        "He": sum(SPECIES[s].helium_nuclei * n[s] for s in SPECIES_NAMES),
        "D": sum(SPECIES[s].deuterium_nuclei * n[s] for s in SPECIES_NAMES),
    }


def charge_total(n: dict) -> np.ndarray:
    """Net charge density (should remain ~0 if 'de' tracks the ions)."""
    return sum(SPECIES[s].charge * n[s] for s in SPECIES_NAMES)
