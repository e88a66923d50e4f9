"""Structured adaptive mesh refinement (paper Sec. 3).

The hierarchy follows Berger & Colella (1989) SAMR exactly as the paper
describes: rectangular subgrids with integer refinement factor, fully nested
within their parents, coarse cells retained beneath fine ones, per-level
timesteps in a W-cycle, conservative coarse/fine coupling (boundary
interpolation down, flux correction + projection up), and an
edge-detection/point-clustering grid placer (Berger & Rigoutsos 1991).

Grid geometry is held as *integer* cell indices at each level's resolution
— exact at any depth — while absolute positions and times use the EPA types
from :mod:`repro.precision` (this split is the paper's "relative vs
absolute" precision discipline).
"""

from repro.amr.grid import Grid
from repro.amr.hierarchy import Hierarchy
from repro.amr.clustering import cluster_flagged_cells, Box
from repro.amr.refinement import RefinementCriteria
from repro.amr.defense import DefenseLadder
from repro.amr.evolve import HierarchyEvolver

__all__ = [
    "Grid",
    "Hierarchy",
    "cluster_flagged_cells",
    "Box",
    "DefenseLadder",
    "RefinementCriteria",
    "HierarchyEvolver",
]
