"""Isothermal sphere collapse: the fast deep-hierarchy driver.

A cold, overdense sphere undergoing runaway self-gravitating collapse —
the scale-free core of the paper's problem with the chemistry stripped
out.  Because refinement follows the Jeans/overdensity criteria into the
runaway, this problem grows hierarchies of (in principle) unlimited depth
quickly, which is what the Fig. 5 and zoom benchmarks need; the expected
quasi-static envelope approaches the rho ~ r^-2 profile the paper marks
in Fig. 4A (Larson-Penston / singular isothermal sphere behaviour).
"""

from __future__ import annotations

import numpy as np

from repro.amr import Hierarchy, HierarchyEvolver, RefinementCriteria
from repro.amr.boundary import set_boundary_values
from repro.amr.gravity import HierarchyGravity
from repro.hydro import PPMSolver


class SphereCollapse:
    """Cold sphere in a periodic box with self-gravity and AMR.

    Parameters
    ----------
    n_root:
        Root resolution per dimension.
    overdensity:
        Sphere central density relative to the background (=1).
    radius:
        Sphere radius in box units.
    temperature_ratio:
        Thermal energy relative to virial-ish; small = violent collapse.
    max_level:
        Hierarchy depth cap (the run budget knob).
    g_code:
        Newton's constant in code units (sets the free-fall time scale).
    """

    def __init__(self, n_root: int = 16, overdensity: float = 30.0,
                 radius: float = 0.15, temperature_ratio: float = 0.02,
                 max_level: int = 4, g_code: float = 1.0,
                 refine_overdensity: float | None = None,
                 jeans_number: float | None = None, units=None,
                 max_dims: int = 16, exec_config=None):
        self.n_root = int(n_root)
        self.max_level = int(max_level)
        self.g_code = float(g_code)
        self.hierarchy = Hierarchy(n_root=self.n_root)

        root = self.hierarchy.root
        c = [(np.arange(self.n_root) + 0.5) / self.n_root] * 3
        x, y, z = np.meshgrid(*c, indexing="ij")
        r = np.sqrt((x - 0.5) ** 2 + (y - 0.5) ** 2 + (z - 0.5) ** 2)
        profile = 1.0 + (overdensity - 1.0) * 0.5 * (
            1.0 - np.tanh((r - radius) / (0.25 * radius))
        )
        root.fields["density"][root.interior] = profile
        e = temperature_ratio * g_code * overdensity * radius**2
        root.fields["internal"][:] = e
        root.fields["energy"][:] = e
        set_boundary_values(self.hierarchy, 0)

        self.mean_density = float(root.field_view("density").mean())
        self.criteria = RefinementCriteria(
            overdensity_threshold=(
                refine_overdensity if refine_overdensity is not None
                else 2.0 * overdensity / 3.0
            ),
            jeans_number=jeans_number,
            units=units,
            max_level=self.max_level,
            max_dims=max_dims,
        )
        self.gravity = HierarchyGravity(
            g_code=self.g_code, mean_density=self.mean_density
        )
        self.evolver = HierarchyEvolver(
            self.hierarchy, PPMSolver(), gravity=self.gravity,
            criteria=self.criteria, cfl=0.3, jeans_floor_cells=4.0, exec_config=exec_config,
        )
        self.evolver.initial_rebuild()

    @property
    def peak_density(self) -> float:
        return max(g.field_view("density").max() for g in self.hierarchy.all_grids())

    def free_fall_time(self, density: float | None = None) -> float:
        rho = density or self.peak_density
        return float(np.sqrt(3.0 * np.pi / (32.0 * self.g_code * rho)))

    def run(self, t_end: float | None = None, density_target: float | None = None,
            max_root_steps: int = 200) -> dict:
        """Advance until t_end, a density target, or a budget of root
        steps."""
        if t_end is None:
            t_end = 1.5 * self.free_fall_time(self.peak_density)
        for _ in range(max_root_steps):
            if self.evolver.advance_root_step(t_end) is None:
                break
            if density_target is not None and self.peak_density >= density_target:
                break
        return {
            "time": float(self.hierarchy.root.time),
            "peak_density": self.peak_density,
            "max_level": self.hierarchy.max_level,
            "n_grids": self.hierarchy.n_grids,
            "sdr": self.hierarchy.spatial_dynamic_range(),
        }
