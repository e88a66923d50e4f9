"""Refinement criteria (paper Sec. 3.2.3, extended per Enzo §4).

The paper's three tests, exactly as described:

1. **Baryon mass** — a cell holding more than M* of gas is refined ("since
   gravitational collapse causes mass to flow into a small number of
   cells ... designed to preserve a given mass resolution").
2. **Dark-matter mass** — the same for the deposited particle density.
3. **Jeans length** — "we require that the cell width be less than some
   fraction of the local Jeans length (dx < L_J / N_J)", N_J varied 4..64
   in the paper's robustness experiments.

Plus two flow-feature criteria from the Enzo method paper's battery
(arXiv 1307.2265 §3.4), needed by the validation workloads:

4. **Shock detection** — a cell sits inside a shock when the centred
   relative pressure jump exceeds ``shock_threshold`` *and* the flow
   converges across it (u_{i-1} > u_{i+1}), tested per axis.  Pressure is
   proxied by rho * e_internal, so the adiabatic index cancels from the
   relative jump.
5. **Vorticity magnitude** — flag where |curl v| * dx exceeds
   ``vorticity_threshold`` * c_s: an unresolved shear sheet has
   |omega| dx ~ the velocity jump across one cell, while any resolved
   smooth flow (e.g. solid-body rotation) has |omega| dx -> 0 with
   resolution, so the criterion converges away instead of flagging
   everything forever.

Mass thresholds are specified at the root level and optionally scaled per
level by ``refine_by**(level * exponent)`` (Enzo's
MinimumMassForRefinementLevelExponent; exponent<0 makes refinement
super-Lagrangian).

Every criterion is evaluated on *interior* cells only, producing masks of
identical interior shape that are OR-ed together; ghost zones contribute
stencil neighbours (shock/vorticity reach one cell out) but are never
flagged themselves.  ``last_flag_counts`` records the per-criterion cell
counts of the most recent :meth:`flag_cells` call for rebuild telemetry.
"""

from __future__ import annotations

import numpy as np

from repro import constants as const


def _shifted(interior, axis: int, delta: int):
    """The interior slice tuple displaced by ``delta`` cells along ``axis``.

    Valid for |delta| <= nghost: the displaced window stays inside the
    ghost-padded array, so neighbour lookups never wrap or clip.
    """
    out = list(interior)
    s = out[axis]
    out[axis] = slice(s.start + delta, (s.stop or 0) + delta)
    return tuple(out)


class RefinementCriteria:
    """Configuration + evaluation of the flagging tests on one grid.

    Parameters: ``gas_mass_threshold`` / ``dm_mass_threshold`` (code mass
    per cell, at level 0), ``jeans_number`` (N_J; None disables),
    ``level_exponent`` (per-level threshold scaling), an optional simple
    ``overdensity_threshold``, ``shock_threshold`` (relative pressure
    jump, Enzo uses ~0.33), ``vorticity_threshold`` (|omega| dx / c_s),
    the unit system + scale factor the Jeans test needs and ``gamma`` for
    the sound speed.

    The same object carries the regrid policy every
    :func:`~repro.amr.rebuild.rebuild_hierarchy` call reads (paper Sec.
    3.2.2): ``max_level`` caps the depth, ``efficiency`` and ``min_size``
    steer the Berger-Rigoutsos clustering, and ``max_dims`` bisects any
    box longer than that many parent cells per axis.
    """

    def __init__(self, gas_mass_threshold=None, dm_mass_threshold=None,
                 jeans_number=None, level_exponent=0.0,
                 overdensity_threshold=None, units=None, a=1.0, max_level=None,
                 shock_threshold=None, vorticity_threshold=None,
                 gamma=const.GAMMA, max_dims: int = 32,
                 efficiency: float = 0.7, min_size: int = 2):
        self.gas_mass_threshold = gas_mass_threshold
        self.dm_mass_threshold = dm_mass_threshold
        self.jeans_number = jeans_number
        self.level_exponent = level_exponent
        self.overdensity_threshold = overdensity_threshold
        self.units = units
        self.a = a
        self.max_level = max_level
        self.shock_threshold = shock_threshold
        self.vorticity_threshold = vorticity_threshold
        self.gamma = float(gamma)
        self.max_dims = int(max_dims)
        self.efficiency = float(efficiency)
        self.min_size = int(min_size)
        #: per-criterion interior cell counts from the last flag_cells call
        self.last_flag_counts: dict[str, int] = {}

    def _mass_threshold(self, base: float, grid) -> float:
        scale = grid.refine_factor ** (grid.level * self.level_exponent)
        return base * scale

    # ------------------------------------------------------- flow criteria
    def _shock_flags(self, grid) -> np.ndarray:
        """Centred pressure-jump + convergence test, OR-ed over axes."""
        fields = grid.fields
        q = fields["density"] * fields["internal"]  # p / (gamma - 1)
        interior = grid.interior
        flags = np.zeros(q[interior].shape, dtype=bool)
        vnames = ("vx", "vy", "vz")
        for axis in range(3):
            qp = q[_shifted(interior, axis, +1)]
            qm = q[_shifted(interior, axis, -1)]
            jump = np.abs(qp - qm) / np.maximum(np.minimum(qp, qm), 1e-300)
            v = fields[vnames[axis]]
            converging = (
                v[_shifted(interior, axis, -1)]
                - v[_shifted(interior, axis, +1)]
            ) > 0.0
            flags |= (jump > self.shock_threshold) & converging
        return flags

    def _vorticity_flags(self, grid) -> np.ndarray:
        """|curl v| dx > threshold * c_s on interior cells."""
        fields = grid.fields
        interior = grid.interior

        def d(name: str, axis: int) -> np.ndarray:
            arr = fields[name]
            return 0.5 * (
                arr[_shifted(interior, axis, +1)]
                - arr[_shifted(interior, axis, -1)]
            )  # derivative * dx (the dx cancels into |omega| dx)

        wx = d("vz", 1) - d("vy", 2)
        wy = d("vx", 2) - d("vz", 0)
        wz = d("vy", 0) - d("vx", 1)
        omega_dx_sq = wx**2 + wy**2 + wz**2
        cs_sq = self.gamma * (self.gamma - 1.0) * fields["internal"][interior]
        return omega_dx_sq > self.vorticity_threshold**2 * np.maximum(
            cs_sq, 1e-300
        )

    # ------------------------------------------------------------ flagging
    def flag_cells(self, grid, dm_density: np.ndarray | None = None) -> np.ndarray:
        """Boolean interior-shaped flag field for one grid.

        ``dm_density`` is the deposited dark-matter density on the grid
        interior (same shape), or None when there are no particles.
        """
        if self.max_level is not None and grid.level >= self.max_level:
            self.last_flag_counts = {}
            return np.zeros(tuple(int(d) for d in grid.dims), dtype=bool)
        interior = grid.interior
        rho = grid.fields["density"][interior]
        flags = np.zeros(rho.shape, dtype=bool)
        counts: dict[str, int] = {}

        def combine(name: str, mask: np.ndarray) -> None:
            nonlocal flags
            if mask.shape != flags.shape:
                raise ValueError(
                    f"criterion {name!r} produced shape {mask.shape}, "
                    f"expected interior shape {flags.shape}"
                )
            counts[name] = int(np.count_nonzero(mask))
            flags |= mask

        if self.gas_mass_threshold is not None:
            thresh = self._mass_threshold(self.gas_mass_threshold, grid)
            combine("gas_mass", rho * grid.dx**3 > thresh)

        if self.dm_mass_threshold is not None and dm_density is not None:
            thresh = self._mass_threshold(self.dm_mass_threshold, grid)
            combine("dm_mass", dm_density * grid.dx**3 > thresh)

        if self.jeans_number is not None and self.units is not None:
            e = grid.fields["internal"][interior]
            lj = self.units.jeans_length_code(rho, e, self.a)
            combine("jeans", grid.dx > lj / self.jeans_number)

        if self.overdensity_threshold is not None:
            combine("overdensity", rho > self.overdensity_threshold)

        if self.shock_threshold is not None:
            combine("shock", self._shock_flags(grid))

        if self.vorticity_threshold is not None:
            combine("vorticity", self._vorticity_flags(grid))

        self.last_flag_counts = counts
        return flags
