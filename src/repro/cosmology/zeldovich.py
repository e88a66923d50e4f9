"""Zel'dovich-approximation initial conditions for gas and dark matter.

Produces the paper's starting state (Sec. 4): a periodic box seeded from the
CDM power spectrum at high redshift, as grid fields for the baryons and a
particle lattice for the CDM — including the nested static-subgrid scheme
("we restart the calculation including three additional levels of static
meshes ... equivalent to 512^3 initial conditions over the entire box").

All fields come out in code units (:class:`repro.cosmology.units.CodeUnits`):
comoving density with cosmic-mean-total = 1, comoving peculiar velocity in
code velocities, comoving specific internal energy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import constants as const
from repro.cosmology.friedmann import FriedmannSolver
from repro.cosmology.gaussian_field import GaussianRandomField, degrade_field
from repro.cosmology.parameters import CosmologyParameters
from repro.cosmology.units import CodeUnits
from repro.precision.doubledouble import DDArray


@dataclass
class GasIC:
    """Gas fields on one uniform mesh covering ``region`` of the unit box."""

    density: np.ndarray  # comoving code density
    velocity: np.ndarray  # (3, n, n, n) code peculiar velocity
    energy: np.ndarray  # comoving specific internal energy (code)
    left_edge: np.ndarray = field(default_factory=lambda: np.zeros(3))
    right_edge: np.ndarray = field(default_factory=lambda: np.ones(3))


@dataclass
class ParticleIC:
    """Dark-matter particle load: EPA positions, code velocities, masses."""

    positions: DDArray  # (n_p, 3) in [0,1)
    velocities: np.ndarray  # (n_p, 3) code units
    masses: np.ndarray  # (n_p,) code mass


class ZeldovichIC:
    """Single-level Zel'dovich initial conditions.

    Parameters
    ----------
    params, units:
        World model and unit system (box size lives in ``units``).
    z_init:
        Starting redshift (the paper begins "a few million years after the
        big bang", z ~ 100).
    n:
        Cells (and particles) per dimension.
    seed:
        Realisation seed.
    temperature_init:
        Initial gas temperature in K.  Default follows the post-decoupling
        adiabatic relation T ~ 2.73 (1+z)^2 / (1+z_dec) with z_dec ~ 137.
    transfer:
        'bbks' (default) or 'eisenstein_hu'.
    """

    def __init__(
        self,
        params: CosmologyParameters,
        units: CodeUnits,
        z_init: float,
        n: int,
        seed: int = 0,
        temperature_init: float | None = None,
        transfer: str = "bbks",
        power=None,
    ):
        from repro.cosmology.power_spectrum import PowerSpectrum

        self.params = params
        self.units = units
        self.z_init = float(z_init)
        self.n = int(n)
        self.seed = seed
        self.friedmann = FriedmannSolver(params)
        self.a_init = 1.0 / (1.0 + z_init)
        self.power = power or PowerSpectrum(params, transfer=transfer)
        if temperature_init is None:
            z_dec = 137.0
            temperature_init = (
                params.cmb_temperature * (1.0 + z_init) ** 2 / (1.0 + z_dec)
                if z_init < z_dec
                else params.cmb_temperature * (1.0 + z_init)
            )
        self.temperature_init = float(temperature_init)
        box_mpc_h = units.length_unit / const.MEGAPARSEC * params.hubble
        self.box_mpc_h = box_mpc_h
        self.field = GaussianRandomField(
            n, box_mpc_h, lambda k: self.power.at_redshift(k, z_init), seed=seed
        )

    # --- scalar helpers ----------------------------------------------------------
    def _velocity_scale(self) -> float:
        """Convert displacement (Mpc/h comoving) to code peculiar velocity.

        Zel'dovich: proper peculiar velocity v = a H(a) f(a) * D psi with psi
        comoving.  Code velocity *is* proper peculiar velocity (units.py), so
        the scale is a H f expressed in code units.  D is already folded into
        the field (realised *at* z_init).
        """
        a = self.a_init
        h_a = float(self.friedmann.hubble(a))
        f = float(self.friedmann.growth_rate(a))
        mpc_h_to_code = const.MEGAPARSEC / self.params.hubble / self.units.length_unit
        return a * h_a * f * mpc_h_to_code * self.units.length_unit / self.units.velocity_unit

    def mean_molecular_weight_init(self) -> float:
        return const.MU_NEUTRAL

    def gas_energy_code(self) -> float:
        """Uniform comoving specific internal energy in code units."""
        return float(
            self.units.energy_from_temperature(
                self.temperature_init, self.mean_molecular_weight_init(), self.a_init
            )
        )

    # --- products ----------------------------------------------------------------------
    def gas(self) -> GasIC:
        """Baryon fields on the full box at this resolution."""
        delta = self.field.delta
        baryon_fraction = self.params.omega_baryon / self.params.omega_matter
        density = baryon_fraction * np.clip(1.0 + delta, 0.05, None)
        psi = self.field.displacement()
        vel = psi * self._velocity_scale()
        energy = np.full_like(density, self.gas_energy_code())
        return GasIC(density=density, velocity=vel, energy=energy)

    def particles(self) -> ParticleIC:
        """CDM particle lattice displaced by the Zel'dovich field."""
        n = self.n
        psi = self.field.displacement()  # Mpc/h comoving
        mpc_h_to_code = const.MEGAPARSEC / self.params.hubble / self.units.length_unit
        # lattice of cell centres in [0,1)
        q1 = (np.arange(n) + 0.5) / n
        qx, qy, qz = np.meshgrid(q1, q1, q1, indexing="ij")
        q = np.stack([qx, qy, qz], axis=-1).reshape(-1, 3)
        disp = np.stack(
            [psi[0].ravel(), psi[1].ravel(), psi[2].ravel()], axis=-1
        ) * mpc_h_to_code
        # displaced and wrapped periodically, component-wise
        pos = DDArray(q).shift(disp).wrap_periodic()
        vel = disp / mpc_h_to_code * self._velocity_scale()  # psi * scale
        cdm_fraction = self.params.omega_cdm / self.params.omega_matter
        mass = cdm_fraction / n**3  # code mass per particle (total matter mean = 1)
        masses = np.full(n**3, mass)
        return ParticleIC(positions=pos, velocities=vel, masses=masses)


class NestedGridIC:
    """Nested static-subgrid initial conditions (paper Sec. 4).

    Generates one realisation at the finest IC resolution over the whole box,
    then volume-averages downward, so every level sees mutually consistent
    modes.  The refined region (``region_left``/``region_right``, in box
    units, snapped to coarse cells) receives ``static_levels`` levels of
    static meshes; particles are drawn at fine resolution inside the region
    and at root resolution outside, boosting mass resolution by
    ``refine_factor**(3*static_levels)`` exactly as the paper's factor 512.
    """

    def __init__(
        self,
        params: CosmologyParameters,
        units: CodeUnits,
        z_init: float,
        n_root: int,
        static_levels: int = 1,
        refine_factor: int = 2,
        region_left=(0.25, 0.25, 0.25),
        region_right=(0.75, 0.75, 0.75),
        seed: int = 0,
        temperature_init: float | None = None,
        transfer: str = "bbks",
        power=None,
    ):
        self.n_root = int(n_root)
        self.static_levels = int(static_levels)
        self.r = int(refine_factor)
        n_fine = n_root * self.r**static_levels
        if n_fine > 512:
            raise ValueError(f"fine IC grid {n_fine}^3 too large for this build")
        self.fine = ZeldovichIC(
            params,
            units,
            z_init,
            n_fine,
            seed=seed,
            temperature_init=temperature_init,
            transfer=transfer,
            power=power,
        )
        self.params = params
        self.units = units
        # snap region to root cells
        self.region_left = np.floor(np.asarray(region_left) * n_root) / n_root
        self.region_right = np.ceil(np.asarray(region_right) * n_root) / n_root

    def level_fields(self) -> list[GasIC]:
        """GasIC per level: level 0 covers the box, deeper levels the region."""
        fine_gas = self.fine.gas()
        out = []
        for level in range(self.static_levels + 1):
            factor = self.r ** (self.static_levels - level)
            density = degrade_field(fine_gas.density, factor) if factor > 1 else fine_gas.density
            vel = np.stack(
                [degrade_field(fine_gas.velocity[i], factor) if factor > 1 else fine_gas.velocity[i] for i in range(3)]
            )
            energy = degrade_field(fine_gas.energy, factor) if factor > 1 else fine_gas.energy
            if level == 0:
                out.append(GasIC(density, vel, energy))
            else:
                n_lvl = self.n_root * self.r**level
                lo = np.round(self.region_left * n_lvl).astype(int)
                hi = np.round(self.region_right * n_lvl).astype(int)
                sl = tuple(slice(lo[d], hi[d]) for d in range(3))
                out.append(
                    GasIC(
                        density[sl],
                        vel[(slice(None),) + sl],
                        energy[sl],
                        left_edge=lo / n_lvl,
                        right_edge=hi / n_lvl,
                    )
                )
        return out

    def particles(self) -> ParticleIC:
        """Multi-mass particle load: fine inside the region, coarse outside."""
        fine = self.fine.particles()
        n_fine = self.fine.n
        # lattice coordinates decide membership (not displaced positions),
        # so the split is deterministic and mass-conserving.
        q1 = (np.arange(n_fine) + 0.5) / n_fine
        qx, qy, qz = np.meshgrid(q1, q1, q1, indexing="ij")
        q = np.stack([qx, qy, qz], axis=-1).reshape(-1, 3)
        inside = np.all((q >= self.region_left) & (q < self.region_right), axis=1)

        pos_in = fine.positions[inside]
        vel_in = fine.velocities[inside]
        mass_in = fine.masses[inside]

        # outside: average fine particles in blocks of r^static_levels per dim
        factor = self.r**self.static_levels
        m = n_fine // factor
        block = (
            np.floor(q * m).astype(int) @ np.array([m * m, m, 1])
        )  # coarse cell id per fine particle
        outside = ~inside
        ids = block[outside]
        order = np.argsort(ids, kind="stable")
        ids_sorted = ids[order]
        uniq, starts = np.unique(ids_sorted, return_index=True)

        def _block_mean(arr):
            arr_s = arr[order]
            sums = np.add.reduceat(arr_s, starts, axis=0)
            counts = np.diff(np.append(starts, len(ids_sorted)))
            return sums / counts[:, None]

        # average the hi and lo words separately; the averaged pair is kept
        # as it comes, not renormalised
        hi_mean = _block_mean(fine.positions.hi[outside])
        lo_mean = _block_mean(fine.positions.lo[outside])
        vel_mean = _block_mean(fine.velocities[outside])
        mass_s = fine.masses[outside][order]
        mass_sum = np.add.reduceat(mass_s, starts)

        positions = DDArray(
            np.concatenate([pos_in.hi, hi_mean]),
            np.concatenate([pos_in.lo, lo_mean]),
        )
        velocities = np.concatenate([vel_in, vel_mean])
        masses = np.concatenate([mass_in, mass_sum])
        return ParticleIC(positions=positions, velocities=velocities, masses=masses)
