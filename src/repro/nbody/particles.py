"""Particle container with double-double positions."""

from __future__ import annotations

import numpy as np

from repro.precision.doubledouble import DDArray


class ParticleSet:
    """Dark-matter particles: EPA positions, float64 velocities and masses.

    Velocities are proper peculiar velocities in code units (matching the
    gas convention); positions live in the unit box.
    """

    def __init__(self, positions: DDArray, velocities: np.ndarray,
                 masses: np.ndarray, ids: np.ndarray | None = None):
        n = len(positions)
        velocities = np.asarray(velocities, dtype=float)
        masses = np.asarray(masses, dtype=float)
        if velocities.shape != (n, 3):
            raise ValueError(f"velocities shape {velocities.shape} != ({n}, 3)")
        if masses.shape != (n,):
            raise ValueError(f"masses shape {masses.shape} != ({n},)")
        self.positions = positions
        self.velocities = velocities
        self.masses = masses
        self.ids = np.arange(n) if ids is None else np.asarray(ids)

    @classmethod
    def empty(cls) -> "ParticleSet":
        return cls(
            DDArray(np.zeros((0, 3))), np.zeros((0, 3)), np.zeros(0), np.zeros(0, int)
        )

    @classmethod
    def from_arrays(cls, positions_f64, velocities, masses) -> "ParticleSet":
        return cls(DDArray(positions_f64), velocities, masses)

    def __len__(self) -> int:
        return len(self.positions)

    @property
    def total_mass(self) -> float:
        return float(self.masses.sum())

    def select(self, mask) -> "ParticleSet":
        """Subset by boolean mask or index array."""
        return ParticleSet(
            self.positions[mask],
            self.velocities[mask],
            self.masses[mask],
            self.ids[mask],
        )

    def concatenated(self, other: "ParticleSet") -> "ParticleSet":
        return ParticleSet(
            DDArray(
                np.concatenate([self.positions.hi, other.positions.hi]),
                np.concatenate([self.positions.lo, other.positions.lo]),
            ),
            np.concatenate([self.velocities, other.velocities]),
            np.concatenate([self.masses, other.masses]),
            np.concatenate([self.ids, other.ids]),
        )

    def offsets_from(self, origin_hi, origin_lo=None) -> np.ndarray:
        """float64 positions relative to a DD origin (the precision boundary)."""
        return (self.positions - DDArray(origin_hi, origin_lo)).to_float64()

    def in_region(self, left_edge, right_edge) -> np.ndarray:
        """Boolean mask of particles inside [left, right) (float64 compare —
        adequate for region membership, which is cell-scale)."""
        pos = self.positions.to_float64()
        left = np.asarray(left_edge, float)
        right = np.asarray(right_edge, float)
        return np.all((pos >= left) & (pos < right), axis=1)

    def wrap_periodic(self) -> None:
        self.positions = self.positions.wrap_periodic(0.0, 1.0)

    def momentum(self) -> np.ndarray:
        return (self.velocities * self.masses[:, None]).sum(axis=0)

    def kinetic_energy(self) -> float:
        return float(0.5 * (self.masses * (self.velocities**2).sum(axis=1)).sum())
