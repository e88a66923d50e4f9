"""Kick-drift-kick leapfrog in comoving coordinates.

The collisionless equations in our variables (x comoving in the unit box,
v proper peculiar in code units):

    dx/dt = v / a            (drift, applied to EPA positions)
    dv/dt = g - (adot/a) v   (kick: peculiar gravity + Hubble drag)

The Hubble drag is integrated exactly over the half-kick via an exponential
factor, matching the gas solver's treatment.
"""

from __future__ import annotations

import numpy as np

from repro.nbody.particles import ParticleSet


def kick(particles: ParticleSet, accel: np.ndarray, dt: float,
         a: float = 1.0, adot: float = 0.0) -> None:
    """Half/full kick: drag (exact exponential) then acceleration impulse."""
    if adot != 0.0:
        particles.velocities *= np.exp(-(adot / a) * dt)
    if accel is not None:
        particles.velocities += accel * dt


def drift(particles: ParticleSet, dt: float, a: float = 1.0,
          periodic: bool = True) -> None:
    """Advance EPA positions by v dt / a (the only EPA-critical operation)."""
    dx = particles.velocities * (dt / a)
    particles.positions = particles.positions.shift(dx)
    if periodic:
        particles.wrap_periodic()


def kick_drift_kick(particles: ParticleSet, accel_fn, dt: float,
                    a: float = 1.0, adot: float = 0.0,
                    periodic: bool = True) -> None:
    """One KDK step; ``accel_fn(particles)`` returns (n, 3) accelerations.

    Re-evaluates the acceleration after the drift, as a proper leapfrog
    requires (the AMR driver instead interleaves kicks with its own gravity
    solves; this helper is for standalone N-body use and tests).
    """
    kick(particles, accel_fn(particles), 0.5 * dt, a, adot)
    drift(particles, dt, a, periodic)
    kick(particles, accel_fn(particles), 0.5 * dt, a, adot)
