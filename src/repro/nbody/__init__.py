"""Adaptive particle-mesh N-body for the collisionless dark matter.

"...the dark matter is pressureless and collisionless, only interacting via
gravity. ... we solve for the individual trajectories of a representative
sample of particles ... using particle-mesh techniques specially tailored to
adaptive mesh hierarchies." (paper Sec. 3.3)

Positions are EPA (a double-double :class:`repro.precision.DDArray`) — particles deep in
the hierarchy move by increments ~1e-12 of the box, which float64 cannot
represent; velocities and masses are plain float64 (relative quantities).
"""

from repro.nbody.particles import ParticleSet
from repro.nbody.cic import cic_deposit, cic_gather
from repro.nbody.integrator import kick, drift, kick_drift_kick

__all__ = [
    "ParticleSet",
    "cic_deposit",
    "cic_gather",
    "kick",
    "drift",
    "kick_drift_kick",
]
