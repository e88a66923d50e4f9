"""Operator-split source terms: gravity kicks and cosmological expansion.

The comoving Euler equations (Bryan et al. 1995) reduce, with our variable
choices (comoving density, proper peculiar velocity, proper specific
internal energy), to the ordinary Euler equations with 1/a scaling of flux
divergences plus two exactly integrable source terms applied here:

* Hubble drag on peculiar velocities:  dv/dt = -(adot/a) v
* adiabatic expansion cooling:         de/dt = -3 (gamma-1) (adot/a) e

Both write the field arrays in place, so they act on a
:meth:`~repro.hydro.state.FieldSet.view` as well as on a whole grid.
"""

from __future__ import annotations

import numpy as np

from repro import constants as const
from repro.hydro.state import FieldSet, VELOCITY_FIELDS, total_energy


def expansion_factors(a: float, adot: float, dt: float,
                      gamma: float = const.GAMMA):
    """The exact exponential expansion factors of one step — ``(velocity,
    internal energy)`` — or None when the box does not expand."""
    if adot == 0.0:
        return None
    h = adot / a
    return np.exp(-h * dt), np.exp(-3.0 * (gamma - 1.0) * h * dt)


def apply_drag(fields: FieldSet, drag) -> None:
    """Scale the velocities and internal energy by the ``drag`` factors of
    :func:`expansion_factors` and rebuild the total energy."""
    v_factor, e_factor = drag
    for name in VELOCITY_FIELDS:
        fields[name] *= v_factor
    fields["internal"] *= e_factor
    fields["energy"][...] = total_energy(fields)


def apply_expansion_drag(fields: FieldSet, a: float, adot: float, dt: float,
                         gamma: float = const.GAMMA) -> None:
    """Apply the exact exponential expansion factors over one step."""
    drag = expansion_factors(a, adot, dt, gamma)
    if drag is not None:
        apply_drag(fields, drag)


def apply_acceleration(fields: FieldSet, accel, dt: float) -> None:
    """Gravity kick: v += g dt, with the total energy updated consistently.

    ``accel`` is a (3, nx, ny, nz) array of proper peculiar accelerations in
    code units (the gravity solver folds in its 1/a factor), shaped like
    the fields.
    """
    if accel is None:
        return
    # energy source rho v.g -> specific: d(E)/dt = v_mid . g ; use
    # time-centred velocity for second-order accuracy.
    for i, name in enumerate(VELOCITY_FIELDS):
        v = fields[name]
        v_new = v + accel[i] * dt
        fields["energy"] += 0.5 * (v + v_new) * accel[i] * dt
        v[...] = v_new
