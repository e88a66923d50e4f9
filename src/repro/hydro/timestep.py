"""Timestep constraints (paper Sec. 3.1: per-level timesteps from the CFL).

The comoving CFL condition with our variables: a signal crosses a cell of
comoving width dx in code time a*dx / (|v| + c_s) (velocities are proper
peculiar).  The expansion constraint bounds dt by a fraction of the Hubble
time so the operator-split drag terms stay accurate.
"""

from __future__ import annotations

import numpy as np

from repro import constants as const
from repro.hydro.eos import sound_speed
from repro.hydro.state import FieldSet, VELOCITY_FIELDS


def signal_speeds(fields, gamma: float = const.GAMMA) -> np.ndarray:
    """Per cell, the largest signal speed |v_k| + c_s over the three axes."""
    cs = sound_speed(fields["internal"], gamma)
    signal = cs.copy()
    for name in VELOCITY_FIELDS:
        signal = np.maximum(signal, np.abs(fields[name]) + cs)
    return signal


def hydro_timestep(
    fields: FieldSet,
    dx: float,
    a: float = 1.0,
    cfl: float = 0.4,
    gamma: float = const.GAMMA,
    interior=None,
) -> float:
    """CFL-limited timestep for one grid (code time units)."""
    signal = signal_speeds(fields, gamma)
    if interior is not None:
        signal = signal[interior]
    return cfl_timestep(float(signal.max()), dx, a, cfl)


def cfl_timestep(vmax: float, dx: float, a: float = 1.0,
                 cfl: float = 0.4) -> float:
    """The CFL timestep of a grid whose largest signal speed is ``vmax``."""
    if vmax <= 0.0:
        return np.inf
    return cfl * a * dx / vmax


def expansion_timestep(a: float, adot: float, fraction: float = 0.02) -> float:
    """dt <= fraction * (a / adot): bounds fractional expansion per step."""
    if adot <= 0.0:
        return np.inf
    return fraction * a / adot


def particle_timestep(velocities, dx: float, a: float, cfl: float = 0.4) -> float:
    """No particle crosses more than cfl cells per step (comoving widths)."""
    if velocities is None or len(velocities) == 0:
        return np.inf
    vmax = float(np.max(np.abs(velocities)))
    if vmax <= 0.0:
        return np.inf
    return cfl * a * dx / vmax


def accel_timestep(gmax: float, dx: float, a: float,
                   cfl: float = 0.3) -> float:
    """dt <= sqrt(cfl * a * dx / |g|): resolves free-fall through a cell
    of a grid whose largest |g| is ``gmax``."""
    if gmax <= 0.0:
        return np.inf
    return np.sqrt(cfl * a * dx / gmax)
