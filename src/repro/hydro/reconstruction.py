"""Interface reconstruction: piecewise-linear (PLM) and piecewise-parabolic (PPM).

All routines operate along **axis 0** of an ndarray of any rank (the solver
rotates the sweep axis to the front) and return interface states
``(q_left, q_right)`` of shape ``(N-1, ...)``: entry ``i`` holds the two
states at the face between cells ``i`` and ``i+1``.

The PPM implementation follows Colella & Woodward (1984): fourth-order
interface interpolation followed by the three monotonicity constraints.
The ``ppm``, ``ppm+flatten``, ``plm`` and ``flat`` sweep schemes hand these
face states straight to the Riemann solver (MUSCL-style); the ``trace``
scheme first traces the PPM edges along the characteristics (CW84,
:mod:`repro.hydro.tracing`).  Faces outside each scheme's stencil fall
back to first-order (donor cell) states, which is what the ghost-zone
layout guarantees never to be used in the interior.

:func:`repro.hydro.ppm.sweep_numpy` calls these NumPy bodies; ``rk_sweep``
in :mod:`repro.kernels.backend_cffi` calls their C transcriptions.
"""

from __future__ import annotations

import numpy as np


def _minmod(a, b):
    return np.where(a * b > 0.0, np.where(np.abs(a) < np.abs(b), a, b), 0.0)


def _mc_limiter(dq_minus, dq_plus):
    """Monotonised-central slope limiter."""
    dq_c = 0.5 * (dq_minus + dq_plus)
    lim = _minmod(2.0 * dq_minus, 2.0 * dq_plus)
    return _minmod(dq_c, lim)


def flat_reconstruct(q: np.ndarray):
    """First-order (piecewise-constant / donor-cell) interface states.

    The most robust reconstruction there is — no new extrema can ever be
    introduced — used by the defense ladder when a higher-order update has
    produced an invalid state on a grid.
    """
    if q.shape[0] < 2:
        raise ValueError("need at least 2 cells along the sweep axis")
    return q[:-1].copy(), q[1:].copy()


def plm_reconstruct(q: np.ndarray):
    """Piecewise-linear MUSCL states with the MC limiter.

    Valid for faces i in [1, N-3]; outer faces are donor-cell.
    """
    n = q.shape[0]
    if n < 2:
        raise ValueError("need at least 2 cells along the sweep axis")
    q_l = q[:-1].copy()  # donor-cell default: left state = cell i
    q_r = q[1:].copy()  # right state = cell i+1
    if n >= 4:
        dq_minus = q[1:-1] - q[:-2]
        dq_plus = q[2:] - q[1:-1]
        slope = _mc_limiter(dq_minus, dq_plus)  # slope of cells 1..N-2
        # face i (between cell i and i+1): left uses slope of cell i,
        # right uses slope of cell i+1.
        q_l[1:] = q[1:-1] + 0.5 * slope  # faces 1..N-2 get cell 1..N-2 left states
        q_r[:-1] = q[1:-1] - 0.5 * slope  # faces 0..N-3 get cell 1..N-2 right states
    return q_l, q_r


def ppm_reconstruct(q: np.ndarray):
    """Piecewise-parabolic states (CW84 interpolation + monotonisation).

    Valid for faces i in [2, N-4]; nearer faces degrade to PLM/donor-cell.
    """
    n = q.shape[0]
    if n < 6:
        return plm_reconstruct(q)

    # CW84 eq. 1.6: interface values from limited slopes,
    # q_{i+1/2} = (q_i + q_{i+1})/2 - (dq_{i+1} - dq_i)/6, which keeps the
    # interface value between the adjacent cell averages.
    dq = np.zeros_like(q)
    dq[1:-1] = _mc_limiter(q[1:-1] - q[:-2], q[2:] - q[1:-1])
    qf = 0.5 * (q[1:-2] + q[2:-1]) - (dq[2:-1] - dq[1:-2]) / 6.0

    # Per-cell left/right edge values for cells 2 .. n-3 (the cells whose
    # two faces both carry a 4th-order value):
    # left edge of cell j is the face value at j-1/2 -> qf[j-2],
    # right edge of cell j is the face value at j+1/2 -> qf[j-1].
    qc = q[2:-2]  # cells 2 .. n-3
    ql_edge = qf[:-1].copy()
    qr_edge = qf[1:].copy()

    # CW84 monotonicity constraints
    extremum = (qr_edge - qc) * (qc - ql_edge) <= 0.0
    ql_edge = np.where(extremum, qc, ql_edge)
    qr_edge = np.where(extremum, qc, qr_edge)

    dqe = qr_edge - ql_edge
    q6 = 6.0 * (qc - 0.5 * (ql_edge + qr_edge))
    overshoot_l = dqe * q6 > dqe * dqe
    overshoot_r = -(dqe * dqe) > dqe * q6
    ql_edge = np.where(overshoot_l, 3.0 * qc - 2.0 * qr_edge, ql_edge)
    qr_edge = np.where(overshoot_r, 3.0 * qc - 2.0 * ql_edge, qr_edge)

    # final safety clamp: each edge stays between the two cell averages it
    # separates (the overshoot corrections above can otherwise leave the
    # neighbour range on extreme data).
    q_im1 = q[1:-3]
    q_ip1 = q[3:-1]
    ql_edge = np.clip(ql_edge, np.minimum(q_im1, qc), np.maximum(q_im1, qc))
    qr_edge = np.clip(qr_edge, np.minimum(qc, q_ip1), np.maximum(qc, q_ip1))

    # assemble interface states: face i takes (right edge of cell i,
    # left edge of cell i+1); PPM edges exist for cells 2..n-3.
    q_l, q_r = plm_reconstruct(q)
    # faces with a PPM left state: i = 2 .. n-3  -> q_l[i] = qr_edge[i-2]
    q_l[2 : n - 2] = qr_edge
    # faces with a PPM right state: i+1 in 2..n-3 -> i = 1 .. n-4
    q_r[1 : n - 3] = ql_edge
    return q_l, q_r


def shock_flattening(pressure: np.ndarray, velocity: np.ndarray,
                     omega1: float = 0.75, omega2: float = 10.0,
                     epsilon: float = 0.33) -> np.ndarray:
    """PPM shock-flattening coefficient per cell (CW84 appendix).

    Returns f in [0, 1]: 1 = full flattening (revert the reconstruction to
    piecewise-constant), 0 = none.  A cell is flattened when it sits inside
    a strong compression: converging velocity and a steep pressure jump
    relative to the jump over a doubled stencil.
    """
    n = pressure.shape[0]
    f = np.zeros_like(pressure)
    if n < 5:
        return f
    dp1 = pressure[3:-1] - pressure[1:-3]  # p_{i+1} - p_{i-1} for i=2..n-3
    dp2 = pressure[4:] - pressure[:-4]  # p_{i+2} - p_{i-2}
    du = velocity[3:-1] - velocity[1:-3]
    p_min = np.minimum(pressure[3:-1], pressure[1:-3])
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(np.abs(dp2) > 1e-300, dp1 / dp2, 1.0)
        steep = np.abs(dp1) / np.maximum(p_min, 1e-300)
    inside_shock = (du < 0.0) & (steep > epsilon)
    f_val = np.clip(omega2 * (ratio - omega1), 0.0, 1.0)
    f[2:-2] = np.where(inside_shock, f_val, 0.0)
    return f


def apply_flattening(q_l: np.ndarray, q_r: np.ndarray, q: np.ndarray,
                     f: np.ndarray):
    """Blend interface states toward donor-cell by the flattening factor.

    Face i's left state belongs to cell i (factor f_i) and its right state
    to cell i+1 (factor f_{i+1}).
    """
    f_l = f[:-1]
    f_r = f[1:]
    return (
        q_l * (1.0 - f_l) + q[:-1] * f_l,
        q_r * (1.0 - f_r) + q[1:] * f_r,
    )

