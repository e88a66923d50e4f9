"""PPM characteristic tracing (Colella & Woodward 1984, Sec. 3).

The full PPM scheme does not feed the raw parabola edges to the Riemann
solver: it averages each cell's parabola over the domain of dependence of
every characteristic family reaching the interface during the step, and
combines the averages by projecting onto the characteristic fields.  This
is what makes PPM genuinely second-order in time with a single Riemann
solve per face.

Implemented for the 1-d (dimensionally split) Euler system in primitive
variables W = (rho, u, p) with eigenvalues u-c, u, u+c; transverse
velocities ride the u-family.  All arrays are oriented with the sweep
along axis 0, like :mod:`repro.hydro.reconstruction`.
"""

from __future__ import annotations

import numpy as np

from repro.hydro.reconstruction import ppm_reconstruct


def _parabola(q):
    """Monotonised parabola coefficients per cell.

    Returns (q_left_edge, q_right_edge) for every cell: cell i's right edge
    is the face-i left state and its left edge the face-(i-1) right state,
    as produced by :func:`ppm_reconstruct` (which returns face states).
    """
    n = q.shape[0]
    fl, fr = ppm_reconstruct(q)  # face arrays, length n-1
    # cell i edges: left edge = fr at face i-1 (right state of that face),
    # right edge = fl at face i (left state)
    ql = np.empty_like(q)
    qr = np.empty_like(q)
    ql[1:] = fr
    ql[0] = q[0]
    qr[:-1] = fl
    qr[-1] = q[-1]
    return ql, qr


def _iplus(ql, qr, q, sigma):
    """Average of the parabola over [1-sigma, 1] of the cell (right edge)."""
    dq = qr - ql
    q6 = 6.0 * (q - 0.5 * (ql + qr))
    s = np.clip(sigma, 0.0, 1.0)
    return qr - 0.5 * s * (dq - (1.0 - 2.0 * s / 3.0) * q6)

def _iminus(ql, qr, q, sigma):
    """Average over [0, sigma] of the cell (left edge)."""
    dq = qr - ql
    q6 = 6.0 * (q - 0.5 * (ql + qr))
    s = np.clip(sigma, 0.0, 1.0)
    return ql + 0.5 * s * (dq + (1.0 - 2.0 * s / 3.0) * q6)


def trace_states_numpy(rho, u, v, w, p, dtdx, gamma):
    """Characteristic-traced left/right interface states.

    Parameters: primitive arrays along axis 0, ``dtdx = dt/(a dx)`` and the
    adiabatic index.  Returns ``(states_l, states_r)`` — tuples of
    (rho, u, v, w, p) face arrays of length n-1, ready for the Riemann
    solver.  The NumPy body of the ``trace`` sweep scheme
    (:func:`repro.hydro.ppm.sweep_numpy`); ``rk_trace`` in
    :mod:`repro.kernels.backend_cffi` is its C transcription.
    """
    c = np.sqrt(gamma * np.maximum(p, 1e-300) / np.maximum(rho, 1e-300))
    lam_m = u - c
    lam_0 = u
    lam_p = u + c

    parabolas = {name: _parabola(q) for name, q in
                 (("rho", rho), ("u", u), ("v", v), ("w", w), ("p", p))}

    def avg_plus(name, lam):
        ql, qr = parabolas[name]
        q = {"rho": rho, "u": u, "v": v, "w": w, "p": p}[name]
        return _iplus(ql, qr, q, lam * dtdx)

    def avg_minus(name, lam):
        ql, qr = parabolas[name]
        q = {"rho": rho, "u": u, "v": v, "w": w, "p": p}[name]
        return _iminus(ql, qr, q, -lam * dtdx)

    # ---- left state at face i (from cell i, right-going waves) -------------
    lam_max = np.maximum(lam_p, 0.0)
    ref = {name: avg_plus(name, lam_max) for name in ("rho", "u", "p")}
    w_l = {k: ref[k].copy() for k in ref}
    c2 = c * c
    for lam in (lam_m, lam_0):
        active = lam > 0.0
        d_rho = ref["rho"] - avg_plus("rho", np.maximum(lam, 0.0))
        d_u = ref["u"] - avg_plus("u", np.maximum(lam, 0.0))
        d_p = ref["p"] - avg_plus("p", np.maximum(lam, 0.0))
        if lam is lam_m:
            alpha = (d_p - rho * c * d_u) / (2.0 * c2)
            r_vec = (np.ones_like(c), -c / rho, c2)
        else:
            alpha = d_rho - d_p / c2
            r_vec = (np.ones_like(c), np.zeros_like(c), np.zeros_like(c))
        mask = np.where(active, 1.0, 0.0)
        w_l["rho"] -= mask * alpha * r_vec[0]
        w_l["u"] -= mask * alpha * r_vec[1]
        w_l["p"] -= mask * alpha * r_vec[2]
    v_l = avg_plus("v", np.maximum(lam_0, 0.0))
    w_l_trans = avg_plus("w", np.maximum(lam_0, 0.0))

    # ---- right state at face i (from cell i+1, left-going waves) -------------
    lam_min = np.minimum(lam_m, 0.0)
    ref_r = {name: avg_minus(name, lam_min) for name in ("rho", "u", "p")}
    w_r = {k: ref_r[k].copy() for k in ref_r}
    for lam in (lam_p, lam_0):
        active = lam < 0.0
        d_rho = ref_r["rho"] - avg_minus("rho", np.minimum(lam, 0.0))
        d_u = ref_r["u"] - avg_minus("u", np.minimum(lam, 0.0))
        d_p = ref_r["p"] - avg_minus("p", np.minimum(lam, 0.0))
        if lam is lam_p:
            alpha = (d_p + rho * c * d_u) / (2.0 * c2)
            r_vec = (np.ones_like(c), c / rho, c2)
        else:
            alpha = d_rho - d_p / c2
            r_vec = (np.ones_like(c), np.zeros_like(c), np.zeros_like(c))
        mask = np.where(active, 1.0, 0.0)
        w_r["rho"] -= mask * alpha * r_vec[0]
        w_r["u"] -= mask * alpha * r_vec[1]
        w_r["p"] -= mask * alpha * r_vec[2]
    v_r = avg_minus("v", np.minimum(lam_0, 0.0))
    w_r_trans = avg_minus("w", np.minimum(lam_0, 0.0))

    # assemble face arrays: face i takes left state from cell i, right from i+1
    states_l = (
        w_l["rho"][:-1], w_l["u"][:-1], v_l[:-1], w_l_trans[:-1], w_l["p"][:-1]
    )
    states_r = (
        w_r["rho"][1:], w_r["u"][1:], v_r[1:], w_r_trans[1:], w_r["p"][1:]
    )
    return states_l, states_r
