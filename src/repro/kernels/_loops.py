"""Flat-loop kernel bodies: the compiled tier's source of truth.

Each function here is a straight per-element transcription of the
vectorised NumPy reference (``hydro/riemann.py``, ``hydro/reconstruction.py``,
``hydro/tracing.py``, ``hydro/ppm.py``, ``chemistry/rates.py``,
``amr/interpolation.py``, ``gravity/multigrid.py``) written in the restricted
style numba's ``@njit`` accepts: flat ``for`` loops over preallocated
output arrays, scalar math only, no dicts/closures.  The functions are
plain Python — importable and testable without numba — and are consumed
two ways:

* :mod:`repro.kernels.backend_numba` wraps them with ``njit`` verbatim;
* :mod:`repro.kernels.backend_cffi` mirrors them line-for-line in C.

Bitwise-parity rules (why the bodies look pedantic):

* op order and association match the NumPy expressions exactly —
  e.g. ``0.5 * (u_l - A + u_r + B)`` stays left-associated;
* ``_nmax``/``_nmin`` replicate ``np.maximum``/``np.minimum`` NaN
  propagation; bare ``max()``/``min()`` would not;
* every ``np.where(cond, a, b)`` becomes a branch whose *condition*
  evaluates identically for NaN (NaN comparisons are false both ways);
* multiplications by literal ``0.0``/``1.0`` from the characteristic
  eigenvectors are kept, because ``inf * 0.0`` must still produce NaN;
* ``math.sqrt``/division are IEEE-754 correctly rounded, so looping them
  is bit-identical to the ufunc (``exp`` is *not* — which is why the
  chemistry kernel stops at the linear blend and the caller keeps
  ``np.exp``).
"""

from __future__ import annotations

import math


def _nmax(a, b):
    """``np.maximum`` semantics: NaN in either operand propagates."""
    if a != a:
        return a
    if b != b:
        return b
    return a if a > b else b


def _nmin(a, b):
    """``np.minimum`` semantics: NaN in either operand propagates."""
    if a != a:
        return a
    if b != b:
        return b
    return a if a < b else b


def _minmod(a, b):
    # np.where(a * b > 0, where(|a| < |b|, a, b), 0.0); NaN product -> 0.0
    if a * b > 0.0:
        return a if abs(a) < abs(b) else b
    return 0.0


def _mc(dq_minus, dq_plus):
    dq_c = 0.5 * (dq_minus + dq_plus)
    lim = _minmod(2.0 * dq_minus, 2.0 * dq_plus)
    return _minmod(dq_c, lim)


# --------------------------------------------------------------------------
# Riemann solvers — all signatures take flattened face arrays plus the five
# preallocated flux component outputs.
# --------------------------------------------------------------------------


def _einfeldt(rl, ul, pl, rr, ur, pr, gamma):
    """Einfeldt wave-speed estimates (== riemann._wave_speed_estimates)."""
    cl = math.sqrt(gamma * pl / rl)
    cr = math.sqrt(gamma * pr / rr)
    sqrt_l = math.sqrt(rl)
    sqrt_r = math.sqrt(rr)
    u_roe = (sqrt_l * ul + sqrt_r * ur) / (sqrt_l + sqrt_r)
    h_l = (gamma * pl / ((gamma - 1.0) * rl)) + 0.5 * ul * ul
    h_r = (gamma * pr / ((gamma - 1.0) * rr)) + 0.5 * ur * ur
    h_roe = (sqrt_l * h_l + sqrt_r * h_r) / (sqrt_l + sqrt_r)
    c_roe = math.sqrt(
        _nmax((gamma - 1.0) * (h_roe - 0.5 * u_roe * u_roe), 1e-300)
    )
    return _nmin(ul - cl, u_roe - c_roe), _nmax(ur + cr, u_roe + c_roe)


def _contact(rl, ul, pl, rr, ur, pr, s_l, s_r):
    """Contact-wave speed clamped to the fan (hllc_flux, ppm.contact_speed)."""
    num = pr - pl + rl * ul * (s_l - ul) - rr * ur * (s_r - ur)
    den = rl * (s_l - ul) - rr * (s_r - ur)
    if abs(den) < 1e-300:
        den = 1e-300
    return _nmin(_nmax(num / den, s_l), s_r)


def two_shock(rho_l, u_l, v_l, w_l, p_l, rho_r, u_r, v_r, w_r, p_r,
              gamma, iterations, rtol, f0, f1, f2, f3, f4):
    """Two-shock flux with residual early exit (see riemann.two_shock_flux).

    At ``rtol == 0`` the exit fires only when the Newton update is an exact
    fixed point (``p_new == p_star``), making the early exit bitwise
    equivalent to running all ``iterations`` — a converged face re-derives
    the same ``p_star`` forever.  Positive ``rtol`` exits on
    ``|dp| <= rtol * p_star`` (documented as non-bitwise, opt-in);
    negative ``rtol`` disables the exit (fixed-count reference mode).
    """
    gp = 0.5 * (gamma + 1.0)
    gm = 0.5 * (gamma - 1.0)
    n = rho_l.shape[0]
    for i in range(n):
        rl = rho_l[i]
        ul = u_l[i]
        pl = p_l[i]
        rr = rho_r[i]
        ur = u_r[i]
        pr = p_r[i]

        p_star = _nmax(0.5 * (pl + pr), 1e-300)
        for _ in range(iterations):
            w_lft = math.sqrt(rl * (gp * p_star + gm * pl))
            w_rgt = math.sqrt(rr * (gp * p_star + gm * pr))
            us_l = ul - (p_star - pl) / w_lft
            us_r = ur + (p_star - pr) / w_rgt
            dp = (us_l - us_r) * (w_lft * w_rgt) / (w_lft + w_rgt)
            p_new = _nmax(p_star + dp, 1e-300)
            if rtol > 0.0:
                p_star = p_new
                if abs(dp) <= rtol * p_star:
                    break
            elif rtol == 0.0:
                if p_new == p_star:
                    break
                p_star = p_new
            else:  # rtol < 0: no early exit (fixed-count reference loop)
                p_star = p_new
        w_lft = math.sqrt(rl * (gp * p_star + gm * pl))
        w_rgt = math.sqrt(rr * (gp * p_star + gm * pr))
        u_star = 0.5 * (ul - (p_star - pl) / w_lft + ur + (p_star - pr) / w_rgt)

        rho_sl = rl / (1.0 - rl * (p_star - pl) / _nmax(w_lft * w_lft, 1e-300))
        rho_sr = rr / (1.0 - rr * (p_star - pr) / _nmax(w_rgt * w_rgt, 1e-300))
        rho_sl = _nmax(rho_sl, 1e-12)
        rho_sr = _nmax(rho_sr, 1e-12)

        s_l = ul - w_lft / rl
        s_r = ur + w_rgt / rr

        if u_star >= 0.0:
            if s_l >= 0.0:
                rho_i = rl
                u_i = ul
                p_i = pl
            else:
                rho_i = rho_sl
                u_i = u_star
                p_i = p_star
            v_i = v_l[i]
            w_i = w_l[i]
        else:
            if s_r <= 0.0:
                rho_i = rr
                u_i = ur
                p_i = pr
            else:
                rho_i = rho_sr
                u_i = u_star
                p_i = p_star
            v_i = v_r[i]
            w_i = w_r[i]

        e_total = p_i / ((gamma - 1.0) * rho_i) + 0.5 * (
            u_i * u_i + v_i * v_i + w_i * w_i
        )
        f0[i] = rho_i * u_i
        f1[i] = rho_i * u_i * u_i + p_i
        f2[i] = rho_i * u_i * v_i
        f3[i] = rho_i * u_i * w_i
        f4[i] = u_i * (rho_i * e_total + p_i)


def hllc(rho_l, u_l, v_l, w_l, p_l, rho_r, u_r, v_r, w_r, p_r,
         gamma, f0, f1, f2, f3, f4):
    """HLLC flux (see riemann.hllc_flux) with Einfeldt wave speeds."""
    n = rho_l.shape[0]
    for i in range(n):
        rl = rho_l[i]
        ul = u_l[i]
        vl = v_l[i]
        wl = w_l[i]
        pl = p_l[i]
        rr = rho_r[i]
        ur = u_r[i]
        vr = v_r[i]
        wr = w_r[i]
        pr = p_r[i]

        s_l, s_r = _einfeldt(rl, ul, pl, rr, ur, pr, gamma)
        s_m = _contact(rl, ul, pl, rr, ur, pr, s_l, s_r)

        e_l = pl / ((gamma - 1.0) * rl) + 0.5 * (ul * ul + vl * vl + wl * wl)
        e_r = pr / ((gamma - 1.0) * rr) + 0.5 * (ur * ur + vr * vr + wr * wr)
        fl0 = rl * ul
        fl1 = rl * ul * ul + pl
        fl2 = rl * ul * vl
        fl3 = rl * ul * wl
        fl4 = ul * (rl * e_l + pl)
        fr0 = rr * ur
        fr1 = rr * ur * ur + pr
        fr2 = rr * ur * vr
        fr3 = rr * ur * wr
        fr4 = ur * (rr * e_r + pr)

        if s_l >= 0.0:
            f0[i] = fl0
            f1[i] = fl1
            f2[i] = fl2
            f3[i] = fl3
            f4[i] = fl4
        elif s_m >= 0.0:
            smu = s_l - s_m
            if abs(smu) < 1e-300:
                smu = 1e-300
            factor = rl * (s_l - ul) / smu
            su = s_l - ul
            if abs(su) > 1e-300:
                p_term = pl / (rl * (1.0 if su == 0 else su))
            else:
                p_term = 0.0
            cs0 = factor
            cs1 = factor * s_m
            cs2 = factor * vl
            cs3 = factor * wl
            cs4 = factor * (e_l + (s_m - ul) * (s_m + p_term))
            f0[i] = fl0 + s_l * (cs0 - rl)
            f1[i] = fl1 + s_l * (cs1 - rl * ul)
            f2[i] = fl2 + s_l * (cs2 - rl * vl)
            f3[i] = fl3 + s_l * (cs3 - rl * wl)
            f4[i] = fl4 + s_l * (cs4 - rl * e_l)
        elif s_r >= 0.0:
            smu = s_r - s_m
            if abs(smu) < 1e-300:
                smu = 1e-300
            factor = rr * (s_r - ur) / smu
            su = s_r - ur
            if abs(su) > 1e-300:
                p_term = pr / (rr * (1.0 if su == 0 else su))
            else:
                p_term = 0.0
            cs0 = factor
            cs1 = factor * s_m
            cs2 = factor * vr
            cs3 = factor * wr
            cs4 = factor * (e_r + (s_m - ur) * (s_m + p_term))
            f0[i] = fr0 + s_r * (cs0 - rr)
            f1[i] = fr1 + s_r * (cs1 - rr * ur)
            f2[i] = fr2 + s_r * (cs2 - rr * vr)
            f3[i] = fr3 + s_r * (cs3 - rr * wr)
            f4[i] = fr4 + s_r * (cs4 - rr * e_r)
        else:
            f0[i] = fr0
            f1[i] = fr1
            f2[i] = fr2
            f3[i] = fr3
            f4[i] = fr4


def hll(rho_l, u_l, v_l, w_l, p_l, rho_r, u_r, v_r, w_r, p_r,
        gamma, f0, f1, f2, f3, f4):
    """HLL two-wave flux (see riemann.hll_flux)."""
    n = rho_l.shape[0]
    for i in range(n):
        rl = rho_l[i]
        ul = u_l[i]
        vl = v_l[i]
        wl = w_l[i]
        pl = p_l[i]
        rr = rho_r[i]
        ur = u_r[i]
        vr = v_r[i]
        wr = w_r[i]
        pr = p_r[i]

        s_l, s_r = _einfeldt(rl, ul, pl, rr, ur, pr, gamma)

        e_l = pl / ((gamma - 1.0) * rl) + 0.5 * (ul * ul + vl * vl + wl * wl)
        e_r = pr / ((gamma - 1.0) * rr) + 0.5 * (ur * ur + vr * vr + wr * wr)
        fl0 = rl * ul
        fl1 = rl * ul * ul + pl
        fl2 = rl * ul * vl
        fl3 = rl * ul * wl
        fl4 = ul * (rl * e_l + pl)
        fr0 = rr * ur
        fr1 = rr * ur * ur + pr
        fr2 = rr * ur * vr
        fr3 = rr * ur * wr
        fr4 = ur * (rr * e_r + pr)

        denom = s_r - s_l
        if s_l >= 0.0:
            f0[i] = fl0
            f1[i] = fl1
            f2[i] = fl2
            f3[i] = fl3
            f4[i] = fl4
        elif s_r <= 0.0:
            f0[i] = fr0
            f1[i] = fr1
            f2[i] = fr2
            f3[i] = fr3
            f4[i] = fr4
        else:
            f0[i] = (s_r * fl0 - s_l * fr0 + s_l * s_r * (rr - rl)) / denom
            f1[i] = (s_r * fl1 - s_l * fr1
                     + s_l * s_r * (rr * ur - rl * ul)) / denom
            f2[i] = (s_r * fl2 - s_l * fr2
                     + s_l * s_r * (rr * vr - rl * vl)) / denom
            f3[i] = (s_r * fl3 - s_l * fr3
                     + s_l * s_r * (rr * wr - rl * wl)) / denom
            f4[i] = (s_r * fl4 - s_l * fr4
                     + s_l * s_r * (rr * e_r - rl * e_l)) / denom


# --------------------------------------------------------------------------
# reconstruction — arrays are 2-d (n, m): sweep axis flattened against the
# transverse axes.  ql/qr are (n-1, m) face outputs.
# --------------------------------------------------------------------------


def plm(q, ql, qr):
    """PLM/MC interface states (see reconstruction.plm_reconstruct)."""
    n = q.shape[0]
    m = q.shape[1]
    for f in range(n - 1):
        for j in range(m):
            ql[f, j] = q[f, j]
            qr[f, j] = q[f + 1, j]
    if n >= 4:
        for c in range(1, n - 1):
            for j in range(m):
                dq_minus = q[c, j] - q[c - 1, j]
                dq_plus = q[c + 1, j] - q[c, j]
                slope = _mc(dq_minus, dq_plus)
                ql[c, j] = q[c, j] + 0.5 * slope
                qr[c - 1, j] = q[c, j] - 0.5 * slope


def ppm(q, ql, qr, dq, qf):
    """PPM/CW84 interface states (see reconstruction.ppm_reconstruct).

    Scratch: ``dq`` of shape (n, m) for the limited slopes and ``qf`` of
    shape (n-3, m) for the fourth-order face values.  Caller guarantees
    n >= 6 (smaller stencils stay on :func:`plm`, matching the reference).
    """
    n = q.shape[0]
    m = q.shape[1]
    plm(q, ql, qr)
    for c in range(1, n - 1):
        for j in range(m):
            dq[c, j] = _mc(q[c, j] - q[c - 1, j], q[c + 1, j] - q[c, j])
    for t in range(n - 3):
        for j in range(m):
            qf[t, j] = 0.5 * (q[t + 1, j] + q[t + 2, j]) - (
                dq[t + 2, j] - dq[t + 1, j]
            ) / 6.0
    for c in range(n - 4):
        for j in range(m):
            qc = q[c + 2, j]
            ql_edge = qf[c, j]
            qr_edge = qf[c + 1, j]
            if (qr_edge - qc) * (qc - ql_edge) <= 0.0:
                ql_edge = qc
                qr_edge = qc
            dqe = qr_edge - ql_edge
            q6 = 6.0 * (qc - 0.5 * (ql_edge + qr_edge))
            overshoot_l = dqe * q6 > dqe * dqe
            overshoot_r = -(dqe * dqe) > dqe * q6
            if overshoot_l:
                ql_edge = 3.0 * qc - 2.0 * qr_edge
            if overshoot_r:
                # uses the possibly-updated ql_edge, like the reference
                qr_edge = 3.0 * qc - 2.0 * ql_edge
            q_im1 = q[c + 1, j]
            q_ip1 = q[c + 3, j]
            ql_edge = _nmin(_nmax(ql_edge, _nmin(q_im1, qc)), _nmax(q_im1, qc))
            qr_edge = _nmin(_nmax(qr_edge, _nmin(qc, q_ip1)), _nmax(qc, q_ip1))
            ql[c + 2, j] = qr_edge
            qr[c + 1, j] = ql_edge


# --------------------------------------------------------------------------
# characteristic tracing — the per-face algebra after the parabola edges
# have been assembled (cell-edge arrays, shape (n, m)).
# --------------------------------------------------------------------------


def _iplus(ql, qr, q, sigma):
    dq = qr - ql
    q6 = 6.0 * (q - 0.5 * (ql + qr))
    s = _nmin(_nmax(sigma, 0.0), 1.0)
    return qr - 0.5 * s * (dq - (1.0 - 2.0 * s / 3.0) * q6)


def _iminus(ql, qr, q, sigma):
    dq = qr - ql
    q6 = 6.0 * (q - 0.5 * (ql + qr))
    s = _nmin(_nmax(sigma, 0.0), 1.0)
    return ql + 0.5 * s * (dq + (1.0 - 2.0 * s / 3.0) * q6)


def trace(rho, u, v, w, p,
          el_rho, er_rho, el_u, er_u, el_v, er_v, el_w, er_w, el_p, er_p,
          dtdx, gamma,
          out_l_rho, out_l_u, out_l_v, out_l_w, out_l_p,
          out_r_rho, out_r_u, out_r_v, out_r_w, out_r_p):
    """Characteristic tracing (see tracing.trace_interface_states).

    Inputs: primitive cell arrays (n, m) and their parabola edge arrays
    ``el_*``/``er_*`` (cell left/right edges, from the PPM face states).
    Outputs: the ten (n-1, m) face-state components.  Face ``f`` takes its
    left state from cell ``f`` (right-going waves) and its right state
    from cell ``f+1`` (left-going waves).
    """
    n = rho.shape[0]
    m = rho.shape[1]
    for f in range(n - 1):
        for j in range(m):
            # ---- left state from cell i = f ------------------------------
            i = f
            rho_i = rho[i, j]
            u_i = u[i, j]
            p_i = p[i, j]
            c_i = math.sqrt(
                gamma * _nmax(p_i, 1e-300) / _nmax(rho_i, 1e-300)
            )
            c2 = c_i * c_i
            lam_m = u_i - c_i
            lam_0 = u_i
            lam_p = u_i + c_i

            lam_max = _nmax(lam_p, 0.0)
            ref_rho = _iplus(el_rho[i, j], er_rho[i, j], rho_i,
                             lam_max * dtdx)
            ref_u = _iplus(el_u[i, j], er_u[i, j], u_i, lam_max * dtdx)
            ref_p = _iplus(el_p[i, j], er_p[i, j], p_i, lam_max * dtdx)
            wl_rho = ref_rho
            wl_u = ref_u
            wl_p = ref_p

            # lam_m family
            sig = _nmax(lam_m, 0.0) * dtdx
            d_rho = ref_rho - _iplus(el_rho[i, j], er_rho[i, j], rho_i, sig)
            d_u = ref_u - _iplus(el_u[i, j], er_u[i, j], u_i, sig)
            d_p = ref_p - _iplus(el_p[i, j], er_p[i, j], p_i, sig)
            alpha = (d_p - rho_i * c_i * d_u) / (2.0 * c2)
            mask = 1.0 if lam_m > 0.0 else 0.0
            wl_rho -= mask * alpha * 1.0
            wl_u -= mask * alpha * (-c_i / rho_i)
            wl_p -= mask * alpha * c2

            # lam_0 family
            sig = _nmax(lam_0, 0.0) * dtdx
            d_rho = ref_rho - _iplus(el_rho[i, j], er_rho[i, j], rho_i, sig)
            d_u = ref_u - _iplus(el_u[i, j], er_u[i, j], u_i, sig)
            d_p = ref_p - _iplus(el_p[i, j], er_p[i, j], p_i, sig)
            alpha = d_rho - d_p / c2
            mask = 1.0 if lam_0 > 0.0 else 0.0
            wl_rho -= mask * alpha * 1.0
            wl_u -= mask * alpha * 0.0
            wl_p -= mask * alpha * 0.0

            sig0 = _nmax(lam_0, 0.0) * dtdx
            out_l_rho[f, j] = wl_rho
            out_l_u[f, j] = wl_u
            out_l_v[f, j] = _iplus(el_v[i, j], er_v[i, j], v[i, j], sig0)
            out_l_w[f, j] = _iplus(el_w[i, j], er_w[i, j], w[i, j], sig0)
            out_l_p[f, j] = wl_p

            # ---- right state from cell i = f + 1 -------------------------
            i = f + 1
            rho_i = rho[i, j]
            u_i = u[i, j]
            p_i = p[i, j]
            c_i = math.sqrt(
                gamma * _nmax(p_i, 1e-300) / _nmax(rho_i, 1e-300)
            )
            c2 = c_i * c_i
            lam_m = u_i - c_i
            lam_0 = u_i
            lam_p = u_i + c_i

            lam_min = _nmin(lam_m, 0.0)
            ref_rho = _iminus(el_rho[i, j], er_rho[i, j], rho_i,
                              -lam_min * dtdx)
            ref_u = _iminus(el_u[i, j], er_u[i, j], u_i, -lam_min * dtdx)
            ref_p = _iminus(el_p[i, j], er_p[i, j], p_i, -lam_min * dtdx)
            wr_rho = ref_rho
            wr_u = ref_u
            wr_p = ref_p

            # lam_p family
            sig = -_nmin(lam_p, 0.0) * dtdx
            d_rho = ref_rho - _iminus(el_rho[i, j], er_rho[i, j], rho_i, sig)
            d_u = ref_u - _iminus(el_u[i, j], er_u[i, j], u_i, sig)
            d_p = ref_p - _iminus(el_p[i, j], er_p[i, j], p_i, sig)
            alpha = (d_p + rho_i * c_i * d_u) / (2.0 * c2)
            mask = 1.0 if lam_p < 0.0 else 0.0
            wr_rho -= mask * alpha * 1.0
            wr_u -= mask * alpha * (c_i / rho_i)
            wr_p -= mask * alpha * c2

            # lam_0 family
            sig = -_nmin(lam_0, 0.0) * dtdx
            d_rho = ref_rho - _iminus(el_rho[i, j], er_rho[i, j], rho_i, sig)
            d_u = ref_u - _iminus(el_u[i, j], er_u[i, j], u_i, sig)
            d_p = ref_p - _iminus(el_p[i, j], er_p[i, j], p_i, sig)
            alpha = d_rho - d_p / c2
            mask = 1.0 if lam_0 < 0.0 else 0.0
            wr_rho -= mask * alpha * 1.0
            wr_u -= mask * alpha * 0.0
            wr_p -= mask * alpha * 0.0

            sig0 = -_nmin(lam_0, 0.0) * dtdx
            out_r_rho[f, j] = wr_rho
            out_r_u[f, j] = wr_u
            out_r_v[f, j] = _iminus(el_v[i, j], er_v[i, j], v[i, j], sig0)
            out_r_w[f, j] = _iminus(el_w[i, j], er_w[i, j], w[i, j], sig0)
            out_r_p[f, j] = wr_p


# --------------------------------------------------------------------------
# chemistry — log-table gather + linear blend (the exp stays in NumPy)
# --------------------------------------------------------------------------


def chem_blend(logtab, idx, weight, out):
    """Gather + lerp over the channel-major log-rate table.

    ``(hi - lo) * w + lo`` matches the reference's in-place
    ``out -= lo; out *= w; out += lo`` exactly (no FMA contraction).
    """
    n_ch = logtab.shape[0]
    n_t = idx.shape[0]
    for c in range(n_ch):
        for j in range(n_t):
            lo = logtab[c, idx[j]]
            hi = logtab[c, idx[j] + 1]
            out[c, j] = (hi - lo) * weight[j] + lo


# --------------------------------------------------------------------------
# AMR stencils — conservative linear prolongation into fine-index boxes and
# the multigrid smoother (references: amr/interpolation.py prolong_boxes,
# gravity/multigrid.py redblack_smooth_numpy)
# --------------------------------------------------------------------------


def _sign(x):
    """``np.sign``: -1, 0, +1, NaN for NaN."""
    if x > 0.0:
        return 1.0
    if x < 0.0:
        return -1.0
    if x == 0.0:
        return 0.0
    return x


def _clip01(x):
    """``np.clip(x, 0.0, 1.0)``: NaN propagates, -0.0 clips to +0.0."""
    if x != x:
        return x
    t = x if x > 0.0 else 0.0
    return t if t < 1.0 else 1.0


def _tval(new, old, use_old, omf, frac, i, j, k):
    """Parent value at the child's time: ``old * (1 - frac) + new * frac``."""
    if use_old:
        return old[i, j, k] * omf + new[i, j, k] * frac
    return new[i, j, k]


def _mc_slope(qm, q, qp):
    """interpolation._limited_slopes for one interior cell."""
    dm = q - qm
    dp = qp - q
    if dm * dp > 0.0:
        centred = 0.5 * (dm + dp)
        return _sign(centred) * _nmin(abs(centred),
                                      2.0 * _nmin(abs(dm), abs(dp)))
    return 0.0


def prolong_linear(new, old, use_old, frac, positive, r,
                   p0, p1, p2, fine, f0, f1, f2, boxes):
    """Prolong one parent field into fine-index boxes of one child array.

    ``new``/``old`` are the parent's allocated arrays, read in place;
    ``(p0, p1, p2)`` is the coarse index of their first cell, ``(f0, f1,
    f2)`` the fine index of ``fine``'s first cell, ``r >= 2``.  ``boxes``
    is an ``(n, 6)`` int array of fine-index ``lo, hi`` corners.  The loop
    runs over the parent cells under each box so slopes are computed once
    per parent cell; a slope is zero only along an axis where the cell
    sits on the parent array's edge.
    """
    nx = new.shape[0]
    ny = new.shape[1]
    nz = new.shape[2]
    omf = 1.0 - frac
    max_off = 0.5 * (1.0 - 1.0 / r)
    for b in range(boxes.shape[0]):
        lo0 = boxes[b, 0]
        lo1 = boxes[b, 1]
        lo2 = boxes[b, 2]
        hi0 = boxes[b, 3]
        hi1 = boxes[b, 4]
        hi2 = boxes[b, 5]
        # ``//`` floors, so negative (ghost) fine indices map correctly
        for ci in range(lo0 // r, -((-hi0) // r)):
            i = ci - p0
            for cj in range(lo1 // r, -((-hi1) // r)):
                j = cj - p1
                for ck in range(lo2 // r, -((-hi2) // r)):
                    k = ck - p2
                    q = _tval(new, old, use_old, omf, frac, i, j, k)
                    s0 = 0.0
                    s1 = 0.0
                    s2 = 0.0
                    if 0 < i < nx - 1:
                        s0 = _mc_slope(
                            _tval(new, old, use_old, omf, frac, i - 1, j, k),
                            q,
                            _tval(new, old, use_old, omf, frac, i + 1, j, k))
                    if 0 < j < ny - 1:
                        s1 = _mc_slope(
                            _tval(new, old, use_old, omf, frac, i, j - 1, k),
                            q,
                            _tval(new, old, use_old, omf, frac, i, j + 1, k))
                    if 0 < k < nz - 1:
                        s2 = _mc_slope(
                            _tval(new, old, use_old, omf, frac, i, j, k - 1),
                            q,
                            _tval(new, old, use_old, omf, frac, i, j, k + 1))
                    if positive:
                        reach = max_off * (abs(s0) + abs(s1) + abs(s2))
                        scale = 1.0
                        if reach > q:
                            scale = q / _nmax(reach, 1e-300)
                        scale = _clip01(scale)
                        s0 = s0 * scale
                        s1 = s1 * scale
                        s2 = s2 * scale
                    # child-centre offsets (m + 0.5) / r - 0.5, m = 0..r-1
                    for fi in range(max(ci * r, lo0), min(ci * r + r, hi0)):
                        v0 = q + s0 * ((fi - ci * r + 0.5) / r - 0.5)
                        for fj in range(max(cj * r, lo1),
                                        min(cj * r + r, hi1)):
                            v1 = v0 + s1 * ((fj - cj * r + 0.5) / r - 0.5)
                            for fk in range(max(ck * r, lo2),
                                            min(ck * r + r, hi2)):
                                fine[fi - f0, fj - f1, fk - f2] = (
                                    v1 + s2 * ((fk - ck * r + 0.5) / r - 0.5))


def mg_smooth(phi, source, h2, sweeps):
    """Red-black Gauss-Seidel sweeps on the interior of rim-padded ``phi``.

    Same-colour cells are never neighbours, so updating in place equals
    the reference's whole-array neighbour sum followed by a masked store.
    """
    nx = source.shape[0]
    ny = source.shape[1]
    nz = source.shape[2]
    for _ in range(sweeps):
        for colour in range(2):
            for i in range(nx):
                for j in range(ny):
                    for k in range((i + j + colour) % 2, nz, 2):
                        nb = phi[i + 2, j + 1, k + 1] + phi[i, j + 1, k + 1]
                        nb += phi[i + 1, j + 2, k + 1]
                        nb += phi[i + 1, j, k + 1]
                        nb += phi[i + 1, j + 1, k + 2]
                        nb += phi[i + 1, j + 1, k]
                        nb -= source[i, j, k] * h2
                        phi[i + 1, j + 1, k + 1] = nb / 6.0


# --------------------------------------------------------------------------
# fused hydro sweep — one grid, one axis, one call (reference:
# hydro/ppm.py sweep_numpy).  The driver gathers blocks of sweep-axis
# pencils into scratch, runs the reconstruction / tracing / Riemann bodies
# above on them and adds only the arithmetic that used to be NumPy-only.
# Pencils are independent within a sweep, so the block size never shows
# in the result.
# --------------------------------------------------------------------------

#: ``scheme`` / ``solver`` names of the kernel contract; the loops take
#: their indices
SWEEP_SCHEMES = ("trace", "ppm+flatten", "ppm", "plm", "flat")
SWEEP_SOLVERS = ("hllc", "hll", "two_shock")
SCHEME_TRACE = 0
SCHEME_PPM_FLATTEN = 1
SCHEME_PLM = 3
SCHEME_FLAT = 4
SOLVER_HLLC = 0
SOLVER_HLL = 1

# rows of the ``work`` scratch, each one (n, block) array: the six gathered
# fields, pressure, flattening coefficient, two reconstruction scratches,
# left/right face states, parabola edges and their face temporaries
# (tracing only), the five Riemann fluxes, internal-energy flux, contact
# speed and one advected-field flux
_W_Q = 0
_W_P = 6
_W_FLAT = 7
_W_DQ = 8
_W_QF = 9
_W_SL = 10
_W_SR = 15
_W_EDGE = 20
_W_FL = 30
_W_FR = 31
_W_F = 32
_W_FEINT = 37
_W_UFACE = 38
_W_FADV = 39
SWEEP_SLOTS = 40


def _slot(work, k, n, mc):
    """Scratch row ``k`` as an (n, mc) array."""
    return work[k][:n * mc].reshape(n, mc)


def _faces(work, k, lo, hi):
    """Flat entries ``lo:hi`` of scratch row ``k`` (a run of whole faces)."""
    return work[k][lo:hi]


def flatten_coef(p, u, f):
    """CW84 shock-flattening coefficient (reconstruction.shock_flattening
    with its default omega1 = 0.75, omega2 = 10, epsilon = 0.33)."""
    n = p.shape[0]
    m = p.shape[1]
    for i in range(n):
        for j in range(m):
            f[i, j] = 0.0
    if n < 5:
        return
    for i in range(2, n - 2):
        for j in range(m):
            dp1 = p[i + 1, j] - p[i - 1, j]
            dp2 = p[i + 2, j] - p[i - 2, j]
            du = u[i + 1, j] - u[i - 1, j]
            p_min = _nmin(p[i + 1, j], p[i - 1, j])
            ratio = 1.0
            if abs(dp2) > 1e-300:
                ratio = dp1 / dp2
            steep = abs(dp1) / _nmax(p_min, 1e-300)
            if du < 0.0 and steep > 0.33:
                f[i, j] = _clip01(10.0 * (ratio - 0.75))


def flatten_states(q, f, ql, qr):
    """reconstruction.apply_flattening, in place on the face states."""
    n = q.shape[0]
    m = q.shape[1]
    for i in range(n - 1):
        for j in range(m):
            ql[i, j] = ql[i, j] * (1.0 - f[i, j]) + q[i, j] * f[i, j]
            qr[i, j] = (qr[i, j] * (1.0 - f[i + 1, j])
                        + q[i + 1, j] * f[i + 1, j])


def contact_speed(rho_l, u_l, p_l, rho_r, u_r, p_r, gamma, out):
    """Interface velocity of the pdV term (ppm.contact_speed)."""
    for i in range(rho_l.shape[0]):
        s_l, s_r = _einfeldt(rho_l[i], u_l[i], p_l[i],
                             rho_r[i], u_r[i], p_r[i], gamma)
        out[i] = _contact(rho_l[i], u_l[i], p_l[i],
                          rho_r[i], u_r[i], p_r[i], s_l, s_r)


def sweep(q, n0, n1, n2, axis, ng, dtdx, fscale, gamma, scheme, solver,
          dfloor, efloor, flux, counts, work, cols):
    """One directional sweep of one grid (see ppm.sweep_numpy).

    ``q`` is the tuple of flattened C-order field arrays ``(rho, u, v, w,
    e_tot, e_int, *advected)`` with ``u`` the velocity along ``axis``,
    updated in place; ``flux`` the matching tuple of flattened outputs of
    shape ``dims - 2 ng`` (one more along ``axis``), filled with the
    ``fscale``-scaled interior-face fluxes; ``counts`` the five floor
    counts (face density, face pressure, density, internal, energy).
    ``work`` is (SWEEP_SLOTS, n * block) float scratch and ``cols``
    (2, block) integer scratch, both owned by this call.
    """
    if axis == 0:
        n, s, na, sa, nb, sb = n0, n1 * n2, n1, n2, n2, 1
    elif axis == 1:
        n, s, na, sa, nb, sb = n1, n2, n0, n1 * n2, n2, 1
    else:
        n, s, na, sa, nb, sb = n2, 1, n0, n1 * n2, n1, n2
    # output strides: interior extents transversally, n - 2 ng + 1 faces
    oa = max(na - 2 * ng, 0)
    ob = max(nb - 2 * ng, 0)
    on = n - 2 * ng + 1
    if axis == 0:
        fs, fsa, fsb = oa * ob, ob, 1
    elif axis == 1:
        fs, fsa, fsb = ob, on * ob, 1
    else:
        fs, fsa, fsb = 1, ob * on, on
    m = na * nb
    mb = cols.shape[1]
    lo = ng - 1                      # faces lo .. hi-1 bound the updated band
    hi = n - ng
    p_floor = (gamma - 1.0) * dfloor * efloor
    eint_floor = dfloor * efloor
    for k in range(5):
        counts[k] = 0

    for c0 in range(0, m, mb):
        mc = min(mb, m - c0)
        for jj in range(mc):
            a = (c0 + jj) // nb
            b = (c0 + jj) % nb
            cols[0, jj] = a * sa + b * sb
            cols[1, jj] = -1
            if ng <= a < na - ng and ng <= b < nb - ng:
                cols[1, jj] = (a - ng) * fsa + (b - ng) * fsb
        for k in range(6):
            src = q[k]
            buf = _slot(work, _W_Q + k, n, mc)
            for i in range(n):
                for jj in range(mc):
                    buf[i, jj] = src[cols[0, jj] + i * s]
        rho = _slot(work, _W_Q, n, mc)
        u = _slot(work, _W_Q + 1, n, mc)
        etot = _slot(work, _W_Q + 4, n, mc)
        eint = _slot(work, _W_Q + 5, n, mc)
        p = _slot(work, _W_P, n, mc)
        for i in range(n):
            for jj in range(mc):
                p[i, jj] = (gamma - 1.0) * rho[i, jj] * eint[i, jj]

        # ---- face states of (rho, u, v, w, p) ---------------------------
        dq = _slot(work, _W_DQ, n, mc)
        qf = _slot(work, _W_QF, n, mc)
        if scheme == SCHEME_TRACE:
            fl = _slot(work, _W_FL, n, mc)
            fr = _slot(work, _W_FR, n, mc)
            for k in range(5):
                qk = _slot(work, _W_P if k == 4 else _W_Q + k, n, mc)
                if n < 6:
                    plm(qk, fl, fr)
                else:
                    ppm(qk, fl, fr, dq, qf)
                # cell i's left edge is face i-1's right state, its right
                # edge face i's left state (tracing._parabola)
                el = _slot(work, _W_EDGE + 2 * k, n, mc)
                er = _slot(work, _W_EDGE + 2 * k + 1, n, mc)
                for jj in range(mc):
                    el[0, jj] = qk[0, jj]
                    er[n - 1, jj] = qk[n - 1, jj]
                for i in range(n - 1):
                    for jj in range(mc):
                        el[i + 1, jj] = fr[i, jj]
                        er[i, jj] = fl[i, jj]
            trace(rho, u, _slot(work, _W_Q + 2, n, mc),
                  _slot(work, _W_Q + 3, n, mc), p,
                  _slot(work, _W_EDGE, n, mc),
                  _slot(work, _W_EDGE + 1, n, mc),
                  _slot(work, _W_EDGE + 2, n, mc),
                  _slot(work, _W_EDGE + 3, n, mc),
                  _slot(work, _W_EDGE + 4, n, mc),
                  _slot(work, _W_EDGE + 5, n, mc),
                  _slot(work, _W_EDGE + 6, n, mc),
                  _slot(work, _W_EDGE + 7, n, mc),
                  _slot(work, _W_EDGE + 8, n, mc),
                  _slot(work, _W_EDGE + 9, n, mc),
                  dtdx, gamma,
                  _slot(work, _W_SL, n, mc), _slot(work, _W_SL + 1, n, mc),
                  _slot(work, _W_SL + 2, n, mc),
                  _slot(work, _W_SL + 3, n, mc),
                  _slot(work, _W_SL + 4, n, mc),
                  _slot(work, _W_SR, n, mc), _slot(work, _W_SR + 1, n, mc),
                  _slot(work, _W_SR + 2, n, mc),
                  _slot(work, _W_SR + 3, n, mc),
                  _slot(work, _W_SR + 4, n, mc))
        else:
            flat = _slot(work, _W_FLAT, n, mc)
            if scheme == SCHEME_PPM_FLATTEN:
                flatten_coef(p, u, flat)
            for k in range(5):
                qk = _slot(work, _W_P if k == 4 else _W_Q + k, n, mc)
                ql = _slot(work, _W_SL + k, n, mc)
                qr = _slot(work, _W_SR + k, n, mc)
                if scheme == SCHEME_FLAT:
                    for i in range(n - 1):
                        for jj in range(mc):
                            ql[i, jj] = qk[i, jj]
                            qr[i, jj] = qk[i + 1, jj]
                elif scheme == SCHEME_PLM or n < 6:
                    plm(qk, ql, qr)
                else:
                    ppm(qk, ql, qr, dq, qf)
                if scheme == SCHEME_PPM_FLATTEN:
                    flatten_states(qk, flat, ql, qr)

        # ---- positivity at faces (all n-1 of them are counted) ----------
        for side in range(2):
            d = _slot(work, _W_SL + 5 * side, n, mc)
            pf = _slot(work, _W_SL + 5 * side + 4, n, mc)
            for i in range(n - 1):
                for jj in range(mc):
                    if d[i, jj] < dfloor:
                        counts[0] += 1
                    d[i, jj] = _nmax(d[i, jj], dfloor)
                    if pf[i, jj] < p_floor:
                        counts[1] += 1
                    pf[i, jj] = _nmax(pf[i, jj], p_floor)

        # ---- Riemann fluxes and contact speed on the faces in use -------
        f_lo = lo * mc
        f_hi = hi * mc
        rho_l = _faces(work, _W_SL, f_lo, f_hi)
        u_l = _faces(work, _W_SL + 1, f_lo, f_hi)
        v_l = _faces(work, _W_SL + 2, f_lo, f_hi)
        w_l = _faces(work, _W_SL + 3, f_lo, f_hi)
        p_l = _faces(work, _W_SL + 4, f_lo, f_hi)
        rho_r = _faces(work, _W_SR, f_lo, f_hi)
        u_r = _faces(work, _W_SR + 1, f_lo, f_hi)
        v_r = _faces(work, _W_SR + 2, f_lo, f_hi)
        w_r = _faces(work, _W_SR + 3, f_lo, f_hi)
        p_r = _faces(work, _W_SR + 4, f_lo, f_hi)
        g0 = _faces(work, _W_F, f_lo, f_hi)
        g1 = _faces(work, _W_F + 1, f_lo, f_hi)
        g2 = _faces(work, _W_F + 2, f_lo, f_hi)
        g3 = _faces(work, _W_F + 3, f_lo, f_hi)
        g4 = _faces(work, _W_F + 4, f_lo, f_hi)
        if solver == SOLVER_HLLC:
            hllc(rho_l, u_l, v_l, w_l, p_l, rho_r, u_r, v_r, w_r, p_r,
                 gamma, g0, g1, g2, g3, g4)
        elif solver == SOLVER_HLL:
            hll(rho_l, u_l, v_l, w_l, p_l, rho_r, u_r, v_r, w_r, p_r,
                gamma, g0, g1, g2, g3, g4)
        else:
            two_shock(rho_l, u_l, v_l, w_l, p_l, rho_r, u_r, v_r, w_r, p_r,
                      gamma, 20, 0.0, g0, g1, g2, g3, g4)
        contact_speed(rho_l, u_l, p_l, rho_r, u_r, p_r, gamma,
                      _faces(work, _W_UFACE, f_lo, f_hi))

        # ---- internal energy advects with the mass flux -----------------
        f_rho = _slot(work, _W_F, n, mc)
        f_eint = _slot(work, _W_FEINT, n, mc)
        for i in range(lo, hi):
            for jj in range(mc):
                if f_rho[i, jj] > 0.0:
                    frac = rho[i, jj] * eint[i, jj] / rho[i, jj]
                else:
                    frac = (rho[i + 1, jj] * eint[i + 1, jj]
                            / rho[i + 1, jj])
                f_eint[i, jj] = f_rho[i, jj] * frac

        # ---- scaled interior-face fluxes, final layout ------------------
        for k in range(6):
            fk = _slot(work, _W_FEINT if k == 5 else _W_F + k, n, mc)
            out = flux[k]
            for i in range(lo, hi):
                for jj in range(mc):
                    if cols[1, jj] >= 0:
                        out[cols[1, jj] + (i - lo) * fs] = fscale * fk[i, jj]

        # ---- conservative update of the interior band -------------------
        f_mu = _slot(work, _W_F + 1, n, mc)
        f_mv = _slot(work, _W_F + 2, n, mc)
        f_mw = _slot(work, _W_F + 3, n, mc)
        f_e = _slot(work, _W_F + 4, n, mc)
        u_face = _slot(work, _W_UFACE, n, mc)
        v = _slot(work, _W_Q + 2, n, mc)
        w = _slot(work, _W_Q + 3, n, mc)
        for i in range(ng, n - ng):
            for jj in range(mc):
                r_old = rho[i, jj]
                rho_new = r_old + -dtdx * (f_rho[i, jj] - f_rho[i - 1, jj])
                if rho_new < dfloor:
                    counts[2] += 1
                rho_new = _nmax(rho_new, dfloor)
                mom_u = r_old * u[i, jj] - dtdx * (f_mu[i, jj]
                                                   - f_mu[i - 1, jj])
                mom_v = r_old * v[i, jj] - dtdx * (f_mv[i, jj]
                                                   - f_mv[i - 1, jj])
                mom_w = r_old * w[i, jj] - dtdx * (f_mw[i, jj]
                                                   - f_mw[i - 1, jj])
                etot_new = r_old * etot[i, jj] - dtdx * (f_e[i, jj]
                                                         - f_e[i - 1, jj])
                # advection + pdV work with the interface velocities
                eint_new = (r_old * eint[i, jj]
                            - dtdx * (f_eint[i, jj] - f_eint[i - 1, jj])
                            - p[i, jj] * dtdx * (u_face[i, jj]
                                                 - u_face[i - 1, jj]))
                if eint_new < eint_floor:
                    counts[3] += 1
                eint_new = _nmax(eint_new, eint_floor)
                etot_spec = etot_new / rho_new
                if etot_spec < efloor:
                    counts[4] += 1
                g = cols[0, jj] + i * s
                q[0][g] = rho_new
                q[1][g] = mom_u / rho_new
                q[2][g] = mom_v / rho_new
                q[3][g] = mom_w / rho_new
                q[4][g] = _nmax(etot_spec, efloor)
                q[5][g] = eint_new / rho_new

        # ---- advected fields ride the mass flux -------------------------
        f_adv = _slot(work, _W_FADV, n, mc)
        for k in range(6, len(q)):
            src = q[k]
            out = flux[k]
            for i in range(lo, hi):
                for jj in range(mc):
                    g = cols[0, jj] + i * s
                    if f_rho[i, jj] > 0.0:
                        frac = src[g] / rho[i, jj]
                    else:
                        frac = src[g + s] / rho[i + 1, jj]
                    f_adv[i, jj] = f_rho[i, jj] * frac
                    if cols[1, jj] >= 0:
                        out[cols[1, jj] + (i - lo) * fs] = (
                            fscale * f_adv[i, jj])
            for i in range(ng, n - ng):
                for jj in range(mc):
                    g = cols[0, jj] + i * s
                    src[g] = _nmax(
                        src[g] - dtdx * (f_adv[i, jj] - f_adv[i - 1, jj]),
                        0.0)
