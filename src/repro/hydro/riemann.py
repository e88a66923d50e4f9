"""Riemann solvers: HLLC / HLL production fluxes and an exact reference.

States are primitive tuples of ndarrays ``(rho, u, v, w, p)`` with ``u`` the
velocity normal to the face and ``v, w`` passive transverse components.
Fluxes are returned for the conserved vector
``(rho, rho*u, rho*v, rho*w, rho*E)``.

The exact solver (Toro 1999, Ch. 4) is used by the test-suite as ground
truth for the Sod problem and by the two-shock initial guess.
"""

from __future__ import annotations

import numpy as np

from repro.kernels import dispatch as _kernels


class RiemannInputError(FloatingPointError):
    """Interface states handed to a Riemann solver are unusable.

    Structured failure signal for the defense ladder: names which primitive
    went bad (non-finite, or non-positive density/pressure) so an escalation
    event can say *what* broke, not just that a NaN appeared downstream.
    """

    def __init__(self, bad: dict):
        self.bad = dict(bad)
        detail = ", ".join(f"{k}: {v} cells" for k, v in self.bad.items())
        super().__init__(f"invalid Riemann input states ({detail})")


def validate_states(left, right) -> dict:
    """Count invalid face states per primitive; empty dict means healthy.

    Used by the defense ladder's diagnosis step (not on the hot path): the
    returned mapping counts faces with non-finite entries, plus faces with
    non-positive density or pressure.
    """
    bad: dict = {}
    names = ("rho", "u", "v", "w", "p")
    for side, states in (("L", left), ("R", right)):
        for name, arr in zip(names, states):
            n = int(np.count_nonzero(~np.isfinite(arr)))
            if n:
                bad[f"{side}.{name}.nonfinite"] = n
        for name, arr in (("rho", states[0]), ("p", states[4])):
            n = int(np.count_nonzero(np.asarray(arr) <= 0.0))
            if n:
                bad[f"{side}.{name}.nonpositive"] = n
    return bad


def check_states(left, right) -> None:
    """Raise :class:`RiemannInputError` if the face states are invalid."""
    bad = validate_states(left, right)
    if bad:
        raise RiemannInputError(bad)


def _conserved_flux(rho, u, v, w, p, gamma):
    """Physical Euler flux of the conserved vector given primitives."""
    e_total = p / ((gamma - 1.0) * rho) + 0.5 * (u * u + v * v + w * w)
    return (
        rho * u,
        rho * u * u + p,
        rho * u * v,
        rho * u * w,
        u * (rho * e_total + p),
    )


def _wave_speed_estimates(rho_l, u_l, p_l, rho_r, u_r, p_r, gamma):
    """Roe-averaged wave-speed estimates (Einfeldt), robust for strong shocks."""
    cl = np.sqrt(gamma * p_l / rho_l)
    cr = np.sqrt(gamma * p_r / rho_r)
    sqrt_l = np.sqrt(rho_l)
    sqrt_r = np.sqrt(rho_r)
    u_roe = (sqrt_l * u_l + sqrt_r * u_r) / (sqrt_l + sqrt_r)
    h_l = (gamma * p_l / ((gamma - 1.0) * rho_l)) + 0.5 * u_l * u_l
    h_r = (gamma * p_r / ((gamma - 1.0) * rho_r)) + 0.5 * u_r * u_r
    h_roe = (sqrt_l * h_l + sqrt_r * h_r) / (sqrt_l + sqrt_r)
    c_roe = np.sqrt(np.maximum((gamma - 1.0) * (h_roe - 0.5 * u_roe * u_roe), 1e-300))
    s_l = np.minimum(u_l - cl, u_roe - c_roe)
    s_r = np.maximum(u_r + cr, u_roe + c_roe)
    return s_l, s_r


def hll_flux(left, right, gamma):
    """HLL two-wave flux (very diffusive at contacts; used as fallback)."""
    rho_l, u_l, v_l, w_l, p_l = left
    rho_r, u_r, v_r, w_r, p_r = right
    s_l, s_r = _wave_speed_estimates(rho_l, u_l, p_l, rho_r, u_r, p_r, gamma)
    f_l = _conserved_flux(rho_l, u_l, v_l, w_l, p_l, gamma)
    f_r = _conserved_flux(rho_r, u_r, v_r, w_r, p_r, gamma)
    e_l = p_l / ((gamma - 1.0) * rho_l) + 0.5 * (u_l**2 + v_l**2 + w_l**2)
    e_r = p_r / ((gamma - 1.0) * rho_r) + 0.5 * (u_r**2 + v_r**2 + w_r**2)
    cons_l = (rho_l, rho_l * u_l, rho_l * v_l, rho_l * w_l, rho_l * e_l)
    cons_r = (rho_r, rho_r * u_r, rho_r * v_r, rho_r * w_r, rho_r * e_r)
    denom = s_r - s_l
    out = []
    for fl, fr, cl_, cr_ in zip(f_l, f_r, cons_l, cons_r):
        f_star = (s_r * fl - s_l * fr + s_l * s_r * (cr_ - cl_)) / denom
        out.append(np.where(s_l >= 0.0, fl, np.where(s_r <= 0.0, fr, f_star)))
    return tuple(out)


def hllc_flux(left, right, gamma):
    """HLLC three-wave flux (Toro, Spruce & Speares 1994).

    Restores the contact wave that plain HLL smears — important for the
    paper's problem, where cold dense infall rides on contact-separated
    structure.
    """
    rho_l, u_l, v_l, w_l, p_l = left
    rho_r, u_r, v_r, w_r, p_r = right
    s_l, s_r = _wave_speed_estimates(rho_l, u_l, p_l, rho_r, u_r, p_r, gamma)

    # contact wave speed (clamped to the fan: degenerate floored states can
    # otherwise push it out of [s_l, s_r] and poison the star fluxes)
    num = p_r - p_l + rho_l * u_l * (s_l - u_l) - rho_r * u_r * (s_r - u_r)
    den = rho_l * (s_l - u_l) - rho_r * (s_r - u_r)
    s_m = num / np.where(np.abs(den) < 1e-300, 1e-300, den)
    s_m = np.clip(s_m, s_l, s_r)

    f_l = _conserved_flux(rho_l, u_l, v_l, w_l, p_l, gamma)
    f_r = _conserved_flux(rho_r, u_r, v_r, w_r, p_r, gamma)

    def star_flux(rho, u, v, w, p, s, f):
        e_total = p / ((gamma - 1.0) * rho) + 0.5 * (u * u + v * v + w * w)
        cons = (rho, rho * u, rho * v, rho * w, rho * e_total)
        factor = rho * (s - u) / np.where(np.abs(s - s_m) < 1e-300, 1e-300, s - s_m)
        # s -> u happens for vanishing sound speed; the pressure term is
        # then multiplied by factor -> 0, so zero it rather than let inf*0
        # poison the flux
        su = s - u
        p_term = np.where(np.abs(su) > 1e-300, p / (rho * np.where(su == 0, 1.0, su)), 0.0)
        cons_star = (
            factor,
            factor * s_m,
            factor * v,
            factor * w,
            factor * (e_total + (s_m - u) * (s_m + p_term)),
        )
        return tuple(fc + s * (cs - c) for fc, cs, c in zip(f, cons_star, cons))

    f_star_l = star_flux(rho_l, u_l, v_l, w_l, p_l, s_l, f_l)
    f_star_r = star_flux(rho_r, u_r, v_r, w_r, p_r, s_r, f_r)

    out = []
    for fl, fsl, fsr, fr in zip(f_l, f_star_l, f_star_r, f_r):
        f = np.where(
            s_l >= 0.0,
            fl,
            np.where(s_m >= 0.0, fsl, np.where(s_r >= 0.0, fsr, fr)),
        )
        out.append(f)
    return tuple(out)


def two_shock_flux(left, right, gamma, iterations: int = 20):
    """Two-shock approximate Riemann solver (Colella 1982) — the solver the
    paper's PPM implementation used.

    Both nonlinear waves are treated as shocks; the star pressure is found
    by Newton iteration on the Lagrangian shock-speed relations

        W_K = sqrt(rho_K * ((gamma+1)/2 p* + (gamma-1)/2 p_K)),
        u*_L(p*) = u_L - (p* - p_L)/W_L = u_R + (p* - p_R)/W_R = u*_R.

    The interface state at x/t = 0 is then sampled from the two-shock wave
    structure and converted to a flux.  For rarefactions this slightly
    overestimates the wave speed (it is exact for shocks), which is why it
    pairs well with PPM's compressive reconstruction.

    The Newton loop exits once every face is an exact fixed point: the
    floored update ``p_new`` equals ``p_star``.  Iterating a fixed point
    re-derives the same value, so the exit is bitwise identical to running
    all ``iterations``.
    """
    rho_l, u_l, v_l, w_l, p_l = (np.asarray(x, dtype=float) for x in left)
    rho_r, u_r, v_r, w_r, p_r = (np.asarray(x, dtype=float) for x in right)
    gp = 0.5 * (gamma + 1.0)
    gm = 0.5 * (gamma - 1.0)

    p_star = np.maximum(0.5 * (p_l + p_r), 1e-300)
    for _ in range(iterations):
        w_lft = np.sqrt(rho_l * (gp * p_star + gm * p_l))
        w_rgt = np.sqrt(rho_r * (gp * p_star + gm * p_r))
        us_l = u_l - (p_star - p_l) / w_lft
        us_r = u_r + (p_star - p_r) / w_rgt
        # d(us_l)/dp ~ -1/W_l * (1 - (p*-p_l) gp rho_l / (2 W_l^2)) etc.;
        # the classic secant-like update uses the W's directly:
        dp = (us_l - us_r) * (w_lft * w_rgt) / (w_lft + w_rgt)
        p_new = np.maximum(p_star + dp, 1e-300)
        if np.array_equal(p_new, p_star):
            break
        p_star = p_new
    w_lft = np.sqrt(rho_l * (gp * p_star + gm * p_l))
    w_rgt = np.sqrt(rho_r * (gp * p_star + gm * p_r))
    u_star = 0.5 * (u_l - (p_star - p_l) / w_lft + u_r + (p_star - p_r) / w_rgt)

    # post-shock densities from the jump conditions
    rho_sl = rho_l / (1.0 - rho_l * (p_star - p_l) / np.maximum(w_lft**2, 1e-300))
    rho_sr = rho_r / (1.0 - rho_r * (p_star - p_r) / np.maximum(w_rgt**2, 1e-300))
    rho_sl = np.maximum(rho_sl, 1e-12)
    rho_sr = np.maximum(rho_sr, 1e-12)

    # wave speeds for sampling at x/t = 0
    s_l = u_l - w_lft / rho_l
    s_r = u_r + w_rgt / rho_r

    left_of_contact = u_star >= 0.0
    # pick the state at the interface
    rho_i = np.where(
        left_of_contact,
        np.where(s_l >= 0.0, rho_l, rho_sl),
        np.where(s_r <= 0.0, rho_r, rho_sr),
    )
    u_i = np.where(
        left_of_contact,
        np.where(s_l >= 0.0, u_l, u_star),
        np.where(s_r <= 0.0, u_r, u_star),
    )
    p_i = np.where(
        left_of_contact,
        np.where(s_l >= 0.0, p_l, p_star),
        np.where(s_r <= 0.0, p_r, p_star),
    )
    v_i = np.where(left_of_contact, v_l, v_r)
    w_i = np.where(left_of_contact, w_l, w_r)
    return _conserved_flux(rho_i, u_i, v_i, w_i, p_i, gamma)


def solve_flux(left, right, gamma, method: str = "hllc"):
    """Face flux via the active kernel backend (see repro.kernels)."""
    if method in ("hllc", "hll", "two_shock"):
        return _kernels.get("riemann." + method)(left, right, gamma)
    raise ValueError(f"unknown riemann solver '{method}'")


# --------------------------------------------------------------------------
# exact solver (test reference)
# --------------------------------------------------------------------------


def _pressure_function(p, rho_k, p_k, c_k, gamma):
    """Toro's f_K(p) and derivative for shock (p > p_k) or rarefaction."""
    g1 = (gamma - 1.0) / (2.0 * gamma)
    g2 = (gamma + 1.0) / (2.0 * gamma)
    shock = p > p_k
    a_k = 2.0 / ((gamma + 1.0) * rho_k)
    b_k = (gamma - 1.0) / (gamma + 1.0) * p_k
    f_shock = (p - p_k) * np.sqrt(a_k / (p + b_k))
    df_shock = np.sqrt(a_k / (b_k + p)) * (1.0 - 0.5 * (p - p_k) / (b_k + p))
    with np.errstate(invalid="ignore"):
        pr = np.maximum(p / p_k, 1e-300)
        f_rare = 2.0 * c_k / (gamma - 1.0) * (pr**g1 - 1.0)
        df_rare = 1.0 / (rho_k * c_k) * pr**-g2
    return np.where(shock, f_shock, f_rare), np.where(shock, df_shock, df_rare)


def exact_riemann(left, right, gamma, xi):
    """Exact solution of the 1-d Riemann problem sampled at xi = x/t.

    ``left``/``right`` are (rho, u, p) scalars; ``xi`` may be an ndarray.
    Returns (rho, u, p) arrays.  Vacuum-generating data raise ValueError.
    """
    rho_l, u_l, p_l = (float(x) for x in left)
    rho_r, u_r, p_r = (float(x) for x in right)
    c_l = np.sqrt(gamma * p_l / rho_l)
    c_r = np.sqrt(gamma * p_r / rho_r)
    if 2.0 * (c_l + c_r) / (gamma - 1.0) <= u_r - u_l:
        raise ValueError("initial data generate vacuum")

    # Newton for star pressure
    p = max(0.5 * (p_l + p_r), 1e-8)
    for _ in range(60):
        f_l, df_l = _pressure_function(np.float64(p), rho_l, p_l, c_l, gamma)
        f_r, df_r = _pressure_function(np.float64(p), rho_r, p_r, c_r, gamma)
        f = f_l + f_r + (u_r - u_l)
        p_new = p - f / (df_l + df_r)
        p_new = max(float(p_new), 1e-14)
        if abs(p_new - p) < 1e-14 * p:
            p = p_new
            break
        p = p_new
    p_star = p
    f_l, _ = _pressure_function(np.float64(p_star), rho_l, p_l, c_l, gamma)
    f_r, _ = _pressure_function(np.float64(p_star), rho_r, p_r, c_r, gamma)
    u_star = 0.5 * (u_l + u_r) + 0.5 * (float(f_r) - float(f_l))

    xi = np.asarray(xi, dtype=float)
    rho = np.empty_like(xi)
    u = np.empty_like(xi)
    pr = np.empty_like(xi)

    gm1, gp1 = gamma - 1.0, gamma + 1.0

    left_side = xi <= u_star
    # --- left of contact ---
    if p_star > p_l:  # left shock
        rho_sl = rho_l * ((p_star / p_l + gm1 / gp1) / (gm1 / gp1 * p_star / p_l + 1.0))
        s_l = u_l - c_l * np.sqrt((gp1 * p_star / p_l + gm1) / (2.0 * gamma))
        pre = xi < s_l
        rho[left_side] = np.where(pre[left_side], rho_l, rho_sl)
        u[left_side] = np.where(pre[left_side], u_l, u_star)
        pr[left_side] = np.where(pre[left_side], p_l, p_star)
    else:  # left rarefaction
        c_sl = c_l * (p_star / p_l) ** (gm1 / (2.0 * gamma))
        head, tail = u_l - c_l, u_star - c_sl
        inside = (xi >= head) & (xi <= tail)
        c_fan = (2.0 / gp1) * (c_l + 0.5 * gm1 * (u_l - xi))
        u_fan = (2.0 / gp1) * (c_l + 0.5 * gm1 * u_l + xi)
        rho_fan = rho_l * (c_fan / c_l) ** (2.0 / gm1)
        p_fan = p_l * (c_fan / c_l) ** (2.0 * gamma / gm1)
        rho_sl = rho_l * (p_star / p_l) ** (1.0 / gamma)
        sel = left_side
        rho[sel] = np.where(
            xi[sel] < head, rho_l, np.where(inside[sel], rho_fan[sel], rho_sl)
        )
        u[sel] = np.where(xi[sel] < head, u_l, np.where(inside[sel], u_fan[sel], u_star))
        pr[sel] = np.where(xi[sel] < head, p_l, np.where(inside[sel], p_fan[sel], p_star))

    right_side = ~left_side
    # --- right of contact ---
    if p_star > p_r:  # right shock
        rho_sr = rho_r * ((p_star / p_r + gm1 / gp1) / (gm1 / gp1 * p_star / p_r + 1.0))
        s_r = u_r + c_r * np.sqrt((gp1 * p_star / p_r + gm1) / (2.0 * gamma))
        post = xi > s_r
        rho[right_side] = np.where(post[right_side], rho_r, rho_sr)
        u[right_side] = np.where(post[right_side], u_r, u_star)
        pr[right_side] = np.where(post[right_side], p_r, p_star)
    else:  # right rarefaction
        c_sr = c_r * (p_star / p_r) ** (gm1 / (2.0 * gamma))
        head, tail = u_r + c_r, u_star + c_sr
        inside = (xi <= head) & (xi >= tail)
        c_fan = (2.0 / gp1) * (c_r - 0.5 * gm1 * (u_r - xi))
        u_fan = (2.0 / gp1) * (-c_r + 0.5 * gm1 * u_r + xi)
        rho_fan = rho_r * (c_fan / c_r) ** (2.0 / gm1)
        p_fan = p_r * (c_fan / c_r) ** (2.0 * gamma / gm1)
        rho_sr = rho_r * (p_star / p_r) ** (1.0 / gamma)
        sel = right_side
        rho[sel] = np.where(
            xi[sel] > head, rho_r, np.where(inside[sel], rho_fan[sel], rho_sr)
        )
        u[sel] = np.where(xi[sel] > head, u_r, np.where(inside[sel], u_fan[sel], u_star))
        pr[sel] = np.where(xi[sel] > head, p_r, np.where(inside[sel], p_fan[sel], p_star))

    return rho, u, pr
