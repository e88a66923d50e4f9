"""Reaction-rate coefficients for the primordial network.

"We have tediously selected the dominant reactions and collected the most
accurate reaction rates available [Abel et al. 1997]." (paper Sec. 2.2)

The fits below are the standard ones from that literature lineage — Cen
(1992) / Black (1981) for the H/He collisional ionisation & recombination
system, Shapiro & Kang (1987), Karpas et al. (1979) and Galli & Palla
(1998) for the H2 formation/destruction channels, Palla, Salpeter &
Stahler (1983) for three-body H2 formation (the process the paper singles
out as driving the final collapse), and Galli & Palla (1998) for the
deuterium network.  Where a modern fit differs from the exact Abel et al.
table the discrepancy is a factor <~2, which shifts collapse *timing*
slightly but none of the qualitative behaviour the paper reports.

All two-body rates are cm^3 s^-1; three-body rates cm^6 s^-1; temperatures
in K.  Every function is vectorised over T.

Tabulated evaluation (the production Enzo approach, Bryan et al. 2014)
-----------------------------------------------------------------------
``RateTable(mode="tabulated")`` — the default — precomputes ln(coefficient)
for every rate *and* every cooling channel (:data:`repro.chemistry.cooling.
COOLING_CHANNELS`) on a log-spaced log-T grid at construction, so one call
costs a single shared table lookup (index + weight from the uniform log-T
spacing, exactly what ``searchsorted`` would return) plus one vectorised
linear interpolation and one ``exp`` over the whole channel block, instead
of ~25 transcendental kernel evaluations.  Tables are cached per
``(n_bins, t_min, t_max)`` configuration, and construction runs an
accuracy guard: interpolated values must match the analytic fits to
``rtol`` at every bin midpoint across the full temperature range.

The two piecewise fits (k9's 6700 K branch switch, k14's 0.04 eV
threshold) are tabulated as separate smooth branches and the ``where`` is
applied at evaluation time, so the tables never interpolate across a
discontinuity.  ``mode="analytic"`` falls back to direct evaluation of the
fits (bitwise the seed behaviour).
"""

from __future__ import annotations

import numpy as np

from repro.chemistry import cooling as _cooling
from repro.kernels import dispatch as _kernels

#: validity range of the analytic fits; inputs are clipped into it (and
#: the tabulated grid spans exactly this range).
T_MIN = 1.0
T_MAX = 1e9

#: log-floor for the tables.  Must stay above the smallest *normal* double
#: (~2.2e-308): a lower floor makes ``exp`` of the blended table produce
#: denormals, which cost a ~40x microcode-assist penalty per element on
#: x86 and dominate the whole lookup.  1e-300 is still "zero" for any rate.
_LOG_FLOOR = 1e-300


def _clip_T(T):
    return np.clip(np.asarray(T, dtype=float), T_MIN, T_MAX)


class RateTable:
    """Evaluate all rate coefficients at an array of temperatures.

    Calling ``RateTable()(T)`` returns a dict name -> ndarray.  Individual
    rates are exposed as static methods for unit testing.

    Parameters
    ----------
    mode:
        ``"tabulated"`` (default) interpolates precomputed log-T tables;
        ``"analytic"`` evaluates the fits directly (the fallback mode).
    n_bins:
        Table resolution.  8192 log-spaced knots over [1, 1e9] K bound the
        interpolation error of the steepest Boltzmann factors (curvature
        of ln k <= ~700 where the rate is representable) below 1e-3.
    rtol:
        Accuracy guard: construction fails if any tabulated channel
        deviates from its analytic fit by more than this relative
        tolerance at any bin midpoint.
    """

    # --- hydrogen / helium ionisation balance (Cen 1992; Black 1981) -------
    @staticmethod
    def k1_HI_ionisation(T):
        """H + e -> H+ + 2e"""
        T = _clip_T(T)
        return (
            5.85e-11 * np.sqrt(T) * np.exp(-157809.1 / T) / (1.0 + np.sqrt(T / 1e5))
        )

    @staticmethod
    def k2_HII_recombination(T):
        """H+ + e -> H + photon (case B-like fit)"""
        T = _clip_T(T)
        return (
            8.4e-11
            / np.sqrt(T)
            * (T / 1e3) ** -0.2
            / (1.0 + (T / 1e6) ** 0.7)
        )

    @staticmethod
    def k3_HeI_ionisation(T):
        """He + e -> He+ + 2e"""
        T = _clip_T(T)
        return (
            2.38e-11 * np.sqrt(T) * np.exp(-285335.4 / T) / (1.0 + np.sqrt(T / 1e5))
        )

    @staticmethod
    def k4_HeII_recombination(T):
        """He+ + e -> He (radiative + dielectronic)"""
        T = _clip_T(T)
        radiative = 1.5e-10 * T**-0.6353
        dielectronic = (
            1.9e-3
            * T**-1.5
            * np.exp(-470000.0 / T)
            * (1.0 + 0.3 * np.exp(-94000.0 / T))
        )
        return radiative + dielectronic

    @staticmethod
    def k5_HeII_ionisation(T):
        """He+ + e -> He++ + 2e"""
        T = _clip_T(T)
        return (
            5.68e-12 * np.sqrt(T) * np.exp(-631515.0 / T) / (1.0 + np.sqrt(T / 1e5))
        )

    @staticmethod
    def k6_HeIII_recombination(T):
        """He++ + e -> He+"""
        T = _clip_T(T)
        return (
            3.36e-10
            / np.sqrt(T)
            * (T / 1e3) ** -0.2
            / (1.0 + (T / 1e6) ** 0.7)
        )

    # --- H2 formation via H- and H2+ ----------------------------------------
    @staticmethod
    def k7_HM_formation(T):
        """H + e -> H- + photon (Galli & Palla 1998)"""
        T = _clip_T(T)
        return 1.4e-18 * T**0.928 * np.exp(-T / 16200.0)

    @staticmethod
    def k8_H2_from_HM(T):
        """H- + H -> H2 + e (associative detachment)"""
        T = _clip_T(T)
        # weak T dependence; 1.3e-9 is the classic value near 100-1000 K
        return 1.3e-9 * (T / 300.0) ** 0.0 + 0.0 * T

    @staticmethod
    def k9_H2II_formation(T):
        """H + H+ -> H2+ + photon (Shapiro & Kang 1987)"""
        T = _clip_T(T)
        return np.where(T < 6700.0, _k9_low(T), _k9_high(T))

    @staticmethod
    def k10_H2_from_H2II(T):
        """H2+ + H -> H2 + H+ (Karpas et al. 1979)"""
        T = _clip_T(T)
        return 6.0e-10 + 0.0 * T

    # --- H2 destruction -------------------------------------------------------
    @staticmethod
    def k11_H2_HII_exchange(T):
        """H2 + H+ -> H2+ + H (Shapiro & Kang 1987)"""
        T = _clip_T(T)
        return 3.0e-10 * np.exp(-21050.0 / T)

    @staticmethod
    def k12_H2_e_dissociation(T):
        """H2 + e -> 2H + e"""
        T = _clip_T(T)
        return 4.38e-10 * T**0.35 * np.exp(-102000.0 / T)

    @staticmethod
    def k13_H2_H_dissociation(T):
        """H2 + H -> 3H (collisional dissociation, low-density limit;
        Dove & Mandy 1986 fit in eV as used by Abel et al. 1997)"""
        T = _clip_T(T)
        t_ev = T / 11604.5
        return (
            1.067e-10
            * t_ev**2.012
            * np.exp(-4.463 / t_ev)
            / (1.0 + 0.2472 * t_ev) ** 3.512
        )

    # --- H- / H2+ minor channels ---------------------------------------------
    @staticmethod
    def k14_HM_e_detachment(T):
        """H- + e -> H + 2e (approximate Janev-type fit)"""
        T = _clip_T(T)
        t_ev = T / 11604.5
        return np.where(t_ev > 0.04, _k14_branch(T), 0.0)

    @staticmethod
    def k16_HM_HII_neutralisation(T):
        """H- + H+ -> 2H (mutual neutralisation; Croft et al. 1999 scale)"""
        T = _clip_T(T)
        return 2.4e-6 / np.sqrt(T) * (1.0 + T / 20000.0)

    @staticmethod
    def k18_H2II_e_recombination(T):
        """H2+ + e -> 2H (dissociative recombination; Galli & Palla 1998)"""
        T = _clip_T(T)
        return 2.0e-7 / np.sqrt(T) * 1e2**0.0

    # --- three-body H2 formation (drives the final collapse; paper Sec. 4) ---
    @staticmethod
    def k22_threebody_H2(T):
        """3H -> H2 + H (Palla, Salpeter & Stahler 1983), cm^6/s"""
        T = _clip_T(T)
        return 5.5e-29 / T

    @staticmethod
    def k23_threebody_H2_with_H2(T):
        """2H + H2 -> 2 H2 (PSS83 / 8), cm^6/s"""
        T = _clip_T(T)
        return 5.5e-29 / (8.0 * T)

    # --- deuterium network (Galli & Palla 1998) ---------------------------------
    @staticmethod
    def d1_DII_recombination(T):
        """D+ + e -> D (same as hydrogen to excellent accuracy)"""
        return RateTable.k2_HII_recombination(T)

    @staticmethod
    def d2_D_charge_exchange(T):
        """D + H+ -> D+ + H (endothermic by 43 K)"""
        T = _clip_T(T)
        return 3.7e-10 * T**0.28 * np.exp(-43.0 / T)

    @staticmethod
    def d3_DII_charge_exchange(T):
        """D+ + H -> D + H+ (exothermic)"""
        T = _clip_T(T)
        return 3.7e-10 * T**0.28

    @staticmethod
    def d4_HD_formation(T):
        """D+ + H2 -> HD + H+"""
        T = _clip_T(T)
        return 2.1e-9 + 0.0 * T

    @staticmethod
    def d5_HD_destruction(T):
        """HD + H+ -> D+ + H2 (endothermic by 464 K)"""
        T = _clip_T(T)
        return 1.0e-9 * np.exp(-464.0 / T)

    #: names in evaluation order
    RATE_NAMES = (
        "k1", "k2", "k3", "k4", "k5", "k6", "k7", "k8", "k9", "k10",
        "k11", "k12", "k13", "k14", "k16", "k18", "k22", "k23",
        "d1", "d2", "d3", "d4", "d5",
    )

    # -------------------------------------------------------------- instance
    def __init__(self, mode: str = "tabulated", n_bins: int = 8192,
                 t_min: float = T_MIN, t_max: float = T_MAX,
                 rtol: float = 1e-3):
        if mode not in ("tabulated", "analytic"):
            raise ValueError(f"unknown RateTable mode {mode!r}")
        self.mode = mode
        self.n_bins = int(n_bins)
        self.t_min = float(t_min)
        self.t_max = float(t_max)
        self.rtol = float(rtol)
        self._tab = None
        if mode == "tabulated":
            self._ensure_table()

    def _ensure_table(self) -> "_LogTable":
        if self._tab is None:
            tab = _get_table(self.n_bins, self.t_min, self.t_max)
            if tab.max_rel_err > self.rtol:
                raise ValueError(
                    f"rate table ({self.n_bins} bins) only reaches rtol "
                    f"{tab.max_rel_err:.2e} (> {self.rtol:.1e}); raise "
                    f"n_bins or loosen rtol"
                )
            self._tab = tab
        return self._tab

    # ------------------------------------------------------------ evaluation
    def channels(self, T, cool: bool = True):
        """Evaluate all rate coefficients — and, when ``cool`` is true, all
        cooling-channel coefficients — at T in one shared table pass.

        Returns ``(rates, cooling_channels)``; the latter is ``None`` when
        ``cool`` is false.  This is the network hot path: one lookup feeds
        both the stiff solver and the thermal update of a substep.
        """
        T = _clip_T(T)
        if self.mode == "tabulated":
            ch = self._ensure_table().lookup(T)
        else:
            ch = {name: fn(T) for name, fn in _RATE_CHANNELS.items()}
            if cool:
                ch.update(_cooling.cooling_channels(T))
        rates = self._assemble_rates(T, ch)
        cool_ch = (
            {name: ch[name] for name in _cooling.COOLING_CHANNEL_NAMES}
            if cool else None
        )
        return rates, cool_ch

    def block(self, T, out=None) -> np.ndarray:
        """Every channel coefficient of :data:`CHANNEL_NAMES` at the flat
        temperatures ``T``, as one ``(channels, T.size)`` array — the input
        of the ``chem.step`` kernel, the same rows in either mode — written
        into ``out`` when given.
        """
        T = _clip_T(T).reshape(-1)
        if self.mode == "tabulated":
            return self._ensure_table()._blend(T, out)
        return np.stack([fn(T) for fn in _CHANNEL_FUNCS.values()], out=out)

    @staticmethod
    def _assemble_rates(T, ch: dict) -> dict:
        """Apply the piecewise branch switches and alias d1 = k2."""
        rates = {}
        for name in RateTable.RATE_NAMES:
            if name == "k9":
                rates["k9"] = np.where(T < 6700.0, ch["k9_low"], ch["k9_high"])
            elif name == "k14":
                rates["k14"] = np.where(T / 11604.5 > 0.04, ch["k14_branch"], 0.0)
            elif name == "d1":
                rates["d1"] = ch["k2"]
            else:
                rates[name] = ch[name]
        return rates

    def __call__(self, T) -> dict:
        rates, _ = self.channels(T, cool=False)
        return rates


# ------------------------------------------------- smooth channel functions
# The piecewise fits are split into their smooth branches here so the
# tables never straddle a discontinuity; the branch switch is re-applied
# (exactly, on the true T) in RateTable._assemble_rates.
def _k9_low(T):
    return 1.85e-23 * T**1.8


def _k9_high(T):
    logratio = np.log10(np.maximum(T, 1.0) / 56200.0)
    return 5.81e-16 * (T / 56200.0) ** (-0.6657 * logratio)


def _k14_branch(T):
    t_ev = T / 11604.5
    return np.exp(
        -18.01849334
        + 2.3608522 * np.log(np.maximum(t_ev, 1e-10))
        - 0.28274430 * np.log(np.maximum(t_ev, 1e-10)) ** 2
    )


#: tabulated rate channels (smooth everywhere on [T_MIN, T_MAX]).
_RATE_CHANNELS = {
    "k1": RateTable.k1_HI_ionisation,
    "k2": RateTable.k2_HII_recombination,
    "k3": RateTable.k3_HeI_ionisation,
    "k4": RateTable.k4_HeII_recombination,
    "k5": RateTable.k5_HeII_ionisation,
    "k6": RateTable.k6_HeIII_recombination,
    "k7": RateTable.k7_HM_formation,
    "k8": RateTable.k8_H2_from_HM,
    "k9_low": _k9_low,
    "k9_high": _k9_high,
    "k10": RateTable.k10_H2_from_H2II,
    "k11": RateTable.k11_H2_HII_exchange,
    "k12": RateTable.k12_H2_e_dissociation,
    "k13": RateTable.k13_H2_H_dissociation,
    "k14_branch": _k14_branch,
    "k16": RateTable.k16_HM_HII_neutralisation,
    "k18": RateTable.k18_H2II_e_recombination,
    "k22": RateTable.k22_threebody_H2,
    "k23": RateTable.k23_threebody_H2_with_H2,
    "d2": RateTable.d2_D_charge_exchange,
    "d3": RateTable.d3_DII_charge_exchange,
    "d4": RateTable.d4_HD_formation,
    "d5": RateTable.d5_HD_destruction,
}


#: every tabulated channel, rates then cooling: name -> fn(T).
_CHANNEL_FUNCS = {**_RATE_CHANNELS, **_cooling.COOLING_CHANNELS}

#: row order of the ``(channels, N)`` coefficient block (:meth:`RateTable.
#: block`) that ``chem.step`` consumes; the C side generates its ``channels``
#: struct from this tuple.
CHANNEL_NAMES = tuple(_CHANNEL_FUNCS)


def _index_weight(T_flat: np.ndarray, x0: float, h: float, n_bins: int):
    """Shared bin index + blend weight for a uniform log-T grid.

    Factored out of the blend so every kernel backend consumes identical
    indices/weights — the backends then only differ in who performs the
    gather + lerp.
    """
    u = (np.log(T_flat) - x0) / h
    # a non-finite T (NaN ghost cells left by a zero-density hydro update)
    # gets bin 0 explicitly: casting NaN to an integer is undefined (x86
    # happens to produce 0 after the clip, with a RuntimeWarning); its
    # weight stays non-finite, so every channel of that cell still is
    bad = ~np.isfinite(u)
    i = (np.where(bad, 0.0, u) if bad.any() else u).astype(np.intp)
    np.clip(i, 0, n_bins - 2, out=i)
    w = u - i
    return i, w


def blend_table_numpy(logtab: np.ndarray, idx: np.ndarray,
                      weight: np.ndarray, out=None) -> np.ndarray:
    """Reference gather + lerp + exp over the channel-major log table.

    This is the ``chem.blend`` entry of the NumPy kernel backend; compiled
    backends replace the gather/lerp loop but keep the same trailing
    ``np.exp`` so the tier stays bitwise-identical (SIMD vs libm ``exp``
    differ in the last ulp).  ``out`` is an optional ``(channels, idx.size)``
    float64 array to fill and return instead of a fresh one.
    """
    lo = np.take(logtab, idx, axis=1)
    out = np.take(logtab, idx + 1, axis=1, out=out)
    # out = exp(lo + w * (out - lo)), fused in place
    out -= lo
    out *= weight
    out += lo
    np.exp(out, out=out)
    return out


class _LogTable:
    """ln(coefficient) of every channel on a uniform log-T grid.

    ``lookup`` computes the shared bin index and weight once (the uniform
    spacing makes the ``searchsorted`` a single multiply-and-floor), row-
    gathers both bracketing knots for *all* channels at once, blends, and
    exponentiates the whole block in one call.
    """

    def __init__(self, n_bins: int, t_min: float, t_max: float):
        self.n_bins = int(n_bins)
        self.x0 = float(np.log(t_min))
        x1 = float(np.log(t_max))
        self.h = (x1 - self.x0) / (self.n_bins - 1)
        x = self.x0 + self.h * np.arange(self.n_bins)
        T = np.exp(x)
        funcs = _CHANNEL_FUNCS
        with np.errstate(under="ignore"):
            rows = [np.asarray(fn(T), dtype=float) for fn in funcs.values()]
        # channel-major (C, n_bins): the per-cell gather then reads one
        # contiguous 64 kB row per channel (stays L2-resident), and the
        # blended block comes out channel-contiguous with no transpose.
        self.logtab = np.log(np.maximum(np.vstack(rows), _LOG_FLOOR))
        # accuracy guard: worst relative deviation from the analytic fits
        # at every bin midpoint (the interpolation error maximum)
        mid = np.exp(x[:-1] + 0.5 * self.h)
        with np.errstate(under="ignore"):
            exact = np.vstack([np.asarray(fn(mid), dtype=float)
                               for fn in funcs.values()])
            approx = self._blend(mid)
        # relative to max(|exact|, 1e-280): coefficients below that are
        # physically zero and only differ by the table's 1e-300 floor
        err = np.abs(approx - exact) / np.maximum(np.abs(exact), 1e-280)
        self.max_rel_err = float(err.max())

    def _blend(self, T_flat: np.ndarray, out=None) -> np.ndarray:
        """Interpolated coefficients, shape (n_channels, T_flat.size)."""
        i, w = _index_weight(T_flat, self.x0, self.h, self.n_bins)
        return _kernels.get("chem.blend")(self.logtab, i, w, out)

    def lookup(self, T) -> dict:
        T = np.asarray(T, dtype=float)
        shape = T.shape
        block = self._blend(T.reshape(-1))
        return {
            name: block[j].reshape(shape)
            for j, name in enumerate(CHANNEL_NAMES)
        }


_TABLE_CACHE: dict[tuple, _LogTable] = {}


def _get_table(n_bins: int, t_min: float, t_max: float) -> _LogTable:
    key = (int(n_bins), float(t_min), float(t_max))
    tab = _TABLE_CACHE.get(key)
    if tab is None:
        tab = _TABLE_CACHE[key] = _LogTable(*key)
    return tab
