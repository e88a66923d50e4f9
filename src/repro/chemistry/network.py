"""Sub-cycled stiff solver for the 12-species network + thermal energy.

"Because the equations are stiff, we use a backward finite-difference
technique for stability, sub-cycling within a fluid timestep for additional
accuracy." (paper Sec. 3.3, the Anninos et al. 1997 method)

Implementation notes, mirroring that method:

* Species are updated sequentially with a linearised backward-Euler step,
  n_new = (n_old + dt * C) / (1 + dt * D / n) — unconditionally positive
  and stable, first-order accurate; accuracy is recovered by sub-cycling on
  the electron and thermal timescales.
* H- and H2+ have reaction timescales orders of magnitude shorter than
  everything else, so (exactly as Anninos et al.) they are set to their
  local equilibrium values each substep.
* Electrons follow from charge neutrality.
* The thermal energy is integrated alongside with a semi-implicit cooling
  update, including the 4.48 eV of chemical heat per H2 formed by the
  three-body reaction (and the matching dissociation sink) — the process
  the paper identifies as turning the core fully molecular.
"""

from __future__ import annotations

import threading

import numpy as np

from repro import constants as const
from repro import kernels
from repro.chemistry import cooling as cool_mod
from repro.chemistry.rates import CHANNEL_NAMES, T_MAX, T_MIN, RateTable
from repro.chemistry.species import SPECIES, SPECIES_NAMES, electron_density

#: H2 binding energy (erg).
H2_BINDING = 4.48 * const.ELECTRON_VOLT

#: sub-cycle fraction of a cell's limiting timescale (the Anninos et al.
#: choice), and the substep cap per call: a cell at the cap integrates its
#: remainder in one final backward-Euler step (stable, just less
#: accurate).  Both tiers of ``chem.step`` take them as arguments.
SAFETY = 0.1
MAX_SUBSTEPS = 200

#: row of neutral hydrogen in a stacked ``(12, N)`` species block.
_HI = SPECIES_NAMES.index("HI")

#: cells one slab of ``advance_fields`` holds at most: whole first-axis
#: planes, or a single plane when one plane is larger.  Every scratch array
#: and temporary of the integration is sized by the slab, not the grid; the
#: ``(channels, SLAB_CELLS)`` coefficient block is about 1.2 MB and stays
#: in L2.
SLAB_CELLS = 4096

#: per-thread reusable buffers for the two big blocks of a slab — the
#: ``(12, N)`` species state of ``advance_fields`` and the ``(channels, N)``
#: coefficient block of each iteration, 1.5 MiB together at ``SLAB_CELLS``.
#: Handing them back to the allocator after every slab would fault the same
#: pages in again each time; per thread because the exec engine's thread
#: backend advances several grids at once (the ``gravity/multigrid``
#: scratch pattern).
_SCRATCH = threading.local()


def _scratch(name: str, rows: int, n: int) -> np.ndarray:
    """This thread's ``(rows, n)`` float64 buffer ``name``, contents
    undefined; grown when a bigger slab comes along, never shrunk."""
    buf = getattr(_SCRATCH, name, None)
    if buf is None or buf.size < rows * n:
        buf = np.empty(rows * n)
        setattr(_SCRATCH, name, buf)
    return buf[:rows * n].reshape(rows, n)


def integrator_stats(counters: dict) -> dict:
    """The integrator diagnostics of an advance from the integer counters
    :meth:`ChemistryNetwork.advance_stacked` returns, or from their sum over
    the slabs of a grid.  Every iteration advances each cell still in
    flight by one substep, so the active cell-iterations are
    ``substeps_total`` and the mean active fraction is
    ``substeps_total / (iterations * cells)``."""
    cells, iterations = counters["cells"], counters["iterations"]
    return {**counters, "active_fraction_mean": (
        float(counters["substeps_total"]) / (iterations * cells)
        if iterations and cells else 0.0)}


def primordial_initial_fractions(
    x_e: float = 2e-4, f_h2: float = 2e-6
) -> dict[str, float]:
    """Post-recombination freeze-out mass fractions of the 12 species.

    ``x_e``: residual ionised-H fraction (by H nuclei), ``f_h2``: molecular
    mass fraction of hydrogen.  These are the standard freeze-out values the
    calculation starts from (z ~ 100).
    """
    xh = const.HYDROGEN_MASS_FRACTION
    xhe = const.HELIUM_MASS_FRACTION
    d_by_h = const.DEUTERIUM_TO_HYDROGEN
    fractions = {
        "HII": xh * x_e,
        "H2I": xh * f_h2,
        "H2II": xh * 1e-12,
        "HM": xh * 1e-12,
        "HeI": xhe,
        "HeII": 0.0,
        "HeIII": 0.0,
        "DI": xh * d_by_h * 2.0 * (1.0 - x_e),
        "DII": xh * d_by_h * 2.0 * x_e,
        "HDI": xh * d_by_h * 3.0 * f_h2,
    }
    # the deuterium budget comes out of the hydrogen mass fraction so the
    # twelve species sum exactly to the gas density
    fractions["HI"] = (
        xh
        - fractions["HII"]
        - fractions["HM"]
        - fractions["H2I"]
        - fractions["H2II"]
        - fractions["DI"]
        - fractions["DII"]
        - fractions["HDI"]
    )
    # electron mass density from charge neutrality
    n_frac = {s: fractions.get(s, 0.0) / SPECIES[s].mass_amu for s in SPECIES_NAMES if s != "de"}
    ne = (
        n_frac["HII"] + n_frac["HeII"] + 2 * n_frac["HeIII"] + n_frac["H2II"]
        + n_frac["DII"] - n_frac["HM"]
    )
    fractions["de"] = ne * SPECIES["de"].mass_amu
    return fractions


class ChemistryNetwork:
    """Vectorised network + cooling integrator: the one primordial network
    the paper runs, three-body H2 formation with its heat, the CMB floor
    (the temperature never radiates below T_cmb(z), the floor the paper's
    Compton term enforces) and nuclei renormalisation always on.

    Parameters
    ----------
    rates:
        A :class:`RateTable` (``RateTable(mode="analytic")`` is the
        reference the tabulated default is checked against).

    The network holds no state but ``rates``, so one instance is shared by
    every grid the exec threads advance at once.
    """

    def __init__(self, rates: RateTable | None = None):
        self.rates = rates or RateTable()

    # ----------------------------------------------------------------- helpers
    @staticmethod
    def temperature(n: dict, e_specific: np.ndarray, rho: np.ndarray) -> np.ndarray:
        """T from specific internal energy (erg/g), gamma=5/3 gas of the mix."""
        n_tot = sum(n[s] for s in SPECIES_NAMES)
        n_tot = np.maximum(n_tot, 1e-300)
        # e * rho = (3/2) n_tot k T
        return np.maximum(
            (2.0 / 3.0) * e_specific * rho / (n_tot * const.BOLTZMANN_CONSTANT), 1.0
        )

    @staticmethod
    def energy_from_temperature(n: dict, T, rho) -> np.ndarray:
        n_tot = sum(n[s] for s in SPECIES_NAMES)
        return 1.5 * n_tot * const.BOLTZMANN_CONSTANT * np.asarray(T) / np.maximum(rho, 1e-300)

    # ------------------------------------------------------------------- core
    def advance(self, n: dict, e_specific: np.ndarray, rho: np.ndarray,
                dt: float, z: float = 0.0):
        """Advance number densities (cm^-3) and specific energy (erg/g) by dt (s).

        Arrays may be any (matching, broadcastable) shape; everything is
        elementwise.  Returns the updated (n, e_specific); inputs are not
        mutated.
        """
        arrs = [np.asarray(n[s], dtype=float) for s in SPECIES_NAMES]
        e_in = np.asarray(e_specific, dtype=float)
        rho_in = np.asarray(rho, dtype=float)
        shape = np.broadcast_shapes(
            e_in.shape, rho_in.shape, *(a.shape for a in arrs)
        )
        # one stacked, flat, writable copy of the broadcast inputs
        stacked = np.empty((len(SPECIES_NAMES) + 2,) + shape)
        for i, a in enumerate((*arrs, e_in, rho_in)):
            stacked[i] = a
        flat = stacked.reshape(len(stacked), int(np.prod(shape)))
        state, ef, rf = flat[:-2], flat[-2], flat[-1]
        self.advance_stacked(state, ef, rf, dt, z)
        n_out = {s: row.reshape(shape) for s, row in zip(SPECIES_NAMES, state)}
        return n_out, ef.reshape(shape)

    def advance_stacked(self, state: np.ndarray, e: np.ndarray,
                        rho: np.ndarray, dt: float, z: float = 0.0) -> dict:
        """Advance a ``(12, N)`` species block (rows in ``SPECIES_NAMES``
        order, cm^-3) and its ``(N,)`` specific energy in place by dt (s);
        returns the integer counters ``cells``, ``substeps_total``,
        ``substeps_max`` and ``iterations`` (see :func:`integrator_stats`).

        Active-set integration: every cell carries its own elapsed time and
        its own ``dt_sub`` from its *local* cooling and electron timescales
        (the Anninos et al. controls), instead of the single grid-global
        minimum that would force the whole grid to subcycle at the worst
        cell's pace.  After each substep the active index set is compacted
        so finished cells are never touched again.  One iteration is one
        shared table pass (``RateTable.block``: ``np.log``, the compiled
        blend, ``np.exp``) and one ``chem.step`` kernel call that does
        everything else for the cells still in flight and hands back their
        new temperature.  Because every cell's trajectory depends only on
        its own state, results are bitwise identical to advancing each cell
        on its own.
        """
        n_cells = e.size
        dt = float(dt)
        rows = dict(zip(SPECIES_NAMES, state))
        # conserved nuclei budgets (the sequential backward-Euler update is
        # only conservative to O(dt^2 * rate); Enzo renormalises the species
        # against the density field — we do the same per element)
        budgets = np.stack(nuclei_budgets(rows))

        # all loop state is local: this may run concurrently on many
        # grids under the execution engine's thread backend, so nothing
        # mutable lives on the (shared) network object
        t_done = np.zeros(n_cells)
        counts = np.zeros(n_cells, dtype=np.int64)
        active = np.arange(n_cells, dtype=np.intp)
        iterations = 0
        # a cell is done once it has covered dt to rounding accuracy
        target = dt * (1.0 - 1e-12)
        if dt > 0.0 and n_cells:
            step = kernels.get("chem.step")
            T = self.temperature(rows, e, rho)
        while dt > 0.0 and active.size:
            # hi**3 is np.power, which (unlike the square) is not correctly
            # rounded: it is evaluated here, once, for every tier
            cube = state[_HI][active] ** 3
            block = self.rates.block(
                T, out=_scratch("block", len(CHANNEL_NAMES), active.size))
            step(state, e, rho, budgets, t_done, counts, active, T, cube,
                 block, dt, z, SAFETY, MAX_SUBSTEPS)
            iterations += 1
            keep = t_done[active] < target
            active = active[keep]
            T = T[keep]

        return {"cells": int(n_cells), "substeps_total": int(counts.sum()),
                "substeps_max": int(counts.max()) if n_cells else 0,
                "iterations": iterations}

    @staticmethod
    def _renormalise(n: dict, h0, he0, d0) -> None:
        """Rescale species so elemental nuclei budgets are exactly conserved."""
        # HD can transiently overshoot the deuterium budget (the linearised
        # d4 formation step is not conservative); cap it first so the D
        # budget closes exactly instead of only when HD stays small
        hd = n["HDI"] = np.minimum(n["HDI"], d0)
        # deuterium next (HD shares nuclei with the H budget)
        d_free = np.maximum(d0 - hd, 0.0)
        cur_d = n["DI"] + n["DII"]
        f_d = np.where(cur_d > 0, d_free / np.maximum(cur_d, 1e-300), 1.0)
        n["DI"] *= f_d
        n["DII"] *= f_d
        h_free = np.maximum(h0 - hd, 0.0)
        cur_h = n["HI"] + n["HII"] + n["HM"] + 2.0 * (n["H2I"] + n["H2II"])
        f_h = np.where(cur_h > 0, h_free / np.maximum(cur_h, 1e-300), 1.0)
        for s in ("HI", "HII", "HM", "H2I", "H2II"):
            n[s] *= f_h
        cur_he = n["HeI"] + n["HeII"] + n["HeIII"]
        f_he = np.where(cur_he > 0, he0 / np.maximum(cur_he, 1e-300), 1.0)
        for s in ("HeI", "HeII", "HeIII"):
            n[s] *= f_he
        n["de"] = np.maximum(electron_density(n), 0.0)

    # ------------------------------------------------------ code-unit interface
    def advance_fields(self, fields, dt_code: float, units, a: float) -> dict:
        """Advance the species + internal energy carried on a FieldSet.

        Converts comoving code partial densities to proper cgs number
        densities, integrates, and writes everything back (including the
        'energy' total).  ``a`` sets both the density dilution and the
        redshift of the CMB.  The grid goes one slab of whole first-axis
        planes at a time (at most :data:`SLAB_CELLS` cells, or one plane),
        each converted, advanced and written back before the next; the
        network is cell-local, so this is bitwise the whole-grid
        integration.  Nothing raises after the first slab is written back
        that the first slab would not already raise.  Returns the
        integrator stats of the call (:func:`integrator_stats` of the
        counters summed over the slabs) for telemetry aggregation.
        """
        z = 1.0 / a - 1.0
        a3 = a**3
        dt = dt_code * units.time_unit
        shape = np.shape(fields["density"])
        planes = max(SLAB_CELLS // max(int(np.prod(shape[1:])), 1), 1)
        total = {"cells": 0, "substeps_total": 0, "substeps_max": 0,
                 "iterations": 0}
        for lo in range(0, shape[0], planes):
            part = self._advance_slab(fields, slice(lo, lo + planes), dt,
                                      units, a3, z)
            total["cells"] += part["cells"]
            total["substeps_total"] += part["substeps_total"]
            total["substeps_max"] = max(total["substeps_max"],
                                        part["substeps_max"])
            total["iterations"] = max(total["iterations"],
                                      part["iterations"])
        return integrator_stats(total)

    def _advance_slab(self, fields, planes: slice, dt: float, units,
                      a3: float, z: float) -> dict:
        """Convert, advance and write back the first-axis ``planes`` of
        ``fields``; returns :meth:`advance_stacked`'s counters.  Every
        field is looked up before the first write."""
        density = fields["density"][planes]
        internal = fields["internal"][planes]
        energy = fields["energy"][planes]
        kinetic = 0.5 * (fields["vx"][planes] ** 2 + fields["vy"][planes] ** 2
                         + fields["vz"][planes] ** 2)
        shape = density.shape
        rho_cgs = (density * units.density_unit / a3).reshape(-1)
        # the species block is filled row by row, each row converted while
        # it is cache-resident, with the same three roundings as
        # ``field * density_unit / a**3 / mass``
        state = _scratch("state", len(SPECIES_NAMES), rho_cgs.size)
        rows = state.reshape((-1,) + shape)
        for row, s in zip(rows, SPECIES_NAMES):
            np.multiply(fields[s][planes], units.density_unit, out=row)
            row /= a3
            row /= SPECIES[s].mass_amu * const.HYDROGEN_MASS
        e_cgs = (internal * units.energy_unit).reshape(-1)
        counters = self.advance_stacked(state, e_cgs, rho_cgs, dt, z)
        # and back: ``n * mass_amu * m_H * a**3 / density_unit``
        for row, s in zip(rows, SPECIES_NAMES):
            row *= SPECIES[s].mass_amu
            row *= const.HYDROGEN_MASS
            row *= a3
            np.divide(row, units.density_unit, out=fields[s][planes])
        internal[...] = (e_cgs / units.energy_unit).reshape(shape)
        energy[...] = internal + kinetic
        return counters


# ------------------------------------------------- the chem.step reference
def nuclei_budgets(n: dict) -> tuple:
    """The (H, He, D) nuclei number densities renormalisation conserves."""
    h0 = n["HI"] + n["HII"] + n["HM"] + 2.0 * (n["H2I"] + n["H2II"]) + n["HDI"]
    he0 = n["HeI"] + n["HeII"] + n["HeIII"]
    d0 = n["DI"] + n["DII"] + n["HDI"]
    return h0, he0, d0


def step_numpy(state, e, rho, budgets, t_done, counts, active, T, cube,
               block, dt, z, safety, max_substeps) -> None:
    """One substep of every active cell: the ``chem.step`` reference.

    ``state`` (12, N), ``budgets`` (3, N, from :func:`nuclei_budgets`),
    ``e``, ``rho``, ``t_done`` and ``counts`` (N,) are whole-grid arrays;
    ``active`` (M,) indexes the cells still in flight and ``T`` (M,),
    ``cube`` (M,) = ``HI**3`` and ``block`` (``rates.CHANNEL_NAMES``, M)
    hold their temperature and coefficients.  ``safety`` and
    ``max_substeps`` are :data:`SAFETY` and :data:`MAX_SUBSTEPS` in a run.
    Picks each cell's ``dt_sub`` from its cooling and electron timescales,
    applies the backward-Euler species/energy update and the
    renormalisation, scatters the result into ``state``/``e``, advances
    ``t_done``/``counts`` and overwrites ``T`` with the new temperature.
    """
    n = {s: row[active] for s, row in zip(SPECIES_NAMES, state)}
    ea = e[active]
    ra = rho[active]
    ch = dict(zip(CHANNEL_NAMES, block))
    k = RateTable._assemble_rates(np.clip(T, T_MIN, T_MAX), ch)
    # the cell's own timescales: cooling time, and the electron timescale
    # (the Anninos et al. control) — net ionisation minus recombination
    # rate against the current electron density
    lam = cool_mod.cooling_rate_from_channels(n, T, z, ch)  # erg/s/cm^3
    edot = np.abs(lam) / np.maximum(ra, 1e-300)
    t_cool = np.where(edot > 0, ea / np.maximum(edot, 1e-300), np.inf)
    ne = np.maximum(electron_density(n), 1e-300)
    ne_dot = np.abs(k["k1"] * n["HI"] * ne - k["k2"] * n["HII"] * ne)
    t_elec = np.where(ne_dot > 0, ne / np.maximum(ne_dot, 1e-300), np.inf)
    limit = np.minimum(t_cool, t_elec)
    remaining = dt - t_done[active]
    dt_sub = np.minimum(
        remaining, np.maximum(safety * limit, dt / max_substeps)
    )
    # cells at the substep cap integrate their remainder in one final
    # backward-Euler step (stable, just less accurate)
    dt_sub = np.where(counts[active] >= max_substeps - 1, remaining, dt_sub)
    substep_numpy(n, ea, ra, dt_sub, z, T, k, ch, cube)
    ChemistryNetwork._renormalise(n, *(b[active] for b in budgets))
    for s, row in zip(SPECIES_NAMES, state):
        row[active] = n[s]
    e[active] = ea
    t_done[active] += dt_sub
    counts[active] += 1
    T[...] = ChemistryNetwork.temperature(n, ea, ra)


def substep_numpy(n: dict, e, rho, dt, z, T, k: dict, cool_ch: dict,
                  cube) -> None:
    """One linearised backward-Euler step of size dt (scalar or per-cell).

    ``T``, the rates ``k`` and the cooling channels ``cool_ch`` are those of
    the incoming state (one shared evaluation per substep); updates the
    species dict ``n`` and the array ``e`` in place.
    """
    ne = np.maximum(electron_density(n), 0.0)

    def be(old, create, destroy):
        """Linearised backward-Euler update (positive by construction)."""
        return (old + dt * create) / (1.0 + dt * destroy)

    # --- H+ / H and He ladder (with current electron density) -------------
    hi, hii = n["HI"], n["HII"]
    n["HII"] = be(hii, k["k1"] * hi * ne, k["k2"] * ne)
    n["HeII"] = be(
        n["HeII"],
        k["k3"] * n["HeI"] * ne + k["k6"] * n["HeIII"] * ne,
        (k["k4"] + k["k5"]) * ne,
    )
    n["HeIII"] = be(n["HeIII"], k["k5"] * n["HeII"] * ne, k["k6"] * ne)
    n["HeI"] = be(n["HeI"], k["k4"] * n["HeII"] * ne, k["k3"] * ne)

    # --- fast species in equilibrium (Anninos et al. 1997) ------------------
    hii = n["HII"]
    denom_hm = k["k8"] * hi + k["k14"] * ne + k["k16"] * hii
    n["HM"] = np.where(
        denom_hm > 0, k["k7"] * hi * ne / np.maximum(denom_hm, 1e-300), 0.0
    )
    denom_h2p = k["k10"] * hi + k["k18"] * ne
    n["H2II"] = np.where(
        denom_h2p > 0,
        (k["k9"] * hi * hii + k["k11"] * n["H2I"] * hii)
        / np.maximum(denom_h2p, 1e-300),
        0.0,
    )

    # --- molecular hydrogen ----------------------------------------------------
    h2 = n["H2I"]
    rate_3b = k["k22"] * cube + k["k23"] * hi**2 * h2
    c_h2 = (k["k8"] * n["HM"] * hi + k["k10"] * n["H2II"] * hi
            + k["d5"] * n["HDI"] * hii + rate_3b)
    d_h2 = k["k11"] * hii + k["k12"] * ne + k["k13"] * hi + k["d4"] * n["DII"]
    n["H2I"] = be(h2, c_h2, d_h2)

    # --- neutral hydrogen (net source terms; k13 yields net +2 H) --------------
    c_hi = (
        k["k2"] * hii * ne
        + 2.0 * k["k12"] * h2 * ne
        + 2.0 * k["k13"] * h2 * hi
        + k["k11"] * h2 * hii
        + 2.0 * k["k16"] * n["HM"] * hii
        + 2.0 * k["k18"] * n["H2II"] * ne
        + k["k14"] * n["HM"] * ne
        + k["d2"] * n["DI"] * hii
    )
    d_hi = (
        k["k1"] * ne
        + k["k7"] * ne
        + k["k8"] * n["HM"]
        + k["k9"] * hii
        + k["k10"] * n["H2II"]
        + k["d3"] * n["DII"]
        + (2.0 * k["k22"] * hi**2 + 2.0 * k["k23"] * hi * h2)
    )
    n["HI"] = be(hi, c_hi, d_hi)

    # --- deuterium ----------------------------------------------------------------
    di, dii, hd = n["DI"], n["DII"], n["HDI"]
    n["DII"] = be(
        dii,
        k["d2"] * di * hii + k["d5"] * hd * hii,
        k["d1"] * ne + k["d3"] * n["HI"] + k["d4"] * n["H2I"],
    )
    n["DI"] = be(di, k["d1"] * n["DII"] * ne + k["d3"] * n["DII"] * n["HI"], k["d2"] * hii)
    n["HDI"] = be(hd, k["d4"] * n["DII"] * n["H2I"], k["d5"] * hii)

    # --- electrons from charge neutrality ---------------------------------------
    n["de"] = np.maximum(electron_density(n), 0.0)

    # --- thermal energy ---------------------------------------------------------------
    # NOTE: evaluated with the *updated* densities at the substep's
    # (start-of-step) temperature — only the T-dependent coefficients
    # are shared with the timescale evaluation of ``step_numpy``
    lam = cool_mod.cooling_rate_from_channels(n, T, z, cool_ch)
    lam = lam - H2_BINDING * rate_3b + H2_BINDING * k["k13"] * h2 * hi
    # semi-implicit: cooling shrinks e by a bounded factor
    cool_pos = np.maximum(lam, 0.0) / np.maximum(rho, 1e-300)
    heat = np.maximum(-lam, 0.0) / np.maximum(rho, 1e-300)
    e_new = (e + dt * heat) / (1.0 + dt * cool_pos / np.maximum(e, 1e-300))
    t_cmb = const.CMB_TEMPERATURE_Z0 * (1.0 + z)
    e_floor = ChemistryNetwork.energy_from_temperature(n, t_cmb, rho)
    e_new = np.maximum(e_new, np.minimum(e, e_floor))
    e[...] = np.maximum(e_new, 1e-300)

