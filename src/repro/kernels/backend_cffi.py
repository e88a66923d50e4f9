"""cffi/C backend: the compiled transcription of every kernel.

Each kernel exists twice: the vectorised NumPy reference (``hydro/ppm.py``
with the bodies it calls in ``hydro/riemann.py``, ``hydro/reconstruction.py``
and ``hydro/tracing.py``, ``chemistry/rates.py``, ``chemistry/network.py``,
``amr/interpolation.py``, ``gravity/multigrid.py``,
``amr/flux_correction.py``, ``nbody/cic.py`` — the definition of correct)
and the per-element C
in ``_CSOURCE`` below, compiled once per machine with the system C compiler
through cffi (API mode) and cached as a shared object under
``REPRO_KERNELS_CACHE`` (default ``~/.cache/repro-kernels``).  Importing this
module triggers the build the first time; any failure (no cffi, no compiler,
sandboxed cache dir) surfaces as an exception the dispatch registry turns
into the standard warn-once NumPy fallback.

The C wants flat contiguous arrays and preallocated outputs and indexes raw
memory; the contract functions at the bottom of this module (one per
registered kernel, same signature as its NumPy reference) validate shapes
and index ranges, make inputs contiguous, allocate outputs and scratch, and
copy non-contiguous in-place targets in and back:

* ``hydro.step``      ``fn(arrays, accel, ng, dx, dt, a, permute, full_update,
  gamma, scheme, riemann_solver, density_floor, energy_floor, eta, drag,
  windows, outs) -> counts`` — one PPM step of one grid in place: half
  kick, three sweeps over the pencil boxes ``rk_step`` derives itself,
  half kick, drag, dual-energy sync and energy floor; the sweeps store
  their fluxes only in the face-window blocks ``outs`` (no full face
  array is allocated); its sweep and the Riemann, reconstruction and
  tracing bodies are static C functions only ``rk_step`` calls
* ``chem.blend``      ``fn(logtab, idx, weight, out=None) -> (channels, n)
  rates``
* ``chem.step``       ``fn(state, e, rho, budgets, t_done, counts, active, T,
  cube, block, dt, z, safety, max_substeps)`` — one substep of every active
  cell of one grid, in place
* ``fill.level``      ``fn(plan, fracs=None)`` — fills the target arrays of
  a checked :class:`~repro.amr.interpolation.FillPlan` in place: copies
  from same-level interiors, prolongation from the parents everywhere
  else; the pointer tables are kept on the plan
* ``mg.level``        ``fn(plan, src, first, stop, pre, post, min_size, tol,
  budget, strict, force_diverge, exchange, stats) -> (failed, changed)`` —
  one sibling pass over grids ``first .. stop - 1`` of a level's
  :class:`~repro.amr.topology.PoissonPlan`: for each grid, multigrid
  V-cycles from its rim until the residual norm meets the tolerance or
  the budget runs out (``rk_mg_solve``) and the write into its
  potential, then the rim exchange
* ``gravity.accel``   ``fn(phi, dx, a) -> (3, *phi.shape)`` — ``-grad(phi)/a``
  with ``np.gradient``'s central and one-sided edge differences
* ``flux.correct``    ``fn(fields, names, ng, dx, periodic, r, children)`` —
  the coarse-fine flux correction of one parent for all its children
  (each with its fine sums and the parent's planes at its faces), in
  place on ``fields``
* ``cic.deposit``     ``fn(grid, offsets, masses, dx, dx3, periodic)`` — adds
  the particles' CIC density to ``grid`` in place
* ``cic.gather``      ``fn(field3, offsets, dx, periodic) -> (n, 3)``

Bitwise parity with the NumPy reference is a hard requirement
(``tests/test_kernels.py``).  The rules the C follows (why the bodies look
pedantic):

* op order and association match the NumPy expressions exactly —
  e.g. ``0.5 * (u_l - A + u_r + B)`` stays left-associated, and a
  whole-array ``mean`` is summed in NumPy's pairwise order (``mg_sum_sq``);
* ``nmax``/``nmin`` replicate ``np.maximum``/``np.minimum`` NaN
  propagation; a bare ``a > b ? a : b`` would not;
* every ``np.where(cond, a, b)`` is a select between values computed
  unconditionally, and its *condition* evaluates identically for NaN
  (NaN comparisons are false both ways); a nested ``np.where`` chain is
  sequential selects, innermost first.  ``nmax``/``nmin``/``minmod``/
  ``clip01`` are selects too, so the hydro and chemistry loop bodies are
  straight-line and run in SIMD lanes (``#pragma omp simd`` where pointer
  aliasing would otherwise stop the vectoriser; ``LANES`` adds an
  AVX-512 copy the CPU picks at load time, ``rk_lanes`` names it).
  Lanes are elementwise IEEE arithmetic, so lane width never shows in a
  result;
* multiplications by literal ``0.0``/``1.0`` from the characteristic
  eigenvectors are kept, because ``inf * 0.0`` must still produce NaN;
* ``sqrt``/division are IEEE-754 correctly rounded, so looping them is
  bit-identical to the ufunc (``exp`` is *not* — which is why the
  chemistry kernel stops at the linear blend and its contract function
  keeps ``np.exp``).

and the compile flags (``_COMPILE_ARGS``) that make them hold:

* ``-ffp-contract=off`` — no FMA contraction; every multiply and add
  rounds separately, exactly like the NumPy ufuncs;
* no ``-ffast-math`` (ever) — keeps IEEE semantics, NaN propagation, and
  division/sqrt correctly rounded;
* ``-fno-math-errno`` is safe (it only drops the errno bookkeeping);
* ``-fno-trapping-math`` lets a guarded division (or any operation gcc
  has sunk into the arm of a select) run in every lane and be discarded
  by the select: FP exceptions never trap here, so it changes no value.
  Without it the default (SSE2) copy vectorises none of the hydro face
  loops.

Adding a kernel is a two-place change — the NumPy reference and, here, the
C plus its contract function; docs/PERFORMANCE.md ("Adding a kernel") has
the checklist.
"""

from __future__ import annotations

import hashlib
import importlib
import os
import sys
import tempfile

import numpy as np
from cffi import FFI  # raises ImportError -> dispatch falls back to NumPy

from repro import constants as const
from repro.amr.flux_correction import (
    _CONSERVED,
    DENSITY_FLOOR,
    correct_numpy,
)
from repro.chemistry.cooling import H2_LDL_HI, H2_LDL_LO, compton_coefficient
from repro.chemistry.network import H2_BINDING
from repro.chemistry.rates import CHANNEL_NAMES, T_MAX, T_MIN
from repro.chemistry.species import SPECIES_NAMES
from repro.hydro.ppm import StepPlan, check_drag
from repro.hydro.riemann import TWO_SHOCK_ITERATIONS
from repro.hydro.state import DUAL_ENERGY_ETA, INTERNAL_FLOOR
from repro.kernels import dispatch

_CDEF = """
const char *rk_lanes(void);
void rk_chem_blend(long n_ch, long n_bins, long n_t, const double *logtab,
    const int64_t *idx, const double *weight, double *out);
void rk_chem_step(long n_cells, long n_act, double *state, double *e,
    const double *rho, const double *budgets, double *t_done,
    int64_t *counts, const int64_t *active, double *T, const double *cube,
    const double *block, double dt, double dt_floor, double t_cmb,
    double compton, double safety, long max_substeps);
long rk_fill_level(long nf, long r, const int *positives, long n_t,
    double **fines, const int64_t *t_geom, const double *fracs,
    const double **news, const double **olds, const int64_t *p_geom,
    const double **srcs, const int64_t *s_geom, long n_fill,
    const int64_t *fill, long n_copy, const int64_t *copies);
double rk_rms(long n, const double *x);
long rk_mg_work(long nx, long ny, long nz, long min_size);
long rk_mg_level(const int64_t *dims, long ng, double dx, double **phis,
    double *rims, const int64_t *rim_off, const double *src,
    const int64_t *src_off, long first, long stop, long pre, long post,
    long min_size, double tol, long budget, int strict, int force_diverge,
    double *work, double *stats, long n_rows, const int64_t *rows,
    int exchange, int *changed);
void rk_gravity_accel(long n0, long n1, long n2, const double *phi,
    double dx, double a, double *out);
void rk_step(long nq, double **q, const double *accel, long n0, long n1,
    long n2, long ng, double dx, double dt, double a, long permute,
    int full_update, double gamma, long scheme, long solver, double dfloor,
    double efloor, double eta, const double *drag, long n_win,
    const int64_t *win, double **outs, int64_t *counts, double *work,
    long mb, int64_t *cols);
void rk_flux_correct(long nf, double **q, double *ie, long n0, long n1,
    long n2, long ng, double dx, const int *periodic, long n_children,
    const int64_t *regions, const double **blocks, const double **coarse,
    const int8_t *present, int32_t *count);
void rk_cic_deposit(long n_part, const double *offsets, const double *masses,
    double dx, double dx3, int periodic, long n0, long n1, long n2,
    double *grid, int64_t *base, double *frac, double *mass);
void rk_cic_gather(long n_part, const double *offsets, double dx,
    int periodic, long n0, long n1, long n2, const double *field,
    double *out);
"""


def _layout() -> str:
    """Layout and constants of the C, generated from the Python side so the
    two transcriptions cannot disagree: for ``rk_chem_step`` a ``species``
    struct with one field per ``SPECIES_NAMES`` entry and a ``channels``
    struct with one per ``rates.CHANNEL_NAMES`` entry, the macros that move
    them between the structs and rows ``p[i * stride]`` of the stacked
    arrays in that order and ``TOTAL_DENSITY`` (Python's left-to-right
    ``sum`` over ``SPECIES_NAMES``); for every kernel the physical
    constants and floors as the ``repr`` of the very floats the NumPy
    reference uses, and the two-shock Newton iteration count."""
    def rows(names, fmt):
        return " ".join(fmt.format(f=f, i=i) for i, f in enumerate(names))

    defines = {
        "T_MIN": T_MIN,
        "T_MAX": T_MAX,
        "K_BOLTZ": const.BOLTZMANN_CONSTANT,
        "H2_BINDING": H2_BINDING,
        "H2_LDL_LO": H2_LDL_LO,
        "H2_LDL_HI": H2_LDL_HI,
        "DENSITY_FLOOR": DENSITY_FLOOR,
        "SYNC_ETA": DUAL_ENERGY_ETA,
        "SYNC_FLOOR": INTERNAL_FLOOR,
    }
    return (
        f"typedef struct {{ double {', '.join(SPECIES_NAMES)}; }} species;\n"
        f"typedef struct {{ double {', '.join(CHANNEL_NAMES)}; }} channels;\n"
        "#define LOAD_SPECIES(n, p, stride) "
        + rows(SPECIES_NAMES, "(n).{f} = (p)[{i} * (stride)];") + "\n"
        "#define STORE_SPECIES(n, p, stride) "
        + rows(SPECIES_NAMES, "(p)[{i} * (stride)] = (n).{f};") + "\n"
        "#define LOAD_CHANNELS(ch, p, stride) "
        + rows(CHANNEL_NAMES, "(ch).{f} = (p)[{i} * (stride)];") + "\n"
        "#define TOTAL_DENSITY(n) (0.0 + "
        + " + ".join(f"(n).{f}" for f in SPECIES_NAMES) + ")\n"
        + "".join(f"#define {k} {float(v)!r}\n" for k, v in defines.items())
        + f"#define TWO_SHOCK_ITERATIONS {int(TWO_SHOCK_ITERATIONS)}\n"
    )


_CSOURCE = _layout() + r"""
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* LANES gives a function one more copy for AVX-512 hosts, picked by the
   CPU at load time: eight doubles per instruction instead of two.  Needs
   GNU ifunc; elsewhere there is one copy. */
#if defined(__x86_64__) && defined(__GLIBC__) && defined(__GNUC__) \
    && !defined(__clang__)
#define LANES __attribute__((target_clones("avx512f", "default")))
#define LANES_CLONED 1
#else
#define LANES
#endif

/* the LANES copy this host runs: the resolver's own test */
const char *rk_lanes(void)
{
#ifdef LANES_CLONED
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx512f") ? "avx512f" : "default";
#else
    return "single";
#endif
}

/* np.maximum / np.minimum: NaN in either operand propagates.  Spelled as
   selects (no early return), so loops that call them stay straight-line
   and run in SIMD lanes */
static inline double nmax(double a, double b)
{
    double r = a > b ? a : b;
    r = (b != b) ? b : r;
    return (a != a) ? a : r;
}

static inline double nmin(double a, double b)
{
    double r = a < b ? a : b;
    r = (b != b) ? b : r;
    return (a != a) ? a : r;
}

/* state.sync_internal_from_total on cell c; q holds density, vx, vy, vz,
   energy (and more), ie the internal energy */
static inline void dual_sync(long c, double **q, double *ie, double eta,
    double floor)
{
    double vx = q[1][c], vy = q[2][c], vz = q[3][c], e = q[4][c];
    double ke = 0.5 * (vx * vx + vy * vy + vz * vz);
    double from_total = e - ke;
    double eint = from_total > eta * e ? nmax(from_total, floor)
                                       : nmax(ie[c], floor);
    ie[c] = eint;
    q[4][c] = eint + ke;
}

/* np.where(a * b > 0, where(|a| < |b|, a, b), 0.0); NaN product -> 0.0 */
static inline double minmod(double a, double b)
{
    double m = fabs(a) < fabs(b) ? a : b;
    return a * b > 0.0 ? m : 0.0;
}

static inline double mc(double dq_minus, double dq_plus) {
    double dq_c = 0.5 * (dq_minus + dq_plus);
    double lim = minmod(2.0 * dq_minus, 2.0 * dq_plus);
    return minmod(dq_c, lim);
}

/* Einfeldt wave-speed estimates (== riemann._wave_speed_estimates) */
static inline void einfeldt(double rl, double ul, double pl,
    double rr, double ur, double pr, double gamma, double *s_l, double *s_r)
{
    double cl = sqrt(gamma * pl / rl);
    double cr = sqrt(gamma * pr / rr);
    double sqrt_l = sqrt(rl);
    double sqrt_r = sqrt(rr);
    double u_roe = (sqrt_l * ul + sqrt_r * ur) / (sqrt_l + sqrt_r);
    double h_l = (gamma * pl / ((gamma - 1.0) * rl)) + 0.5 * ul * ul;
    double h_r = (gamma * pr / ((gamma - 1.0) * rr)) + 0.5 * ur * ur;
    double h_roe = (sqrt_l * h_l + sqrt_r * h_r) / (sqrt_l + sqrt_r);
    double c_roe = sqrt(nmax((gamma - 1.0)
                             * (h_roe - 0.5 * u_roe * u_roe), 1e-300));
    *s_l = nmin(ul - cl, u_roe - c_roe);
    *s_r = nmax(ur + cr, u_roe + c_roe);
}

/* contact-wave speed clamped to the fan (hllc_flux, ppm.contact_speed) */
static inline double contact(double rl, double ul, double pl,
    double rr, double ur, double pr, double s_l, double s_r)
{
    double num = pr - pl + rl * ul * (s_l - ul) - rr * ur * (s_r - ur);
    double den = rl * (s_l - ul) - rr * (s_r - ur);
    den = fabs(den) < 1e-300 ? 1e-300 : den;
    return nmin(nmax(num / den, s_l), s_r);
}

/* ---- Riemann solvers (called by rk_sweep): flattened face arrays in,
   the five flux components out ---- */

/* Two-shock flux (riemann.two_shock_flux).  A face leaves the Newton loop
   only when its update is an exact fixed point (p_new == p_star): a
   converged face re-derives the same p_star forever, so the per-face exit
   is bitwise equal to running all TWO_SHOCK_ITERATIONS.  The tier-parity
   matrix is the proof: the NumPy reference exits only when *every* face
   is a fixed point, and its random faces include last-ulp limit cycles,
   on which NumPy runs the full count while this loop exits per block. */
static void rk_two_shock(long n,
    const double *rho_l, const double *u_l, const double *v_l,
    const double *w_l, const double *p_l,
    const double *rho_r, const double *u_r, const double *v_r,
    const double *w_r, const double *p_r,
    double gamma,
    double *f0, double *f1, double *f2, double *f3, double *f4)
{
    double gp = 0.5 * (gamma + 1.0);
    double gm = 0.5 * (gamma - 1.0);
    /* Faces are processed in blocks: the Newton sweep iterates over a
       block of independent faces, so the dependent sqrt chains of many
       faces are in flight at once (ILP / vectorisation) instead of one
       face's chain serialising the loop.  The per-face update sequence
       is unchanged — a converged face re-derives the same p_star, so the
       block-level early exit stays bitwise. */
    enum { TS_BLK = 64 };
    double ps[TS_BLK];
    for (long base = 0; base < n; base += TS_BLK) {
        long m = (n - base < (long)TS_BLK) ? (n - base) : (long)TS_BLK;
        for (long j = 0; j < m; j++) {
            long i = base + j;
            ps[j] = nmax(0.5 * (p_l[i] + p_r[i]), 1e-300);
        }
        for (long it = 0; it < TWO_SHOCK_ITERATIONS; it++) {
            int all_done = 1;
            /* branchless body so the face loop if-converts/vectorises:
               the floor is nmax() inlined as a ternary (values are
               >= 1e-300 > 0, so no signed-zero ambiguity, and NaN
               propagates through the first-operand test exactly like
               np.maximum); storing an equal p_new is a bitwise no-op,
               so the store is unconditional.  The simd pragma runs
               lanes elementwise with IEEE-exact vector sqrt/div — no
               cross-lane FP arithmetic, so results stay bitwise. */
            #pragma omp simd reduction(&:all_done)
            for (long j = 0; j < m; j++) {
                long i = base + j;
                double p_star = ps[j];
                double w_lft = sqrt(rho_l[i] * (gp * p_star + gm * p_l[i]));
                double w_rgt = sqrt(rho_r[i] * (gp * p_star + gm * p_r[i]));
                double us_l = u_l[i] - (p_star - p_l[i]) / w_lft;
                double us_r = u_r[i] + (p_star - p_r[i]) / w_rgt;
                double dp = (us_l - us_r) * (w_lft * w_rgt)
                            / (w_lft + w_rgt);
                double sum = p_star + dp;
                double p_new = (sum > 1e-300 || sum != sum) ? sum : 1e-300;
                int conv = (p_new == p_star);
                ps[j] = p_new;
                all_done &= conv;
            }
            if (all_done) break;
        }
        for (long j = 0; j < m; j++) {
            long i = base + j;
            double rl = rho_l[i], ul = u_l[i], pl = p_l[i];
            double rr = rho_r[i], ur = u_r[i], pr = p_r[i];
            double p_star = ps[j];
            double w_lft = sqrt(rl * (gp * p_star + gm * pl));
            double w_rgt = sqrt(rr * (gp * p_star + gm * pr));
            double u_star = 0.5 * (ul - (p_star - pl) / w_lft
                                   + ur + (p_star - pr) / w_rgt);

            double rho_sl = rl / (1.0 - rl * (p_star - pl)
                                  / nmax(w_lft * w_lft, 1e-300));
            double rho_sr = rr / (1.0 - rr * (p_star - pr)
                                  / nmax(w_rgt * w_rgt, 1e-300));
            rho_sl = nmax(rho_sl, 1e-12);
            rho_sr = nmax(rho_sr, 1e-12);

            double s_l = ul - w_lft / rl;
            double s_r = ur + w_rgt / rr;

            double rho_i, u_i, p_i, v_i, w_i;
            if (u_star >= 0.0) {
                if (s_l >= 0.0) { rho_i = rl; u_i = ul; p_i = pl; }
                else { rho_i = rho_sl; u_i = u_star; p_i = p_star; }
                v_i = v_l[i]; w_i = w_l[i];
            } else {
                if (s_r <= 0.0) { rho_i = rr; u_i = ur; p_i = pr; }
                else { rho_i = rho_sr; u_i = u_star; p_i = p_star; }
                v_i = v_r[i]; w_i = w_r[i];
            }

            double e_total = p_i / ((gamma - 1.0) * rho_i)
                + 0.5 * (u_i * u_i + v_i * v_i + w_i * w_i);
            f0[i] = rho_i * u_i;
            f1[i] = rho_i * u_i * u_i + p_i;
            f2[i] = rho_i * u_i * v_i;
            f3[i] = rho_i * u_i * w_i;
            f4[i] = u_i * (rho_i * e_total + p_i);
        }
    }
}

/* the coefficients of one side's HLLC star-region flux (hllc_flux.
   star_flux) for the side's r, u, p and wave speed s.  Both divisions
   are evaluated unconditionally and their guards are selects */
static inline void hllc_factor(double r, double u, double p, double s,
    double s_m, double *factor, double *p_term)
{
    double smu = s - s_m;
    smu = fabs(smu) < 1e-300 ? 1e-300 : smu;
    *factor = r * (s - u) / smu;
    double su = s - u;
    double p_su = p / (r * (su == 0 ? 1.0 : su));
    *p_term = fabs(su) > 1e-300 ? p_su : 0.0;
}

/* np.where(s_l >= 0, fl, where(s_m >= 0, fsl, where(s_r >= 0, fsr, fr))) as
   selects, innermost first */
static inline double hllc_pick(double s_l, double s_m, double s_r,
    double fl, double fsl, double fsr, double fr)
{
    double x = s_r >= 0.0 ? fsr : fr;
    x = s_m >= 0.0 ? fsl : x;
    return s_l >= 0.0 ? fl : x;
}

/* HLLC flux (riemann.hllc_flux) with Einfeldt wave speeds; sm gets each
   face's contact speed, which is ppm.contact_speed of the same states.
   Straight-line: all four fluxes of a face are computed, then picked */
static void rk_hllc(long n,
    const double *rho_l, const double *u_l, const double *v_l,
    const double *w_l, const double *p_l,
    const double *rho_r, const double *u_r, const double *v_r,
    const double *w_r, const double *p_r,
    double gamma,
    double *f0, double *f1, double *f2, double *f3, double *f4, double *sm)
{
    #pragma omp simd
    for (long i = 0; i < n; i++) {
        double rl = rho_l[i], ul = u_l[i], vl = v_l[i], wl = w_l[i],
               pl = p_l[i];
        double rr = rho_r[i], ur = u_r[i], vr = v_r[i], wr = w_r[i],
               pr = p_r[i];

        double s_l, s_r;
        einfeldt(rl, ul, pl, rr, ur, pr, gamma, &s_l, &s_r);
        double s_m = contact(rl, ul, pl, rr, ur, pr, s_l, s_r);

        double e_l = pl / ((gamma - 1.0) * rl)
            + 0.5 * (ul * ul + vl * vl + wl * wl);
        double e_r = pr / ((gamma - 1.0) * rr)
            + 0.5 * (ur * ur + vr * vr + wr * wr);
        double fl0 = rl * ul, fl1 = rl * ul * ul + pl, fl2 = rl * ul * vl,
               fl3 = rl * ul * wl, fl4 = ul * (rl * e_l + pl);
        double fr0 = rr * ur, fr1 = rr * ur * ur + pr, fr2 = rr * ur * vr,
               fr3 = rr * ur * wr, fr4 = ur * (rr * e_r + pr);

        double kl, tl, kr, tr;      /* factor and p_term of each side */
        hllc_factor(rl, ul, pl, s_l, s_m, &kl, &tl);
        hllc_factor(rr, ur, pr, s_r, s_m, &kr, &tr);
        f0[i] = hllc_pick(s_l, s_m, s_r, fl0, fl0 + s_l * (kl - rl),
                          fr0 + s_r * (kr - rr), fr0);
        f1[i] = hllc_pick(s_l, s_m, s_r, fl1, fl1 + s_l * (kl * s_m - rl * ul),
                          fr1 + s_r * (kr * s_m - rr * ur), fr1);
        f2[i] = hllc_pick(s_l, s_m, s_r, fl2, fl2 + s_l * (kl * vl - rl * vl),
                          fr2 + s_r * (kr * vr - rr * vr), fr2);
        f3[i] = hllc_pick(s_l, s_m, s_r, fl3, fl3 + s_l * (kl * wl - rl * wl),
                          fr3 + s_r * (kr * wr - rr * wr), fr3);
        f4[i] = hllc_pick(s_l, s_m, s_r, fl4,
            fl4 + s_l * (kl * (e_l + (s_m - ul) * (s_m + tl)) - rl * e_l),
            fr4 + s_r * (kr * (e_r + (s_m - ur) * (s_m + tr)) - rr * e_r),
            fr4);
        sm[i] = s_m;
    }
}

/* HLL two-wave flux (riemann.hll_flux) */
static void rk_hll(long n,
    const double *rho_l, const double *u_l, const double *v_l,
    const double *w_l, const double *p_l,
    const double *rho_r, const double *u_r, const double *v_r,
    const double *w_r, const double *p_r,
    double gamma,
    double *f0, double *f1, double *f2, double *f3, double *f4)
{
    #pragma omp simd
    for (long i = 0; i < n; i++) {
        double rl = rho_l[i], ul = u_l[i], vl = v_l[i], wl = w_l[i],
               pl = p_l[i];
        double rr = rho_r[i], ur = u_r[i], vr = v_r[i], wr = w_r[i],
               pr = p_r[i];

        double s_l, s_r;
        einfeldt(rl, ul, pl, rr, ur, pr, gamma, &s_l, &s_r);

        double e_l = pl / ((gamma - 1.0) * rl)
            + 0.5 * (ul * ul + vl * vl + wl * wl);
        double e_r = pr / ((gamma - 1.0) * rr)
            + 0.5 * (ur * ur + vr * vr + wr * wr);
        double fl0 = rl * ul, fl1 = rl * ul * ul + pl, fl2 = rl * ul * vl,
               fl3 = rl * ul * wl, fl4 = ul * (rl * e_l + pl);
        double fr0 = rr * ur, fr1 = rr * ur * ur + pr, fr2 = rr * ur * vr,
               fr3 = rr * ur * wr, fr4 = ur * (rr * e_r + pr);

        double denom = s_r - s_l;
        double fl[5] = {fl0, fl1, fl2, fl3, fl4};
        double fr[5] = {fr0, fr1, fr2, fr3, fr4};
        double dc[5] = {rr - rl, rr * ur - rl * ul, rr * vr - rl * vl,
                        rr * wr - rl * wl, rr * e_r - rl * e_l};
        double f[5];
        for (int k = 0; k < 5; k++) {
            double f_star = (s_r * fl[k] - s_l * fr[k]
                             + s_l * s_r * dc[k]) / denom;
            double x = s_r <= 0.0 ? fr[k] : f_star;
            f[k] = s_l >= 0.0 ? fl[k] : x;
        }
        f0[i] = f[0]; f1[i] = f[1]; f2[i] = f[2]; f3[i] = f[3]; f4[i] = f[4];
    }
}

/* ---- reconstruction (called by rk_sweep): arrays are (n, m), the sweep
   axis against a block of pencils; ql/qr are the (n-1, m) face
   outputs ---- */

/* PLM/MC interface states (reconstruction.plm_reconstruct) */
static void rk_plm(long n, long m, const double *q, double *ql, double *qr)
{
    for (long f = 0; f < n - 1; f++) {
        for (long j = 0; j < m; j++) {
            ql[f * m + j] = q[f * m + j];
            qr[f * m + j] = q[(f + 1) * m + j];
        }
    }
    if (n >= 4) {
        for (long c = 1; c < n - 1; c++) {
            #pragma omp simd
            for (long j = 0; j < m; j++) {
                double dq_minus = q[c * m + j] - q[(c - 1) * m + j];
                double dq_plus = q[(c + 1) * m + j] - q[c * m + j];
                double slope = mc(dq_minus, dq_plus);
                ql[c * m + j] = q[c * m + j] + 0.5 * slope;
                qr[(c - 1) * m + j] = q[c * m + j] - 0.5 * slope;
            }
        }
    }
}

/* PPM/CW84 interface states (reconstruction.ppm_reconstruct).  Scratch:
   dq of shape (n, m) for the limited slopes and qf of shape (n-3, m) for
   the fourth-order face values.  Caller guarantees n >= 6 (smaller
   stencils stay on rk_plm, matching the reference).  The slopes are
   computed once: they are also the PLM slopes of the faces the parabola
   does not reach (ql on faces 0, 1, n-2; qr on faces 0, n-3, n-2).  The
   limiter is straight-line, every np.where a select; the right-overshoot
   fix uses the possibly-updated ql_edge, like the reference. */
static void rk_ppm(long n, long m, const double *q, double *ql, double *qr,
    double *dq, double *qf)
{
    for (long c = 1; c < n - 1; c++) {
        #pragma omp simd
        for (long j = 0; j < m; j++)
            dq[c * m + j] = mc(q[c * m + j] - q[(c - 1) * m + j],
                               q[(c + 1) * m + j] - q[c * m + j]);
    }
    #pragma omp simd
    for (long j = 0; j < m; j++) {
        ql[j] = q[j];
        ql[m + j] = q[m + j] + 0.5 * dq[m + j];
        ql[(n - 2) * m + j] = q[(n - 2) * m + j] + 0.5 * dq[(n - 2) * m + j];
        qr[j] = q[m + j] - 0.5 * dq[m + j];
        qr[(n - 3) * m + j] = q[(n - 2) * m + j] - 0.5 * dq[(n - 2) * m + j];
        qr[(n - 2) * m + j] = q[(n - 1) * m + j];
    }
    for (long t = 0; t < n - 3; t++) {
        #pragma omp simd
        for (long j = 0; j < m; j++)
            qf[t * m + j] = 0.5 * (q[(t + 1) * m + j] + q[(t + 2) * m + j])
                - (dq[(t + 2) * m + j] - dq[(t + 1) * m + j]) / 6.0;
    }
    for (long c = 0; c < n - 4; c++) {
        #pragma omp simd
        for (long j = 0; j < m; j++) {
            double qc = q[(c + 2) * m + j];
            double ql_edge = qf[c * m + j];
            double qr_edge = qf[(c + 1) * m + j];
            int extremum = (qr_edge - qc) * (qc - ql_edge) <= 0.0;
            ql_edge = extremum ? qc : ql_edge;
            qr_edge = extremum ? qc : qr_edge;
            double dqe = qr_edge - ql_edge;
            double q6 = 6.0 * (qc - 0.5 * (ql_edge + qr_edge));
            int overshoot_l = dqe * q6 > dqe * dqe;
            int overshoot_r = -(dqe * dqe) > dqe * q6;
            ql_edge = overshoot_l ? 3.0 * qc - 2.0 * qr_edge : ql_edge;
            qr_edge = overshoot_r ? 3.0 * qc - 2.0 * ql_edge : qr_edge;
            double q_im1 = q[(c + 1) * m + j];
            double q_ip1 = q[(c + 3) * m + j];
            ql_edge = nmin(nmax(ql_edge, nmin(q_im1, qc)), nmax(q_im1, qc));
            qr_edge = nmin(nmax(qr_edge, nmin(qc, q_ip1)), nmax(qc, q_ip1));
            ql[(c + 2) * m + j] = qr_edge;
            qr[(c + 1) * m + j] = ql_edge;
        }
    }
}

static inline double iplus(double ql, double qr, double q, double sigma)
{
    double dq = qr - ql;
    double q6 = 6.0 * (q - 0.5 * (ql + qr));
    double s = nmin(nmax(sigma, 0.0), 1.0);
    return qr - 0.5 * s * (dq - (1.0 - 2.0 * s / 3.0) * q6);
}

static inline double iminus(double ql, double qr, double q, double sigma)
{
    double dq = qr - ql;
    double q6 = 6.0 * (q - 0.5 * (ql + qr));
    double s = nmin(nmax(sigma, 0.0), 1.0);
    return ql + 0.5 * s * (dq + (1.0 - 2.0 * s / 3.0) * q6);
}

/* Characteristic tracing (tracing.trace_states_numpy): the per-face
   algebra after the parabola edges have been assembled.  Inputs: primitive
   cell arrays (n, m) and their parabola edge arrays el_ / er_ (cell
   left/right edges, from the PPM face states).  Outputs: the ten (n-1, m)
   face-state components.  Face f takes its left state from cell f
   (right-going waves) and its right state from cell f+1 (left-going
   waves). */
static void rk_trace(long n, long m,
    const double *rho, const double *u, const double *v,
    const double *w, const double *p,
    const double *el_rho, const double *er_rho,
    const double *el_u, const double *er_u,
    const double *el_v, const double *er_v,
    const double *el_w, const double *er_w,
    const double *el_p, const double *er_p,
    double dtdx, double gamma,
    double *ol_rho, double *ol_u, double *ol_v, double *ol_w, double *ol_p,
    double *or_rho, double *or_u, double *or_v, double *or_w, double *or_p)
{
    for (long f = 0; f < n - 1; f++) {
        #pragma omp simd
        for (long j = 0; j < m; j++) {
            /* ---- left state from cell i = f ---- */
            long k = f * m + j;
            double rho_i = rho[k], u_i = u[k], p_i = p[k];
            double c_i = sqrt(gamma * nmax(p_i, 1e-300)
                              / nmax(rho_i, 1e-300));
            double c2 = c_i * c_i;
            double lam_m = u_i - c_i;
            double lam_0 = u_i;
            double lam_p = u_i + c_i;

            double lam_max = nmax(lam_p, 0.0);
            double ref_rho = iplus(el_rho[k], er_rho[k], rho_i,
                                   lam_max * dtdx);
            double ref_u = iplus(el_u[k], er_u[k], u_i, lam_max * dtdx);
            double ref_p = iplus(el_p[k], er_p[k], p_i, lam_max * dtdx);
            double wl_rho = ref_rho, wl_u = ref_u, wl_p = ref_p;

            double sig = nmax(lam_m, 0.0) * dtdx;
            double d_rho = ref_rho - iplus(el_rho[k], er_rho[k], rho_i, sig);
            double d_u = ref_u - iplus(el_u[k], er_u[k], u_i, sig);
            double d_p = ref_p - iplus(el_p[k], er_p[k], p_i, sig);
            double alpha = (d_p - rho_i * c_i * d_u) / (2.0 * c2);
            double mask = lam_m > 0.0 ? 1.0 : 0.0;
            wl_rho -= mask * alpha * 1.0;
            wl_u -= mask * alpha * (-c_i / rho_i);
            wl_p -= mask * alpha * c2;

            sig = nmax(lam_0, 0.0) * dtdx;
            d_rho = ref_rho - iplus(el_rho[k], er_rho[k], rho_i, sig);
            d_u = ref_u - iplus(el_u[k], er_u[k], u_i, sig);
            d_p = ref_p - iplus(el_p[k], er_p[k], p_i, sig);
            alpha = d_rho - d_p / c2;
            mask = lam_0 > 0.0 ? 1.0 : 0.0;
            wl_rho -= mask * alpha * 1.0;
            wl_u -= mask * alpha * 0.0;
            wl_p -= mask * alpha * 0.0;

            double sig0 = nmax(lam_0, 0.0) * dtdx;
            long o = f * m + j;
            ol_rho[o] = wl_rho;
            ol_u[o] = wl_u;
            ol_v[o] = iplus(el_v[k], er_v[k], v[k], sig0);
            ol_w[o] = iplus(el_w[k], er_w[k], w[k], sig0);
            ol_p[o] = wl_p;

            /* ---- right state from cell i = f + 1 ---- */
            k = (f + 1) * m + j;
            rho_i = rho[k]; u_i = u[k]; p_i = p[k];
            c_i = sqrt(gamma * nmax(p_i, 1e-300) / nmax(rho_i, 1e-300));
            c2 = c_i * c_i;
            lam_m = u_i - c_i;
            lam_0 = u_i;
            lam_p = u_i + c_i;

            double lam_min = nmin(lam_m, 0.0);
            ref_rho = iminus(el_rho[k], er_rho[k], rho_i, -lam_min * dtdx);
            ref_u = iminus(el_u[k], er_u[k], u_i, -lam_min * dtdx);
            ref_p = iminus(el_p[k], er_p[k], p_i, -lam_min * dtdx);
            double wr_rho = ref_rho, wr_u = ref_u, wr_p = ref_p;

            sig = -nmin(lam_p, 0.0) * dtdx;
            d_rho = ref_rho - iminus(el_rho[k], er_rho[k], rho_i, sig);
            d_u = ref_u - iminus(el_u[k], er_u[k], u_i, sig);
            d_p = ref_p - iminus(el_p[k], er_p[k], p_i, sig);
            alpha = (d_p + rho_i * c_i * d_u) / (2.0 * c2);
            mask = lam_p < 0.0 ? 1.0 : 0.0;
            wr_rho -= mask * alpha * 1.0;
            wr_u -= mask * alpha * (c_i / rho_i);
            wr_p -= mask * alpha * c2;

            sig = -nmin(lam_0, 0.0) * dtdx;
            d_rho = ref_rho - iminus(el_rho[k], er_rho[k], rho_i, sig);
            d_u = ref_u - iminus(el_u[k], er_u[k], u_i, sig);
            d_p = ref_p - iminus(el_p[k], er_p[k], p_i, sig);
            alpha = d_rho - d_p / c2;
            mask = lam_0 < 0.0 ? 1.0 : 0.0;
            wr_rho -= mask * alpha * 1.0;
            wr_u -= mask * alpha * 0.0;
            wr_p -= mask * alpha * 0.0;

            sig0 = -nmin(lam_0, 0.0) * dtdx;
            or_rho[o] = wr_rho;
            or_u[o] = wr_u;
            or_v[o] = iminus(el_v[k], er_v[k], v[k], sig0);
            or_w[o] = iminus(el_w[k], er_w[k], w[k], sig0);
            or_p[o] = wr_p;
        }
    }
}

/* Gather + lerp over the channel-major log-rate table (the exp stays in
   NumPy).  (hi - lo) * w + lo matches the reference's in-place
   out -= lo; out *= w; out += lo exactly (no FMA contraction). */
void rk_chem_blend(long n_ch, long n_bins, long n_t, const double *logtab,
    const int64_t *idx, const double *weight, double *out)
{
    for (long c = 0; c < n_ch; c++) {
        const double *row = logtab + c * n_bins;
        double *orow = out + c * n_t;
        for (long j = 0; j < n_t; j++) {
            double lo = row[idx[j]];
            double hi = row[idx[j] + 1];
            orow[j] = (hi - lo) * weight[j] + lo;
        }
    }
}

/* ---- AMR stencil: conservative linear prolongation into fine-index
   boxes, and the level fill around it (reference: amr/interpolation.py
   prolong_boxes, fill_level_numpy) ---- */

/* np.sign: -1, 0, +1, NaN for NaN */
static double sgn(double x) {
    if (x > 0.0) return 1.0;
    if (x < 0.0) return -1.0;
    if (x == 0.0) return 0.0;
    return x;
}

/* np.clip(x, 0.0, 1.0): NaN propagates, -0.0 clips to +0.0 */
static inline double clip01(double x)
{
    double t = x > 0.0 ? x : 0.0;
    t = t < 1.0 ? t : 1.0;
    return (x != x) ? x : t;
}

/* interpolation._limited_slopes for one interior cell */
static double mc_slope(double qm, double q, double qp) {
    double dm = q - qm;
    double dp = qp - q;
    if (dm * dp > 0.0) {
        double centred = 0.5 * (dm + dp);
        return sgn(centred) * nmin(fabs(centred),
                                    2.0 * nmin(fabs(dm), fabs(dp)));
    }
    return 0.0;
}

/* Python's //: floors, so negative (ghost) fine indices map correctly */
static long floor_div(long a, long b) {   /* b > 0 */
    long q = a / b;
    return (a % b != 0 && a < 0) ? q - 1 : q;
}

static long lmax(long a, long b) { return a > b ? a : b; }
static long lmin(long a, long b) { return a < b ? a : b; }

/* parent value at the child's time: old * (1 - frac) + new * frac */
#define TVAL(c) (use_old ? old[c] * omf + new_[c] * frac : new_[c])

/* Prolong one parent field into fine-index boxes of one child array.
   new_/old are the parent's allocated (nx, ny, nz) arrays, read in place;
   (p0, p1, p2) is the coarse index of their first cell, (f0, f1, f2) the
   fine index of fine's first cell, r >= 2.  boxes is an (n_boxes, 6) array
   of fine-index lo, hi corners.  The loop runs over the parent cells under
   each box so slopes are computed once per parent cell; a slope is zero
   only along an axis where the cell sits on the parent array's edge. */
static void prolong_field(long nx, long ny, long nz,
    const double *new_, const double *old, int use_old, double frac,
    int positive, long r, long p0, long p1, long p2,
    double *fine, long fy, long fz, long f0, long f1, long f2,
    long n_boxes, const int64_t *boxes)
{
    double omf = 1.0 - frac;
    double max_off = 0.5 * (1.0 - 1.0 / (double)r);
    long sx = ny * nz, sy = nz;
    for (long b = 0; b < n_boxes; b++) {
        long lo0 = boxes[6 * b], lo1 = boxes[6 * b + 1],
             lo2 = boxes[6 * b + 2];
        long hi0 = boxes[6 * b + 3], hi1 = boxes[6 * b + 4],
             hi2 = boxes[6 * b + 5];
        for (long ci = floor_div(lo0, r); ci < -floor_div(-hi0, r); ci++) {
            long i = ci - p0;
            for (long cj = floor_div(lo1, r); cj < -floor_div(-hi1, r);
                 cj++) {
                long j = cj - p1;
                for (long ck = floor_div(lo2, r); ck < -floor_div(-hi2, r);
                     ck++) {
                    long k = ck - p2;
                    long c = i * sx + j * sy + k;
                    double q = TVAL(c);
                    double s0 = 0.0, s1 = 0.0, s2 = 0.0;
                    if (0 < i && i < nx - 1)
                        s0 = mc_slope(TVAL(c - sx), q, TVAL(c + sx));
                    if (0 < j && j < ny - 1)
                        s1 = mc_slope(TVAL(c - sy), q, TVAL(c + sy));
                    if (0 < k && k < nz - 1)
                        s2 = mc_slope(TVAL(c - 1), q, TVAL(c + 1));
                    if (positive) {
                        double reach = max_off
                            * (fabs(s0) + fabs(s1) + fabs(s2));
                        double scale = 1.0;
                        if (reach > q)
                            scale = q / nmax(reach, 1e-300);
                        scale = clip01(scale);
                        s0 = s0 * scale;
                        s1 = s1 * scale;
                        s2 = s2 * scale;
                    }
                    /* child-centre offsets (m + 0.5) / r - 0.5 */
                    for (long fi = lmax(ci * r, lo0);
                         fi < lmin(ci * r + r, hi0); fi++) {
                        double v0 = q + s0
                            * (((double)(fi - ci * r) + 0.5) / (double)r
                               - 0.5);
                        for (long fj = lmax(cj * r, lo1);
                             fj < lmin(cj * r + r, hi1); fj++) {
                            double v1 = v0 + s1
                                * (((double)(fj - cj * r) + 0.5) / (double)r
                                   - 0.5);
                            double *row = fine
                                + ((fi - f0) * fy + (fj - f1)) * fz - f2;
                            for (long fk = lmax(ck * r, lo2);
                                 fk < lmin(ck * r + r, hi2); fk++)
                                row[fk] = v1 + s2
                                    * (((double)(fk - ck * r) + 0.5)
                                       / (double)r - 0.5);
                        }
                    }
                }
            }
        }
    }
}

/* A growable list of fine-index boxes, six corners each (lo, hi). */
typedef struct { int64_t *b; long n, cap; } boxlist;

static int boxlist_push(boxlist *v, const int64_t *lo, const int64_t *hi)
{
    if (v->n == v->cap) {
        long cap = v->cap ? 2 * v->cap : 64;
        int64_t *b = realloc(v->b, (size_t)cap * 6 * sizeof(int64_t));
        if (!b)
            return -1;
        v->b = b;
        v->cap = cap;
    }
    int64_t *row = v->b + 6 * v->n++;
    for (int d = 0; d < 3; d++) {
        row[d] = lo[d];
        row[d + 3] = hi[d];
    }
    return 0;
}

/* interpolation.subtract_boxes: the parts of box (lo, hi) that none of the
   n_cov covers (copy rows: target, source, lo, hi) touches, appended to
   out; cur and nxt are scratch.  Each cover splits every surviving box
   into up to six remainders, in the reference's order. */
static int subtract_covers(const int64_t *box, long n_cov,
    const int64_t *covers, boxlist *out, boxlist *cur, boxlist *nxt)
{
    cur->n = 0;
    if (boxlist_push(cur, box, box + 3))
        return -1;
    for (long c = 0; c < n_cov && cur->n; c++) {
        const int64_t *clo = covers + 8 * c + 2, *chi = clo + 3;
        nxt->n = 0;
        for (long k = 0; k < cur->n; k++) {
            const int64_t *blo = cur->b + 6 * k, *bhi = blo + 3;
            int64_t ilo[3], ihi[3], lo[3], hi[3];
            int empty = 0;
            for (int d = 0; d < 3; d++) {
                ilo[d] = blo[d] > clo[d] ? blo[d] : clo[d];
                ihi[d] = bhi[d] < chi[d] ? bhi[d] : chi[d];
                empty |= ilo[d] >= ihi[d];
                lo[d] = blo[d];
                hi[d] = bhi[d];
            }
            if (empty) {
                if (boxlist_push(nxt, blo, bhi))
                    return -1;
                continue;
            }
            for (int d = 0; d < 3; d++) {
                if (ilo[d] > lo[d]) {
                    int64_t h[3] = {hi[0], hi[1], hi[2]};
                    h[d] = ilo[d];
                    if (boxlist_push(nxt, lo, h))
                        return -1;
                    lo[d] = ilo[d];
                }
                if (ihi[d] < hi[d]) {
                    int64_t l[3] = {lo[0], lo[1], lo[2]};
                    l[d] = ihi[d];
                    if (boxlist_push(nxt, l, hi))
                        return -1;
                    hi[d] = ihi[d];
                }
            }
        }
        boxlist swap = *cur;
        *cur = *nxt;
        *nxt = swap;
    }
    for (long k = 0; k < cur->n; k++)
        if (boxlist_push(out, cur->b + 6 * k, cur->b + 6 * k + 3))
            return -1;
    return 0;
}

/* Fill n_t targets of one level from their parents and from same-level
   interiors (reference: interpolation.fill_level_numpy).  Target t owns
   the nf arrays fines[t * nf ..] and the row t_geom[7 t ..] (shape,
   origin, parent) and is prolonged at time fraction fracs[t]; parent p
   owns news / olds[p * nf ..] (an old entry NULL: no time interpolation
   for that field) and p_geom[6 p ..] (shape, origin); source s owns
   srcs[s * nf ..] and s_geom[6 s ..].  fill rows are (target, lo, hi),
   copies rows (target, source, lo, hi), both grouped by target.  For each
   target the copy boxes are subtracted from the fill boxes, the rest is
   prolonged (prolong_field, all fields) and the copies are applied.
   Returns -1 when the box scratch cannot be allocated, else 0. */
long rk_fill_level(long nf, long r, const int *positives, long n_t,
    double **fines, const int64_t *t_geom, const double *fracs,
    const double **news, const double **olds, const int64_t *p_geom,
    const double **srcs, const int64_t *s_geom, long n_fill,
    const int64_t *fill, long n_copy, const int64_t *copies)
{
    boxlist frags = {0, 0, 0}, cur = {0, 0, 0}, nxt = {0, 0, 0};
    long status = 0, fi = 0, ci = 0;
    for (long t = 0; t < n_t && status == 0; t++) {
        long f_first = fi, c_first = ci;
        while (fi < n_fill && fill[7 * fi] == t)
            fi++;
        while (ci < n_copy && copies[8 * ci] == t)
            ci++;
        frags.n = 0;
        for (long b = f_first; b < fi && status == 0; b++)
            status = subtract_covers(fill + 7 * b + 1, ci - c_first,
                                     copies + 8 * c_first, &frags, &cur,
                                     &nxt);
        if (status)
            break;
        const int64_t *tg = t_geom + 7 * t, *pg = p_geom + 6 * tg[6];
        double frac = fracs[t];
        for (long f = 0; f < nf; f++) {
            const double *new_ = news[tg[6] * nf + f];
            const double *old = olds[tg[6] * nf + f];
            prolong_field(pg[0], pg[1], pg[2], new_, old ? old : new_,
                          old != 0 && frac < 1.0, frac, positives[f], r,
                          pg[3], pg[4], pg[5], fines[t * nf + f], tg[1],
                          tg[2], tg[3], tg[4], tg[5], frags.n, frags.b);
        }
        for (long c = c_first; c < ci; c++) {
            const int64_t *row = copies + 8 * c, *lo = row + 2, *hi = row + 5;
            const int64_t *sg = s_geom + 6 * row[1];
            long n2 = hi[2] - lo[2];
            if (n2 <= 0)
                continue;
            for (long f = 0; f < nf; f++) {
                const double *src = srcs[row[1] * nf + f];
                double *dst = fines[t * nf + f];
                for (long i = lo[0]; i < hi[0]; i++)
                    for (long j = lo[1]; j < hi[1]; j++)
                        memcpy(dst + ((i - tg[3]) * tg[1] + (j - tg[4]))
                                   * tg[2] + (lo[2] - tg[5]),
                               src + ((i - sg[3]) * sg[1] + (j - sg[4]))
                                   * sg[2] + (lo[2] - sg[5]),
                               (size_t)n2 * sizeof(double));
            }
        }
    }
    free(frags.b);
    free(cur.b);
    free(nxt.b);
    return status;
}

/* ---- multigrid solve of one rim-padded subgrid (reference:
   gravity/multigrid.py solve_numpy) ---- */

/* Red-black Gauss-Seidel sweeps on the interior of rim-padded phi.
   Same-colour cells are never neighbours, so updating in place equals the
   reference's whole-array neighbour sum followed by a masked store (and
   the iterations of a row are independent: the simd pragma). */
static void mg_smooth(long nx, long ny, long nz, double *phi,
    const double *source, double h2, long sweeps)
{
    long py = (ny + 2) * (nz + 2), pz = nz + 2;
    for (long s = 0; s < sweeps; s++) {
        for (long colour = 0; colour < 2; colour++) {
            for (long i = 0; i < nx; i++) {
                for (long j = 0; j < ny; j++) {
                    double *p = phi + (i + 1) * py + (j + 1) * pz + 1;
                    const double *src = source + (i * ny + j) * nz;
                    #pragma omp simd
                    for (long k = (i + j + colour) % 2; k < nz; k += 2) {
                        double nb = p[k + py] + p[k - py];
                        nb += p[k + pz];
                        nb += p[k - pz];
                        nb += p[k + 1];
                        nb += p[k - 1];
                        nb -= src[k] * h2;
                        p[k] = nb / 6.0;
                    }
                }
            }
        }
    }
}

/* out = source - del^2 phi on the interior: the neighbour sum is
   left-associated and divided by dx * dx (never multiplied by a
   reciprocal), like multigrid._residual */
static void mg_residual(long nx, long ny, long nz, const double *phi,
    const double *source, double dx, double *out)
{
    long py = (ny + 2) * (nz + 2), pz = nz + 2;
    double h2 = dx * dx;
    for (long i = 0; i < nx; i++) {
        for (long j = 0; j < ny; j++) {
            const double *p = phi + (i + 1) * py + (j + 1) * pz + 1;
            const double *src = source + (i * ny + j) * nz;
            double *o = out + (i * ny + j) * nz;
            for (long k = 0; k < nz; k++) {
                double lap = p[k + py] + p[k - py];
                lap += p[k + pz];
                lap += p[k - pz];
                lap += p[k + 1];
                lap += p[k - 1];
                lap -= 6.0 * p[k];
                o[k] = src[k] - lap / h2;
            }
        }
    }
}

/* 2x2x2 block average of the (2 cx, 2 cy, 2 cz) array fine, summed in the
   order multigrid._restrict writes out: pairs along the last axis, then
   ((p00 + p01) + p10) + p11 */
static void mg_restrict(long cx, long cy, long cz, const double *fine,
    double *coarse)
{
    long sy = 2 * cz, sx = 2 * cy * sy;
    for (long i = 0; i < cx; i++) {
        for (long j = 0; j < cy; j++) {
            const double *f = fine + 2 * i * sx + 2 * j * sy;
            double *c = coarse + (i * cy + j) * cz;
            for (long k = 0; k < cz; k++, f += 2) {
                double p00 = f[0] + f[1];
                double p01 = f[sy] + f[sy + 1];
                double p10 = f[sx] + f[sx + 1];
                double p11 = f[sx + sy] + f[sx + sy + 1];
                c[k] = (((p00 + p01) + p10) + p11) / 8.0;
            }
        }
    }
}

/* One axis of multigrid._prolong_axis: n rows of `row` contiguous doubles
   in, 2 (n - 2) rows out; each output row rounds 0.25 * far + 0.75 * near
   once. */
static void mg_prolong_rows(long n, long row, const double *in, double *out)
{
    for (long i = 0; i < n - 2; i++) {
        const double *lo = in + i * row, *mid = lo + row, *hi = mid + row;
        double *even = out + 2 * i * row, *odd = even + row;
        for (long k = 0; k < row; k++) {
            even[k] = 0.25 * lo[k] + 0.75 * mid[k];
            odd[k] = 0.75 * mid[k] + 0.25 * hi[k];
        }
    }
}

/* phi interior += trilinear prolongation of the rim-padded coarse error
   (cx + 2, cy + 2, cz + 2): the reference's three separable passes in
   axis order 0, 1, 2, each consuming its axis's rim; the last pass adds
   straight into phi.  t0 holds (2 cx, cy + 2, cz + 2), t1 (2 cx, 2 cy,
   cz + 2). */
static void mg_prolong_add(long cx, long cy, long cz, const double *coarse,
    double *phi, double *t0, double *t1)
{
    long pz = cz + 2, fz = 2 * cz;
    mg_prolong_rows(cx + 2, (cy + 2) * pz, coarse, t0);
    for (long i = 0; i < 2 * cx; i++)
        mg_prolong_rows(cy + 2, pz, t0 + i * (cy + 2) * pz,
                        t1 + i * 2 * cy * pz);
    for (long i = 0; i < 2 * cx; i++) {
        for (long j = 0; j < 2 * cy; j++) {
            const double *b = t1 + (i * 2 * cy + j) * pz;
            double *p = phi + ((i + 1) * (2 * cy + 2) + j + 1) * (fz + 2)
                + 1;
            for (long k = 0; k < cz; k++) {
                p[2 * k] += 0.25 * b[k] + 0.75 * b[k + 1];
                p[2 * k + 1] += 0.75 * b[k + 1] + 0.25 * b[k + 2];
            }
        }
    }
}

/* does a level of this interior shape recurse (else it is only smoothed)? */
static int mg_coarsens(long nx, long ny, long nz, long min_size)
{
    return lmin(nx, lmin(ny, nz)) > min_size
        && nx % 2 == 0 && ny % 2 == 0 && nz % 2 == 0;
}

/* doubles of scratch the coarse problem under one level takes, as mg_cycle
   lays them out: the rim-padded error, its source, its own residual, and
   the two prolongation temporaries t0 (2 cx, cy + 2, cz + 2) and
   t1 (2 cx, 2 cy, cz + 2) */
static long mg_level_work(long cx, long cy, long cz)
{
    return (cx + 2) * (cy + 2) * (cz + 2) + 2 * cx * cy * cz
        + 2 * cx * (cy + 2) * (cz + 2) + 4 * cx * cy * (cz + 2);
}

/* Scratch of one solve on an (nx, ny, nz) interior: the top level's
   residual and every coarse level. */
long rk_mg_work(long nx, long ny, long nz, long min_size)
{
    long need = nx * ny * nz;
    while (mg_coarsens(nx, ny, nz, min_size)) {
        nx /= 2; ny /= 2; nz /= 2;
        need += mg_level_work(nx, ny, nz);
    }
    return need;
}

/* res is scratch for this level's residual, work the arena of the coarse
   levels under it */
static void mg_cycle(long nx, long ny, long nz, double *phi,
    const double *source, double dx, long pre, long post, long min_size,
    double *res, double *work)
{
    if (!mg_coarsens(nx, ny, nz, min_size)) {
        mg_smooth(nx, ny, nz, phi, source, dx * dx, pre + post + 10);
        return;
    }
    long cx = nx / 2, cy = ny / 2, cz = nz / 2;
    long cells = cx * cy * cz, padded = (cx + 2) * (cy + 2) * (cz + 2);
    double *cphi = work, *csrc = cphi + padded, *cres = csrc + cells;
    double *t0 = cres + cells, *t1 = t0 + 2 * cx * (cy + 2) * (cz + 2);
    mg_smooth(nx, ny, nz, phi, source, dx * dx, pre);
    mg_residual(nx, ny, nz, phi, source, dx, res);
    mg_restrict(cx, cy, cz, res, csrc);
    for (long k = 0; k < padded; k++) cphi[k] = 0.0;
    mg_cycle(cx, cy, cz, cphi, csrc, 2.0 * dx, pre, post, min_size, cres,
             work + mg_level_work(cx, cy, cz));
    mg_prolong_add(cx, cy, cz, cphi, phi, t0, t1);
    mg_smooth(nx, ny, nz, phi, source, dx * dx, post);
}

/* sum of x[i] * x[i] over a contiguous run, in the order NumPy's add
   reduction sums a contiguous float64 array (pairwise_sum): a plain
   sequential sum below 8 elements, eight accumulators combined as
   ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)) plus the tail up to 128, and above
   that a split at n/2 rounded down to a multiple of 8 */
static double mg_sum_sq(const double *x, long n)
{
    if (n < 8) {
        double res = 0.0;
        for (long i = 0; i < n; i++) res += x[i] * x[i];
        return res;
    }
    if (n <= 128) {
        double r[8];
        long i;
        for (int j = 0; j < 8; j++) r[j] = x[j] * x[j];
        for (i = 8; i < n - n % 8; i += 8)
            for (int j = 0; j < 8; j++) r[j] += x[i + j] * x[i + j];
        double res = ((r[0] + r[1]) + (r[2] + r[3]))
            + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++) res += x[i] * x[i];
        return res;
    }
    long n2 = n / 2;
    n2 -= n2 % 8;
    return mg_sum_sq(x, n2) + mg_sum_sq(x + n2, n - n2);
}

/* np.sqrt((x**2).mean()) of n contiguous doubles */
double rk_rms(long n, const double *x)
{
    return sqrt(mg_sum_sq(x, n) / (double)n);
}

/* V-cycles in place on rim-padded phi until rms(residual) <= tol *
   rms(source) (an rms(source) of 0 counts as 1) and !force_diverge,
   budget (>= 1) cycles ran, or -- strict -- the residual is not finite.
   work holds rk_mg_work(...) doubles; out gets the cycles run and the
   last relative residual.  Returns whether the solve converged. */
int rk_mg_solve(long nx, long ny, long nz, double *phi,
    const double *source, double dx, long pre, long post, long min_size,
    double tol, long budget, int strict, int force_diverge, double *work,
    double *out)
{
    long cells = nx * ny * nz;
    double *residual = work;
    double norm = rk_rms(cells, source);
    if (norm == 0.0) norm = 1.0;
    for (long cycle = 1; cycle <= budget; cycle++) {
        mg_cycle(nx, ny, nz, phi, source, dx, pre, post, min_size, residual,
                 work + cells);
        mg_residual(nx, ny, nz, phi, source, dx, residual);
        double res = rk_rms(cells, residual);
        out[0] = (double)cycle;
        out[1] = res / norm;
        if (res <= tol * norm && !force_diverge) return 1;
        if (strict && !isfinite(res)) break;
    }
    return 0;
}

/* ---- one sibling pass of a level's subgrid solves (reference:
   gravity/multigrid.py level_numpy) ---- */

/* phi (n0 + 2 ng, n1 + 2 ng, n2 + 2 ng) = the rim-padded solution sol
   (n0 + 2, n1 + 2, n2 + 2), each cell taking sol at its index clamped to
   sol's extent (multigrid.store_phi_numpy): copies only */
static void mg_store(long n0, long n1, long n2, long ng, const double *sol,
    double *phi)
{
    long p0 = n0 + 2 * ng, p1 = n1 + 2 * ng, p2 = n2 + 2 * ng;
    long s1 = n1 + 2, s2 = n2 + 2;
    for (long i = 0; i < p0; i++) {
        long si = lmin(lmax(i - (ng - 1), 0), n0 + 1);
        for (long j = 0; j < p1; j++) {
            long sj = lmin(lmax(j - (ng - 1), 0), n1 + 1);
            const double *src = sol + (si * s1 + sj) * s2;
            double *dst = phi + (i * p1 + j) * p2;
            for (long k = 0; k < ng - 1; k++) dst[k] = src[0];
            memcpy(dst + ng - 1, src, (size_t)s2 * sizeof(double));
            for (long k = ng - 1 + s2; k < p2; k++) dst[k] = src[s2 - 1];
        }
    }
}

/* The rim exchange: rows (target, source, rim_lo[3], phi_lo[3], n[3]) in
   table order; a row's box of the target's rim takes the source's
   potential when any value differs, !(a == b) (NaN differs, -0.0 equals
   0.0: np.array_equal).  Returns whether any row was copied. */
static int mg_exchange(long n_rows, const int64_t *rows,
    const int64_t *dims, long ng, double *rims, const int64_t *rim_off,
    double **phis)
{
    int changed = 0;
    for (long r = 0; r < n_rows; r++) {
        const int64_t *row = rows + 11 * r;
        const int64_t *dt = dims + 3 * row[0], *ds = dims + 3 * row[1];
        long ry = dt[2] + 2, rx = (dt[1] + 2) * ry;
        long py = ds[2] + 2 * ng, px = (ds[1] + 2 * ng) * py;
        double *dst = rims + rim_off[row[0]] + row[2] * rx + row[3] * ry
            + row[4];
        const double *src = phis[row[1]] + row[5] * px + row[6] * py
            + row[7];
        long n0 = row[8], n1 = row[9], n2 = row[10];
        int differs = 0;
        for (long i = 0; i < n0 && !differs; i++)
            for (long j = 0; j < n1 && !differs; j++) {
                const double *a = dst + i * rx + j * ry;
                const double *b = src + i * px + j * py;
                for (long k = 0; k < n2; k++)
                    if (!(a[k] == b[k])) {
                        differs = 1;
                        break;
                    }
            }
        if (!differs)
            continue;
        changed = 1;
        for (long i = 0; i < n0; i++)
            for (long j = 0; j < n1; j++)
                memcpy(dst + i * rx + j * ry, src + i * px + j * py,
                       (size_t)n2 * sizeof(double));
    }
    return changed;
}

/* Grids first .. stop - 1 of a level, in order: copy grid g's rim (n + 2
   per axis, at rims + rim_off[g]) into work, run rk_mg_solve on it with
   the source at src + src_off[g], record (cycles, residual, converged) in
   stats[3 g ..] and write the solution into phis[g] (mg_store).  A strict
   solve that does not converge writes nothing and returns g.  Then, with
   exchange, the rim exchange; *changed reports it.  work holds the
   largest (n + 2)^3 + rk_mg_work(n) of the range.  Returns -1 when every
   grid was solved. */
long rk_mg_level(const int64_t *dims, long ng, double dx, double **phis,
    double *rims, const int64_t *rim_off, const double *src,
    const int64_t *src_off, long first, long stop, long pre, long post,
    long min_size, double tol, long budget, int strict, int force_diverge,
    double *work, double *stats, long n_rows, const int64_t *rows,
    int exchange, int *changed)
{
    *changed = 0;
    for (long g = first; g < stop; g++) {
        const int64_t *d = dims + 3 * g;
        long size = (d[0] + 2) * (d[1] + 2) * (d[2] + 2);
        double out[2];
        memcpy(work, rims + rim_off[g], (size_t)size * sizeof(double));
        int conv = rk_mg_solve(d[0], d[1], d[2], work, src + src_off[g], dx,
                               pre, post, min_size, tol, budget, strict,
                               force_diverge, work + size, out);
        stats[3 * g] = out[0];
        stats[3 * g + 1] = out[1];
        stats[3 * g + 2] = conv;
        if (strict && !conv)
            return g;
        mg_store(d[0], d[1], d[2], ng, work, phis[g]);
    }
    if (exchange)
        *changed = mg_exchange(n_rows, rows, dims, ng, rims, rim_off, phis);
    return -1;
}

/* ---- potential gradient of one grid (reference: amr/gravity.py
   accel_numpy) ---- */

/* out[k] = -np.gradient(phi, dx, axis=k) / a on the (n0, n1, n2) array,
   every extent >= 2: (f[i+1] - f[i-1]) / (2. * dx) inside, (f[1] - f[0]) /
   dx and (f[n-1] - f[n-2]) / dx on the edge planes, then (-d) / a */
void rk_gravity_accel(long n0, long n1, long n2, const double *phi,
    double dx, double a, double *out)
{
    long n[3] = {n0, n1, n2}, cells = n0 * n1 * n2;
    double two_dx = 2. * dx;
    for (long ax = 0; ax < 3; ax++) {
        long m = n[ax], inner = 1;
        for (long d = ax + 1; d < 3; d++) inner *= n[d];
        long outer = cells / (m * inner);
        for (long o = 0; o < outer; o++) {
            for (long i = 0; i < m; i++) {
                long base = (o * m + i) * inner;
                const double *hi = phi + base + (i < m - 1 ? inner : 0);
                const double *lo = phi + base - (i > 0 ? inner : 0);
                double h = (i > 0 && i < m - 1) ? two_dx : dx;
                double *g = out + ax * cells + base;
                for (long k = 0; k < inner; k++)
                    g[k] = -((hi[k] - lo[k]) / h) / a;
            }
        }
    }
}

/* ---- fused hydro step: one grid, one call (reference: hydro/ppm.py
   step_numpy, whose sweeps are sweep_numpy).  A sweep gathers blocks of
   sweep-axis
   pencils into scratch, runs the reconstruction / tracing / Riemann bodies
   above on them and adds only the arithmetic that used to be NumPy-only.
   Pencils are independent within a sweep, so the block size never shows
   in the result. ---- */

/* rows of the work scratch, each one (n, block) array: the six gathered
   fields, pressure, flattening coefficient, two reconstruction scratches,
   left/right face states, parabola edges and their face temporaries
   (tracing only), the five Riemann fluxes, internal-energy flux, contact
   speed and one advected-field flux */
enum { W_Q = 0, W_P = 6, W_FLAT = 7, W_DQ = 8, W_QF = 9, W_SL = 10,
       W_SR = 15, W_EDGE = 20, W_FL = 30, W_FR = 31, W_F = 32,
       W_FEINT = 37, W_UFACE = 38, W_FADV = 39 };
enum { SCHEME_TRACE, SCHEME_PPM_FLATTEN, SCHEME_PPM, SCHEME_PLM,
       SCHEME_FLAT };
enum { SOLVER_HLLC, SOLVER_HLL, SOLVER_TWO_SHOCK };

/* CW84 shock-flattening coefficient (reconstruction.shock_flattening with
   its default omega1 = 0.75, omega2 = 10, epsilon = 0.33); straight-line:
   the ratio and the clipped coefficient of every cell are computed, the
   np.where are selects */
static void flatten_coef(long n, long m, const double *p, const double *u,
    double *f)
{
    for (long k = 0; k < n * m; k++) f[k] = 0.0;
    if (n < 5) return;
    for (long i = 2; i < n - 2; i++) {
        #pragma omp simd
        for (long j = 0; j < m; j++) {
            long k = i * m + j;
            double dp1 = p[k + m] - p[k - m];
            double dp2 = p[k + 2 * m] - p[k - 2 * m];
            double du = u[k + m] - u[k - m];
            double p_min = nmin(p[k + m], p[k - m]);
            double q = dp1 / dp2;
            double ratio = fabs(dp2) > 1e-300 ? q : 1.0;
            double steep = fabs(dp1) / nmax(p_min, 1e-300);
            double f_val = clip01(10.0 * (ratio - 0.75));
            int inside_shock = (du < 0.0) & (steep > 0.33);
            f[k] = inside_shock ? f_val : 0.0;
        }
    }
}

/* reconstruction.apply_flattening, in place on the face states */
static void flatten_states(long n, long m, const double *q, const double *f,
    double *ql, double *qr)
{
    for (long k = 0; k < (n - 1) * m; k++) {
        ql[k] = ql[k] * (1.0 - f[k]) + q[k] * f[k];
        qr[k] = qr[k] * (1.0 - f[k + m]) + q[k + m] * f[k + m];
    }
}

/* interface velocity of the pdV term (ppm.contact_speed); rk_hllc
   returns it with its fluxes, the other solvers need this pass */
static void contact_speed(long n,
    const double *rho_l, const double *u_l, const double *p_l,
    const double *rho_r, const double *u_r, const double *p_r,
    double gamma, double *out)
{
    #pragma omp simd
    for (long i = 0; i < n; i++) {
        double s_l, s_r;
        einfeldt(rho_l[i], u_l[i], p_l[i], rho_r[i], u_r[i], p_r[i], gamma,
                 &s_l, &s_r);
        out[i] = contact(rho_l[i], u_l[i], p_l[i], rho_r[i], u_r[i], p_r[i],
                         s_l, s_r);
    }
}

/* Store field f's fscale-scaled face fluxes fk ((n, mc) scratch, face i
   between cells i and i + 1) of the mc pencils whose interior transverse
   indices are ia, ib (ascending; negative or past the interior for ghost
   pencils) into every face window of this axis.  win holds n_win rows
   (axis, lo_face, hi_face, a_lo, a_hi, b_lo, b_hi) in interior indices,
   outs[w] their (2, nf, a_hi - a_lo, b_hi - b_lo) blocks (side 0: face
   lo_face, side 1: hi_face; -1: none); interior face j is face lo + j. */
static void store_windows(long axis, long n_win, const int64_t *win,
    double **outs, long nf, long f, const double *fk, double fscale,
    long lo, long mc, const int64_t *ia, const int64_t *ib)
{
    for (long w = 0; w < n_win; w++) {
        const int64_t *r = win + 7 * w;
        /* pencils run through a in ascending order */
        if (r[0] != axis || r[4] <= ia[0] || r[3] > ia[mc - 1]) continue;
        long wa = r[4] - r[3], wb = r[6] - r[5];
        for (long side = 0; side < 2; side++) {
            if (r[1 + side] < 0) continue;
            const double *src = fk + (lo + r[1 + side]) * mc;
            double *out = outs[w] + (side * nf + f) * wa * wb;
            for (long jj = 0; jj < mc; jj++) {
                long a = ia[jj] - r[3], b = ib[jj] - r[5];
                if (a >= 0 && a < wa && b >= 0 && b < wb)
                    out[a * wb + b] = fscale * src[jj];
            }
        }
    }
}

/* One directional sweep of one grid.  q holds the nq C-order field arrays
   (rho, u, v, w, e_tot, e_int, *advected) with u the velocity along axis;
   the pencils a_lo <= a < a_hi, b_lo <= b < b_hi of the two transverse
   axes (ascending axis order) are updated in place, and they cover every
   interior pencil (ppm.pencil_boxes), so every face window of this axis
   (store_windows; nf = nq - 1 rows in flux_correction._CONSERVED +
   advected order, the internal-energy flux stored nowhere) is filled in
   full with the fscale-scaled fluxes; counts the five floor counts (face
   density, face pressure, density, internal, energy) of the swept
   pencils.  work is (SWEEP_SLOTS, n * mb) double scratch and cols (3, mb)
   integer scratch.  Flattened: every body it calls is compiled into each
   LANES copy. */
LANES __attribute__((flatten))
static void rk_sweep(long nq, double **q, long n0, long n1, long n2,
    long axis, long ng, long a_lo, long a_hi, long b_lo, long b_hi,
    double dtdx, double fscale, double gamma, long scheme, long solver,
    double dfloor, double efloor, long n_win, const int64_t *win,
    double **outs, int64_t *counts, double *work, long mb, int64_t *cols)
{
    long n, s, sa, sb;
    if (axis == 0) { n = n0; s = n1 * n2; sa = n2; sb = 1; }
    else if (axis == 1) { n = n1; s = n2; sa = n1 * n2; sb = 1; }
    else { n = n2; s = 1; sa = n1 * n2; sb = n2; }
    /* the window row of each swept field: the transverse velocities
       follow u in ascending axis order, e_int has none */
    long t1 = axis == 0 ? 1 : 0, t2 = axis == 2 ? 1 : 2;
    long frow[6] = {0, 1 + axis, 1 + t1, 1 + t2, 4, -1};
    long pb = b_hi - b_lo, m = (a_hi - a_lo) * pb;
    long lo = ng - 1, hi = n - ng;  /* faces lo .. hi-1 bound the band */
    double p_floor = (gamma - 1.0) * dfloor * efloor;
    double eint_floor = dfloor * efloor;
    int64_t *base = cols, *ia = cols + mb, *ib = cols + 2 * mb;
    long row = n * mb;              /* one scratch row */
    for (long k = 0; k < 5; k++) counts[k] = 0;

    for (long c0 = 0; c0 < m; c0 += mb) {
        long mc = lmin(mb, m - c0);
        long size = n * mc;
        for (long jj = 0; jj < mc; jj++) {
            long a = a_lo + (c0 + jj) / pb, b = b_lo + (c0 + jj) % pb;
            base[jj] = a * sa + b * sb;
            ia[jj] = a - ng;
            ib[jj] = b - ng;
        }
        for (long k = 0; k < 6; k++) {
            const double *src = q[k];
            double *buf = work + (W_Q + k) * row;
            for (long i = 0; i < n; i++)
                for (long jj = 0; jj < mc; jj++)
                    buf[i * mc + jj] = src[base[jj] + i * s];
        }
        double *rho = work + W_Q * row, *u = work + (W_Q + 1) * row;
        double *v = work + (W_Q + 2) * row, *w = work + (W_Q + 3) * row;
        double *etot = work + (W_Q + 4) * row;
        double *eint = work + (W_Q + 5) * row;
        double *p = work + W_P * row;
        for (long k = 0; k < size; k++)
            p[k] = (gamma - 1.0) * rho[k] * eint[k];

        /* ---- face states of (rho, u, v, w, p) ---- */
        double *dq = work + W_DQ * row, *qf = work + W_QF * row;
        double *sl = work + W_SL * row, *sr = work + W_SR * row;
        if (scheme == SCHEME_TRACE) {
            double *fl = work + W_FL * row, *fr = work + W_FR * row;
            double *edge = work + W_EDGE * row;
            for (long k = 0; k < 5; k++) {
                const double *qk = (k == 4) ? p : work + (W_Q + k) * row;
                if (n < 6) rk_plm(n, mc, qk, fl, fr);
                else rk_ppm(n, mc, qk, fl, fr, dq, qf);
                /* cell i's left edge is face i-1's right state, its right
                   edge face i's left state (tracing._parabola) */
                double *el = edge + 2 * k * row, *er = el + row;
                for (long jj = 0; jj < mc; jj++) {
                    el[jj] = qk[jj];
                    er[(n - 1) * mc + jj] = qk[(n - 1) * mc + jj];
                }
                for (long t = 0; t < (n - 1) * mc; t++) {
                    el[t + mc] = fr[t];
                    er[t] = fl[t];
                }
            }
            rk_trace(n, mc, rho, u, v, w, p,
                     edge, edge + row, edge + 2 * row, edge + 3 * row,
                     edge + 4 * row, edge + 5 * row, edge + 6 * row,
                     edge + 7 * row, edge + 8 * row, edge + 9 * row,
                     dtdx, gamma,
                     sl, sl + row, sl + 2 * row, sl + 3 * row, sl + 4 * row,
                     sr, sr + row, sr + 2 * row, sr + 3 * row, sr + 4 * row);
        } else {
            double *flat = work + W_FLAT * row;
            if (scheme == SCHEME_PPM_FLATTEN) flatten_coef(n, mc, p, u, flat);
            for (long k = 0; k < 5; k++) {
                const double *qk = (k == 4) ? p : work + (W_Q + k) * row;
                double *ql = sl + k * row, *qr = sr + k * row;
                if (scheme == SCHEME_FLAT) {
                    for (long t = 0; t < (n - 1) * mc; t++) {
                        ql[t] = qk[t];
                        qr[t] = qk[t + mc];
                    }
                } else if (scheme == SCHEME_PLM || n < 6)
                    rk_plm(n, mc, qk, ql, qr);
                else
                    rk_ppm(n, mc, qk, ql, qr, dq, qf);
                if (scheme == SCHEME_PPM_FLATTEN)
                    flatten_states(n, mc, qk, flat, ql, qr);
            }
        }

        /* ---- positivity at faces (all n-1 of them are counted) ---- */
        for (long side = 0; side < 2; side++) {
            double *d = work + (W_SL + 5 * side) * row, *pf = d + 4 * row;
            int64_t n_d = 0, n_p = 0;
            #pragma omp simd reduction(+:n_d, n_p)
            for (long t = 0; t < (n - 1) * mc; t++) {
                n_d += d[t] < dfloor;
                d[t] = nmax(d[t], dfloor);
                n_p += pf[t] < p_floor;
                pf[t] = nmax(pf[t], p_floor);
            }
            counts[0] += n_d;
            counts[1] += n_p;
        }

        /* ---- Riemann fluxes and contact speed on the faces in use ---- */
        long f_lo = lo * mc, nface = (hi - lo) * mc;
        double *g = work + W_F * row;
        double *u_face = work + W_UFACE * row;
        if (solver == SOLVER_HLLC)
            rk_hllc(nface, sl + f_lo, sl + row + f_lo, sl + 2 * row + f_lo,
                    sl + 3 * row + f_lo, sl + 4 * row + f_lo,
                    sr + f_lo, sr + row + f_lo, sr + 2 * row + f_lo,
                    sr + 3 * row + f_lo, sr + 4 * row + f_lo, gamma,
                    g + f_lo, g + row + f_lo, g + 2 * row + f_lo,
                    g + 3 * row + f_lo, g + 4 * row + f_lo, u_face + f_lo);
        else if (solver == SOLVER_HLL)
            rk_hll(nface, sl + f_lo, sl + row + f_lo, sl + 2 * row + f_lo,
                   sl + 3 * row + f_lo, sl + 4 * row + f_lo,
                   sr + f_lo, sr + row + f_lo, sr + 2 * row + f_lo,
                   sr + 3 * row + f_lo, sr + 4 * row + f_lo, gamma,
                   g + f_lo, g + row + f_lo, g + 2 * row + f_lo,
                   g + 3 * row + f_lo, g + 4 * row + f_lo);
        else
            rk_two_shock(nface, sl + f_lo, sl + row + f_lo,
                         sl + 2 * row + f_lo, sl + 3 * row + f_lo,
                         sl + 4 * row + f_lo,
                         sr + f_lo, sr + row + f_lo, sr + 2 * row + f_lo,
                         sr + 3 * row + f_lo, sr + 4 * row + f_lo, gamma,
                         g + f_lo, g + row + f_lo, g + 2 * row + f_lo,
                         g + 3 * row + f_lo, g + 4 * row + f_lo);
        if (solver != SOLVER_HLLC)
            contact_speed(nface, sl + f_lo, sl + row + f_lo,
                          sl + 4 * row + f_lo, sr + f_lo, sr + row + f_lo,
                          sr + 4 * row + f_lo, gamma, u_face + f_lo);

        /* ---- internal energy advects with the mass flux ---- */
        double *f_rho = g, *f_mu = g + row, *f_mv = g + 2 * row;
        double *f_mw = g + 3 * row, *f_e = g + 4 * row;
        double *f_eint = work + W_FEINT * row;
        #pragma omp simd
        for (long t = lo * mc; t < hi * mc; t++) {
            double frac_l = rho[t] * eint[t] / rho[t];
            double frac_r = rho[t + mc] * eint[t + mc] / rho[t + mc];
            f_eint[t] = f_rho[t] * (f_rho[t] > 0.0 ? frac_l : frac_r);
        }

        /* ---- scaled fluxes into the face windows ---- */
        for (long k = 0; k < 5; k++)
            store_windows(axis, n_win, win, outs, nq - 1, frow[k],
                          g + k * row, fscale, lo, mc, ia, ib);

        /* ---- conservative update of the interior band ---- */
        int64_t n_rho = 0, n_eint = 0, n_etot = 0;
        double *q0 = q[0], *q1 = q[1], *q2 = q[2], *q3 = q[3], *q4 = q[4],
               *q5 = q[5];
        for (long i = ng; i < n - ng; i++) {
            #pragma omp simd reduction(+:n_rho, n_eint, n_etot)
            for (long jj = 0; jj < mc; jj++) {
                long t = i * mc + jj;
                double r_old = rho[t];
                double rho_new = r_old + -dtdx * (f_rho[t] - f_rho[t - mc]);
                n_rho += rho_new < dfloor;
                rho_new = nmax(rho_new, dfloor);
                double mom_u = r_old * u[t] - dtdx * (f_mu[t] - f_mu[t - mc]);
                double mom_v = r_old * v[t] - dtdx * (f_mv[t] - f_mv[t - mc]);
                double mom_w = r_old * w[t] - dtdx * (f_mw[t] - f_mw[t - mc]);
                double etot_new = r_old * etot[t]
                    - dtdx * (f_e[t] - f_e[t - mc]);
                /* advection + pdV work with the interface velocities */
                double eint_new = r_old * eint[t]
                    - dtdx * (f_eint[t] - f_eint[t - mc])
                    - p[t] * dtdx * (u_face[t] - u_face[t - mc]);
                n_eint += eint_new < eint_floor;
                eint_new = nmax(eint_new, eint_floor);
                double etot_spec = etot_new / rho_new;
                n_etot += etot_spec < efloor;
                long c = base[jj] + i * s;
                q0[c] = rho_new;
                q1[c] = mom_u / rho_new;
                q2[c] = mom_v / rho_new;
                q3[c] = mom_w / rho_new;
                q4[c] = nmax(etot_spec, efloor);
                q5[c] = eint_new / rho_new;
            }
        }
        counts[2] += n_rho;
        counts[3] += n_eint;
        counts[4] += n_etot;

        /* ---- advected fields ride the mass flux ---- */
        double *f_adv = work + W_FADV * row;
        for (long k = 6; k < nq; k++) {
            double *src = q[k];
            for (long i = lo; i < hi; i++) {
                #pragma omp simd
                for (long jj = 0; jj < mc; jj++) {
                    long t = i * mc + jj, c = base[jj] + i * s;
                    double frac_l = src[c] / rho[t];
                    double frac_r = src[c + s] / rho[t + mc];
                    f_adv[t] = f_rho[t] * (f_rho[t] > 0.0 ? frac_l : frac_r);
                }
            }
            store_windows(axis, n_win, win, outs, nq - 1, k - 1, f_adv,
                          fscale, lo, mc, ia, ib);
            for (long i = ng; i < n - ng; i++) {
                #pragma omp simd
                for (long jj = 0; jj < mc; jj++) {
                    long t = i * mc + jj, c = base[jj] + i * s;
                    src[c] = nmax(
                        src[c] - dtdx * (f_adv[t] - f_adv[t - mc]), 0.0);
                }
            }
        }
    }
}

/* gravity kick of cell c (sources.apply_acceleration): per axis in order,
   v_new = v + g dt and E += ((0.5 (v + v_new)) g) dt */
static inline void step_kick(long c, double **q, const double *g,
    long cells, double dt)
{
    for (long i = 0; i < 3; i++) {
        double v = q[1 + i][c], gi = g[i * cells + c];
        double v_new = v + gi * dt;
        q[4][c] += 0.5 * (v + v_new) * gi * dt;
        q[1 + i][c] = v_new;
    }
}

/* One PPMSolver step of one grid.  q holds the nq C-order field arrays
   (rho, vx, vy, vz, e_tot, e_int, *advected) of shape (n0, n1, n2),
   updated in place; accel is NULL or (3, n0, n1, n2), drag NULL or the
   (velocity, internal energy) expansion factors.  The first half kick
   covers every cell, the sweeps run in order (permute + k) % 3 over the
   boxes of ppm.pencil_boxes, and the second half kick, drag, dual-energy
   sync (eta, efloor) and internal-energy floor are cell-local, on the
   active zone (every cell when full_update).  The sweeps store their
   dt/a-scaled fluxes in the n_win face windows win / outs (rk_sweep) and
   nowhere else; counts gets the 16 floor counts: five per sweep, then the
   cells the final floor changed.  work is (SWEEP_SLOTS, max(n) * mb)
   double scratch and cols (3, mb) integer scratch, both owned by this
   call. */
LANES void rk_step(long nq, double **q, const double *accel, long n0,
    long n1, long n2, long ng, double dx, double dt, double a, long permute,
    int full_update, double gamma, long scheme, long solver, double dfloor,
    double efloor, double eta, const double *drag, long n_win,
    const int64_t *win, double **outs, int64_t *counts, double *work,
    long mb, int64_t *cols)
{
    long n[3] = {n0, n1, n2}, cells = n0 * n1 * n2;
    double hdt = 0.5 * dt;
    if (accel)
        for (long c = 0; c < cells; c++) step_kick(c, q, accel, cells, hdt);

    double *qs[nq];
    for (long k = 0; k < 3; k++) {
        long axis = (permute + k) % 3, box[4], b = 0, s = 0;
        for (long t = 0; t < 3; t++) {
            if (t == axis) continue;
            int whole = full_update;
            for (long later = k + 1; later < 3; later++)
                whole |= (permute + later) % 3 == t;
            box[b++] = whole ? 0 : ng;
            box[b++] = whole ? n[t] : n[t] - ng;
        }
        /* the sweep-axis velocity rides in the second slot */
        qs[s++] = q[0];
        qs[s++] = q[1 + axis];
        for (long d = 0; d < 3; d++)
            if (d != axis) qs[s++] = q[1 + d];
        for (long f = 4; f < nq; f++) qs[s++] = q[f];
        long m = (box[1] - box[0]) * (box[3] - box[2]);
        rk_sweep(nq, qs, n0, n1, n2, axis, ng, box[0], box[1], box[2],
                 box[3], dt / (a * dx), dt / a, gamma, scheme, solver,
                 dfloor, efloor, n_win, win, outs, counts + 5 * k, work,
                 lmin(mb, m), cols);
    }

    long lo = full_update ? 0 : ng;
    int64_t floored = 0;
    for (long i = lo; i < n0 - lo; i++) {
        for (long j = lo; j < n1 - lo; j++) {
            for (long c = (i * n1 + j) * n2 + lo; c < (i * n1 + j + 1) * n2
                 - lo; c++) {
                if (accel) step_kick(c, q, accel, cells, hdt);
                if (drag) {    /* sources.apply_drag */
                    for (long v = 1; v < 4; v++) q[v][c] *= drag[0];
                    q[5][c] *= drag[1];
                    double vx = q[1][c], vy = q[2][c], vz = q[3][c];
                    q[4][c] = q[5][c] + 0.5 * (vx * vx + vy * vy + vz * vz);
                }
                dual_sync(c, q, q[5], eta, efloor);
                /* eos.internal_energy_floor */
                if (q[5][c] < efloor) floored += 1;
                double eint = nmax(q[5][c], efloor);
                double vx = q[1][c], vy = q[2][c], vz = q[3][c];
                q[5][c] = eint;
                q[4][c] = nmax(q[4][c], eint + 0.5 * (vx * vx + vy * vy
                                                      + vz * vz));
            }
        }
    }
    counts[15] = floored;
}

/* ---- fused chemistry step: one substep of every active cell of one grid
   (reference: chemistry/network.py step_numpy, which spells the same
   arithmetic as whole-array NumPy).  The species / channels structs, their
   LOAD/STORE macros, TOTAL_DENSITY and the constants come from
   _chem_layout().  exp/log/pow never appear here: the table pass (np.log,
   rk_chem_blend, np.exp) runs between calls, and HI**3 is np.power -- not
   correctly rounded, unlike the square -- so it arrives precomputed in
   `cube`.

   The cell body is straight-line: every np.where is a select between two
   values computed unconditionally and every load is unconditional, so the
   compiler can run cells in SIMD lanes (elementwise IEEE arithmetic, no
   contraction: lane width never shows in the result). ---- */

/* species.electron_density */
static inline double electrons(const species *n)
{
    return n->HII + n->HeII + 2.0 * n->HeIII + n->H2II + n->DII - n->HM;
}

/* ChemistryNetwork.temperature */
static inline double temperature(const species *n, double e, double rho)
{
    double n_tot = nmax(TOTAL_DENSITY(*n), 1e-300);
    return nmax((2.0 / 3.0) * e * rho / (n_tot * K_BOLTZ), 1.0);
}

/* cooling.cooling_rate_from_channels: atomic + H2 + HD + Compton; T is the
   raw temperature, every term clamps it with _g itself */
static inline double cooling(const species *n, double T, const channels *ch,
    double t_cmb, double compton)
{
    double Tg = nmax(T, 1.0);
    double ne = nmax(electrons(n), 0.0);
    double rate = 0.0;
    rate += ch->ce_HI * ne * n->HI;
    rate += ch->ce_HeII * ne * n->HeII;
    rate += ch->ci_HI * ne * n->HI;
    rate += ch->ci_HeI * ne * n->HeI;
    rate += ch->ci_HeII * ne * n->HeII;
    rate += ch->rec_HII * ne * n->HII;
    rate += ch->rec_HeII * ne * n->HeII;
    rate += ch->rec_HeIII * ne * n->HeIII;
    rate += ch->diel_HeII * ne * n->HeII;
    rate += ch->brem * ne * (n->HII + n->HeII + 4.0 * n->HeIII);
    double atomic = Tg < 10.0 ? 0.0 : rate;

    double n_h = nmax(n->HI, 1e-300);
    double ldl = Tg > 1e4 ? H2_LDL_HI : ch->h2_ldl_branch;
    ldl = Tg < 10.0 ? H2_LDL_LO : ldl;
    double low = ldl * n_h;
    double per_h2 = ch->h2_lte / (1.0 + ch->h2_lte / nmax(low, 1e-300));
    double h2_out = n->H2I * per_h2;
    double h2 = Tg < 10.0 ? 0.0 : h2_out;

    double hd = n->HDI * nmax(n->HI, 0.0) / 1e3 * ch->hd / 1e3;
    return atomic + h2 + hd + compton * ne * (Tg - t_cmb);
}

/* linearised backward-Euler update (positive by construction) */
static inline double be(double old, double create, double destroy, double dt)
{
    return (old + dt * create) / (1.0 + dt * destroy);
}

/* one substep of cell c, the j-th active one */
static inline __attribute__((always_inline)) void chem_cell(long c, long j,
    long n_cells, long n_act, double *state, double *e, const double *rho,
    const double *budgets, double *t_done, int64_t *counts, double *T,
    const double *cube, const double *block, double dt, double dt_floor,
    double t_cmb, double compton, double safety, long max_substeps)
{
    species n;
    channels ch;
    LOAD_SPECIES(n, state + c, n_cells)
    LOAD_CHANNELS(ch, block + j, n_act)
    double ea = e[c], ra = rho[c], Tj = T[j], hi3 = cube[j];
    double h0 = budgets[c], he0 = budgets[n_cells + c],
           d0 = budgets[2 * n_cells + c];

    /* RateTable._assemble_rates: the piecewise fits switch branch on the
       clipped temperature (np.clip: NaN stays NaN); d1 = k2 */
    double Tc = nmin(nmax(Tj, T_MIN), T_MAX);
    double k1 = ch.k1, k2 = ch.k2, k3 = ch.k3, k4 = ch.k4, k5 = ch.k5,
           k6 = ch.k6, k7 = ch.k7, k8 = ch.k8, k10 = ch.k10, k11 = ch.k11,
           k12 = ch.k12, k13 = ch.k13, k16 = ch.k16, k18 = ch.k18,
           k22 = ch.k22, k23 = ch.k23, d1 = ch.k2, d2 = ch.d2, d3 = ch.d3,
           d4 = ch.d4, d5 = ch.d5;
    double k9 = Tc < 6700.0 ? ch.k9_low : ch.k9_high;
    double k14 = Tc / 11604.5 > 0.04 ? ch.k14_branch : 0.0;

    /* ---- the cell's own substep: cooling and electron timescales ---- */
    double lam = cooling(&n, Tj, &ch, t_cmb, compton);
    double edot = fabs(lam) / nmax(ra, 1e-300);
    double t_cool = ea / nmax(edot, 1e-300);
    t_cool = edot > 0.0 ? t_cool : INFINITY;
    double ne = nmax(electrons(&n), 1e-300);
    double ne_dot = fabs(k1 * n.HI * ne - k2 * n.HII * ne);
    double t_elec = ne / nmax(ne_dot, 1e-300);
    t_elec = ne_dot > 0.0 ? t_elec : INFINITY;
    double limit = nmin(t_cool, t_elec);
    double remaining = dt - t_done[c];
    double dts = nmin(remaining, nmax(safety * limit, dt_floor));
    /* a cell at the substep cap integrates its remainder in one step */
    dts = counts[c] >= max_substeps - 1 ? remaining : dts;

    /* ---- H+ / H and He ladder (with current electron density) ---- */
    ne = nmax(electrons(&n), 0.0);
    double hi = n.HI, hii = n.HII;
    n.HII = be(hii, k1 * hi * ne, k2 * ne, dts);
    n.HeII = be(n.HeII, k3 * n.HeI * ne + k6 * n.HeIII * ne,
                (k4 + k5) * ne, dts);
    n.HeIII = be(n.HeIII, k5 * n.HeII * ne, k6 * ne, dts);
    n.HeI = be(n.HeI, k4 * n.HeII * ne, k3 * ne, dts);

    /* ---- fast species in equilibrium ---- */
    hii = n.HII;
    double denom_hm = k8 * hi + k14 * ne + k16 * hii;
    double hm = k7 * hi * ne / nmax(denom_hm, 1e-300);
    n.HM = denom_hm > 0.0 ? hm : 0.0;
    double denom_h2p = k10 * hi + k18 * ne;
    double h2p = (k9 * hi * hii + k11 * n.H2I * hii)
        / nmax(denom_h2p, 1e-300);
    n.H2II = denom_h2p > 0.0 ? h2p : 0.0;

    /* ---- molecular hydrogen ---- */
    double h2 = n.H2I;
    double rate_3b = k22 * hi3 + k23 * (hi * hi) * h2;
    double c_h2 = k8 * n.HM * hi + k10 * n.H2II * hi + d5 * n.HDI * hii
        + rate_3b;
    double d_h2 = k11 * hii + k12 * ne + k13 * hi + d4 * n.DII;
    n.H2I = be(h2, c_h2, d_h2, dts);

    /* ---- neutral hydrogen (k13 yields net +2 H) ---- */
    double c_hi = k2 * hii * ne
        + 2.0 * k12 * h2 * ne
        + 2.0 * k13 * h2 * hi
        + k11 * h2 * hii
        + 2.0 * k16 * n.HM * hii
        + 2.0 * k18 * n.H2II * ne
        + k14 * n.HM * ne
        + d2 * n.DI * hii;
    double d_hi = k1 * ne
        + k7 * ne
        + k8 * n.HM
        + k9 * hii
        + k10 * n.H2II
        + d3 * n.DII
        + (2.0 * k22 * (hi * hi) + 2.0 * k23 * hi * h2);
    n.HI = be(hi, c_hi, d_hi, dts);

    /* ---- deuterium ---- */
    double di = n.DI, dii = n.DII, hd = n.HDI;
    n.DII = be(dii, d2 * di * hii + d5 * hd * hii,
               d1 * ne + d3 * n.HI + d4 * n.H2I, dts);
    n.DI = be(di, d1 * n.DII * ne + d3 * n.DII * n.HI, d2 * hii, dts);
    n.HDI = be(hd, d4 * n.DII * n.H2I, d5 * hii, dts);

    /* ---- electrons from charge neutrality ---- */
    n.de = nmax(electrons(&n), 0.0);

    /* ---- thermal energy: updated densities at the start-of-step
       temperature, semi-implicit in e ---- */
    lam = cooling(&n, Tj, &ch, t_cmb, compton)
        - H2_BINDING * rate_3b + H2_BINDING * k13 * h2 * hi;
    double cool_pos = nmax(lam, 0.0) / nmax(ra, 1e-300);
    double heat = nmax(-lam, 0.0) / nmax(ra, 1e-300);
    double e_new = (ea + dts * heat)
        / (1.0 + dts * cool_pos / nmax(ea, 1e-300));
    /* ChemistryNetwork.energy_from_temperature at T_cmb */
    double e_floor = 1.5 * TOTAL_DENSITY(n) * K_BOLTZ * t_cmb
        / nmax(ra, 1e-300);
    e_new = nmax(e_new, nmin(ea, e_floor));
    ea = nmax(e_new, 1e-300);

    /* ---- ChemistryNetwork._renormalise: HD capped at the deuterium
       budget first, then D, H and He rescaled onto their budgets (a
       species with nothing to rescale keeps a factor 1.0: x * 1.0 is x,
       bit for bit) ---- */
    n.HDI = nmin(n.HDI, d0);
    double d_free = nmax(d0 - n.HDI, 0.0);
    double cur_d = n.DI + n.DII;
    double f_d = d_free / nmax(cur_d, 1e-300);
    f_d = cur_d > 0.0 ? f_d : 1.0;
    n.DI *= f_d;
    n.DII *= f_d;
    double h_free = nmax(h0 - n.HDI, 0.0);
    double cur_h = n.HI + n.HII + n.HM + 2.0 * (n.H2I + n.H2II);
    double f_h = h_free / nmax(cur_h, 1e-300);
    f_h = cur_h > 0.0 ? f_h : 1.0;
    n.HI *= f_h;
    n.HII *= f_h;
    n.HM *= f_h;
    n.H2I *= f_h;
    n.H2II *= f_h;
    double cur_he = n.HeI + n.HeII + n.HeIII;
    double f_he = he0 / nmax(cur_he, 1e-300);
    f_he = cur_he > 0.0 ? f_he : 1.0;
    n.HeI *= f_he;
    n.HeII *= f_he;
    n.HeIII *= f_he;
    n.de = nmax(electrons(&n), 0.0);

    STORE_SPECIES(n, state + c, n_cells)
    e[c] = ea;
    t_done[c] += dts;
    counts[c] += 1;
    T[j] = temperature(&n, ea, ra);
}

/* state is (12, n_cells) and budgets (3, n_cells); e, rho, t_done, counts
   are (n_cells,).  active (n_act,) holds strictly increasing cell indices;
   T (n_act,) their temperature on entry and their new temperature on
   return; cube (n_act,) their HI**3; block (channels, n_act) their
   coefficients.  Cells are independent, so neither the loop order nor the
   lane width shows in the result. */
LANES void rk_chem_step(long n_cells, long n_act, double *state,
    double *e, const double *rho, const double *budgets, double *t_done,
    int64_t *counts, const int64_t *active, double *T, const double *cube,
    const double *block, double dt, double dt_floor, double t_cmb,
    double compton, double safety, long max_substeps)
{
    /* the first iteration of every grid has all cells in flight: unit
       stride instead of gather/scatter */
    int all_cells = n_act == n_cells;
    for (long j = 0; all_cells && j < n_act; j++)
        all_cells = active[j] == j;
    if (all_cells) {
        #pragma omp simd
        for (long j = 0; j < n_act; j++)
            chem_cell(j, j, n_cells, n_act, state, e, rho, budgets, t_done,
                      counts, T, cube, block, dt, dt_floor, t_cmb, compton,
                      safety, max_substeps);
    } else {
        #pragma omp simd
        for (long j = 0; j < n_act; j++)
            chem_cell(active[j], j, n_cells, n_act, state, e, rho, budgets,
                      t_done, counts, T, cube, block, dt, dt_floor, t_cmb,
                      compton, safety, max_substeps);
    }
}
/* ---- coarse-fine flux correction: every child of one parent in one call
   (reference: amr/flux_correction.py correct_numpy).  The reference syncs
   the internal energy from the total over the whole parent after every
   child.  A sync (hydro/state.py sync_internal_from_total) is elementwise
   and writes only (internal, energy), so each cell here gets the same
   syncs lazily: count[c] says how many it has had; a cell is brought up
   to j before child j corrects it and synced once after that child's six
   faces, and every cell is brought up to the child count at the end.  A
   sync that leaves (internal, energy) bit-identical is a fixed point, so
   the syncs still owed are no-ops and are skipped (the argument of the
   two-shock early exit). ---- */

static inline uint64_t fbits(double x)
{
    uint64_t u;
    memcpy(&u, &x, sizeof u);
    return u;
}

/* the sync at its defaults; q holds density, vx, vy, vz, energy and the
   advected fields, ie the internal energy */
static inline void fc_sync(long c, double **q, double *ie)
{
    dual_sync(c, q, ie, SYNC_ETA, SYNC_FLOOR);
}

static void fc_catch_up(long c, int32_t target, int32_t *count, double **q,
    double *ie)
{
    while (count[c] < target) {
        uint64_t e0 = fbits(q[4][c]), i0 = fbits(ie[c]);
        fc_sync(c, q, ie);
        if (fbits(q[4][c]) == e0 && fbits(ie[c]) == i0)
            count[c] = target;
        else
            count[c] += 1;
    }
}

/* flux_correction.face_cell's out_cell: the parent cell plane outside one
   face of a child (0: the face is on the parent's own, non-periodic
   boundary); the parent's flux through the face is the child's coarse
   plane, so its index is not needed here */
static int fc_face(const int64_t *reg, long ax, long side, long n_ax,
    int periodic, long *out_cell)
{
    long out = side ? reg[3 + ax] : reg[ax] - 1;
    if (out < 0 || out >= n_ax) {
        if (!periodic) return 0;
        out = out < 0 ? n_ax - 1 : 0;
    }
    *out_cell = out;
    return 1;
}

/* flux_correction.block_average at r = 2 of the 2 x 2 fine block at p (row:
   the fine plane's row length); flat: the coarse face is one cell wide
   along its last axis, where NumPy sums the four as one run */
static inline double fc_average(const double *p, long row, int flat)
{
    double t = flat ? ((p[0] + p[1]) + p[row]) + p[row + 1]
                    : (p[0] + p[1]) + (p[row] + p[row + 1]);
    return (t + 0.0) / 4.0;
}

/* q: the nf corrected parent fields (density, vx, vy, vz, energy,
   advected...) and ie the internal energy, each (n0 + 2 ng, n1 + 2 ng,
   n2 + 2 ng).  Child j: regions[6 j ..] its parent-local interior lo, hi
   corners, blocks[3 j + ax] its (2, nf, 2 m1, 2 m2) lo/hi fine face sums,
   coarse[3 j + ax] the parent's own (2, nf, m1, m2) flux planes at those
   two faces and present[(3 j + ax) nf + f] whether field f was
   accumulated.  count is zeroed scratch, one per parent cell. */
void rk_flux_correct(long nf, double **q, double *ie, long n0, long n1,
    long n2, long ng, double dx, const int *periodic, long n_children,
    const int64_t *regions, const double **blocks, const double **coarse,
    const int8_t *present, int32_t *count)
{
    long n[3] = {n0, n1, n2};
    long s[3] = {(n1 + 2 * ng) * (n2 + 2 * ng), n2 + 2 * ng, 1};
    for (long j = 0; j < n_children; j++) {
        const int64_t *reg = regions + 6 * j;
        /* pass 0 corrects the six faces, pass 1 syncs their cells once */
        for (int pass = 0; pass < 2; pass++) {
            for (long ax = 0; ax < 3; ax++) {
                long t1 = ax == 0 ? 1 : 0, t2 = ax == 2 ? 1 : 2;
                long m1 = reg[3 + t1] - reg[t1], m2 = reg[3 + t2] - reg[t2];
                const int8_t *has = present + (3 * j + ax) * nf;
                int any = 0;
                for (long f = 0; f < nf; f++)
                    any |= has[f];
                if (!any) continue;    /* no deltas: the faces are left */
                long row = 2 * m2, plane = 4 * m1 * m2, cplane = m1 * m2;
                for (long side = 0; side < 2; side++) {
                    long out;
                    if (!fc_face(reg, ax, side, n[ax], periodic[ax], &out))
                        continue;
                    double sign = side ? 1.0 : -1.0;
                    const double *fine = blocks[3 * j + ax]
                        + side * nf * plane;
                    const double *cf = coarse[3 * j + ax]
                        + side * nf * cplane;
                    for (long a = 0; a < m1; a++) {
                        for (long b = 0; b < m2; b++) {
                            long i1 = reg[t1] + a, i2 = reg[t2] + b;
                            long c = (ng + out) * s[ax] + (ng + i1) * s[t1]
                                + (ng + i2) * s[t2];
                            if (pass) {
                                /* a cell on two faces is synced once */
                                if (count[c] == j) {
                                    fc_sync(c, q, ie);
                                    count[c] = j + 1;
                                }
                                continue;
                            }
                            fc_catch_up(c, j, count, q, ie);
                            long cc = a * m2 + b;
                            const double *p = fine + 2 * a * row + 2 * b;
#define FC_DELTA(f) (sign * (fc_average(p + (f) * plane, row, m2 == 1) \
                             - cf[(f) * cplane + cc]) / dx)
                            double rho_old = q[0][c];
                            double rho_new = rho_old
                                + (has[0] ? FC_DELTA(0) : 0.0);
                            rho_new = nmax(rho_new, DENSITY_FLOOR);
                            q[0][c] = rho_new;
                            for (long f = 1; f < 5; f++)
                                if (has[f])
                                    q[f][c] = (rho_old * q[f][c]
                                               + FC_DELTA(f)) / rho_new;
                            for (long f = 5; f < nf; f++)
                                if (has[f])
                                    q[f][c] = nmax(q[f][c] + FC_DELTA(f),
                                                   0.0);
#undef FC_DELTA
                        }
                    }
                }
            }
        }
    }
    long cells = (n0 + 2 * ng) * (n1 + 2 * ng) * (n2 + 2 * ng);
    for (long c = 0; c < cells; c++)
        fc_catch_up(c, (int32_t)n_children, count, q, ie);
}

/* ---- cloud-in-cell particle-mesh transfer (reference: nbody/cic.py
   deposit_numpy / gather_numpy) ---- */

/* cic._cic_indices of one particle: its base cell (Python-% wrapped when
   periodic) and fractions; returns whether a non-periodic grid keeps it */
static int cic_base(const double *off, double dx, const long *n,
    int periodic, int64_t *base, double *frac)
{
    int ok = 1;
    for (int d = 0; d < 3; d++) {
        double u = off[d] / dx - 0.5;
        double fl = floor(u);
        /* np.floor(u).astype(np.int64): NaN and out-of-range values
           convert to INT64_MIN (cvttsd2si), never undefined behaviour */
        int64_t b = (fl >= -9223372036854775808.0
                     && fl < 9223372036854775808.0) ? (int64_t)fl
                                                    : INT64_MIN;
        frac[d] = u - (double)b;
        if (periodic) {
            b %= n[d];
            if (b < 0) b += n[d];
        } else {
            ok = ok && b >= -1 && b <= n[d] - 1;
        }
        base[d] = b;
    }
    return ok;
}

/* CIC weight of one corner: np.prod's (w0 * w1) * w2 */
static inline double cic_weight(const double *f, int d0, int d1, int d2)
{
    return ((d0 ? f[0] : 1.0 - f[0]) * (d1 ? f[1] : 1.0 - f[1]))
        * (d2 ? f[2] : 1.0 - f[2]);
}

/* Adds mass / dx3 of every particle to the (n0, n1, n2) grid corner-major,
   like np.add.at: corner 0 of every particle in order, then corner 1, ...
   base (n_part, 3), frac (n_part, 3) and mass (n_part) are scratch. */
void rk_cic_deposit(long n_part, const double *offsets, const double *masses,
    double dx, double dx3, int periodic, long n0, long n1, long n2,
    double *grid, int64_t *base, double *frac, double *mass)
{
    long n[3] = {n0, n1, n2};
    long kept = 0;
    for (long p = 0; p < n_part; p++) {
        if (cic_base(offsets + 3 * p, dx, n, periodic, base + 3 * kept,
                     frac + 3 * kept))
            mass[kept++] = masses[p] / dx3;
    }
    for (int corner = 0; corner < 8; corner++) {
        int d0 = (corner >> 2) & 1, d1 = (corner >> 1) & 1, d2 = corner & 1;
        for (long p = 0; p < kept; p++) {
            const int64_t *b = base + 3 * p;
            int64_t i = b[0] + d0, j = b[1] + d1, k = b[2] + d2;
            if (periodic) {
                /* (base + d) % n with base already wrapped into [0, n) */
                i -= i == n0 ? n0 : 0;
                j -= j == n1 ? n1 : 0;
                k -= k == n2 ? n2 : 0;
            } else if (i < 0 || i >= n0 || j < 0 || j >= n1 || k < 0
                       || k >= n2) {
                continue;
            }
            grid[(i * n1 + j) * n2 + k]
                += mass[p] * cic_weight(frac + 3 * p, d0, d1, d2);
        }
    }
}

/* out (n_part, 3): the (3, n0, n1, n2) field at every particle, each
   component summed over the corners in order from +0.0.  A corner off a
   non-periodic grid is skipped: the sum starts at +0.0 and so is never
   -0.0, and adding 0.0 to it is a no-op. */
void rk_cic_gather(long n_part, const double *offsets, double dx,
    int periodic, long n0, long n1, long n2, const double *field,
    double *out)
{
    long n[3] = {n0, n1, n2};
    long cells = n0 * n1 * n2;
    for (long p = 0; p < n_part; p++) {
        int64_t b[3];
        double f[3];
        int ok = cic_base(offsets + 3 * p, dx, n, periodic, b, f);
        double acc[3] = {0.0, 0.0, 0.0};
        for (int corner = 0; corner < 8; corner++) {
            int d0 = (corner >> 2) & 1, d1 = (corner >> 1) & 1,
                d2 = corner & 1;
            int64_t i = b[0] + d0, j = b[1] + d1, k = b[2] + d2;
            if (periodic) {
                i -= i == n0 ? n0 : 0;
                j -= j == n1 ? n1 : 0;
                k -= k == n2 ? n2 : 0;
            } else if (!ok || i < 0 || i >= n0 || j < 0 || j >= n1 || k < 0
                       || k >= n2) {
                continue;
            }
            double w = cic_weight(f, d0, d1, d2);
            long c = (i * n1 + j) * n2 + k;
            for (int a = 0; a < 3; a++)
                acc[a] += w * field[a * cells + c];
        }
        for (int a = 0; a < 3; a++)
            out[3 * p + a] = acc[a];
    }
}
"""

#: ``scheme`` / ``riemann_solver`` names of the ``hydro.step`` contract, in
#: the order of the C enums SCHEME_* / SOLVER_*: rk_step takes their indices
SWEEP_SCHEMES = ("trace", "ppm+flatten", "ppm", "plm", "flat")
SWEEP_SOLVERS = ("hllc", "hll", "two_shock")
#: rows of rk_sweep's ``work`` scratch (the W_* enum: W_FADV + 1)
SWEEP_SLOTS = 40
#: sweep-axis pencils per scratch block: the working set of a block
#: (SWEEP_SLOTS rows of n * SWEEP_BLOCK doubles) stays cache-resident
SWEEP_BLOCK = 32

# -ffp-contract=off: no FMA contraction (bitwise parity with the NumPy op
# sequence); -fno-math-errno: lets sqrt vectorise; -fno-trapping-math: lets
# an operation be evaluated in every lane and discarded by a select (FP
# exceptions never trap here, so no value changes); -fopenmp-simd: honour
# the `#pragma omp simd` loops without pulling in the OpenMP runtime.
# Never -ffast-math — it licenses reassociation and breaks parity.
_COMPILE_ARGS = ("-O3", "-ffp-contract=off", "-fno-math-errno",
                 "-fno-trapping-math", "-fopenmp-simd")


def _cache_dir() -> str:
    d = os.environ.get("REPRO_KERNELS_CACHE")
    if not d:
        d = os.path.join(os.path.expanduser("~"), ".cache", "repro-kernels")
    os.makedirs(d, exist_ok=True)
    return d


def _module_name(compile_args=_COMPILE_ARGS) -> str:
    """Name of the cached extension: everything the binary depends on is in
    the hash, so a changed flag can never reuse a stale ``.so``."""
    key = "\0".join((_CDEF, _CSOURCE, *compile_args))
    return f"_repro_kernels_c_{hashlib.sha1(key.encode()).hexdigest()[:12]}"


def _build_module():
    """Compile (or reuse) the C extension; returns the imported module."""
    modname = _module_name()
    cache = _cache_dir()
    if cache not in sys.path:
        sys.path.insert(0, cache)
    try:
        return importlib.import_module(modname)
    except ImportError:
        pass

    ffibuilder = FFI()
    ffibuilder.cdef(_CDEF)
    ffibuilder.set_source(modname, _CSOURCE,
                          extra_compile_args=list(_COMPILE_ARGS))
    # build in a private tmpdir, then atomically publish the .so — two
    # processes racing the first build both succeed
    with tempfile.TemporaryDirectory(dir=cache) as build_dir:
        so_path = ffibuilder.compile(tmpdir=build_dir, verbose=False)
        target = os.path.join(cache, os.path.basename(so_path))
        os.replace(so_path, target)
    importlib.invalidate_caches()
    return importlib.import_module(modname)


_mod = _build_module()
ffi = _mod.ffi
_lib = _mod.lib
#: the LANES copy of the SIMD kernels this host runs: "avx512f",
#: "default" (two doubles per instruction on x86-64) or "single" (a build
#: without load-time clones)
LANES = ffi.string(_lib.rk_lanes()).decode()


# ------------------------------------------------------ contract functions
def _p(arr):
    return ffi.from_buffer("double[]", arr)


def _pc(arr):
    return ffi.from_buffer("double[]", arr, require_writable=False)


def _pi(arr):
    return ffi.from_buffer("int64_t[]", arr, require_writable=False)


def _writable(arr):
    """``arr`` itself when the C can write it in place (C-contiguous
    float64), else a contiguous copy the caller stores back."""
    if arr.flags.c_contiguous and arr.dtype == np.float64:
        return arr
    return np.ascontiguousarray(arr, dtype=float)


def hydro_step(arrays, accel, ng, dx, dt, a, permute, full_update, gamma,
               scheme, riemann_solver, density_floor, energy_floor, eta, drag,
               windows=None, outs=(), plan=None):
    if scheme not in SWEEP_SCHEMES:
        raise ValueError(f"unknown reconstruction '{scheme}'")
    if riemann_solver not in SWEEP_SOLVERS:
        raise ValueError(f"unknown riemann solver '{riemann_solver}'")
    check_drag(drag)
    permute = int(permute) % 3
    # the C indexes raw memory: the fields, ghost width and windows are
    # checked by the plan (a one-off when the caller keeps none, or keeps
    # one for other arrays), the acceleration and blocks on every call
    if plan is None or not plan.holds(arrays, ng, windows):
        plan = StepPlan(arrays, ng, windows)
    shape = plan.shape
    if accel is not None:
        accel = np.ascontiguousarray(accel, dtype=float)
        if accel.shape != (3, *shape):
            raise ValueError(f"hydro.step: accel shape {accel.shape} != "
                             f"{(3, *shape)}")
    if len(outs) != len(plan.blocks):
        raise ValueError("hydro.step: windows must be (n, 7) rows, one "
                         "block each")
    for out, block in zip(outs, plan.blocks):
        _in_place(out, block, np.float64, "hydro.step: a window block")
    native = plan.native
    if native is None:
        fields = [_writable(a) for a in arrays]
        native = (fields, ffi.new("double *[]", [_p(a) for a in fields]))
        if all(f is a for f, a in zip(fields, arrays)):
            plan.native = native
    fields, q = native
    counts = np.empty(16, dtype=np.int64)
    # scratch is per call: the cffi call releases the GIL, so sibling
    # grids step concurrently under the thread exec backend
    work = np.empty((SWEEP_SLOTS, max(shape) * SWEEP_BLOCK))
    cols = np.empty((3, SWEEP_BLOCK), dtype=np.int64)
    # the pointer tables own nothing: the plan (or ``fields``) and
    # ``outs`` keep the buffers alive for the duration of the call
    _lib.rk_step(
        len(fields), q, ffi.NULL if accel is None else _pc(accel), *shape,
        plan.ng, float(dx), float(dt), float(a), permute, bool(full_update),
        float(gamma), SWEEP_SCHEMES.index(scheme),
        SWEEP_SOLVERS.index(riemann_solver), float(density_floor),
        float(energy_floor), float(eta),
        ffi.NULL if drag is None else ffi.new("double[2]",
                                              [float(f) for f in drag]),
        len(plan.table), _pi(plan.table),
        ffi.new("double *[]", [_p(b) for b in outs]),
        ffi.from_buffer("int64_t[]", counts), _p(work), SWEEP_BLOCK,
        ffi.from_buffer("int64_t[]", cols),
    )
    for out, dst in zip(fields, arrays):
        if out is not dst:
            dst[...] = out
    return tuple(counts.tolist())


def _in_place(arr, shape, dtype, what):
    """``arr`` checked as something the C may write directly."""
    if (not isinstance(arr, np.ndarray) or arr.shape != shape
            or arr.dtype != dtype or not arr.flags.c_contiguous
            or not arr.flags.writeable):
        raise ValueError(f"{what} must be a writable C-contiguous "
                         f"{np.dtype(dtype).name} array of shape {shape}")
    return arr


def chem_blend(logtab, idx, weight, out=None):
    logtab = np.ascontiguousarray(logtab, dtype=float)
    idx = np.ascontiguousarray(idx, dtype=np.int64)
    weight = np.ascontiguousarray(weight, dtype=float)
    n_ch, n_bins = logtab.shape
    if out is None:
        out = np.empty((n_ch, idx.shape[0]))
    else:
        _in_place(out, (n_ch, idx.shape[0]), np.float64, "chem.blend: out")
    _lib.rk_chem_blend(n_ch, n_bins, idx.shape[0], _pc(logtab), _pi(idx),
                       _pc(weight), _p(out))
    np.exp(out, out=out)  # stays a ufunc: SIMD exp != libm exp bitwise
    return out


def chem_step(state, e, rho, budgets, t_done, counts, active, T, cube, block,
              dt, z, safety, max_substeps):
    n_cells = np.shape(e)[0] if np.ndim(e) == 1 else -1
    active = np.ascontiguousarray(active, dtype=np.int64)
    n_act = active.shape[0]
    # the C indexes raw memory: every array is checked against the two
    # extents, and the active indices must be distinct cells of the grid
    _in_place(state, (len(SPECIES_NAMES), n_cells), np.float64,
              "chem.step: state")
    _in_place(e, (n_cells,), np.float64, "chem.step: e")
    _in_place(t_done, (n_cells,), np.float64, "chem.step: t_done")
    _in_place(counts, (n_cells,), np.int64, "chem.step: counts")
    _in_place(T, (n_act,), np.float64, "chem.step: T")
    rho = np.ascontiguousarray(rho, dtype=float)
    block = np.ascontiguousarray(block, dtype=float)
    budgets = np.ascontiguousarray(budgets, dtype=float)
    cube = np.ascontiguousarray(cube, dtype=float)
    if (active.ndim != 1 or rho.shape != (n_cells,)
            or block.shape != (len(CHANNEL_NAMES), n_act)
            or budgets.shape != (3, n_cells) or cube.shape != (n_act,)):
        raise ValueError("chem.step: array shapes differ")
    if n_act and (active[0] < 0 or active[-1] >= n_cells
                  or not (active[1:] > active[:-1]).all()):
        raise ValueError("chem.step: active must hold strictly increasing "
                         "cell indices of the grid")
    dt = float(dt)
    t_cmb = const.CMB_TEMPERATURE_Z0 * (1.0 + z)
    _lib.rk_chem_step(
        n_cells, n_act, _p(state), _p(e), _pc(rho), _pc(budgets),
        _p(t_done), ffi.from_buffer("int64_t[]", counts), _pi(active),
        _p(T), _pc(cube), _pc(block), dt, dt / max_substeps, t_cmb,
        compton_coefficient(t_cmb), float(safety), int(max_substeps))


def _fill_native(plan):
    """``(args, outs, cached, keep)``: the pointer tables of one
    ``rk_fill_level`` call on ``plan`` (fractions left out), the arrays the
    C writes, whether the tables may be kept on the plan — only when every
    array is C-contiguous float64 and the C works on the arrays
    themselves, not on copies made for this call — and the cdata that
    keep those copies alive."""
    fines = [a for arrays, _, _ in plan.targets for a in arrays]
    outs = [_writable(a) for a in fines]
    out_ptrs = [_p(a) for a in outs]
    # a source that is a target reads the target's buffer: only its
    # interior is read, and no target writes that
    ptr_of = dict(zip(map(id, fines), out_ptrs))
    copied = [out is not a for out, a in zip(outs, fines)]

    def const_ptr(a):
        ptr = ptr_of.get(id(a))
        if ptr is None:
            if not (a.flags.c_contiguous and a.dtype == np.float64):
                a = np.ascontiguousarray(a, dtype=float)
                copied.append(True)
            ptr = ptr_of[id(a)] = _pc(a)
        return ptr

    nf = len(plan.positive)
    news = [const_ptr(a) for arrays, _, _ in plan.parents for a in arrays]
    olds = [ffi.NULL if old is None or old[f] is None else const_ptr(old[f])
            for _, old, _ in plan.parents for f in range(nf)]
    srcs = [const_ptr(a) for arrays, _ in plan.sources for a in arrays]
    # the pointer tables own nothing: the plan holds the arrays, and
    # ``ptr_of``'s cdata the copies
    args = (nf, plan.r, ffi.new("int[]", plan.positive), len(plan.t_geom),
            ffi.new("double *[]", out_ptrs), _pi(plan.t_geom),
            ffi.new("const double *[]", news),
            ffi.new("const double *[]", olds), _pi(plan.p_geom),
            ffi.new("const double *[]", srcs), _pi(plan.s_geom),
            len(plan.fill), _pi(plan.fill), len(plan.copies),
            _pi(plan.copies))
    return args, outs, not any(copied), ptr_of


def fill_level(plan, fracs=None):
    fracs = plan.fracs if fracs is None else fracs
    if len(fracs) != len(plan.t_geom):
        raise ValueError("fill.level: one time fraction per target")
    native = plan.native
    if native is None:
        native = _fill_native(plan)
        if native[2]:
            plan.native = native
    args, outs = native[:2]
    status = _lib.rk_fill_level(*args[:6], ffi.new("double[]", [
        float(f) for f in fracs]), *args[6:])
    if status:
        raise MemoryError("fill.level: no memory for the box scratch")
    fines = (a for arrays, _, _ in plan.targets for a in arrays)
    for out, dst in zip(outs, fines):
        if out is not dst:
            dst[...] = out


def mg_level(plan, src, first, stop, pre, post, min_size, tol, budget,
             strict, force_diverge, exchange, stats):
    n = len(plan.phis)
    first, stop, budget, min_size = (int(first), int(stop), int(budget),
                                     int(min_size))
    # the C indexes raw memory: the plan's tables and potentials are
    # checked where the plan is built, the call's range and arrays here
    if not 0 <= first <= stop <= n:
        raise ValueError("mg.level: grid range outside the level")
    if budget < 1:
        raise ValueError(f"mg.level: a budget of {budget} V-cycles runs "
                         f"none")
    _in_place(stats, (n, 3), np.float64, "mg.level: stats")
    src = np.ascontiguousarray(src, dtype=float)
    if src.shape != (int(plan.cell_offsets[-1]),):
        raise ValueError("mg.level: src must hold every grid's interior")
    native = plan.native
    if native is None:
        native = plan.native = {
            "tables": (_pi(plan.dims), plan.nghost, float(plan.dx),
                       ffi.new("double *[]", [_p(a) for a in plan.phis]),
                       _p(plan.rims), _pi(plan.rim_offsets)),
            "rows": (len(plan.rim_rows), _pi(plan.rim_rows)),
            "offsets": _pi(plan.cell_offsets), "work": {}}
    work = native["work"].get(min_size)
    if work is None:
        # the largest rim copy plus V-cycle scratch of any grid
        work = native["work"][min_size] = max(
            (d[0] + 2) * (d[1] + 2) * (d[2] + 2)
            + _lib.rk_mg_work(*d, min_size) for d in plan.dims.tolist())
    changed = ffi.new("int *")
    failed = _lib.rk_mg_level(
        *native["tables"], _pc(src), native["offsets"], first, stop,
        int(pre), int(post), min_size, float(tol), budget, bool(strict),
        bool(force_diverge), _p(np.empty(work)), _p(stats), *native["rows"],
        bool(exchange), changed)
    return int(failed), bool(changed[0])


def gravity_accel(phi, dx, a):
    phi = np.ascontiguousarray(phi, dtype=float)
    # np.gradient needs two cells along every axis; the C reads them
    if phi.ndim != 3 or min(phi.shape) < 2:
        raise ValueError("gravity.accel: phi must be 3-d with at least two "
                         "cells along every axis")
    out = np.empty((3, *phi.shape))
    _lib.rk_gravity_accel(*phi.shape, _pc(phi), float(dx), float(a), _p(out))
    return out


def _face_block(block, shape, what):
    block = np.ascontiguousarray(block, dtype=float)
    if block.shape != shape:
        raise ValueError(f"flux.correct: {what} block shape {block.shape} "
                         f"!= {shape}")
    return block


def flux_correct(fields, names, ng, dx, periodic, r, children):
    if int(r) != 2 or not children:
        # the C follows NumPy's summation order of a 2 x 2 face block only;
        # any other refinement factor runs the reference
        return correct_numpy(fields, names, ng, dx, periodic, r, children)
    names, ng = tuple(names), int(ng)
    nf = len(names)
    if names[:len(_CONSERVED)] != _CONSERVED:
        raise ValueError(f"flux.correct: names must start with {_CONSERVED}")
    arrays = [fields[name] for name in names] + [fields["internal"]]
    shape = arrays[0].shape
    if len(shape) != 3 or any(a.shape != shape for a in arrays):
        raise ValueError("flux.correct: field shapes differ")
    n = [s - 2 * ng for s in shape]
    if ng < 0 or min(n) < 1:
        raise ValueError("flux.correct: no interior cell")
    # the C indexes raw memory: every child footprint and its fine and
    # coarse planes are checked against the parent's interior
    corners, fine, coarse = [], [], []
    for lo, hi, child_fine, child_coarse, _ in children:
        box = [int(v) for v in (*lo, *hi)]
        if not all(0 <= box[d] < box[d + 3] <= n[d] for d in range(3)):
            raise ValueError("flux.correct: child region outside the parent")
        for ax in range(3):
            t1, t2 = (box[d + 3] - box[d] for d in range(3) if d != ax)
            fine.append(_face_block(child_fine[ax], (2, nf, 2 * t1, 2 * t2),
                                    "fine"))
            coarse.append(_face_block(child_coarse[ax], (2, nf, t1, t2),
                                      "coarse"))
        corners += box
    present = np.ascontiguousarray([c[4] for c in children], dtype=np.int8)
    if present.shape != (len(children), 3, nf):
        raise ValueError("flux.correct: presence mask shape differs")
    native = [_writable(a) for a in arrays]
    # the pointer tables own nothing: native/fine/coarse keep the buffers
    # alive for the duration of the call
    _lib.rk_flux_correct(
        nf, ffi.new("double *[]", [_p(a) for a in native[:-1]]),
        _p(native[-1]), *n, ng, float(dx),
        ffi.new("int[]", [bool(p) for p in periodic]),
        len(children), ffi.new("int64_t[]", corners),
        ffi.new("const double *[]", [_pc(b) for b in fine]),
        ffi.new("const double *[]", [_pc(b) for b in coarse]),
        ffi.from_buffer("int8_t[]", present),
        ffi.from_buffer("int32_t[]", np.zeros(native[0].size,
                                              dtype=np.int32)))
    for out, dst in zip(native, arrays):
        if out is not dst:
            dst[...] = out


def _particles(offsets, what):
    offsets = np.ascontiguousarray(offsets, dtype=float)
    if offsets.ndim != 2 or offsets.shape[1] != 3:
        raise ValueError(f"{what}: offsets must be (n, 3)")
    return offsets


def cic_deposit(grid, offsets, masses, dx, dx3, periodic):
    offsets = _particles(offsets, "cic.deposit")
    masses = np.ascontiguousarray(masses, dtype=float)
    n_part = offsets.shape[0]
    if masses.shape != (n_part,) or np.ndim(grid) != 3:
        raise ValueError("cic.deposit: need (n,) masses and a 3-d grid")
    out = _writable(grid)
    # scratch is per call (the cffi call releases the GIL)
    _lib.rk_cic_deposit(
        n_part, _pc(offsets), _pc(masses), float(dx), float(dx3),
        bool(periodic), *grid.shape, _p(out),
        ffi.from_buffer("int64_t[]", np.empty((n_part, 3), dtype=np.int64)),
        _p(np.empty((n_part, 3))), _p(np.empty(n_part)))
    if out is not grid:
        grid[...] = out


def cic_gather(field3, offsets, dx, periodic):
    offsets = _particles(offsets, "cic.gather")
    field3 = np.ascontiguousarray(field3, dtype=float)
    if field3.ndim != 4 or field3.shape[0] != 3:
        raise ValueError("cic.gather: field3 must be (3, nx, ny, nz)")
    out = np.empty((offsets.shape[0], 3))
    _lib.rk_cic_gather(offsets.shape[0], _pc(offsets), float(dx),
                       bool(periodic), *field3.shape[1:], _pc(field3),
                       _p(out))
    return out


for _name, _fn in (
    ("hydro.step", hydro_step),
    ("chem.blend", chem_blend),
    ("chem.step", chem_step),
    ("fill.level", fill_level),
    ("mg.level", mg_level),
    ("gravity.accel", gravity_accel),
    ("flux.correct", flux_correct),
    ("cic.deposit", cic_deposit),
    ("cic.gather", cic_gather),
):
    dispatch.register("cffi", _name, _fn)
