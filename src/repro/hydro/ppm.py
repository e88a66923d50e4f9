"""Dimensionally split PPM solver for cosmological hydrodynamics.

This is the paper's primary gas scheme (Sec. 3.2.1, citing Woodward &
Colella 1984 as modified for cosmology by Bryan et al. 1995): PPM interface
reconstruction feeding an HLLC Riemann solver, Strang-permuted x/y/z sweeps,
a dual-energy formalism for hypersonic infall, passive advection of the
chemistry species, and operator-split expansion sources.

The solver is grid-agnostic: it advances a :class:`FieldSet` (ghost zones
included) and stores the dt-integrated interface fluxes the AMR layer needs
for coarse-fine flux correction in the face windows the caller names.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import constants as const
from repro import kernels
from repro.hydro import riemann
from repro.hydro.eos import internal_energy_floor
from repro.hydro.reconstruction import (
    apply_flattening,
    flat_reconstruct,
    plm_reconstruct,
    ppm_reconstruct,
    shock_flattening,
)
from repro.hydro.sources import apply_acceleration, apply_drag, expansion_factors
from repro.hydro.state import FieldSet, VELOCITY_FIELDS, sync_internal_from_total
from repro.hydro.timestep import signal_speeds
from repro.hydro.tracing import trace_states_numpy

#: the rows of a face window ahead of the advected fields: the conserved
#: fields the coarse-fine flux correction corrects (the dual-energy
#: 'internal' flux is never stored)
WINDOW_FIELDS = ("density", "vx", "vy", "vz", "energy")


@dataclass
class StepFluxes:
    """The dt/a-integrated fluxes one step stored in its face windows.

    A step stores no full face array: it writes only the planes of the
    window table it was given (``amr.flux_correction.FaceWindows``), each
    a ``(2, nf, n_t1, n_t2)`` block — the lo and hi face planes of one
    axis, rows in :data:`WINDOW_FIELDS` + advected order, transverse axes
    ascending.  ``boundary`` holds the grid's own boundary planes, one
    block per axis (None when the table has none), ``coarse`` maps a
    child's grid id to the three blocks of the faces of its footprint.
    The cell update applied by the solver was ``U -= diff(flux, axis) /
    dx`` with exactly these floats.

    ``diagnostics`` carries per-step solver health counters — how many
    cells/faces each positivity floor actually changed — so creeping floor
    abuse is visible in telemetry long before it becomes a NaN.  ``health``
    is the step's :func:`step_health` row, which every solver's step sets.
    """

    boundary: list | None = None
    coarse: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)
    health: list | None = None

    def planes(self):
        """Every stored block: the boundary ones, then the children's."""
        blocks = list(self.boundary or ())
        for per_child in self.coarse.values():
            blocks += per_child
        return blocks

    def add_diagnostics(self, counts: dict) -> None:
        for key, value in counts.items():
            if value:
                self.diagnostics[key] = self.diagnostics.get(key, 0) + int(value)


def store_windows(axis, fluxes, table, outs):
    """Copy the planes of the windows along ``axis`` out of full face
    arrays: the shared store of every tier that computes whole sweeps
    (``step_numpy``, ``ZeusSolver``).

    ``fluxes`` are the sweep's scaled face arrays in window row order
    (face dimension along ``axis``, interior extents transversally);
    ``table`` the int64 rows ``(axis, lo_face, hi_face, a_lo, a_hi, b_lo,
    b_hi)`` and ``outs`` their ``(2, nf, a_hi - a_lo, b_hi - b_lo)``
    blocks: side 0 takes face ``lo_face``, side 1 face ``hi_face``, a face
    of -1 none.
    """
    for row, out in zip(table.tolist(), outs):
        if row[0] != axis:
            continue
        box = (slice(row[3], row[4]), slice(row[5], row[6]))
        for side in (0, 1):
            face = row[1 + side]
            if face >= 0:
                for f, arr in enumerate(fluxes):
                    out[side, f] = np.take(arr, face, axis=axis)[box]


#: the five floor counts a sweep reports, in kernel order
FLOOR_COUNTS = ("face_density_floor", "face_pressure_floor", "density_floor",
                "internal_floor", "energy_floor")

#: the first six arrays of a ``hydro.step`` call, in order
STEP_FIELDS = ("density", "vx", "vy", "vz", "energy", "internal")

#: the fields whose non-positive interior cells close a health row
HEALTH_POSITIVE = ("density", "internal")

#: the floor count each of the 16 counts of one grid's step adds to
STEP_COUNTS = FLOOR_COUNTS * 3 + ("internal_floor",)

_RECONSTRUCT = {"ppm": ppm_reconstruct, "ppm+flatten": ppm_reconstruct,
                "plm": plm_reconstruct, "flat": flat_reconstruct}
_RIEMANN = {"hllc": riemann.hllc_flux, "hll": riemann.hll_flux,
            "two_shock": riemann.two_shock_flux}


def contact_speed(states_l, states_r, gamma):
    """Contact-wave estimate of the interface velocity (the pdV term)."""
    rho_l, u_l, _, _, p_l = states_l
    rho_r, u_r, _, _, p_r = states_r
    s_l, s_r = riemann._wave_speed_estimates(
        rho_l, u_l, p_l, rho_r, u_r, p_r, gamma
    )
    num = p_r - p_l + rho_l * u_l * (s_l - u_l) - rho_r * u_r * (s_r - u_r)
    den = rho_l * (s_l - u_l) - rho_r * (s_r - u_r)
    s_m = num / np.where(np.abs(den) < 1e-300, 1e-300, den)
    # analytically s_l <= s_m <= s_r; numerically degenerate states
    # (energy-floored cold gas) can violate this — clamp to the fan so
    # the pdV term stays bounded
    return np.clip(s_m, s_l, s_r)


def pencil_boxes(shape, ng, order, full=False):
    """The pencils each sweep of one step updates, as ``(a_lo, a_hi, b_lo,
    b_hi)``: index ranges of the two axes transverse to the sweep, in
    ascending axis order.

    ``order`` is the step's sweep order.  A sweep covers a transverse axis
    that a later sweep of the step still sweeps in full, because that
    sweep reads its ghost cells along the way; an axis that is already
    swept is covered in its interior only, because nothing reads the
    ghost columns of it before the next boundary fill rewrites them.
    ``full`` covers every pencil of every sweep (the update of a step
    whose ghost zones are read before any boundary fill).
    """
    boxes = []
    for k, axis in enumerate(order):
        box = ()
        for t in range(3):
            if t != axis:
                whole = full or t in order[k + 1:]
                box += (0, shape[t]) if whole else (ng, shape[t] - ng)
        boxes.append(box)
    return boxes


def check_scheme(scheme, riemann_solver):
    """ValueError unless ``scheme`` and ``riemann_solver`` name a
    reconstruction and a Riemann solver of :func:`sweep_numpy` (which
    :func:`step_numpy` checks before it touches an array)."""
    if scheme != "trace" and scheme not in _RECONSTRUCT:
        raise ValueError(f"unknown reconstruction '{scheme}'")
    if riemann_solver not in _RIEMANN:
        raise ValueError(f"unknown riemann solver '{riemann_solver}'")


def check_drag(drag):
    """ValueError unless ``drag`` is None or the two factors (velocity,
    internal energy) of :func:`~repro.hydro.sources.expansion_factors`;
    both ``hydro.step`` tiers check it before they touch an array."""
    if drag is not None and np.shape(drag) != (2,):
        raise ValueError(f"hydro.step: drag must be two factors (velocity, "
                         f"internal energy), got shape {np.shape(drag)}")


def sweep_numpy(arrays, axis, ng, pencils, dtdx, flux_scale, gamma, scheme,
                riemann_solver, density_floor, energy_floor):
    """One directional sweep of :func:`step_numpy`.

    ``arrays`` is ``(density, u, v, w, energy, internal, *advected)`` in
    the grid's native layout with ``u`` the velocity along ``axis``; the
    sweep-axis pencils in ``pencils`` (one box of :func:`pencil_boxes`)
    are updated in place, nothing else.  ``scheme`` is 'trace' (CW84
    characteristic tracing), 'ppm+flatten', 'ppm', 'plm' or 'flat';
    ``dtdx = dt/(a dx)`` and ``flux_scale = dt/a``.  Returns ``(fluxes,
    counts)``: the scaled interior-face fluxes in the order of ``arrays``
    (face dimension along ``axis``, interior extents transversally) and
    the :data:`FLOOR_COUNTS` of the swept pencils.

    Calls the NumPy bodies directly, never the dispatch registry.
    """
    shape = arrays[0].shape
    a_lo, a_hi, b_lo, b_hi = pencils
    box = (slice(None), slice(a_lo, a_hi), slice(b_lo, b_hi))

    def fwd(arr):
        return np.moveaxis(arr, axis, 0)[box]

    rho, u, v, w, e_tot, e_int = (fwd(q) for q in arrays[:6])
    advected = [fwd(q) for q in arrays[6:]]
    p = (gamma - 1.0) * rho * e_int

    # reconstruct primitives at faces (with optional shock flattening
    # or CW84 characteristic tracing)
    if scheme == "trace":
        tl, tr = trace_states_numpy(rho, u, v, w, p, dtdx, gamma)
        states_l = list(tl)
        states_r = list(tr)
    else:
        flat = shock_flattening(p, u) if scheme == "ppm+flatten" else None
        states_l, states_r = [], []
        for q in (rho, u, v, w, p):
            ql, qr = _RECONSTRUCT[scheme](q)
            if flat is not None:
                ql, qr = apply_flattening(ql, qr, q, flat)
            states_l.append(ql)
            states_r.append(qr)
    # positivity at faces
    face_density_count = (
        int(np.count_nonzero(states_l[0] < density_floor))
        + int(np.count_nonzero(states_r[0] < density_floor))
    )
    states_l[0] = np.maximum(states_l[0], density_floor)
    states_r[0] = np.maximum(states_r[0], density_floor)
    p_floor = (gamma - 1.0) * density_floor * energy_floor
    face_pressure_count = (
        int(np.count_nonzero(states_l[4] < p_floor))
        + int(np.count_nonzero(states_r[4] < p_floor))
    )
    states_l[4] = np.maximum(states_l[4], p_floor)
    states_r[4] = np.maximum(states_r[4], p_floor)

    flux = _RIEMANN[riemann_solver](tuple(states_l), tuple(states_r), gamma)
    f_rho, f_mu, f_mv, f_mw, f_e = flux

    # passive scalars + internal energy advect with the mass flux
    mass_flux_pos = f_rho > 0.0
    n = rho.shape[0]

    def upwind_fraction(q):
        frac_l = q[:-1] / rho[:-1]
        frac_r = q[1:] / rho[1:]
        return np.where(mass_flux_pos, frac_l, frac_r)

    adv_fluxes = [f_rho * upwind_fraction(q) for q in advected]
    f_eint = f_rho * upwind_fraction(rho * e_int)

    # interface velocity for the pdV term (contact-wave estimate)
    u_face = contact_speed(states_l, states_r, gamma)

    # conservative update of the interior band along the sweep axis, in
    # the swept pencils only: a transverse ghost column is swept when a
    # later sweep of the step reads it (see pencil_boxes), and every
    # ghost cell is rewritten by SetBoundaryValues before anything else
    # reads it
    k = dtdx
    upd = slice(ng, n - ng)
    fsl = slice(ng - 1, n - ng)  # faces bounding the interior band

    def dflux(f):
        return np.diff(f[fsl], axis=0)

    d_rho = -k * dflux(f_rho)
    mom_u = rho * u
    mom_v = rho * v
    mom_w = rho * w
    etot_c = rho * e_tot
    eint_c = rho * e_int

    rho_new = rho[upd] + d_rho
    density_count = int(np.count_nonzero(rho_new < density_floor))
    rho_new = np.maximum(rho_new, density_floor)
    mom_u_new = mom_u[upd] - k * dflux(f_mu)
    mom_v_new = mom_v[upd] - k * dflux(f_mv)
    mom_w_new = mom_w[upd] - k * dflux(f_mw)
    etot_new = etot_c[upd] - k * dflux(f_e)
    # internal energy: advection + pdV work using interface velocities
    eint_new = (
        eint_c[upd]
        - k * dflux(f_eint)
        - p[upd] * k * dflux(u_face)
    )
    eint_floor = density_floor * energy_floor
    internal_count = int(np.count_nonzero(eint_new < eint_floor))
    eint_new = np.maximum(eint_new, eint_floor)

    rho[upd] = rho_new
    u[upd] = mom_u_new / rho_new
    v[upd] = mom_v_new / rho_new
    w[upd] = mom_w_new / rho_new
    etot_spec = etot_new / rho_new
    energy_count = int(np.count_nonzero(etot_spec < energy_floor))
    e_tot[upd] = np.maximum(etot_spec, energy_floor)
    e_int[upd] = eint_new / rho_new
    for q, f_q in zip(advected, adv_fluxes):
        q[upd] = np.maximum(q[upd] - k * dflux(f_q), 0.0)

    # collect interior-face fluxes (dt/a-integrated) for flux correction
    transverse = [s for d, s in enumerate(shape) if d != axis]
    face_sl = (slice(ng - 1, n - ng),) + tuple(
        slice(ng - lo, s - ng - lo)
        for s, lo in zip(transverse, (a_lo, b_lo))
    )
    fluxes = [
        flux_scale * np.moveaxis(arr[face_sl], 0, axis)
        for arr in (f_rho, f_mu, f_mv, f_mw, f_e, f_eint, *adv_fluxes)
    ]
    return fluxes, (face_density_count, face_pressure_count, density_count,
                    internal_count, energy_count)


def swept_names(axis):
    """The six fields of a sweep along ``axis`` in the order it takes them
    (and returns their fluxes), ahead of the advected ones: the
    sweep-axis velocity second, the transverse ones after it in ascending
    axis order."""
    u_name = VELOCITY_FIELDS[axis]
    return ("density", u_name, *(n for n in VELOCITY_FIELDS if n != u_name),
            "energy", "internal")


def step_arrays(fields: FieldSet) -> list:
    """The arrays one ``hydro.step`` call updates, in its order:
    :data:`STEP_FIELDS`, then the advected fields."""
    return [fields[name] for name in STEP_FIELDS + tuple(fields.advected)]


class StepPlan:
    """One grid's ``hydro.step`` inputs, checked once: its arrays (the
    :func:`step_arrays` of its fields), ghost width and face-window table.

    The constructor is the one place they are checked, because the
    compiled tier indexes raw memory with them: six or more 3-d arrays of
    one shape with an interior cell along every axis, and every window of
    ``windows`` (the int64 table of :func:`store_windows`, or None) inside
    the interior; ``blocks`` are the window blocks' shapes.  Each grid
    keeps its own with its face windows
    (:meth:`~repro.amr.grid.Grid.hydro_plan`) and hands it to the step;
    any other caller's step builds a one-off.  The plan holds
    the arrays, so ``native`` (the compiled tier's pointer table, filled
    on its first call) never outlives them.
    """

    __slots__ = ("arrays", "ng", "windows", "table", "blocks", "native")

    def __init__(self, arrays, ng, windows=None):
        ng = int(ng)
        shape = arrays[0].shape if len(arrays) else ()
        if len(arrays) < 6 or len(shape) != 3:
            raise ValueError("hydro.step: need six 3-d fields")
        if any(a.shape != shape for a in arrays):
            raise ValueError("hydro.step: field shapes differ")
        if ng < 1 or min(shape) <= 2 * ng:
            raise ValueError("hydro.step: no interior cell along some axis")
        table = np.ascontiguousarray(
            np.empty((0, 7)) if windows is None else windows, dtype=np.int64)
        if table.ndim != 2 or table.shape[1] != 7:
            raise ValueError("hydro.step: windows must be (n, 7) rows, one "
                             "block each")
        n = [d - 2 * ng for d in shape]
        nf = len(arrays) - 1
        blocks = []
        for row in table.tolist():
            ax, lo_face, hi_face, a0, a1, b0, b1 = row
            n_t1, n_t2 = ((m for d, m in enumerate(n) if d != ax)
                          if 0 <= ax < 3 else (0, 0))
            if not (n_t1 and -1 <= min(lo_face, hi_face)
                    and max(lo_face, hi_face) <= n[ax]
                    and 0 <= a0 < a1 <= n_t1 and 0 <= b0 < b1 <= n_t2):
                raise ValueError(f"hydro.step: window {row} outside the "
                                 "interior")
            blocks.append((2, nf, a1 - a0, b1 - b0))
        self.arrays, self.ng, self.windows = list(arrays), ng, windows
        self.table, self.blocks, self.native = table, blocks, None

    @property
    def shape(self) -> tuple:
        return self.arrays[0].shape

    def holds(self, arrays, ng, windows) -> bool:
        """Was the plan made for these very arrays, ghost width and
        window table?"""
        mine = self.arrays
        return (windows is self.windows and int(ng) == self.ng
                and len(arrays) == len(mine)
                and all(a is b for a, b in zip(arrays, mine)))


def step_numpy(arrays, accel, ng, dx, dt, a, permute, full_update, gamma,
               scheme, riemann_solver, density_floor, energy_floor, eta,
               drag, windows=None, outs=()):
    """NumPy reference of the ``hydro.step`` kernel: one
    :meth:`PPMSolver.step` of one grid.

    ``arrays`` is ``(density, vx, vy, vz, energy, internal, *advected)``
    in the grid's native layout, updated in place; ``accel`` None or the
    (3, ...) peculiar acceleration; ``drag`` None or the
    :func:`~repro.hydro.sources.expansion_factors` of the step.  In order:
    the first half kick on every cell, the three sweeps in order
    ``(permute + k) % 3`` over their :func:`pencil_boxes`, then on the
    active zone (every cell when ``full_update``) the second half kick,
    the expansion drag, the dual-energy sync (``eta``, ``energy_floor``)
    and the internal-energy floor.  ``windows`` (None: no window) is the
    int64 table of :func:`store_windows` and ``outs`` its blocks, which
    receive the dt/a-integrated face fluxes, rows in
    :data:`WINDOW_FIELDS` + advected order; the sweeps' whole face arrays
    are temporaries.  Returns the 16 counts — the :data:`FLOOR_COUNTS` of
    each sweep, then the cells the final internal-energy floor changed.
    """
    check_scheme(scheme, riemann_solver)
    check_drag(drag)
    fields = FieldSet(zip(STEP_FIELDS, arrays))
    advected = list(arrays[6:])
    # half gravity kick - sweeps - half kick is handled by the caller
    # when gravity is active mid-step; a full kick here keeps the
    # standalone solver second-order for static potentials.  The first
    # half kick covers every cell: the first sweep reads them.
    if accel is not None:
        apply_acceleration(fields, accel, 0.5 * dt)

    order = [(permute + k) % 3 for k in range(3)]
    counts = []
    for axis, pencils in zip(order, pencil_boxes(fields.shape, ng, order,
                                                 full_update)):
        names = swept_names(axis)
        swept = [fields[name] for name in names] + advected
        fluxes, floor_counts = sweep_numpy(
            swept, axis, ng, pencils, dt / (a * dx), dt / a, gamma, scheme,
            riemann_solver, density_floor, energy_floor)
        if windows is not None:
            rows = [fluxes[names.index(name)] for name in WINDOW_FIELDS]
            store_windows(axis, rows + fluxes[6:], windows, outs)
        counts += floor_counts

    # the rest of the step is cell-local: the active zone suffices
    tail = fields
    if not full_update:
        interior = tuple(slice(ng, n - ng) for n in fields.shape)
        tail = fields.view(interior)
        if accel is not None:
            accel = accel[(slice(None),) + interior]
    if accel is not None:
        apply_acceleration(tail, accel, 0.5 * dt)
    if drag is not None:
        apply_drag(tail, drag)
    sync_internal_from_total(tail, eta, energy_floor)
    counts.append(internal_energy_floor(tail, energy_floor))
    return tuple(counts)


def step_health(arrays, ng) -> list:
    """The health row of one stepped grid: the non-finite interior cells
    of each array of a ``hydro.step`` call (:data:`STEP_FIELDS`, then the
    advected fields), then the interior cells of each
    :data:`HEALTH_POSITIVE` field that are ``<= 0.0`` (-0.0 counts) —
    the counts :func:`repro.amr.defense.validate_fields` takes."""
    interior = tuple(slice(ng, n - ng) for n in arrays[0].shape)
    views = [arr[interior] for arr in arrays]
    row = [int(np.count_nonzero(~np.isfinite(v))) for v in views]
    return row + [int(np.count_nonzero(views[STEP_FIELDS.index(name)] <= 0.0))
                  for name in HEALTH_POSITIVE]


def step_level_numpy(steps, dx, dt, a, permute, full_update, gamma, scheme,
                     riemann_solver, density_floor, energy_floor, eta, drag):
    """NumPy reference of the ``hydro.step`` kernel: :func:`step_numpy` on
    each grid of a list (one level, or one chunk of it), in order.

    ``steps`` holds one ``(plan, accel, outs)`` per grid: its
    :class:`StepPlan` (arrays, ghost width, window table), its
    acceleration (or None) and its window blocks; every other argument is
    :func:`step_numpy`'s, shared by the grids.  Returns ``(counts,
    health)``: an ``(n, 16)`` array of each grid's floor counts and an
    ``(n, nq + 2)`` one of its :func:`step_health` row.
    """
    counts, health = [], []
    for plan, accel, outs in steps:
        counts.append(step_numpy(
            plan.arrays, accel, plan.ng, dx, dt, a, permute, full_update,
            gamma, scheme, riemann_solver, density_floor, energy_floor, eta,
            drag, plan.windows, outs))
        health.append(step_health(plan.arrays, plan.ng))
    n = len(steps)
    return (np.array(counts, dtype=np.int64).reshape(n, 16),
            np.array(health, dtype=np.int64).reshape(n, -1))


def cfl_numpy(plans, gamma):
    """NumPy reference of the ``hydro.cfl`` kernel: each grid's largest
    signal speed over its whole array (ghost zones included), the
    ``vmax`` of :func:`~repro.hydro.timestep.hydro_timestep`; NaN
    propagates."""
    return np.array([
        signal_speeds(dict(zip(STEP_FIELDS, plan.arrays)), gamma).max()
        for plan in plans], dtype=float)


class PPMSolver:
    """PPM/HLLC gas dynamics in comoving coordinates.

    Parameters
    ----------
    gamma:
        Adiabatic index.
    reconstruction:
        'ppm' (default) or 'plm'.
    riemann_solver:
        'hllc' (default) or 'hll'.
    nghost:
        Ghost zones carried by the grids (3 suffices for this PPM variant).
    dual_energy_eta:
        Threshold of the dual-energy selection criterion.
    density_floor, energy_floor:
        Positivity floors (code units).
    """

    def __init__(
        self,
        gamma: float = const.GAMMA,
        reconstruction: str = "ppm",
        riemann_solver: str = "hllc",
        nghost: int = 3,
        dual_energy_eta: float = 1e-3,
        density_floor: float = 1e-12,
        energy_floor: float = 1e-30,
        flattening: bool = True,
        characteristic_tracing: bool = False,
    ):
        self.gamma = gamma
        self.reconstruction = reconstruction
        self.riemann_solver = riemann_solver
        self.nghost = int(nghost)
        self.dual_energy_eta = dual_energy_eta
        self.density_floor = density_floor
        self.energy_floor = energy_floor
        #: CW84 shock flattening: revert toward donor-cell inside strong
        #: compressions (suppresses post-shock ringing)
        self.flattening = flattening
        #: full CW84 characteristic tracing of the interface states (the
        #: genuine PPM predictor); off by default — reconstruct-then-Riemann
        #: is the more robust choice in the deep-collapse regime
        self.characteristic_tracing = characteristic_tracing

    @property
    def scheme(self) -> str:
        """The face-state scheme of ``hydro.step``."""
        if self.reconstruction == "ppm" and self.characteristic_tracing:
            return "trace"
        if self.reconstruction == "ppm" and self.flattening:
            return "ppm+flatten"
        return self.reconstruction

    # ------------------------------------------------------------------ API
    def step(
        self,
        fields: FieldSet,
        dx: float,
        dt: float,
        a: float = 1.0,
        adot: float = 0.0,
        accel=None,
        permute: int = 0,
        full_update: bool = False,
        windows=None,
        plan=None,
    ) -> StepFluxes:
        """Advance the gas of one grid by dt: :meth:`step_level` of one.

        ``dx`` is the comoving cell width in code units; ``a``/``adot``
        the mid-step scale factor and its derivative; ``accel`` an optional
        (3, ...) peculiar acceleration field; ``permute`` rotates the sweep
        order (Strang permutation across steps); ``windows`` the grid's
        :class:`~repro.amr.flux_correction.FaceWindows` (None: the step
        stores no flux); ``plan`` the grid's :class:`StepPlan` for these
        fields and windows, when the caller keeps one (a plan made for
        other arrays is not used).

        The active zone is always advanced in full.  Ghost cells are
        advanced only where a later sweep of this step reads them (the
        caller refills every ghost zone before the next step, as
        SetBoundaryValues does); ``full_update`` advances every cell the
        stencils reach, for a caller that steps again without a boundary
        fill in between.
        """
        if plan is not None and not plan.holds(
                step_arrays(fields), self.nghost,
                None if windows is None else windows.table):
            plan = None
        return self.step_level([(fields, accel, windows, plan)], dx, dt, a,
                               adot, permute, full_update=full_update)[0]

    def step_level(self, steps, dx, dt, a=1.0, adot=0.0, permute=0,
                   full_update=False) -> list:
        """Advance the gas of several grids of one level by dt: one
        ``hydro.step`` kernel call; returns their :class:`StepFluxes`, each
        with its :func:`step_health` row.

        ``steps`` holds one ``(fields, accel, windows, plan)`` per grid,
        as :meth:`step` takes them; a given ``plan`` must be the one made
        for those fields and windows (a grid's own,
        :meth:`~repro.amr.grid.Grid.hydro_plan`), None builds a one-off.
        """
        calls, results = [], []
        for fields, accel, windows, plan in steps:
            if plan is None:
                plan = StepPlan(step_arrays(fields), self.nghost,
                                None if windows is None else windows.table)
            out = StepFluxes()
            outs = []
            if windows is not None:
                outs, out.boundary, out.coarse = windows.allocate(
                    len(plan.arrays) - 1)
            calls.append((plan, accel, outs))
            results.append(out)
        counts, health = kernels.get("hydro.step")(
            calls, dx, dt, a, permute, full_update, self.gamma, self.scheme,
            self.riemann_solver, self.density_floor, self.energy_floor,
            self.dual_energy_eta,
            # exp stays NumPy on every tier
            expansion_factors(a, adot, dt, self.gamma),
        )
        for out, row, health_row in zip(results, counts.tolist(),
                                        health.tolist()):
            if any(row):
                out.add_diagnostics(_summed(STEP_COUNTS, row))
            out.health = health_row
        return results


def _summed(keys, values) -> dict:
    """``{key: sum of its values}`` over the nonzero values, keys in the
    order of their first nonzero value."""
    out: dict = {}
    for key, value in zip(keys, values):
        if value:
            out[key] = out.get(key, 0) + value
    return out
