"""ZEUS-style finite-difference hydrodynamics (the paper's second solver).

"...as well as a robust finite difference technique [Stone & Norman 1992].
This allows us a double check on any result." (paper Sec. 3.2.1)

The scheme follows the ZEUS operator split:

* **source step** — pressure acceleration, von Neumann–Richtmyer quadratic
  artificial viscosity (plus a small linear term), and time-centred
  compressional heating of the internal energy;
* **transport step** — directionally split van Leer (second-order upwind)
  advection of mass, momentum (consistent transport) and internal energy.

One deliberate simplification relative to ZEUS: velocities are cell-centred
rather than face-staggered, with face values obtained by averaging.  The
artificial viscosity and upwind transport supply the same dissipation
channels, which is what makes the scheme "robust"; the staggering detail is
orthogonal to everything the paper measures.  ZEUS is non-conservative by
construction (internal-energy formulation) — energy-conservation tests must
use the PPM solver.
"""

from __future__ import annotations

import numpy as np

from repro import constants as const
from repro.hydro.ppm import (
    WINDOW_FIELDS,
    StepFluxes,
    step_arrays,
    step_health,
    store_windows,
)
from repro.hydro.sources import apply_acceleration, apply_expansion_drag
from repro.hydro.state import FieldSet, VELOCITY_FIELDS, total_energy


class ZeusSolver:
    """ZEUS-like solver with the same interface as :class:`PPMSolver`."""

    def __init__(
        self,
        gamma: float = const.GAMMA,
        nghost: int = 3,
        quadratic_viscosity: float = 2.0,
        linear_viscosity: float = 0.1,
        density_floor: float = 1e-12,
        energy_floor: float = 1e-30,
    ):
        self.gamma = gamma
        self.nghost = int(nghost)
        self.cq = quadratic_viscosity
        self.cl = linear_viscosity
        self.density_floor = density_floor
        self.energy_floor = energy_floor

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
        """Advance by dt: gravity half-kicks, source step, transport sweeps.

        Every step updates every cell its stencils reach, so
        ``full_update`` (see :meth:`PPMSolver.step`) changes nothing here,
        and there is no compiled step to read a ``plan``.
        The sweeps compute whole face arrays and store the planes of
        ``windows`` as ``hydro.step`` does; the result carries the step's
        :func:`~repro.hydro.ppm.step_health` row, as ``hydro.step``'s do.
        """
        if accel is not None:
            apply_acceleration(fields, accel, 0.5 * dt)

        order = [(permute + k) % 3 for k in range(3)]
        for axis in order:
            self._source_step(fields, axis, dx, dt, a)
        out = StepFluxes()
        outs = []
        if windows is not None:
            outs, out.boundary, out.coarse = windows.allocate(
                len(WINDOW_FIELDS) + len(fields.advected))
        for axis in order:
            fluxes, floor_counts = self._transport_step(fields, axis, dx, dt, a)
            if windows is not None:
                store_windows(axis, [fluxes[name] for name in WINDOW_FIELDS
                                     + tuple(fields.advected)],
                              windows.table, outs)
            out.add_diagnostics(floor_counts)

        if accel is not None:
            apply_acceleration(fields, accel, 0.5 * dt)

        apply_expansion_drag(fields, a, adot, dt, self.gamma)
        out.add_diagnostics({
            "internal_floor": int(
                np.count_nonzero(fields["internal"] < self.energy_floor)
            ),
        })
        np.maximum(fields["internal"], self.energy_floor,
                   out=fields["internal"])
        np.copyto(fields["energy"], total_energy(fields))
        out.health = step_health(step_arrays(fields), self.nghost)
        return out

    def step_level(self, steps, dx, dt, a=1.0, adot=0.0, permute=0,
                   full_update=False) -> list:
        """:meth:`step` on each ``(fields, accel, windows, plan)`` of
        ``steps`` in turn (the interface of :meth:`PPMSolver.step_level`),
        each result with its health row."""
        return [self.step(fields, dx, dt, a, adot, accel, permute,
                          full_update, windows)
                for fields, accel, windows, _plan in steps]

    # ------------------------------------------------------------- source step
    def _source_step(self, fields: FieldSet, axis: int, dx: float, dt: float, a: float):
        def fwd(arr):
            return np.moveaxis(arr, axis, 0)

        rho = fwd(fields["density"])
        u = fwd(fields[VELOCITY_FIELDS[axis]])
        e = fwd(fields["internal"])
        n = rho.shape[0]
        ng = self.nghost
        # the source step's central stencils are valid one cell into the
        # ghost band, and updating that band keeps the transport step's face
        # velocities consistent across periodic/sibling images
        upd = slice(1, n - 1)
        k = dt / (a * dx)

        p = (self.gamma - 1.0) * rho * e
        cs = np.sqrt(self.gamma * (self.gamma - 1.0) * np.maximum(e, 0.0))

        # artificial viscosity on compression (cell-centred divergence proxy)
        dv = np.zeros_like(u)
        dv[1:-1] = 0.5 * (u[2:] - u[:-2])
        compress = np.minimum(dv, 0.0)
        q_visc = self.cq * rho * compress**2 - self.cl * rho * cs * compress

        # velocity update: pressure + viscosity gradient
        grad = np.zeros_like(u)
        grad[1:-1] = 0.5 * (p[2:] - p[:-2]) + 0.5 * (q_visc[2:] - q_visc[:-2])
        u[upd] -= k * grad[upd] / rho[upd]

        # compressional + viscous heating (time-centred Crank-Nicolson form)
        div = np.zeros_like(u)
        div[1:-1] = 0.5 * (u[2:] - u[:-2])
        alpha = 0.5 * (self.gamma - 1.0) * k * div[upd]
        e[upd] = e[upd] * (1.0 - alpha) / (1.0 + alpha)
        e[upd] -= k * (q_visc[upd] / rho[upd]) * div[upd]
        np.maximum(e, self.energy_floor, out=e)

    # ---------------------------------------------------------- transport step
    def _transport_step(self, fields: FieldSet, axis: int, dx: float, dt: float, a: float):
        def fwd(arr):
            return np.moveaxis(arr, axis, 0)

        rho = fwd(fields["density"])
        n = rho.shape[0]
        ng = self.nghost
        k = dt / (a * dx)

        u = fwd(fields[VELOCITY_FIELDS[axis]])
        u_face = 0.5 * (u[:-1] + u[1:])  # velocity at faces 0..n-2

        def vanleer_face(q):
            """Second-order van Leer upwind face values of q (faces 0..n-2)."""
            dq = np.zeros_like(q)
            dqm = q[1:-1] - q[:-2]
            dqp = q[2:] - q[1:-1]
            denom = dqm + dqp
            with np.errstate(divide="ignore", invalid="ignore"):
                vl = np.where(dqm * dqp > 0.0, 2.0 * dqm * dqp / np.where(denom == 0, 1, denom), 0.0)
            dq[1:-1] = vl
            q_left = q[:-1] + 0.5 * dq[:-1]  # upwind from cell i
            q_right = q[1:] - 0.5 * dq[1:]  # upwind from cell i+1
            return np.where(u_face > 0.0, q_left, q_right)

        # mass flux first (consistent transport)
        rho_face = vanleer_face(rho)
        f_rho = rho_face * u_face

        fluxes = {"density": f_rho}
        # specific quantities advected with the mass flux
        specific = {"internal": fwd(fields["internal"])}
        for name in VELOCITY_FIELDS:
            specific[name] = fwd(fields[name])
        for name in fields.advected:
            specific[name] = fwd(fields[name]) / rho  # fraction

        upd = slice(ng, n - ng)  # interior band only
        fsl = slice(ng - 1, n - ng)

        def dflux(f):
            return np.diff(f[fsl], axis=0)

        rho_old = rho.copy()
        rho_new = rho_old[upd] - k * dflux(f_rho)
        floor_counts = {
            "density_floor": int(np.count_nonzero(rho_new < self.density_floor)),
        }
        rho[upd] = np.maximum(rho_new, self.density_floor)

        for name, q in specific.items():
            q_face = vanleer_face(q)
            f_q = f_rho * q_face
            fluxes[name] = f_q
            new_cons = rho_old[upd] * q[upd] - k * dflux(f_q)
            q[upd] = new_cons / rho[upd]
        # convert advected fractions back to densities
        for name in fields.advected:
            arr = fwd(fields[name])
            arr[upd] = np.maximum(specific[name][upd] * rho[upd], 0.0)
        e_arr = fwd(fields["internal"])
        floor_counts["internal_floor"] = int(
            np.count_nonzero(e_arr < self.energy_floor)
        )
        np.maximum(e_arr, self.energy_floor, out=e_arr)

        face_sl = (slice(ng - 1, n - ng),) + tuple(
            slice(ng, s - ng) for s in rho.shape[1:]
        )
        out = {}
        for fname, arr in fluxes.items():
            out[fname] = (dt / a) * np.moveaxis(arr[face_sl], 0, axis)
        # approximate energy flux for the flux-correction bookkeeping
        out["energy"] = out["internal"]
        return out, floor_counts
