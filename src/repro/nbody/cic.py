"""Cloud-in-cell (CIC) mass deposition and force interpolation.

All functions take *float64 offsets from the target grid's left edge* (the
output of :meth:`ParticleSet.offsets_from` — extended precision has already
done its job) plus the grid geometry.  Deposit and gather use the same CIC
kernel, which is what guarantees momentum-conserving self-forces vanish on a
periodic mesh.

The particle loops are the ``cic.deposit`` / ``cic.gather`` kernels;
:func:`deposit_numpy` and :func:`gather_numpy` are their references.
"""

from __future__ import annotations

import numpy as np

from repro import kernels


def _cic_indices(offsets: np.ndarray, dx: float, shape, periodic: bool):
    """Base cell indices and weights for CIC (cell-centred grid).

    A particle at cell-centre offset u = x/dx - 0.5 contributes to cells
    floor(u) and floor(u)+1 per dimension with weights (1-f, f).
    """
    u = offsets / dx - 0.5
    base = np.floor(u).astype(np.int64)
    frac = u - base
    shape_arr = np.array(shape)
    if periodic:
        in_bounds = np.ones(offsets.shape[0], dtype=bool)
        base_mod = base % shape_arr
    else:
        in_bounds = np.all((base >= -1) & (base <= shape_arr - 1), axis=1)
        base_mod = base
    return base_mod, frac, in_bounds


def deposit_numpy(grid, offsets, masses, dx, dx3, periodic):
    """Reference ``cic.deposit``: add mass / ``dx3`` of every particle to
    ``grid`` in place.  ``np.add.at`` applies one corner for all particles,
    then the next, so a cell receiving several particles sums them in that
    (corner-major) order."""
    base, frac, ok = _cic_indices(offsets, dx, grid.shape, periodic)
    # deposit density directly: mass / cell volume
    masses = np.asarray(masses, dtype=float) / dx3
    base, frac, masses = base[ok], frac[ok], masses[ok]
    shape_arr = np.array(grid.shape)
    for corner in range(8):
        d = np.array([(corner >> b) & 1 for b in (2, 1, 0)])
        w = np.prod(np.where(d, frac, 1.0 - frac), axis=1)
        idx = base + d
        if periodic:
            idx = idx % shape_arr
            valid = slice(None)
        else:
            inb = np.all((idx >= 0) & (idx < shape_arr), axis=1)
            idx, w = idx[inb], w[inb]
            valid = inb
        np.add.at(
            grid,
            (idx[:, 0], idx[:, 1], idx[:, 2]),
            (masses[valid] if not periodic else masses) * w,
        )


def cic_deposit(
    offsets: np.ndarray,
    masses: np.ndarray,
    shape,
    dx: float,
    periodic: bool = True,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Deposit particle masses onto a density grid (mass / cell-volume).

    ``offsets``: (n, 3) float64 positions relative to the grid's left edge.
    Non-periodic grids silently drop the mass fraction that falls outside
    (the AMR layer guarantees particles are deposited on a grid that
    contains them, so nothing is lost globally).
    """
    grid = np.zeros(shape) if out is None else out
    if len(masses) == 0:
        return grid
    # dx**3 here, not in the kernel: the C never calls its own pow
    kernels.get("cic.deposit")(grid, offsets, masses, dx, dx**3, periodic)
    return grid


def gather_numpy(field3, offsets, dx, periodic):
    """Reference ``cic.gather``: a (3, nx, ny, nz) vector field at the
    particle positions, every particle's sum taken over the corners in
    order from +0.0."""
    n = offsets.shape[0]
    out = np.zeros((n, 3))
    if n == 0:
        return out
    shape = field3.shape[1:]
    base, frac, ok = _cic_indices(offsets, dx, shape, periodic)
    shape_arr = np.array(shape)
    for corner in range(8):
        d = np.array([(corner >> b) & 1 for b in (2, 1, 0)])
        w = np.prod(np.where(d, frac, 1.0 - frac), axis=1)
        idx = base + d
        if periodic:
            idx = idx % shape_arr
            use = np.ones(n, dtype=bool)
        else:
            use = np.all((idx >= 0) & (idx < shape_arr), axis=1) & ok
            idx = np.clip(idx, 0, shape_arr - 1)
        for axis in range(3):
            out[:, axis] += np.where(
                use, w * field3[axis][idx[:, 0], idx[:, 1], idx[:, 2]], 0.0
            )
    return out


def cic_gather(
    field3: np.ndarray,
    offsets: np.ndarray,
    dx: float,
    periodic: bool = True,
) -> np.ndarray:
    """Interpolate a (3, nx, ny, nz) vector field to particle positions."""
    return kernels.get("cic.gather")(field3, offsets, dx, periodic)
