"""Collapsed-object finding and derived diagnostics (paper Sec. 6).

"These routines facilitate finding collapsed objects and other regions of
interest ... to derived quantities like cooling times, two-body relaxation
times, X-ray luminosities and inertial tensors."
"""

from __future__ import annotations

import numpy as np

from repro import constants as const


def find_clumps(hierarchy, overdensity: float = 5.0, level: int = 0) -> list[dict]:
    """Connected overdense regions on one level's composite data.

    Returns one dict per clump: cell count, total gas mass (code),
    centre-of-mass position, peak density.

    Cells connect through faces.  Along an axis where a grid spans the
    whole periodic box (every axis of the root grid), a region that
    crosses the box face is one clump, and its centre of mass is taken
    with the minimum-image shift and wrapped into the box.  On refined
    levels each grid is labelled on its own, so a region split between
    sibling grids is reported once per grid.
    """
    from scipy import ndimage

    clumps = []
    for g in hierarchy.level_grids(level):
        rho = g.field_view("density")
        labels, n = ndimage.label(rho > overdensity)
        periodic = [ax for ax in range(3)
                    if g.dims[ax] == g.cells_per_dim_at_level]
        if periodic:
            labels, n = _merge_across_faces(labels, n, periodic)
        for i in range(1, n + 1):
            sel = labels == i
            w = rho[sel]
            idx = np.argwhere(sel)
            x = (g.start_index + idx + 0.5) * g.dx
            for ax in periodic:
                if idx[:, ax].min() == 0 and idx[:, ax].max() == g.dims[ax] - 1:
                    # straddles the box face: unwrap about the peak cell
                    d = x[:, ax] - x[np.argmax(w), ax]
                    x[:, ax] -= np.round(d)
            com = (x * w[:, None]).sum(axis=0) / w.sum()
            clumps.append(
                {
                    "n_cells": int(sel.sum()),
                    "gas_mass": float(w.sum() * g.dx**3),
                    "position": np.mod(com, 1.0),
                    "peak_density": float(w.max()),
                    "level": level,
                }
            )
    return sorted(clumps, key=lambda c: -c["gas_mass"])


def _merge_across_faces(labels: np.ndarray, n: int, axes) -> tuple[np.ndarray, int]:
    """Join labels that touch across the opposite faces of ``axes``;
    returns the relabelled field (labels ``1..m``, ordered by each merged
    set's smallest old label) and ``m``."""
    root = np.arange(n + 1)

    def find(i):
        while root[i] != i:
            root[i] = root[root[i]]
            i = root[i]
        return i

    for ax in axes:
        lo = np.take(labels, 0, axis=ax).ravel()
        hi = np.take(labels, -1, axis=ax).ravel()
        both = (lo > 0) & (hi > 0)
        for a, b in set(zip(lo[both].tolist(), hi[both].tolist())):
            ra, rb = find(a), find(b)
            if ra != rb:
                root[max(ra, rb)] = min(ra, rb)
    final = np.array([find(i) for i in range(n + 1)])
    kept, relabel = np.unique(final, return_inverse=True)
    return relabel[labels], len(kept) - 1


def freefall_time(density_cgs) -> np.ndarray:
    """t_ff = sqrt(3 pi / (32 G rho)) in seconds."""
    rho = np.maximum(np.asarray(density_cgs, dtype=float), 1e-300)
    return np.sqrt(3.0 * np.pi / (32.0 * const.GRAVITATIONAL_CONSTANT * rho))


def cooling_time(n: dict, temperature, rho_cgs, z: float = 0.0) -> np.ndarray:
    """t_cool = (3/2) n_tot k T / Lambda, in seconds."""
    from repro.chemistry.cooling import cooling_rate
    from repro.chemistry.species import SPECIES_NAMES

    n_tot = sum(n[s] for s in SPECIES_NAMES)
    thermal = 1.5 * n_tot * const.BOLTZMANN_CONSTANT * np.asarray(temperature)
    lam = np.maximum(cooling_rate(n, temperature, z), 1e-300)
    return thermal / lam


def two_body_relaxation_time(n_particles: int, crossing_time: float) -> float:
    """t_relax ~ (N / 8 ln N) t_cross — flags where particle noise matters."""
    n = max(int(n_particles), 2)
    return n / (8.0 * np.log(n)) * crossing_time


def inertia_tensor(positions, masses, centre=None) -> np.ndarray:
    """Second-moment tensor of a mass distribution (shape diagnostics)."""
    pos = np.asarray(positions, dtype=float)
    m = np.asarray(masses, dtype=float)
    if centre is None:
        centre = (pos * m[:, None]).sum(axis=0) / m.sum()
    d = pos - centre
    tensor = np.einsum("i,ij,ik->jk", m, d, d)
    return tensor / m.sum()


def axis_ratios(tensor: np.ndarray) -> tuple[float, float]:
    """b/a and c/a from the inertia tensor eigenvalues (sphericity check:
    the paper notes 'the protostar is still collapsing and not yet
    spherical')."""
    evals = np.sort(np.linalg.eigvalsh(tensor))[::-1]
    evals = np.maximum(evals, 1e-300)
    return float(np.sqrt(evals[1] / evals[0])), float(np.sqrt(evals[2] / evals[0]))


def xray_luminosity(ne_cgs, ni_cgs, temperature, volume_cm3) -> np.ndarray:
    """Bremsstrahlung X-ray luminosity, erg/s (hot-gas diagnostic)."""
    t = np.asarray(temperature, dtype=float)
    gff = 1.1 + 0.34 * np.exp(-((5.5 - np.log10(np.maximum(t, 1.0))) ** 2) / 3.0)
    emissivity = 1.43e-27 * np.sqrt(t) * gff * np.asarray(ne_cgs) * np.asarray(ni_cgs)
    return emissivity * np.asarray(volume_cm3)
