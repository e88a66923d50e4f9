"""SetBoundaryValues: ghost-zone filling across the hierarchy.

Paper Sec. 3.2.1 — the two-step procedure:

1. "All boundary values are first interpolated from the grid's parent" —
   conservative linear in space, linear in time between the parent's old
   and new states (the W-cycle ordering guarantees both exist).
2. "Grids which border other grids on the same level (i.e. siblings) use
   the solution from the sibling grid" — direct copy, overriding the
   parent interpolation wherever finer-resolution data exists.

Both steps of a level are one ``fill.level`` kernel call over the level's
grids, fields and potential, on the ghost plan of the hierarchy's cached
:class:`~repro.amr.topology.LevelTopology` (checked once while the level's
and its parent level's grids stay the same, rebuilds that keep both
included).
A ghost cell a sibling's interior covers is copied and never prolonged:
prolongation is per-cell local, so skipping it changes no value.

The root grid uses the problem's predefined boundary (periodic here).
"""

from __future__ import annotations

from repro.amr.topology import LevelTopology
from repro.hydro.state import FieldSet, fill_ghosts_periodic
from repro.kernels import dispatch as kernels


def _time_fraction(child, parent) -> float:
    denom = float(parent.time - parent.old_time)
    if denom <= 0.0:
        return 1.0
    frac = float(child.time - parent.old_time) / denom
    # clamp: a child's last subcycle can land a hair past the parent's new
    # time (the remaining*1e-12 dt floor), which must not extrapolate
    return min(max(frac, 0.0), 1.0)


def fill_ghosts(topo: LevelTopology) -> None:
    """Fill the ghost shell of every grid of ``topo`` in one ``fill.level``
    call on its checked ghost plan: sibling interiors where they reach,
    parent interpolation (time-centred) everywhere else; interiors are not
    touched.  The potential is filled too; it is not interpolated in
    time."""
    if not topo.grids:
        return
    kernels.get("fill.level")(topo.ghost_plan(), ghost_fractions(topo))


def ghost_fractions(topo: LevelTopology) -> list:
    """Each grid's time fraction between its parent's old and new states:
    the one part of a ghost fill computed per call.  A fraction depends
    only on the child's time and the parent's clocks, so it is worked out
    once per distinct set of them (a level's grids usually share one)."""
    clocks = [(float(p.time.hi), float(p.time.lo), float(p.old_time.hi),
               float(p.old_time.lo))
              for p in topo.parents]
    memo, fracs = {}, []
    for g, k in zip(topo.grids, topo.parent_of):
        key = (clocks[k], float(g.time.hi), float(g.time.lo))
        frac = memo.get(key)
        if frac is None:
            frac = memo[key] = _time_fraction(g, topo.parents[k])
        fracs.append(frac)
    return fracs


def set_boundary_values(hierarchy, level: int) -> None:
    """The paper's SetBoundaryValues(all grids) for one level."""
    if level == 0:
        for g in hierarchy.level_grids(0):
            fill_ghosts_periodic(g.fields, g.nghost)
            wrap_phi_ghosts(g)
        return
    fill_ghosts(hierarchy.level_topology(level))


def wrap_phi_ghosts(grid) -> None:
    """Periodic wrap of the root potential's ghost zones."""
    fill_ghosts_periodic(FieldSet(phi=grid.phi), grid.nghost)
