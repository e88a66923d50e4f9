"""SetBoundaryValues: ghost-zone filling across the hierarchy.

Paper Sec. 3.2.1 — the two-step procedure:

1. "All boundary values are first interpolated from the grid's parent" —
   conservative linear in space, linear in time between the parent's old
   and new states (the W-cycle ordering guarantees both exist).
2. "Grids which border other grids on the same level (i.e. siblings) use
   the solution from the sibling grid" — direct copy, overriding the
   parent interpolation wherever finer-resolution data exists.

Both steps of a level are one ``fill.level`` kernel call over the level's
grids, with the geometry of the hierarchy's cached
:class:`~repro.amr.topology.LevelTopology`.  A ghost cell a sibling's
interior covers is copied and never prolonged: prolongation is per-cell
local, so skipping it changes no value.

The root grid uses the problem's predefined boundary (periodic here).
"""

from __future__ import annotations

from itertools import chain

from repro.amr.interpolation import is_positive_field
from repro.amr.topology import LevelTopology
from repro.hydro.state import FieldSet, fill_ghosts_periodic
from repro.kernels import dispatch as kernels


def _boundary_field_names(grid):
    names = [k for k, _ in grid.fields.array_items()]
    return names


def _time_fraction(child, parent) -> float:
    denom = float(parent.time - parent.old_time)
    if denom <= 0.0 or parent.old_fields is None:
        return 1.0
    frac = float(child.time - parent.old_time) / denom
    # clamp: a child's last subcycle can land a hair past the parent's new
    # time (the remaining*1e-12 dt floor), which must not extrapolate
    return min(max(frac, 0.0), 1.0)


def fill_ghosts(topo: LevelTopology, include_phi: bool = True) -> None:
    """Fill the ghost shell of every grid of ``topo`` in one ``fill.level``
    call: sibling interiors where they reach, parent interpolation
    (time-centred) everywhere else; interiors are not touched."""
    if topo.grids:
        kernels.get("fill.level")(*ghost_fill_args(topo, include_phi))


def ghost_fill_args(topo: LevelTopology, include_phi: bool = True) -> tuple:
    """The ``fill.level`` arguments of :func:`fill_ghosts`.  The potential
    is filled too when ``include_phi`` and every grid and parent carries
    one; it is not interpolated in time."""
    grids, parents = topo.grids, topo.parents
    if parents is None:
        raise ValueError("a ghost fill needs every grid's parent")
    if topo.ghost_misfit is not None:
        child = grids[topo.ghost_misfit]
        raise ValueError(
            f"child ghost region leaves parent array: {child} in "
            f"{parents[topo.parent_of[topo.ghost_misfit]]}")
    names = _boundary_field_names(grids[0])
    with_phi = include_phi and all(g.phi is not None
                                   for g in chain(grids, parents))

    def arrays(grid):
        out = [grid.fields[n] for n in names]
        if with_phi:
            out.append(grid.phi)
        return out

    parent_rows = [
        (arrays(p), None if p.old_fields is None
         else [p.old_fields[n] for n in names] + [None] * with_phi, origin)
        for p, origin in zip(parents, topo.parent_origins)
    ]
    # one time fraction per distinct parent (and child time)
    fracs = {}
    targets, sources = [], []
    for g, origin, lo, hi, k in zip(grids, topo.origins, topo.starts,
                                    topo.ends, topo.parent_of):
        key = (k, float(g.time.hi), float(g.time.lo))
        frac = fracs.get(key)
        if frac is None:
            frac = fracs[key] = _time_fraction(g, parents[k])
        mine = arrays(g)
        targets.append((mine, origin, k, frac))
        sources.append((mine, origin, lo, hi))
    return (targets, parent_rows, sources, topo.shell, topo.copies,
            grids[0].refine_factor,
            [is_positive_field(n) for n in names] + [False] * with_phi)


def copy_from_siblings(grid, siblings, include_phi: bool = True) -> None:
    """Overwrite ghost cells with sibling interior data where they overlap."""
    ng = grid.nghost
    my_lo = grid.start_index - ng
    for other in siblings:
        ov = grid.ghost_overlap_with(other)
        if ov is None:
            continue
        lo, hi = ov
        my_sl = tuple(
            slice(int(lo[d] - my_lo[d]), int(hi[d] - my_lo[d])) for d in range(3)
        )
        o_sl = tuple(
            slice(int(lo[d] - other.start_index[d] + ng),
                  int(hi[d] - other.start_index[d] + ng))
            for d in range(3)
        )
        for name in _boundary_field_names(grid):
            grid.fields[name][my_sl] = other.fields[name][o_sl]
        if include_phi and grid.phi is not None and other.phi is not None:
            grid.phi[my_sl] = other.phi[o_sl]


def set_boundary_values(hierarchy, level: int, include_phi: bool = True) -> None:
    """The paper's SetBoundaryValues(all grids) for one level."""
    if level == 0:
        for g in hierarchy.level_grids(0):
            fill_ghosts_periodic(g.fields, g.nghost)
            if include_phi and g.phi is not None:
                wrap_phi_ghosts(g)
        return
    fill_ghosts(hierarchy.level_topology(level), include_phi)


def wrap_phi_ghosts(grid) -> None:
    """Periodic wrap of the root potential's ghost zones."""
    fill_ghosts_periodic(FieldSet(phi=grid.phi), grid.nghost)
