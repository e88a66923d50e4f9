"""SetBoundaryValues: ghost-zone filling across the hierarchy.

Paper Sec. 3.2.1 — the two-step procedure:

1. "All boundary values are first interpolated from the grid's parent" —
   conservative linear in space, linear in time between the parent's old
   and new states (the W-cycle ordering guarantees both exist).
2. "Grids which border other grids on the same level (i.e. siblings) use
   the solution from the sibling grid" — direct copy, overriding the
   parent interpolation wherever finer-resolution data exists.

The root grid uses the problem's predefined boundary (periodic here).
"""

from __future__ import annotations

from repro.amr.interpolation import is_positive_field, parent_covers, shell_boxes
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


def interpolate_from_parent(child, parent, include_phi: bool = True) -> None:
    """Fill the child's ghost shell by conservative interpolation from the
    parent, time-centred; interior cells are not touched."""
    r = child.refine_factor
    ng = child.nghost
    lo_f = child.start_index - ng
    # every sampled parent cell keeps both neighbours (a 1-cell slope rim)
    if not parent_covers(parent, lo_f, child.end_index + ng, r, pad=1):
        raise ValueError(
            f"child ghost region leaves parent array: {child} in {parent}"
        )
    names = _boundary_field_names(child)
    coarse = [parent.fields[n] for n in names]
    coarse_old = (None if parent.old_fields is None
                  else [parent.old_fields[n] for n in names])
    fine = [child.fields[n] for n in names]
    positive = [is_positive_field(n) for n in names]
    if include_phi and child.phi is not None and parent.phi is not None:
        # the potential is not interpolated in time
        coarse.append(parent.phi)
        fine.append(child.phi)
        positive.append(False)
        if coarse_old is not None:
            coarse_old.append(None)
    kernels.get("prolong.linear")(
        coarse, coarse_old, _time_fraction(child, parent), positive,
        parent.start_index - parent.nghost, r, fine, lo_f,
        shell_boxes(child.start_index, child.end_index, ng),
    )


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


def copy_from_sibling_links(grid, links, include_phi: bool = True) -> None:
    """Like :func:`copy_from_siblings` but from precomputed SiblingLinks."""
    names = _boundary_field_names(grid)
    for link in links:
        other = link.sibling
        for name in names:
            grid.fields[name][link.ghost_dst] = other.fields[name][link.ghost_src]
        if include_phi and grid.phi is not None and other.phi is not None:
            grid.phi[link.ghost_dst] = other.phi[link.ghost_src]


def set_boundary_values(hierarchy, level: int, include_phi: bool = True) -> None:
    """The paper's SetBoundaryValues(all grids) for one level."""
    grids = hierarchy.level_grids(level)
    if level == 0:
        for g in grids:
            fill_ghosts_periodic(g.fields, g.nghost)
            if include_phi and g.phi is not None:
                wrap_phi_ghosts(g)
        return
    for g in grids:
        interpolate_from_parent(g, g.parent, include_phi)
    smap = hierarchy.sibling_map(level)
    for g in grids:
        copy_from_sibling_links(g, smap.get(g.grid_id, ()), include_phi)


def wrap_phi_ghosts(grid) -> None:
    """Periodic wrap of the root potential's ghost zones."""
    fill_ghosts_periodic(FieldSet(phi=grid.phi), grid.nghost)
