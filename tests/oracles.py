"""Reference implementations several test modules check the library
against: the per-grid forms of what the library does per level."""

from repro.amr.interpolation import shell_table


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
        for name, _ in grid.fields.array_items():
            grid.fields[name][my_sl] = other.fields[name][o_sl]
        if include_phi and grid.phi is not None and other.phi is not None:
            grid.phi[my_sl] = other.phi[o_sl]


def shell_boxes(start, end, ng: int):
    """Six disjoint fine-index ``(lo, hi)`` boxes tiling the ``ng``-wide
    ghost shell around the interior ``[start, end)``."""
    return [(tuple(row[1:4]), tuple(row[4:7]))
            for row in shell_table(start, end, ng).tolist()]
