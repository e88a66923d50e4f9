"""Reference implementations several test modules check the library
against: the per-grid forms of what the library does per level."""

import numpy as np

from repro.amr.interpolation import shell_table


def ghost_overlap(grid, other):
    """``(lo, hi)``: where ``grid``'s ghost-expanded region meets the
    interior of ``other`` (same level), or ``None``."""
    if other.level != grid.level:
        raise ValueError("sibling relations are same-level only")
    lo = np.maximum(grid.start_index - grid.nghost, other.start_index)
    hi = np.minimum(grid.end_index + grid.nghost, other.end_index)
    if np.any(lo >= hi):
        return None
    return lo, hi


def copy_from_siblings(grid, siblings) -> None:
    """Overwrite ghost cells, fields and potential, with sibling interior
    data where they overlap."""
    ng = grid.nghost
    my_lo = grid.start_index - ng
    for other in siblings:
        ov = ghost_overlap(grid, other)
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
        grid.phi[my_sl] = other.phi[o_sl]


def shell_boxes(start, end, ng: int):
    """Six disjoint fine-index ``(lo, hi)`` boxes tiling the ``ng``-wide
    ghost shell around the interior ``[start, end)``."""
    return [(tuple(row[1:4]), tuple(row[4:7]))
            for row in shell_table(start, end, ng).tolist()]
