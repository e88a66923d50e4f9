"""Reference implementations several test modules check the library
against: the per-grid forms of what the library does per level."""

from types import SimpleNamespace

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


def one_grid_plan(rim, phi=None, nghost=1, dx=0.1):
    """A level of one grid and no sibling in the layout of a
    :class:`~repro.amr.topology.PoissonPlan`, as ``dispatch.warm`` builds
    it for ``mg.level``.  ``rim`` is the grid's rim-padded array (``dims +
    2``: the Dirichlet rim around the initial guess), used in place as the
    plan's rim buffer; ``phi`` is the potential the kernel writes (``dims
    + 2 nghost``, zeros when not given).  With one ghost layer the
    potential is the rim-padded solution itself."""
    dims = tuple(n - 2 for n in rim.shape)
    if phi is None:
        phi = np.zeros(tuple(n + 2 * nghost for n in dims))
    rims = rim.reshape(-1)
    assert np.shares_memory(rims, rim)
    return SimpleNamespace(
        phis=[phi], dims=np.array([dims], dtype=np.int64), nghost=nghost,
        dx=dx, rims=rims, rim_views=[rim],
        rim_offsets=np.array([0, rim.size], dtype=np.int64),
        cell_offsets=np.array([0, int(np.prod(dims))], dtype=np.int64),
        rim_rows=np.empty((0, 11), dtype=np.int64), native=None,
        interiors=lambda src: [src.reshape(dims)])


def one_grid_solve(level, start, source, dx, pre, post, min_size, tol,
                   budget, strict=False, force_diverge=False):
    """One subgrid solve as one ``level`` (an ``mg.level`` kernel) call on
    a :func:`one_grid_plan` with one ghost layer, from a copy of the
    rim-padded ``start``.  Returns ``(failed, phi, (cycles, residual,
    converged))``: the grid index a strict solve failed on (or -1), the
    solution (zeros where a failed strict solve wrote nothing) and the
    solve's statistics."""
    plan = one_grid_plan(start.copy(), dx=dx)
    stats = np.zeros((1, 3))
    failed, _ = level(plan, source.reshape(-1), 0, 1, pre, post, min_size,
                      tol, budget, strict, force_diverge, False, stats)
    cycles, residual, converged = stats[0].tolist()
    return failed, plan.phis[0], (int(cycles), residual, bool(converged))
