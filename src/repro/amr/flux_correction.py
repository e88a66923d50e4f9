"""Coarse-fine flux correction (paper Sec. 3.2.1).

"...correct the coarse fluxes (of conserved quantities) at subgrid
boundaries to reflect the improved flux estimates from the subgrid.  This
is required to ensure mass, momentum and energy conservation as material
flows into and out of a refined region."

Bookkeeping: during its substeps a child accumulates the dt/a-integrated
fluxes on the six boundary face planes of its interior.  When it has caught
up to its parent's time, each parent cell *adjacent outside* a child face
has its conserved state corrected by (F_fine_avg - F_coarse)/dx_parent with
the appropriate orientation sign, where F_fine_avg is the substep-summed,
(r x r)-face-averaged fine flux and F_coarse the parent's own flux through
that face.  Neither side keeps a full face array: every ``hydro.step``
stores its fluxes only in the planes of the grid's :class:`FaceWindows`
(Enzo's boundary and subgrid fluxes) — a child's boundary planes, which
:func:`accumulate_boundary_fluxes` sums over its substeps, and a parent's
planes at each child face, which ``parent.last_fluxes`` holds until
:func:`correct_parent` has read them.  Parent cells *covered* by
children are subsequently overwritten by projection, so only the outside
rim needs fixing.  A child face that coincides with its parent's own
boundary has no outside parent cell and is skipped (the neighbouring
parent's sibling exchange carries that information).

All children of one parent are corrected by one ``flux.correct`` kernel
call (:func:`correct_numpy` is its reference); parents touch disjoint
arrays, so correcting parent by parent is the same as child by child.
"""

from __future__ import annotations

import numpy as np

from repro import kernels
from repro.hydro.ppm import WINDOW_FIELDS
from repro.hydro.state import VELOCITY_FIELDS, sync_internal_from_total

#: conserved quantities corrected, the rows of every face window.  The
#: dual-energy 'internal' field is deliberately NOT corrected (nor its flux
#: stored): its evolution equation has a non-advective pdV source that the
#: flux bookkeeping cannot see, so correcting it with advective fluxes
#: alone injects (possibly negative) garbage; the dual-energy sync after
#: correction re-derives it from the corrected total energy wherever that
#: is trustworthy.
_CONSERVED = WINDOW_FIELDS

#: floor of a corrected parent density
DENSITY_FLOOR = 1e-12


class FluxAccumulator:
    """One child's substep-summed boundary fluxes.

    ``names`` are the corrected fields (``_CONSERVED`` + advected);
    ``blocks[ax]`` is a zero-initialised ``(2, len(names), n_t1, n_t2)``
    array — the lo and hi face planes of every field, transverse axes in
    increasing order, the layout of a :class:`FaceWindows` boundary
    block — and ``present[ax, f]`` says whether any substep added field
    ``f`` on axis ``ax``.
    """

    __slots__ = ("names", "blocks", "present")

    def __init__(self, names, dims):
        self.names = tuple(names)
        nf = len(self.names)
        self.blocks = [
            np.zeros((2, nf) + tuple(int(d) for i, d in enumerate(dims)
                                     if i != ax))
            for ax in range(3)
        ]
        self.present = np.zeros((3, nf), dtype=bool)

    @property
    def nbytes(self) -> int:
        return sum(block.nbytes for block in self.blocks)


def init_flux_accumulator(grid) -> None:
    grid.flux_accumulator = FluxAccumulator(
        _CONSERVED + tuple(grid.fields.advected), grid.dims)


def accumulate_boundary_fluxes(grid, step_fluxes) -> None:
    """Add one validated substep's boundary planes into the grid
    accumulator: one add per axis."""
    if step_fluxes.boundary is None:
        raise ValueError(f"flux correction: the step of {grid} stored no "
                         "boundary planes")
    if grid.flux_accumulator is None:
        init_flux_accumulator(grid)
    acc = grid.flux_accumulator
    for ax, planes in enumerate(step_fluxes.boundary):
        # zeros + plane: the same bits as the first substep's 0.0 + plane,
        # -0.0 included
        acc.blocks[ax] += planes
        acc.present[ax] = True


class FaceWindows:
    """Where one grid's ``hydro.step`` stores fluxes: the planes flux
    correction reads, and nothing else.

    ``table`` holds int64 rows ``(axis, lo_face, hi_face, a_lo, a_hi,
    b_lo, b_hi)`` in the grid's interior indices (faces ``0 ..
    dims[axis]``, transverse axes ascending), one per block: side 0 of the
    block takes face ``lo_face``, side 1 face ``hi_face``, a face of -1
    none.  When ``boundary`` (levels >= 1) the first three rows are the
    grid's own boundary planes, in :class:`FluxAccumulator` layout; then
    every child in ``children`` (grid ids, the grid's ``children`` order)
    has three rows, the faces :func:`face_cell` picks for its footprint —
    the periodic wrap on the root included, -1 where the face lies on the
    grid's own boundary.  The grid keeps its windows until its children
    change (:meth:`~repro.amr.grid.Grid.hydro_plan`).
    """

    __slots__ = ("table", "boundary", "children")

    def __init__(self, grid, children=()):
        n = [int(d) for d in grid.dims]
        periodic = periodic_axes(grid)
        rows = []
        self.boundary = grid.level > 0
        if self.boundary:
            for ax in range(3):
                t1, t2 = (d for d in range(3) if d != ax)
                rows.append((ax, 0, n[ax], 0, n[t1], 0, n[t2]))
        self.children = []
        for child in children:
            lo_p, hi_p = child.parent_index_region()
            lo = [int(v) for v in lo_p - grid.start_index]
            hi = [int(v) for v in hi_p - grid.start_index]
            for ax in range(3):
                t1, t2 = (d for d in range(3) if d != ax)
                faces = []
                for side in (0, 1):
                    cell = face_cell(lo, hi, ax, side, n[ax], periodic[ax])
                    faces.append(-1 if cell is None else cell[1])
                rows.append((ax, *faces, lo[t1], hi[t1], lo[t2], hi[t2]))
            self.children.append(child.grid_id)
        self.table = np.array(rows, dtype=np.int64).reshape(-1, 7)

    def allocate(self, nf: int):
        """One step's blocks: ``(outs, boundary, coarse)`` — every block in
        table order, the three boundary blocks (or None) and child id ->
        its three blocks."""
        outs = [np.zeros((2, nf, a1 - a0, b1 - b0))
                for _, _, _, a0, a1, b0, b1 in self.table.tolist()]
        k = 3 if self.boundary else 0
        coarse = {cid: outs[k + 3 * j:k + 3 * j + 3]
                  for j, cid in enumerate(self.children)}
        return outs, (outs[:3] if self.boundary else None), coarse


def periodic_axes(grid) -> list:
    """Per axis, whether the grid's box-edge faces wrap: a root grid that
    spans the box is periodic."""
    n_box = grid.cells_per_dim_at_level
    return [grid.level == 0 and int(d) == n_box for d in grid.dims]


def block_average(plane: np.ndarray, r: int) -> np.ndarray:
    """Mean of every (r x r) block of a 2-d fine face plane.

    At r = 2 the four fluxes are summed in the order
    ``plane.reshape(a, 2, b, 2).mean(axis=(1, 3))`` uses inside NumPy,
    written out so the C transcription can follow it: pairs along the
    last axis, ``(q00 + q01) + (q10 + q11)``, when b >= 2, but
    ``((q00 + q01) + q10) + q11`` when b = 1 (the four are then one
    contiguous run); the sum starts from +0.0, so a block of -0.0
    averages to +0.0.  ``tests/test_kernels.py`` pins the equality for
    every face from 1 x 1 to 16 x 16.  Other factors keep ``mean``.
    """
    s = plane.shape
    if r != 2:
        return plane.reshape(s[0] // r, r, s[1] // r, r).mean(axis=(1, 3))
    q00, q01 = plane[0::2, 0::2], plane[0::2, 1::2]
    q10, q11 = plane[1::2, 0::2], plane[1::2, 1::2]
    if s[1] == 2:
        total = ((q00 + q01) + q10) + q11
    else:
        total = (q00 + q01) + (q10 + q11)
    total += 0.0
    total /= 4.0
    return total


def face_cell(lo, hi, ax: int, side: int, n_ax: int, periodic: bool):
    """``(out_cell, face_idx)`` of the parent cell plane outside one child
    face (parent-local interior indices), or None when the face lies on the
    parent's own boundary.  A root grid spanning the box is periodic:
    there the face wraps to the opposite side."""
    face_idx = int(hi[ax] if side else lo[ax])
    out_cell = face_idx if side else face_idx - 1
    if out_cell < 0:
        if not periodic:
            return None
        # the outside cell is the last cell, whose RIGHT face (array
        # index n_ax) is the same physical face as index 0
        return n_ax - 1, n_ax
    if out_cell >= n_ax:
        if not periodic:
            return None
        return 0, 0
    return out_cell, face_idx


def correct_numpy(fields, names, ng, dx, periodic, r, children):
    """Reference ``flux.correct``: correct one parent for all its children.

    ``fields`` is the parent's field dict (ghost-inclusive arrays), updated
    in place — ``names`` (``_CONSERVED`` + advected) are corrected and
    ``internal`` / ``energy`` re-synced; ``periodic`` per axis whether
    faces on the box edge wrap; ``children`` a list of ``(lo, hi, fine,
    coarse, present)``: the child's footprint in parent-local interior
    indices, its :class:`FluxAccumulator` blocks and presence, and the
    parent's own planes at its faces, ``coarse[ax]`` shaped like
    ``fine[ax]`` with the footprint's extents (the child's block of the
    parent's :class:`FaceWindows`), rows in ``names`` order.  After each
    child the dual-energy sync runs over the whole parent, as it always
    has.
    """
    n = [s - 2 * ng for s in fields["density"].shape]
    advected = names[len(_CONSERVED):]
    for lo, hi, blocks, coarse, present in children:
        for ax in range(3):
            t_axes = [d for d in range(3) if d != ax]
            t_slices = tuple(slice(int(lo[d]), int(hi[d])) for d in t_axes)
            for side in (0, 1):
                cell = face_cell(lo, hi, ax, side, n[ax], periodic[ax])
                if cell is None:
                    continue  # child face on the parent's own boundary
                out_cell = cell[0]
                sign = 1.0 if side else -1.0
                deltas = {}
                for f, name in enumerate(names):
                    if not present[ax][f]:
                        continue
                    f_eff = block_average(blocks[ax][side, f], r)
                    deltas[name] = sign * (f_eff - coarse[ax][side, f]) / dx

                if not deltas:
                    continue
                # index the parent cell plane adjacent outside the face
                cell_idx = [None, None, None]
                cell_idx[ax] = ng + out_cell
                for td, tsl in zip(t_axes, t_slices):
                    cell_idx[td] = slice(ng + tsl.start, ng + tsl.stop)
                cell_idx = tuple(cell_idx)

                rho_old = fields["density"][cell_idx].copy()
                rho_new = rho_old + deltas.get("density", 0.0)
                rho_new = np.maximum(rho_new, DENSITY_FLOOR)
                fields["density"][cell_idx] = rho_new
                for name in VELOCITY_FIELDS + ("energy",):
                    if name in deltas:
                        q_old = fields[name][cell_idx]
                        fields[name][cell_idx] = (
                            rho_old * q_old + deltas[name]
                        ) / rho_new
                for name in advected:
                    if name in deltas:
                        fields[name][cell_idx] = np.maximum(
                            fields[name][cell_idx] + deltas[name], 0.0
                        )

        # re-derive the dual internal energy from the corrected total where
        # trustworthy, and rebuild 'energy' consistently
        sync_internal_from_total(fields)


def correct_parent(parent, children) -> None:
    """Correct the parent cells ringing each child (children in level
    order, all caught up to the parent), then reset every child's
    accumulator for the next parent step and drop the parent's planes."""
    live = [c for c in children if c.flux_accumulator is not None]
    if parent.last_fluxes is not None and live:
        r = parent.refine_factor
        names = _CONSERVED + tuple(parent.fields.advected)
        coarse = parent.last_fluxes.coarse
        table = []
        for child in live:
            acc = child.flux_accumulator
            if (acc.names != names or child.refine_factor != r
                    or child.grid_id not in coarse):
                raise ValueError(f"flux correction: {child} does not share "
                                 f"the field layout or windows of {parent}")
            lo_p, hi_p = child.parent_index_region()
            table.append((lo_p - parent.start_index, hi_p - parent.start_index,
                          acc.blocks, coarse[child.grid_id], acc.present))
        kernels.get("flux.correct")(
            parent.fields, names, parent.nghost, parent.dx,
            periodic_axes(parent), r, table)
    # a parent without fluxes (every rescue rung failed) corrects nothing,
    # but its children's fluxes of this step must not leak into the next
    for child in live:
        init_flux_accumulator(child)
    parent.last_fluxes = None


def correct_level(hierarchy, fine_level: int) -> None:
    """The paper's FluxCorrection step for one coarse/fine boundary."""
    by_parent: dict = {}
    for child in hierarchy.level_grids(fine_level):
        if child.parent is not None:
            by_parent.setdefault(id(child.parent),
                                 (child.parent, []))[1].append(child)
    for parent, children in by_parent.values():
        correct_parent(parent, children)
