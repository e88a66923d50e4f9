"""The Grid: SAMR's basic building block.

"An object oriented approach provides a number of benefits.  The first is
encapsulation: a grid represents the basic building block of AMR."
(paper Sec. 3.4)

Geometry is stored as integer cell indices at the grid's own level
resolution (``start_index`` .. ``start_index + dims``), which is exact at
any depth — one of the two legs of the paper's extended-precision
discipline (the other is double-double: particle positions are a
:class:`~repro.precision.doubledouble.DDArray`, grid times a
:class:`~repro.precision.doubledouble.DoubleDouble`).  Edges in float64 are
exact whenever the root dims and refinement factor are powers of two.
"""

from __future__ import annotations

import numpy as np

from repro.amr.flux_correction import FaceWindows
from repro.hydro.ppm import StepPlan, step_arrays
from repro.hydro.state import FieldSet, make_fields
from repro.precision.doubledouble import DoubleDouble


class Grid:
    """One rectangular mesh patch in the hierarchy.

    Parameters
    ----------
    level:
        Hierarchy depth (0 = root).
    start_index:
        Integer cell coordinates of the grid's lower corner, in units of
        this level's cell width.
    dims:
        Interior cells per dimension.
    n_root:
        Root-grid cells per dimension (sets the absolute cell width).
    refine_factor:
        The hierarchy's integer refinement factor r.
    nghost:
        Ghost-zone width carried by the field arrays.
    """

    __slots__ = (
        "level", "start_index", "dims", "n_root", "refine_factor", "nghost",
        "fields", "phi", "time", "old_fields", "old_time", "parent", "children",
        "flux_accumulator", "last_fluxes", "windows", "step_plan", "proc",
        "grid_id",
    )

    _next_id = 0

    def __init__(self, level: int, start_index, dims, n_root: int,
                 refine_factor: int = 2, nghost: int = 3):
        self.level = int(level)
        self.start_index = np.array(start_index, dtype=np.int64)
        self.dims = np.array(dims, dtype=np.int64)
        if np.any(self.dims <= 0):
            raise ValueError("grid dims must be positive")
        self.n_root = int(n_root)
        self.refine_factor = int(refine_factor)
        self.nghost = int(nghost)
        self.fields: FieldSet | None = None
        self.phi: np.ndarray | None = None
        self.time = DoubleDouble(0.0)
        self.old_fields: FieldSet | None = None
        self.old_time = DoubleDouble(0.0)
        self.parent: Grid | None = None
        self.children: list[Grid] = []
        # a flux_correction.FluxAccumulator while the grid steps under a parent
        self.flux_accumulator = None
        self.last_fluxes = None
        # what hydro_plan() keeps from one step to the next
        self.windows: FaceWindows | None = None
        self.step_plan: StepPlan | None = None
        self.proc = 0  # owning rank in the parallel layer
        self.grid_id = Grid._next_id
        Grid._next_id += 1

    # ------------------------------------------------------------- geometry
    @property
    def cells_per_dim_at_level(self) -> int:
        """Total level resolution across the box."""
        return self.n_root * self.refine_factor**self.level

    @property
    def dx(self) -> float:
        """Comoving cell width in box units (exact for power-of-two setups)."""
        return 1.0 / self.cells_per_dim_at_level

    @property
    def end_index(self) -> np.ndarray:
        return self.start_index + self.dims

    @property
    def left_edge(self) -> np.ndarray:
        return self.start_index * self.dx

    @property
    def right_edge(self) -> np.ndarray:
        return self.end_index * self.dx

    @property
    def shape_with_ghosts(self) -> tuple:
        return tuple(int(d) + 2 * self.nghost for d in self.dims)

    @property
    def interior(self) -> tuple:
        ng = self.nghost
        return tuple(slice(ng, ng + int(d)) for d in self.dims)

    @property
    def n_cells(self) -> int:
        return int(np.prod(self.dims))

    def cell_centres(self):
        """1-d arrays of interior cell-centre coordinates per dimension."""
        return [
            (self.start_index[d] + np.arange(self.dims[d]) + 0.5) * self.dx
            for d in range(3)
        ]

    # --------------------------------------------------------- relationships
    def contains_index_region(self, lo, hi) -> bool:
        """Is [lo, hi) (this level's indices) inside my interior?"""
        return bool(np.all(lo >= self.start_index) and np.all(hi <= self.end_index))

    def parent_index_region(self):
        """My footprint in parent-level indices (I am always aligned)."""
        r = self.refine_factor
        return self.start_index // r, -(-self.end_index // r)

    def is_nested_in(self, parent: "Grid") -> bool:
        """Full containment within a coarser grid (the paper's requirement)."""
        if parent.level != self.level - 1:
            return False
        lo, hi = self.parent_index_region()
        return parent.contains_index_region(lo, hi)

    def contains_point(self, xyz) -> np.ndarray:
        """Vectorised point-in-interior test for float positions (n,3)."""
        x = np.atleast_2d(np.asarray(xyz, dtype=float))
        return np.all((x >= self.left_edge) & (x < self.right_edge), axis=1)

    # --------------------------------------------------------------- storage
    def allocate(self, advected=()) -> None:
        """Allocate field arrays (uniform trivial state)."""
        self.fields = make_fields(self.shape_with_ghosts, advected=advected)
        self.phi = np.zeros(self.shape_with_ghosts)

    def release(self) -> None:
        """Drop every array the grid holds (a retired grid), so each frees
        as soon as nothing else refers to it."""
        self.fields = None
        self.old_fields = None
        self.phi = None
        self.flux_accumulator = None
        self.last_fluxes = None
        self.windows = None
        self.step_plan = None

    def hydro_plan(self) -> tuple:
        """``(windows, plan)`` of the grid's next ``hydro.step``: its
        :class:`~repro.amr.flux_correction.FaceWindows` and the
        :class:`~repro.hydro.ppm.StepPlan` checked with them and its
        fields.  Both are kept while the grid's children stay the same
        grids (ids, in order) and built again together otherwise; the
        field arrays never change under the plan (they are fixed from
        :meth:`allocate` to :meth:`release`)."""
        windows = self.windows
        if windows is None or windows.children != [
                c.grid_id for c in self.children]:
            windows = self.windows = FaceWindows(self, self.children)
            self.step_plan = StepPlan(step_arrays(self.fields), self.nghost,
                                      windows.table)
        return windows, self.step_plan

    def field_view(self, name: str) -> np.ndarray:
        """Interior view of a field."""
        return self.fields[name][self.interior]

    def memory_bytes(self) -> int:
        """Bytes of the arrays the grid holds: fields, potential, the
        old-state snapshot ``save_old_state`` keeps from its first step
        or its children's first ghost fill, whichever comes first,
        the boundary-flux accumulator of a subgrid and the flux planes a
        parent keeps until its children's flux correction."""
        if self.fields is None:
            return 0
        total = sum(arr.nbytes for k, arr in self.fields.array_items())
        if self.old_fields is not None:
            total += sum(arr.nbytes for k, arr in self.old_fields.array_items())
        if self.phi is not None:
            total += self.phi.nbytes
        return total + self.flux_bytes()

    def flux_bytes(self) -> int:
        """Bytes of the flux storage the grid keeps between steps: its
        boundary-flux accumulator and a parent's kept planes."""
        total = 0
        if self.flux_accumulator is not None:
            total += self.flux_accumulator.nbytes
        if self.last_fluxes is not None:
            total += sum(p.nbytes for p in self.last_fluxes.planes())
        return total

    def save_old_state(self) -> None:
        """Snapshot fields+time for time-interpolated child boundaries.

        The first call allocates the snapshot (a deep copy of the
        fields); every later one copies into those same arrays, so the
        snapshot, like the fields, keeps its arrays until
        :meth:`release` and the per-step snapshot costs copies, not
        allocations.
        """
        if self.old_fields is None:
            self.old_fields = self.fields.deep_copy()
        else:
            for name, arr in self.fields.array_items():
                np.copyto(self.old_fields[name], arr)
        self.old_time = DoubleDouble(self.time)

    def __repr__(self):
        return (
            f"Grid(id={self.grid_id}, level={self.level}, "
            f"start={self.start_index.tolist()}, dims={self.dims.tolist()})"
        )
