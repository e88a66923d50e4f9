"""Multigrid relaxation for subgrid Poisson problems (Dirichlet boundaries).

The paper: "On subgrids, we interpolate the gravitational potential field
and then solve the Poisson equation using a traditional multi-grid
relaxation technique."

Geometric V-cycles with red-black Gauss–Seidel smoothing, full-weighting
restriction and trilinear prolongation.  The solution array carries a
one-cell Dirichlet rim holding the boundary values interpolated from the
parent grid (and corrected by sibling exchange at the AMR layer).

The hierarchy solves a whole level per sibling pass in one ``mg.level``
kernel call (:func:`level_numpy` is its NumPy reference): for each grid,
V-cycles until the residual norm meets the tolerance (:func:`solve_numpy`),
the write into its potential, then the rim exchange with its siblings.
The compiled tier runs the same arithmetic, the norms' pairwise summation
order included, as one C loop nest.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np


@dataclass
class MultigridDiagnostics:
    """What one subgrid solve of ``mg.level`` actually did.

    ``residual`` is the final relative L2 residual (vs the source norm);
    ``converged`` records whether it reached ``tol`` within ``cycles`` of
    the ``budget`` V-cycles allowed for the call.
    """

    cycles: int
    budget: int
    residual: float
    tol: float
    converged: bool

    def as_dict(self) -> dict:
        return {
            "cycles": self.cycles,
            "budget": self.budget,
            "residual": self.residual,
            "tol": self.tol,
            "converged": self.converged,
        }


class MultigridConvergenceError(RuntimeError):
    """A strict subgrid solve ran out of V-cycle budget above tolerance,
    its retry with double the budget too.

    Carries the retry's :class:`MultigridDiagnostics` and the failed
    grid's ``site`` (``(level, grid_id)``); ``mg.level`` leaves that
    grid's potential unwritten.
    """

    def __init__(self, diagnostics: MultigridDiagnostics, site=None):
        self.diagnostics = diagnostics
        self.site = site
        where = f" at {site}" if site is not None else ""
        super().__init__(
            f"multigrid failed to converge{where}: relative residual "
            f"{diagnostics.residual:.3e} > tol {diagnostics.tol:.1e} after "
            f"{diagnostics.cycles}/{diagnostics.budget} V-cycles"
        )

#: red/black checkerboard masks per interior shape.  The V-cycle smooths
#: the same handful of shapes thousands of times per solve; rebuilding
#: ``np.indices`` each call dominated small-grid smoothing cost.  Masks are
#: immutable once built, so the cache is safe to share across threads.
_MASK_CACHE: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}
_MASK_LOCK = threading.Lock()

#: per-thread scratch buffers (neighbor sum + scaled source) keyed by
#: interior shape — the AMR layer may run several solvers concurrently
#: under the exec engine's thread backend, so scratch must not be shared.
_SCRATCH = threading.local()


def _checkerboard(shape: tuple) -> tuple[np.ndarray, np.ndarray]:
    masks = _MASK_CACHE.get(shape)
    if masks is None:
        idx = np.indices(shape).sum(axis=0)
        red = (idx % 2) == 0
        with _MASK_LOCK:
            masks = _MASK_CACHE.setdefault(shape, (red, ~red))
    return masks


def _scratch_pair(shape: tuple) -> tuple[np.ndarray, np.ndarray]:
    bufs = getattr(_SCRATCH, "bufs", None)
    if bufs is None:
        bufs = _SCRATCH.bufs = {}
    pair = bufs.get(shape)
    if pair is None:
        pair = bufs[shape] = (np.empty(shape), np.empty(shape))
    return pair


def redblack_smooth_numpy(phi: np.ndarray, source: np.ndarray, dx: float,
                          sweeps: int) -> None:
    """Red-black Gauss-Seidel on the interior of a rim-padded array, in
    place: the smoother of :func:`_vcycle`.

    The update arithmetic is kept bitwise identical to the naive
    expression ``((((phi_E + phi_W) + phi_N) + phi_S) + ...  - h2*source)
    / 6.0`` — only the temporaries are preallocated (per thread, per
    shape) and the checkerboard masks are cached per interior shape.
    """
    h2 = dx * dx
    shape = tuple(s - 2 for s in phi.shape)
    red, black = _checkerboard(shape)
    nb, hs = _scratch_pair(shape)
    np.multiply(source, h2, out=hs)
    core = (slice(1, -1),) * 3
    interior = phi[core]
    for _ in range(sweeps):
        for mask in (red, black):
            # left-associated neighbor sum, fused into the scratch buffer
            np.add(phi[2:, 1:-1, 1:-1], phi[:-2, 1:-1, 1:-1], out=nb)
            nb += phi[1:-1, 2:, 1:-1]
            nb += phi[1:-1, :-2, 1:-1]
            nb += phi[1:-1, 1:-1, 2:]
            nb += phi[1:-1, 1:-1, :-2]
            nb -= hs
            nb /= 6.0
            interior[mask] = nb[mask]


def _residual(phi: np.ndarray, source: np.ndarray, dx: float,
              out: np.ndarray | None = None) -> np.ndarray:
    """r = source - del^2 phi on the interior (same shape as source)."""
    lap = (
        phi[2:, 1:-1, 1:-1]
        + phi[:-2, 1:-1, 1:-1]
        + phi[1:-1, 2:, 1:-1]
        + phi[1:-1, :-2, 1:-1]
        + phi[1:-1, 1:-1, 2:]
        + phi[1:-1, 1:-1, :-2]
        - 6.0 * phi[1:-1, 1:-1, 1:-1]
    ) / (dx * dx)
    return np.subtract(source, lap, out=out)


def _restrict(fine: np.ndarray) -> np.ndarray:
    """Average 2x2x2 blocks (dimensions assumed even).

    The eight cells are summed in an explicit order — pairs along the
    last axis first, the four pair sums then accumulated in memory
    order, ``((p00 + p01) + p10) + p11`` — which is the order
    ``fine.reshape(n0, 2, n1, 2, n2, 2).mean(axis=(1, 3, 5))`` happens to
    use inside NumPy whenever the last axis has at least four cells
    (``tests/test_gravity.py`` pins the equality).  For a last axis of
    exactly two cells NumPy sums in another order; a V-cycle restricts
    such an array only at ``min_size < 2``.  Written out, the order no
    longer depends on NumPy internals and the C transcription can follow
    it.
    """
    pairs = fine[:, :, 0::2] + fine[:, :, 1::2]
    total = pairs[0::2, 0::2] + pairs[0::2, 1::2]
    total += pairs[1::2, 0::2]
    total += pairs[1::2, 1::2]
    total /= 8.0
    return total


def _prolong_axis(padded: np.ndarray, axis: int) -> np.ndarray:
    """Cell-centered linear interpolation along one axis (2x refinement).

    ``padded`` carries a one-cell rim along ``axis`` (the coarse error's
    homogeneous Dirichlet rim); the output drops that axis's rim and has
    twice the interior length.  Fine cell centers sit a quarter coarse
    cell off the coarse centers, so the weights are 3/4 near, 1/4 far.
    """
    b = np.moveaxis(padded, axis, 0)
    m = b.shape[0] - 2
    out = np.empty((2 * m,) + b.shape[1:])
    out[0::2] = 0.25 * b[0:m] + 0.75 * b[1:m + 1]
    out[1::2] = 0.75 * b[1:m + 1] + 0.25 * b[2:m + 2]
    return np.moveaxis(out, 0, axis)


def _prolong_into(coarse_padded: np.ndarray, fine_shape) -> np.ndarray:
    """Trilinear prolongation of the rim-padded coarse error.

    Separable: one cell-centered linear pass per axis, each consuming that
    axis's rim.  The rim holds the error's Dirichlet boundary values
    (zero on coarse error grids), so edge fine cells interpolate toward
    the boundary instead of copying the nearest coarse cell — this is the
    trilinear operator the module docstring promises.
    """
    out = coarse_padded
    for axis in range(3):
        out = _prolong_axis(out, axis)
    return out[: fine_shape[0], : fine_shape[1], : fine_shape[2]]


def _vcycle(phi: np.ndarray, source: np.ndarray, dx: float, pre: int,
            post: int, min_size: int) -> None:
    shape = source.shape
    if min(shape) <= min_size or any(s % 2 for s in shape):
        redblack_smooth_numpy(phi, source, dx, pre + post + 10)
        return
    redblack_smooth_numpy(phi, source, dx, pre)
    coarse_src = _restrict(_residual(phi, source, dx))
    coarse_phi = np.zeros(tuple(s + 2 for s in coarse_src.shape))
    # recursively solve the error equation with homogeneous Dirichlet rim
    _vcycle(coarse_phi, coarse_src, 2.0 * dx, pre, post, min_size)
    phi[1:-1, 1:-1, 1:-1] += _prolong_into(coarse_phi, shape)
    redblack_smooth_numpy(phi, source, dx, post)


def _rms(x: np.ndarray) -> float:
    return float(np.sqrt((x**2).mean()))


def solve_numpy(phi: np.ndarray, source: np.ndarray, dx: float, pre: int,
                post: int, min_size: int, tol: float, budget: int,
                strict: bool, force_diverge: bool):
    """One subgrid solve of :func:`level_numpy` (the C ``rk_mg_solve``).

    V-cycles in place on the rim-padded ``phi`` — ``pre`` smoothing sweeps,
    residual, 2x2x2 restriction, the same cycle on the coarse error
    equation (zero initial guess and rim, spacing ``2 dx``), trilinear
    prolongation, correction and ``post`` sweeps; a level with an odd
    extent or none above ``min_size`` is smoothed ``pre + post + 10``
    sweeps instead — until ``rms(source - del^2 phi) <= tol *
    rms(source)`` (an ``rms(source)`` of 0 counts as 1), ``budget``
    cycles ran, or (``strict``) the residual is not finite.
    ``force_diverge`` never reports convergence.  Returns ``(cycles,
    relative_residual, converged)``.
    """
    if phi.shape != tuple(s + 2 for s in source.shape):
        raise ValueError("solve_numpy: phi must pad source by one cell per "
                         "side")
    if budget < 1:
        raise ValueError(f"solve_numpy: a budget of {budget} V-cycles runs "
                         f"none")
    norm = _rms(source) or 1.0
    residual = np.empty(source.shape)
    for cycle in range(1, budget + 1):
        _vcycle(phi, source, dx, pre, post, min_size)
        res = _rms(_residual(phi, source, dx, out=residual))
        if res <= tol * norm and not force_diverge:
            return cycle, res / norm, True
        if strict and not np.isfinite(res):
            break  # NaN/Inf never converges; fail fast, don't burn budget
    return cycle, res / norm, False


def store_phi_numpy(phi: np.ndarray, solution: np.ndarray, ng: int) -> None:
    """Write a rim-padded solution (``dims + 2``) into a grid's
    ghost-padded potential (``dims + 2 ng``), in place: every cell takes
    the solution at its index clamped to the solution's extent, so the
    ghost layers beyond the rim repeat the rim's edge planes.  Stale
    values there would create huge spurious ghost-band accelerations that
    destabilise the next hydro step before the ghosts are refreshed."""
    index = [np.clip(np.arange(n) - (ng - 1), 0, m - 1)
             for n, m in zip(phi.shape, solution.shape)]
    phi[...] = solution[np.ix_(*index)]


def level_numpy(plan, src, first, stop, pre, post, min_size, tol, budget,
                strict, force_diverge, exchange, stats):
    """NumPy reference of the ``mg.level`` kernel: one sibling pass of a
    level's subgrid Poisson solves (paper Sec. 3.3).

    ``plan`` is the level's :class:`~repro.amr.topology.PoissonPlan`,
    ``src`` the flat buffer of every grid's source (``plan.interiors``).
    For each grid ``g`` in ``range(first, stop)``, in order: its
    rim-padded array ``plan.rim_views[g]`` (the Dirichlet rim and the
    initial guess) is copied, solved as :func:`solve_numpy` solves it
    (``budget`` V-cycles at most, ``force_diverge`` never converging),
    ``stats[g]`` set to ``(cycles, relative_residual, converged)`` and the
    solution written into ``plan.phis[g]`` (:func:`store_phi_numpy`).  A
    ``strict`` solve that does not converge writes nothing and ends the
    call at once.  Then, with ``exchange``, the rows of ``plan.rim_rows``
    are applied in table order: each row's box of the target's rim takes
    the source's potential there, when any value differs (``!(a ==
    b)``: a NaN counts as a difference, ``-0.0 == 0.0`` does not).
    Returns ``(failed, changed)``: the grid whose strict solve failed (or
    -1) and whether the exchange changed any rim.
    """
    if not 0 <= first <= stop <= len(plan.phis):
        raise ValueError("mg.level: grid range outside the level")
    if budget < 1:
        raise ValueError(f"mg.level: a budget of {budget} V-cycles runs "
                         f"none")
    sources = plan.interiors(src)
    for g in range(first, stop):
        phi = plan.rim_views[g].copy()
        stats[g] = solve_numpy(phi, sources[g], plan.dx, pre, post, min_size,
                               tol, budget, strict, force_diverge)
        if strict and not stats[g, 2]:
            return g, False
        store_phi_numpy(plan.phis[g], phi, plan.nghost)
    changed = False
    if exchange:
        for t, s, *box in plan.rim_rows.tolist():
            r_lo, p_lo, n = box[0:3], box[3:6], box[6:9]
            rim = plan.rim_views[t][tuple(
                slice(a, a + m) for a, m in zip(r_lo, n))]
            new = plan.phis[s][tuple(slice(a, a + m) for a, m in zip(p_lo,
                                                                     n))]
            if not np.array_equal(rim, new):
                rim[...] = new
                changed = True
    return -1, changed
