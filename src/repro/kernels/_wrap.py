"""Adapt flat-loop kernels to the dispatch-registry call contracts.

The registry contracts mirror the NumPy reference signatures exactly:

* ``riemann.*``       ``fn(left, right, gamma, ...) -> 5-tuple of fluxes``
* ``reconstruct.*``   ``fn(q) -> (q_l, q_r)`` with face shape ``(n-1, ...)``
* ``trace.states``    ``fn(rho, u, v, w, p, dtdx, gamma) -> (l, r) tuples``
* ``hydro.sweep``     ``fn(arrays, axis, ng, dtdx, flux_scale, gamma, scheme,
  riemann_solver, density_floor, energy_floor) -> (fluxes, counts)`` — one
  directional sweep of one grid, updating ``arrays`` in place
* ``chem.blend``      ``fn(logtab, idx, weight) -> (channels, n) rates``
* ``prolong.linear``  ``fn(coarse, coarse_old, frac, positive, coarse_origin,
  r, fine, fine_origin, boxes)`` — fills boxes of the ``fine`` arrays in place
* ``mg.smooth``       ``fn(phi, source, dx, sweeps)`` — smooths ``phi`` in place

The loop bodies (:mod:`repro.kernels._loops` or their njit/C twins) want
flat contiguous arrays and preallocated outputs; :func:`make_impls` builds
the contract functions around any namespace exposing the loop signatures,
so the plain-Python loops, the numba backend, and (for the reconstruction
helpers) the cffi backend all share one normalisation path.
"""

from __future__ import annotations

import numpy as np

from repro.kernels._loops import SWEEP_SCHEMES, SWEEP_SLOTS, SWEEP_SOLVERS

#: sweep-axis pencils per scratch block: the working set of a block
#: (SWEEP_SLOTS rows of n * SWEEP_BLOCK doubles) stays cache-resident
SWEEP_BLOCK = 32


def _face_arrays(left, right):
    """The ten same-shape face-state arrays as contiguous 1-d (no copy
    when they already are contiguous float64)."""
    arrs = [np.ascontiguousarray(a, dtype=float) for a in (*left, *right)]
    shape = arrs[0].shape
    if any(a.shape != shape for a in arrs):
        raise ValueError("riemann: face-state shapes differ")
    return [a.reshape(-1) for a in arrs], shape


def _to_2d(q):
    """View/copy ``q`` as contiguous (n, m): sweep axis × flattened rest."""
    q = np.asarray(q, dtype=float)
    n = q.shape[0]
    rest = q.shape[1:]
    m = 1
    for s in rest:
        m *= s
    return np.ascontiguousarray(q).reshape(n, m), rest


def _writable(arr):
    """``arr`` itself when the loops can write it in place (C-contiguous
    float64), else a contiguous copy the caller stores back."""
    if arr.flags.c_contiguous and arr.dtype == np.float64:
        return arr
    return np.ascontiguousarray(arr, dtype=float)


def make_impls(loops) -> dict:
    """Build the dispatch-contract callables around one loop namespace."""

    def _riemann(kernel, left, right, gamma, *extra):
        flat, shape = _face_arrays(left, right)
        n = flat[0].size
        outs = tuple(np.empty(n) for _ in range(5))
        kernel(*flat, float(gamma), *extra, *outs)
        return tuple(o.reshape(shape) for o in outs)

    def two_shock(left, right, gamma, iterations: int = 20,
                  rtol: float = 0.0):
        return _riemann(loops.two_shock, left, right, gamma,
                        int(iterations), float(rtol))

    def hllc(left, right, gamma):
        return _riemann(loops.hllc, left, right, gamma)

    def hll(left, right, gamma):
        return _riemann(loops.hll, left, right, gamma)

    def _recon_2d(q2):
        """Face states on an already-2-d array (shared with tracing)."""
        n, m = q2.shape
        if n < 2:
            raise ValueError("need at least 2 cells along the sweep axis")
        ql = np.empty((n - 1, m))
        qr = np.empty((n - 1, m))
        if n < 6:
            loops.plm(q2, ql, qr)
        else:
            dq = np.empty((n, m))
            qf = np.empty((n - 3, m))
            loops.ppm(q2, ql, qr, dq, qf)
        return ql, qr

    def ppm(q):
        q2, rest = _to_2d(q)
        ql, qr = _recon_2d(q2)
        n = q2.shape[0]
        return ql.reshape((n - 1,) + rest), qr.reshape((n - 1,) + rest)

    def plm(q):
        q2, rest = _to_2d(q)
        n, m = q2.shape
        if n < 2:
            raise ValueError("need at least 2 cells along the sweep axis")
        ql = np.empty((n - 1, m))
        qr = np.empty((n - 1, m))
        loops.plm(q2, ql, qr)
        return ql.reshape((n - 1,) + rest), qr.reshape((n - 1,) + rest)

    def trace_states(rho, u, v, w, p, dtdx, gamma):
        prims = []
        rest = None
        for q in (rho, u, v, w, p):
            q2, rest = _to_2d(q)
            prims.append(q2)
        n, m = prims[0].shape
        # cell-edge parabolas assembled from the PPM face states, exactly
        # like tracing._parabola: cell i's left edge is face i-1's right
        # state, its right edge face i's left state.
        edges = []
        for q2 in prims:
            fl, fr = _recon_2d(q2)
            ql = np.empty_like(q2)
            qr = np.empty_like(q2)
            ql[1:] = fr
            ql[0] = q2[0]
            qr[:-1] = fl
            qr[-1] = q2[-1]
            edges.append(ql)
            edges.append(qr)
        outs = tuple(np.empty((n - 1, m)) for _ in range(10))
        loops.trace(*prims, *edges, float(dtdx), float(gamma), *outs)
        fshape = (n - 1,) + rest
        states_l = tuple(o.reshape(fshape) for o in outs[:5])
        states_r = tuple(o.reshape(fshape) for o in outs[5:])
        return states_l, states_r

    def hydro_sweep(arrays, axis, ng, dtdx, flux_scale, gamma, scheme,
                    riemann_solver, density_floor, energy_floor):
        if scheme not in SWEEP_SCHEMES:
            raise ValueError(f"unknown reconstruction '{scheme}'")
        if riemann_solver not in SWEEP_SOLVERS:
            raise ValueError(f"unknown riemann solver '{riemann_solver}'")
        axis, ng = int(axis), int(ng)
        shape = arrays[0].shape
        # the loops index raw memory: refuse mismatched fields and a
        # sweep extent that leaves no cell to update
        if len(arrays) < 6 or len(shape) != 3 or not 0 <= axis < 3:
            raise ValueError("hydro.sweep: need six 3-d fields and axis 0-2")
        if any(a.shape != shape for a in arrays):
            raise ValueError("hydro.sweep: field shapes differ")
        n = shape[axis]
        if ng < 1 or n <= 2 * ng:
            raise ValueError("hydro.sweep: no interior cell along the sweep")
        native = [_writable(a) for a in arrays]
        face_shape = [max(s - 2 * ng, 0) for s in shape]
        face_shape[axis] = n - 2 * ng + 1
        fluxes = [np.empty(face_shape) for _ in native]
        counts = np.empty(5, dtype=np.int64)
        block = min(SWEEP_BLOCK, arrays[0].size // n)
        loops.sweep(
            tuple(a.reshape(-1) for a in native), *shape, axis, ng,
            float(dtdx), float(flux_scale), float(gamma),
            SWEEP_SCHEMES.index(scheme), SWEEP_SOLVERS.index(riemann_solver),
            float(density_floor), float(energy_floor),
            tuple(f.reshape(-1) for f in fluxes), counts,
            np.empty((SWEEP_SLOTS, n * block)),
            np.empty((2, block), dtype=np.int64),
        )
        for out, dst in zip(native, arrays):
            if out is not dst:
                dst[...] = out
        return fluxes, tuple(counts.tolist())

    def chem_blend(logtab, idx, weight):
        logtab = np.ascontiguousarray(logtab, dtype=float)
        idx = np.ascontiguousarray(idx, dtype=np.intp)
        weight = np.ascontiguousarray(weight, dtype=float)
        out = np.empty((logtab.shape[0], idx.shape[0]))
        loops.chem_blend(logtab, idx, weight, out)
        np.exp(out, out=out)  # stays a ufunc: SIMD exp != libm exp bitwise
        return out

    def prolong_linear(coarse, coarse_old, frac, positive, coarse_origin, r,
                       fine, fine_origin, boxes):
        r = int(r)
        if r < 2:
            raise ValueError("prolong.linear needs a refinement factor >= 2")
        if not boxes:
            return
        box = np.array([(*lo, *hi) for lo, hi in boxes],
                       dtype=np.int64).reshape(-1, 6)
        p_lo = np.array(coarse_origin, dtype=np.int64)
        f_lo = np.array(fine_origin, dtype=np.int64)
        # the loops index raw memory: refuse any box that leaves the fine
        # arrays or whose parent cells leave the coarse arrays
        lo, hi = box[:, :3], box[:, 3:]
        c_shape, f_shape = coarse[0].shape, fine[0].shape
        if (np.any(lo < f_lo) or np.any(hi > f_lo + f_shape)
                or np.any(lo // r < p_lo)
                or np.any(-(-hi // r) > p_lo + c_shape)):
            raise ValueError("prolong.linear: box outside the arrays")
        frac = float(frac)
        if coarse_old is None or not frac < 1.0:
            coarse_old = [None] * len(coarse)
        if (any(a.shape != f_shape for a in fine)
                or any(a is not None and a.shape != c_shape
                       for a in (*coarse, *coarse_old))):
            raise ValueError("prolong.linear: field shapes differ")
        for new, old, pos, dst in zip(coarse, coarse_old, positive, fine):
            new = np.ascontiguousarray(new, dtype=float)
            use_old = old is not None
            old = np.ascontiguousarray(old, dtype=float) if use_old else new
            out = _writable(dst)
            loops.prolong_linear(new, old, use_old, frac, bool(pos), r,
                                 int(p_lo[0]), int(p_lo[1]), int(p_lo[2]),
                                 out, int(f_lo[0]), int(f_lo[1]),
                                 int(f_lo[2]), box)
            if out is not dst:
                dst[...] = out

    def mg_smooth(phi, source, dx, sweeps):
        if phi.shape != tuple(s + 2 for s in source.shape):
            raise ValueError("phi must pad source by one cell per side")
        out = _writable(phi)
        loops.mg_smooth(out, np.ascontiguousarray(source, dtype=float),
                        dx * dx, int(sweeps))
        if out is not phi:
            phi[...] = out

    return {
        "riemann.two_shock": two_shock,
        "riemann.hllc": hllc,
        "riemann.hll": hll,
        "reconstruct.ppm": ppm,
        "reconstruct.plm": plm,
        "trace.states": trace_states,
        "hydro.sweep": hydro_sweep,
        "chem.blend": chem_blend,
        "prolong.linear": prolong_linear,
        "mg.smooth": mg_smooth,
    }
