"""numba backend: ``@njit`` over the flat-loop kernel bodies.

Importing this module raises when numba is missing or broken; the dispatch
registry catches that, warns once, and stays on NumPy (see
``tests/test_kernels.py::test_broken_numba_falls_back``).

The loop bodies live in :mod:`repro.kernels._loops`.  Their helper
functions (``_nmax``, ``_mc``, ...) are rebound on the module to their
jitted versions before the kernels are compiled, so the compiled kernels
resolve them as numba Dispatchers — the standard pattern for jitting a
module that must stay importable without numba.  Dispatchers remain
plain-callable, so the rebinding is behaviour-neutral for everyone else.

``nogil=True`` lets the thread exec backend run kernels concurrently;
``fastmath`` stays off so LLVM cannot contract or reorder FP ops — that is
what keeps the numba tier bitwise-identical to the NumPy reference.
"""

from __future__ import annotations

from types import SimpleNamespace

from numba import njit  # raises ImportError -> dispatch falls back

from repro.kernels import _loops, _wrap, dispatch

_JIT_OPTS = dict(cache=True, nogil=True, fastmath=False)

# helpers first (kernels call them through module globals), then plm
# (called by ppm), then the kernel bodies themselves
for _name in ("_nmax", "_nmin", "_minmod", "_mc", "_iplus", "_iminus",
              "_sign", "_clip01", "_tval", "_mc_slope", "plm"):
    setattr(_loops, _name, njit(**_JIT_OPTS)(getattr(_loops, _name).py_func
                                             if hasattr(getattr(_loops, _name), "py_func")
                                             else getattr(_loops, _name)))

_jitted = SimpleNamespace(
    two_shock=njit(**_JIT_OPTS)(_loops.two_shock),
    hllc=njit(**_JIT_OPTS)(_loops.hllc),
    hll=njit(**_JIT_OPTS)(_loops.hll),
    plm=_loops.plm,
    ppm=njit(**_JIT_OPTS)(_loops.ppm),
    trace=njit(**_JIT_OPTS)(_loops.trace),
    chem_blend=njit(**_JIT_OPTS)(_loops.chem_blend),
    prolong_linear=njit(**_JIT_OPTS)(_loops.prolong_linear),
    mg_smooth=njit(**_JIT_OPTS)(_loops.mg_smooth),
)

for _kname, _impl in _wrap.make_impls(_jitted).items():
    dispatch.register("numba", _kname, _impl)
