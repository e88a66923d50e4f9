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

from numba import njit  # raises ImportError -> dispatch falls back

from repro.kernels import _loops, _wrap, dispatch

_JIT_OPTS = dict(cache=True, nogil=True, fastmath=False)

# helpers first (kernels call them through module globals), then the loop
# bodies in dependency order: ``ppm`` calls ``plm``, and the fused ``sweep``
# driver calls every reconstruction / tracing / Riemann body
_NAMES = (
    "_nmax", "_nmin", "_minmod", "_mc", "_einfeldt", "_contact", "_iplus",
    "_iminus", "_sign", "_clip01", "_tval", "_mc_slope", "_slot", "_faces",
    "two_shock", "hllc", "hll", "plm", "ppm", "trace", "chem_blend",
    "prolong_linear", "mg_smooth", "flatten_coef", "flatten_states",
    "contact_speed", "sweep",
)
for _name in _NAMES:
    _fn = getattr(_loops, _name)
    setattr(_loops, _name, njit(**_JIT_OPTS)(getattr(_fn, "py_func", _fn)))

for _kname, _impl in _wrap.make_impls(_loops).items():
    dispatch.register("numba", _kname, _impl)
