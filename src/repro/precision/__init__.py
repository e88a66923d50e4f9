"""Extended precision arithmetic (EPA) for absolute positions and times.

The paper (Sec. 3.5) requires ~128-bit precision to distinguish ``x + dx``
from ``x`` when ``dx/x ~ 1e-12`` and further headroom of ~100x is needed for
intermediate arithmetic.  Native 128-bit floats are unavailable in
NumPy/CPython, so — exactly as the paper proposes, citing Bailey (1993) — we
synthesise extended precision from pairs of 64-bit floats ("double-double"),
giving ~106 bits of mantissa (~31 decimal digits).

Two layers are provided:

* :mod:`repro.precision.core` — branch-free, vectorised kernels operating on
  ``(hi, lo)`` pairs of ``float64`` ndarrays (error-free transformations:
  TwoSum, TwoProd via Dekker splitting, renormalisation).
* :mod:`repro.precision.doubledouble` — :class:`DDArray`, the one
  double-double array type, with operator overloading, and the
  :class:`DoubleDouble` scalar convenience.

EPA goes where the paper says it is needed: absolute particle positions
(a :class:`DDArray`) and grid times (a :class:`DoubleDouble`), with cheap
``float64`` *relative* coordinates ``(positions - origin).to_float64()``
recovered for grid-local work (this is how the paper keeps the EPA
operation count to ~5 %).
"""

from repro.precision.core import (
    two_sum,
    quick_two_sum,
    two_prod,
    split,
    dd_add,
    dd_sub,
    dd_mul,
    dd_div,
    dd_add_f64,
    dd_mul_f64,
    dd_sqrt,
    dd_abs,
    dd_compare,
    dd_from_f64,
)
from repro.precision.doubledouble import DDArray, DoubleDouble, dd

__all__ = [
    "two_sum",
    "quick_two_sum",
    "two_prod",
    "split",
    "dd_add",
    "dd_sub",
    "dd_mul",
    "dd_div",
    "dd_add_f64",
    "dd_mul_f64",
    "dd_sqrt",
    "dd_abs",
    "dd_compare",
    "dd_from_f64",
    "DDArray",
    "DoubleDouble",
    "dd",
]
