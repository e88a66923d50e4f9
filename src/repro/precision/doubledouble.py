"""User-facing double-double array and scalar types.

:class:`DDArray` wraps a pair of ``float64`` ndarrays and overloads the
arithmetic operators; it is the one extended-precision array type, holding
the particles' absolute positions (which it shifts by float64 offsets and
wraps into the periodic box) as well as the grids' times through
:class:`DoubleDouble`, the rank-0 convenience with exact-decimal
construction and printing for tests and I/O.

The paper's discipline (Sec. 3.5): *absolute* positions and times carry
extended precision, while grid-local operations use cheap ``float64``
*relative* coordinates ``O(dx)``.  The boundary where the extra precision
is dropped is a double-double difference rounded once:
``(positions - origin).to_float64()``: the subtraction, carried out in
double-double, suffers no catastrophic cancellation even when
``|position - origin| / |position| ~ 1e-12``, and only the O(dx) result
is rounded to float64.
"""

from __future__ import annotations

from decimal import Decimal, getcontext

import numpy as np

from repro.precision import core


def _coerce(other):
    """Return (hi, lo) for DDArray / DoubleDouble / float / ndarray operands."""
    if isinstance(other, DDArray):
        return other.hi, other.lo
    arr = np.asarray(other, dtype=np.float64)
    return arr, np.zeros_like(arr)


class DDArray:
    """An ndarray of double-double numbers stored as (hi, lo) float64 pairs.

    Supports elementwise ``+ - * /``, unary negation, ``abs``, comparisons,
    ``sqrt``, indexing/slicing and broadcasting against float64 operands.
    Mixed expressions with plain floats promote the float operand exactly.
    """

    __array_priority__ = 100.0  # win binary ops against ndarray

    __slots__ = ("hi", "lo")

    def __init__(self, hi, lo=None):
        hi = np.asarray(hi, dtype=np.float64)
        if lo is None:
            lo = np.zeros_like(hi)
        else:
            lo = np.asarray(lo, dtype=np.float64)
            if lo.shape != hi.shape:
                lo = np.broadcast_to(lo, hi.shape).copy()
        self.hi = hi
        self.lo = lo

    # --- construction helpers ------------------------------------------------
    @classmethod
    def zeros(cls, shape):
        return cls(np.zeros(shape), np.zeros(shape))

    # --- basic protocol -------------------------------------------------------
    @property
    def shape(self):
        return self.hi.shape

    @property
    def size(self):
        return self.hi.size

    @property
    def ndim(self):
        return self.hi.ndim

    def __len__(self):
        return len(self.hi)

    def __getitem__(self, idx):
        return DDArray(self.hi[idx], self.lo[idx])

    def __setitem__(self, idx, value):
        hi, lo = _coerce(value)
        self.hi[idx] = hi
        self.lo[idx] = lo

    def copy(self):
        return DDArray(self.hi.copy(), self.lo.copy())

    def reshape(self, *shape):
        return DDArray(self.hi.reshape(*shape), self.lo.reshape(*shape))

    def to_float64(self):
        """Round to nearest float64 (returns a copy of the hi words)."""
        return self.hi + self.lo

    def __float__(self):
        if self.size != 1:
            raise TypeError("only size-1 DDArrays convert to float")
        return float(self.hi) + float(self.lo)

    def __repr__(self):
        return f"DDArray(hi={self.hi!r}, lo={self.lo!r})"

    # --- arithmetic ------------------------------------------------------------
    def __add__(self, other):
        return DDArray(*core.dd_add(self.hi, self.lo, *_coerce(other)))

    __radd__ = __add__

    def __sub__(self, other):
        return DDArray(*core.dd_sub(self.hi, self.lo, *_coerce(other)))

    def __rsub__(self, other):
        b_hi, b_lo = _coerce(other)
        return DDArray(*core.dd_sub(b_hi, b_lo, self.hi, self.lo))

    def __mul__(self, other):
        return DDArray(*core.dd_mul(self.hi, self.lo, *_coerce(other)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return DDArray(*core.dd_div(self.hi, self.lo, *_coerce(other)))

    def __rtruediv__(self, other):
        b_hi, b_lo = _coerce(other)
        return DDArray(*core.dd_div(b_hi, b_lo, self.hi, self.lo))

    def __neg__(self):
        return DDArray(-self.hi, -self.lo)

    def __abs__(self):
        return DDArray(*core.dd_abs(self.hi, self.lo))

    def sqrt(self):
        return DDArray(*core.dd_sqrt(self.hi, self.lo))

    def shift(self, offset):
        """``self + offset`` for a float64 ``offset``, by
        :func:`core.dd_add_f64` (half the flops of ``+``'s full
        ``dd_add``): the leapfrog drift's operation, whose words the
        hierarchy fingerprint hashes."""
        return DDArray(*core.dd_add_f64(
            self.hi, self.lo, np.asarray(offset, dtype=np.float64)))

    def wrap_periodic(self, lo_edge=0.0, hi_edge=1.0):
        """Wrap into ``[lo_edge, hi_edge)``, assuming at most one period
        off; the low words survive the shift."""
        width = hi_edge - lo_edge
        offset = np.zeros_like(self.hi)
        offset[self >= hi_edge] = -width
        offset[self < lo_edge] = width
        return self.shift(offset)

    def sum(self):
        """Exact-compensated sum of all elements, returned as a DoubleDouble."""
        s_hi, s_lo = 0.0, 0.0
        flat_hi = self.hi.ravel()
        flat_lo = self.lo.ravel()
        for h, l in zip(flat_hi, flat_lo):
            s_hi, s_lo = core.dd_add(s_hi, s_lo, float(h), float(l))
        return DoubleDouble(s_hi, s_lo)

    # --- comparisons -------------------------------------------------------------
    def _cmp(self, other):
        return core.dd_compare(self.hi, self.lo, *_coerce(other))

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __eq__(self, other):  # noqa: D105 — elementwise like ndarray
        try:
            return self._cmp(other) == 0
        except (TypeError, ValueError):
            return NotImplemented

    def __ne__(self, other):
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return ~result

    __hash__ = None


class DoubleDouble(DDArray):
    """A scalar double-double value (rank-0 :class:`DDArray`).

    Construct from a float, an int, a decimal string (parsed exactly to
    ~31 significant digits) or a (hi, lo) pair.
    """

    def __init__(self, value=0.0, lo=None):
        if isinstance(value, DDArray) and lo is None:
            hi_arr, lo_arr = value.hi, value.lo
        elif isinstance(value, str):
            hi_arr, lo_arr = _parse_decimal_string(value)
        elif isinstance(value, int) and lo is None:
            hi = float(value)
            hi_arr, lo_arr = hi, float(value - int(hi))
        else:
            hi_arr = float(value)
            lo_arr = 0.0 if lo is None else float(lo)
        s, e = core.two_sum(np.float64(hi_arr), np.float64(lo_arr))
        super().__init__(np.asarray(s), np.asarray(e))

    def __float__(self):
        return float(self.hi) + float(self.lo)

    def to_decimal(self):
        """Exact Decimal value of hi + lo."""
        getcontext().prec = 60
        return Decimal(float(self.hi)) + Decimal(float(self.lo))

    def __str__(self):
        d = self.to_decimal()
        return f"{d:.31E}"

    def __repr__(self):
        return f"DoubleDouble('{self}')"


def _parse_decimal_string(text):
    """Parse a decimal literal into a (hi, lo) double-double pair exactly."""
    getcontext().prec = 60
    d = Decimal(text)
    hi = float(d)
    lo = float(d - Decimal(hi))
    return hi, lo


def dd(value, lo=None):
    """Shorthand constructor: ``dd('0.1')`` or ``dd(hi, lo)`` or ``dd(ndarray)``."""
    if isinstance(value, (str, int, float)) or lo is not None:
        return DoubleDouble(value, lo)
    return DDArray(np.asarray(value, dtype=np.float64))
