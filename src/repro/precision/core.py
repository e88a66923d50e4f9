"""Vectorised double-double kernels (error-free transformations).

All functions accept scalars or ndarrays of ``float64`` and broadcast like
ordinary NumPy ufunc expressions.  A double-double value is an unevaluated
sum ``hi + lo`` with ``|lo| <= ulp(hi)/2``; functions return ``(hi, lo)``
tuples in that normalised form.

The algorithms are the classical ones (Dekker 1971; Knuth; Bailey's DDFUN /
QD library): TwoSum, QuickTwoSum, Split and TwoProd, composed into add, mul,
div and sqrt with rigorously bounded error (~1e-31 relative).

These kernels are deliberately free of Python branching so they can be
applied to whole position arrays at once — the cost of EPA then scales with
the number of *particles/grids*, not with Python interpreter overhead.
"""

from __future__ import annotations

import numpy as np

#: Dekker splitting constant 2**27 + 1 for 53-bit doubles.
_SPLITTER = 134217729.0


def two_sum(a, b):
    """Error-free sum: return ``(s, e)`` with ``s = fl(a+b)`` and ``a+b = s+e``."""
    s = a + b
    bb = s - a
    e = (a - (s - bb)) + (b - bb)
    return s, e


def quick_two_sum(a, b):
    """Error-free sum assuming ``|a| >= |b|`` (3 flops instead of 6)."""
    s = a + b
    e = b - (s - a)
    return s, e


def split(a):
    """Dekker split of ``a`` into high and low 26/27-bit halves."""
    t = _SPLITTER * a
    hi = t - (t - a)
    lo = a - hi
    return hi, lo


def two_prod(a, b):
    """Error-free product: return ``(p, e)`` with ``a*b = p + e`` exactly."""
    p = a * b
    a_hi, a_lo = split(a)
    b_hi, b_lo = split(b)
    e = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    return p, e


def dd_from_f64(a):
    """Promote float64 value(s) to a normalised double-double pair."""
    a = np.asarray(a, dtype=np.float64)
    return a, np.zeros_like(a)


def dd_add(a_hi, a_lo, b_hi, b_lo):
    """Double-double addition (the accurate ``ddadd`` variant, ~20 flops)."""
    s1, s2 = two_sum(a_hi, b_hi)
    t1, t2 = two_sum(a_lo, b_lo)
    s2 = s2 + t1
    s1, s2 = quick_two_sum(s1, s2)
    s2 = s2 + t2
    return quick_two_sum(s1, s2)


def dd_sub(a_hi, a_lo, b_hi, b_lo):
    """Double-double subtraction."""
    return dd_add(a_hi, a_lo, -b_hi, -b_lo)


def dd_add_f64(a_hi, a_lo, b):
    """Add a plain float64 to a double-double (cheaper than full dd_add)."""
    s1, s2 = two_sum(a_hi, b)
    s2 = s2 + a_lo
    return quick_two_sum(s1, s2)


def dd_mul(a_hi, a_lo, b_hi, b_lo):
    """Double-double multiplication."""
    p1, p2 = two_prod(a_hi, b_hi)
    p2 = p2 + a_hi * b_lo + a_lo * b_hi
    return quick_two_sum(p1, p2)


def dd_mul_f64(a_hi, a_lo, b):
    """Multiply a double-double by a plain float64."""
    p1, p2 = two_prod(a_hi, b)
    p2 = p2 + a_lo * b
    return quick_two_sum(p1, p2)


def dd_div(a_hi, a_lo, b_hi, b_lo):
    """Double-double division via two Newton correction terms."""
    q1 = a_hi / b_hi
    # r = a - q1 * b
    m_hi, m_lo = dd_mul_f64(b_hi, b_lo, q1)
    r_hi, r_lo = dd_sub(a_hi, a_lo, m_hi, m_lo)
    q2 = r_hi / b_hi
    m_hi, m_lo = dd_mul_f64(b_hi, b_lo, q2)
    r_hi, r_lo = dd_sub(r_hi, r_lo, m_hi, m_lo)
    q3 = r_hi / b_hi
    q1, q2 = quick_two_sum(q1, q2)
    return dd_add_f64(q1, q2, q3)


def dd_sqrt(a_hi, a_lo):
    """Double-double square root (Karp's method).

    Negative inputs produce NaN like ``np.sqrt``; zero maps to zero.
    """
    a_hi = np.asarray(a_hi, dtype=np.float64)
    a_lo = np.asarray(a_lo, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        x = 1.0 / np.sqrt(a_hi)
        ax = a_hi * x
        # err = (a - ax^2) * x / 2
        sq_hi, sq_lo = two_prod(ax, ax)
        d_hi, d_lo = dd_sub(a_hi, a_lo, sq_hi, sq_lo)
        err = d_hi * x * 0.5
        hi, lo = quick_two_sum(ax, err)
    zero = a_hi == 0.0
    if np.any(zero):
        hi = np.where(zero, 0.0, hi)
        lo = np.where(zero, 0.0, lo)
    return hi, lo


def dd_abs(a_hi, a_lo):
    """Absolute value (sign decided by the high word)."""
    neg = np.asarray(a_hi) < 0.0
    sign = np.where(neg, -1.0, 1.0)
    return a_hi * sign, a_lo * sign


def dd_compare(a_hi, a_lo, b_hi, b_lo):
    """Three-way comparison: -1, 0 or +1 elementwise (as int8 ndarray)."""
    d_hi, d_lo = dd_sub(a_hi, a_lo, b_hi, b_lo)
    out = np.sign(d_hi)
    tie = d_hi == 0.0
    out = np.where(tie, np.sign(d_lo), out)
    return out.astype(np.int8)
