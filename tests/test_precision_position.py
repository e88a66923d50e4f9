"""Tests for EPA positions and the precision boundary (relative offsets).

Positions are :class:`DDArray` values; the precision boundary is the
double-double difference rounded once, ``(p - origin).to_float64()``.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.precision import DDArray


def test_single_point_construction():
    p = DDArray([0.5, 0.25, 0.125])
    assert p.shape == (3,)
    np.testing.assert_array_equal(p.hi, [0.5, 0.25, 0.125])


def test_translate_by_tiny_offsets_preserved():
    # Deep-hierarchy requirement: offsets of 2^-40 of the box must survive
    p = DDArray(np.full((100, 3), 1.0 / 3.0))
    tiny = 2.0**-40
    q = p.shift(tiny)
    d = (q - p).to_float64()
    np.testing.assert_array_equal(d, np.full((100, 3), tiny))


def test_midpoint():
    m = (DDArray([0.0]) + DDArray([1.0])) * 0.5
    assert m.hi[0] == 0.5 and m.lo[0] == 0.0


def test_midpoint_deep_cells():
    # midpoint of cell edges at level 45 must stay exact
    left = DDArray([1.0 / 3.0]).shift(2.0**-45)
    right = DDArray([1.0 / 3.0]).shift(2.0 ** -45 + 2.0**-46)
    off = ((left + right) * 0.5 - DDArray([1.0 / 3.0])).to_float64()
    assert off[0] == 2.0**-45 + 2.0**-47


def test_wrap_periodic():
    p = DDArray([1.25, -0.25, 0.5])
    w = p.wrap_periodic(0.0, 1.0)
    np.testing.assert_allclose(w.hi, [0.25, 0.75, 0.5])


def test_wrap_periodic_preserves_lo():
    p = DDArray([1.0 + 0.25], [1e-25]).wrap_periodic()
    d = (p - DDArray([0.25])).to_float64()
    assert abs(d[0] - 1e-25) < 1e-40


def test_compare():
    a = DDArray([0.5], [1e-30])
    b = DDArray([0.5], [0.0])
    assert (a > b)[0] and (b < a)[0]
    assert (a == a)[0]
    assert (b == 0.5)[0]


def test_scaled():
    p = DDArray([0.5, 1.0]) * 0.5
    np.testing.assert_array_equal(p.hi, [0.25, 0.5])


def test_getitem_setitem():
    p = DDArray(np.zeros((4, 3)))
    p[2] = DDArray(np.array([[0.1, 0.2, 0.3]]))
    assert p.hi[2, 1] == 0.2
    q = p[2]
    assert q.hi.shape[-1] == 3


def test_relative_offset_beats_float64():
    """The motivating failure: float64 loses offsets at depth; EPA keeps them."""
    base = 2.0 / 3.0
    offset = 1e-17
    # float64 path loses the offset entirely (base + offset rounds to base):
    f64_result = (base + offset) - base
    assert f64_result != offset  # demonstrates the failure mode
    # EPA path preserves it exactly:
    p = DDArray([base]).shift(offset)
    d = (p - DDArray([base])).to_float64()
    assert d[0] == offset


@given(
    st.floats(min_value=0.01, max_value=0.99, allow_nan=False),
    st.integers(min_value=20, max_value=100),
)
@settings(max_examples=50, deadline=None)
def test_offset_roundtrip_property(base, exponent):
    offset = 2.0**-exponent
    p = DDArray([base]).shift(offset)
    d = (p - DDArray([base])).to_float64()
    assert d[0] == offset


@given(st.lists(st.integers(min_value=10, max_value=80), min_size=1, max_size=30))
@settings(max_examples=50, deadline=None)
def test_accumulated_translations_reversible(exponents):
    p = DDArray([0.37])
    for e in exponents:
        p = p.shift(2.0**-e)
    for e in exponents:
        p = p.shift(-(2.0**-e))
    d = (p - DDArray([0.37])).to_float64()
    assert abs(d[0]) < 1e-30
