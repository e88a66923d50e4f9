"""Tests for DDArray / DoubleDouble user types, including hypothesis properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.precision import DDArray, DoubleDouble, core, dd

finite_floats = st.floats(
    min_value=-1e12, max_value=1e12, allow_nan=False, allow_infinity=False
)
small_floats = st.floats(
    min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False
)


class TestDoubleDoubleScalar:
    def test_string_parse_exact(self):
        x = DoubleDouble("0.1")
        # 0.1 is not representable in f64; the dd residual must be the f64 error
        assert float(x.hi) == 0.1
        assert x.lo != 0.0
        assert abs(x.to_decimal() - __import__("decimal").Decimal("0.1")) < 1e-32

    def test_int_construction(self):
        big = 2**70 + 1  # not representable in one f64
        x = DoubleDouble(big)
        assert x.to_decimal() == big

    def test_float_roundtrip(self):
        x = DoubleDouble(3.5)
        assert float(x) == 3.5

    def test_str_has_31_digits(self):
        s = str(DoubleDouble("1") / DoubleDouble("3"))
        mantissa = s.split("E")[0].replace(".", "").replace("-", "")
        assert len(mantissa) >= 31

    def test_repr_roundtrip_value(self):
        x = DoubleDouble("0.12345678901234567890123456789")
        y = eval(repr(x), {"DoubleDouble": DoubleDouble})
        assert float((x - y).to_float64()) == 0.0

    def test_one_third_times_three(self):
        x = DoubleDouble(1) / DoubleDouble(3)
        y = x * 3
        err = abs(float(y - DoubleDouble(1)))
        assert err < 1e-31


class TestDDArray:
    def test_construction_and_shape(self):
        a = DDArray(np.arange(6.0).reshape(2, 3))
        assert a.shape == (2, 3)
        assert a.size == 6
        assert a.ndim == 2

    def test_zeros(self):
        z = DDArray.zeros((4,))
        assert np.all(z.hi == 0) and np.all(z.lo == 0)

    def test_indexing(self):
        a = DDArray(np.array([1.0, 2.0, 3.0]))
        b = a[1]
        assert float(b.hi) == 2.0
        a[0] = 5.0
        assert a.hi[0] == 5.0

    def test_setitem_with_ddarray(self):
        a = DDArray.zeros((3,))
        a[1] = DoubleDouble("0.1")
        assert a.hi[1] == 0.1
        assert a.lo[1] != 0.0

    def test_arithmetic_with_scalars(self):
        a = DDArray(np.array([1.0, 2.0]))
        b = (a + 1.0) * 2.0 - 4.0
        np.testing.assert_array_equal(b.to_float64(), [0.0, 2.0])

    def test_radd_rsub_rmul_rdiv(self):
        a = DDArray(np.array([2.0, 4.0]))
        np.testing.assert_array_equal((1.0 + a).to_float64(), [3.0, 5.0])
        np.testing.assert_array_equal((10.0 - a).to_float64(), [8.0, 6.0])
        np.testing.assert_array_equal((3.0 * a).to_float64(), [6.0, 12.0])
        np.testing.assert_array_equal((8.0 / a).to_float64(), [4.0, 2.0])

    def test_comparisons_elementwise(self):
        a = DDArray(np.array([1.0, 2.0, 3.0]))
        b = DDArray(np.array([2.0, 2.0, 2.0]))
        np.testing.assert_array_equal(a < b, [True, False, False])
        np.testing.assert_array_equal(a == b, [False, True, False])
        np.testing.assert_array_equal(a >= b, [False, True, True])
        np.testing.assert_array_equal(a != b, [True, False, True])

    def test_comparison_uses_lo_word(self):
        a = DDArray(np.array([1.0]), np.array([1e-25]))
        b = DDArray(np.array([1.0]), np.array([0.0]))
        assert bool((a > b)[0])

    def test_sqrt(self):
        a = DDArray(np.array([4.0, 9.0]))
        np.testing.assert_array_equal(a.sqrt().to_float64(), [2.0, 3.0])

    def test_sum_compensated(self):
        # Sum 1.0 + n tiny values that would individually vanish in f64
        n = 1000
        vals = np.full(n, 1e-20)
        a = DDArray(np.concatenate([[1.0], vals]))
        total = a.sum()
        resid = total - DoubleDouble(1.0)
        assert abs(float(resid) - n * 1e-20) < 1e-25

    def test_reshape_and_copy(self):
        a = DDArray(np.arange(6.0))
        b = a.reshape(2, 3)
        assert b.shape == (2, 3)
        c = a.copy()
        c[0] = 99.0
        assert a.hi[0] == 0.0

    @pytest.mark.parametrize("lo_word", [0.0, -0.0, None])
    def test_shift_matches_dd_add_f64(self, lo_word):
        """A float64 shift leaves exactly the words ``core.dd_add_f64``
        leaves, the sign of a zero included: the hierarchy fingerprint
        hashes both words of every particle position."""
        rng = np.random.default_rng(11)
        shape = (200, 3)
        hi = rng.random(shape) * np.where(rng.random(shape) < 0.5, -1.0, 1.0)
        if lo_word is None:
            lo = hi * 2.0**-60 * rng.standard_normal(shape)
        else:
            lo = np.full(shape, lo_word)
        offset = rng.standard_normal(shape) * 2.0 ** -rng.integers(0, 60, shape)
        # exact cancellations and signed-zero offsets make zero words
        offset[:20] = -hi[:20]
        offset[20:40] = 0.0
        offset[40:60] = -0.0
        got = DDArray(hi, lo).shift(offset)
        want_hi, want_lo = core.dd_add_f64(hi, lo, offset)
        assert got.hi.tobytes() == want_hi.tobytes()
        assert got.lo.tobytes() == want_lo.tobytes()


class TestAlgebraicProperties:
    @given(small_floats, small_floats)
    @settings(max_examples=100, deadline=None)
    def test_add_commutative(self, x, y):
        a, b = DoubleDouble(x), DoubleDouble(y)
        d = (a + b) - (b + a)
        assert float(d) == 0.0

    @given(small_floats, small_floats, small_floats)
    @settings(max_examples=100, deadline=None)
    def test_add_associative_to_dd_eps(self, x, y, z):
        a, b, c = DoubleDouble(x), DoubleDouble(y), DoubleDouble(z)
        lhs = (a + b) + c
        rhs = a + (b + c)
        scale = max(abs(x), abs(y), abs(z), 1.0)
        assert abs(float(lhs - rhs)) <= scale * 1e-29

    @given(small_floats)
    @settings(max_examples=100, deadline=None)
    def test_additive_inverse(self, x):
        a = DoubleDouble(x)
        assert float(a + (-a)) == 0.0

    @given(small_floats, small_floats)
    @settings(max_examples=100, deadline=None)
    def test_mul_commutative(self, x, y):
        a, b = DoubleDouble(x), DoubleDouble(y)
        assert float(a * b - b * a) == 0.0

    @given(st.floats(min_value=1e-6, max_value=1e6, allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_div_mul_roundtrip(self, x):
        a = DoubleDouble(x)
        b = DoubleDouble(7.0)
        r = (a / b) * b
        assert abs(float(r - a)) <= abs(x) * 1e-30

    @given(st.floats(min_value=1e-100, max_value=1e100, allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_sqrt_squares_back(self, x):
        a = DoubleDouble(x)
        r = a.sqrt() * a.sqrt()
        assert abs(float(r - a)) <= x * 1e-29

    @given(small_floats, small_floats)
    @settings(max_examples=100, deadline=None)
    def test_ordering_antisymmetric(self, x, y):
        a, b = DoubleDouble(x), DoubleDouble(y)
        assert bool(a < b) == bool(b > a)
        assert bool(a == b) == (x == y)


def test_dd_shorthand():
    assert isinstance(dd("0.5"), DoubleDouble)
    assert isinstance(dd(1.5), DoubleDouble)
    assert isinstance(dd(np.zeros(3)), DDArray)


def test_mixed_ndarray_ops_promote():
    a = DDArray(np.ones(3))
    v = np.array([1.0, 2.0, 3.0])
    out = a + v
    np.testing.assert_array_equal(out.to_float64(), [2.0, 3.0, 4.0])
    out2 = v * a  # __array_priority__ must route to DDArray.__rmul__
    assert isinstance(out2, DDArray)
