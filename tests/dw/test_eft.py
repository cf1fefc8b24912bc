"""Error-free transform unit and property tests.

The defining property of an EFT is *exactness*: the returned (result, error)
pair reconstructs the true real-number result.  For float32 operands we can
check this exactly in float64 (a f32 product fits in 48 bits; a f32 sum's
value and error are both f32, so their f64 sum is exact).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dw.eft import fast_two_sum, fma, split, two_prod, two_sum

finite_f32 = st.floats(
    min_value=-2.0**100, max_value=2.0**100, allow_nan=False, allow_infinity=False,
    allow_subnormal=False, width=32,
)

# EFT exactness theorems assume the exact result neither under- nor overflows;
# keep operand magnitudes in [2^-30, 2^30] (or exactly zero) so products stay
# in the normal float32 range.
moderate_f32 = st.one_of(
    st.just(0.0),
    st.floats(
        min_value=2.0**-30,
        max_value=2.0**30,
        allow_nan=False,
        allow_subnormal=False,
        width=32,
    ).flatmap(lambda x: st.sampled_from([x, -x])),
)


def as_f32(x):
    return np.float32(x)


class TestTwoSum:
    def test_exact_decomposition_simple(self):
        s, e = two_sum(as_f32(1.0), as_f32(1e-8))
        assert float(s) == 1.0  # 1e-8 vanishes in f32
        assert float(e) == pytest.approx(1e-8, rel=1e-6)

    def test_zero(self):
        s, e = two_sum(as_f32(0.0), as_f32(0.0))
        assert s == 0.0 and e == 0.0

    @given(finite_f32, finite_f32)
    @settings(max_examples=300)
    def test_exactness_property(self, a, b):
        a, b = as_f32(a), as_f32(b)
        s, e = two_sum(a, b)
        if np.isfinite(s):
            assert np.float64(s) + np.float64(e) == np.float64(a) + np.float64(b)

    @given(finite_f32, finite_f32)
    @settings(max_examples=200)
    def test_s_is_rounded_sum(self, a, b):
        a, b = as_f32(a), as_f32(b)
        s, _ = two_sum(a, b)
        assert s == a + b

    def test_vectorized(self):
        a = np.array([1.0, 2.0, 3.0], dtype=np.float32)
        b = np.array([1e-8, -1e-8, 0.5e-7], dtype=np.float32)
        s, e = two_sum(a, b)
        np.testing.assert_array_equal(
            s.astype(np.float64) + e.astype(np.float64),
            a.astype(np.float64) + b.astype(np.float64),
        )


class TestFastTwoSum:
    @given(finite_f32, finite_f32)
    @settings(max_examples=300)
    def test_exact_when_ordered(self, a, b):
        a, b = as_f32(a), as_f32(b)
        if abs(a) < abs(b):
            a, b = b, a
        s, e = fast_two_sum(a, b)
        if np.isfinite(s):
            assert np.float64(s) + np.float64(e) == np.float64(a) + np.float64(b)


class TestTwoProd:
    def test_simple(self):
        # (1 + 2^-12)^2 = 1 + 2^-11 + 2^-24: the last bit is the f32 rounding error.
        a = as_f32(1.0 + 2.0**-12)
        p, e = two_prod(a, a)
        assert np.float64(p) + np.float64(e) == np.float64(a) * np.float64(a)
        assert e != 0.0

    @given(moderate_f32, moderate_f32)
    @settings(max_examples=300)
    def test_exactness_property(self, a, b):
        a, b = as_f32(a), as_f32(b)
        p, e = two_prod(a, b)
        assert np.float64(p) + np.float64(e) == np.float64(a) * np.float64(b)

    def test_float64_dekker_path(self):
        a = np.float64(1.0 + 2.0**-30)
        p, e = two_prod(a, a)
        # Dekker decomposition is exact for float64 too (checked structurally:
        # |e| <= ulp(p)/2 and p == fl(a*a)).
        assert p == a * a
        assert abs(e) <= np.spacing(p) / 2

    def test_vectorized(self):
        a = np.linspace(0.1, 5.0, 64, dtype=np.float32)
        b = np.linspace(-3.0, 3.0, 64, dtype=np.float32)
        p, e = two_prod(a, b)
        np.testing.assert_array_equal(
            p.astype(np.float64) + e.astype(np.float64),
            a.astype(np.float64) * b.astype(np.float64),
        )


class TestSplit:
    @given(st.floats(min_value=-2.0**49, max_value=2.0**49, allow_nan=False,
                     allow_subnormal=False, width=32))
    @settings(max_examples=200)
    def test_split_reconstructs(self, a):
        a = as_f32(a)
        hi, lo = split(a)
        assert hi + lo == a


class TestFMA:
    def test_single_rounding(self):
        # a*b underflows against c in a two-rounding evaluation but survives an FMA.
        a = as_f32(1.0 + 2.0**-12)
        c = as_f32(-1.0)
        naive = a * a + c
        fused = fma(a, a, c)
        exact = np.float64(a) * np.float64(a) + np.float64(c)
        assert abs(np.float64(fused) - exact) <= abs(np.float64(naive) - exact)
        assert fused == np.float32(exact)

    @given(moderate_f32, moderate_f32, moderate_f32)
    @settings(max_examples=300)
    def test_correctly_rounded(self, a, b, c):
        a, b, c = as_f32(a), as_f32(b), as_f32(c)
        out = fma(a, b, c)
        # f64 holds a*b exactly; one more f64 add then a single rounding to
        # f32 matches the hardware FMA except in measure-zero double-rounding
        # corners outside the moderate operand range used here.
        exact = np.float64(a) * np.float64(b) + np.float64(c)
        assert out == np.float32(exact)

    def test_scalar_in_scalar_out(self):
        out = fma(as_f32(2.0), as_f32(3.0), as_f32(4.0))
        assert np.ndim(out) == 0
        assert out == as_f32(10.0)

    def test_array_shape(self):
        a = np.ones(5, dtype=np.float32)
        out = fma(a, a, a)
        assert out.shape == (5,)
        assert out.dtype == np.float32

    def test_rejects_nothing_float64(self):
        out = fma(np.float64(2.0), np.float64(3.0), np.float64(1.0))
        assert out == 7.0


def test_unsupported_dtype_rejected():
    with pytest.raises(TypeError):
        two_prod(np.float16(1.0), np.float16(2.0))
