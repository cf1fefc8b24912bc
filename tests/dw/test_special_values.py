"""The double-word special-value contract, over the whole float32 range.

``repro.dw.eft``'s error-free transforms return a low part of 0 wherever
their high part is not finite: an overflow is ``(±inf, 0)``, not the NaN
that ``inf - inf`` would leave in the low part, and NaN propagates through
the high part.  Everywhere else the low part is the transform's exact error,
unchanged.  The double-word operations end in a transform, so they keep the
contract, and ``native.c``'s double-word opcodes do exactly the same
(they are checked here against the numpy interpreter, bit for bit).

Operands are raw float32 bit patterns — subnormals, ±0, ±inf and NaN
included — mixed with the edges of the range.
"""

import shutil
from fractions import Fraction

import numpy as np
import pytest

from repro.dw import eft, joldes
from repro.tensordsl.expression import BinExpr, Leaf
from repro.tensordsl.materialize import compile_expr, native_dw_eval
from repro.tensordsl.types import Type

F32 = np.finfo(np.float32)
EDGES = np.array([
    0.0, -0.0, np.inf, -np.inf, np.nan, F32.max, -F32.max, 3e38, -3e38, 2e19, -2e19,
    1.8e38, F32.smallest_subnormal, -F32.smallest_subnormal, 1e-40, F32.tiny, -F32.tiny,
    1.0, -1.0, 1 + 2.0**-23,
], np.float32)
SEEDS = [0, 1, 2, 3]
N = 4000


def _operands(rng, size: int = N) -> np.ndarray:
    """float32 values spread over every bit pattern, edges mixed in."""
    x = rng.integers(0, 2**32, size, dtype=np.uint64).astype(np.uint32).view(np.float32)
    edge = rng.random(size) < 0.3
    x[edge] = rng.choice(EDGES, int(edge.sum()))
    return x


def _bits_equal(got, want) -> bool:
    """Equal as raw bits, except that a NaN only has to be a NaN."""
    got, want = np.asarray(got), np.asarray(want)
    nan = np.isnan(want)
    return bool(got.dtype == want.dtype and np.array_equal(np.isnan(got), nan)
                and np.array_equal(got[~nan].view(np.uint32), want[~nan].view(np.uint32)))


def _raw_two_sum(a, b):
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _raw_fast_two_sum(a, b):
    s = a + b
    return s, b - (s - a)


def _raw_two_prod(a, b):
    p = a * b
    return p, eft.fma(a, b, -p)


TRANSFORMS = {
    "two_sum": (eft.two_sum, _raw_two_sum, Fraction.__add__),
    "fast_two_sum": (eft.fast_two_sum, _raw_fast_two_sum, Fraction.__add__),
    "two_prod": (eft.two_prod, _raw_two_prod, Fraction.__mul__),
}


@pytest.mark.parametrize("name", list(TRANSFORMS))
@pytest.mark.parametrize("seed", SEEDS)
def test_a_transform_zeroes_the_low_part_exactly_where_the_high_part_is_not_finite(
        name, seed):
    """The high part is the rounded operation; the low part is 0 where it
    is ±inf or NaN, the unchanged error term everywhere else, and that term
    is exact whenever the exact error is a float32 (2Sum and Fast2Sum,
    ordered: always; 2Prod: when the exact product is a multiple of the
    least subnormal)."""
    rng = np.random.default_rng(seed)
    a, b = _operands(rng), _operands(rng)
    if name == "fast_two_sum":  # its precondition: |a| >= |b|
        a, b = np.where(np.abs(a) >= np.abs(b), a, b), np.where(np.abs(a) >= np.abs(b), b, a)
    transform, raw, exact_op = TRANSFORMS[name]
    with np.errstate(all="ignore"):
        hi, lo = transform(a, b)
        raw_hi, raw_lo = raw(a, b)
    assert hi.dtype == lo.dtype == np.float32
    assert _bits_equal(hi, raw_hi)
    finite = np.isfinite(hi)
    assert not finite.all() and finite.any()
    assert lo[~finite].view(np.uint32).tolist() == [0] * int((~finite).sum())
    assert _bits_equal(lo[finite], raw_lo[finite])  # finite results do not move
    least = Fraction(2) ** -149
    for x, y, h, e in zip(a[finite], b[finite], hi[finite], lo[finite]):
        exact = exact_op(Fraction(float(x)), Fraction(float(y)))
        if name != "two_prod" or (exact / least).denominator == 1:
            assert Fraction(float(h)) + Fraction(float(e)) == exact, (x, y)


def test_the_contract_keeps_dtype_and_scalars():
    with np.errstate(all="ignore"):
        s, e = eft.two_sum(np.float32(np.inf), np.float32(1.0))
    assert (type(s), type(e)) == (np.float32, np.float32)
    assert (s, e) == (np.inf, 0.0)
    with np.errstate(all="ignore"):
        p, e = eft.two_prod(np.array([1e200, 3.0]), np.array([1e200, 0.5]))
    assert (p.dtype, e.dtype) == (np.float64, np.float64)
    assert p.tolist() == [np.inf, 1.5] and e.tolist() == [0.0, 0.0]


def test_an_overflowing_double_word_is_infinite_and_nan_stays_in_the_high_part():
    f = np.float32
    with np.errstate(all="ignore"):
        assert joldes.add_dw_dw(f(3e38), f(0), f(3e38), f(0)) == (np.inf, 0.0)
        assert joldes.mul_dw_dw(f(2e19), f(0), f(2e19), f(0)) == (np.inf, 0.0)
        assert joldes.add_dw_dw(f(-3e38), f(0), f(-3e38), f(0)) == (-np.inf, 0.0)
        assert eft.two_sum(f(np.inf), f(1)) == (np.inf, 0.0)
        hi, lo = eft.two_sum(f(np.nan), f(1))
        assert np.isnan(hi) and lo == 0.0
        hi, lo = joldes.add_dw_dw(f(np.inf), f(0), f(-np.inf), f(0))
        assert np.isnan(hi) and lo == 0.0


OPS = ["+", "-", "*", "/"]
NUMPY_OPS = {"+": joldes.add_dw_dw, "-": joldes.sub_dw_dw, "*": joldes.mul_dw_dw,
             "/": joldes.div_dw_dw}


class _Var:
    """A one-RHS double-word leaf."""

    batch, shape, dtype = 1, (1,), Type.DOUBLEWORD


def _dw_operand(rng):
    """A double word from the whole range: ``lo`` 0, or ``hi``'s rounding
    error at binary64 (its nearest double word), or anything."""
    hi = _operands(rng)
    with np.errstate(all="ignore"):
        _, nearest_lo = eft.from_float64(hi.astype(np.float64) * (1 + 2.0**-30))
    lo = np.where(rng.random(N) < 0.5, np.float32(0), nearest_lo)
    odd = rng.random(N) < 0.1
    lo[odd] = _operands(rng, int(odd.sum()))
    return hi, lo


@pytest.mark.parametrize("op", OPS)
@pytest.mark.parametrize("seed", SEEDS)
def test_the_operations_keep_the_contract_in_numpy_and_in_c(op, seed):
    """A double-word ``+ - * /`` over the whole range: a non-finite high
    part has a zero low part, and the native opcode writes the numpy
    interpreter's bits, the contract's zeros included."""
    rng = np.random.default_rng([seed, OPS.index(op)])
    x, y = _dw_operand(rng), _dw_operand(rng)
    with np.errstate(all="ignore"):
        want = NUMPY_OPS[op](*x, *y)
    assert want[0].dtype == want[1].dtype == np.float32
    infinite = ~np.isfinite(want[0])
    assert infinite.any()
    assert want[1][infinite].view(np.uint32).tolist() == [0] * int(infinite.sum())

    left, right = Leaf(_Var()), Leaf(_Var())
    program = compile_expr(BinExpr(op, left, right))
    value = {left.var: x, right.var: y}
    with np.errstate(all="ignore"):
        interpreted = program(lambda leaf: value[leaf.var])
    for got, w in zip(interpreted, want):
        assert _bits_equal(got, w)
    if shutil.which("cc") is None:
        pytest.skip("no C compiler")
    assert native_dw_eval() is not None, "the native double-word evaluator failed its self-check"
    vectors = {i: value[var] for i, var in enumerate(program.leaves)}
    out = (np.full(N, 7.0, np.float32), np.full(N, 7.0, np.float32))

    def numpy_ran():
        raise AssertionError("the numpy fallback ran")

    program.bind([0, N], vectors, {}, out, None, numpy_ran)()
    for got, w in zip(out, want):
        assert _bits_equal(got, w)
