"""Compiled expression evaluators are the interpretive walk, bit for bit.

``compile_expr`` decides dtypes, promotions, conversions, batch alignment
and constant values once per tree; the property here is that doing so
changes nothing: over random trees of f32 / dw / f64 leaves and constants,
``ConvertExpr`` chains, neg / abs / sqrt (dw sqrt included), all six
comparisons (dw included), batched x unbatched operands and ±0.0 / ±inf /
NaN inputs, ``compile_expr(e)(resolve)`` equals the oracle
(``expr_oracle.eval_expr``, the walk it replaced) as raw bits.  A count
test pins that a build compiles each tree once and a cache hit none.
"""

import warnings
from unittest import mock

import numpy as np
import pytest
from expr_oracle import convert_value, eval_expr, expand_batch
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.codelet import ElementwiseSpec, ReduceSpec
from repro.graph.program import Execute
from repro.solvers import ProgramCache, solve
from repro.sparse import poisson3d
from repro.tensordsl.expression import BinExpr, ConstExpr, ConvertExpr, Leaf, UnExpr
from repro.tensordsl.materialize import (
    _dw_view64,
    _program_of,
    _to_dw,
    assignment_evaluator,
    compile_expr,
)
from repro.tensordsl.types import Type

N, B = 5, 3
DTYPES = (Type.FLOAT32, Type.DOUBLEWORD, Type.FLOAT64)
SPECIAL = (0.0, -0.0, np.inf, -np.inf, np.nan, 1.0, -2.5, 3e38, 1e-30)


class _Var:
    """The three attributes an expression leaf reads off its variable."""

    def __init__(self, dtype: str, scalar: bool, batch: int):
        self.dtype, self.batch = dtype, batch
        self.shape = () if scalar else (N,)


def _values(rng, var: _Var):
    shape = (1 if var.shape == () else N,) + ((B,) if var.batch > 1 else ())
    wide = rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4, shape)
    special = rng.random(shape) < 0.2
    wide[special] = rng.choice(SPECIAL, int(special.sum()))
    if var.dtype == Type.FLOAT32:
        return wide.astype(np.float32)
    if var.dtype == Type.FLOAT64:
        return wide
    hi = wide.astype(np.float32)
    lo = (rng.standard_normal(shape) * np.abs(hi) * 2.0**-25).astype(np.float32)
    return hi, lo


@st.composite
def trees(draw, depth=0):
    kind = draw(st.sampled_from(
        ["leaf", "const"] if depth >= 4 else
        ["leaf", "const", "convert", "unary", "binary", "binary", "compare"]
    ))
    if kind == "leaf":
        var = _Var(draw(st.sampled_from(DTYPES)), draw(st.booleans()),
                   draw(st.sampled_from([1, B])))
        return Leaf(var)
    if kind == "const":
        value = draw(st.sampled_from(SPECIAL) | st.floats(-1e3, 1e3, allow_nan=False))
        return ConstExpr(value, draw(st.sampled_from(DTYPES)))
    if kind == "convert":
        return ConvertExpr(draw(trees(depth=depth + 1)), draw(st.sampled_from(DTYPES)))
    if kind == "unary":
        return UnExpr(draw(st.sampled_from(["neg", "abs", "sqrt"])),
                      draw(trees(depth=depth + 1)))
    ops = ["+", "-", "*", "/"] if kind == "binary" else ["<", "<=", ">", ">=", "==", "!="]
    return BinExpr(draw(st.sampled_from(ops)), draw(trees(depth=depth + 1)),
                   draw(trees(depth=depth + 1)))


def _bits(value) -> list:
    """Each part of a value as (dtype, shape, raw bits)."""
    parts = value if isinstance(value, tuple) else (value,)
    out = []
    for part in parts:
        arr = np.ascontiguousarray(part)
        out.append((arr.dtype.str, arr.shape, arr.view(f"u{arr.dtype.itemsize}").tobytes()))
    return out


def _resolver(tree, seed: int):
    rng = np.random.default_rng(seed)
    values = {}
    for leaf in tree.leaves():
        if id(leaf.var) not in values:
            values[id(leaf.var)] = _values(rng, leaf.var)
    return lambda leaf: values[id(leaf.var)]


@given(tree=trees(), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=400, deadline=None)
def test_compiled_evaluator_is_the_interpretive_walk_bit_for_bit(tree, seed):
    resolve = _resolver(tree, seed)
    with np.errstate(all="ignore"):
        want = eval_expr(tree, resolve)
        got = compile_expr(tree)(resolve)
        again = compile_expr(tree)(resolve)  # constants are shared, not consumed
    assert _bits(got) == _bits(want)
    assert _bits(again) == _bits(want)


@given(tree=trees(), out_dtype=st.sampled_from(DTYPES), widen=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_assignment_evaluator_converts_and_expands_like_the_walk(tree, out_dtype, widen, seed):
    out = _Var(out_dtype, False, B if widen or tree.batch > 1 else 1)
    resolve = _resolver(tree, seed)
    with np.errstate(all="ignore"):
        want = convert_value(eval_expr(tree, resolve), tree.dtype, out_dtype)
        if out.batch > 1 and tree.batch == 1:
            want = expand_batch(want, out_dtype)
        got = assignment_evaluator(tree, out)(resolve)
    assert _bits(got) == _bits(want)


def test_mismatched_batch_widths_and_unknown_ops_fail_at_compile_time():
    with pytest.raises(ValueError, match="batch widths"):
        compile_expr(BinExpr("+", Leaf(_Var(Type.FLOAT32, False, 2)),
                             Leaf(_Var(Type.FLOAT32, False, 3))))
    with pytest.raises(ValueError, match="unary op"):
        compile_expr(UnExpr("exp", Leaf(_Var(Type.FLOAT32, False, 1))))


def test_to_dw_keeps_infinities_and_leaves_finite_values_alone():
    """A non-finite hi carries ``lo = 0``: ±inf and a float64 beyond
    float32's range round to an infinity, not to a NaN pair, with no numpy
    warning.  Finite values split exactly as ``hi, (wide - hi)`` did."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        hi, lo = _to_dw(np.array([np.inf, -np.inf, 1e300]))
        np.testing.assert_array_equal(_dw_view64((hi, lo)), [np.inf, -np.inf, np.inf])
        assert not lo.any()
        rng = np.random.default_rng(5)
        for wide in (rng.standard_normal(256) * 10.0 ** rng.integers(-30, 30, 256),
                     rng.standard_normal(64).astype(np.float32),
                     np.array([0.0, -0.0, 3e38, -3e38, 1e-45])):
            wide64 = np.asarray(wide, np.float64)
            hi, lo = _to_dw(wide)
            want_lo = (wide64 - wide64.astype(np.float32).astype(np.float64)).astype(np.float32)
            assert _bits(hi) == _bits(wide64.astype(np.float32))
            assert _bits(lo) == _bits(want_lo)


def _spec_trees(compiled) -> set:
    """Distinct expression trees behind the program's elementwise / reduce
    vertices."""
    trees_, seen = set(), set()

    def walk(step):
        if id(step) in seen:
            return
        seen.add(id(step))
        if isinstance(step, Execute):
            for v in step.compute_set.vertices:
                if isinstance(v.codelet.spec, (ElementwiseSpec, ReduceSpec)):
                    trees_.add(id(v.codelet.spec.expr))
        for attr in ("steps", "body", "then_body", "else_body"):
            child = getattr(step, attr, None)
            for c in child if isinstance(child, list) else [child]:
                if c is not None and not isinstance(c, (int, str)):
                    walk(c)

    walk(compiled.source)
    walk(compiled.root)
    return trees_


def test_a_cold_solve_compiles_each_tree_once_and_a_cache_hit_none():
    crs, dims = poisson3d(6)
    b = np.random.default_rng(2).standard_normal(crs.n)
    cache = ProgramCache()
    with mock.patch("repro.tensordsl.materialize._program_of", wraps=_program_of) as compiles:
        cold = solve(crs, b, {"solver": "cg", "tol": 1e-6}, grid_dims=dims, tiles_per_ipu=4,
                     backend="sim", trace=True, cache=cache)
        compiled = compiles.call_count
        assert compiled == len(_spec_trees(cold.compiled)) > 0
        hit = solve(crs, b, {"solver": "cg", "tol": 1e-6}, grid_dims=dims, tiles_per_ipu=4,
                    backend="sim", trace=True, cache=cache)
    assert cache.stats()["hits"] == 1
    assert compiles.call_count == compiled
    assert hit.cycles == cold.cycles
    np.testing.assert_array_equal(hit.x, cold.x)
