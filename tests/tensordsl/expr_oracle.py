"""The interpretive expression evaluator, kept as a test oracle.

This is the tree walk ``repro.tensordsl.materialize`` evaluated every
expression with before ``compile_expr`` replaced it: one recursive call per
node per evaluation, dtypes and batch widths re-derived on each visit,
constants reconverted on every call.  It stays here, independent of the
compiled evaluators, so ``tests/tensordsl/test_compile_expr.py`` can demand
that compiling a tree changes nothing — bit for bit.
"""

import numpy as np

from repro.dw import joldes
from repro.dw.eft import two_prod
from repro.tensordsl.expression import BinExpr, ConstExpr, ConvertExpr, Expr, Leaf, UnExpr
from repro.tensordsl.types import Type, promote


def convert_value(value, src: str, dst: str):
    if src == dst:
        return value
    if src == Type.DOUBLEWORD:
        wide = np.asarray(value[0], np.float64) + np.asarray(value[1], np.float64)
        return wide.astype(np.float32) if dst == Type.FLOAT32 else wide
    if dst == Type.DOUBLEWORD:
        wide = np.asarray(value, dtype=np.float64)
        with np.errstate(over="ignore", invalid="ignore"):
            hi = wide.astype(np.float32)
            lo = (wide - hi.astype(np.float64)).astype(np.float32)
        # A non-finite hi (±inf, NaN, a float64 beyond float32's range)
        # carries a zero lo, so hi + lo keeps an infinity.
        return hi, np.where(np.isfinite(hi), lo, np.float32(0))
    target = np.float32 if dst == Type.FLOAT32 else np.float64
    return np.asarray(value, dtype=target)


def _dw_sqrt(hi, lo):
    hi = np.asarray(hi, np.float32)
    lo = np.asarray(lo, np.float32)
    with np.errstate(divide="ignore", invalid="ignore"):
        s0 = np.sqrt(hi)
        ph, pl = two_prod(s0, s0)
        rh, rl = joldes.sub_dw_dw(hi, lo, ph, pl)
        ch, cl = joldes.div_dw_fp(rh, rl, np.float32(2.0) * s0)
        oh, ol = joldes.add_dw_fp(ch, cl, s0)
    zero = hi == 0
    oh = np.where(zero, np.float32(0), oh)
    ol = np.where(zero, np.float32(0), ol)
    return oh, ol


def _dw_view64(value):
    return np.asarray(value[0], np.float64) + np.asarray(value[1], np.float64)


_CMP = {
    "<": np.less,
    "<=": np.less_equal,
    ">": np.greater,
    ">=": np.greater_equal,
    "==": np.equal,
    "!=": np.not_equal,
}

_DW_BIN = {
    "+": joldes.add_dw_dw,
    "-": joldes.sub_dw_dw,
    "*": joldes.mul_dw_dw,
    "/": joldes.div_dw_dw,
}


def expand_batch(value, dt: str):
    if dt == Type.DOUBLEWORD:
        return np.asarray(value[0])[..., None], np.asarray(value[1])[..., None]
    return np.asarray(value)[..., None]


def _align_batch(value, operand: Expr, batch: int, dt: str):
    if batch > 1 and operand.batch == 1:
        return expand_batch(value, dt)
    return value


def eval_expr(expr: Expr, resolve):
    """Evaluate ``expr`` with leaves supplied by ``resolve(leaf)``."""
    if isinstance(expr, Leaf):
        return resolve(expr)
    if isinstance(expr, ConstExpr):
        return convert_value(np.float64(expr.value), Type.FLOAT64, expr.dtype)
    if isinstance(expr, ConvertExpr):
        inner = eval_expr(expr.operand, resolve)
        return convert_value(inner, expr.operand.dtype, expr.target)
    if isinstance(expr, UnExpr):
        v = eval_expr(expr.operand, resolve)
        dt = expr.operand.dtype
        if dt == Type.DOUBLEWORD:
            hi, lo = v
            if expr.op == "neg":
                return -hi, -lo
            if expr.op == "abs":
                neg = hi < 0
                return np.where(neg, -hi, hi), np.where(neg, -lo, lo)
            if expr.op == "sqrt":
                return _dw_sqrt(hi, lo)
        else:
            if expr.op == "neg":
                return -v
            if expr.op == "abs":
                return np.abs(v)
            if expr.op == "sqrt":
                return np.sqrt(v)
        raise ValueError(f"unknown unary op {expr.op!r}")
    if isinstance(expr, BinExpr):
        batch = expr.batch
        if expr.op in _CMP:
            cmp_dt = promote(expr.left.dtype, expr.right.dtype)
            lv = convert_value(eval_expr(expr.left, resolve), expr.left.dtype, cmp_dt)
            rv = convert_value(eval_expr(expr.right, resolve), expr.right.dtype, cmp_dt)
            lv = _align_batch(lv, expr.left, batch, cmp_dt)
            rv = _align_batch(rv, expr.right, batch, cmp_dt)
            if cmp_dt == Type.DOUBLEWORD:
                lv, rv = _dw_view64(lv), _dw_view64(rv)
            return _CMP[expr.op](lv, rv).astype(np.float32)
        dt = expr.dtype
        lv = convert_value(eval_expr(expr.left, resolve), expr.left.dtype, dt)
        rv = convert_value(eval_expr(expr.right, resolve), expr.right.dtype, dt)
        lv = _align_batch(lv, expr.left, batch, dt)
        rv = _align_batch(rv, expr.right, batch, dt)
        if dt == Type.DOUBLEWORD:
            return _DW_BIN[expr.op](lv[0], lv[1], rv[0], rv[1])
        op = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide}[expr.op]
        return op(lv, rv)
    raise TypeError(f"unknown expression {expr!r}")
