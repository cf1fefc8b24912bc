"""Expression materialization: fuse an expression tree into per-tile codelets.

Materialization is where symbolic execution meets the dataflow graph: the
whole expression tree becomes ONE generated codelet per tile (delayed
materialization, Sec. III-C), evaluated over the tile's shards with exact
working-precision semantics:

- ``float32`` ops run on NumPy float32 arrays (IEEE RN, same as IPU f32),
- ``dw`` ops run the Joldes et al. kernels on (hi, lo) float32 pairs,
- ``float64`` ops run on NumPy float64 (bit-equal to a correct soft-float).

Broadcasting follows NumPy rules — scalar shards are size-1 arrays that
broadcast inside the codelet, avoiding materializing expanded tensors
(exactly the paper's approach).
"""

from __future__ import annotations

import operator
from functools import cache

import numpy as np

from repro.dw import joldes
from repro.dw.eft import two_prod
from repro.graph.codelet import BatchReduceSpec, Codelet, ElementwiseSpec, ReduceSpec
from repro.tensordsl.expression import BinExpr, ConstExpr, ConvertExpr, Expr, Leaf, UnExpr
from repro.tensordsl.types import Type, promote

__all__ = [
    "compile_expr",
    "assignment_evaluator",
    "expr_compilations",
    "elementwise_codelets",
    "partial_reduce_codelets",
    "combine_codelet",
    "batch_reduce_codelet",
    "category_for",
    "worker_chunks",
]


# -- value representation helpers ------------------------------------------------------
# float32 / float64 values are NumPy arrays (or scalars); dw values are
# (hi, lo) tuples of float32 arrays.


def _dw_view64(value):
    return np.asarray(value[0], np.float64) + np.asarray(value[1], np.float64)


def _to_dw(value):
    wide = np.asarray(value, dtype=np.float64)
    hi = wide.astype(np.float32)
    return hi, (wide - hi.astype(np.float64)).astype(np.float32)


def _converter(src: str, dst: str):
    """The ``src -> dst`` precision conversion as a one-argument function
    (``None`` when the representations already agree)."""
    if src == dst:
        return None
    if src == Type.DOUBLEWORD:
        if dst == Type.FLOAT32:
            return lambda value: _dw_view64(value).astype(np.float32)
        return _dw_view64
    if dst == Type.DOUBLEWORD:
        return _to_dw
    target = np.float32 if dst == Type.FLOAT32 else np.float64
    return lambda value: np.asarray(value, dtype=target)


def _dw_sqrt(value):
    """Vectorized double-word square root (one Newton refinement)."""
    hi = np.asarray(value[0], np.float32)
    lo = np.asarray(value[1], np.float32)
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


def _dw_abs(value):
    hi, lo = value
    neg = hi < 0
    return np.where(neg, -hi, hi), np.where(neg, -lo, lo)


#: (operand is dw, op) -> the unary op on one value.
_UNARY = {
    (False, "neg"): operator.neg,
    (False, "abs"): np.abs,
    (False, "sqrt"): np.sqrt,
    (True, "neg"): lambda value: (-value[0], -value[1]),
    (True, "abs"): _dw_abs,
    (True, "sqrt"): _dw_sqrt,
}

_BINARY = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide}

_DW_BINARY = {
    "+": joldes.add_dw_dw,
    "-": joldes.sub_dw_dw,
    "*": joldes.mul_dw_dw,
    "/": joldes.div_dw_dw,
}

_CMP = {
    "<": np.less,
    "<=": np.less_equal,
    ">": np.greater,
    ">=": np.greater_equal,
    "==": np.equal,
    "!=": np.not_equal,
}


def _expand_batch(value, dt: str):
    """Append a trailing length-1 axis so an unbatched operand broadcasts
    against a ``(n, batch)`` value (numpy aligns trailing axes, so a bare
    ``(n,)`` array would otherwise pair ``n`` with ``batch``)."""
    if dt == Type.DOUBLEWORD:
        return np.asarray(value[0])[..., None], np.asarray(value[1])[..., None]
    return np.asarray(value)[..., None]


# -- the expression compiler ------------------------------------------------------------

#: Process-wide count of expression trees :func:`compile_expr` has compiled
#: (the tests assert a build compiles each tree once and a cache hit none).
_COMPILATIONS = 0


def expr_compilations() -> int:
    """Total expression trees compiled by :func:`compile_expr` in this process."""
    return _COMPILATIONS


def compile_expr(expr: Expr):
    """Compile ``expr`` into ``evaluate(resolve)``: the tree's value in
    ``expr.dtype`` representation, with leaves supplied by ``resolve(leaf)``
    in their variable's representation (an array, or a (hi, lo) pair for dw).

    This is the single source of truth for op semantics: the per-tile path
    resolves leaves to shard views, the fused whole-device path to flat
    per-device arrays — both run the exact same numpy/Joldes code, which is
    why the two backends are bit-identical.  Everything the tree fixes —
    dtypes, promotions, conversions, batch alignment, constant values — is
    decided here, once; the evaluator is a straight-line tree of closures.
    A tree compiles once: the evaluator is remembered on its (frozen) root,
    beside the node's cached ``dtype`` / ``batch``.
    """
    evaluate = vars(expr).get("_evaluate")
    if evaluate is None:
        global _COMPILATIONS
        _COMPILATIONS += 1
        evaluate = vars(expr)["_evaluate"] = _compile(expr)
    return evaluate


def _then(evaluate, fn):
    return lambda resolve: fn(evaluate(resolve))


def _coerced(evaluate, src: str, dst: str, expand: bool):
    """``evaluate`` with its ``src`` value converted to ``dst`` and, when
    ``expand``, given a trailing batch axis to broadcast against a batched
    value."""
    convert = _converter(src, dst)
    if convert is not None:
        evaluate = _then(evaluate, convert)
    if expand:
        evaluate = _then(evaluate, lambda value: _expand_batch(value, dst))
    return evaluate


def _operand(expr: Expr, dst: str, expand: bool):
    return _coerced(_compile(expr), expr.dtype, dst, expand)


def _frozen(value):
    """A constant shared by every evaluation: its arrays become read-only."""
    for part in value if isinstance(value, tuple) else (value,):
        if isinstance(part, np.ndarray):
            part.setflags(write=False)
    return value


def _compile(expr: Expr):
    if isinstance(expr, Leaf):
        return lambda resolve: resolve(expr)
    if isinstance(expr, ConstExpr):
        value = np.float64(expr.value)
        convert = _converter(Type.FLOAT64, expr.dtype)
        value = _frozen(value if convert is None else convert(value))
        return lambda resolve: value
    if isinstance(expr, ConvertExpr):
        return _operand(expr.operand, expr.target, expand=False)
    if isinstance(expr, UnExpr):
        key = (expr.operand.dtype == Type.DOUBLEWORD, expr.op)
        if key not in _UNARY:
            raise ValueError(f"unknown unary op {expr.op!r}")
        return _then(_compile(expr.operand), _UNARY[key])
    if isinstance(expr, BinExpr):
        compare = expr.op in _CMP
        dt = promote(expr.left.dtype, expr.right.dtype) if compare else expr.dtype
        wide = expr.batch > 1
        left = _operand(expr.left, dt, wide and expr.left.batch == 1)
        right = _operand(expr.right, dt, wide and expr.right.batch == 1)
        if compare:
            cmp = _CMP[expr.op]
            if dt == Type.DOUBLEWORD:
                left, right = _then(left, _dw_view64), _then(right, _dw_view64)
            return lambda resolve: cmp(left(resolve), right(resolve)).astype(np.float32)
        if dt == Type.DOUBLEWORD:
            fn = _DW_BINARY[expr.op]

            def dw(resolve):
                (lh, ll), (rh, rl) = left(resolve), right(resolve)
                return fn(lh, ll, rh, rl)

            return dw
        fn = _BINARY[expr.op]
        return lambda resolve: fn(left(resolve), right(resolve))
    raise TypeError(f"unknown expression {expr!r}")


def assignment_evaluator(expr: Expr, out_var):
    """``compile_expr(expr)`` with its value in ``out_var``'s representation
    (converted, and batch-expanded when an unbatched ``expr`` fills a
    batched variable) — what assigning ``expr`` into ``out_var`` writes."""
    expand = out_var.batch > 1 and expr.batch == 1
    return _coerced(compile_expr(expr), expr.dtype, out_var.dtype, expand)


@cache
def _tile_resolver(tile_id: int):
    """Leaf values of ``tile_id``'s shards (one resolver per tile, shared by
    every codelet on it)."""

    def resolve(leaf: Leaf):
        sh = leaf.var.shards[tile_id]
        return sh.data if sh.lo is None else (sh.data, sh.lo)

    return resolve


# -- codelet factories -------------------------------------------------------------------


def category_for(dtype: str) -> str:
    """Profiler bucket: extended-precision ops are a Table IV line item."""
    return "elementwise" if dtype == Type.FLOAT32 else "extended_precision"


def worker_chunks(n: int, workers: int) -> list:
    """Split ``n`` elements over worker threads (empty workers dropped)."""
    if n <= 0:
        return []
    base, extra = divmod(n, workers)
    return [base + (i < extra) for i in range(workers) if base + (i < extra) > 0]


def _elementwise_worker_cycles(model, dtype, op_counts, n, workers):
    if not op_counts:  # pure copy/convert
        op_counts = {"add": 1}
    return [
        model.elementwise_mixed(dtype, op_counts, chunk)
        for chunk in worker_chunks(n, workers)
    ] or [model.vertex_overhead]


def elementwise_codelets(model, expr: Expr, out_var, workers: int):
    """``codelet(tile_id)``: the fused elementwise codelet writing ``expr``
    into ``out_var``'s shard on that tile.  What depends on the expression
    alone — dtype, op mix, the spec, the worker cycles of a shard size — is
    worked out once for the compute set, not per tile."""
    expr_dt = expr.dtype
    op_counts = expr.op_counts()
    category = category_for(expr_dt)
    spec = ElementwiseSpec(expr, out_var)
    evaluate = assignment_evaluator(expr, out_var)
    # Remembered per shard size: the tiles of a compute set share a handful.
    worker_cycles = cache(
        lambda n: tuple(_elementwise_worker_cycles(model, expr_dt, op_counts, n, workers))
    )

    def codelet(tile_id: int) -> Codelet:
        resolve = _tile_resolver(tile_id)

        def run(ctx):
            value = evaluate(resolve)
            sh = out_var.shards[tile_id]
            if sh.lo is None:
                sh.data[...] = value
            else:
                sh.data[...], sh.lo[...] = value

        def cycles(ctx):
            return worker_cycles(out_var.shard(tile_id).size * out_var.batch)

        return Codelet(f"ew@{tile_id}", run, cycles, category=category, spec=spec)

    return codelet


REDUCE_OPS = ("sum", "max", "min")


def _dw_tree_sum(hi, lo):
    """Pairwise double-word summation of flat (hi, lo) arrays."""
    while hi.size > 1:
        half = hi.size // 2
        h2, l2 = joldes.add_dw_dw(hi[:half], lo[:half], hi[half : 2 * half], lo[half : 2 * half])
        if hi.size % 2:
            h2 = np.concatenate([h2, hi[-1:]])
            l2 = np.concatenate([l2, lo[-1:]])
        hi, lo = h2, l2
    return (hi[0], lo[0]) if hi.size else (np.float32(0), np.float32(0))


def _reduce_value(value, dt: str, op: str):
    """Reduce a tile-local value; returns scalar (or (hi, lo) for dw)."""
    if dt == Type.DOUBLEWORD:
        hi = np.atleast_1d(np.asarray(value[0], np.float32)).ravel()
        lo = np.atleast_1d(np.asarray(value[1], np.float32)).ravel()
        if op == "sum":
            return _dw_tree_sum(hi, lo)
        wide = hi.astype(np.float64) + lo.astype(np.float64)
        k = int(np.argmax(wide) if op == "max" else np.argmin(wide))
        return hi[k], lo[k]
    arr = np.atleast_1d(np.asarray(value)).ravel()
    if op == "sum":
        # Pairwise (numpy's default) keeps f32 partial sums well-behaved.
        return arr.sum(dtype=arr.dtype)
    return arr.max() if op == "max" else arr.min()


def _reduce_value_batched(value, dt: str, op: str, n: int, batch: int):
    """Per-RHS reduction of a ``(n, batch)`` tile value → length-``batch`` arrays.

    Each column goes through exactly the same :func:`_reduce_value` code as
    the single-RHS path — numpy's pairwise summation of a strided column
    view is bit-identical to the contiguous 1-D sum (the split points are
    index-based), whereas a single ``sum(axis=0)`` over the 2-D array is
    not.  This per-column loop is what makes every batched reduction
    bit-identical per RHS to its single-RHS counterpart.
    """
    if dt == Type.DOUBLEWORD:
        hi = np.broadcast_to(np.asarray(value[0], np.float32), (n, batch))
        lo = np.broadcast_to(np.asarray(value[1], np.float32), (n, batch))
        out_hi = np.empty(batch, np.float32)
        out_lo = np.empty(batch, np.float32)
        for j in range(batch):
            out_hi[j], out_lo[j] = _reduce_value((hi[:, j], lo[:, j]), dt, op)
        return out_hi, out_lo
    arr = np.asarray(value)
    full = np.broadcast_to(arr, (n, batch))
    out = np.empty(batch, arr.dtype)
    for j in range(batch):
        out[j] = _reduce_value(full[:, j], dt, op)
    return out


def partial_reduce_codelets(model, expr: Expr, out_var, workers: int, op: str = "sum"):
    """``codelet(tile_id)``: the per-tile partial reduction of ``expr`` into
    ``out_var``'s one-element shard (shared per compute set like
    :func:`elementwise_codelets`)."""
    dt = expr.dtype
    op_counts = expr.op_counts()
    spec = ReduceSpec(expr, out_var, op)
    evaluate = compile_expr(expr)
    vectors = [leaf.var for leaf in expr.leaves() if not leaf.var.is_scalar]

    def tile_size(tile_id: int) -> int:
        """Number of elements the expression produces on this tile."""
        return max([1] + [v.shard(tile_id).size for v in vectors])

    @cache
    def worker_cycles(n: int) -> tuple:
        # Elementwise evaluation fused with the local reduction tree.
        per_worker = worker_chunks(n, workers)
        costs = [
            model.elementwise_mixed(dt, op_counts, c) + model.reduce(dt, c) - model.vertex_overhead
            for c in per_worker
        ] or [model.vertex_overhead]
        # Worker 0 combines the per-worker partials.
        costs[0] += model.reduce(dt, len(per_worker)) - model.vertex_overhead
        return tuple(costs)

    def codelet(tile_id: int) -> Codelet:
        resolve = _tile_resolver(tile_id)

        def run(ctx):
            value = evaluate(resolve)
            sh = out_var.shards[tile_id]
            if out_var.batch > 1:
                result = _reduce_value_batched(value, dt, op, tile_size(tile_id), out_var.batch)
            else:
                result = _reduce_value(value, dt, op)
            if dt == Type.DOUBLEWORD:
                sh.data[0], sh.lo[0] = result
            else:
                sh.data[0] = result

        def cycles(ctx):
            return worker_cycles(tile_size(tile_id) * out_var.batch)

        return Codelet(f"reduce@{tile_id}", run, cycles, category="reduce", spec=spec)

    return codelet


def combine_codelet(model, gathered_var, out_var, tile_id: int, op: str = "sum") -> Codelet:
    """Combine gathered per-tile partials into the final scalar (on one tile)."""
    dt = gathered_var.dtype

    def run(ctx):
        g = gathered_var.shard(tile_id)
        o = out_var.shard(tile_id)
        value = (g.data, g.lo) if dt == Type.DOUBLEWORD else g.data
        if gathered_var.batch > 1:
            result = _reduce_value_batched(
                value, dt, op, gathered_var.size, gathered_var.batch
            )
        else:
            result = _reduce_value(value, dt, op)
        if dt == Type.DOUBLEWORD:
            o.data[0], o.lo[0] = result
        else:
            o.data[0] = result

    def cycles(ctx):
        return model.reduce(dt, gathered_var.size * gathered_var.batch)

    return Codelet(
        f"combine@{tile_id}",
        run,
        cycles,
        category="reduce",
        spec=ReduceSpec(Leaf(gathered_var), out_var, op),
    )


def batch_reduce_codelet(model, in_var, out_var, tile_id: int, op: str = "max") -> Codelet:
    """Collapse the trailing batch axis of a replicated batched scalar.

    ``out = max_j in[:, j]`` (or min) — tile-local on every replica, so the
    any-RHS-still-active loop condition costs no exchange.  max/min only:
    they are order-insensitive, which keeps sim and fused bit-identical.
    """
    if op not in ("max", "min"):
        raise ValueError(f"batch reduction supports max/min, got {op!r}")
    if in_var.dtype == Type.DOUBLEWORD:
        raise ValueError("batch reduction over dw scalars is not supported")

    def run(ctx):
        arr = in_var.shard(tile_id).data[0]
        out_var.shard(tile_id).data[0] = arr.max() if op == "max" else arr.min()

    def cycles(ctx):
        return model.reduce(in_var.dtype, in_var.batch)

    return Codelet(
        f"batchred@{tile_id}",
        run,
        cycles,
        category="reduce",
        spec=BatchReduceSpec(in_var, out_var, op),
    )
