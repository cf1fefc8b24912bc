"""Byte / FLOP cost estimation for kernels and dispatch steps.

The wall-clock profiler (:mod:`repro.telemetry.walltrace`) tags every
fused-kernel launch and per-step dispatch with an *estimated* traffic and
arithmetic count, so measured wall time can be read as GB/s and GFLOP/s —
the per-kernel roofline attribution the Citadel IPU microbenchmarking
methodology builds on.  The estimates are derived from the same declarative
metadata the kernel lowerer pattern-matches on:

- ``ElementwiseSpec`` / ``ReduceSpec`` — the expression's per-element
  arithmetic mix (:meth:`~repro.tensordsl.expression.Expr.op_counts`) times
  the participating shard elements; traffic counts each distinct leaf
  variable read once plus the output write (no cache model).
- ``SpmvSpec`` — the textbook 2·nnz FLOPs (plus the diagonal
  multiply-add), with traffic from the CRS arrays, gathered ``x`` and
  written ``y``.
- ``BatchReduceSpec`` — one op per (tile, RHS column) pair.
- Exchange steps — bytes written by the plan's vectorized copy ops (halo
  and reduction traffic, double-word lo halves included).

Estimates are *static*: a step always reports the same numbers regardless
of how often it runs, and a codelet without a spec contributes zero (the
profiler still measures its wall time — only the roofline columns read
blank).  Estimation must never break execution, so every path degrades to
``(0, 0)`` instead of raising.
"""

from __future__ import annotations

import numpy as np

from repro.graph.codelet import (
    BatchReduceSpec,
    ElementwiseSpec,
    ReduceSpec,
    SpmvSpec,
    SweepSpec,
)

__all__ = ["spec_groups", "estimate_groups", "estimate_compute_set", "estimate_exchange"]


def _elements(var, tiles) -> int:
    """Logical elements of ``var`` sharded over the given tiles."""
    shards = getattr(var, "shards", None)
    if not shards:
        return 0
    return sum(shards[t].size for t in tiles if t in shards)


def _leaf_read_bytes(expr, tiles) -> int:
    """Bytes read: each distinct leaf variable counted once over ``tiles``."""
    seen: dict = {}
    for leaf in expr.leaves():
        seen.setdefault(id(leaf.var), leaf.var)
    return sum(_elements(var, tiles) * var.unit_bytes() for var in seen.values())


def _expr_flops(expr) -> int:
    return sum(expr.op_counts().values())


def _elementwise_costs(spec: ElementwiseSpec, tiles) -> tuple:
    out = spec.out_var
    n = _elements(out, tiles)
    batch = max(out.batch, spec.expr.batch, 1)
    flops = _expr_flops(spec.expr) * n * batch
    bytes_ = _leaf_read_bytes(spec.expr, tiles) + n * out.unit_bytes()
    return bytes_, flops


def _reduce_costs(spec: ReduceSpec, tiles) -> tuple:
    out = spec.out_var
    batch = max(spec.expr.batch, 1)
    # The reduced value has the footprint of the largest leaf shard *on each
    # tile* — summed over the group's tiles, not the largest leaf total (a
    # scalar leaf outweighs an absent vector leaf on its own tile only).
    shards = [getattr(leaf.var, "shards", None) or {} for leaf in spec.expr.leaves()]
    n = sum(max((s[t].size for s in shards if t in s), default=0) for t in tiles)
    flops = (_expr_flops(spec.expr) + 1) * n * batch  # eval + one reduce op/elem
    bytes_ = _leaf_read_bytes(spec.expr, tiles) + len(tiles) * out.unit_bytes()
    return bytes_, flops


def _batch_reduce_costs(spec: BatchReduceSpec, tiles) -> tuple:
    batch = max(spec.in_var.batch, 1)
    n = len(tiles)
    flops = n * batch
    bytes_ = n * (spec.in_var.unit_bytes() + spec.out_var.unit_bytes())
    return bytes_, flops


def _spmv_costs(spec: SpmvSpec, tiles) -> tuple:
    m = spec.matrix
    xvar = spec.x.owned.var
    yvar = spec.y.owned.var
    batch = max(xvar.batch, 1)
    nnz = 0
    rows = 0
    for t in tiles:
        local = m.local[t]
        nnz += int(local["row_ptr"][-1])
        rows += int(local["n"])
    # Off-diagonal multiply-add per stored entry, plus the fused diagonal
    # multiply-add per row, for every RHS column.
    flops = batch * 2 * (nnz + rows)
    bytes_ = nnz * (4 + 8 + xvar.unit_bytes()) + rows * (
        4 + xvar.unit_bytes() + yvar.unit_bytes()
    )
    return bytes_, flops


_COSTS = {
    ElementwiseSpec: _elementwise_costs,
    ReduceSpec: _reduce_costs,
    BatchReduceSpec: _batch_reduce_costs,
    SpmvSpec: _spmv_costs,
    SweepSpec: lambda spec, tiles: (0, 0),  # no estimate: roofline columns read blank
}


def spec_key(spec):
    """What a spec'd vertex computes, its tile aside: the spec's type and
    the identity of what it names.  The vertices of a compute set that
    share a key are one whole-device group — the unit the kernel lowerer
    vectorizes and the unit priced here.  Sweep vertices share their spec
    object; ``None`` for a codelet without a (known) spec."""
    if type(spec) not in _COSTS:
        return None
    if isinstance(spec, SweepSpec):
        return SweepSpec, id(spec)
    return (type(spec), *(v if isinstance(v, str) else id(v) for v in vars(spec).values()))


def estimate_groups(groups: dict) -> tuple:
    """``(est_bytes, est_flops)`` summed over ``{spec_key: (spec, vertices)}``
    — each group priced once over all its tiles; a group that cannot be
    priced counts ``(0, 0)``."""
    total_b = total_f = 0
    for (kind, *_), (spec, vertices) in groups.items():
        try:
            b, f = _COSTS[kind](spec, [v.tile_id for v in vertices])
        except Exception:
            continue
        total_b += b
        total_f += f
    return total_b, total_f


def spec_groups(vertices) -> tuple:
    """``({spec_key: (spec, vertices)}, [vertices without a known spec])``."""
    groups: dict = {}
    rest: list = []
    for v in vertices:
        key = spec_key(v.codelet.spec)
        if key is None:
            rest.append(v)
        else:
            groups.setdefault(key, (v.codelet.spec, []))[1].append(v)
    return groups, rest


def estimate_compute_set(cs) -> tuple:
    """``(est_bytes, est_flops)`` of one compute set (spec'd vertices only)."""
    return estimate_groups(spec_groups(cs.vertices)[0])


def _index_len(index, size: int) -> int:
    if isinstance(index, slice):
        return len(range(*index.indices(size)))
    return len(index)


def estimate_exchange(plan) -> int:
    """Bytes written by one exchange plan's copy ops (local + fabric) —
    read off the flat form, which moves the same rows as the per-shard
    ``ops`` without forcing them into existence."""
    total = 0
    try:
        for op in plan.flat:
            n = _index_len(op.dst_index, op.dst.shape[0])
            row = int(np.prod(op.dst.shape[1:], dtype=np.int64)) * op.dst.dtype.itemsize
            total += n * row * (2 if op.dst_lo is not None else 1)
    except Exception:
        return total
    return total
