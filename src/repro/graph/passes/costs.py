"""One cost record per plan: what a step costs each time it runs.

The IPU is cycle-deterministic BSP, so a step's cost is a constant of its
frozen plan (:mod:`repro.graph.passes.plans`): a :class:`Cost`, computed
on the first read of ``ComputePlan.cost`` / ``ExchangePlan.cost`` — never
at build, so a ``fused`` solve no cycle clock or wall tracer observes
prices nothing — and folded per kernel by ``FusedKernel.cost``.  It holds
the profiler key and the cycles one run charges (a compute set's sync
plus its worst tile's LPT worker makespan; an exchange's fabric phase
plus its on-tile copies), the breakdown the cycle tracer shows, and a
static traffic and arithmetic estimate (``est_bytes`` / ``est_flops``)
that the wall-clock profiler divides measured time by, for per-kernel
GB/s and GFLOP/s — the roofline attribution of the Citadel IPU
microbenchmarks.  The estimate reads the declarative specs the kernel
lowerer pattern-matches on: an elementwise or reduce group's per-element
op mix (:meth:`~repro.tensordsl.expression.Expr.op_counts`) times its
shard elements, each distinct leaf read once plus the output written; an
SpMV's 2·nnz (plus the diagonal) in working precision only; one op per
(tile, RHS column) of a batch reduce; the bytes an exchange's flat copy
ops write.  A group without a known spec — a sweep, a codelet — counts
zero, and estimation never breaks execution.
"""

from __future__ import annotations

import functools
import heapq
from dataclasses import dataclass, field

import numpy as np

from repro.graph.codelet import BatchReduceSpec, ElementwiseSpec, ReduceSpec, SpmvSpec
from repro.graph.program import DST_TILE, SIZE, SRC_TILE, SRC_VAR
from repro.machine.fabric import ExchangePhase

__all__ = ["Cost", "copy_bytes", "estimate_group", "lpt_makespan", "price_compute",
           "price_exchange"]

_NO_TILES = np.zeros(0, dtype=np.int64)


@dataclass(frozen=True, eq=False)
class Cost:
    """What one run of a plan's step costs, computed once per plan."""

    key: str  # profiler key: the compute set's category, or the exchange's name
    cycles: int  # compute: sync + worst_tile; exchange: phase.cycles + local_cycles
    est_bytes: int = 0
    est_flops: int = 0
    # A compute set's breakdown: the superstep's sync, then its tiles.
    sync: int = 0
    worst_tile: int = 0  # max makespan over tiles (the BSP phase cost)
    tile_ids: np.ndarray = field(default_factory=lambda: _NO_TILES, repr=False)  # first seen
    makespans: np.ndarray = field(default_factory=lambda: _NO_TILES, repr=False)  # LPT, per tile
    # An exchange's breakdown: the fabric's price and the on-tile memcpy.
    phase: ExchangePhase = ExchangePhase()
    local_cycles: int = 0  # max over tiles of summed on-tile memcpy cost


def lpt_makespan(tasks, workers: int) -> int:
    """Makespan of ``tasks`` on a tile's worker threads (LPT packing)."""
    if len(tasks) <= workers:
        return max(tasks, default=0)
    heap = [0] * workers
    for t in sorted(tasks, reverse=True):
        heapq.heappush(heap, heapq.heappop(heap) + t)
    return max(heap)


def _pack(cs, workers: int) -> tuple:
    """``(tile_ids, makespans)`` of a compute set: the tiles with vertices in
    first-seen order, and each tile's worker tasks packed LPT.  Codelet cycle
    models are pure over their bindings (the :mod:`repro.graph.codelet`
    contract), so these are the makespans a run would see."""
    # A compute set's tiles share a handful of distinct task tuples.
    makespan = functools.cache(lambda tasks: lpt_makespan(tasks, workers))
    tile_ids = cs.tile_ids
    costs = [g.costs() for g in cs.groups]
    ordered = np.sort(tile_ids)
    if not (ordered[1:] == ordered[:-1]).any():
        # One vertex per tile (every producer's group): the tile's makespan
        # packs its vertex's worker tasks, priced once per distinct tasks.
        parts = [np.array([makespan(t) for t in tasks], dtype=np.int64)[index]
                 for tasks, index in costs]
        return tile_ids, np.concatenate(parts) if parts else _NO_TILES
    per_tile: dict = {}
    for g, (tasks, index) in zip(cs.groups, costs):
        for t, k in zip(g.tiles.tolist(), index.tolist()):
            per_tile.setdefault(t, []).extend(tasks[k])
    tile_ids = np.fromiter(per_tile, dtype=np.int64, count=len(per_tile))
    return tile_ids, np.array([lpt_makespan(tasks, workers) for tasks in per_tile.values()],
                              dtype=np.int64)


def price_compute(plan) -> Cost:
    """The record of a ``ComputePlan``: its compute set on its device's
    cycle model, with the lowered (non cost-only) groups' estimates."""
    model = plan.model
    tile_ids, makespans = _pack(plan.compute_set, model.spec.workers_per_tile)
    worst = int(makespans.max(initial=0))
    sync = model.sync()
    est = [estimate_group(g) for g in plan.compute_set.groups if not g.cost_only]
    return Cost(plan.category, sync + worst, sum(b for b, _ in est), sum(f for _, f in est),
                sync, worst, tile_ids, makespans)


def price_exchange(plan) -> Cost:
    """The record of an ``ExchangePlan``: the fabric's price of its
    transfers, plus the on-tile memcpy — 8 bytes per cycle through the st64
    path, copies landing on one tile serialized (summed per tile).
    ``unit_bytes`` folds in the batch axis: a batched element's RHS columns
    are contiguous and move together."""
    step = plan.exchange
    t = step.table
    unit = np.array([var.unit_bytes() for var in step.variables], dtype=np.int64)
    local = t[t[:, DST_TILE] == t[:, SRC_TILE]]
    memcpy = (local[:, SIZE] * unit[local[:, SRC_VAR]] + 7) // 8
    local_cycles = int(np.bincount(local[:, DST_TILE], weights=memcpy).max()) if len(local) else 0
    phase = plan.fabric.run(plan.transfers)
    return Cost(plan.name, phase.cycles + local_cycles, copy_bytes(plan.flat),
                phase=phase, local_cycles=local_cycles)


# -- byte / flop estimates ---------------------------------------------------------------


def _elements(var, tiles) -> int:
    """Logical elements of ``var`` sharded over the given tiles."""
    return int(var.sizes_on(tiles, missing=0).sum())


def _leaf_read_bytes(expr, tiles) -> int:
    """Bytes read: each distinct leaf variable counted once over ``tiles``."""
    seen = {id(leaf.var): leaf.var for leaf in expr.leaves()}
    return sum(_elements(var, tiles) * var.unit_bytes() for var in seen.values())


def _elementwise_costs(spec: ElementwiseSpec, tiles) -> tuple:
    out = spec.out_var
    n = _elements(out, tiles)
    batch = max(out.batch, spec.expr.batch, 1)
    flops = sum(spec.expr.op_counts().values()) * n * batch
    bytes_ = _leaf_read_bytes(spec.expr, tiles) + n * out.unit_bytes()
    return bytes_, flops


def _reduce_costs(spec: ReduceSpec, tiles) -> tuple:
    out = spec.out_var
    batch = max(spec.expr.batch, 1)
    # The reduced value has the footprint of the largest leaf shard *on each
    # tile* — summed over the group's tiles, not the largest leaf total (a
    # scalar leaf outweighs an absent vector leaf on its own tile only).
    sizes = [leaf.var.sizes_on(tiles, missing=0) for leaf in spec.expr.leaves()]
    n = int(np.maximum.reduce(sizes).sum()) if sizes else 0
    flops = (sum(spec.expr.op_counts().values()) + 1) * n * batch  # eval + one reduce/elem
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
    if xvar.dtype != "float32" or yvar.dtype != "float32":
        return 0, 0  # the counts below are float32's: an extended SpMV is not estimated
    batch = max(xvar.batch, 1)
    at = np.searchsorted(m.tiles, tiles)  # the tiles' row ranges in m's layout
    first, last = m._tile_rows[at], m._tile_rows[at + 1]
    nnz = int((m._row_ptr[last] - m._row_ptr[first]).sum())
    rows = int((last - first).sum())
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
}


def estimate_group(g) -> tuple:
    """``(est_bytes, est_flops)`` of one vertex group — a whole-device unit,
    priced once over all its tiles; ``(0, 0)`` for a group without a known
    spec (a sweep's among them), or one that cannot be priced."""
    costs = _COSTS.get(type(g.spec))
    if costs is None:
        return 0, 0
    try:
        return costs(g.spec, g.tiles)
    except Exception:
        return 0, 0


def copy_bytes(flat) -> int:
    """Bytes written by an exchange's flat copy ops (local + fabric), which
    move the same rows as its per-shard ``ops`` without forcing them into
    existence."""
    total = 0
    for op in flat:
        index = op.dst_index
        n = len(range(*index.indices(op.dst.shape[0]))) if isinstance(index, slice) else len(index)
        row = int(np.prod(op.dst.shape[1:], dtype=np.int64)) * op.dst.dtype.itemsize
        total += n * row * (2 if op.dst_lo is not None else 1)
    return total
