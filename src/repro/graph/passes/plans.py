"""Plan building: lower a schedule into frozen per-step execution plans.

This is the final lowering stage of the graph compiler, run after the
optimization pipeline: every ``Execute`` and ``Exchange`` step in the
optimized schedule is compiled *once* into an immutable plan that any
runtime backend (:mod:`repro.graph.runtime`) can execute without
re-deriving structure on the hot path.

- :class:`ComputePlan` — per-tile vertex groupings with the LPT worker
  packing evaluated ahead of time.  Codelet cycle models are pure over
  their bindings (the :mod:`repro.graph.codelet` contract), so the packed
  makespans are identical to evaluating them during execution.
- :class:`ExchangePlan` — the per-copy Python loop of the old engine
  replaced by vectorized numpy gather/scatter ops (fancy-index arrays, or
  plain slices for single contiguous regions), plus the precomputed
  :class:`~repro.machine.fabric.Transfer` list and on-tile memcpy cost,
  priced by the device fabric once, on first use (``ExchangePlan.phase``).
  When region copies within one exchange overlap (a later copy reads or
  rewrites what an earlier one wrote), the plan falls back to strictly
  ordered per-copy execution so results stay bit-identical.  A hazard-free
  plan carries the exchange in *flat* form — one gather/scatter per
  (source buffer, destination buffer) pair over the variables' whole-device
  ``flat_data`` buffers — which is what the fused kernels replay; its
  per-shard-pair ``ops`` (thousands on a many-tile halo exchange) are built
  from the same elementary copies when ``sim`` or the injector first asks.

Plans hold direct references to shard arrays; the graph allocates shard
storage exactly once, so the references stay valid across host reads and
writes (which mutate the arrays in place).
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.graph.codelet import ComputeSet
from repro.graph.program import (
    Execute,
    Exchange,
    HostCallback,
    If,
    Repeat,
    RepeatWhile,
    Sequence,
    Step,
)
from repro.machine.fabric import ExchangePhase, Transfer

__all__ = [
    "TilePlan",
    "ComputePlan",
    "CopyOp",
    "ExchangePlan",
    "ExecutionPlans",
    "build_plans",
    "compute_set_category",
    "lpt_makespan",
]


def compute_set_category(cs: ComputeSet) -> str:
    """Profiler category of a compute set.

    An explicit ``ComputeSet(category=...)`` wins without scanning any
    vertex; otherwise the category is taken from the first vertex and the
    rest are only *checked* — a compute set mixing vertex categories is an
    error (attribution would silently follow whichever vertex happened to
    come first), fixed by setting the category on the set explicitly.
    """
    if cs.category is not None:
        return cs.category
    category = None
    for v in cs.vertices:
        c = v.codelet.category
        if category is None:
            category = c
        elif c != category:
            raise ValueError(
                f"compute set {cs.name!r} mixes vertex categories "
                f"{category!r} and {c!r}; pass ComputeSet(category=...) "
                "to attribute the phase explicitly"
            )
    return category or "elementwise"


def lpt_makespan(tasks, workers: int) -> int:
    """Makespan of ``tasks`` on a tile's worker threads (LPT packing)."""
    if len(tasks) <= workers:
        return max(tasks, default=0)
    heap = [0] * workers
    for t in sorted(tasks, reverse=True):
        heapq.heappush(heap, heapq.heappop(heap) + t)
    return max(heap)


@dataclass(frozen=True)
class TilePlan:
    """One tile's share of a compute phase: its makespan."""

    tile_id: int
    makespan: int  # LPT packing of this tile's worker tasks


@dataclass(frozen=True)
class ComputePlan:
    """Frozen execution plan of one ``Execute`` step."""

    name: str  # compute-set name (telemetry groups hot sets by this)
    category: str
    tiles: tuple  # of TilePlan, in first-seen tile order
    worst_tile: int  # max makespan over tiles (the BSP phase cost)
    #: The vertices to run, grouped by tile in ``tiles`` order (cost-only
    #: vertices left out): ``sim`` calls ``v.codelet.run(v.ctx)`` for each.
    vertices: tuple = field(default=(), repr=False, compare=False)


@dataclass(frozen=True)
class CopyOp:
    """One vectorized array-to-array copy: ``dst[dst_index] = src[src_index]``.

    Indices are slices (single contiguous region) or int64 fancy-index
    arrays (several regions between the same shard pair fused into one
    numpy op).  ``dst_lo``/``src_lo`` carry the double-word lo halves when
    both endpoints are paired.
    """

    src: np.ndarray
    dst: np.ndarray
    src_index: object
    dst_index: object
    src_lo: np.ndarray | None = None
    dst_lo: np.ndarray | None = None

    def apply(self) -> None:
        self.dst[self.dst_index] = self.src[self.src_index]
        if self.dst_lo is not None:
            self.dst_lo[self.dst_index] = self.src_lo[self.src_index]


@dataclass(frozen=True)
class ExchangePlan:
    """Frozen execution plan of one ``Exchange`` step."""

    name: str
    transfers: tuple  # of Transfer, for the fabric cost model
    local_cycles: int  # max over tiles of summed on-tile memcpy cost
    vectorized: bool  # False -> hazard detected, ops follow copy order
    #: The copies as CopyOps over ``Variable.flat_data`` / ``flat_lo``, one
    #: per (src buffer, dst buffer) pair — what the fused kernels replay.  A
    #: hazard plan has no flat form: ``flat is ops``.
    flat: tuple
    n_ops: int  # len(ops), known without building them
    copies: tuple = field(repr=False, compare=False)  # _copy_ops' (endpoints, table)
    fabric: object = field(default=None, repr=False, compare=False)  # prices ``phase``

    @cached_property
    def ops(self) -> tuple:
        """CopyOps over the shard arrays, one per shard pair — what ``sim``
        replays and the fault injector picks its targets from."""
        return _copy_ops(*self.copies, flat=False) if self.vectorized else self.flat

    @cached_property
    def phase(self) -> ExchangePhase:
        """The device fabric's cost breakdown of this exchange, priced on
        first use: the fabric is stateless and a plan's transfers are fixed,
        so every superstep replaying the plan costs exactly this (plus
        ``local_cycles``).  ``sim`` and the tracer read it; ``fused`` never
        prices."""
        return self.fabric.run(self.transfers)


class ExecutionPlans:
    """Per-step plan table of one compiled program (keyed by step identity).

    The compiled program keeps the schedule alive, so ``id(step)`` keys are
    stable for the artifact's lifetime.
    """

    __slots__ = ("_plans",)

    def __init__(self, plans: dict):
        self._plans = plans

    def plan_for(self, step: Step):
        return self._plans[id(step)]

    def __len__(self) -> int:
        return len(self._plans)

    def __contains__(self, step: Step) -> bool:
        return id(step) in self._plans


def _plan_compute_set(cs: ComputeSet, workers: int) -> ComputePlan:
    category = compute_set_category(cs)
    per_tile: dict[int, list] = {}
    for v in cs.vertices:
        per_tile.setdefault(v.tile_id, []).append(v)
    tiles = []
    for tile_id, vertices in per_tile.items():
        tasks = [cycles for v in vertices for cycles in v.worker_cycles()]
        tiles.append(TilePlan(tile_id, lpt_makespan(tasks, workers)))
    return ComputePlan(
        name=cs.name,
        category=category,
        tiles=tuple(tiles),
        worst_tile=max((tile.makespan for tile in tiles), default=0),
        vertices=tuple(
            v for vertices in per_tile.values() for v in vertices if not v.codelet.cost_only
        ),
    )


def _any_write_overlap(array, start, stop, is_write) -> bool:
    """True when a written range overlaps any other read or written range
    of the same array (``array`` holds one integer id per range; ranges of
    distinct arrays never interact).

    One sort instead of all pairs: ranges ordered by (array, start, stop)
    overlap an earlier range of their array exactly when they start before
    the furthest stop seen so far — over every earlier range for a write,
    over the earlier writes for a read.
    """
    if not len(array):
        return False
    order = np.lexsort((stop, start, array))
    start, stop, is_write = start[order], stop[order], is_write[order]
    # Shift every array's ranges into a band of its own so one running
    # maximum serves them all: an earlier array's stops stay below the band.
    band = np.cumsum(np.diff(array[order], prepend=array[order[0]]) != 0) * (stop.max() + 1)
    reach = np.maximum.accumulate(stop + band)
    write_reach = np.maximum.accumulate(np.where(is_write, stop + band, -1))
    before = np.where(is_write[1:], reach[:-1], write_reach[:-1])
    return bool((start[1:] + band[1:] < before).any())


def _plan_exchange(step: Exchange, fabric) -> ExchangePlan:
    # Elementary copies: one ``(src, dst, src row, dst row, size)`` table row
    # per destination of each RegionCopy, in program order; ``src`` / ``dst``
    # number the distinct ``(variable, tile)`` shards touched.
    endpoints: dict = {}
    rows = []
    local_per_tile: dict[int, int] = defaultdict(int)
    transfers = []
    for rc in step.copies:
        src = endpoints.setdefault((rc.src_var, rc.src_tile), len(endpoints))
        remote_dests = []
        for dst_var, dst_tile, dst_offset in rc.dests:
            dst = endpoints.setdefault((dst_var, dst_tile), len(endpoints))
            rows.append((src, dst, rc.src_offset, dst_offset, rc.size))
            if dst_tile != rc.src_tile:
                remote_dests.append(dst_tile)
            else:
                # On-tile memcpy: 8 bytes per cycle through the st64 path;
                # copies landing on one tile serialize (summed per tile).
                # unit_bytes folds in the batch axis: a batched element's
                # RHS columns are contiguous and move together.
                cost = (rc.size * rc.src_var.unit_bytes() + 7) // 8
                local_per_tile[dst_tile] += cost
        if remote_dests:
            nbytes = rc.size * rc.src_var.unit_bytes()
            transfers.append(Transfer(rc.src_tile, tuple(remote_dests), nbytes))

    table = np.array(rows, dtype=np.int64).reshape(-1, 5)
    src, dst, src_row, dst_row, size = table.T
    # (A copy's source is read once however many destinations it has;
    # counting the read per destination changes no overlap.)
    start = np.concatenate([src_row, dst_row])
    vectorized = not _any_write_overlap(
        np.concatenate([src, dst]), start, start + np.tile(size, 2),
        np.repeat([False, True], len(rows)),
    )
    # Hazard-free: all copies between each pair of buffers fuse into one
    # numpy op (their order cannot be observed) — per whole-device buffer
    # pair here, per shard pair in ``ExchangePlan.ops``.  Overlapping
    # regions keep strict program order, one op per copy.
    copies = (list(endpoints), table)
    return ExchangePlan(
        name=step.name,
        transfers=tuple(transfers),
        local_cycles=max(local_per_tile.values(), default=0),
        vectorized=vectorized,
        flat=_copy_ops(*copies, flat=vectorized, fuse=vectorized),
        n_ops=len(np.unique(src * len(endpoints) + dst)) if vectorized else len(rows),
        copies=copies,
        fabric=fabric,
    )


def _flat_rows(var, tile_id: int, buffers: dict) -> tuple:
    """``((hi, lo), base)``: the whole-device buffers of ``var`` indexed by
    global row on axis 0, and the row at which ``tile_id``'s shard starts.

    A distributed variable's ``flat_data`` already is that buffer; a
    replicated one stores a row per replica, so its buffer is the
    ``reshape(-1[, batch])`` view and replica ``r`` starts at ``r * size``.
    ``buffers`` keeps one view per variable so copies group by identity.
    """
    if not var.replicated:
        return (var.flat_data, var.flat_lo), var.shards[tile_id].interval.start
    pair = buffers.get(id(var))
    if pair is None:
        shape = (-1,) if var.batch == 1 else (-1, var.batch)
        lo = var.flat_lo.reshape(shape) if var.paired else None
        pair = buffers[id(var)] = (var.flat_data.reshape(shape), lo)
    return pair, var.replica_rows[tile_id] * var.size


def _copy_ops(endpoints, table, flat: bool, fuse: bool = True) -> tuple:
    """The CopyOps of an exchange's elementary copies.

    ``flat`` addresses the variables' whole-device buffers (global row =
    shard base + offset), else each endpoint's own shard arrays.  ``fuse``
    merges all copies between one pair of arrays into one op — ops in order
    of first appearance, each op's segments laid out in destination order,
    so an exchange that fills a whole buffer range scatters through a plain
    slice; without it every copy stays its own op, in program order.
    """
    if not len(table):
        return ()
    src, dst, src_row, dst_row, size = table.T
    if flat:
        buffers: dict = {}
        located = [_flat_rows(var, tile, buffers) for var, tile in endpoints]
        arrays = [pair for pair, _ in located]
        base = np.array([row for _, row in located], dtype=np.int64)
        src_row, dst_row = src_row + base[src], dst_row + base[dst]
        ids: dict = {}
        array_id = np.array([ids.setdefault(id(hi), len(ids)) for hi, _ in arrays])
    else:
        arrays = [(var.shards[tile].data, var.shards[tile].lo) for var, tile in endpoints]
        array_id = np.arange(len(arrays))
    pair = array_id[src] * len(arrays) + array_id[dst] if fuse else np.arange(len(table))
    _, first, op_of = np.unique(pair, return_index=True, return_inverse=True)
    op_of = np.argsort(np.argsort(first))[op_of]  # ops numbered by first appearance
    order = np.lexsort((dst_row, op_of))  # stable: equal rows keep program order
    size = size[order]
    stop = np.cumsum(size)
    cuts = np.concatenate([[0], np.cumsum(np.bincount(op_of))])  # op -> its copies
    spans = np.concatenate([[0], stop])[cuts]  # op -> its rows of the index runs
    sides = []
    for row in (src_row[order], dst_row[order]):
        # One index run over the whole exchange, cut per op below; an op whose
        # segments abut into a single range takes the slice instead.
        run = np.repeat(row - (stop - size), size) + np.arange(stop[-1])
        gaps = np.concatenate([[0], np.cumsum(row[1:] != row[:-1] + size[:-1])])
        sides.append((row, run, gaps[cuts[1:] - 1] == gaps[cuts[:-1]]))
    ops = []
    for op, k in enumerate(np.sort(first).tolist()):
        (hi, lo), (dst_hi, dst_lo) = arrays[src[k]], arrays[dst[k]]
        a, b = cuts[op], cuts[op + 1] - 1
        src_index, dst_index = (
            slice(int(row[a]), int(row[b] + size[b])) if abut[op]
            else run[spans[op] : spans[op + 1]]
            for row, run, abut in sides
        )
        # The lo halves move when both endpoints are double-word.
        paired = lo is not None and dst_lo is not None
        ops.append(CopyOp(hi, dst_hi, src_index, dst_index,
                          lo if paired else None, dst_lo if paired else None))
    return tuple(ops)


def build_plans(root: Step, device) -> ExecutionPlans:
    """Walk the schedule and compile a plan for every leaf step.

    Shared subtrees (loop bodies reused across loops, compute sets behind
    several ``Execute`` steps) are planned once; unknown step types are
    rejected here, at compile time, instead of mid-execution.
    """
    workers = device.spec.workers_per_tile
    plans: dict = {}
    cs_cache: dict = {}
    seen: set = set()

    def walk(step: Step) -> None:
        if id(step) in seen:
            return
        seen.add(id(step))
        if isinstance(step, Sequence):
            for s in step.steps:
                walk(s)
        elif isinstance(step, Execute):
            key = id(step.compute_set)
            if key not in cs_cache:
                cs_cache[key] = _plan_compute_set(step.compute_set, workers)
            plans[id(step)] = cs_cache[key]
        elif isinstance(step, Exchange):
            plans[id(step)] = _plan_exchange(step, device.fabric)
        elif isinstance(step, (Repeat, RepeatWhile)):
            walk(step.body)
        elif isinstance(step, If):
            walk(step.then_body)
            if step.else_body is not None:
                walk(step.else_body)
        elif isinstance(step, HostCallback):
            pass
        else:
            raise TypeError(f"unknown program step: {step!r}")

    walk(root)
    return ExecutionPlans(plans)
