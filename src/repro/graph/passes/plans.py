"""Plan building: lower a schedule into frozen per-step execution plans.

This is the final lowering stage of the graph compiler, run after the
optimization pipeline: every ``Execute`` and ``Exchange`` step in the
optimized schedule is compiled *once* into an immutable plan that any
runtime backend (:mod:`repro.graph.runtime`) can execute without
re-deriving structure on the hot path.

- :class:`ComputePlan` — per-tile LPT worker packings evaluated ahead of
  time, as an array of makespans read off the compute set's vertex groups.
  Codelet cycle models are pure over their bindings (the
  :mod:`repro.graph.codelet` contract), so the packed makespans are
  identical to evaluating them during execution.  The vertices themselves
  exist only once a stepped ``sim`` run asks (``ComputePlan.vertices``).
- :class:`ExchangePlan` — the exchange's copy table lowered to vectorized
  numpy gather/scatter ops (fancy-index arrays, or plain slices for single
  contiguous regions), plus the on-tile memcpy cost; the fabric's
  :class:`~repro.machine.fabric.Transfer` list and its price are built on
  first use (``ExchangePlan.transfers`` / ``.phase``).
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

import functools
import heapq
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.graph.codelet import ComputeSet
from repro.graph.program import (
    COPY,
    DST_OFFSET,
    DST_TILE,
    DST_VAR,
    SIZE,
    SRC_OFFSET,
    SRC_TILE,
    SRC_VAR,
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
    group; otherwise the category is taken from the first vertex group and
    the rest are only *checked* — a compute set mixing vertex categories is
    an error (attribution would silently follow whichever vertex happened
    to come first), fixed by setting the category on the set explicitly.
    """
    if cs.category is not None:
        return cs.category
    category = None
    for g in cs.groups:
        if category is None:
            category = g.category
        elif g.category != category:
            raise ValueError(
                f"compute set {cs.name!r} mixes vertex categories "
                f"{category!r} and {g.category!r}; pass ComputeSet(category=...) "
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


@dataclass(frozen=True, eq=False)
class ComputePlan:
    """Frozen execution plan of one ``Execute`` step."""

    name: str  # compute-set name (telemetry groups hot sets by this)
    category: str
    tile_ids: np.ndarray  # the tiles with vertices, in first-seen order
    makespans: np.ndarray  # per tile: LPT packing of its worker tasks
    worst_tile: int  # max makespan over tiles (the BSP phase cost)
    compute_set: ComputeSet | None = field(default=None, repr=False)

    @cached_property
    def vertices(self) -> tuple:
        """The vertices to run, grouped by tile in ``tile_ids`` order
        (cost-only vertices left out): a stepped ``sim`` calls
        ``v.codelet.run(v.ctx)`` for each.  Built on first use."""
        by_tile: dict = {}
        for v in self.compute_set.vertices:
            if not v.codelet.cost_only:
                by_tile.setdefault(v.tile_id, []).append(v)
        return tuple(v for t in self.tile_ids.tolist() for v in by_tile.get(t, ()))


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

    def bind(self):
        """:meth:`apply` as native entries (``repro_copy_f32``), one per half,
        when every array is C-contiguous 1-D float32 — a
        :class:`repro.solvers.native.Chain` of two for a double-word copy —
        else :meth:`apply` itself.  The indices are checked once, here: the
        native call trusts them."""
        from repro.solvers import native  # the package's one C library and its loader

        halves = [(self.src, self.dst)]
        if self.dst_lo is not None:
            halves.append((self.src_lo, self.dst_lo))
        try:
            calls = [_copy_args(src, self.src_index, dst, self.dst_index) for src, dst in halves]
        except (TypeError, ValueError):
            return self.apply
        entries = [native.Entry(native.COPY, args, (src, dst, keep),
                                _numpy_copy(src, self.src_index, dst, self.dst_index),
                                native_copy)
                   for (src, dst), (args, keep) in zip(halves, calls)]
        return entries[0] if len(entries) == 1 else native.Chain(entries)


def _numpy_copy(src, src_index, dst, dst_index):
    """One half of :meth:`CopyOp.apply`."""

    def copy():
        dst[dst_index] = src[src_index]

    return copy


def _copy_args(src, src_index, dst, dst_index) -> tuple:
    """``(args, indices)`` of the ``repro_copy_f32`` call doing
    ``dst[dst_index] = src[src_index]``: a slice becomes a base address and
    no index.  ``TypeError`` / ``ValueError`` when the arrays are not
    C-contiguous 1-D float32, an index is out of range or the two sides
    differ in length, or one side writes an element the other reads (numpy
    reads every source element before it writes; the C loop interleaves)."""
    sides = []  # (base address, index array or None, elements, first and last byte)
    for array, index in ((src, src_index), (dst, dst_index)):
        if not (isinstance(array, np.ndarray) and array.dtype == np.float32
                and array.ndim == 1 and array.flags.c_contiguous):
            raise TypeError("a native copy runs on C-contiguous 1-D float32 arrays")
        base = array.ctypes.data
        if isinstance(index, slice):
            start, stop, step = index.indices(array.size)
            if step != 1:
                raise ValueError("a native copy takes contiguous slices")
            first, last = start, stop - 1
            sides.append((base + 4 * start, None, range(start, stop)))
        else:
            index = np.ascontiguousarray(index)
            if index.dtype != np.int64 or index.ndim != 1:
                raise ValueError("a native copy takes int64 indices")
            first, last = (int(index.min()), int(index.max())) if index.size else (0, -1)
            if first < 0 or last >= array.size:
                raise ValueError("a native copy takes in-range indices")
            sides.append((base, index, index))
        sides[-1] += (base + 4 * first, base + 4 * last)
    (src_at, src_idx, read, r0, r1), (dst_at, dst_idx, written, w0, w1) = sides
    if len(read) != len(written) or not dst.flags.writeable:
        raise ValueError("a native copy moves as many elements as it writes")
    if r0 <= w1 and w0 <= r1 and np.intersect1d(  # the byte ranges meet: compare elements
            src.ctypes.data + 4 * np.asarray(read), dst.ctypes.data + 4 * np.asarray(written)).size:
        raise ValueError("a native copy never reads an element it writes")
    args = (len(read), src_at, None if src_idx is None else src_idx.ctypes.data,
            dst_at, None if dst_idx is None else dst_idx.ctypes.data)
    return args, (src_idx, dst_idx)


def _copy_self_check(run) -> str | None:
    """Compare copy entries run by ``run`` (``repro_run``) with
    :meth:`CopyOp.apply` bit for bit on a fixed case — a gather into a
    slice, a scatter from one, both sides indexed (a repeated source element
    among them), a slice to a slice, and NaN payloads, signed zeros and
    subnormals that a copy must move untouched; ``None`` when they agree,
    else what differed."""
    from repro.solvers import native  # the package's one C library and its loader

    rng = np.random.default_rng(41)
    src = rng.standard_normal(64).astype(np.float32)
    src.view(np.uint32)[:4] = [0x7FC00001, 0xFFA00000, 0x80000000, 0x00000003]
    gather, scatter = rng.permutation(64)[:40], rng.permutation(50)[:40]
    for k, (si, di) in enumerate(((gather, slice(5, 45)), (slice(10, 50), scatter),
                                  (np.r_[gather[:39], 0], scatter), (slice(0, 40), slice(3, 43)))):
        op = CopyOp(src, np.zeros(50, dtype=np.float32), si, di)
        want = op.dst.copy()
        want[di] = src[si]
        args, keep = _copy_args(op.src, si, op.dst, di)  # keep owns the indices
        native.Table([native.Entry(native.COPY, args, keep, None, None)], run)()
        differ = np.flatnonzero(op.dst.view(np.uint32) != want.view(np.uint32))
        if differ.size:
            i = int(differ[0])
            return f"self-check: element {i} of copy {k} is {op.dst[i]!r}, numpy {want[i]!r}"
    return None


@functools.cache
def native_copy():
    """The runner for copy entries (``repro_copy_f32``), resolved on the
    first bound :class:`CopyOp` run or table fold: ``None`` — with one
    ``RuntimeWarning`` saying why — when the library does not build or
    load, or disagrees with numpy on the self-check; the copies then run
    as numpy indexing."""
    from repro.solvers import native  # the package's one C library and its loader

    return native.kernel(_copy_self_check, "indexed copy", "numpy indexing")


@dataclass(frozen=True, eq=False)
class ExchangePlan:
    """Frozen execution plan of one ``Exchange`` step."""

    name: str
    local_cycles: int  # max over tiles of summed on-tile memcpy cost
    vectorized: bool  # False -> hazard detected, ops follow copy order
    #: The copies as CopyOps over ``Variable.flat_data`` / ``flat_lo``, one
    #: per (src buffer, dst buffer) pair — what the fused kernels replay.  A
    #: hazard plan has no flat form: ``flat is ops``.
    flat: tuple
    n_ops: int  # len(ops), known without building them
    copies: tuple = field(repr=False)  # _copy_ops' (endpoints, table)
    fabric: object = field(default=None, repr=False)  # prices ``phase``
    exchange: object = field(default=None, repr=False)  # the step: its copy table

    @cached_property
    def ops(self) -> tuple:
        """CopyOps over the shard arrays, one per shard pair — what ``sim``
        replays and the fault injector picks its targets from."""
        return _copy_ops(*self.copies, flat=False) if self.vectorized else self.flat

    @cached_property
    def transfers(self) -> tuple:
        """One fabric :class:`Transfer` per copy with a remote destination,
        in copy order, to those destinations — what :attr:`phase` prices,
        built on first use like it."""
        step = self.exchange
        rows = step.table[step.table[:, DST_TILE] != step.table[:, SRC_TILE]]
        if not len(rows):
            return ()
        unit = np.array([var.unit_bytes() for var in step.variables], dtype=np.int64)
        first = np.flatnonzero(np.diff(rows[:, COPY], prepend=-1))
        bounds = first.tolist() + [len(rows)]
        dst = rows[:, DST_TILE].tolist()
        src = rows[first, SRC_TILE].tolist()
        nbytes = (rows[first, SIZE] * unit[rows[first, SRC_VAR]]).tolist()
        return tuple(
            Transfer(src[k], tuple(dst[bounds[k] : bounds[k + 1]]), nbytes[k])
            for k in range(len(first))
        )

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


def _distinct(values: np.ndarray) -> int:
    """How many distinct values ``values`` holds (a sort: cheaper than
    ``np.unique``'s hashing on these sizes)."""
    ordered = np.sort(values)
    return int(np.count_nonzero(ordered[1:] != ordered[:-1])) + bool(len(ordered))


def _plan_compute_set(cs: ComputeSet, workers: int) -> ComputePlan:
    category = compute_set_category(cs)
    tile_ids = cs.tile_ids
    if _distinct(tile_ids) == len(tile_ids):
        # One vertex per tile (every producer's group): the tile's makespan
        # packs its group's worker tasks, which a group repeats per shard size.
        packed: dict = {}
        makespans = []
        for g in cs.groups:
            for t in g.tiles.tolist():
                tasks = g.cycles(t)
                if tasks not in packed:
                    packed[tasks] = lpt_makespan(tasks, workers)
                makespans.append(packed[tasks])
    else:
        per_tile: dict = {}
        for g in cs.groups:
            for t in g.tiles.tolist():
                per_tile.setdefault(t, []).extend(g.cycles(t))
        tile_ids = np.fromiter(per_tile, dtype=np.int64, count=len(per_tile))
        makespans = [lpt_makespan(tasks, workers) for tasks in per_tile.values()]
    makespans = np.array(makespans, dtype=np.int64)
    return ComputePlan(
        name=cs.name,
        category=category,
        tile_ids=tile_ids,
        makespans=makespans,
        worst_tile=int(makespans.max(initial=0)),
        compute_set=cs,
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
    # Elementary copies: the step's rows as ``(src, dst, src row, dst row,
    # size)``, where ``src`` / ``dst`` number the distinct ``(variable,
    # tile)`` shards touched in order of first appearance.
    t = step.table
    n = len(t)
    tiles = int(t[:, [SRC_TILE, DST_TILE]].max()) + 1 if n else 1
    shard = np.empty(2 * n, dtype=np.int64)  # src, dst of row 0, then of row 1, ...
    shard[0::2] = t[:, SRC_VAR] * tiles + t[:, SRC_TILE]
    shard[1::2] = t[:, DST_VAR] * tiles + t[:, DST_TILE]
    keys, first, inverse = np.unique(shard, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty(len(keys), dtype=np.int64)
    rank[order] = np.arange(len(keys))
    endpoint = rank[inverse]
    src, dst = endpoint[0::2], endpoint[1::2]
    endpoints = [(step.variables[k // tiles], k % tiles) for k in keys[order].tolist()]
    table = np.stack([src, dst, t[:, SRC_OFFSET], t[:, DST_OFFSET], t[:, SIZE]], axis=1)

    # On-tile memcpy: 8 bytes per cycle through the st64 path; copies
    # landing on one tile serialize (summed per tile).  unit_bytes folds in
    # the batch axis: a batched element's RHS columns are contiguous and
    # move together.
    unit = np.array([var.unit_bytes() for var in step.variables], dtype=np.int64)
    local = t[t[:, DST_TILE] == t[:, SRC_TILE]]
    cost = (local[:, SIZE] * unit[local[:, SRC_VAR]] + 7) // 8
    local_cycles = int(np.bincount(local[:, DST_TILE], weights=cost).max()) if len(local) else 0

    size = t[:, SIZE]
    # (A copy's source is read once however many destinations it has;
    # counting the read per destination changes no overlap.)
    start = np.concatenate([t[:, SRC_OFFSET], t[:, DST_OFFSET]])
    vectorized = not _any_write_overlap(
        np.concatenate([src, dst]), start, start + np.tile(size, 2),
        np.repeat([False, True], n),
    )
    # Hazard-free: all copies between each pair of buffers fuse into one
    # numpy op (their order cannot be observed) — per whole-device buffer
    # pair here, per shard pair in ``ExchangePlan.ops``.  Overlapping
    # regions keep strict program order, one op per copy.
    copies = (endpoints, table)
    return ExchangePlan(
        name=step.name,
        local_cycles=local_cycles,
        vectorized=vectorized,
        flat=_copy_ops(*copies, flat=vectorized, fuse=vectorized),
        n_ops=_distinct(src * len(endpoints) + dst) if vectorized else n,
        copies=copies,
        fabric=fabric,
        exchange=step,
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
    del walk  # a recursive closure cycles through its own cell
    return ExecutionPlans(plans)
