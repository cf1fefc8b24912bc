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
  :class:`~repro.machine.fabric.Transfer` list and on-tile memcpy cost.
  When region copies within one exchange overlap (a later copy reads or
  rewrites what an earlier one wrote), the plan falls back to strictly
  ordered per-copy execution so results stay bit-identical.  A hazard-free
  plan also carries the exchange in *flat* form — one gather/scatter per
  (source buffer, destination buffer) pair over the variables' whole-device
  ``flat_data`` buffers — which is what the fused kernels replay.

Plans hold direct references to shard arrays; the graph allocates shard
storage exactly once, so the references stay valid across host reads and
writes (which mutate the arrays in place).
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from dataclasses import dataclass

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
from repro.machine.fabric import Transfer

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
    """One tile's share of a compute phase: its vertices and makespan."""

    tile_id: int
    runs: tuple  # bound Vertex.run callables, in execution order
    makespan: int  # LPT packing of this tile's worker tasks


@dataclass(frozen=True)
class ComputePlan:
    """Frozen execution plan of one ``Execute`` step."""

    name: str  # compute-set name (telemetry groups hot sets by this)
    category: str
    tiles: tuple  # of TilePlan, in first-seen tile order
    dispatch: tuple  # flat run callables across tiles, in execution order
    worst_tile: int  # max makespan over tiles (the BSP phase cost)


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
    ops: tuple  # of CopyOp, one per shard pair (sim, fault injector)
    transfers: tuple  # of Transfer, for the fabric cost model
    local_cycles: int  # max over tiles of summed on-tile memcpy cost
    vectorized: bool  # False -> hazard detected, ops follow copy order
    #: The same copies as CopyOps over ``Variable.flat_data`` / ``flat_lo``,
    #: one per (src buffer, dst buffer) pair — what the fused kernels
    #: replay.  A hazard plan has no flat form: ``flat is ops``.
    flat: tuple | None = None

    def __post_init__(self):
        if self.flat is None:
            object.__setattr__(self, "flat", self.ops)


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
    dispatch: list = []
    worst = 0
    for tile_id, vertices in per_tile.items():
        runs = []
        tasks: list = []
        for v in vertices:
            if not v.codelet.cost_only:
                runs.append(v.run)
            tasks.extend(v.worker_cycles())
        makespan = lpt_makespan(tasks, workers)
        worst = max(worst, makespan)
        tiles.append(TilePlan(tile_id, tuple(runs), makespan))
        dispatch.extend(runs)
    return ComputePlan(
        name=cs.name,
        category=category,
        tiles=tuple(tiles),
        dispatch=tuple(dispatch),
        worst_tile=worst,
    )


def _any_write_overlap(reads: dict, writes: dict) -> bool:
    """True when a written range overlaps any other read or written range.

    Ranges touching distinct shard arrays never interact.  Per array the
    copy count is small (one segment per communicating neighbor), so the
    quadratic check stays cheap — and it runs once, at compile time.
    """
    for aid, wivs in writes.items():
        rivs = reads.get(aid, ())
        for i, (a0, a1) in enumerate(wivs):
            for b0, b1 in wivs[i + 1 :]:
                if a0 < b1 and b0 < a1:
                    return True
            for b0, b1 in rivs:
                if a0 < b1 and b0 < a1:
                    return True
    return False


def _plan_exchange(step: Exchange) -> ExchangePlan:
    # Elementary copies: one (src var, src tile, dst var, dst tile, ranges)
    # tuple per destination of each RegionCopy, in program order.
    elementary = []
    reads: dict = defaultdict(list)
    writes: dict = defaultdict(list)
    local_per_tile: dict[int, int] = defaultdict(int)
    transfers = []
    for rc in step.copies:
        src_sh = rc.src_var.shard(rc.src_tile)
        s0, s1 = rc.src_offset, rc.src_offset + rc.size
        reads[id(src_sh.data)].append((s0, s1))
        remote_dests = []
        for dst_var, dst_tile, dst_offset in rc.dests:
            dst_sh = dst_var.shard(dst_tile)
            d0, d1 = dst_offset, dst_offset + rc.size
            writes[id(dst_sh.data)].append((d0, d1))
            elementary.append((rc.src_var, rc.src_tile, dst_var, dst_tile, s0, s1, d0, d1))
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

    def shard_copies():
        for src_var, src_tile, dst_var, dst_tile, s0, s1, d0, d1 in elementary:
            src_sh, dst_sh = src_var.shard(src_tile), dst_var.shard(dst_tile)
            yield (src_sh.data, src_sh.lo), (dst_sh.data, dst_sh.lo), (s0, s1, d0, d1)

    vectorized = not _any_write_overlap(reads, writes)
    if not vectorized:
        # Overlapping regions: keep strict program order, one op per copy.
        ops = tuple(_copy_op(src, dst, [seg]) for src, dst, seg in shard_copies())
        flat = ops
    else:
        # Fuse all copies between each (src array, dst array) pair into one
        # numpy op; with no overlaps the op order cannot be observed.  Per
        # shard pair for the timed backend, per whole-device buffer pair
        # (global row = shard base + offset) for the untimed ones.
        buffers: dict = {}

        def flat_copies():
            for src_var, src_tile, dst_var, dst_tile, s0, s1, d0, d1 in elementary:
                src, sb = _flat_rows(src_var, src_tile, buffers)
                dst, db = _flat_rows(dst_var, dst_tile, buffers)
                yield src, dst, (sb + s0, sb + s1, db + d0, db + d1)

        ops = _fuse_copies(shard_copies())
        flat = _fuse_copies(flat_copies())

    return ExchangePlan(
        name=step.name,
        ops=ops,
        transfers=tuple(transfers),
        local_cycles=max(local_per_tile.values(), default=0),
        vectorized=vectorized,
        flat=flat,
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


def _fuse_copies(copies) -> tuple:
    """One CopyOp per (src array, dst array) pair of hazard-free copies."""
    groups: dict = {}
    for src, dst, segment in copies:
        key = (id(src[0]), id(dst[0]))
        if key not in groups:
            groups[key] = (src, dst, [])
        groups[key][2].append(segment)
    return tuple(_copy_op(*group) for group in groups.values())


def _copy_op(src, dst, segments) -> CopyOp:
    """``src`` / ``dst`` are ``(hi, lo)`` array pairs; the lo halves move
    when both endpoints are double-word.  Segments of one op are
    hazard-free, so they are laid out in destination order: an exchange
    that fills a whole buffer range then scatters through a plain slice."""
    paired = src[1] is not None and dst[1] is not None
    segments = sorted(segments, key=lambda seg: seg[2])
    return CopyOp(
        src=src[0],
        dst=dst[0],
        src_index=_row_index([(s0, s1) for s0, s1, _, _ in segments]),
        dst_index=_row_index([(d0, d1) for _, _, d0, d1 in segments]),
        src_lo=src[1] if paired else None,
        dst_lo=dst[1] if paired else None,
    )


def _row_index(ranges):
    """A slice when the ranges abut into one run, else a fancy index."""
    if all(a[1] == b[0] for a, b in zip(ranges, ranges[1:])):
        return slice(ranges[0][0], ranges[-1][1])
    return np.concatenate([np.arange(r0, r1) for r0, r1 in ranges])


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
            plans[id(step)] = _plan_exchange(step)
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
