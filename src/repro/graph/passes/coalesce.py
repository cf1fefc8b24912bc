"""Exchange coalescing: adjacent exchange steps become one fabric phase.

The sparse layer emits one blockwise communication program per sending tile
(Sec. IV), and solver schedules string several logically independent
exchanges together.  Every ``Exchange`` step is a full BSP superstep — a
chip-wide (or fleet-wide) sync plus a fabric phase — so ``k`` adjacent
exchanges pay ``k`` syncs where one would do.  This pass merges runs of
adjacent exchanges into a single phase; tiles then stream all their regions
back-to-back, which also lets per-tile send/receive time overlap across the
merged copies (max-of-sums <= sum-of-maxes).

Safety: the engine applies region copies in table order, so merging is
always bit-identical.  For honest BSP semantics (a phase reads all sources
before any destination is visible) a copy whose *source* region was written
by an earlier copy in the same group ends the group — those exchanges stay
separate phases.  Only exchanges with the same ``name`` merge, keeping the
profiler's category attribution (e.g. Table IV's exchange bucket) intact.
The hazard check runs on the copy tables, one sort per check.
"""

from __future__ import annotations

import numpy as np

from repro.graph.passes.base import Pass, rewrite_bottom_up
from repro.graph.program import (
    DST_OFFSET,
    DST_TILE,
    DST_VAR,
    SIZE,
    SRC_OFFSET,
    SRC_TILE,
    SRC_VAR,
    Exchange,
    Sequence,
    Step,
)

__all__ = ["CoalesceExchanges"]


def _reads_written(reads, writes) -> bool:
    """True when a read range overlaps a written range of the same shard.

    ``reads`` / ``writes`` are ``(shard, start, stop)`` arrays.  The writes
    are sorted by (shard, start) under a running maximum of their stops,
    every shard shifted into a band of its own so one maximum serves them
    all: a read overlaps exactly when the writes of its shard that start
    before its stop reach past its start.
    """
    (r_shard, r_start, r_stop), (w_shard, w_start, w_stop) = reads, writes
    if not len(r_shard) or not len(w_shard):
        return False
    band = int(max(r_stop.max(), w_stop.max())) + 1
    order = np.lexsort((w_start, w_shard))
    reach = np.maximum.accumulate(w_shard[order] * band + w_stop[order])
    last = np.searchsorted(w_shard[order] * band + w_start[order], r_shard * band + r_stop) - 1
    hit = last >= 0
    return bool((reach[last[hit]] > r_shard[hit] * band + r_start[hit]).any())


def _groups(run: list) -> list:
    """Split a run of adjacent same-name exchanges into merge groups: an
    exchange joins the group before it unless it reads what the group
    wrote.  When no read of the run meets any write of it (a halo update:
    owned regions in, halo regions out) the run is one group."""
    if len(run) == 1:
        return [run]
    ids: dict = {}
    var = np.array([ids.setdefault(id(v), len(ids)) for ex in run for v in ex.variables],
                   dtype=np.int64)
    rows = np.cumsum([0] + [len(ex.table) for ex in run])
    t = np.concatenate([ex.table for ex in run])
    if not len(t):
        return [run]
    var_base = np.repeat(np.cumsum([0] + [len(ex.variables) for ex in run[:-1]]), np.diff(rows))
    tiles = int(t[:, [SRC_TILE, DST_TILE]].max()) + 1
    reads = (var[var_base + t[:, SRC_VAR]] * tiles + t[:, SRC_TILE],
             t[:, SRC_OFFSET], t[:, SRC_OFFSET] + t[:, SIZE])
    writes = (var[var_base + t[:, DST_VAR]] * tiles + t[:, DST_TILE],
              t[:, DST_OFFSET], t[:, DST_OFFSET] + t[:, SIZE])
    if not _reads_written(reads, writes):
        return [run]
    groups, start = [[run[0]]], 0  # ``start``: the open group's first row
    for k in range(1, len(run)):
        a, b = rows[k], rows[k + 1]
        if _reads_written([r[a:b] for r in reads], [w[start:a] for w in writes]):
            groups.append([])
            start = a
        groups[-1].append(run[k])
    return groups


class CoalesceExchanges(Pass):
    """Merge runs of adjacent same-name ``Exchange`` steps (fewer supersteps)."""

    name = "coalesce-exchanges"

    def run(self, root: Step) -> Step:
        return rewrite_bottom_up(root, self._local)

    def _local(self, step: Step) -> Step:
        if not isinstance(step, Sequence):
            return step
        out: list = []
        run: list = []  # adjacent Exchange steps of one name
        changed = False

        def flush():
            nonlocal changed
            if not run:
                return
            for group in _groups(run):
                if len(group) == 1:
                    out.append(group[0])
                else:
                    out.append(Exchange.merged(group, name=group[0].name))
                    changed = True
            run.clear()

        for s in step.steps:
            if isinstance(s, Exchange):
                if run and s.name != run[0].name:
                    flush()
                run.append(s)
            else:
                flush()
                out.append(s)
        flush()
        if changed:
            return Sequence(out, label=step.label)
        return step
