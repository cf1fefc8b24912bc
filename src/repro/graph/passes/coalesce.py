"""Exchange coalescing: adjacent exchange steps become one fabric phase.

The sparse layer emits one blockwise communication program per sending tile
(Sec. IV), and solver schedules string several logically independent
exchanges together.  Every ``Exchange`` step is a full BSP superstep — a
chip-wide (or fleet-wide) sync plus a fabric phase — so ``k`` adjacent
exchanges pay ``k`` syncs where one would do.  This pass merges runs of
adjacent exchanges into a single phase; tiles then stream all their regions
back-to-back, which also lets per-tile send/receive time overlap across the
merged copies (max-of-sums <= sum-of-maxes).

Safety: the engine applies region copies in list order, so merging is
always bit-identical.  For honest BSP semantics (a phase reads all sources
before any destination is visible) a copy whose *source* region was written
by an earlier copy in the same group ends the group — those exchanges stay
separate phases.  Only exchanges with the same ``name`` merge, keeping the
profiler's category attribution (e.g. Table IV's exchange bucket) intact.
"""

from __future__ import annotations

from repro.graph.passes.base import Pass, rewrite_bottom_up
from repro.graph.program import Exchange, RegionCopy, Sequence, Step

__all__ = ["CoalesceExchanges"]


def _regions_overlap(a_start: int, a_size: int, b_start: int, b_size: int) -> bool:
    return a_start < b_start + b_size and b_start < a_start + a_size


def _reads_written(copy: RegionCopy, written: dict) -> bool:
    """True if ``copy``'s source region overlaps a destination already
    written in the current merge group.  ``written`` maps ``(id(variable),
    tile)`` to the ``(offset, size)`` regions the group wrote on that shard,
    so a copy is checked against its own source shard only."""
    for offset, size in written.get((id(copy.src_var), copy.src_tile), ()):
        if _regions_overlap(offset, size, copy.src_offset, copy.size):
            return True
    return False


class CoalesceExchanges(Pass):
    """Merge runs of adjacent same-name ``Exchange`` steps (fewer supersteps)."""

    name = "coalesce-exchanges"

    def run(self, root: Step) -> Step:
        return rewrite_bottom_up(root, self._local)

    def _local(self, step: Step) -> Step:
        if not isinstance(step, Sequence):
            return step
        out: list = []
        group: list = []  # Exchange steps accumulated for the current phase
        written: dict = {}  # (id(var), tile) -> [(offset, size)] the group wrote
        changed = False

        def flush():
            nonlocal changed
            if not group:
                return
            if len(group) == 1:
                out.append(group[0])
            else:
                copies = [rc for ex in group for rc in ex.copies]
                out.append(Exchange(copies, name=group[0].name))
                changed = True
            group.clear()
            written.clear()

        for s in step.steps:
            if isinstance(s, Exchange):
                if group and (
                    s.name != group[0].name
                    or any(_reads_written(rc, written) for rc in s.copies)
                ):
                    flush()
                group.append(s)
                for rc in s.copies:
                    for dst_var, dst_tile, dst_offset in rc.dests:
                        written.setdefault((id(dst_var), dst_tile), []).append(
                            (dst_offset, rc.size)
                        )
            else:
                flush()
                out.append(s)
        flush()
        if changed:
            return Sequence(out, label=step.label)
        return step
