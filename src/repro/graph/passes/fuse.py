"""Compute-set fusion: adjacent compute phases on disjoint tiles share a sync.

Poplar inserts a BSP synchronization before every compute set; two adjacent
``Execute`` steps therefore cost two syncs even when their vertices live on
*different* tiles and could run in the same compute phase.  Codelets only
touch tile-local shards (the tile-centric semantics of Sec. II-A), so
vertices on disjoint tile sets can never observe each other — fusing them
is bit-identical and replaces ``sync + A + sync + B`` with
``sync + max(A, B)``.

Fusion requires the compute sets to resolve to the same profiler category
(so Table IV attribution is unchanged) and skips compute sets that appear
in more than one ``Execute`` step: splitting a shared set into a fused copy
plus the original would *grow* the graph the compiler has to place.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from repro.graph.codelet import ComputeSet
from repro.graph.passes.base import Pass, rewrite_bottom_up
from repro.graph.program import Execute, Sequence, Step

__all__ = ["FuseComputeSets"]


def _effective_category(cs: ComputeSet) -> str | None:
    if cs.category is not None:
        return cs.category
    return cs.groups[0].category if cs.groups else None


def _count_execute_refs(root: Step, counts: Counter, seen: set) -> None:
    if id(root) in seen:
        return
    seen.add(id(root))
    if isinstance(root, Execute):
        counts[id(root.compute_set)] += 1
    for child in _children(root):
        _count_execute_refs(child, counts, seen)


def _children(step: Step):
    from repro.graph.program import If, Repeat, RepeatWhile

    if isinstance(step, Sequence):
        return step.steps
    if isinstance(step, (Repeat, RepeatWhile)):
        return [step.body]
    if isinstance(step, If):
        return [step.then_body] + ([step.else_body] if step.else_body is not None else [])
    return []


class FuseComputeSets(Pass):
    """Fuse adjacent ``Execute`` steps with one category and disjoint tiles."""

    name = "fuse-compute-sets"

    def run(self, root: Step) -> Step:
        self._refs: Counter = Counter()
        _count_execute_refs(root, self._refs, set())
        return rewrite_bottom_up(root, self._local)

    def _fusable(self, step: Step) -> bool:
        return (
            isinstance(step, Execute)
            and len(step.compute_set) > 0
            and self._refs[id(step.compute_set)] == 1
        )

    def _local(self, step: Step) -> Step:
        if not isinstance(step, Sequence):
            return step
        out: list = []
        changed = False
        for s in step.steps:
            if self._fusable(s) and out and self._fusable(out[-1]):
                prev_cs = out[-1].compute_set
                cs = s.compute_set
                cat = _effective_category(prev_cs)
                if (
                    cat is not None
                    and cat == _effective_category(cs)
                    and not np.isin(cs.tile_ids, prev_cs.tile_ids).any()
                ):
                    fused = ComputeSet(f"{prev_cs.name}+{cs.name}", category=cat)
                    fused.groups = prev_cs.groups + cs.groups
                    out[-1] = Execute(fused)
                    # The fused set is a fresh single-reference object.
                    self._refs[id(fused)] = 1
                    changed = True
                    continue
            out.append(s)
        if changed:
            return Sequence(out, label=step.label)
        return step
