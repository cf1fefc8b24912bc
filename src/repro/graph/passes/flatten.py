"""Sequence flattening and empty/dead-step elimination.

Symbolic execution produces deeply nested ``Sequence`` trees (one per
control-flow capture) and the sparse layer can emit degenerate steps — an
``Exchange`` with no copies, an ``Execute`` whose compute set has no
vertices, a ``Repeat`` with a zero trip count.  Each such step still costs a
BSP sync or control charge at runtime and inflates the schedule the graph
compiler must process, so this pass splices unlabeled sequences into their
parents and drops steps that provably do nothing.
"""

from __future__ import annotations

from repro.graph.passes.base import Pass, rewrite_bottom_up
from repro.graph.program import Exchange, Execute, If, Repeat, Sequence, Step

__all__ = ["FlattenSequences"]


def _is_empty(step: Step) -> bool:
    """True if ``step`` has no effect on data or host state (dropping it
    can only remove sync/control charges)."""
    if isinstance(step, Sequence):
        return step.label is None and all(_is_empty(s) for s in step.steps)
    if isinstance(step, Exchange):
        return not len(step.table)
    if isinstance(step, Execute):
        return len(step.compute_set) == 0
    return False


class FlattenSequences(Pass):
    """Splice nested unlabeled sequences; drop steps that do nothing.

    Labeled sequences are profiler-scope boundaries and survive intact.
    Dead steps removed: empty sequences, copy-less exchanges, vertex-less
    compute sets (each would still charge a sync), zero-trip or empty-body
    ``Repeat`` loops, and ``If`` steps whose branches are both empty.
    ``RepeatWhile`` is left alone — its trip count is a runtime value.
    """

    name = "flatten"

    def run(self, root: Step) -> Step:
        out = rewrite_bottom_up(root, self._local)
        # The root must stay a Sequence for the engine's entry point.
        if not isinstance(out, Sequence):
            out = Sequence([out] if not _is_empty(out) else [])
        return out

    def _local(self, step: Step) -> Step:
        if isinstance(step, Sequence):
            steps = []
            changed = False
            for s in step.steps:
                if _is_empty(s):
                    changed = True
                    continue
                if isinstance(s, Sequence) and s.label is None:
                    steps.extend(s.steps)
                    changed = True
                else:
                    steps.append(s)
            if changed:
                return Sequence(steps, label=step.label)
            return step
        if isinstance(step, Repeat) and (step.count <= 0 or _is_empty(step.body)):
            return Sequence([])
        if isinstance(step, If) and _is_empty(step.then_body) and (
            step.else_body is None or _is_empty(step.else_body)
        ):
            return Sequence([])
        if isinstance(step, If) and step.else_body is not None and _is_empty(step.else_body):
            return If(step.cond, step.then_body, None)
        return step
