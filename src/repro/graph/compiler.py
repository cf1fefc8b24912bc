"""Graph "compilation" statistics and the compile-time proxy.

The Poplar graph compiler's running time grows with the number of vertices,
compute sets, and program steps — the paper twice engineers around this
(delayed materialization in Sec. III-C, IPUTHREADING in Sec. V-A).  The real
compiler is out of scope; what the ablation benches need is the *size* of
the generated artifacts, which this module measures by walking a schedule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.program import (
    COPY,
    SIZE,
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

__all__ = ["GraphStats", "collect_stats", "describe"]

# Weights of the linear compile-time proxy, in arbitrary "compiler work"
# units per artifact.  Vertices dominate (each becomes codelet instances the
# compiler places and schedules); exchange copies each become communication
# instructions it must route.
_W_VERTEX = 10
_W_COMPUTE_SET = 25
_W_STEP = 1
_W_COPY = 4


@dataclass
class GraphStats:
    steps: int = 0
    compute_sets: int = 0
    vertices: int = 0
    exchanges: int = 0
    region_copies: int = 0
    host_callbacks: int = 0

    @property
    def compile_proxy(self) -> int:
        """Scalar proxy for Poplar graph-compilation effort."""
        return (
            _W_VERTEX * self.vertices
            + _W_COMPUTE_SET * self.compute_sets
            + _W_STEP * self.steps
            + _W_COPY * self.region_copies
        )


def collect_stats(step: Step) -> GraphStats:
    """Walk a schedule and tally the artifacts the graph compiler would see.

    Loop bodies are counted once — the compiler compiles each body a single
    time regardless of the trip count.  Compute sets reached through several
    paths are also counted once.  Vertices and copies are counted off the
    tables: a compute set's group sizes, an exchange's copy ids.
    """
    stats = GraphStats()
    seen: set = set()
    todo = [step]
    while todo:
        step = todo.pop()
        stats.steps += 1
        if isinstance(step, Sequence):
            todo.extend(reversed(step.steps))
        elif isinstance(step, Execute):
            if id(step.compute_set) not in seen:
                seen.add(id(step.compute_set))
                stats.compute_sets += 1
                stats.vertices += len(step.compute_set)
        elif isinstance(step, Exchange):
            stats.exchanges += 1
            stats.region_copies += step.n_copies
        elif isinstance(step, (Repeat, RepeatWhile)):
            todo.append(step.body)
        elif isinstance(step, If):
            if step.else_body is not None:
                todo.append(step.else_body)
            todo.append(step.then_body)
        elif isinstance(step, HostCallback):
            stats.host_callbacks += 1
    return stats


def describe(step: Step, max_depth: int = 8) -> str:
    """Human-readable outline of an execution schedule (debugging aid).

    Mirrors what Poplar's report shows for a compiled program: the step
    tree with compute-set sizes and exchange copy counts.
    """
    lines: list[str] = []

    def walk(s: Step, depth: int) -> None:
        pad = "  " * depth
        if depth > max_depth:
            lines.append(pad + "...")
            return
        if isinstance(s, Sequence):
            scope = f" label={s.label!r}" if s.label else ""
            lines.append(f"{pad}Sequence[{len(s.steps)}]{scope}")
            for child in s.steps:
                walk(child, depth + 1)
        elif isinstance(s, Execute):
            cs = s.compute_set
            lines.append(
                f"{pad}Execute({cs.name}, {len(cs)} vertices on "
                f"{len(cs.tiles())} tiles, category={cs.category or 'auto'})"
            )
        elif isinstance(s, Exchange):
            # A copy's bytes once, however many destinations it has.
            t = s.table
            first = t[np.flatnonzero(np.diff(t[:, COPY], prepend=-1))]
            unit = np.array([v.unit_bytes() for v in s.variables], dtype=np.int64)
            nbytes = int((first[:, SIZE] * unit[first[:, SRC_VAR]]).sum())
            lines.append(f"{pad}Exchange({s.n_copies} region copies, {nbytes} B)")
        elif isinstance(s, Repeat):
            scope = f" label={s.label!r}" if s.label else ""
            lines.append(f"{pad}Repeat(x{s.count}){scope}")
            walk(s.body, depth + 1)
        elif isinstance(s, RepeatWhile):
            scope = f" label={s.label!r}" if s.label else ""
            lines.append(f"{pad}RepeatWhile({s.cond.name}, max={s.max_iterations}){scope}")
            walk(s.body, depth + 1)
        elif isinstance(s, If):
            lines.append(f"{pad}If({s.cond.name})")
            walk(s.then_body, depth + 1)
            if s.else_body is not None:
                lines.append(pad + "Else")
                walk(s.else_body, depth + 1)
        elif isinstance(s, HostCallback):
            lines.append(f"{pad}HostCallback({s.name})")
        else:
            lines.append(f"{pad}{type(s).__name__}")

    walk(step, 0)
    return "\n".join(lines)
