"""Execution-schedule step types (Poplar program steps).

The schedule is a DAG of steps; our step set covers what the framework
needs: compute-set execution, tensor copies/exchanges, counted and
conditional loops, branches, and host callbacks (used for data transfer and
progress reporting, Sec. III-A step 4).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.graph.codelet import ComputeSet
from repro.graph.variable import Variable

__all__ = [
    "Step",
    "Sequence",
    "Execute",
    "RegionCopy",
    "Exchange",
    "Repeat",
    "RepeatWhile",
    "If",
    "HostCallback",
]


class Step:
    """Base class for schedule steps (marker only)."""


@dataclass
class Sequence(Step):
    """Run ``steps`` in order.

    A ``label`` turns the sequence into a named profiler scope: the engine
    attributes the cycles of everything inside it to the ``a/b/c`` step path
    (the Table IV hierarchical breakdown).  Labeled sequences are scope
    boundaries — the compiler never flattens them away.
    """

    steps: list = field(default_factory=list)
    label: str | None = None

    def add(self, step: Step) -> Step:
        self.steps.append(step)
        return step


@dataclass
class Execute(Step):
    """Run one compute set (one BSP compute phase)."""

    compute_set: ComputeSet


@dataclass(frozen=True)
class RegionCopy:
    """One blockwise copy of ``size`` contiguous elements.

    ``src`` / each destination is ``(variable, tile_id, local_offset)``; the
    copy broadcasts the source region to every destination, which is exactly
    the primitive the Sec. IV reordering strategy reduces halo exchange to.
    """

    src_var: Variable
    src_tile: int
    src_offset: int
    dests: tuple  # of (dst_var, dst_tile, dst_offset)
    size: int


#: Columns of an exchange's copy table (one row per destination of a copy):
#: the copy's id, its source (variable, tile, offset), the destination
#: (variable, tile, offset) and the region size.  Variables are indices
#: into ``Exchange.variables``.
COPY, SRC_VAR, SRC_TILE, SRC_OFFSET, DST_VAR, DST_TILE, DST_OFFSET, SIZE = range(8)


def _copy_table(copies) -> tuple:
    """``(variables, table)`` of a list of :class:`RegionCopy`."""
    index: dict = {}
    variables: list = []

    def var_id(var) -> int:
        if id(var) not in index:
            index[id(var)] = len(variables)
            variables.append(var)
        return index[id(var)]

    rows = []
    for rc in copies:
        src = var_id(rc.src_var)
        copy = rows[-1][COPY] + 1 if rows else 0
        rows += [(copy, src, rc.src_tile, rc.src_offset, var_id(var), tile, offset, rc.size)
                 for var, tile, offset in rc.dests]
    return variables, np.array(rows, dtype=np.int64).reshape(-1, 8)


class Exchange(Step):
    """A BSP exchange phase: a set of region copies executed simultaneously.

    The copies are one int64 ``table`` (columns :data:`COPY` ...
    :data:`SIZE`) over ``variables``: a row per destination, the rows of a
    copy adjacent, copy ids counting up from 0 in row order.  Built from
    :class:`RegionCopy` objects (``Exchange(copies)``), or from a table
    directly (``Exchange(variables=..., table=...)``) by producers that
    have one.
    """

    def __init__(self, copies=(), name: str = "exchange", *, variables=(), table=None):
        if table is None:
            variables, table = _copy_table(copies)
        self.variables = tuple(variables)
        self.table = table
        self.name = name
        #: Region copies (distinct copy ids) — what ``compile_proxy`` counts.
        self.n_copies = int(table[-1, COPY]) + 1 if len(table) else 0

    @classmethod
    def merged(cls, exchanges, name: str) -> "Exchange":
        """One exchange running ``exchanges``' copies in order (ids renumbered,
        variables unified)."""
        variables = list({id(v): v for ex in exchanges for v in ex.variables}.values())
        ids = {id(v): i for i, v in enumerate(variables)}
        remap = np.array([ids[id(v)] for ex in exchanges for v in ex.variables], dtype=np.int64)
        part = np.repeat(np.arange(len(exchanges)), [len(ex.table) for ex in exchanges])
        var_base = np.cumsum([0] + [len(ex.variables) for ex in exchanges])[part]
        copy_base = np.cumsum([0] + [ex.n_copies for ex in exchanges])[part]
        table = np.concatenate([ex.table for ex in exchanges])
        table[:, COPY] += copy_base
        table[:, SRC_VAR] = remap[var_base + table[:, SRC_VAR]]
        table[:, DST_VAR] = remap[var_base + table[:, DST_VAR]]
        return cls(name=name, variables=variables, table=table)

    def __repr__(self):
        return f"Exchange({self.name!r}, {self.n_copies} copies)"


@dataclass
class Repeat(Step):
    """Run ``body`` a fixed ``count`` times.

    A ``label`` opens a profiler scope around the whole loop (all
    iterations), so loop cycles show up as one path component.
    """

    count: int
    body: Step
    label: str | None = None


@dataclass
class RepeatWhile(Step):
    """Run ``body`` while the scalar ``cond`` variable is nonzero.

    The condition tensor is produced on-device by the body (e.g. the
    ``terminate`` flag of Fig. 4); ``max_iterations`` is a safety net so a
    non-converging solver cannot hang the engine.
    """

    cond: Variable
    body: Step
    max_iterations: int = 100_000
    check_before_first: bool = True
    label: str | None = None


@dataclass
class If(Step):
    """Branch on a scalar condition variable."""

    cond: Variable
    then_body: Step
    else_body: Step | None = None


@dataclass
class HostCallback(Step):
    """Call back into host code mid-program (progress output, host I/O).

    The callable receives the running engine; it may read/write variables
    through the host interface but must not mutate the schedule.
    """

    fn: object
    name: str = "host_callback"
