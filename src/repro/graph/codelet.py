"""Codelets, vertices, and compute sets.

A codelet is the unit of computation scheduled on a tile (the analogue of a
Poplar C++ codelet).  It bundles

- ``run(ctx)``: the computation over tile-local shard arrays, and
- ``cycles(ctx)``: the deterministic cycle cost, either an ``int`` (runs on
  one worker) or a list of per-worker costs (≤ 6 entries).

The context ``ctx`` maps parameter names to the bound shard arrays; a
double-word parameter ``p`` binds both ``p`` (hi) and ``p.lo``.  Codelets
must be pure over their bindings so the engine stays deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Codelet",
    "Vertex",
    "VertexGroup",
    "ComputeSet",
    "ElementwiseSpec",
    "ReduceSpec",
    "BatchReduceSpec",
    "SpmvSpec",
    "SweepSpec",
]


@dataclass(frozen=True)
class ElementwiseSpec:
    """``out_var[tile] = expr`` — a fused elementwise assignment on one tile."""

    expr: object  # repro.tensordsl Expr
    out_var: object  # repro.graph Variable


@dataclass(frozen=True)
class ReduceSpec:
    """``out_var[tile] = reduce(expr)`` — a per-tile partial reduction."""

    expr: object
    out_var: object
    op: str  # "sum" | "max" | "min"


@dataclass(frozen=True)
class BatchReduceSpec:
    """``out_var[tile] = reduce(in_var, axis=batch)`` — collapse the trailing
    multi-RHS axis of a replicated batched scalar into an unbatched scalar
    (tile-local: every replica reduces its own copy, no exchange)."""

    in_var: object
    out_var: object
    op: str  # "max" | "min"


@dataclass(frozen=True)
class SpmvSpec:
    """``y[tile] = diag*x + A_offdiag @ [x | halo]`` — one tile of a CRS SpMV."""

    matrix: object  # repro.sparse DistributedMatrix
    x: object  # DistributedVector
    y: object  # DistributedVector


@dataclass(frozen=True)
class SweepSpec:
    """``x[tile] = sweep(b[tile])`` — one tile of a level-scheduled sweep
    (ILU/DILU substitution, Gauss-Seidel); the vertices of one compute set
    share the spec object.

    ``body(state, rhs, out, halo)`` binds the solver's substitution over
    whatever index space ``state`` (plans, diagonal, scratch) was built
    for, and returns its ops in run order — native entries
    (:mod:`repro.solvers.native`) or numpy callables: the vertex binds and
    runs them with its tile's state and shard views, the kernel op binds
    them once with ``device_state()`` — the same state merged over the
    flat device index space, built once per solver — and the flat buffers,
    and its table runs them.
    ``halo`` says whether the sweep reads ``x``'s halo buffer."""

    matrix: object  # repro.sparse DistributedMatrix
    x: object  # DistributedVector, swept in place / written
    b: object  # DistributedVector, the right-hand side
    body: object
    device_state: object
    halo: bool = False


class Codelet:
    """A named tile-local computation with a cycle cost model.

    ``spec`` optionally carries declarative metadata (Elementwise/Reduce/
    Spmv/SweepSpec) describing *what* the codelet computes; the
    kernel-lowering pass (:mod:`repro.graph.passes.kernels`) pattern-matches
    on it to build whole-device vectorized kernels.  Codelets without a spec
    still run everywhere — lowering falls back to batched per-vertex
    dispatch.  ``run=None`` declares a *cost-only* codelet: its work
    happened at symbolic time and the vertex exists to charge cycles, so
    ``sim`` prices it and no backend calls it."""

    def __init__(self, name: str, run, cycles, category: str = "elementwise", spec=None):
        self.name = name
        self.cost_only = run is None
        #: ``run(ctx)`` itself, not a method wrapping it: running a vertex
        #: is one call, ``vertex.codelet.run(vertex.ctx)``.
        self.run = run if run is not None else (lambda ctx: None)
        self._cycles = cycles
        #: Profiler bucket (Table IV buckets: spmv / ilu_solve / reduce /
        #: elementwise / extended_precision / ...).
        self.category = category
        self.spec = spec

    def cycles(self, ctx: dict):
        c = self._cycles(ctx) if callable(self._cycles) else self._cycles
        return c

    def __repr__(self):
        return f"Codelet({self.name!r})"


def _worker_tasks(cycles) -> tuple:
    """A codelet's cycle cost as per-worker ints: one entry for a bare
    ``int``, one per worker for a list."""
    if isinstance(cycles, (int, float)):
        return (int(cycles),)
    return tuple(int(c) for c in cycles)


class Vertex:
    """A codelet instance placed on a tile with its shard bindings resolved."""

    __slots__ = ("codelet", "tile_id", "ctx")

    def __init__(self, codelet: Codelet, tile_id: int, ctx: dict):
        self.codelet = codelet
        self.tile_id = tile_id
        self.ctx = ctx

    def run(self) -> None:
        self.codelet.run(self.ctx)

    def worker_cycles(self) -> list:
        """Cycle cost as a per-worker list."""
        return list(_worker_tasks(self.codelet.cycles(self.ctx)))

    def __repr__(self):
        return f"Vertex({self.codelet.name!r}@tile{self.tile_id})"


class VertexGroup:
    """The vertices one codelet factory places in a compute set, as a table.

    ``tiles`` is the tile-id array in placement order and ``cycles(tile)``
    that tile's per-worker cycle costs (a tuple of ints) — all that planning,
    pricing and kernel lowering read.  ``spec``, ``category`` and
    ``cost_only`` are shared by the group's vertices.  ``factory(tile)``
    builds a tile's :class:`Codelet`, whose cycle cost is ``cycles(tile)``;
    only the per-vertex path asks for them (:attr:`vertices`).
    """

    __slots__ = ("tiles", "factory", "cycles", "category", "spec", "cost_only", "ctx",
                 "_vertices")

    def __init__(self, tiles, factory, cycles, category: str = "elementwise", spec=None,
                 cost_only: bool = False, ctx: dict | None = None):
        self.tiles = np.asarray(tiles, dtype=np.int64)
        self.factory = factory
        self.cycles = cycles
        self.category = category
        self.spec = spec
        self.cost_only = cost_only
        self.ctx = ctx  # the bindings every vertex sees (None: a fresh {} each)
        self._vertices = None

    @property
    def vertices(self) -> tuple:
        """The group's vertices, one per tile in ``tiles`` order, built on
        first use and kept."""
        if self._vertices is None:
            self._vertices = tuple(
                Vertex(self.factory(t), t, {} if self.ctx is None else self.ctx)
                for t in self.tiles.tolist()
            )
        return self._vertices

    def __len__(self):
        return len(self.tiles)


class ComputeSet:
    """A group of vertices that execute in one BSP compute phase.

    Poplar inserts a synchronization before every compute set; the engine
    charges that sync and prices the phase as the slowest tile's worker
    makespan.  The vertices are held as :class:`VertexGroup` tables: a
    producer adds one group for all its tiles (:meth:`add_group`), a
    one-off codelet a one-tile group (:meth:`add_vertex`).
    """

    def __init__(self, name: str, category: str | None = None):
        self.name = name
        self.groups: list[VertexGroup] = []
        self.category = category

    def add_group(self, group: VertexGroup) -> VertexGroup:
        self.groups.append(group)
        return group

    def add_vertex(self, codelet: Codelet, tile_id: int, ctx: dict) -> VertexGroup:
        return self.add_group(VertexGroup(
            (tile_id,), lambda t: codelet, lambda t: _worker_tasks(codelet.cycles(ctx)),
            category=codelet.category, spec=codelet.spec, cost_only=codelet.cost_only,
            ctx=ctx,
        ))

    @property
    def vertices(self) -> tuple:
        """Every group's vertices, in group order (built on first use)."""
        return tuple(v for g in self.groups for v in g.vertices)

    @property
    def tile_ids(self) -> np.ndarray:
        """The groups' tile ids, concatenated (a tile with several vertices
        repeats)."""
        if not self.groups:
            return np.zeros(0, dtype=np.int64)
        return np.concatenate([g.tiles for g in self.groups])

    def tiles(self):
        return np.unique(self.tile_ids).tolist()

    def __len__(self):
        return sum(len(g) for g in self.groups)

    def __repr__(self):
        return f"ComputeSet({self.name!r}, {len(self)} vertices)"
