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

__all__ = [
    "Codelet",
    "Vertex",
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

    ``body(state, rhs, out, halo)`` is the solver's substitution over
    whatever index space ``state`` (plans, diagonal, scratch) was built
    for: the vertex calls it with its tile's state and shard views, the
    kernel op with ``device_state()`` — the same state merged over the flat
    device index space, built once per solver — and the flat buffers.
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
        c = self.codelet.cycles(self.ctx)
        if isinstance(c, (int, float)):
            return [int(c)]
        return [int(x) for x in c]

    def __repr__(self):
        return f"Vertex({self.codelet.name!r}@tile{self.tile_id})"


class ComputeSet:
    """A group of vertices that execute in one BSP compute phase.

    Poplar inserts a synchronization before every compute set; the engine
    charges that sync and prices the phase as the slowest tile's worker
    makespan.
    """

    def __init__(self, name: str, category: str | None = None):
        self.name = name
        self.vertices: list[Vertex] = []
        self.category = category

    def add(self, vertex: Vertex) -> Vertex:
        self.vertices.append(vertex)
        return vertex

    def add_vertex(self, codelet: Codelet, tile_id: int, ctx: dict) -> Vertex:
        return self.add(Vertex(codelet, tile_id, ctx))

    def tiles(self):
        return sorted({v.tile_id for v in self.vertices})

    def __len__(self):
        return len(self.vertices)

    def __repr__(self):
        return f"ComputeSet({self.name!r}, {len(self.vertices)} vertices)"
