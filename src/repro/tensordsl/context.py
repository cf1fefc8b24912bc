"""TensorContext: symbolic-execution driver and control-flow stack.

Owns the graph, the schedule being generated, and the control-flow stack of
Sec. III-B: control functions (:meth:`TensorContext.If`,
:meth:`TensorContext.While`, :meth:`TensorContext.Repeat`) push a program
step, symbolically execute the branch lambda, and pop — the top of the
stack is always the step under construction.
"""

from __future__ import annotations

import numpy as np

from contextlib import contextmanager

from repro.codedsl import estimate_flops
from repro.codedsl.builder import CodeletIR
from repro.graph import (
    CompiledProgram,
    ComputeSet,
    Codelet,
    Engine,
    Exchange,
    Execute as ExecuteStep,
    Graph,
    HostCallback,
    If as IfStep,
    Repeat as RepeatStep,
    RepeatWhile,
    Sequence,
    compile_program,
)
from repro.graph.program import COPY, DST_OFFSET, DST_TILE, DST_VAR, SIZE, SRC_TILE
from repro.machine import IPUDevice
from repro.tensordsl.expression import Expr
from repro.tensordsl.materialize import (
    batch_reduce_group,
    category_for,
    combine_codelet,
    elementwise_group,
    partial_reduce_group,
)
from repro.tensordsl.tensor import Tensor
from repro.tensordsl.types import Type

__all__ = ["TensorContext"]


class TensorContext:
    """Builds a graph program by symbolically executing TensorDSL code."""

    def __init__(self, device: IPUDevice, eager: bool = False):
        self.device = device
        self.graph = Graph(device)
        self.root = Sequence()
        #: The control-flow stack (Sec. III-B): innermost open step last.
        self._stack: list[Sequence] = [self.root]
        #: Eager mode materializes every operator immediately — the
        #: no-delayed-materialization ablation baseline.
        self.eager = eager

    # -- schedule construction ------------------------------------------------------

    @property
    def current_seq(self) -> Sequence:
        return self._stack[-1]

    def append(self, step):
        return self.current_seq.add(step)

    # -- tensor creation ---------------------------------------------------------------

    def tensor(self, shape, dtype: str = Type.FLOAT32, name: str | None = None,
               data=None, tile_ids=None, batch: int = 1) -> Tensor:
        """Create a materialized tensor distributed linearly over tiles.

        ``batch > 1`` adds a trailing multi-RHS axis (``docs/solvers.md``);
        host ``data`` is then batch-leading ``(batch,) + shape``.
        """
        shape = tuple(shape) if not isinstance(shape, int) else (shape,)
        name = name or self.graph.unique_name("t")
        size = int(np.prod(shape)) if shape else 1
        if size == 1:
            var = self.graph.add_replicated(name, shape, dtype, tile_ids=tile_ids, batch=batch)
        else:
            mapping = self.graph.linear_mapping(size, tile_ids=tile_ids)
            var = self.graph.add_variable(name, shape, dtype, mapping=mapping, batch=batch)
        if data is not None:
            var.scatter(data)
        return Tensor(self, var=var)

    def scalar(self, value=0.0, dtype: str = Type.FLOAT32, name: str | None = None,
               tile_ids=None, batch: int = 1) -> Tensor:
        """Create a replicated scalar tensor initialized to ``value``
        (``batch > 1``: one value per RHS, all initialized alike)."""
        t = self.tensor((), dtype=dtype, name=name, tile_ids=tile_ids, batch=batch)
        t.write(value)
        return t

    def from_mapping(self, name: str, shape, dtype: str, mapping, batch: int = 1) -> Tensor:
        """Create a tensor with an explicit tile mapping (used by the sparse
        layer, whose halo-reordered layouts are anything but linear)."""
        var = self.graph.add_variable(name, shape, dtype, mapping=mapping, batch=batch)
        return Tensor(self, var=var)

    # -- materialization ---------------------------------------------------------------------

    def _participating_tiles(self, expr: Expr):
        """Tiles that hold every leaf (sorted), and the distributed mapping
        (if any)."""
        dist_var = None
        tiles = None
        for leaf in expr.leaves():
            v = leaf.var
            tiles = (np.sort(v.tiles) if tiles is None
                     else np.intersect1d(tiles, v.tiles, assume_unique=True))
            if not v.is_scalar and not v.replicated:
                if dist_var is None:
                    dist_var = v
                elif len(v.mapping) != len(dist_var.mapping) or not v.maps(dist_var.mapping):
                    raise ValueError(
                        f"operands {dist_var.name!r} and {v.name!r} have different tile mappings"
                    )
        if tiles is None:  # constants only
            tiles = np.arange(self.device.num_tiles, dtype=np.int64)
        if not len(tiles):
            raise ValueError("expression has no common tile")
        return tiles, dist_var

    def materialize_expr(self, expr: Expr) -> Tensor:
        """Fuse ``expr`` into one codelet per tile writing a fresh variable."""
        tiles, dist_var = self._participating_tiles(expr)
        name = self.graph.unique_name("m")
        if dist_var is None:
            out = self.graph.add_replicated(
                name, expr.shape, expr.dtype, tile_ids=tiles, batch=expr.batch
            )
        else:
            mapping = dist_var.mapping[np.argsort(dist_var.tiles, kind="stable")]
            out = self.graph.add_variable(
                name, expr.shape, expr.dtype, mapping=mapping, batch=expr.batch
            )
        self._emit_elementwise(expr, out)
        return Tensor(self, var=out)

    def assign(self, var, expr: Expr) -> None:
        """Schedule ``expr`` to be evaluated into the existing ``var``."""
        self._emit_elementwise(expr, var)

    def _emit_elementwise(self, expr: Expr, out_var) -> None:
        cs = ComputeSet(self.graph.unique_name("cs"), category=category_for(expr.dtype))
        workers = self.device.spec.workers_per_tile
        # A replicated out_var can span more tiles than the operands (e.g. a
        # scalar on every device tile assigned from a reduction that lives
        # only on the matrix's tiles, when the matrix occupies a strict
        # subset of the device).  Emit only where every leaf has a shard;
        # off-tile replicas go stale, which is fine — scalar reads and all
        # distributed expressions resolve on the participating tiles.
        common = np.sort(out_var.tiles)
        for leaf in expr.leaves():
            common = np.intersect1d(common, leaf.var.tiles, assume_unique=True)
        if not len(common):
            raise ValueError(
                f"assignment into {out_var.name!r} has no tile holding every operand"
            )
        if expr.batch not in (1, out_var.batch):
            raise ValueError(
                f"cannot assign batch-{expr.batch} expression into "
                f"batch-{out_var.batch} variable {out_var.name!r}"
            )
        cs.add_group(elementwise_group(self.device.model, expr, out_var, workers, common))
        self.append(ExecuteStep(cs))

    # -- reductions ------------------------------------------------------------------------------

    def reduce_expr(self, expr: Expr, op: str = "sum") -> Tensor:
        """Global reduction (sum/max/min): per-tile partials → gather →
        combine → broadcast."""
        if op not in ("sum", "max", "min"):
            raise ValueError(f"unknown reduction op {op!r} (sum/max/min)")
        tiles, dist_var = self._participating_tiles(expr)
        if dist_var is None:
            # Scalar expression: "reducing" it is just materializing it.
            return self.materialize_expr(expr)
        tiles = np.sort(dist_var.tiles)
        dtype = expr.dtype
        batch = expr.batch
        workers = self.device.spec.workers_per_tile

        n = len(tiles)
        partials = self.graph.add_variable(
            self.graph.unique_name("part"),
            (n,),
            dtype,
            mapping=np.stack([tiles, np.arange(n), np.arange(1, n + 1)], axis=1),
            batch=batch,
        )
        cs = ComputeSet(self.graph.unique_name("cs_reduce"), category="reduce")
        cs.add_group(
            partial_reduce_group(self.device.model, expr, partials, workers, tiles, op=op)
        )
        self.append(ExecuteStep(cs))

        root = int(tiles[0])
        gathered = self.graph.add_single_tile(
            self.graph.unique_name("gath"), (n,), dtype, tile_id=root, batch=batch
        )
        # Gather: partial i (variable 0 on tile i's tile) -> element i of
        # ``gathered`` (variable 1 on the root), one copy per tile.
        gather = np.zeros((n, 8), dtype=np.int64)
        gather[:, [COPY, DST_OFFSET]] = np.arange(n)[:, None]
        gather[:, SRC_TILE] = tiles
        gather[:, [DST_VAR, DST_TILE, SIZE]] = (1, root, 1)
        self.append(Exchange(variables=(partials, gathered), table=gather))

        result = self.graph.add_replicated(
            self.graph.unique_name("red"), (), dtype, tile_ids=tiles, batch=batch
        )
        cs2 = ComputeSet(self.graph.unique_name("cs_combine"), category="reduce")
        cs2.add_vertex(combine_codelet(self.device.model, gathered, result, root, op=op), root, {})
        self.append(ExecuteStep(cs2))

        # Broadcast the scalar back to every participating tile: one copy,
        # a destination per other tile.
        if n > 1:
            broadcast = np.zeros((n - 1, 8), dtype=np.int64)
            broadcast[:, [SRC_TILE, SIZE]] = (root, 1)
            broadcast[:, DST_TILE] = tiles[1:]
            self.append(Exchange(variables=(result,), table=broadcast))
        return Tensor(self, var=result)

    def batch_reduce(self, tensor: Tensor, op: str = "max") -> Tensor:
        """Collapse the trailing batch axis of a replicated batched scalar
        into an unbatched scalar (``max``/``min`` over the RHS axis).

        Tile-local — every replica reduces its own copy, so unlike
        :meth:`reduce_expr` this emits no exchange.  The canonical use is
        the batched-Krylov loop condition: ``any RHS still active`` is
        ``batch_reduce(active, "max")``.
        """
        t = tensor.materialize()
        var = t.var
        if var.batch == 1:
            return t
        if not (var.replicated and var.is_scalar):
            raise ValueError("batch_reduce needs a replicated scalar tensor")
        tiles = np.sort(var.tiles)
        out = self.graph.add_replicated(
            self.graph.unique_name("bred"), (), var.dtype, tile_ids=tiles
        )
        cs = ComputeSet(self.graph.unique_name("cs_batchred"), category="reduce")
        cs.add_group(batch_reduce_group(self.device.model, var, out, tiles, op=op))
        self.append(ExecuteStep(cs))
        return Tensor(self, var=out)

    # -- control flow (the control-flow stack of Sec. III-B) ------------------------------------

    def _as_cond_var(self, cond) -> object:
        if isinstance(cond, Tensor):
            t = cond.materialize()
            if not t.var.is_scalar:
                raise ValueError("control-flow conditions must be scalar tensors")
            if t.var.batch > 1:
                raise ValueError(
                    "control-flow conditions must be unbatched — collapse the "
                    "batch axis first (ctx.batch_reduce)"
                )
            return t.var
        raise TypeError("condition must be a TensorDSL tensor")

    def If(self, cond, then_fn, else_fn=None) -> None:
        cond_var = self._as_cond_var(cond)
        then_seq = self._capture(then_fn)
        else_seq = self._capture(else_fn) if else_fn is not None else None
        self.append(IfStep(cond_var, then_seq, else_seq))

    def While(self, cond, body_fn, max_iterations: int = 100_000,
              label: str | None = None) -> None:
        """Run ``body_fn`` while the scalar ``cond`` tensor is nonzero.

        ``cond`` must be materialized; the body updates it via ``assign``
        (the ``terminate`` flag pattern of Fig. 4).  A ``label`` opens a
        profiler scope around the loop (Table IV path breakdown).
        """
        cond_var = self._as_cond_var(cond)
        body_seq = self._capture(body_fn)
        self.append(
            RepeatWhile(cond_var, body_seq, max_iterations=max_iterations, label=label)
        )

    def Repeat(self, count: int, body_fn, label: str | None = None) -> None:
        self.append(RepeatStep(count, self._capture(body_fn), label=label))

    @contextmanager
    def scope(self, name: str):
        """Append a labeled sequence: a named profiler scope for the steps
        generated inside the ``with`` block (per-phase Table IV paths)."""
        seq = Sequence(label=name)
        self.append(seq)
        self._stack.append(seq)
        try:
            yield self
        finally:
            self._stack.pop()

    def _capture(self, body_fn) -> Sequence:
        """Symbolically execute ``body_fn`` into a fresh schedule step."""
        seq = Sequence()
        self._stack.append(seq)
        try:
            body_fn()
        finally:
            self._stack.pop()
        return seq

    # -- CodeDSL bridge ---------------------------------------------------------------------------

    def Execute(self, tensors, fn) -> None:
        """Run a CodeDSL kernel over the shards of ``tensors`` on each tile.

        ``fn`` receives one :class:`~repro.codedsl.values.ArrayRef` per
        tensor and is symbolically executed once; the generated codelet runs
        on every tile that holds all the tensors' shards (tile-centric
        semantics: each tile sees only its own shard).
        """
        tensors = [t.materialize() for t in tensors]
        params = [f"p{i}" for i in range(len(tensors))]
        ir = CodeletIR(params=params)
        with ir:
            fn(*[ir.array(p) for p in params])
        compiled = ir.compile()
        tiles = sorted(set.intersection(*(set(t.var.tile_ids) for t in tensors)))
        if not tiles:
            raise ValueError("tensors share no tile")
        model = self.device.model
        cs = ComputeSet(self.graph.unique_name("cs_codedsl"), category="codedsl")
        for tile_id in tiles:
            bindings = {p: t.var.shard(tile_id).data for p, t in zip(params, tensors)}
            flops = estimate_flops(ir, bindings)

            def run(ctx, _b=bindings):
                compiled(**_b)

            def cycles(ctx, _f=flops):
                return model.vertex_overhead + _f * model.spec.f32_op_cycles

            codelet = Codelet(f"codedsl@{tile_id}", run, cycles, category="codedsl")
            cs.add_vertex(codelet, tile_id, {})
        self.append(ExecuteStep(cs))

    # -- host interaction -------------------------------------------------------------------------

    def callback(self, fn) -> None:
        """Insert a host callback (progress reporting, host I/O)."""
        self.append(HostCallback(fn))

    def print(self, label: str, tensor: Tensor | None = None) -> None:
        """Print a label (and optionally a scalar tensor's value) at runtime."""
        if tensor is not None:
            t = tensor.materialize()

            def fn(engine, _v=t.var, _l=label):
                print(f"{_l}: {engine.read_scalar(_v)}")

        else:

            def fn(engine, _l=label):
                print(_l)

        self.append(HostCallback(fn))

    # -- compilation & execution ------------------------------------------------------------------

    def compile(self, optimize: bool = True, passes=None) -> CompiledProgram:
        """Lower the constructed schedule through the pass pipeline.

        Returns the immutable :class:`CompiledProgram` artifact (optimized
        schedule + stats + pass report).  ``optimize=False`` freezes the raw
        schedule — the no-pass ablation baseline.  The source schedule is
        never mutated, so a context can be compiled repeatedly (e.g. with
        different pipelines) and extended afterwards.
        """
        return compile_program(self.graph, self.root, passes=passes, optimize=optimize)

    def run(self, optimize: bool = True, passes=None, backend="sim", tracer=None,
            injector=None) -> Engine:
        """Compile the generated schedule and execute it on the machine model.

        ``backend`` selects the runtime: ``"sim"`` (cycle-accurate, the
        default) or ``"fused"`` (bit-identical numerics from whole-device
        kernels, no cycle accounting) — see ``docs/runtime.md``.  ``tracer`` attaches a
        :class:`~repro.telemetry.Tracer` to the backend
        (``docs/observability.md``); ``injector`` attaches a
        :class:`~repro.faults.FaultInjector` (``docs/resilience.md``);
        both require the sim backend.
        """
        engine = Engine(
            self.compile(optimize=optimize, passes=passes), backend=backend,
            tracer=tracer, injector=injector,
        )
        engine.run()
        return engine
