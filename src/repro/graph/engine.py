"""The engine: a control-flow interpreter over a compiled program.

This is the analogue of ``poplar::Engine`` loading a compiled executable.
The engine owns *only* control flow — ``Sequence`` / ``Repeat`` /
``RepeatWhile`` / ``If`` / ``HostCallback`` — plus the host data interface;
compute and exchange phases are delegated to the runtime backend
(:mod:`repro.graph.runtime`).  With the default ``backend="sim"`` the
cycle clock observes the run, and execution is deterministic: the same
program on the same inputs always produces the same results *and the same
cycle counts*, mirroring the measurement methodology of Sec. VI-A.
``backend="fused"`` produces bit-identical results from the same
whole-device kernels, without the clock.

Blocks run as the compiled program's fused kernels unless a cycle tracer
or a fault injector is attached: those observe each superstep, so the
engine then steps compute sets and exchanges one by one.  On an unobserved
``fused`` run a loop whose body is native runs as one table instead
(:mod:`repro.graph.loops`), folded on its first such launch; everything
else — and any loop a clock, tracer, hook or non-native item observes —
runs in the Python loop below.  The engine tallies what it launched per run
(:meth:`Engine.kernel_counters`), a folded loop's launches included.
"""

from __future__ import annotations

import numpy as np

from repro.graph.passes.base import CompiledProgram
from repro.graph.passes.kernels import FusedKernel
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
from repro.graph.runtime import CONTROL_CYCLES, Backend
from repro.graph.variable import Variable

__all__ = ["Engine", "CONTROL_CYCLES"]

_UNFOLDED = object()


class Engine:
    """Executes a :class:`CompiledProgram` on the runtime backend.

    The only supported construction is ``Engine(compiled_program)`` followed
    by ``engine.run()`` — the engine only ever sees schedules the pass
    pipeline has lowered into plans, like ``poplar::Engine`` only ever loads
    compiled executables.  ``backend`` names the runtime: ``"sim"``
    (cycle-accurate, the default) or ``"fused"`` (whole-device kernels,
    numerics only).
    """

    def __init__(self, program: CompiledProgram, backend="sim", tracer=None,
                 injector=None, wall_tracer=None):
        if not isinstance(program, CompiledProgram):
            raise TypeError(
                "Engine expects a CompiledProgram; lower raw schedules with "
                "compile_program(graph, root) (or optimize=False to freeze "
                "them as-is) before constructing an engine"
            )
        self.compiled = program
        self.graph = program.graph
        self.device = self.graph.device
        self.profiler = self.device.profiler
        self.backend = Backend(backend)
        self.backend.bind(program, self.device)
        self.backend.attach(tracer=tracer, injector=injector, wall_tracer=wall_tracer)
        self.tracer = tracer
        # Whole blocks launch as fused kernels, unless a cycle-domain observer
        # needs every superstep (``fused`` refuses those observers in attach).
        stepped = tracer is not None or injector is not None
        self._kernel_schedule = None if stepped else program.kernels
        # Loops run as one native table only when nothing observes them.
        self._folds = (None if stepped or self.backend.clock is not None
                       or wall_tracer is not None else program.kernels.loops)
        # Execution statistics (compile-proxy counters live in compiler.py),
        # kept per engine so concurrent runs never see each other's.
        self.supersteps = 0
        self.exchanges = 0
        self.kernels = 0
        self.fused_compute_sets = 0
        self.fused_exchanges = 0
        self.fallback_vertices = 0
        self.host_callbacks = 0
        self.loop_iterations = 0
        # The storage each scalar is read from, found once per variable: a
        # loop test reads the same few scalars every iteration.
        self._reading: dict = {}

    # -- host data interface ---------------------------------------------------------

    def read(self, var: Variable) -> np.ndarray:
        return var.gather()

    def write(self, var: Variable, values) -> None:
        var.scatter(values)

    def read_scalar(self, var: Variable) -> float:
        if not var.is_scalar:
            raise ValueError(f"{var.name!r} is not a scalar")
        if var.batch > 1:
            raise ValueError(
                f"{var.name!r} carries {var.batch} RHS values; use read_batch"
            )
        data, lo = self._scalar_views(var)
        val = float(data[0])
        if lo is not None:
            val += float(lo[0])
        return val

    def read_batch(self, var: Variable) -> np.ndarray:
        """Per-RHS values of a (possibly batched) scalar, shape ``(batch,)``."""
        if not var.is_scalar:
            raise ValueError(f"{var.name!r} is not a scalar")
        data, lo = self._scalar_views(var)
        row = np.asarray(data[0], dtype=np.float64)
        if lo is not None:
            row = row + np.asarray(lo[0], dtype=np.float64)
        return np.atleast_1d(row)

    def _scalar_views(self, var: Variable) -> tuple:
        """``(hi, lo)``: views of the scalar's storage on its lowest-numbered
        tile — a replica's row, or the one element (a variable's storage
        is fixed once allocated)."""
        views = self._reading.get(var)
        if views is None:
            at = int(var.rows_of(var.tiles.min())) if var.replicated else slice(None)
            lo = None if var.flat_lo is None else var.flat_lo[at]
            views = self._reading[var] = (var.flat_data[at], lo)
        return views

    def kernel_counters(self) -> dict:
        """What this engine's runs launched: fused-kernel launches, host
        dispatches (every dispatch is a launch, so ``dispatches ==
        kernels``), the Execute / Exchange steps whose work ran inside a
        kernel, and the per-vertex ``run()`` calls inside kernels for
        compute sets the lowerer could not vectorize.  A stepped run
        launches nothing."""
        return {
            "kernels": self.kernels,
            "dispatches": self.kernels,
            "fused_compute_sets": self.fused_compute_sets,
            "fused_exchanges": self.fused_exchanges,
            "fallback_vertices": self.fallback_vertices,
        }

    # -- execution ---------------------------------------------------------------------

    def run(self) -> None:
        """Execute the compiled program's root step.  Device arithmetic is
        IEEE arithmetic without traps: an overflow or a NaN is a value the
        solver's checks classify, so the numpy forms of the ops warn no more
        than their native forms do."""
        root = self.compiled.root
        with np.errstate(all="ignore"):
            if self._kernel_schedule is not None and isinstance(root, (Execute, Exchange)):
                # A bare-step root has no enclosing block; launched as
                # kernels, it runs as the one-kernel item list lowered for it.
                self._run_block(root)
            else:
                self._run_step(root)
        if self.tracer is not None:
            self.tracer.finalize()

    def _run_kernel_items(self, step: Step) -> bool:
        """Replay a block's fused-kernel item list, if one applies.

        Unless the run is stepped for a cycle-domain observer, a block
        (``Sequence``, loop body, branch body) executes as its lowered items
        — fused kernels launch as single dispatches, with engine
        superstep/exchange statistics kept in parity via the kernels'
        absorbed-step counts.  Returns False when the block must be
        interpreted step by step instead.
        """
        if self._kernel_schedule is None:
            return False
        items = self._kernel_schedule.items_for(step)
        if items is None:
            return False
        for item in items:
            if isinstance(item, FusedKernel):
                self.supersteps += item.n_compute
                self.exchanges += item.n_exchange
                self.kernels += 1
                self.fused_compute_sets += item.n_compute
                self.fused_exchanges += item.n_exchange
                self.fallback_vertices += item.n_fallback
                self.backend.run_kernel(item)
            else:
                self._run_step(item)
        return True

    def _run_block(self, step: Step) -> None:
        """Run a loop/branch body: fused items when available, else interpret."""
        if not self._run_kernel_items(step):
            self._run_step(step)

    def _run_step(self, step: Step) -> None:
        if isinstance(step, Sequence):
            if step.label is not None:
                with self.backend.scope(step.label):
                    if not self._run_kernel_items(step):
                        for s in step.steps:
                            self._run_step(s)
            elif not self._run_kernel_items(step):
                for s in step.steps:
                    self._run_step(s)
        elif isinstance(step, Execute):
            self.supersteps += 1
            self.backend.run_compute_set(step)
        elif isinstance(step, Exchange):
            self.exchanges += 1
            self.backend.run_exchange(step)
        elif isinstance(step, Repeat):
            if step.label is not None:
                with self.backend.scope(step.label):
                    self._run_repeat(step)
            else:
                self._run_repeat(step)
        elif isinstance(step, RepeatWhile):
            if step.label is not None:
                with self.backend.scope(step.label):
                    self._run_repeat_while(step)
            else:
                self._run_repeat_while(step)
        elif isinstance(step, If):
            self.backend.control()
            if self.read_scalar(step.cond) != 0.0:
                self._run_block(step.then_body)
            elif step.else_body is not None:
                self._run_block(step.else_body)
        elif isinstance(step, HostCallback):
            self.host_callbacks += 1
            step.fn(self)
        else:
            raise TypeError(f"unknown program step: {step!r}")

    # -- loops -------------------------------------------------------------------------

    def _run_native_loop(self, step) -> bool:
        """Run ``step`` as its folded table, when it folds and nothing
        observes it; False when the Python loop must run it."""
        if self._folds is None:
            return False
        loop = self._folds.get(id(step), _UNFOLDED)
        if loop is _UNFOLDED:
            from repro.graph.loops import fold_loop

            loop = self._folds[id(step)] = fold_loop(self._kernel_schedule, step,
                                                     self._scalar_views)
        if loop is None or loop.observed():
            return False
        loop.run(self)
        return True

    def _run_repeat(self, step: Repeat) -> None:
        if self._run_native_loop(step):
            return
        for _ in range(step.count):
            self.loop_iterations += 1
            self.backend.control()
            self._run_block(step.body)

    def _run_repeat_while(self, step: RepeatWhile) -> None:
        if self._run_native_loop(step):
            return
        iters = 0
        while True:
            if step.check_before_first or iters > 0:
                self.backend.control()
                if self.read_scalar(step.cond) == 0.0:
                    break
            if iters >= step.max_iterations:
                break
            iters += 1
            self.loop_iterations += 1
            self._run_block(step.body)
