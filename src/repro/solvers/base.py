"""Solver framework (Sec. V).

Every solver implements the same two-phase interface:

- :meth:`Solver.setup` — one-time work appended to the schedule before the
  solve (e.g. the (D)ILU factorization, level-set analysis),
- :meth:`Solver.solve_into` — appends the program steps that (approximately)
  solve ``A x = b`` into ``x``.

The modular design is the paper's key framework feature: *any* solver can
serve as the preconditioner of another (``preconditioner.solve(p)`` inside
PBiCGStab is just a nested ``solve_into``), enabling arbitrarily nested
configurations driven by a JSON file (:mod:`repro.solvers.config`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import mul

import numpy as np

from repro.graph.program import ScalarReads
from repro.sparse.distribute import DistVector, DistributedMatrix
from repro.tensordsl.tensor import ContextRef

__all__ = ["Solver", "SolveStats", "SolveProgress"]


@dataclass(frozen=True)
class SolveProgress:
    """One live progress sample from a running solve.

    Emitted through the ``on_progress`` callback of
    :func:`repro.solvers.api.solve` every ``progress_every`` recorded
    iterations, while the device program is still running.
    """

    #: Cumulative (inner) iteration count at this sample.
    iteration: int
    #: Relative residual ``||r|| / ||b||`` at this sample (for a batched
    #: solve: the worst still-active column).
    relative_residual: float
    #: Host wall-clock seconds since the solve call started.
    wall_seconds: float
    #: Number of RHS columns still iterating (1 for single-RHS solves).
    active_columns: int = 1


def _graph_var(obj):
    """Resolve a DistVector / Tensor / Variable to its graph Variable."""
    obj = getattr(obj, "owned", obj)
    return getattr(obj, "var", obj)


class SolveStats:
    """Host-side convergence record filled in by runtime callbacks."""

    def __init__(self):
        #: Relative residual after each recorded iteration.
        self.residuals: list[float] = []
        #: Cumulative (inner) iteration count at each record.
        self.iterations: list[int] = []
        #: Modeled device cycles at each record — the x-axis of the
        #: residual-vs-cycles convergence telemetry (zero under backends
        #: without a cycle model).
        self.cycles: list[int] = []
        #: Why the solve stopped short of its tolerance, or ``None`` when it
        #: converged: "max_iterations", "breakdown", "nan_residual",
        #: "stagnation", "divergence", "silent_corruption".
        self.failure: str | None = None
        #: Optional live-progress hook ``fn(iteration, relative_residual,
        #: active_columns)`` fired by every :meth:`record` — the seam the
        #: solve API uses for ``on_progress`` (docs/observability.md).
        #: ``None`` costs one attribute check per recorded iteration.
        self.progress = None
        #: Optional per-iteration hook ``fn(iteration)`` fired on *every*
        #: iteration — by :meth:`record` when history is kept, and by the
        #: solver's tick callback (:meth:`Solver._emit_history`)
        #: when ``record_history=False`` leaves no record.  This is the
        #: deadline-enforcement seam: unlike ``progress`` it is installed
        #: on every member of the solver tree, so an MPIR inner burst or a
        #: history-less loop cannot overshoot ``max_wall_seconds``.
        self.tick = None

    def record(
        self,
        iteration: int,
        relative_residual: float,
        cycles: int = 0,
        active: int | None = None,
    ) -> None:
        self.iterations.append(int(iteration))
        self.residuals.append(float(relative_residual))
        self.cycles.append(int(cycles))
        if self.tick is not None:
            self.tick(int(iteration))
        if self.progress is not None:
            self.progress(int(iteration), float(relative_residual),
                          1 if active is None else int(active))

    def extend(self, iterations, residuals, cycles: int = 0) -> None:
        """Append the records :meth:`record` appends one by one, firing no
        hook — how a loop run as one native table hands its history over,
        which it does only while neither hook is set
        (:meth:`Solver._emit_history`)."""
        self.iterations.extend(map(int, iterations))
        self.residuals.extend(map(float, residuals))
        self.cycles.extend([int(cycles)] * len(residuals))

    def reset(self) -> None:
        """Clear the record *in place* for a fresh run of the same program.

        Runtime callbacks close over this object, so a reusable solve
        session (:mod:`repro.solvers.session`) must empty it rather than
        replace it.
        """
        self.residuals.clear()
        self.iterations.clear()
        self.cycles.clear()
        self.failure = None
        self.progress = None
        self.tick = None

    def copy(self) -> "SolveStats":
        """Detached snapshot — what a cached-session solve hands back to the
        caller so the next run's :meth:`reset` cannot mutate their result."""
        out = SolveStats()
        out.residuals = list(self.residuals)
        out.iterations = list(self.iterations)
        out.cycles = list(self.cycles)
        out.failure = self.failure
        return out

    def residual_series(self) -> list:
        """``(cycles, iteration, relative_residual)`` triples, in order."""
        return list(zip(self.cycles, self.iterations, self.residuals))

    @property
    def final_residual(self) -> float:
        return self.residuals[-1] if self.residuals else float("nan")

    @property
    def total_iterations(self) -> int:
        return self.iterations[-1] if self.iterations else 0

    def __repr__(self):
        failure = f", failure={self.failure!r}" if self.failure is not None else ""
        return (
            f"SolveStats(iterations={self.total_iterations}, "
            f"final_residual={self.final_residual:.3e}{failure})"
        )


class Solver:
    """Base class: a (possibly approximate) linear solver for one matrix."""

    name = "base"

    ctx = ContextRef()

    #: Whether :meth:`solve_into` accepts multi-RHS (batched) vectors.
    #: Batched Krylov solves (docs/solvers.md) require every solver in the
    #: nested config tree to opt in.
    supports_batch = False

    #: Whether a batched solve rooted at this solver keeps one
    #: :class:`SolveStats` per column (``batch_stats``, filled by
    #: :meth:`_active_flags`).  The serve batcher and ``repro batch`` hand
    #: those records back per right-hand side, so they batch only such roots.
    keeps_batch_stats = False

    #: Print the relative residual from a CPU callback every ``verbose``
    #: iterations (Sec. III-A step 4: "we use CPU callbacks to inform the
    #: user about the solver's progress"); 0 disables.
    verbose = 0

    def __init__(self, A: DistributedMatrix, **params):
        self.A = A
        self.ctx = A.ctx
        self.params = params
        self.stats = SolveStats()
        #: Per-RHS convergence records for a batched solve (one
        #: :class:`SolveStats` per RHS column), ``None`` otherwise.
        self.batch_stats: list | None = None
        self._setup_done = False
        #: ResilienceMonitor when the resilient solve driver is active
        #: (:mod:`repro.solvers.resilience`); ``None`` costs nothing.
        self._monitor = None

    # -- lifecycle ------------------------------------------------------------------

    def setup(self) -> None:
        """Append one-time setup steps (idempotent)."""
        if self._setup_done:
            return
        self._setup()
        self._setup_done = True

    def _setup(self) -> None:  # pragma: no cover - trivial default
        pass

    def solve_into(self, x: DistVector, b: DistVector) -> None:
        """Append steps computing ``x ≈ A⁻¹ b`` (x's content = initial guess)."""
        raise NotImplementedError

    def iter_tree(self):
        """Yield this solver and every nested sub-solver (preconditioners,
        MPIR inner solvers, multigrid smoothers...), depth-first.  The solve
        session resets the whole tree's :class:`SolveStats` between runs."""
        yield self
        for value in vars(self).values():
            if isinstance(value, Solver):
                yield from value.iter_tree()
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Solver):
                        yield from item.iter_tree()

    # -- resilience (docs/resilience.md) ------------------------------------------------

    def enable_resilience(self, monitor) -> None:
        """Attach a :class:`~repro.solvers.resilience.ResilienceMonitor`.

        Must happen *before* :meth:`solve_into` — the per-iteration
        detection callback is appended to the schedule during symbolic
        execution.
        """
        self._monitor = monitor
        monitor.solver = self

    def post_restore(self) -> None:
        """Hook after a checkpoint restore; solvers whose program prologue
        would clobber restored state (e.g. MPIR re-widening x into x_ext)
        override this to reconcile it."""

    def _emit_resilience(self, it, rnorm2, checkpoint_vars: dict) -> None:
        """Append the per-iteration detection/checkpoint callback (no-op
        without a monitor).  ``checkpoint_vars`` names the solver state the
        monitor snapshots (e.g. ``{"x": x, "r": r, "p": p, "rho": rho}``)."""
        monitor = self._monitor
        if monitor is None:
            return
        for name, obj in checkpoint_vars.items():
            monitor.register(name, _graph_var(obj))

        def cb(engine, _i=it.var, _r=rnorm2.var):
            monitor.observe(engine, int(engine.read_scalar(_i)), engine.read_scalar(_r))

        self.ctx.callback(cb)

    def classify_failure(self, engine) -> str | None:
        """Why this solve fell short of its tolerance (``None`` = it didn't).

        Trusts the device-tracked residual history: the solve's own record
        for one RHS, each column's for a batch (which also fills every
        ``batch_stats[j].failure`` and returns the first column failure as
        the verdict).  Krylov solvers expose ``_rho_var``/``_breakdown``, so
        a column that ran out of iterations with a collapsed rho is a
        "breakdown".
        """
        tol = getattr(self, "tol", None)
        if tol is None:
            return None
        rho_var = getattr(self, "_rho_var", None)
        rho = engine.read_batch(rho_var).tolist() if rho_var is not None else []
        breakdown = getattr(self, "_breakdown", 0.0)
        bnorm2 = getattr(self, "_bnorm2_host", ())
        failures = []
        for j, st in enumerate(self.batch_stats or [self.stats]):
            f = self._classify_stats(st, tol)
            if j < len(bnorm2) and not math.isfinite(bnorm2[j]):
                f = "nan_residual"  # float32 ‖b‖² overflowed: no residual measures against it
            elif f == "max_iterations" and j < len(rho) and not abs(rho[j]) > breakdown:
                f = "breakdown"  # rho collapsed, or went NaN
            failures.append(f)
        for st, f in zip(self.batch_stats or (), failures):
            st.failure = f
        return next((f for f in failures if f is not None), None)

    @staticmethod
    def _classify_stats(stats: SolveStats, tol: float) -> str | None:
        """Classification of one residual history against ``tol`` (shared
        between the aggregate record and each per-RHS record)."""
        if not stats.residuals:
            return None
        final = stats.final_residual
        if math.isnan(final) or math.isinf(final):
            return "nan_residual"
        if final <= tol:
            return None
        return "max_iterations"

    # -- shared helpers -----------------------------------------------------------------

    def workspace(self, tag: str, dtype: str = "float32", batch: int = 1) -> DistVector:
        """Allocate a solver-owned distributed temporary."""
        return self.A.vector(
            name=self.ctx.graph.unique_name(f"{self.name}.{tag}"), dtype=dtype, batch=batch
        )

    # -- one recurrence for one RHS or a batch (docs/solvers.md) ------------------------
    #
    # A Krylov ``solve_into`` builds its recurrence once.  For a batch the
    # helpers below add per-column masking; for one RHS (``active is None``)
    # they emit exactly the single-RHS program.

    def _active_flags(self, batch: int):
        """Per-column ``active`` flags and per-column records for a batch;
        ``None`` (and no records) for one RHS."""
        if batch == 1:
            self.batch_stats = None
            return None
        self.batch_stats = [SolveStats() for _ in range(batch)]
        return self.ctx.scalar(1.0, batch=batch)

    @staticmethod
    def _safe(d):
        """Guard a scalar divisor against exact zero: an exactly-zero
        divisor becomes ``1e30``, so its quotient is negligible (``|n| /
        1e30``, never an overflow) and the step along that direction is
        skipped — a BiCGStab ``r0·v == 0`` then gives ``beta ≈ 0``, which
        restarts ``p = r``.  A tiny divisor instead (``1e-30``) turned the
        quotient into a 1e26 step that overflowed the iterate."""
        return d + d.eq(0.0) * 1e30

    @staticmethod
    def _frozen(active, new, old):
        """Mask-combine for an update with no scalar to mask (``p`` adds an
        unscaled vector): ``new`` in active columns, ``old`` in frozen ones."""
        return new if active is None else new * active + old * (1.0 - active)

    def _set_cont(self, cont, active, *conditions, start: bool = False) -> None:
        """Loop flag: ``cont`` = all ``conditions`` hold, for one RHS.  For a
        batch each column stays ``active`` while its conditions hold (``start``
        opens every column afresh), and ``cont`` = any column active — a
        tile-local collapse that adds no exchange."""
        if active is None:
            cont.assign(reduce(mul, conditions))
            return
        active.assign(reduce(mul, conditions) if start else reduce(mul, conditions, active))
        cont.assign(self.ctx.batch_reduce(active, "max"))

    def _read_bnorm2(self, bnorm2) -> list:
        """Append a callback reading ``‖b‖²`` (floored at 1e-300) back to the
        host, one Python float per column; returns the list it fills, which
        :meth:`classify_failure` also reads: a column whose float32 ``‖b‖²``
        is not finite is a ``"nan_residual"``."""
        host: list = []

        def cb(engine, _v=bnorm2.var):
            host[:] = [max(v, 1e-300) for v in engine.read_batch(_v).tolist()]

        self.ctx.callback(cb)
        self._bnorm2_host = host
        return host

    @staticmethod
    def _relative(rnorm2, bnorm2_host):
        """``fn(engine)`` → the per-column relative residuals, Python floats
        through ``** 0.5`` (libm pow and IEEE sqrt can differ by one ulp; one
        RHS always used pow, so every column does too)."""
        var = rnorm2.var
        if var.batch == 1:  # the per-iteration host path of every solo solve
            return lambda engine: [(max(engine.read_scalar(var), 0.0) / bnorm2_host[0]) ** 0.5]
        return lambda engine: [(max(r, 0.0) / b2) ** 0.5
                               for r, b2 in zip(engine.read_batch(var).tolist(), bnorm2_host)]

    def _emit_history(self, it, rnorm2, bnorm2_host, active=None) -> None:
        """Append the per-iteration history callback.

        A batch reads the at-start ``active`` flags, so a column records
        exactly the iterations in which it advanced — the history its
        single-RHS solve would have.  Without ``record_history`` the callback
        only fires ``stats.tick``, so the deadline seam exists even when
        nothing is recorded (:meth:`SolveStats.record` fires it otherwise);
        an unset hook makes it a no-op, so the program is the same whether
        or not a deadline is later installed.

        One RHS's callback declares what it reads (:class:`ScalarReads`):
        ``it`` and ``rnorm2``, or nothing without ``record_history``.  While
        no hook is set, a loop around it may then run as one native table,
        and the loop's records are appended after it in one
        :meth:`SolveStats.extend` (:mod:`repro.graph.loops`).
        """
        stats, columns = self.stats, self.batch_stats
        if not self.record_history:

            def tick(engine, _i=it.var):
                hook = stats.tick
                if hook is not None:
                    hook(int(engine.read_scalar(_i)))

            self.ctx.callback(tick, reads=ScalarReads(
                (), lambda: stats.tick is not None, lambda engine: None))
            return
        relative = self._relative(rnorm2, bnorm2_host)
        reads = None
        if active is None and rnorm2.var.batch == 1:

            def replay(engine, iterations, rnorm2s):
                b2 = bnorm2_host[0]  # the per-iteration path's expression, per element
                stats.extend(iterations, [(max(r, 0.0) / b2) ** 0.5 for r in rnorm2s],
                             engine.profiler.total_cycles)

            reads = ScalarReads((it.var, rnorm2.var),
                                lambda: stats.tick is not None or stats.progress is not None,
                                replay)

        def record(engine, _i=it.var):
            i = int(engine.read_scalar(_i))
            rel = relative(engine)
            cyc = engine.profiler.total_cycles
            if active is None:
                stats.record(i, rel[0], cycles=cyc)
                return
            act = engine.read_batch(active.var)
            stats.record(i, max(rel), cycles=cyc, active=int(np.count_nonzero(act)))
            for j, st in enumerate(columns):
                if act[j] != 0.0:
                    st.record(i, rel[j], cycles=cyc)

        self.ctx.callback(record, reads=reads)

    def _emit_verbose(self, it, rnorm2, bnorm2_host, active=None, every: int = 1,
                      step: str = "iteration") -> None:
        """Append a callback printing the relative residual every ``every``
        steps (for a batch: the worst column and how many are active)."""
        relative = self._relative(rnorm2, bnorm2_host)

        def progress(engine, _i=it.var):
            i = int(engine.read_scalar(_i))
            if i % every:
                return
            rel = max(relative(engine))
            if active is None:
                print(f"[{self.name}] {step} {i}: relative residual {rel:.3e}")
                return
            act = engine.read_batch(active.var)
            print(f"[{self.name}] {step} {i}: worst relative residual {rel:.3e} "
                  f"({np.count_nonzero(act)}/{len(act)} RHS still active)")

        self.ctx.callback(progress)

    def _end_iteration(self, cont, active, conditions, it, rnorm2, bnorm2_host,
                       checkpoint_vars: dict) -> None:
        """The iteration tail.  One RHS sets ``cont``, then reports
        (resilience, history, ``verbose``); a batch reports first, from the
        at-start ``active`` flags, then masks.  A host callback ends a fused
        kernel, so each order is part of its program."""
        if active is None:
            self._set_cont(cont, None, *conditions)
            self._emit_resilience(it, rnorm2, checkpoint_vars)
        self._emit_history(it, rnorm2, bnorm2_host, active)
        if self.verbose:
            self._emit_verbose(it, rnorm2, bnorm2_host, active, every=self.verbose)
        if active is not None:
            self._set_cont(cont, active, *conditions)

    def _iterate(self, cont, body) -> None:
        """Launch the loop: ``fixed_iterations`` runs a fixed burst that still
        takes the early exits (``Repeat`` of ``If``, MPIR's inner solve and
        preconditioner use), else ``While`` up to ``max_iterations``."""
        ctx = self.ctx
        if self.fixed_iterations is not None:
            ctx.Repeat(self.fixed_iterations, lambda: ctx.If(cont, body),
                       label=f"{self.name}.iterate")
        else:
            ctx.While(cont, body, max_iterations=self.max_iterations,
                      label=f"{self.name}.iterate")

    def __repr__(self):
        return f"{type(self).__name__}({self.params})"
