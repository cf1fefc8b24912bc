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

import numpy as np

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
        #: solver's dedicated tick callback (:meth:`Solver._emit_tick`)
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

        The base classification trusts the device-tracked residual history;
        Krylov subclasses refine "max_iterations" into "breakdown" when
        their rho collapsed.
        """
        tol = getattr(self, "tol", None)
        if tol is None:
            return None
        return self._classify_stats(self.stats, tol)

    def _classify_batched(self, engine) -> str | None:
        """Per-RHS failure classification for a batched solve.

        Fills each ``batch_stats[j].failure`` and returns the first non-None
        per-column failure as the aggregate verdict (``None`` = every RHS
        converged).  Krylov solvers expose ``_rho_var``/``_breakdown`` so a
        stalled column with a collapsed rho classifies as "breakdown", same
        as the single-RHS path.
        """
        tol = getattr(self, "tol", None)
        if tol is None or not self.batch_stats:
            return None
        rho = None
        rho_var = getattr(self, "_rho_var", None)
        if rho_var is not None:
            rho = engine.read_batch(rho_var)
        breakdown = getattr(self, "_breakdown", 0.0)
        failures = []
        for j, st in enumerate(self.batch_stats):
            f = self._classify_stats(st, tol)
            if f == "max_iterations" and rho is not None and j < len(rho):
                rj = float(rho[j])
                if rj != rj or abs(rj) <= breakdown:
                    f = "breakdown"
            st.failure = f
            failures.append(f)
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

    def _emit_tick(self, it) -> None:
        """Append a per-iteration host callback firing ``stats.tick``.

        Iteration bodies call this on their ``record_history=False`` path
        so the deadline seam exists even when nothing is recorded
        (:meth:`SolveStats.record` fires the hook itself otherwise).  An
        unset hook makes the callback a no-op, so the emitted program is
        identical whether or not a deadline is later installed.
        """
        stats = self.stats

        def cb(engine, _i=it.var):
            hook = stats.tick
            if hook is not None:
                hook(int(engine.read_scalar(_i)))

        self.ctx.callback(cb)

    def record_residual_callback(self, iter_counter, rnorm2_tensor, bnorm2: float):
        """Host callback factory: log sqrt(rnorm²)/||b|| into ``self.stats``."""
        stats = self.stats
        scale = 1.0 / np.sqrt(bnorm2) if bnorm2 > 0 else 1.0

        def cb(engine):
            r2 = max(engine.read_scalar(rnorm2_tensor.var), 0.0)
            counted = iter_counter is not None
            it = engine.read_scalar(iter_counter.var) if counted else len(stats.residuals)
            stats.record(int(it), np.sqrt(r2) * scale, cycles=engine.profiler.total_cycles)

        return cb

    def __repr__(self):
        return f"{type(self).__name__}({self.params})"
