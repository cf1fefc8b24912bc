"""Top-level convenience API: one call from matrix to solution.

Wraps the whole pipeline — device, context, distribution, halo reordering,
solver construction from JSON, symbolic execution, graph compilation, and
concrete execution — behind :func:`solve`.  Examples and benchmarks go
through this entry point.  The schedule is lowered exactly once through the
pass pipeline (:mod:`repro.graph.passes`) into a
:class:`~repro.graph.CompiledProgram`, which the engine executes;
:func:`compile_solve` stops after lowering, for compile-report inspection.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.errors import (
    DivergenceError,
    JobTimeoutError,
    ReproError,
    SolverBreakdownError,
    SRAMOverflowError,
)
from repro.graph import CompiledProgram, Engine, GlobalCounters
from repro.graph.runtime import check_observers
from repro.machine import IPUDevice
from repro.solvers.base import SolveProgress, SolveStats
from repro.solvers.config import build_solver
from repro.solvers.resilience import (
    ResilienceConfig,
    ResilienceMonitor,
    ResilienceReport,
    RollbackSignal,
)
from repro.solvers.session import CompiledSolve, fingerprint_solve, resolve_cache
from repro.sparse.crs import ModifiedCRS
from repro.sparse.distribute import DistributedMatrix
from repro.tensordsl import TensorContext, Type

__all__ = ["solve", "compile_solve", "SolveResult"]


@dataclass
class SolveResult:
    """Everything a caller needs after a solve."""

    x: np.ndarray  # solution in the original row order (best precision available)
    stats: SolveStats
    cycles: int
    seconds: float  # modeled wall-clock on the IPU
    relative_residual: float  # true ||b - Ax|| / ||b|| computed on the host in f64
    #: Number of RHS columns solved simultaneously (1 = classic solve).
    #: Batched solves return ``x`` with shape ``(batch, n)`` plus per-RHS
    #: ``batch_stats`` / ``relative_residuals``.
    batch: int = 1
    batch_stats: list | None = None  # per-RHS SolveStats when batch > 1
    relative_residuals: list | None = None  # per-RHS true residuals when batch > 1
    energy_j: float = 0.0  # modeled energy at the paper's measured power draw
    profile: dict = field(default_factory=dict)  # profiler category fractions
    engine: object = None
    solver: object = None
    compiled: CompiledProgram | None = None  # the executed program artifact
    backend: str = "sim"  # runtime backend the program executed on
    telemetry: object = None  # Tracer when solve(..., trace=...) was used
    #: ResilienceReport when faults and/or resilience were active, else None.
    resilience: object = None
    #: :class:`~repro.graph.GlobalCounters` delta for this solve (kernel
    #: launches, dispatches, fused/fallback breakdown) when the backend
    #: dispatches fused kernels (``backend="fused"``), else None.
    kernel_counters: dict | None = None
    #: Measured host wall-clock seconds for the whole solve call, recorded
    #: on every backend (contrast ``seconds``, which is the sim backend's
    #: *modeled* device time and reads zero elsewhere).
    wall_seconds: float = 0.0
    #: Aggregated per-kernel wall profile (:meth:`WallTracer.profile`) when
    #: wall tracing or metrics were enabled, else None.
    wall_profile: dict | None = None
    #: :class:`~repro.telemetry.WallTracer` when ``wall_trace``/``metrics``
    #: was used (wall-domain events + exporters), else None.
    wall_telemetry: object = None
    #: :class:`~repro.telemetry.MetricsRegistry` when ``metrics`` was used.
    metrics: object = None

    @property
    def iterations(self) -> int:
        return self.stats.total_iterations

    @property
    def failure(self) -> str | None:
        """Why the solve fell short of its tolerance (None = converged)."""
        return self.stats.failure

    @property
    def compile_stats(self):
        """Optimized-schedule :class:`GraphStats` (None on legacy results)."""
        return self.compiled.stats if self.compiled is not None else None

    @property
    def compile_report(self) -> str:
        return self.compiled.report.render() if self.compiled is not None else ""

    def __repr__(self):
        timing = (
            f"cycles={self.cycles}, seconds={self.seconds:.3e}, "
            f"energy_j={self.energy_j:.3e}"
            if self.backend == "sim"
            else f"backend={self.backend!r}"
        )
        failure = f", failure={self.failure!r}" if self.failure is not None else ""
        n = self.x.shape[-1] if self.x.ndim > 1 else len(self.x)
        batched = f", batch={self.batch}" if self.batch > 1 else ""
        return (
            f"SolveResult(n={n}{batched}, iterations={self.iterations}, "
            f"relative_residual={self.relative_residual:.3e}, {timing}{failure})"
        )


def _build_program(
    matrix: ModifiedCRS,
    b: np.ndarray,
    config,
    num_ipus: int = 1,
    tiles_per_ipu: int = 16,
    num_tiles: int | None = None,
    grid_dims=None,
    x0: np.ndarray | None = None,
    device: IPUDevice | None = None,
    blockwise_halo: bool = True,
    monitor=None,
    batch: int = 1,
):
    """Construct the full solver schedule; shared by solve/compile_solve."""
    if device is None:
        device = IPUDevice(num_ipus=num_ipus, tiles_per_ipu=tiles_per_ipu)
    ctx = TensorContext(device)
    A = DistributedMatrix(
        ctx, matrix, num_tiles=num_tiles, grid_dims=grid_dims, blockwise=blockwise_halo
    )
    solver = build_solver(A, config)
    if batch > 1:
        unsupported = sorted(
            {s.name for s in solver.iter_tree() if not s.supports_batch}
        )
        if unsupported:
            raise ReproError(
                f"batched solves (batch={batch}) are not supported by "
                f"solver(s) {', '.join(unsupported)}; use a float32 cg/"
                "bicgstab config with identity or jacobi preconditioning, "
                "or solve the right-hand sides one at a time"
            )
        if getattr(solver, "rhs_dtype", Type.FLOAT32) != Type.FLOAT32:
            raise ReproError(
                "batched solves support the float32 working-precision path only"
            )
    if monitor is not None:
        # Attach before solve_into: detection callbacks are appended to the
        # schedule during symbolic execution.
        solver.enable_resilience(monitor)

    rhs_dtype = getattr(solver, "rhs_dtype", Type.FLOAT32)
    bvec = A.vector(
        name="b", dtype=rhs_dtype, data=np.asarray(b, dtype=np.float64), batch=batch
    )
    xvec = A.vector(name="x", batch=batch)
    if x0 is not None:
        xvec.write_global(np.asarray(x0, dtype=np.float64))

    # One profiler scope per solver phase: setup (factorizations, level-set
    # analysis) and the iteration itself, so Profiler.by_path() yields the
    # hierarchical Table IV breakdown instead of one "<toplevel>" bucket.
    with ctx.scope(f"setup:{solver.name}"):
        solver.setup()
    with ctx.scope(f"solve:{solver.name}"):
        solver.solve_into(xvec, bvec)
    return ctx, solver, xvec, bvec, device


def compile_solve(
    matrix: ModifiedCRS,
    b: np.ndarray,
    config,
    optimize: bool = True,
    **kwargs,
) -> CompiledProgram:
    """Build and lower a solver program without executing it.

    Returns the :class:`CompiledProgram` artifact — the CLI's
    ``compile-report`` view and the ablation benches use this to measure
    compile-time proxies through the real lowering pipeline.
    """
    b_arr = np.asarray(b)
    batch = b_arr.shape[0] if b_arr.ndim == 2 else 1
    ctx, _, _, _, _ = _build_program(matrix, b, config, batch=batch, **kwargs)
    return ctx.compile(optimize=optimize)


def solve(
    matrix: ModifiedCRS,
    b: np.ndarray,
    config,
    num_ipus: int = 1,
    tiles_per_ipu: int = 16,
    num_tiles: int | None = None,
    grid_dims=None,
    x0: np.ndarray | None = None,
    device: IPUDevice | None = None,
    blockwise_halo: bool = True,
    optimize: bool = True,
    backend: str = "sim",
    trace=None,
    wall_trace=None,
    metrics=None,
    on_progress=None,
    progress_every: int = 1,
    max_wall_seconds: float | None = None,
    inject_faults=None,
    resilience=None,
    cache=None,
) -> SolveResult:
    """Solve ``A x = b`` with the solver described by ``config`` on a
    simulated IPU device.

    ``b`` may be a single right-hand side ``(n,)`` or a batch ``(batch, n)``
    — a batched solve runs all RHS columns through *one* program with one
    halo exchange per iteration (``docs/solvers.md``), returning ``x`` of
    shape ``(batch, n)`` plus per-RHS ``batch_stats`` and
    ``relative_residuals``.  Batching requires a float32 cg/bicgstab config
    (identity/jacobi preconditioning) and is incompatible with
    ``inject_faults``/``resilience``.

    ``config`` is a dict / JSON string / path / bare solver name (see
    :mod:`repro.solvers.config`).  ``grid_dims`` enables the structured
    partitioner for stencil matrices.  ``optimize=False`` skips the graph
    compiler's optimization passes (the no-pass ablation baseline).
    ``backend="fused"`` executes numerics only (bit-identical solution,
    zero reported cycles) by dispatching the compiled program's fused
    whole-device kernels, and populates ``SolveResult.kernel_counters`` —
    see ``docs/runtime.md``.  An unknown backend, or ``trace`` /
    ``inject_faults`` on ``fused``, raises before anything is built.

    ``trace`` enables telemetry (``docs/observability.md``; requires the
    sim backend): ``True`` collects events into ``SolveResult.telemetry``,
    a path additionally writes the Chrome ``trace_event`` JSON there, and a
    :class:`~repro.telemetry.Tracer` instance records into that tracer.
    Tracing is observational — the traced run is bit-identical in tensors
    and cycles to an untraced one.

    ``wall_trace`` enables measured host wall-clock profiling on *any*
    backend (``docs/observability.md``): ``True`` collects per-launch
    ``perf_counter_ns`` spans into ``SolveResult.wall_telemetry``, a path
    additionally writes a wall-domain Chrome trace there, and a
    :class:`~repro.telemetry.WallTracer` instance records into that
    tracer.  ``metrics`` collects counters/gauges/histograms into a
    :class:`~repro.telemetry.MetricsRegistry` (``True``, an instance, or a
    path — ``.json`` writes a JSON snapshot, anything else Prometheus
    text) and is returned as ``SolveResult.metrics``.  ``on_progress``
    receives a :class:`~repro.solvers.SolveProgress` sample every
    ``progress_every`` recorded iterations while the solve runs.  All
    three are observational: the solution, residual history, and kernel
    counters are bit-identical to an unobserved run.

    ``max_wall_seconds`` is a cooperative wall-clock deadline
    (``docs/serving.md``): the budget is checked on *every* iteration of
    every solver in the config tree (nested inner solves and
    ``record_history=False`` loops included), independent of
    ``progress_every``, and an
    exceeded budget cancels the solve mid-iteration with a typed
    :class:`~repro.errors.JobTimeoutError` carrying the partial
    :class:`~repro.solvers.SolveStats` record.  It works on every backend
    and composes with caching (an aborted cached entry is restored by the
    next ``prepare``).

    ``inject_faults`` enables deterministic seeded fault injection
    (``docs/resilience.md``; requires the sim backend): a
    :class:`~repro.faults.FaultPlan`, dict, JSON path/string, or the
    compact spec grammar (e.g. ``"seed=7;bitflip:p=0.01,where=exchange"``).
    ``resilience`` enables detection and recovery: ``True``/``""`` for the
    default :class:`~repro.solvers.resilience.ResilienceConfig`, or a
    ``"key=value,..."`` string / dict of overrides.  Either one populates
    ``SolveResult.resilience`` with a
    :class:`~repro.solvers.resilience.ResilienceReport`.

    ``cache`` enables the structure-keyed compile cache
    (``docs/performance.md``): ``True`` uses the process-wide
    :class:`~repro.solvers.session.ProgramCache`, or pass your own
    instance.  A hit rebinds ``b``/``x0`` into the cached
    :class:`~repro.graph.CompiledProgram` and re-executes it — no passes
    re-run, and solution *and* cycles are bit-identical to a cold
    compile.  An explicit ``device`` disables caching (the cached shards
    live on a cache-owned device).  Repeated-solve callers should prefer
    :class:`~repro.solvers.session.SolverSession` /
    :func:`~repro.solvers.session.solve_many`.
    """
    from repro.faults import FaultInjector, FaultPlan
    from repro.telemetry import MetricsRegistry, Tracer, WallTracer

    t_wall0 = time.perf_counter()

    tracer = None
    trace_path = None
    if isinstance(trace, Tracer):
        tracer = trace
    elif isinstance(trace, (str, Path)):
        tracer, trace_path = Tracer(), trace
    elif trace:
        tracer = Tracer()

    mreg = None
    metrics_path = None
    if isinstance(metrics, MetricsRegistry):
        mreg = metrics
    elif isinstance(metrics, (str, Path)):
        mreg, metrics_path = MetricsRegistry(), metrics
    elif metrics:
        mreg = MetricsRegistry()

    wtracer = None
    wall_path = None
    if isinstance(wall_trace, WallTracer):
        wtracer = wall_trace
        if mreg is not None and wtracer.metrics is None:
            wtracer.metrics = mreg
    elif isinstance(wall_trace, (str, Path)):
        wtracer, wall_path = WallTracer(metrics=mreg), wall_trace
    elif wall_trace:
        wtracer = WallTracer(metrics=mreg)
    elif mreg is not None:
        # Metrics alone still want the per-kernel wall series; an internal
        # tracer feeds the registry (and the result's wall_profile).
        wtracer = WallTracer(metrics=mreg)

    stride = max(1, int(progress_every))
    deadline = None if max_wall_seconds is None else float(max_wall_seconds)
    if deadline is not None and deadline <= 0:
        raise ReproError(f"max_wall_seconds must be > 0, got {max_wall_seconds!r}")

    def _progress(iteration: int, relative_residual: float, active: int) -> None:
        wall = time.perf_counter() - t_wall0
        if deadline is not None and wall > deadline:
            # Cooperative cancellation: raised from the per-iteration record
            # callback, it unwinds the engine mid-solve on any backend.  The
            # partial SolveStats record is attached by the handler below.
            raise JobTimeoutError(
                solver=None, iteration=iteration, wall_seconds=wall,
                budget_seconds=deadline,
            )
        if iteration % stride:
            return
        if mreg is not None:
            mreg.gauge("repro_solve_iteration", "latest recorded iteration").set(iteration)
            mreg.gauge(
                "repro_solve_relative_residual", "latest tracked relative residual"
            ).set(relative_residual)
            mreg.gauge(
                "repro_solve_active_columns", "RHS columns still iterating"
            ).set(active)
        if on_progress is not None:
            on_progress(SolveProgress(iteration, relative_residual, wall, active))

    progress_hook = (
        _progress
        if (on_progress is not None or mreg is not None or deadline is not None)
        else None
    )

    def _deadline_tick(iteration: int) -> None:
        # The budget check alone, fired on *every* iteration of *every*
        # solver in the tree — nested inner solves (an MPIR refinement
        # burst) and ``record_history=False`` loops included — so the
        # overshoot past ``max_wall_seconds`` is bounded by one iteration,
        # not one root record or one whole inner burst.
        wall = time.perf_counter() - t_wall0
        if wall > deadline:
            raise JobTimeoutError(
                solver=None, iteration=iteration, wall_seconds=wall,
                budget_seconds=deadline,
            )

    plan = FaultPlan.parse(inject_faults) if inject_faults is not None else None
    check_observers(backend, tracer=tracer, injector=plan)
    rconfig = ResilienceConfig.parse(resilience)
    b64 = np.asarray(b, dtype=np.float64)
    if b64.ndim not in (1, 2):
        raise ReproError(f"b must be 1-D (n,) or batched 2-D (batch, n), got shape {b64.shape}")
    if b64.shape[-1] != matrix.n:
        raise ReproError(f"b has {b64.shape[-1]} rows but the matrix has {matrix.n}")
    batch = b64.shape[0] if b64.ndim == 2 else 1
    if batch > 1:
        # The resilience driver's checkpoint/restore and the fault
        # injector's corruption sites are written against single-RHS
        # shards; fail loudly instead of corrupting a batched solve.
        if plan is not None:
            raise ReproError("fault injection does not support batched solves (batch > 1)")
        if rconfig is not None:
            raise ReproError("resilience does not support batched solves (batch > 1)")
        if x0 is not None and np.asarray(x0).shape != b64.shape:
            raise ReproError(
                f"batched x0 must match b's shape {b64.shape}, "
                f"got {np.asarray(x0).shape}"
            )
    pcache = resolve_cache(cache)
    if device is not None:
        # A caller-owned device would end up holding cache-owned shards;
        # every entry builds on a fresh device instead.
        pcache = None

    monitors: list[ResilienceMonitor] = []
    prior_records: list = []
    prior_cycles = 0
    restarts = 0
    carried_iterations = 0
    disabled: set[str] = set()
    cur_tiles = num_tiles
    cur_device = device
    aborted: str | None = None
    # Delta over the whole solve (restarts included) — the counters are
    # process-global, so concurrent engines would fold into one delta.
    with GlobalCounters.track() as kernel_track:
        while True:
            monitor = None
            injector = None
            built_device = None
            entry = None
            try:
                if pcache is not None:
                    key = fingerprint_solve(
                        matrix,
                        config,
                        num_ipus=num_ipus,
                        tiles_per_ipu=tiles_per_ipu,
                        num_tiles=cur_tiles,
                        grid_dims=grid_dims,
                        blockwise_halo=blockwise_halo,
                        optimize=optimize,
                        backend=backend,
                        resilient=rconfig is not None,
                        batch=batch,
                    )
                    entry = pcache.get(key)
                if entry is not None:
                    # Cache hit: rebind host values into the cached artifact and
                    # re-execute — no symbolic execution, no compiler passes.
                    entry.prepare(b64, x0=x0, rconfig=rconfig)
                    ctx, solver, xvec, bvec = entry.ctx, entry.solver, entry.xvec, entry.bvec
                    built_device, compiled, monitor = entry.device, entry.compiled, entry.monitor
                else:
                    monitor = ResilienceMonitor(rconfig) if rconfig is not None else None
                    t_build = time.perf_counter()
                    ctx, solver, xvec, bvec, built_device = _build_program(
                        matrix,
                        b,
                        config,
                        num_ipus=num_ipus,
                        tiles_per_ipu=tiles_per_ipu,
                        num_tiles=cur_tiles,
                        grid_dims=grid_dims,
                        # Under caching x0 is bound via prepare() below, so the
                        # snapshotted initial image stays x0-free (x = 0).
                        x0=None if pcache is not None else x0,
                        device=cur_device,
                        blockwise_halo=blockwise_halo,
                        monitor=monitor,
                        batch=batch,
                    )
                    compiled = ctx.compile(optimize=optimize)
                    if pcache is not None:
                        entry = CompiledSolve.capture(
                            key, ctx, solver, xvec, bvec, built_device, compiled,
                            monitor=monitor,
                            build_seconds=time.perf_counter() - t_build,
                        )
                        pcache.put(key, entry)
                        entry.prepare(b64, x0=x0, rconfig=rconfig)
                if tracer is not None and pcache is not None:
                    tracer.instant(
                        "compile_cache",
                        "compile",
                        {"event": "hit" if entry.runs > 1 else "miss", **pcache.stats()},
                        ts=0,
                    )
                if plan is not None:
                    injector = FaultInjector(plan, disabled=frozenset(disabled))
                if progress_hook is not None:
                    # After prepare()/reset(): a cache hit clears the hook
                    # along with the rest of the stats record.
                    solver.stats.progress = progress_hook
                if deadline is not None:
                    for member in solver.iter_tree():
                        member.stats.tick = _deadline_tick
                if deadline is not None:
                    # The build itself may have eaten the whole budget; bail
                    # before launching the engine rather than one iteration in.
                    wall = time.perf_counter() - t_wall0
                    if wall > deadline:
                        raise JobTimeoutError(
                            iteration=solver.stats.total_iterations,
                            wall_seconds=wall, budget_seconds=deadline,
                        )
                engine = Engine(compiled, backend=backend, tracer=tracer,
                                injector=injector, wall_tracer=wtracer)
                if monitor is not None:
                    monitor.baseline()
                aborted = None
                while True:
                    try:
                        engine.run()
                    except RollbackSignal as sig:
                        cycle = built_device.profiler.total_cycles
                        if not monitor.budget_left():
                            aborted = sig.reason
                            monitor.restore_state()  # leave the best-known iterate in x
                            break
                        rec = monitor.rollback(sig, cycle)
                        if tracer is not None:
                            tracer.instant(
                                "rollback",
                                "fault",
                                {
                                    "reason": rec.reason,
                                    "iteration": rec.iteration,
                                    "restored_iteration": rec.restored_iteration,
                                    "attempt": len(monitor.rollbacks),
                                },
                                ts=cycle,
                            )
                        continue
                    if monitor is None or injector is None:
                        break
                    # Injected faults can corrupt a Krylov recurrence without
                    # tripping any device-side check — the tracked residual
                    # converges while the true residual does not.  Verify on the
                    # host and treat a miss as one more detection event.
                    tolv = getattr(solver, "tol", None)
                    if tolv is None:
                        break
                    if getattr(solver, "x_ext", None) is not None:
                        xv = solver.x_ext.read_global()
                    else:
                        xv = xvec.read_global()
                    bn_ = np.linalg.norm(b64)
                    rel_ = float(np.linalg.norm(matrix.spmv(xv) - b64) / bn_) if bn_ > 0 else 0.0
                    if rel_ <= tolv * 10 or solver.classify_failure(engine) is not None:
                        break  # good enough — or already failed for a named reason
                    sig = RollbackSignal("silent_corruption", solver.stats.total_iterations)
                    cycle = built_device.profiler.total_cycles
                    if not monitor.budget_left():
                        aborted = "silent_corruption"
                        break
                    rec = monitor.rollback(sig, cycle)
                    if tracer is not None:
                        tracer.instant(
                            "rollback",
                            "fault",
                            {
                                "reason": rec.reason,
                                "iteration": rec.iteration,
                                "restored_iteration": rec.restored_iteration,
                                "attempt": len(monitor.rollbacks),
                            },
                            ts=cycle,
                        )
            except JobTimeoutError as exc:
                # Deadline fired from inside the engine (or just before it),
                # so ``solver`` exists: hand the caller the partial
                # convergence record with the typed error.
                exc.solver = solver.name
                exc.stats = solver.stats.copy()
                raise
            except SRAMOverflowError:
                if rconfig is None or not rconfig.degrade_on_oom:
                    raise
                if monitor is not None:
                    monitors.append(monitor)
                    # Warm-start the rebuilt program from the best checkpointed
                    # iterate instead of discarding all converged progress.
                    warm_x, warm_it = monitor.best_solution()
                    if warm_x is not None and warm_it > 0:
                        x0 = warm_x
                        carried_iterations += warm_it
                if injector is not None:
                    prior_records.extend(injector.records)
                if built_device is not None:
                    prior_cycles += built_device.profiler.total_cycles
                    if tracer is not None:
                        # The rebuilt program runs on a fresh device whose clock
                        # restarts at zero; keep the trace timeline monotone.
                        tracer.shift_clock(built_device.profiler.total_cycles)
                have = cur_tiles
                if have is None:
                    n_dev = (
                        cur_device.num_tiles if cur_device is not None else num_ipus * tiles_per_ipu
                    )
                    have = min(n_dev, matrix.n)
                want = max(rconfig.min_tiles, have // 2)
                if want >= have:
                    raise  # cannot shrink further — give up
                # Graceful degradation: rebuild on fewer tiles (more rows per
                # tile, larger per-tile shards is fine — the overflow here is
                # per-shard count / injected, not aggregate capacity) and don't
                # re-fire injected OOMs against the degraded build.
                disabled.add("tile_oom")
                restarts += 1
                cur_tiles = want
                cur_device = None  # always rebuild on a fresh device
                continue
            else:
                if monitor is not None:
                    monitors.append(monitor)
                break

    # Prefer the extended-precision solution when the solver kept one.
    if getattr(solver, "x_ext", None) is not None:
        x = solver.x_ext.read_global()
    else:
        x = xvec.read_global()
    if b64.ndim == 2 and np.asarray(x).ndim == 1:
        # A (1, n) batch runs the classic single-RHS program, but 2-D in
        # means 2-D out.
        x = np.asarray(x).reshape(1, -1)

    # Both the residual and its normalization in f64: ``np.linalg.norm(b)``
    # in the caller's dtype (e.g. float32) accumulates in that precision and
    # skews the reported relative residual near tight tolerances.  One SpMV
    # call covers every RHS column; the norms stay per column (1-D), which
    # is what keeps each one bit-equal to a single-RHS solve of that column.
    relative_residuals = []
    for resid, bj in zip(np.atleast_2d(matrix.spmv(x) - b64), np.atleast_2d(b64)):
        bn = np.linalg.norm(bj)
        rn = np.linalg.norm(resid)
        relative_residuals.append(float(rn / bn) if bn > 0 else float(rn))
    rel = max(relative_residuals)
    if batch == 1:
        relative_residuals = None

    failure = aborted if aborted is not None else solver.classify_failure(engine)
    solver.stats.failure = failure

    report = None
    if rconfig is not None or plan is not None:
        records = prior_records + (list(injector.records) if injector is not None else [])
        rollbacks = [rb for m in monitors for rb in m.rollbacks]
        iters_observed = sum(m.iterations_observed for m in monitors)
        if failure is not None:
            outcome = "failed"
        elif restarts:
            outcome = "degraded"
        elif rollbacks:
            outcome = "recovered"
        else:
            outcome = "clean"
        report = ResilienceReport(
            enabled=rconfig is not None,
            outcome=outcome,
            failure=failure,
            faults_injected=len(records),
            faults_by_kind=dict(Counter(r.kind for r in records)),
            checkpoints=sum(m.checkpoints for m in monitors),
            rollbacks=len(rollbacks),
            rollback_reasons=[rb.reason for rb in rollbacks],
            restarts=restarts,
            iterations=solver.stats.total_iterations,
            extra_iterations=(
                max(0, iters_observed - solver.stats.total_iterations) if monitors else 0
            ),
            carried_iterations=carried_iterations,
            final_num_tiles=len(solver.A.tiles),
        )

    if tracer is not None:
        tracer.convergence(solver.stats)
        if report is not None:
            tracer.resilience(report)
        if trace_path is not None:
            tracer.to_chrome(trace_path)

    if rconfig is not None and rconfig.raise_on_failure and failure is not None:
        if failure == "breakdown":
            raise SolverBreakdownError(
                f"{solver.name}: Krylov breakdown (|rho| ~ 0)",
                solver=solver.name,
                iteration=solver.stats.total_iterations,
            )
        raise DivergenceError(
            f"{solver.name}: failed to reach tol={getattr(solver, 'tol', None)}",
            solver=solver.name,
            reason=failure,
        )

    prof = built_device.profiler
    total_cycles = prior_cycles + prof.total_cycles
    batch_stats = getattr(solver, "batch_stats", None)
    if batch_stats is not None and pcache is not None:
        batch_stats = [st.copy() for st in batch_stats]

    if wtracer is not None and wall_path is not None:
        wtracer.to_chrome(wall_path)
    wall_seconds = time.perf_counter() - t_wall0
    if mreg is not None:
        mreg.counter("repro_solves_total", "completed solve() calls").inc(
            1, backend=engine.backend.name
        )
        mreg.gauge(
            "repro_solve_wall_seconds", "wall seconds of the last solve call"
        ).set(wall_seconds)
        mreg.gauge(
            "repro_solve_iterations", "iterations of the last solve"
        ).set(solver.stats.total_iterations)
        mreg.gauge(
            "repro_solve_final_relative_residual", "true relative residual (f64)"
        ).set(rel)
        if pcache is not None:
            mreg.gauge(
                "repro_cache_bytes", "bytes the compile cache pins (storage + snapshots)"
            ).set(pcache.stats()["bytes"])
        if metrics_path is not None:
            mreg.write(metrics_path)

    return SolveResult(
        x=x,
        # Detach the stats under caching: the next hit resets them in place.
        stats=solver.stats.copy() if pcache is not None else solver.stats,
        batch=batch,
        batch_stats=batch_stats,
        relative_residuals=relative_residuals,
        cycles=total_cycles,
        seconds=built_device.seconds(total_cycles),
        energy_j=built_device.energy_j(total_cycles),
        relative_residual=rel,
        profile=prof.fractions(),
        engine=engine,
        solver=solver,
        compiled=compiled,
        backend=engine.backend.name,
        telemetry=tracer,
        resilience=report,
        kernel_counters=(
            kernel_track if engine.backend.uses_kernels else None
        ),
        wall_seconds=wall_seconds,
        wall_profile=wtracer.profile() if wtracer is not None else None,
        wall_telemetry=wtracer,
        metrics=mreg,
    )
