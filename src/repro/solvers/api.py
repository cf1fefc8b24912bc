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

import math
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from repro.errors import (
    DivergenceError,
    JobTimeoutError,
    ReproError,
    SolverBreakdownError,
    SolverConfigError,
    SRAMOverflowError,
)
from repro.graph import CompiledProgram, Engine, GlobalCounters
from repro.graph.runtime import check_observers
from repro.machine import MK2, IPUDevice
from repro.solvers.base import SolveProgress, SolveStats
from repro.solvers.config import build_solver, load_config
from repro.solvers.resilience import (
    ResilienceConfig,
    ResilienceMonitor,
    ResilienceReport,
    RollbackSignal,
)
from repro.solvers.session import CompiledSolve, fingerprint_solve, resolve_cache
from repro.sparse.crs import ModifiedCRS
from repro.sparse.distribute import DistributedMatrix
from repro.sparse.partition import grid_factors
from repro.tensordsl import TensorContext, Type

__all__ = ["solve", "compile_solve", "SolveResult", "validate_arrays", "validate_shape",
           "failure_error"]


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
    #: launches, dispatches, fused/fallback breakdown) on the untimed
    #: ``backend="fused"``, else None.
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
    batch = validate_arrays(matrix, b)
    validate_shape(matrix, kwargs)
    ctx, _, _, _, _ = _build_program(matrix, b, config, batch=batch, **kwargs)
    return ctx.compile(optimize=optimize)


def validate_arrays(matrix, b, x0=None) -> int:
    """The one input gate for ``b``/``x0`` (:func:`solve`, ``compile_solve``
    and ``SolverService.submit``): a typed :class:`~repro.errors.ReproError`,
    never a NaN result reported as success.  Returns the RHS width."""
    b_arr = np.asarray(b)
    if b_arr.ndim not in (1, 2):
        raise ReproError(
            f"b must be 1-D (n,) or batched 2-D (batch, n), got shape {b_arr.shape}")
    if b_arr.ndim == 2 and b_arr.shape[0] < 1:
        raise ReproError("batched b needs at least one right-hand side")
    n = int(matrix.n)
    if b_arr.shape[-1] != n:
        raise ReproError(
            f"b has {b_arr.shape[-1]} entries per right-hand side "
            f"but the matrix has {n} rows")
    for name, arr in (("b", b_arr), ("x0", None if x0 is None else np.asarray(x0))):
        if arr is None:
            continue
        if arr.shape != b_arr.shape:
            raise ReproError(f"x0 shape {arr.shape} must match b shape {b_arr.shape}")
        if arr.dtype.kind not in "fiu":
            raise ReproError(f"{name} must be real-numeric, got dtype {arr.dtype}")
        if arr.dtype.kind == "f" and not np.isfinite(arr).all():
            raise ReproError(f"{name} contains non-finite values")
    return b_arr.shape[0] if b_arr.ndim == 2 else 1


def _positive_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= 1


def validate_shape(matrix, options: dict) -> None:
    """The device-shape half of the input gate (:func:`solve`,
    ``compile_solve`` and ``SolverService.submit``, each passing its
    keyword arguments): ``num_ipus``, ``tiles_per_ipu`` and ``num_tiles``
    are positive ints, and ``grid_dims`` covers the matrix's rows and splits
    into the tiles the matrix will be spread over.  A bad shape is a
    :class:`~repro.errors.SolverConfigError` that names the argument."""
    for name in ("num_ipus", "tiles_per_ipu", "num_tiles"):
        value = options.get(name)
        if value is not None and not _positive_int(value):
            raise SolverConfigError(f"{name} must be a positive int, got {value!r}")
    dims = options.get("grid_dims")
    if dims is None:
        return
    n = int(matrix.n)
    if not (isinstance(dims, (tuple, list)) and dims and all(_positive_int(d) for d in dims)):
        raise SolverConfigError(f"grid_dims must be a tuple of positive ints, got {dims!r}")
    if math.prod(dims) != n:
        raise SolverConfigError(
            f"grid_dims {tuple(dims)} holds {math.prod(dims)} cells "
            f"but the matrix has {n} rows")
    device = options.get("device")
    tiles = device.num_tiles if device is not None else options.get("num_ipus", 1) * (
        options.get("tiles_per_ipu", 16) or MK2.tiles_per_ipu)
    # The tiles DistributedMatrix spreads the rows over, one grid block each.
    parts = min(options.get("num_tiles") or tiles, n, tiles)
    blocks = grid_factors(parts, len(dims))
    if any(b > d for b, d in zip(blocks, dims)):
        raise SolverConfigError(
            f"grid_dims {tuple(dims)} cannot be split into {blocks} blocks, "
            f"one per tile of the {parts} the matrix is spread over")


def failure_error(failure: str, who: str, *, solver: str | None = None,
                  iteration: int | None = None, detail: str = "") -> ReproError:
    """Map a terminal ``SolveResult.failure`` to its typed error:
    ``breakdown`` -> :class:`~repro.errors.SolverBreakdownError`, anything
    else -> :class:`~repro.errors.DivergenceError`.  Used by
    ``resilience="raise_on_failure=1"`` and by the serving retry ladder."""
    if failure == "breakdown":
        return SolverBreakdownError(f"{who}: Krylov breakdown{detail}",
                                    solver=solver, iteration=iteration)
    return DivergenceError(f"{who}: failed ({failure}){detail}",
                           solver=solver, reason=failure)


def _open(value, cls, **kwargs):
    """``True | path | instance`` -> ``(instance or None, path or None)``."""
    if isinstance(value, cls):
        return value, None
    if isinstance(value, (str, Path)):
        return cls(**kwargs), value
    return (cls(**kwargs) if value else None), None


def _open_observers(trace, wall_trace, metrics) -> SimpleNamespace:
    """Stage 2: the cycle tracer, the metrics registry and the wall tracer."""
    from repro.telemetry import MetricsRegistry, Tracer, WallTracer

    tracer, trace_path = _open(trace, Tracer)
    mreg, metrics_path = _open(metrics, MetricsRegistry)
    wtracer, wall_path = _open(wall_trace, WallTracer, metrics=mreg)
    if wtracer is None and mreg is not None:
        # Metrics alone still want the per-kernel wall series; an internal
        # tracer feeds the registry (and the result's wall_profile).
        wtracer = WallTracer(metrics=mreg)
    elif mreg is not None and wtracer.metrics is None:
        wtracer.metrics = mreg
    return SimpleNamespace(tracer=tracer, trace_path=trace_path, mreg=mreg,
                           metrics_path=metrics_path, wtracer=wtracer, wall_path=wall_path)


def _set_gauges(mreg, rows) -> None:
    for name, help_text, value in rows:
        mreg.gauge(name, help_text).set(value)


def _progress_hook(t_wall0: float, stride: int, mreg, on_progress):
    """The per-record progress sample, or None when nobody listens."""
    if on_progress is None and mreg is None:
        return None

    def _progress(iteration: int, relative_residual: float, active: int) -> None:
        if iteration % stride:
            return
        if mreg is not None:
            _set_gauges(mreg, [
                ("repro_solve_iteration", "latest recorded iteration", iteration),
                ("repro_solve_relative_residual", "latest tracked relative residual",
                 relative_residual),
                ("repro_solve_active_columns", "RHS columns still iterating", active),
            ])
        if on_progress is not None:
            wall = time.perf_counter() - t_wall0
            on_progress(SolveProgress(iteration, relative_residual, wall, active))

    return _progress


def _deadline_tick(t_wall0: float, deadline: float | None):
    """The budget check, or None without a deadline.  Fired on *every*
    iteration of *every* solver in the tree — nested inner solves (an MPIR
    refinement burst) and ``record_history=False`` loops included — so the
    overshoot past ``max_wall_seconds`` is bounded by one iteration, not one
    root record or one whole inner burst.  Cooperative cancellation: raised
    from a host callback, it unwinds the engine mid-solve on any backend."""
    if deadline is None:
        return None

    def tick(iteration: int) -> None:
        wall = time.perf_counter() - t_wall0
        if wall > deadline:
            raise JobTimeoutError(
                solver=None, iteration=iteration, wall_seconds=wall,
                budget_seconds=deadline,
            )

    return tick


@dataclass
class _Restarts:
    """OOM-degradation bookkeeping: what earlier attempts contributed and
    the shape (tiles, device, warm start) the next one builds at."""

    num_tiles: int | None
    device: IPUDevice | None
    x0: np.ndarray | None
    monitors: list = field(default_factory=list)
    records: list = field(default_factory=list)
    cycles: int = 0
    count: int = 0
    carried_iterations: int = 0
    disabled: set = field(default_factory=set)

    def degrade(self, at, rconfig, matrix, device_tiles: int, tracer) -> bool:
        """Fold the failed attempt in and halve the tiles; False when the
        tile count cannot shrink further (the caller re-raises)."""
        if at.monitor is not None:
            self.monitors.append(at.monitor)
            # Warm-start the rebuilt program from the best checkpointed
            # iterate instead of discarding all converged progress.
            warm_x, warm_it = at.monitor.best_solution()
            if warm_x is not None and warm_it > 0:
                self.x0 = warm_x
                self.carried_iterations += warm_it
        if at.injector is not None:
            self.records.extend(at.injector.records)
        if at.device is not None:
            self.cycles += at.device.profiler.total_cycles
            if tracer is not None:
                # The rebuilt program runs on a fresh device whose clock
                # restarts at zero; keep the trace timeline monotone.
                tracer.shift_clock(at.device.profiler.total_cycles)
        have = self.num_tiles
        if have is None:
            n_dev = self.device.num_tiles if self.device is not None else device_tiles
            have = min(n_dev, matrix.n)
        want = max(rconfig.min_tiles, have // 2)
        if want >= have:
            return False
        # Graceful degradation: rebuild on fewer tiles (more rows per tile,
        # larger per-tile shards is fine — the overflow here is per-shard
        # count / injected, not aggregate capacity) and don't re-fire
        # injected OOMs against the degraded build.
        self.disabled.add("tile_oom")
        self.count += 1
        self.num_tiles = want
        self.device = None  # always rebuild on a fresh device
        return True

    def report(self, at, failure, rconfig) -> ResilienceReport:
        records = self.records + (list(at.injector.records) if at.injector is not None else [])
        rollbacks = [rb for m in self.monitors for rb in m.rollbacks]
        iters_observed = sum(m.iterations_observed for m in self.monitors)
        iterations = at.solver.stats.total_iterations
        return ResilienceReport(
            enabled=rconfig is not None,
            outcome=("failed" if failure is not None else "degraded" if self.count
                     else "recovered" if rollbacks else "clean"),
            failure=failure,
            faults_injected=len(records),
            faults_by_kind=dict(Counter(r.kind for r in records)),
            checkpoints=sum(m.checkpoints for m in self.monitors),
            rollbacks=len(rollbacks),
            rollback_reasons=[rb.reason for rb in rollbacks],
            restarts=self.count,
            iterations=iterations,
            extra_iterations=max(0, iters_observed - iterations) if self.monitors else 0,
            carried_iterations=self.carried_iterations,
            final_num_tiles=len(at.solver.A.tiles),
        )


def _acquire(at, matrix, b, b64, config, layout: dict, rs: _Restarts, *,
             pcache, rconfig, optimize: bool, backend: str, batch: int, tracer):
    """Stage 3: a cache hit, or build + compile (+ capture into the cache)."""
    entry = key = None
    if pcache is not None:
        key = fingerprint_solve(
            matrix, config, **layout, num_tiles=rs.num_tiles, optimize=optimize,
            backend=backend, resilient=rconfig is not None, batch=batch,
        )
        entry = pcache.get(key)
    if entry is None:
        at.monitor = ResilienceMonitor(rconfig) if rconfig is not None else None
        t_build = time.perf_counter()
        ctx, at.solver, at.xvec, bvec, at.device = _build_program(
            matrix, b, config, **layout, num_tiles=rs.num_tiles,
            # Under caching x0 is bound via prepare() below, so the
            # snapshotted initial image stays x0-free (x = 0).
            x0=None if pcache is not None else rs.x0,
            device=rs.device, monitor=at.monitor, batch=batch,
        )
        at.compiled = ctx.compile(optimize=optimize)
        if pcache is not None:
            entry = CompiledSolve.capture(
                key, ctx, at.solver, at.xvec, bvec, at.device, at.compiled,
                monitor=at.monitor, build_seconds=time.perf_counter() - t_build,
            )
            pcache.put(key, entry)
    if entry is not None:
        # A hit (or the entry just captured): rebind host values into the
        # cached artifact and re-execute — no symbolic execution, no passes.
        entry.prepare(b64, x0=rs.x0, rconfig=rconfig)
        at.monitor, at.device, at.compiled = entry.monitor, entry.device, entry.compiled
        at.solver, at.xvec = entry.solver, entry.xvec
        if tracer is not None:
            tracer.instant("compile_cache", "compile", {
                "event": "hit" if entry.runs > 1 else "miss", **pcache.stats()}, ts=0)


def _arm(at, plan, rs: _Restarts, backend: str, obs,
         progress, tick) -> None:
    """Stage 4: fault injector, progress and deadline hooks, the engine."""
    from repro.faults import FaultInjector

    if plan is not None:
        at.injector = FaultInjector(plan, disabled=frozenset(rs.disabled))
    if progress is not None:
        # After prepare()/reset(): a cache hit clears the hook along with
        # the rest of the stats record.
        at.solver.stats.progress = progress
    if tick is not None:
        for member in at.solver.iter_tree():
            member.stats.tick = tick
        # The build itself may have eaten the whole budget; bail before
        # launching the engine rather than one iteration in.
        tick(at.solver.stats.total_iterations)
    at.engine = Engine(at.compiled, backend=backend, tracer=obs.tracer,
                       injector=at.injector, wall_tracer=obs.wtracer)
    if at.monitor is not None:
        at.monitor.baseline()


def _solution(solver, xvec) -> np.ndarray:
    """The extended-precision solution when the solver kept one, else x."""
    if getattr(solver, "x_ext", None) is not None:
        return solver.x_ext.read_global()
    return xvec.read_global()


def _silent_corruption(at, matrix, b64) -> RollbackSignal | None:
    """Injected faults can corrupt a Krylov recurrence without tripping any
    device-side check — the tracked residual converges while the true
    residual does not.  Verify on the host and report a miss as one more
    detection event."""
    if at.monitor is None or at.injector is None:
        return None
    tol = getattr(at.solver, "tol", None)
    if tol is None:
        return None
    bn = np.linalg.norm(b64)
    resid = matrix.spmv(_solution(at.solver, at.xvec)) - b64
    rel = float(np.linalg.norm(resid) / bn) if bn > 0 else 0.0
    if rel <= tol * 10 or at.solver.classify_failure(at.engine) is not None:
        return None  # good enough — or already failed for a named reason
    return RollbackSignal("silent_corruption", at.solver.stats.total_iterations)


def _run_under_recovery(at, matrix, b64, tracer) -> str | None:
    """Stage 5: run the engine, rolling back on every detection (a
    device-side :class:`RollbackSignal`, or a silent corruption caught on
    the host) until clean.  Returns the abort reason when the rollback
    budget ran out, else None."""
    while True:
        try:
            at.engine.run()
            sig, signalled = _silent_corruption(at, matrix, b64), False
            if sig is None:
                return None
        except RollbackSignal as exc:
            sig, signalled = exc, True
        cycle = at.device.profiler.total_cycles
        if not at.monitor.budget_left():
            if signalled:
                at.monitor.restore_state()  # leave the best-known iterate in x
            return sig.reason
        rec = at.monitor.rollback(sig, cycle)
        if tracer is not None:
            tracer.instant("rollback", "fault", {
                "reason": rec.reason, "iteration": rec.iteration,
                "restored_iteration": rec.restored_iteration,
                "attempt": len(at.monitor.rollbacks),
            }, ts=cycle)


def _readback(at, matrix, b64) -> tuple:
    """Stage 6: the solution in the caller's shape, and the true relative
    residual of every RHS column."""
    x = _solution(at.solver, at.xvec)
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
    return x, relative_residuals


def _finalize(at, x, rels: list, batch: int, rs: _Restarts, report,
              obs, pcache, kernel_track, t_wall0: float) -> SolveResult:
    """Stage 7: wall trace and metrics out, then the :class:`SolveResult`."""
    solver, engine, device = at.solver, at.engine, at.device
    rel = max(rels)
    total_cycles = rs.cycles + device.profiler.total_cycles
    batch_stats = getattr(solver, "batch_stats", None)
    if batch_stats is not None and pcache is not None:
        batch_stats = [st.copy() for st in batch_stats]

    wtracer, mreg = obs.wtracer, obs.mreg
    if wtracer is not None and obs.wall_path is not None:
        wtracer.to_chrome(obs.wall_path)
    wall_seconds = time.perf_counter() - t_wall0
    if mreg is not None:
        mreg.counter("repro_solves_total", "completed solve() calls").inc(
            1, backend=engine.backend.name
        )
        _set_gauges(mreg, [
            ("repro_solve_wall_seconds", "wall seconds of the last solve call", wall_seconds),
            ("repro_solve_iterations", "iterations of the last solve",
             solver.stats.total_iterations),
            ("repro_solve_final_relative_residual", "true relative residual (f64)", rel),
        ] + ([("repro_cache_bytes", "bytes the compile cache pins (storage + snapshots)",
               pcache.stats()["bytes"])] if pcache is not None else []))
        if obs.metrics_path is not None:
            mreg.write(obs.metrics_path)

    return SolveResult(
        x=x,
        # Detach the stats under caching: the next hit resets them in place.
        stats=solver.stats.copy() if pcache is not None else solver.stats,
        batch=batch,
        batch_stats=batch_stats,
        relative_residuals=rels if batch > 1 else None,
        cycles=total_cycles,
        seconds=device.seconds(total_cycles),
        energy_j=device.energy_j(total_cycles),
        relative_residual=rel,
        profile=device.profiler.fractions(),
        engine=engine,
        solver=solver,
        compiled=at.compiled,
        backend=engine.backend.name,
        telemetry=obs.tracer,
        resilience=report,
        kernel_counters=None if engine.backend.has_cycle_clock else kernel_track,
        wall_seconds=wall_seconds,
        wall_profile=wtracer.profile() if wtracer is not None else None,
        wall_telemetry=wtracer,
        metrics=mreg,
    )


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
    :class:`~repro.solvers.session.SolverSession`.

    Stages: validate, open observers, acquire (hit, or build + compile +
    capture), arm, run under recovery, readback, finalize.
    """
    from repro.faults import FaultPlan

    t_wall0 = time.perf_counter()
    obs = _open_observers(trace, wall_trace, metrics)
    deadline = None if max_wall_seconds is None else float(max_wall_seconds)
    if deadline is not None and deadline <= 0:
        raise ReproError(f"max_wall_seconds must be > 0, got {max_wall_seconds!r}")
    plan = FaultPlan.parse(inject_faults) if inject_faults is not None else None
    check_observers(backend, tracer=obs.tracer, injector=plan)
    rconfig = ResilienceConfig.parse(resilience)
    config = load_config(config)
    batch = validate_arrays(matrix, b, x0)
    validate_shape(matrix, dict(num_ipus=num_ipus, tiles_per_ipu=tiles_per_ipu,
                                num_tiles=num_tiles, grid_dims=grid_dims, device=device))
    if batch > 1:
        # The resilience driver's checkpoint/restore and the fault
        # injector's corruption sites are written against single-RHS
        # shards; fail loudly instead of corrupting a batched solve.
        if plan is not None:
            raise ReproError("fault injection does not support batched solves (batch > 1)")
        if rconfig is not None:
            raise ReproError("resilience does not support batched solves (batch > 1)")
    b64 = np.asarray(b, dtype=np.float64)
    progress = _progress_hook(t_wall0, max(1, int(progress_every)), obs.mreg, on_progress)
    tick = _deadline_tick(t_wall0, deadline)
    pcache = resolve_cache(cache)
    if device is not None:
        # A caller-owned device would end up holding cache-owned shards;
        # every entry builds on a fresh device instead.
        pcache = None
    layout = dict(num_ipus=num_ipus, tiles_per_ipu=tiles_per_ipu, grid_dims=grid_dims,
                  blockwise_halo=blockwise_halo)
    rs = _Restarts(num_tiles=num_tiles, device=device, x0=x0)

    # Delta over the whole solve (restarts included) — the counters are
    # process-global, so concurrent engines would fold into one delta.
    with GlobalCounters.track() as kernel_track:
        while True:
            # One pass, filled stage by stage — so the OOM handler sees
            # whatever exists when the build or the run raised.
            at = SimpleNamespace(monitor=None, injector=None, device=None, solver=None)
            try:
                _acquire(at, matrix, b, b64, config, layout, rs, pcache=pcache,
                         rconfig=rconfig, optimize=optimize, backend=backend,
                         batch=batch, tracer=obs.tracer)
                _arm(at, plan, rs, backend, obs, progress, tick)
                aborted = _run_under_recovery(at, matrix, b64, obs.tracer)
            except JobTimeoutError as exc:
                # Deadline fired from inside the engine (or just before it),
                # so the solver exists: hand the caller the partial
                # convergence record with the typed error.
                exc.solver = at.solver.name
                exc.stats = at.solver.stats.copy()
                raise
            except SRAMOverflowError:
                if rconfig is None or not rconfig.degrade_on_oom or not rs.degrade(
                    at, rconfig, matrix, num_ipus * tiles_per_ipu, obs.tracer
                ):
                    raise
                continue
            if at.monitor is not None:
                rs.monitors.append(at.monitor)
            break

    x, rels = _readback(at, matrix, b64)
    failure = aborted if aborted is not None else at.solver.classify_failure(at.engine)
    at.solver.stats.failure = failure
    report = rs.report(at, failure, rconfig) if rconfig is not None or plan is not None else None

    if obs.tracer is not None:
        obs.tracer.convergence(at.solver.stats)
        if report is not None:
            obs.tracer.resilience(report)
        if obs.trace_path is not None:
            obs.tracer.to_chrome(obs.trace_path)

    if rconfig is not None and rconfig.raise_on_failure and failure is not None:
        name = at.solver.name
        raise failure_error(failure, name, solver=name,
                            iteration=at.solver.stats.total_iterations)
    return _finalize(at, x, rels, batch, rs, report, obs, pcache, kernel_track, t_wall0)
