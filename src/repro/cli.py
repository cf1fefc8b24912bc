"""Command-line interface: solve systems and inspect devices from the shell.

Examples::

    # Solve a built-in workload with an inline JSON config
    python -m repro.cli solve --matrix poisson3d:16 \\
        --config '{"solver": "bicgstab", "tol": 1e-6, "preconditioner": {"solver": "ilu0"}}'

    # Solve a Matrix-Market file with a config file, on a 4-IPU device
    python -m repro.cli solve --matrix path/to/system.mtx --rhs rhs.npy \\
        --config solver.json --ipus 4 --tiles 32

    # Inspect what the graph compiler does to a solver program
    python -m repro.cli compile-report --matrix poisson2d:8 \\
        --config '{"solver": "cg", "tol": 1e-6}' --tree

    # Record a Chrome trace of a CG solve and summarize it
    python -m repro.cli solve --matrix poisson:32 --config cg --trace t.json
    python -m repro.cli trace-report t.json --check

    # Measured wall-clock profile + metrics on the fused backend
    python -m repro.cli solve --matrix poisson:32 --config cg --backend fused \\
        --wall-trace wall.json --metrics metrics.prom --progress 5
    python -m repro.cli metrics-report metrics.prom

    # Inject deterministic faults and recover (docs/resilience.md)
    python -m repro.cli solve --matrix poisson3d:12 --config cg \\
        --inject-faults 'seed=7;bitflip:p=0.005,where=exchange' --resilience

    # Normalize / validate a fault spec without running anything
    python -m repro.cli faults 'seed=7;bitflip:p=0.005;tile_oom:tile=3,at=40'

    # Amortize the compile over repeated solves (docs/performance.md)
    python -m repro.cli solve --matrix poisson:32 --config cg --repeat 5
    python -m repro.cli batch --matrix poisson:32 --config cg --count 8

    # Serve solve jobs through the fault-tolerant runtime and hammer it
    # with an overload + fault-injection load run (docs/serving.md)
    python -m repro.cli serve --matrix poisson:24 --config cg \\
        --jobs 32 --tenants 3 --overload 4 --fault-tenant --check

    # Show the device spec sheet
    python -m repro.cli info

Framework errors map to distinct exit codes (see ``repro.errors``):
10 generic, 11 SRAM overflow, 12 solver breakdown, 13 divergence,
14 bad fault spec, 15 backend capability, 16 service overloaded,
17 job deadline exceeded, 18 tenant quota exceeded, 19 malformed matrix,
20 malformed solver config, 21 factorization breakdown.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from repro.errors import MatrixFormatError, ReproError

__all__ = ["main"]


def _load_rhs(path: str) -> np.ndarray:
    """A ``--rhs`` file: a ``.npy`` array, else a typed error."""
    try:
        rhs = np.load(path, allow_pickle=False)
    except FileNotFoundError:
        raise ReproError(f"--rhs: no such file: {path}") from None
    except (OSError, ValueError):
        raise ReproError(f"--rhs: {path} is not a .npy array") from None
    if not isinstance(rhs, np.ndarray):  # an .npz archive
        rhs.close()
        raise ReproError(f"--rhs: {path} is an archive, not a .npy array")
    return rhs


def _parse_json(text: str, path):
    """A JSON document read by a report command, else a typed error."""
    import json

    try:
        return json.loads(text)
    except ValueError as exc:
        raise ReproError(f"{path}: not valid JSON ({exc})") from None


def _load_matrix(spec: str):
    """``poisson[2d|3d]:N`` / ``g3|afshell|geo|hook[:size]`` /
    a Matrix-Market path."""
    from repro.sparse import poisson2d, poisson3d
    from repro.sparse.suitesparse import (
        af_shell_like,
        g3_circuit_like,
        geo_like,
        hook_like,
        load_matrix_market,
    )

    generators = {
        "poisson3d": lambda s: poisson3d(s or 16),
        "poisson2d": lambda s: poisson2d(s or 32),
        "poisson": lambda s: poisson2d(s or 32),
        "g3": lambda s: (g3_circuit_like(grid=s or 110), None),
        "afshell": lambda s: (af_shell_like(nx=s or 56, ny=s or 56), None),
        "geo": lambda s: (geo_like(nx=s or 24, ny=s or 24, nz=s or 24), None),
        "hook": lambda s: (hook_like(nx=s or 24, ny=s or 24, nz=s or 24), None),
    }
    name, _, arg = spec.partition(":")
    if name in generators:
        if arg and not (arg.isdecimal() and int(arg) > 0):
            raise MatrixFormatError(
                f"matrix spec {spec!r}: the size must be a positive integer, got {arg!r}")
        return generators[name](int(arg) if arg else None)
    path = Path(spec)
    if path.exists():
        return load_matrix_market(path), None
    raise MatrixFormatError(
        f"unknown matrix spec {spec!r}: poisson[2d|3d]:N, g3|afshell|geo|hook[:size] "
        "or an existing Matrix-Market file")


def _request(args):
    """The matrix ``--matrix`` names, and the shape options of ``--ipus``,
    ``--tiles`` and ``--backend``, checked against it before anything
    runs."""
    from repro.solvers import ProgramShape

    matrix, dims = _load_matrix(args.matrix)
    shape = ProgramShape.of(matrix, num_ipus=args.ipus, tiles_per_ipu=args.tiles,
                            grid_dims=dims,
                            backend=getattr(args, "backend", ProgramShape.backend))
    return matrix, vars(shape)


def _cmd_solve(args) -> int:
    import time

    from repro.solvers import ProgramCache, solve

    matrix, shape = _request(args)
    if args.rhs:
        b = _load_rhs(args.rhs)
    else:
        b = np.random.default_rng(args.seed).standard_normal(matrix.n)

    on_progress = None
    if args.progress is not None:
        def on_progress(p):
            print(f"  [progress] iteration {p.iteration}: relative residual "
                  f"{p.relative_residual:.3e} ({p.active_columns} active, "
                  f"{p.wall_seconds:.2f}s)", file=sys.stderr)

    repeat = max(1, args.repeat)
    pcache = ProgramCache() if repeat > 1 else None
    times, result, first = [], None, None
    for i in range(repeat):
        t0 = time.perf_counter()
        result = solve(
            matrix,
            b,
            args.config,
            **shape,
            trace=args.trace,
            wall_trace=args.wall_trace,
            metrics=args.metrics,
            on_progress=on_progress,
            progress_every=args.progress if args.progress is not None else 1,
            inject_faults=args.inject_faults,
            resilience=args.resilience,
            cache=pcache,
        )
        times.append(time.perf_counter() - t0)
        if i == 0:
            first = result
    print(f"matrix:            n={matrix.n} nnz={matrix.nnz}")
    print(f"iterations:        {result.iterations}")
    print(f"relative residual: {result.relative_residual:.3e}")
    if result.failure is not None:
        print(f"failure:           {result.failure}")
    if result.resilience is not None:
        print(f"resilience:        {result.resilience.summary()}")
    if result.backend == "sim":
        print(f"modeled IPU time:  {result.seconds * 1e3:.3f} ms ({result.cycles} cycles)")
    else:
        print(f"backend:           {result.backend} (numerics only, no cycle model)")
    kc = result.kernel_counters
    print(f"fused kernels:     {kc['kernels']} launches / {kc['dispatches']} "
          f"dispatches ({kc['fused_compute_sets']} compute sets + "
          f"{kc['fused_exchanges']} exchanges fused, "
          f"{kc['fallback_vertices']} fallback vertices)")
    print(f"host wall-clock:   {result.wall_seconds * 1e3:.1f} ms (measured)")
    if result.wall_profile is not None and result.wall_profile["kernels"]:
        prof = result.wall_profile
        hot = prof["kernels"][0]
        print(f"wall profile:      {len(prof['kernels'])} kernels/steps, "
              f"{prof['total_wall_ns'] / 1e6:.3f} ms in spans; hottest "
              f"{hot['name']} ({hot['launches']} launches, "
              f"{hot['wall_ns'] / 1e6:.3f} ms)")
    if repeat > 1:
        identical = bool(
            np.array_equal(result.x, first.x) and result.cycles == first.cycles
        )
        rest = times[1:]
        stats = pcache.stats()
        print(f"repeat:            {repeat} solves; first (compile) "
              f"{times[0] * 1e3:.1f} ms, cached mean {sum(rest) / len(rest) * 1e3:.1f} ms")
        print(f"compile cache:     hits={stats['hits']} misses={stats['misses']} "
              f"evictions={stats['evictions']} bytes={stats['bytes']}; bit-identical runs: "
              f"{'yes' if identical else 'NO'}")
        if not identical:
            raise SystemExit("cache hit produced a different solution or cycle count")
    if args.profile:
        print("cycle breakdown:")
        for cat, frac in sorted(result.profile.items(), key=lambda kv: -kv[1]):
            print(f"  {cat:<22s} {frac:6.1%}")
        if result.compiled is not None:
            print(result.compile_report)
    if args.trace:
        print(f"trace written to {args.trace} "
              f"({len(result.telemetry)} events; view with Perfetto or "
              f"'repro trace-report')")
    if args.wall_trace:
        print(f"wall trace written to {args.wall_trace} "
              f"({len(result.wall_telemetry)} events, wall_ns clock domain; "
              f"view with Perfetto or 'repro trace-report')")
    if args.metrics:
        print(f"metrics written to {args.metrics} "
              f"({len(result.metrics)} instruments; view with "
              f"'repro metrics-report')")
    if args.resilience_report:
        import json

        Path(args.resilience_report).write_text(
            json.dumps(
                result.resilience.to_dict() if result.resilience is not None else {},
                indent=2,
                sort_keys=True,
            )
            + "\n"
        )
        print(f"resilience report written to {args.resilience_report}")
    if args.output:
        np.save(args.output, result.x)
        print(f"solution written to {args.output}")
    return 0


def _cmd_batch(args) -> int:
    """Solve many right-hand sides: one batched program when the config can
    use the batch axis, else one solve per rhs through a compile-cache
    session."""
    import time

    from repro.serve.batching import config_supports_batch
    from repro.solvers import SolverSession, solve

    matrix, shape = _request(args)
    if args.rhs:
        bs = _load_rhs(args.rhs)
        if bs.ndim == 1:
            bs = bs[None, :]
        if bs.ndim != 2 or bs.shape[1] != matrix.n:
            raise SystemExit(
                f"--rhs must be an (m, {matrix.n}) array, got shape {bs.shape}"
            )
    else:
        rng = np.random.default_rng(args.seed)
        bs = rng.standard_normal((args.count, matrix.n))

    print(f"matrix:  n={matrix.n} nnz={matrix.nnz}; {len(bs)} right-hand sides")

    if len(bs) > 1 and config_supports_batch(args.config):
        # Batched path: every RHS column rides the same program, so each
        # iteration runs ONE halo exchange for all of them (docs/solvers.md).
        t0 = time.perf_counter()
        result = solve(matrix, bs, args.config, **shape)
        host = time.perf_counter() - t0
        for i, st in enumerate(result.batch_stats):
            line = (f"  rhs {i:>3}: iterations={st.total_iterations:<5} "
                    f"residual={result.relative_residuals[i]:.3e}")
            if st.failure is not None:
                line += f" failure={st.failure}"
            print(line)
        engine = result.engine
        print(f"batch:   {result.batch} RHS in one program; "
              f"{engine.exchanges} halo exchanges total = "
              f"{engine.exchanges / result.batch:.1f} amortized per RHS "
              f"(host {host * 1e3:.1f} ms)")
        if result.backend == "sim":
            print(f"modeled: {result.seconds * 1e3:.3f} ms "
                  f"({result.cycles} cycles) for the whole batch")
        if args.output:
            np.save(args.output, result.x)
            print(f"solutions written to {args.output} (one row per rhs)")
        return 0

    session = SolverSession(matrix, args.config, **shape)
    results, times = [], []
    for i, b in enumerate(bs):
        t0 = time.perf_counter()
        result = session.solve(b)
        times.append(time.perf_counter() - t0)
        results.append(result)
        line = (f"  rhs {i:>3}: iterations={result.iterations:<5} "
                f"residual={result.relative_residual:.3e} "
                f"host={times[-1] * 1e3:7.1f} ms")
        if result.backend == "sim":
            line += f" cycles={result.cycles}"
        print(line)
    stats = session.stats()
    print(f"cache:   hits={stats['hits']} misses={stats['misses']} "
          f"evictions={stats['evictions']}")
    if len(times) > 1:
        rest = times[1:]
        print(f"timing:  first (compile) {times[0] * 1e3:.1f} ms, "
              f"cached mean {sum(rest) / len(rest) * 1e3:.1f} ms "
              f"({times[0] * len(rest) / max(sum(rest), 1e-12):.1f}x amortized)")
    if args.output:
        np.save(args.output, np.stack([r.x for r in results]))
        print(f"solutions written to {args.output} (one row per rhs)")
    return 0


def _cmd_faults(args) -> int:
    """Parse/normalize a fault spec; print (or write) its canonical JSON."""
    from repro.faults import FaultPlan

    plan = FaultPlan.parse(args.spec)
    text = plan.to_json(indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n")
        print(f"normalized fault plan ({len(plan)} fault(s)) written to {args.out}")
    else:
        print(text)
    return 0


def _cmd_trace_report(args) -> int:
    """Aggregate a trace file (Chrome or NDJSON) into a readable report."""
    from repro.telemetry import TelemetryReport, load_trace, validate_chrome_trace

    path = Path(args.trace)
    if not path.exists():
        raise SystemExit(f"no such trace file: {path}")
    if args.check:
        text = path.read_text().lstrip()
        if not text.startswith("{"):
            raise SystemExit(f"{path}: --check expects a Chrome trace_event JSON file")
        errors = validate_chrome_trace(_parse_json(text, path))
        if errors:
            for err in errors[:20]:
                print(f"schema error: {err}", file=sys.stderr)
            raise SystemExit(f"{path}: invalid Chrome trace ({len(errors)} errors)")
        print(f"{path}: valid Chrome trace")
    try:
        events, meta = load_trace(path)
    except ValueError as exc:  # a line or document that does not parse
        raise ReproError(f"{path}: not a readable trace ({exc})") from None
    report = TelemetryReport.from_events(events, meta=meta, top=args.top)
    print(report.render())
    return 0


def _cmd_metrics_report(args) -> int:
    """Render a metrics snapshot (Prometheus text or JSON) as kernel tables."""
    import re

    from repro.telemetry.report import rank_kernels

    path = Path(args.path)
    if not path.exists():
        raise SystemExit(f"no such metrics file: {path}")
    text = path.read_text()

    samples: dict = {}  # metric name -> {sorted label tuple -> value}
    if text.lstrip().startswith("{"):
        for name, rec in _parse_json(text, path).items():
            if rec.get("kind") == "histogram":
                continue
            for s in rec.get("series", []):
                key = tuple(sorted(s["labels"].items()))
                samples.setdefault(name, {})[key] = float(s["value"])
    else:
        line_pat = re.compile(r"^([A-Za-z_:][A-Za-z0-9_:]*)(?:\{(.*)\})?\s+(\S+)$")
        label_pat = re.compile(r'(\w+)="([^"]*)"')
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            m = line_pat.match(line)
            if m is None:
                continue
            name, labels, value = m.groups()
            key = tuple(sorted(label_pat.findall(labels or "")))
            samples.setdefault(name, {})[key] = float(value)

    def series(name: str) -> dict:
        return samples.get(name, {})

    kernels: dict = {}
    for key, ns in series("repro_kernel_wall_ns_total").items():
        labels = dict(key)
        row = kernels.setdefault(
            labels.get("name", "?"),
            {"name": labels.get("name", "?"), "kind": labels.get("kind", "?"),
             "launches": 0.0, "wall_ns": 0.0, "est_bytes": 0.0, "est_flops": 0.0},
        )
        row["wall_ns"] += ns
    for metric, field in (("repro_kernel_launches_total", "launches"),
                          ("repro_kernel_bytes_total", "est_bytes"),
                          ("repro_kernel_flops_total", "est_flops")):
        for key, v in series(metric).items():
            kname = dict(key).get("name", "?")
            if kname in kernels:
                kernels[kname][field] += v

    rows = rank_kernels(kernels.values())[: args.top]
    if not rows:
        print(f"{path}: no repro_kernel_* series found "
              f"({len(samples)} metric(s) in the snapshot)")
    else:
        total_ns = sum(r["wall_ns"] for r in kernels.values())
        print(f"hottest kernels (top {len(rows)} of {len(kernels)}, measured wall):")
        print(f"  {'kernel':<20} {'kind':<9} {'launches':>8} {'wall ms':>10} "
              f"{'share':>6} {'GB/s':>8} {'GFLOP/s':>8}")
        for r in rows:
            share = r["wall_ns"] / total_ns if total_ns else 0.0
            print(f"  {r['name']:<20} {r['kind']:<9} {int(r['launches']):>8} "
                  f"{r['wall_ns'] / 1e6:>10.3f} {share:>6.1%} {r['gb_per_s']:>8.2f} "
                  f"{r['gflop_per_s']:>8.2f}")

    for gname, label in (
        ("repro_solve_iterations", "iterations"),
        ("repro_solve_final_relative_residual", "final relative residual"),
        ("repro_solve_wall_seconds", "solve wall seconds"),
    ):
        ser = series(gname)
        if ser:
            print(f"{label + ':':<25}{next(iter(ser.values())):g}")
    return 0


def _cmd_compile_report(args) -> int:
    """Lower a solver program through the pass pipeline and show the report."""
    from repro.solvers import compile_solve

    matrix, shape = _request(args)
    b = np.random.default_rng(args.seed).standard_normal(matrix.n)
    compiled = compile_solve(matrix, b, args.config, **{**shape, "optimize": not args.no_opt})
    src, opt = compiled.source_stats, compiled.stats
    print(f"matrix:               n={matrix.n} nnz={matrix.nnz}")
    print(f"source schedule:      {src.steps} steps, {src.compute_sets} compute sets, "
          f"{src.exchanges} exchanges, {src.region_copies} copies")
    print(f"optimized schedule:   {opt.steps} steps, {opt.compute_sets} compute sets, "
          f"{opt.exchanges} exchanges, {opt.region_copies} copies")
    print(f"compile proxy:        {src.compile_proxy} -> {opt.compile_proxy}")
    print(compiled.report.render())
    kernels = compiled.kernels.stats()
    print(f"fused kernels:        {kernels['kernels']} kernels over "
          f"{kernels['steps_fused']} steps, {kernels['fallback_vertices']} "
          f"fallback vertices")
    # One row per kernel that still dispatches vertices one by one; a row
    # naming an ``*.iterate`` loop is a per-vertex call in a solver's inner
    # loop (the bench-smoke CI step greps for it).
    for name, loop, counts in compiled.kernels.fallback_rows(compiled.root):
        codelets = ", ".join(f"{c}@… ×{n}" for c, n in counts.items())
        print(f"  {name:<6} {loop or '-':<20} {codelets}")
    if args.tree:
        print("\noptimized program:")
        print(compiled.describe(max_depth=args.depth))
    return 0


def _cmd_serve(args) -> int:
    """Run the serving runtime in-process and drive it with a load run.

    Three optional phases, all against one service instance: a paced
    *baseline* phase (``--jobs``), a burst *overload* phase submitting
    ``--overload`` times the service's capacity at once (rejections are
    the expected, graceful output), and a *fault tenant* whose jobs run
    seeded fault injection through the resilience rollback path on the sim
    backend; each retry replays its identical seeded plan, so a job whose
    rollback budget runs out fails alike on every attempt and ends
    ``failed`` after ``max_attempts`` (both do on ``poisson:16``).
    ``--batch-window`` turns on queue-level dynamic batching so
    compatible jobs coalesce into one multi-RHS solve.  ``--check``
    re-solves every served job directly and fails unless the served
    results are bit-identical (docs/serving.md) — batched dispatches
    included.
    """
    import asyncio
    import json
    import time

    from repro.serve import (BatchPolicy, LoadGenerator, RetryPolicy,
                             ServicePolicy, SolverService)
    from repro.solvers import load_config, solve

    # The request every job repeats, checked before the service starts.
    matrix, shape = _request(args)
    load_config(args.config)
    rng = np.random.default_rng(args.seed)

    retry = RetryPolicy(base_delay=args.retry_base_delay)
    batch = (BatchPolicy(max_batch=args.max_batch, max_wait_ms=args.batch_window)
             if args.batch_window > 0 and args.max_batch > 1 else None)
    policy = ServicePolicy(
        max_queue_depth=args.queue_depth,
        default_deadline=args.deadline,
        retry=retry,
        quota_rate=args.quota_rate,
        quota_burst=args.quota_burst,
        batch=batch,
    )
    mreg = None
    if args.metrics:
        from repro.telemetry import MetricsRegistry

        mreg = MetricsRegistry()

    # A spec's keys that are the service's, not the job's solve().
    service_keys = ("matrix", "b", "config", "tenant", "seed")

    def spec(tenant: str, **extra) -> dict:
        return {
            "matrix": matrix, "b": rng.standard_normal(matrix.n),
            "config": args.config, "tenant": tenant,
            "seed": int(rng.integers(2**31)),
            **shape, **extra,
        }

    async def run() -> dict:
        service = SolverService(policy=policy, workers=args.workers,
                                metrics=mreg)
        gen = LoadGenerator(service)
        phases: dict = {}
        async with service:
            specs = [spec(f"tenant-{i % args.tenants}") for i in range(args.jobs)]
            if args.fault_tenant:
                specs += [
                    spec("faulty", backend="sim",
                         inject_faults=f"seed={7 + i};bitflip:p=0.004,where=exchange",
                         resilience="")
                    for i in range(max(2, args.jobs // 8))
                ]
            report = await gen.run(specs, interarrival=args.interarrival)
            phases["baseline"] = report

            if args.overload > 0:
                capacity = args.queue_depth + args.workers
                burst = [spec(f"tenant-{i % args.tenants}")
                         for i in range(args.overload * capacity)]
                phases["overload"] = await gen.run(burst)
        accounting = service.accounting()
        quarantined = service.breaker.quarantined()
        cache_stats = service.cache.stats()
        return {"phases": phases, "accounting": accounting,
                "quarantined": quarantined, "cache": cache_stats}

    t0 = time.perf_counter()
    out = asyncio.run(run())
    wall = time.perf_counter() - t0

    print(f"matrix:     n={matrix.n} nnz={matrix.nnz}; config {args.config!r} "
          f"on the {args.backend} backend")
    batching = (f"batch window {args.batch_window:g}ms x{args.max_batch}"
                if batch is not None else "batching off")
    print(f"service:    {args.workers} worker(s), queue depth {args.queue_depth}, "
          f"{args.tenants} tenant(s), {batching}; load run took {wall:.2f}s")
    for name, report in out["phases"].items():
        s = report.summary()
        lat = s["exec_latency"]
        outcomes = ", ".join(f"{k}={v}" for k, v in sorted(s["outcomes"].items()))
        print(f"  {name:<9} {s['total']:>4} jobs: {outcomes}")
        if report.served:
            print(f"  {'':<9} exec latency p50={lat['p50'] * 1e3:.1f}ms "
                  f"p95={lat['p95'] * 1e3:.1f}ms "
                  f"(total p50={s['total_latency']['p50'] * 1e3:.1f}ms)")
    acc = out["accounting"]
    print(f"ledger:     submitted={acc['submitted']} accepted={acc['accepted']} "
          f"rejected={acc['rejected']} ok={acc['ok']} failed={acc['failed']} "
          f"timed_out={acc['timed_out']} retries={acc['retries']} "
          f"worker_faults={acc['worker_faults']}")
    print(f"            balanced={'yes' if acc['balanced'] else 'NO'}; "
          f"rejections={acc['rejections'] or '{}'}")
    if batch is not None:
        print(f"batching:   {acc['batches']} batched dispatch(es), "
              f"{acc['coalesced']} job(s) coalesced, "
              f"{acc['redispatched']} redispatched")
    cache = out["cache"]
    print(f"cache:      hits={cache['hits']} misses={cache['misses']} "
          f"evictions={cache['evictions']} size={cache['size']}/{cache['capacity']}")
    if out["quarantined"]:
        print(f"breaker:    {len(out['quarantined'])} structure(s) quarantined")
    if not acc["balanced"]:
        raise SystemExit("job ledger does not balance: a job was lost or duplicated")
    if acc["worker_faults"]:
        raise SystemExit(f"{acc['worker_faults']} worker crash(es) under load")

    if args.check:
        mismatched = 0
        checked = 0
        for report in out["phases"].values():
            for rec in report.served:
                res = rec["result"]
                job = rec["spec"]
                # The job's own shape and fault/resilience options.
                ref = solve(job["matrix"], job["b"], res.effective_config,
                            **{k: v for k, v in job.items() if k not in service_keys})
                checked += 1
                if not (np.array_equal(res.result.x, ref.x)
                        and res.result.stats.residuals == ref.stats.residuals):
                    mismatched += 1
        print(f"check:      {checked} served job(s) re-solved directly; "
              f"{'all bit-identical' if mismatched == 0 else f'{mismatched} MISMATCHED'}")
        if mismatched:
            raise SystemExit("served results are not bit-identical to direct solve()")

    if args.metrics:
        mreg.write(Path(args.metrics))
        print(f"metrics written to {args.metrics}")
    if args.report:
        doc = {
            "phases": {k: v.summary() for k, v in out["phases"].items()},
            "accounting": acc,
            "cache": cache,
            "quarantined": out["quarantined"],
            "wall_seconds": wall,
        }
        Path(args.report).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        print(f"report written to {args.report}")
    return 0


def _cmd_info(args) -> int:
    from repro.machine import MK2

    print("GraphCore Mk2 IPU (simulated):")
    print(f"  tiles per IPU:         {MK2.tiles_per_ipu}")
    print(f"  worker threads / tile: {MK2.workers_per_tile}")
    print(f"  SRAM per tile:         {MK2.sram_per_tile / 1024:.0f} kB")
    print(f"  clock:                 {MK2.clock_hz / 1e9:.2f} GHz")
    print(f"  exchange fabric:       {MK2.exchange_bytes_per_cycle} B/cycle/tile")
    print(f"  IPU-Links:             {MK2.link_bytes_per_cycle_per_ipu} B/cycle/chip")
    return 0


def _request_options(**override) -> argparse.ArgumentParser:
    """The parent parser of the subcommands that name a solve (``solve``,
    ``batch``, ``compile-report``, ``serve``).  A fresh one per subcommand:
    argparse shares a parent's actions, so an override must not reach the
    others.  ``override`` updates a flag's settings; ``None`` drops it."""
    flags = {
        "matrix": dict(required=True,
                       help="poisson[2d|3d]:N | g3|afshell|geo|hook[:size] | file.mtx"),
        "config": dict(required=True,
                       help="solver config: JSON string, path to a .json file, or a "
                            "bare solver name like 'cg'"),
        "ipus": dict(type=int, default=1),
        "tiles": dict(type=int, default=16, help="tiles per IPU"),
        "seed": dict(type=int, default=0),
        "backend": dict(choices=("fused", "sim"), default="sim",
                        help="runtime backend: cycle-accurate sim (default) or "
                             "numerics-only kernel-dispatch fused (docs/runtime.md)"),
    }
    parent = argparse.ArgumentParser(add_help=False)
    for name, settings in flags.items():
        extra = override.get(name, {})
        if extra is not None:
            parent.add_argument(f"--{name}", **{**settings, **extra})
    return parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", parents=[_request_options()],
                             help="solve a sparse linear system")
    p_solve.add_argument("--rhs", help="right-hand side as a .npy file (default: random)")
    p_solve.add_argument("--profile", action="store_true", help="print the cycle breakdown")
    p_solve.add_argument("--trace",
                         help="write a Chrome trace_event JSON (Perfetto-loadable) of "
                              "the run; requires --backend sim (docs/observability.md)")
    p_solve.add_argument("--wall-trace", metavar="PATH",
                         help="write a measured wall-clock Chrome trace (wall_ns "
                              "clock domain, any backend) of per-kernel/per-step "
                              "host timing (docs/observability.md)")
    p_solve.add_argument("--metrics", metavar="PATH",
                         help="write a metrics snapshot: .json for the structured "
                              "form, anything else Prometheus text; inspect with "
                              "'repro metrics-report' (docs/observability.md)")
    p_solve.add_argument("--progress", nargs="?", const=1, default=None,
                         type=int, metavar="N",
                         help="print live convergence progress to stderr every N "
                              "recorded iterations (default 1)")
    p_solve.add_argument("--output", help="write the solution vector to a .npy file")
    p_solve.add_argument("--inject-faults", metavar="SPEC",
                         help="deterministic seeded fault injection; compact grammar "
                              "like 'seed=7;bitflip:p=0.01,where=exchange', a JSON "
                              "string, or a .json plan file; requires --backend sim "
                              "(docs/resilience.md)")
    p_solve.add_argument("--resilience", nargs="?", const="", default=None,
                         metavar="CONF",
                         help="enable detection + checkpoint/rollback recovery; "
                              "optional 'key=value,...' overrides such as "
                              "'checkpoint_every=5,max_rollbacks=4' (docs/resilience.md)")
    p_solve.add_argument("--resilience-report", metavar="PATH",
                         help="write the resilience report as JSON to PATH")
    p_solve.add_argument("--repeat", type=int, default=1, metavar="N",
                         help="solve the same system N times through the "
                              "structure-keyed compile cache and report the "
                              "amortized host wall-clock (docs/performance.md)")
    p_solve.set_defaults(fn=_cmd_solve)

    p_batch = sub.add_parser(
        "batch", parents=[_request_options()],
        help="solve many right-hand sides at once: one batched multi-RHS "
             "program when the config can use the batch axis (docs/solvers.md), "
             "else one solve per rhs through a compile-cache session")
    p_batch.add_argument("--rhs",
                         help="right-hand sides as an (m, n) .npy file, one per row "
                              "(default: --count random vectors)")
    p_batch.add_argument("--count", type=int, default=4,
                         help="number of random right-hand sides when --rhs is absent")
    p_batch.add_argument("--output",
                         help="write the stacked solutions to a .npy file, one row per rhs")
    p_batch.set_defaults(fn=_cmd_batch)

    p_faults = sub.add_parser(
        "faults", help="parse a fault-injection spec and print its canonical JSON")
    p_faults.add_argument("spec",
                          help="compact grammar ('seed=7;bitflip:p=0.01'), JSON string, "
                               "or .json plan file")
    p_faults.add_argument("--out", help="write the normalized plan JSON to a file")
    p_faults.set_defaults(fn=_cmd_faults)

    p_trace = sub.add_parser("trace-report",
                             help="aggregate a --trace file into hot-spot / "
                                  "imbalance / convergence summaries")
    p_trace.add_argument("trace", help="trace file (Chrome trace_event JSON or NDJSON)")
    p_trace.add_argument("--top", type=int, default=10,
                         help="how many hottest compute sets to show")
    p_trace.add_argument("--check", action="store_true",
                         help="validate the Chrome trace_event schema first "
                              "(exit nonzero on violations)")
    p_trace.set_defaults(fn=_cmd_trace_report)

    p_metrics = sub.add_parser(
        "metrics-report",
        help="summarize a --metrics snapshot (Prometheus text or JSON): "
             "per-kernel wall time, GB/s, GFLOP/s")
    p_metrics.add_argument("path", help="metrics snapshot written by solve --metrics")
    p_metrics.add_argument("--top", type=int, default=10,
                           help="how many hottest kernels to show")
    p_metrics.set_defaults(fn=_cmd_metrics_report)

    # The kernel schedule is lowered for every backend: no --backend here.
    p_rep = sub.add_parser("compile-report", parents=[_request_options(backend=None)],
                           help="show what the graph compiler does to a solver program")
    p_rep.add_argument("--no-opt", action="store_true",
                       help="freeze the raw schedule (skip optimization passes)")
    p_rep.add_argument("--tree", action="store_true", help="print the optimized step tree")
    p_rep.add_argument("--depth", type=int, default=8, help="step-tree depth limit")
    p_rep.set_defaults(fn=_cmd_compile_report)

    serve_options = _request_options(
        config=dict(required=False, default="cg",
                    help="solver config: JSON string, .json file, or a bare "
                         "solver name (default: cg)"),
        seed=dict(help="seeds the right-hand sides and per-job retry schedules"),
        backend=dict(default="fused",
                     help="backend for regular tenants (fault tenant always "
                          "uses sim); default fused, the fastest on the host "
                          "and bit-identical to sim"))
    p_serve = sub.add_parser(
        "serve", parents=[serve_options],
        help="run the fault-tolerant serving runtime in-process and drive "
             "it with a load run: baseline, overload burst, fault tenant "
             "(docs/serving.md)")
    p_serve.add_argument("--workers", type=int, default=2,
                         help="worker threads executing solves")
    p_serve.add_argument("--queue-depth", type=int, default=8,
                         help="bounded job-queue capacity (admission control)")
    p_serve.add_argument("--jobs", type=int, default=16,
                         help="baseline-phase job count")
    p_serve.add_argument("--tenants", type=int, default=2,
                         help="tenants the baseline/overload jobs rotate across")
    p_serve.add_argument("--deadline", type=float, default=None,
                         help="per-job wall-clock deadline in seconds "
                              "(queue wait included)")
    p_serve.add_argument("--interarrival", type=float, default=0.0,
                         help="baseline-phase pacing between submissions (seconds); "
                              "0 submits everything at once")
    p_serve.add_argument("--overload", type=int, default=0, metavar="FACTOR",
                         help="after the baseline, burst FACTOR x (queue depth + "
                              "workers) jobs at once; typed rejections expected")
    p_serve.add_argument("--quota-rate", type=float, default=None,
                         help="per-tenant token-bucket refill (jobs/second); "
                              "unset disables quotas")
    p_serve.add_argument("--quota-burst", type=float, default=8.0,
                         help="per-tenant token-bucket burst depth")
    p_serve.add_argument("--retry-base-delay", type=float, default=0.05,
                         help="first retry backoff in seconds")
    p_serve.add_argument("--batch-window", type=float, default=0.0, metavar="MS",
                         help="dynamic-batching assembly window in milliseconds: "
                              "compatible queued jobs coalesce into one multi-RHS "
                              "solve; 0 (default) disables queue-level batching")
    p_serve.add_argument("--max-batch", type=int, default=8, metavar="B",
                         help="most jobs one dispatch may coalesce "
                              "(with --batch-window > 0)")
    p_serve.add_argument("--fault-tenant", action="store_true",
                         help="add a tenant whose jobs inject seeded faults and "
                              "recover through the resilience rollback path "
                              "(sim backend); a retry replays the same seeded "
                              "plan, so a job whose rollbacks run out fails on "
                              "every attempt")
    p_serve.add_argument("--check", action="store_true",
                         help="re-solve every served job directly and fail unless "
                              "bit-identical (the serving-is-observational contract)")
    p_serve.add_argument("--metrics", metavar="PATH",
                         help="write the service metrics snapshot (.json or "
                              "Prometheus text)")
    p_serve.add_argument("--report", metavar="PATH",
                         help="write the load-run summary as JSON")
    p_serve.set_defaults(fn=_cmd_serve)

    p_info = sub.add_parser("info", help="print the simulated device spec")
    p_info.set_defaults(fn=_cmd_info)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ReproError as exc:
        # Each framework error family has its own nonzero exit code so
        # scripts and CI can tell an OOM from a breakdown (repro.errors).
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:  # report piped into head/less and cut short
        sys.exit(0)
