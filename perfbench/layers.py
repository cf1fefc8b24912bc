"""The traced pass: per-layer numbers, measured from outside the program.

Instead of one opaque ``solve()`` call, the same work runs as staged calls
into each layer's exported functions (``fingerprint_solve`` ->
``ProgramCache.get`` -> ``CompiledSolve.prepare`` -> ``Engine(...)`` ->
``Engine.run`` -> ``read_global`` -> host SpMV; cold path:
``DistributedMatrix`` -> ``build_solver``/``solve_into`` -> ``ctx.compile``),
each inside a span recorded here — name, start, end, parent, one id per solve
or job — kept in memory and written as a Chrome trace when the pass ends.  A
layer's number is its span's *self* time.  Every staged op is paired with the
opaque call on the same inputs and must return the same bytes.

Spans inside the program are a later change (ROADMAP item 1); nothing here
feeds an end-to-end metric.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from workloads import (
    BY_NAME,
    Measured,
    RhsStream,
    SolveWorkload,
    check_result,
    now,
    run_serve,
    same_result,
    workload_rng,
)

now_ns = time.perf_counter_ns
#: Raised by a staged call when an entry point it needs has moved or gone.
PROBE_GONE = (ImportError, AttributeError, TypeError)
#: Per array of the DRAM triad.  The 4 x last-level-cache rule cannot be met
#: here (260 MiB shared L3, first touch costs ~4 s/GiB): see README "Host probes".
STREAM_ARRAY_BYTES = 64 << 20


# -- spans ----------------------------------------------------------------------------


class Spans:
    """In-memory span recorder (written out only when the pass ends)."""

    def __init__(self):
        self.rows: list = []
        self._stack: list = []

    def add(self, name, t0, t1, parent=0, op=None, lane=0, **args) -> dict:
        row = {"id": len(self.rows) + 1, "parent": parent, "name": name, "op": op,
               "t0": t0, "t1": t1, "lane": lane, "args": args}
        self.rows.append(row)
        return row

    @contextmanager
    def span(self, name, op=None, **args):
        top = self._stack[-1] if self._stack else None
        row = self.add(name, now_ns(), None, parent=top["id"] if top else 0,
                       op=op if op is not None or top is None else top["op"], **args)
        self._stack.append(row)
        try:
            yield row
        finally:
            row["t1"] = now_ns()
            self._stack.pop()

    def self_seconds(self) -> dict:
        """span id -> duration minus what its child spans cover, in seconds."""
        out = {r["id"]: r["t1"] - r["t0"] for r in self.rows}
        by_id = {r["id"]: r for r in self.rows}
        for r in self.rows:
            p = by_id.get(r["parent"])
            if p is not None:
                out[p["id"]] -= max(0, min(r["t1"], p["t1"]) - max(r["t0"], p["t0"]))
        return {k: v * 1e-9 for k, v in out.items()}

    def chrome(self, meta: dict) -> dict:
        """Chrome ``trace_event`` object; timestamps in microseconds from 0."""
        t_min = min((r["t0"] for r in self.rows), default=0)
        events = [{"ph": "M", "pid": 0, "tid": 0, "name": "process_name",
                   "args": {"name": f"perfbench {meta.get('workload', '')}"}}]
        for r in sorted(self.rows, key=lambda r: (r["t0"], -(r["t1"] - r["t0"]))):
            events.append({
                "ph": "X", "pid": 0, "tid": r["lane"], "name": r["name"],
                "cat": r["name"].split(".")[0],
                "ts": (r["t0"] - t_min) / 1e3, "dur": (r["t1"] - r["t0"]) / 1e3,
                "args": {"id": r["id"], "parent": r["parent"], "op": r["op"], **r["args"]},
            })
        return {"traceEvents": events, "displayTimeUnit": "ms",
                "metadata": {**meta, "clock": "perf_counter_ns", "ts_unit": "us"}}


def median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def percentile_supported(values):
    """``(p, value)`` for the highest percentile with >= 10 samples beyond it."""
    n = len(values)
    if n < 20:
        return None
    p = 100.0 * (1.0 - 10.0 / n)
    return p, float(np.percentile(values, p))


# -- host probes ----------------------------------------------------------------------


def triad_gbps(array_bytes: int, min_seconds: float) -> float:
    """numpy triad a = b + s*c; GB/s over bytes *computed* from array sizes
    (two passes: read c write a, read a,b write a = 5 arrays of traffic)."""
    n = max(1024, array_bytes // 4)
    b, c = np.ones(n, np.float32), np.ones(n, np.float32)
    a = np.empty(n, np.float32)
    np.multiply(c, 1.5, out=a)  # first touch
    best, t_end = float("inf"), now() + min_seconds
    while True:
        t = now()
        np.multiply(c, 1.5, out=a)
        np.add(a, b, out=a)
        best = min(best, now() - t)
        if now() >= t_end:
            return 5 * n * 4 / best / 1e9


def host_probes(tiny: bool) -> dict:
    """The roofline base, measured in the same run: the triad at the fig5
    kernel's working-set size (64k f32 per array) and at
    ``STREAM_ARRAY_BYTES`` per array."""
    return {
        "host.triad_ws_gbps": triad_gbps(65536 * 4, 0.05),
        "host.stream_gbps": triad_gbps((1 << 20) if tiny else STREAM_ARRAY_BYTES, 0.1),
    }


def timed(fn, *args) -> float:
    t = now()
    fn(*args)
    return now() - t


# -- the staged solve -----------------------------------------------------------------


class StagedSolve:
    """The work of one ``solve()`` call as calls into exported functions."""

    def __init__(self, spans: Spans, w, crs, kwargs: dict, cache):
        self.spans, self.w, self.crs, self.kwargs, self.cache = spans, w, crs, kwargs, cache
        self.ops = 0
        self.entry = None   # what the last op ran on: bvec/xvec/solver/compiled/device

    def __call__(self, b, x0=None, tag="timed", wall_tracer=None):
        from repro.graph import Engine
        from repro.machine import IPUDevice
        from repro.solvers import CompiledSolve, build_solver, fingerprint_solve
        from repro.sparse.distribute import DistributedMatrix
        from repro.tensordsl import TensorContext, Type

        w, kw, spans = self.w, self.kwargs, self.spans
        self.ops += 1
        b64 = np.asarray(b, dtype=np.float64)
        batch = b64.shape[0] if b64.ndim == 2 else 1
        with spans.span("api.solve", op=f"{tag}-{self.ops}", tag=tag) as root:
            entry = key = None
            if self.cache is not None:
                with spans.span("session.fingerprint"):
                    key = fingerprint_solve(
                        self.crs, w.config, num_ipus=kw["num_ipus"],
                        tiles_per_ipu=kw["tiles_per_ipu"], grid_dims=kw["grid_dims"],
                        backend=kw["backend"], batch=batch)
                with spans.span("session.cache_get"):
                    entry = self.cache.get(key)
            if entry is None:
                with spans.span("sparse.distribute"):
                    device = IPUDevice(num_ipus=kw["num_ipus"],
                                       tiles_per_ipu=kw["tiles_per_ipu"])
                    ctx = TensorContext(device)
                    dist = DistributedMatrix(ctx, self.crs, grid_dims=kw["grid_dims"])
                with spans.span("tensordsl.symbolic"):
                    solver = build_solver(dist, w.config)
                    bvec = dist.vector(name="b", data=b64, batch=batch,
                                       dtype=getattr(solver, "rhs_dtype", Type.FLOAT32))
                    xvec = dist.vector(name="x", batch=batch)
                    if x0 is not None and self.cache is None:
                        xvec.write_global(np.asarray(x0, dtype=np.float64))
                    with ctx.scope(f"setup:{solver.name}"):
                        solver.setup()
                    with ctx.scope(f"solve:{solver.name}"):
                        solver.solve_into(xvec, bvec)
                with spans.span("passes.compile"):
                    compiled = ctx.compile(optimize=True)
                entry = SimpleNamespace(solver=solver, xvec=xvec, bvec=bvec,
                                        compiled=compiled, device=device)
                if self.cache is not None:
                    with spans.span("session.capture"):
                        entry = CompiledSolve.capture(key, ctx, solver, xvec, bvec,
                                                      device, compiled)
                        self.cache.put(key, entry)
            if self.cache is not None:
                with spans.span("session.prepare"):
                    entry.prepare(b64, x0=x0)
            self.entry = entry
            with spans.span("runtime.engine_init"):
                engine = Engine(entry.compiled, backend=kw["backend"],
                                wall_tracer=wall_tracer)
            with spans.span("runtime.engine_run") as run_span:
                engine.run()
            with spans.span("sparse.read_global"):
                ext = getattr(entry.solver, "x_ext", None)
                x = ext.read_global() if ext is not None else entry.xvec.read_global()
            with spans.span("sparse.host_spmv"):
                xs, bs = np.atleast_2d(x), np.atleast_2d(b64)
                for j in range(batch):
                    np.linalg.norm(self.crs.spmv(xs[j]) - bs[j]) / np.linalg.norm(bs[j])
            failure = entry.solver.classify_failure(engine)
        return SimpleNamespace(
            x=x, failure=failure, stats=entry.solver.stats.copy(),
            iterations=entry.solver.stats.total_iterations,
            cycles=int(entry.device.profiler.total_cycles),
            root=root, run_span=run_span,
            wall=(root["t1"] - root["t0"]) * 1e-9)


def import_kernel_spans(spans: Spans, wall_tracer, run_span: dict) -> None:
    """Kernel-launch spans of a ``WallTracer`` as children of ``run_span``."""
    shift = now_ns() - wall_tracer.now()  # tracer offsets -> perf_counter_ns
    for ev in wall_tracer.events:
        start = getattr(ev, "start", None)
        if start is None or ev.args.get("kind") is None:
            continue  # instants and scope spans
        t0 = max(run_span["t0"], start + shift)
        t1 = min(run_span["t1"], t0 + ev.dur)
        spans.add(ev.name, t0, t1, parent=run_span["id"], op=run_span["op"],
                  kind=ev.args["kind"], est_bytes=ev.args.get("est_bytes", 0))


def hot_kernel(profile: dict, run_seconds: float, ws_gbps: float) -> dict:
    """The hottest kernel of a wall profile against the same op's engine run."""
    rows = profile["kernels"]
    if not rows or run_seconds <= 0:
        return {}
    hot = rows[0]  # sorted hottest first
    in_kernels = sum(r["wall_ns"] for r in rows) * 1e-9
    gbps = hot["gb_per_s"]
    return {
        "runtime.kernel_hot_s": hot["wall_ns"] * 1e-9 / hot["launches"],
        "runtime.kernel_hot_share": hot["wall_ns"] * 1e-9 / run_seconds,
        "runtime.kernel_hot_gbps": gbps,
        "runtime.kernel_ws_share": gbps / ws_gbps if ws_gbps else 0.0,
        "runtime.outside_kernel_s": run_seconds - in_kernels,
    }


# -- traced solve workloads -----------------------------------------------------------


def trace_solve(w, seed: int, seconds: float, tiny: bool, spans: Spans):
    """Returns ``(Measured, metrics, unavailable)`` for one traced solve pass."""
    from repro.solvers import ProgramCache
    from repro.telemetry import WallTracer

    m, out, gone = Measured(), {}, []
    m.speed.probe()
    rng = workload_rng(w.name, seed)
    t = now()
    crs, dims = w.matrix(tiny)
    out["sparse.matgen_s"] = now() - t
    kwargs = w.solve_kwargs(dims, tiny)
    a_csr = crs.to_scipy()
    rhs = RhsStream(rng, crs.n, w.batch, w.drift, a_csr if w.manufactured else None)
    cache = ProgramCache() if w.cached else None
    staged = StagedSolve(spans, w, crs, kwargs, cache)
    opaque = w.caller(crs, kwargs, cache=cache)

    def gate(result, b, what):
        m.attempted += 1
        miss, resid = check_result(result, a_csr, b, w.residual_gate)
        if miss is not None:
            m.miss(f"{what}: {miss}")
        return resid

    # Cold op staged (it attributes the set-up), then the opaque call on the
    # same inputs: a cache hit on the staged entry, or a second cold build.
    b0, _ = rhs.next(setup=True)
    try:
        cold = staged(b0, tag="cold")
    except PROBE_GONE as exc:
        gone.append(f"staged solve: {type(exc).__name__}: {exc}")
        staged = cold = None
    t = now()
    first = opaque(b0)
    m.raw_setup_s.append(cold.wall if cold else now() - t)
    gate(first, b0, "cold op")
    if cold and not same_result(first, cold):
        raise SystemExit("perfbench: staged cold solve differs from opaque solve(); "
                         "traced pass aborted")
    prev_x = first.x
    for _ in range(w.warmup):
        b, x0 = rhs.next(prev_x)
        prev_x = opaque(b, x0).x

    # Each timed op three ways on the same inputs: the opaque call, the staged
    # calls (order alternating), and — on the first ops, for a tenth of the
    # time — the opaque call with wall_trace + metrics on.
    pairs = []   # (opaque wall, staged result)
    observed_ratios, observed_s = [], 0.0
    residual_max, first_opaque = 0.0, None
    t_start = now()
    while not pairs or now() - t_start < 0.4 * seconds:
        b, x0 = rhs.next(prev_x)
        m.speed.probe_if_due()
        s = staged(b, x0) if staged and len(pairs) % 2 else None
        t = now()
        o = opaque(b, x0)
        o_wall = now() - t
        if staged and s is None:
            s = staged(b, x0)
        residual_max = max(residual_max, gate(o, b, f"op {len(pairs) + 1}"))
        if s is not None and not same_result(o, s):
            m.spot(False, f"staged op {len(pairs) + 1} differs from opaque solve()")
        if not observed_ratios or observed_s < 0.1 * seconds:
            t = now()
            observed = opaque(b, x0, wall_trace=True, metrics=True)
            observed_s += now() - t
            observed_ratios.append((now() - t) / o_wall)
            m.spot(same_result(o, observed), "wall_trace/metrics changed the result")
        prev_x = o.x
        if first_opaque is None:
            first_opaque = o
        pairs.append((o_wall, s))
        m.raw_op_s.append(o_wall)
    out["telemetry.wall_trace_overhead_share"] = median(observed_ratios) - 1.0

    out.update(host_probes(tiny))

    if staged:
        # One more staged op with a WallTracer: kernel spans under engine_run.
        b, x0 = rhs.next(prev_x)
        wt = WallTracer()
        s = staged(b, x0, tag="walltrace", wall_tracer=wt)
        import_kernel_spans(spans, wt, s.run_span)
        run_s = (s.run_span["t1"] - s.run_span["t0"]) * 1e-9
        out.update(hot_kernel(wt.profile(), run_s, out["host.triad_ws_gbps"]))
        out.update(staged_metrics(w, spans, pairs, cold))
        out["sparse.write_global_s"] = median(
            [timed(staged.entry.bvec.write_global, np.asarray(b, dtype=np.float64))
             for _ in range(5)])

    if w.batch == 64 and not tiny:
        # The known anomaly: B=64 slower per RHS than B=16 (ROADMAP item 1).
        b16 = RhsStream(rng, crs.n, 16)
        opaque(b16.next()[0])
        rate16 = 16 / median([timed(opaque, b16.next()[0]) for _ in range(2)])
        rate64 = 64 / median(m.raw_op_s)
        out.update({"runtime.b16_rhs_per_s": rate16, "runtime.b64_rhs_per_s": rate64,
                    "runtime.b64_over_b16": rate64 / rate16})

    out["solver.residual_max"] = residual_max
    out["solver.iterations"] = first_opaque.iterations
    out["machine.modeled_cycles"] = int(first_opaque.cycles)
    out["machine.supersteps"] = first_opaque.engine.supersteps
    out["machine.exchanges"] = first_opaque.engine.exchanges
    if first_opaque.kernel_counters is not None:
        c = first_opaque.kernel_counters
        out.update({"passes.kernel_launches": c["kernels"],
                    "passes.dispatches": c["dispatches"],
                    "passes.fused_compute_sets": c["fused_compute_sets"],
                    "passes.fused_exchanges": c["fused_exchanges"],
                    "passes.fallback_vertices": c["fallback_vertices"]})
    out["passes.compile_proxy"] = first_opaque.compile_stats.compile_proxy
    if cache is not None:
        out["session.cache_hits"] = cache.stats()["hits"]
        out["session.cache_misses"] = cache.stats()["misses"]
    return m, out, gone


def staged_metrics(w, spans: Spans, pairs: list, cold) -> dict:
    """Layer numbers from the spans of the paired (timed) staged ops."""
    self_s = spans.self_seconds()
    by_op: dict = {}   # root span id -> {span name: self seconds}
    roots = {s.root["id"]: (o_wall, s) for o_wall, s in pairs}
    roots[cold.root["id"]] = (cold.wall, cold)
    for r in spans.rows:
        if r["parent"] in roots:
            by_op.setdefault(r["parent"], {})[r["name"]] = self_s[r["id"]]

    def layer(name, ops):
        return median([by_op[i][name] for i in ops if name in by_op.get(i, {})])

    warm = [s.root["id"] for _, s in pairs]
    # Build layers run once per cached program (the cold op), every op otherwise.
    build = [cold.root["id"]] if w.cached else warm
    run_s = layer("runtime.engine_run", warm)
    iters = sum(s.iterations for _, s in pairs)
    runs = sum(by_op[i]["runtime.engine_run"] for i in warm)
    out = {
        "sparse.distribute_s": layer("sparse.distribute", build),
        "tensordsl.symbolic_s": layer("tensordsl.symbolic", build),
        "passes.compile_s": layer("passes.compile", build),
        "session.fingerprint_s": layer("session.fingerprint", warm),
        "session.prepare_s": layer("session.prepare", warm),
        "runtime.engine_init_s": layer("runtime.engine_init", warm),
        "runtime.engine_run_s": run_s,
        "runtime.iter_s": runs / iters if iters else 0.0,
        "sparse.read_global_s": layer("sparse.read_global", warm),
        "sparse.host_spmv_s": layer("sparse.host_spmv", warm),
        # Shares are taken per pair, against the opaque call on the same inputs.
        "session.hit_overhead_share": median(
            [1.0 - by_op[i]["runtime.engine_run"] / roots[i][0] for i in warm]),
        "api.unattributed_share": median(
            [1.0 - sum(by_op[i].values()) / roots[i][0] for i in warm]),
        "bench.trace_overhead_share": median(
            [roots[i][1].wall / roots[i][0] for i in warm]) - 1.0,
    }
    if w.backend == "sim":
        out["machine.sim_run_s"] = run_s
        cycles = sum(s.cycles for _, s in pairs)
        out["machine.cycles_per_host_s"] = cycles / runs if runs else 0.0
    return out


# -- traced serve workloads -----------------------------------------------------------


def trace_serve(w, seed: int, seconds: float, tiny: bool, spans: Spans):
    """The serve run is the untraced one; its records become spans and layers."""
    from repro.solvers import SolverSession, fingerprint_solve

    m = run_serve(w, seed, seconds, tiny)
    groups = m.groups
    out, gone = {"sparse.matgen_s": m.info["matgen_s"]}, []
    crs, dims = w.matrix(tiny)

    jobs = [(rec, rec.result) for recs, _ in groups for rec in recs
            if not isinstance(rec.result, BaseException)]
    lanes: list = []   # end time of the last job on each lane
    for rec, jr in jobs:
        t0, t1 = int(rec.due * 1e9), int(rec.done * 1e9)
        lane = next((i for i, end in enumerate(lanes) if end <= t0), len(lanes))
        if lane == len(lanes):
            lanes.append(t1)
        else:
            lanes[lane] = t1
        op = f"job-{jr.job_id}"
        root = spans.add("serve.job", t0, t1, op=op, lane=lane,
                         batch_size=jr.batch_size, attempts=jr.attempts)
        cursor = max(t0, int(rec.sent * 1e9))
        for name, dur in (("serve.admit", rec.admitted - rec.sent),
                          ("serve.queue_wait", jr.queue_seconds),
                          ("serve.exec", jr.exec_seconds)):
            end = min(t1, cursor + int(dur * 1e9))
            spans.add(name, cursor, end, parent=root["id"], op=op, lane=lane)
            cursor = end

    walls = [max(r.done for r in recs) - min(r.due for r in recs) for recs, _ in groups]
    acc, warm = m.info["accounting"], m.info["accounting_warm"]
    out.update({
        "serve.admit_s": median([rec.admitted - rec.sent for rec, _ in jobs]),
        "serve.queue_wait_s": median([jr.queue_seconds for _, jr in jobs]),
        "serve.exec_s": median([jr.exec_seconds for _, jr in jobs]),
        "serve.overhead_s": median(
            [jr.total_seconds - jr.queue_seconds - jr.exec_seconds for _, jr in jobs]),
        # The 80th percentile is the highest one 60 jobs support (12 beyond it).
        "serve.job_p80_s": (float(np.percentile(m.raw_op_s, 80))
                            if len(m.raw_op_s) >= 50 else 0.0),
        "serve.jobs_per_s": median(
            [len(recs) / wall for (recs, _), wall in zip(groups, walls)]),
        "serve.batch_width_mean": float(np.mean([jr.batch_size for _, jr in jobs])),
        "serve.batches": acc["batches"] - warm["batches"],
        "serve.coalesced": acc["coalesced"] - warm["coalesced"],
        "serve.shed": acc["rejected"] - warm["rejected"],
        "serve.retries": acc["retries"] - warm["retries"],
        # A batch's exec time is on each of its jobs: divide to count it once.
        "serve.worker_busy_share": sum(
            jr.exec_seconds / jr.batch_size for _, jr in jobs) / sum(walls),
        "serve.backlog_end": m.info.get("backlog_end", 0),
        "serve.generator_late_p90_s": (
            float(np.percentile([rec.sent - rec.due for rec, _ in jobs], 90))
            if w.rate else 0.0),
        "solver.residual_max": m.info["residual_max"],
        "solver.iterations": jobs[0][1].result.iterations if jobs else 0,
    })

    # The same job through an unloaded session, and the admission-time hash.
    rng = workload_rng(w.name, seed + 1)
    session = SolverSession(crs, w.config, grid_dims=dims, backend=w.backend)
    session.solve(rng.standard_normal(crs.n))
    out["serve.direct_solve_s"] = median(
        [timed(session.solve, rng.standard_normal(crs.n)) for _ in range(20)])
    out["session.fingerprint_s"] = median(
        [timed(lambda: fingerprint_solve(crs, w.config, grid_dims=dims, backend=w.backend))
         for _ in range(20)])
    out.update(host_probes(tiny))
    return m, out, gone


def run_traced(name: str, seed: int, seconds: float, tiny: bool, trace_path: Path):
    """One traced pass; writes the Chrome trace and returns
    ``(Measured, {per-layer metric: value}, probes_unavailable)``."""
    w = BY_NAME[name]
    spans = Spans()
    trace = trace_solve if isinstance(w, SolveWorkload) else trace_serve
    m, out, gone = trace(w, seed, seconds, tiny, spans)
    obj = spans.chrome({"workload": name, "seed": seed})
    try:
        from repro.telemetry import validate_chrome_trace
    except ImportError:
        gone.append("repro.telemetry.validate_chrome_trace")
    else:
        errors = validate_chrome_trace(obj)
        m.spot(not errors, f"chrome trace invalid: {errors[:3]}")
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    trace_path.write_text(json.dumps(obj) + "\n")
    return m, out, gone
