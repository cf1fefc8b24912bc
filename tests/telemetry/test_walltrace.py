"""WallTracer: measured wall-clock spans on every backend, wall-domain
Chrome export, per-kernel profiles, and the metrics feed."""

import json

import numpy as np
import pytest

from repro.solvers import solve
from repro.sparse import poisson3d
from repro.telemetry import (
    MetricsRegistry,
    WallTracer,
    load_trace,
    validate_chrome_trace,
)
from repro.telemetry.walltrace import WALL_CLOCK_HZ

CG = '{"solver": "cg", "tol": 1e-6, "max_iterations": 80}'


def small_problem():
    crs, dims = poisson3d(6)
    return crs, dims, np.ones(crs.n)


@pytest.mark.parametrize("backend", ["sim", "fused"])
def test_every_backend_accepts_a_wall_tracer(backend):
    crs, dims, b = small_problem()
    res = solve(crs, b, CG, grid_dims=dims, tiles_per_ipu=4,
                backend=backend, wall_trace=True)
    wt = res.wall_telemetry
    assert isinstance(wt, WallTracer)
    assert len(wt) > 0
    assert wt.meta["clock"] == "wall_ns"
    assert wt.meta["clock_hz"] == WALL_CLOCK_HZ
    # The sim device's modeled rate travels separately, never as clock_hz.
    assert wt.meta["device_clock_hz"] != WALL_CLOCK_HZ
    prof = res.wall_profile
    assert prof["clock"] == "wall_ns"
    assert prof["total_wall_ns"] > 0 and prof["kernels"]
    assert res.wall_seconds > 0


def test_fused_kernel_spans_carry_counts_and_estimates():
    crs, dims, b = small_problem()
    res = solve(crs, b, CG, grid_dims=dims, tiles_per_ipu=4,
                backend="fused", wall_trace=True)
    kernel_spans = [e for e in res.wall_telemetry.events
                    if getattr(e, "cat", None) == "kernel"]
    assert kernel_spans
    launches = sum(1 for _ in kernel_spans)
    assert launches == res.kernel_counters["kernels"]
    for e in kernel_spans:
        assert e.args["n_compute"] >= 1
        assert e.args["est_bytes"] > 0
        assert e.args["est_flops"] >= 0
        assert e.dur >= 0
    # The profile aggregates exactly those spans.
    prof = res.wall_profile
    assert sum(r["launches"] for r in prof["kernels"]) == launches
    hot = prof["kernels"][0]
    assert hot["wall_ns"] == max(r["wall_ns"] for r in prof["kernels"])
    if hot["est_bytes"] and hot["wall_ns"]:
        assert hot["gb_per_s"] > 0


def test_per_step_spans_come_from_sim_and_kernel_spans_from_fused():
    """Only ``sim`` under a cycle tracer still steps, so it alone emits
    per-step ``compute`` / ``exchange`` wall spans; on ``fused``, and on
    ``sim`` with the wall tracer alone, every step is inside a ``kernel``
    span."""
    crs, dims, b = small_problem()
    cats = {}
    for path, backend, trace in (("stepped", "sim", True), ("sim", "sim", None),
                                 ("fused", "fused", None)):
        res = solve(crs, b, CG, grid_dims=dims, tiles_per_ipu=4,
                    backend=backend, trace=trace, wall_trace=True)
        cats[path] = {getattr(e, "cat", None) for e in res.wall_telemetry.events}
    assert {"compute", "exchange", "scope"} <= cats["stepped"]
    assert "kernel" not in cats["stepped"]
    assert cats["sim"] == cats["fused"]
    assert {"kernel", "scope"} <= cats["fused"]
    assert not cats["fused"] & {"compute", "exchange"}


def test_wall_chrome_trace_validates_and_round_trips(tmp_path):
    crs, dims, b = small_problem()
    path = tmp_path / "wall.json"
    res = solve(crs, b, CG, grid_dims=dims, tiles_per_ipu=4,
                backend="fused", wall_trace=path)
    doc = json.loads(path.read_text())
    assert validate_chrome_trace(doc) == []
    assert doc["metadata"]["clock"] == "wall_ns"
    assert doc["metadata"]["clock_hz"] == WALL_CLOCK_HZ
    events, meta = load_trace(path)
    assert meta["clock"] == "wall_ns"
    # ns timestamps survive the µs-scaled export exactly (1e9 Hz -> 1e3/µs).
    def starts(evs):
        return sorted(getattr(e, "start", getattr(e, "ts", None)) for e in evs)

    assert starts(events) == starts(res.wall_telemetry.events)


def test_wall_report_renders_in_the_wall_domain():
    crs, dims, b = small_problem()
    res = solve(crs, b, CG, grid_dims=dims, tiles_per_ipu=4,
                backend="fused", wall_trace=True)
    report = res.wall_telemetry.report(top=3)
    assert report.clock_unit == "ns"
    assert report.wall_kernels
    text = report.render()
    assert "clock domain: wall" in text
    assert "hottest kernels" in text
    assert "wall ns" in text


def test_wall_tracer_feeds_metrics_registry():
    crs, dims, b = small_problem()
    reg = MetricsRegistry()
    res = solve(crs, b, CG, grid_dims=dims, tiles_per_ipu=4,
                backend="fused", metrics=reg)
    assert res.metrics is reg
    launches = reg.counter("repro_kernel_launches_total")
    total = sum(launches.series.values())
    assert total == res.kernel_counters["kernels"]
    assert reg.gauge("repro_solve_iterations").value() == res.iterations
    assert reg.counter("repro_solves_total").value(backend="fused") == 1
    _, wall_sum, n = reg.histogram("repro_kernel_wall_seconds").snapshot(
        name=res.wall_profile["kernels"][0]["name"]
    )
    assert n > 0 and wall_sum > 0


def test_metrics_path_writes_snapshot(tmp_path):
    crs, dims, b = small_problem()
    prom = tmp_path / "m.prom"
    jsn = tmp_path / "m.json"
    solve(crs, b, CG, grid_dims=dims, tiles_per_ipu=4, backend="fused",
          metrics=prom)
    solve(crs, b, CG, grid_dims=dims, tiles_per_ipu=4, backend="fused",
          metrics=jsn)
    assert "repro_kernel_wall_ns_total" in prom.read_text()
    assert "repro_kernel_wall_ns_total" in json.loads(jsn.read_text())


def test_progress_callback_streams_samples():
    crs, dims, b = small_problem()
    samples = []
    res = solve(crs, b, CG, grid_dims=dims, tiles_per_ipu=4, backend="fused",
                on_progress=samples.append, progress_every=2)
    assert samples, "no progress samples emitted"
    assert all(p.iteration % 2 == 0 for p in samples)
    assert all(p.active_columns == 1 for p in samples)
    assert all(p.wall_seconds >= 0 for p in samples)
    # Samples follow the recorded residual history.
    recorded = dict(zip(res.stats.iterations, res.stats.residuals))
    for p in samples:
        assert recorded[p.iteration] == p.relative_residual


def test_batched_progress_reports_active_columns():
    crs, dims, b = small_problem()
    bs = np.stack([b, 2.0 * b, np.arange(crs.n, dtype=float)])
    samples = []
    res = solve(crs, bs, CG, grid_dims=dims, tiles_per_ipu=4, backend="fused",
                on_progress=samples.append)
    assert res.batch == 3
    assert samples
    assert samples[0].active_columns == 3
    assert samples[-1].active_columns <= 3
    assert min(p.active_columns for p in samples) < 3  # someone converged first


def test_shared_wall_tracer_and_registry_count_each_launch_once():
    crs, dims, b = small_problem()
    wt, reg = WallTracer(), MetricsRegistry()
    runs = [solve(crs, b, CG, grid_dims=dims, tiles_per_ipu=4, backend="fused",
                  wall_trace=wt, metrics=reg) for _ in range(2)]
    launches = sum(r.kernel_counters["kernels"] for r in runs)
    assert launches == 22
    assert sum(reg.counter("repro_kernel_launches_total").series.values()) == launches
    assert sum(row["launches"] for row in wt.profile()["kernels"]) == launches


def _kernel_table(rows):
    return {r["name"]: (r["kind"], r["launches"], r["wall_ns"], r["est_bytes"],
                        r["est_flops"]) for r in rows}


def _registry_table(reg):
    def series(metric):
        return {dict(key)["name"]: v for key, v in reg.counter(metric).series.items()}

    launches = series("repro_kernel_launches_total")
    kinds = {dict(key)["name"]: dict(key)["kind"]
             for key in reg.counter("repro_kernel_launches_total").series}
    wall, nbytes, flops = (series(f"repro_kernel_{m}_total")
                           for m in ("wall_ns", "bytes", "flops"))
    return {name: (kinds[name], n, wall[name], nbytes.get(name, 0), flops.get(name, 0))
            for name, n in launches.items()}


@pytest.mark.parametrize("backend, trace", [("fused", None), ("sim", True)],
                         ids=["fused", "stepped-sim"])
def test_every_kernel_view_reads_the_same_spans(backend, trace):
    """The profile, the report's kernel table and the ``repro_kernel_*``
    series agree kernel by kernel (``fused`` refuses a cycle tracer, so only
    ``sim`` is stepped by one)."""
    from repro.telemetry import TelemetryReport

    crs, dims, b = small_problem()
    res = solve(crs, b, CG, grid_dims=dims, tiles_per_ipu=4, backend=backend,
                trace=trace, wall_trace=True, metrics=True)
    profile = _kernel_table(res.wall_profile["kernels"])
    assert profile
    if trace:
        assert {kind for kind, *_ in profile.values()} == {"compute", "exchange"}
    report = TelemetryReport.from_events(res.wall_telemetry.events,
                                         meta=res.wall_telemetry.meta, top=len(profile))
    assert _kernel_table(report.wall_kernels) == profile
    assert _registry_table(res.metrics) == profile
