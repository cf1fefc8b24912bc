"""Tracer unit tests + the tracing-is-observational contract.

The load-bearing guarantee (ISSUE acceptance): a traced run is bit-identical
— in tensors *and* cycles — to an untraced one, and with no tracer attached
the backends emit zero events through code paths identical to the
pre-telemetry runtime.
"""

import numpy as np
import pytest

from repro.graph.passes.plans import ComputePlan, ExchangePlan
from repro.machine import IPUDevice
from repro.machine.fabric import ExchangePhase, Transfer
from repro.telemetry import CounterEvent, InstantEvent, SpanEvent, Tracer
from repro.telemetry.tracer import TILE_DETAIL_LIMIT


def compute_plan(makespans, name="cs_test", category="spmv"):
    return ComputePlan(name=name, category=category, tile_ids=np.arange(len(makespans)),
                       makespans=np.array(makespans, dtype=np.int64),
                       worst_tile=max(makespans, default=0))


def exchange_plan(transfers=(), name="exchange", local=0):
    plan = ExchangePlan(name=name, local_cycles=local, vectorized=True, flat=(), n_ops=0,
                        copies=((), ()))
    vars(plan)["transfers"] = tuple(transfers)  # seeds the lazily built list
    return plan


class TestTracerPrimitives:
    def test_span_counter_instant(self):
        tr = Tracer()
        tr.span("s", "scope", 10, 5, {"k": 1})
        tr.counter("c", {"v": 2.0}, ts=12)
        tr.instant("i", "memory", {"x": 3}, ts=15)
        assert len(tr) == 3
        span, counter, instant = tr.events
        assert isinstance(span, SpanEvent) and span.dur == 5
        assert isinstance(counter, CounterEvent) and counter.values == {"v": 2.0}
        assert isinstance(instant, InstantEvent) and instant.ts == 15

    def test_scope_measures_device_clock(self):
        dev = IPUDevice(tiles_per_ipu=2)
        tr = Tracer()
        tr.bind(dev)
        with tr.scope("solve"):
            dev.profiler.record("x", 100)
        (ev,) = tr.events
        assert ev.name == "solve" and ev.cat == "scope"
        assert (ev.start, ev.dur) == (0, 100)

    def test_bind_captures_meta(self):
        tr = Tracer()
        tr.bind(IPUDevice(num_ipus=2, tiles_per_ipu=4))
        assert tr.meta["num_tiles"] == 8
        assert tr.meta["clock_hz"] > 0


class TestComputePhaseHook:
    def test_imbalance_and_per_tile_makespans(self):
        tr = Tracer()
        tr.compute_phase(compute_plan([100, 50, 50]), start=0, cycles=164, sync_cycles=64)
        span = next(e for e in tr.events if isinstance(e, SpanEvent))
        assert span.cat == "compute" and span.name == "cs_test"
        assert span.args["imbalance"] == pytest.approx(100 / (200 / 3))
        assert span.args["tile_makespans"] == {0: 100, 1: 50, 2: 50}
        counter = next(e for e in tr.events if isinstance(e, CounterEvent))
        assert counter.name == "imbalance"

    def test_many_tiles_summarized(self):
        tr = Tracer()
        tr.compute_phase(compute_plan([10] * (TILE_DETAIL_LIMIT + 1)),
                         start=0, cycles=74, sync_cycles=64)
        span = tr.events[0]
        assert "tile_makespans" not in span.args
        assert span.args["tile_makespans_summary"]["max"] == 10

    def test_tile_busy_accumulates_across_phases(self):
        dev = IPUDevice(tiles_per_ipu=2)
        tr = Tracer()
        tr.bind(dev)
        tr.compute_phase(compute_plan([10, 30]), 0, 94, 64)
        tr.compute_phase(compute_plan([20, 0]), 94, 84, 64)
        tr.finalize()
        busy = next(e for e in tr.events
                    if isinstance(e, InstantEvent) and e.name == "tile_busy")
        assert busy.args["per_tile_cycles"] == {0: 30, 1: 30}


class TestExchangePhaseHook:
    def test_volume_and_congestion(self):
        dev = IPUDevice(tiles_per_ipu=4)
        tr = Tracer()
        tr.bind(dev)
        # One hot sender streaming 800 B while three others send 0: the
        # fabric hotspot shows up as congestion > 1.
        phase = dev.fabric.run([Transfer(0, (1,), 400), Transfer(0, (2,), 400)])
        plan = exchange_plan([Transfer(0, (1,), 400), Transfer(0, (2,), 400)])
        tr.exchange_phase(plan, phase, start=0, cycles=phase.cycles)
        span = tr.events[0]
        assert span.cat == "exchange"
        assert span.args["sent_bytes"] == 800
        assert span.args["transfers"] == 2 and span.args["senders"] == 1
        assert span.args["congestion"] == pytest.approx(1.0)
        balanced = dev.fabric.run([Transfer(0, (1,), 400), Transfer(2, (3,), 400)])
        tr.exchange_phase(
            exchange_plan([Transfer(0, (1,), 400), Transfer(2, (3,), 400)]),
            balanced, start=phase.cycles, cycles=balanced.cycles)
        assert tr.events[2].args["congestion"] == pytest.approx(1.0)

    def test_empty_exchange(self):
        tr = Tracer()
        tr.exchange_phase(exchange_plan(), ExchangePhase(), start=5, cycles=0)
        assert tr.events[0].args["total_bytes"] == 0
        assert tr.events[0].args["congestion"] == 1.0


class TestFinalize:
    def test_sram_peaks_emitted_once(self):
        dev = IPUDevice(tiles_per_ipu=2)
        dev.tiles[0].alloc("a", np.zeros(8, dtype=np.float32))
        tr = Tracer()
        tr.bind(dev)
        tr.finalize()
        tr.finalize()  # idempotent
        sram = [e for e in tr.events
                if isinstance(e, InstantEvent) and e.name == "sram_peak"]
        assert len(sram) == 1
        assert sram[0].args["per_tile_bytes"] == {0: 32, 1: 0}
        assert sram[0].args["capacity_bytes"] == dev.spec.sram_per_tile

    def test_peak_survives_free(self):
        dev = IPUDevice(tiles_per_ipu=1)
        t = dev.tiles[0]
        t.alloc("a", np.zeros(16, dtype=np.float32))
        t.free("a")
        assert t.bytes_used == 0 and t.bytes_peak == 64
        assert dev.sram_report()["max_tile_peak_bytes"] == 64
        assert dev.sram_report()["max_tile_bytes"] == 0


class TestConvergence:
    def test_residual_counters_from_stats(self):
        from repro.solvers.base import SolveStats

        stats = SolveStats()
        stats.record(1, 0.5, cycles=100)
        stats.record(2, 0.05, cycles=200)
        assert stats.residual_series() == [(100, 1, 0.5), (200, 2, 0.05)]
        tr = Tracer()
        tr.convergence(stats)
        residuals = [e for e in tr.events
                     if isinstance(e, CounterEvent) and e.name == "residual"]
        assert [e.ts for e in residuals] == [100, 200]
        assert residuals[1].values["relative_residual"] == 0.05
        assert residuals[1].values["log10_residual"] == pytest.approx(-1.30103)


class TestTracingIsObservational:
    """ISSUE acceptance: tracing on/off changes nothing but the event list."""

    def _solve(self, trace):
        from repro.solvers import solve
        from repro.sparse import poisson2d

        crs, dims = poisson2d(8)
        b = np.ones(64)
        return solve(crs, b, "cg", tiles_per_ipu=4, grid_dims=dims, trace=trace)

    def test_traced_run_bit_identical_to_untraced(self):
        off = self._solve(trace=None)
        on = self._solve(trace=True)
        np.testing.assert_array_equal(off.x, on.x)
        assert off.cycles == on.cycles
        assert off.profile == on.profile
        assert off.stats.residuals == on.stats.residuals
        assert off.telemetry is None
        assert len(on.telemetry) > 0

    def test_disabled_tracer_means_zero_events(self):
        result = self._solve(trace=None)
        assert result.telemetry is None
        assert result.engine.tracer is None
        assert result.engine.backend.tracer is None

    def test_solve_stats_carry_cycles(self):
        result = self._solve(trace=None)
        cycles = result.stats.cycles
        assert len(cycles) == len(result.stats.residuals) > 0
        assert all(a < b for a, b in zip(cycles, cycles[1:]))
        assert cycles[-1] <= result.cycles

    def test_fused_backend_rejects_tracer(self):
        from repro.solvers import solve
        from repro.sparse import poisson2d

        crs, dims = poisson2d(8)
        with pytest.raises(ValueError, match="sim"):
            solve(crs, np.ones(64), "cg", tiles_per_ipu=4, grid_dims=dims,
                  backend="fused", trace=True)

    def test_trace_path_writes_chrome_file(self, tmp_path):
        import json

        from repro.telemetry import validate_chrome_trace

        out = tmp_path / "t.json"
        result = self._solve(trace=out)
        obj = json.loads(out.read_text())
        assert validate_chrome_trace(obj) == []
        assert result.telemetry is not None

    def test_existing_tracer_instance_is_used(self):
        tr = Tracer()
        result = self._solve(trace=tr)
        assert result.telemetry is tr
        assert len(tr) > 0


def test_shared_tracer_concatenates_runs():
    """A tracer bound again continues its timeline past what it recorded,
    and each run emits its own end-of-run instants."""
    from repro.solvers import solve
    from repro.sparse import poisson3d
    from repro.telemetry import chrome_trace, validate_chrome_trace

    crs, dims = poisson3d(6)
    tr = Tracer()
    cg = {"solver": "cg", "tol": 1e-6}
    first = solve(crs, np.ones(crs.n), cg, grid_dims=dims, tiles_per_ipu=4, trace=tr)
    n_first = len(tr)
    end = max(e.start + e.dur if isinstance(e, SpanEvent) else e.ts for e in tr.events)
    assert end == first.cycles
    solve(crs, np.ones(crs.n), cg, grid_dims=dims, tiles_per_ipu=4, trace=tr)
    second = [e for e in tr.events[n_first:] if isinstance(e, SpanEvent)]
    assert second and min(e.start for e in second) >= end
    peaks = [e for e in tr.events if isinstance(e, InstantEvent) and e.name == "sram_peak"]
    assert len(peaks) == 2 and peaks[1].ts >= end
    assert sum(isinstance(e, InstantEvent) and e.name == "tile_busy" for e in tr.events) == 2
    assert validate_chrome_trace(chrome_trace(tr.events, meta=tr.meta)) == []
