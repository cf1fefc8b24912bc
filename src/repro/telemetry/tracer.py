"""The ``Tracer``: structured event collection for the runtime backends.

A tracer is handed to the backend via ``Backend.attach`` (see
:mod:`repro.graph.runtime`); the backend, on the cycle clock, then emits
one :class:`~repro.telemetry.events.SpanEvent` per BSP superstep — compute
phases with per-tile worker makespans and the load-imbalance ratio,
exchange phases with transfer volume and fabric congestion — plus counter
tracks and, at :meth:`finalize`, per-tile SRAM high-water marks and busy
totals.  Solver convergence (residual vs. cycles, through
:class:`~repro.solvers.base.SolveStats`) joins the stream via
:meth:`convergence`.

Tracing never participates in execution: the hooks only *observe* the
profiler clock and the frozen plans, so a traced run is bit-identical — in
tensors and in cycles — to an untraced one, and a disabled tracer costs the
backends a single ``is None`` check per superstep.

The clock is the one thing a tracer's domain changes: :meth:`Tracer.now`
reads the device's cycles here, and the wall-clock
:class:`~repro.telemetry.walltrace.WallTracer` overrides it with host
nanoseconds — event list, binding, scopes, end-of-run instants and every
view are shared.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.telemetry.events import CounterEvent, InstantEvent, SpanEvent

__all__ = ["Tracer", "TILE_DETAIL_LIMIT"]

#: Above this many participating tiles, span args carry a min/mean/max
#: summary instead of the full per-tile makespan map (keeps traces of
#: 1472-tile devices loadable).
TILE_DETAIL_LIMIT = 64


class Tracer:
    """Collects spans, counters, and instants on one timeline, across every
    run it is bound to."""

    def __init__(self):
        self.events: list = []
        self.meta: dict = {}
        self.device = None
        self._tile_busy: dict[int, int] = {}
        self._finalized = False
        #: Added to every emitted timestamp, so that a run on a device whose
        #: clock restarts at zero lands after what is already recorded
        #: (:meth:`bind`).
        self._ts_offset = 0

    # -- device binding ------------------------------------------------------------

    def bind(self, device) -> None:
        """Attach the device whose clock timestamps the next run's events.

        A tracer bound again — a second solve into a shared tracer, a
        program rebuilt after OOM degradation — continues its timeline past
        everything it has recorded, and the new run emits its own
        end-of-run instants (:meth:`finalize`).
        """
        self.device = device
        self._tile_busy = {}
        self._finalized = False
        end = max((e.start + e.dur if isinstance(e, SpanEvent) else e.ts
                   for e in self.events), default=0)
        self._ts_offset = max(0, end - self.now())
        spec = device.spec
        self.meta.update(
            num_ipus=device.num_ipus,
            num_tiles=device.num_tiles,
            tiles_per_ipu=spec.tiles_per_ipu,
            clock_hz=spec.clock_hz,
            sram_per_tile=spec.sram_per_tile,
        )

    def now(self) -> int:
        """The current cycle on the *device's* clock (offset excluded; the
        emitters apply :attr:`_ts_offset` exactly once)."""
        return self.device.profiler.total_cycles if self.device is not None else 0

    # -- low-level emitters --------------------------------------------------------

    def span(self, name: str, cat: str, start: int, dur: int, args: dict | None = None):
        self.events.append(SpanEvent(name, cat, start + self._ts_offset, dur, args or {}))

    def counter(self, name: str, values: dict, ts: int | None = None):
        ts = self.now() if ts is None else ts
        self.events.append(CounterEvent(name, ts + self._ts_offset, values))

    def instant(self, name: str, cat: str, args: dict | None = None, ts: int | None = None):
        ts = self.now() if ts is None else ts
        self.events.append(InstantEvent(name, cat, ts + self._ts_offset, args or {}))

    @contextmanager
    def scope(self, label: str):
        """Span covering a labeled program scope (nesting renders as a
        flame graph in Perfetto because inner spans start no earlier)."""
        start = self.now()
        try:
            yield self
        finally:
            self.span(label, "scope", start, self.now() - start)

    # -- backend hooks (one call per superstep) ------------------------------------

    def compute_phase(self, plan, start: int, cycles: int, sync_cycles: int) -> None:
        """Record one compute superstep from its frozen :class:`ComputePlan`."""
        makespans = dict(zip(plan.tile_ids.tolist(), plan.makespans.tolist()))
        n = len(makespans)
        mean = sum(makespans.values()) / n if n else 0.0
        imbalance = plan.worst_tile / mean if mean > 0 else 1.0
        args = {
            "category": plan.category,
            "tiles": n,
            "worst_tile_cycles": plan.worst_tile,
            "mean_tile_cycles": mean,
            "imbalance": imbalance,
            "sync_cycles": sync_cycles,
        }
        if 0 < n <= TILE_DETAIL_LIMIT:
            args["tile_makespans"] = makespans
        else:
            args["tile_makespans_summary"] = {
                "min": min(makespans.values(), default=0),
                "max": plan.worst_tile,
                "mean": mean,
            }
        self.span(plan.name, "compute", start, cycles, args)
        self.counter("imbalance", {"worst/mean": imbalance}, ts=start)
        for tile_id, make in makespans.items():
            self._tile_busy[tile_id] = self._tile_busy.get(tile_id, 0) + make

    def exchange_phase(self, plan, phase, start: int, cycles: int) -> None:
        """Record one exchange superstep from its plan and the fabric's
        :class:`~repro.machine.fabric.ExchangePhase` cost breakdown."""
        senders = {t.src_tile for t in plan.transfers}
        sent_bytes = sum(t.nbytes for t in plan.transfers)
        congestion = 1.0
        if phase.stream_cycles > 0 and senders and self.device is not None:
            # Actual streaming time vs. perfectly balanced senders — >1 means
            # a fabric hotspot (one tile streaming most of the bytes).
            ideal = self.device.model.exchange_bytes(-(-sent_bytes // len(senders)))
            congestion = phase.stream_cycles / max(ideal, 1)
        self.span(
            plan.name,
            "exchange",
            start,
            cycles,
            {
                "total_bytes": phase.total_bytes,
                "sent_bytes": sent_bytes,
                "transfers": len(plan.transfers),
                "senders": len(senders),
                "sync_cycles": phase.sync_cycles,
                "stream_cycles": phase.stream_cycles,
                "instr_cycles": phase.instr_cycles,
                "local_cycles": plan.local_cycles,
                "inter_ipu": phase.inter_ipu,
                "congestion": congestion,
            },
        )
        self.counter("exchange_bytes", {"bytes": phase.total_bytes}, ts=start)

    def control(self, start: int, cycles: int) -> None:
        """Record one control decision (loop iteration / branch sync)."""
        self.span("control", "control", start, cycles)

    # -- solver / end-of-run telemetry ---------------------------------------------

    def convergence(self, stats) -> None:
        """Emit the residual-vs-cycles counter track from a
        :class:`~repro.solvers.base.SolveStats` record."""
        import math

        for it, res, cyc in zip(stats.iterations, stats.residuals, stats.cycles):
            values = {"relative_residual": res}
            if res > 0:
                values["log10_residual"] = math.log10(res)
            self.counter("residual", values, ts=cyc)
            self.counter("iteration", {"n": it}, ts=cyc)

    def resilience(self, report) -> None:
        """Emit the end-of-solve
        :class:`~repro.solvers.resilience.ResilienceReport` summary (the
        report's "faults & recovery" section aggregates this together with
        the per-injection ``fault`` and per-``rollback`` instants)."""
        self.instant("resilience", "fault", report.to_dict(), ts=self.now())

    def finalize(self) -> None:
        """Emit end-of-run per-tile metrics (idempotent)."""
        if self._finalized or self.device is None:
            return
        self._finalized = True
        ts = self.now()
        peaks = {t.tile_id: t.bytes_peak for t in self.device.tiles}
        self.instant(
            "sram_peak",
            "memory",
            {
                "per_tile_bytes": peaks,
                "max_bytes": max(peaks.values(), default=0),
                "capacity_bytes": self.device.spec.sram_per_tile,
            },
            ts=ts,
        )
        self.counter("sram_peak_max", {"bytes": max(peaks.values(), default=0)}, ts=ts)
        if self._tile_busy:
            busy = self._tile_busy
            mean = sum(busy.values()) / len(busy)
            self.instant(
                "tile_busy",
                "compute",
                {
                    "per_tile_cycles": dict(busy),
                    "imbalance": (max(busy.values()) / mean) if mean > 0 else 1.0,
                },
                ts=ts,
            )

    # -- views ----------------------------------------------------------------------

    def report(self, top: int = 10):
        """Aggregate the event stream into a :class:`TelemetryReport`."""
        from repro.telemetry.report import TelemetryReport

        self.finalize()
        return TelemetryReport.from_events(self.events, meta=self.meta, top=top)

    def to_chrome(self, path=None) -> dict:
        """Chrome ``trace_event`` JSON (loadable in Perfetto / about:tracing)."""
        from repro.telemetry.exporters import chrome_trace, write_chrome

        self.finalize()
        if path is not None:
            return write_chrome(self.events, path, meta=self.meta)
        return chrome_trace(self.events, meta=self.meta)

    def to_ndjson(self, path) -> None:
        """Newline-delimited JSON (one event per line, raw timestamps)."""
        from repro.telemetry.exporters import write_ndjson

        self.finalize()
        write_ndjson(self.events, path, meta=self.meta)

    def __len__(self) -> int:
        return len(self.events)

    def __repr__(self):
        return f"{type(self).__name__}(events={len(self.events)}, device={self.device!r})"
