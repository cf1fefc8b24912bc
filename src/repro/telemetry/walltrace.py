"""``WallTracer``: measured host wall-clock profiling on every backend.

The cycle-domain :class:`~repro.telemetry.tracer.Tracer` only works on the
sim backend — the ``fused`` backend has no cycle clock, which left it
observably blind beyond the five :class:`GlobalCounters` integers.  The
``WallTracer`` closes that gap: attached through ``Backend.attach`` (every
backend accepts it), it records one ``perf_counter_ns`` span per
fused-kernel launch — or, on a ``sim`` run stepped for a cycle tracer or a
fault injector, per priced step — tagged with the kernel id, step kind,
fused step counts, and the static byte/FLOP
estimate from :mod:`repro.graph.passes.costs` — so measured wall time
reads directly as per-kernel GB/s and GFLOP/s (roofline-style, after the
Citadel IPU microbenchmarking methodology).

Events reuse the frozen telemetry event classes and the existing Chrome /
NDJSON exporters, but in a distinct clock domain: ``metadata.clock`` is
``"wall_ns"`` and ``metadata.clock_hz`` is 1e9, so the generic ns→µs
scaling in :func:`~repro.telemetry.exporters.chrome_trace` is exact and a
wall trace loads in Perfetto next to a sim cycle trace without ambiguity
(the sim device's modeled rate travels separately as
``device_clock_hz``).  Timestamps are offsets from the tracer's first
binding, so traces start near zero.

Like the cycle tracer, wall tracing is observational: it never touches the
numerics, so a traced run is bit-identical in tensors to an untraced one —
only wall time (the thing being measured) changes, by the cost of two
``perf_counter_ns`` calls per dispatch.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

from repro.telemetry.events import InstantEvent, SpanEvent

__all__ = ["WallTracer", "WALL_CLOCK_HZ"]

#: Nanosecond timestamps exported through the generic cycles→µs scaling.
WALL_CLOCK_HZ = 1e9


class WallTracer:
    """Collects wall-clock spans from one program execution."""

    def __init__(self, metrics=None):
        self.events: list = []
        self.meta: dict = {"clock": "wall_ns", "clock_hz": WALL_CLOCK_HZ}
        self.device = None
        #: Optional :class:`~repro.telemetry.metrics.MetricsRegistry` the
        #: tracer feeds per-kernel series into (``None`` costs nothing).
        self.metrics = metrics
        self._t0: int | None = None
        # name -> [kind, launches, wall_ns, est_bytes, est_flops]
        self._agg: dict = {}

    # -- binding / clock -----------------------------------------------------------

    def bind(self, device) -> None:
        """Attach the executing device (records its shape in the metadata).

        Called by ``Backend.attach``; rebinding on a program
        rebuild keeps the original time origin, so one tracer's timeline
        stays monotone across graceful-degradation restarts.
        """
        self.device = device
        if self._t0 is None:
            self._t0 = time.perf_counter_ns()
        spec = device.spec
        self.meta.update(
            num_ipus=device.num_ipus,
            num_tiles=device.num_tiles,
            tiles_per_ipu=spec.tiles_per_ipu,
            device_clock_hz=spec.clock_hz,
            sram_per_tile=spec.sram_per_tile,
        )

    def now(self) -> int:
        """Nanoseconds since the tracer's first binding."""
        if self._t0 is None:
            self._t0 = time.perf_counter_ns()
        return time.perf_counter_ns() - self._t0

    # -- backend hooks (one call per launch / dispatch) ----------------------------

    def _accumulate(self, name: str, kind: str, dur: int, est_bytes: int,
                    est_flops: int) -> None:
        entry = self._agg.get(name)
        if entry is None:
            entry = self._agg[name] = [kind, 0, 0, 0, 0]
        entry[1] += 1
        entry[2] += dur
        entry[3] += est_bytes
        entry[4] += est_flops
        m = self.metrics
        if m is not None:
            m.counter(
                "repro_kernel_wall_ns_total", "measured wall ns per kernel/step"
            ).inc(dur, name=name, kind=kind)
            m.counter(
                "repro_kernel_launches_total", "launches per kernel/step"
            ).inc(1, name=name, kind=kind)
            if est_bytes:
                m.counter(
                    "repro_kernel_bytes_total", "estimated bytes per kernel/step"
                ).inc(est_bytes, name=name, kind=kind)
            if est_flops:
                m.counter(
                    "repro_kernel_flops_total", "estimated flops per kernel/step"
                ).inc(est_flops, name=name, kind=kind)
            m.histogram(
                "repro_kernel_wall_seconds", "per-launch wall time distribution"
            ).observe(dur * 1e-9, name=name)

    def kernel(self, kernel, start: int) -> None:
        """Record one fused-kernel launch (``start`` from :meth:`now`)."""
        dur = self.now() - start
        self.events.append(
            SpanEvent(
                kernel.name,
                "kernel",
                start,
                dur,
                {
                    "kind": "kernel",
                    "n_compute": kernel.n_compute,
                    "n_exchange": kernel.n_exchange,
                    "n_dispatch": kernel.n_dispatch,
                    "n_fallback": kernel.n_fallback,
                    "est_bytes": kernel.est_bytes,
                    "est_flops": kernel.est_flops,
                },
            )
        )
        self._accumulate(kernel.name, "kernel", dur, kernel.est_bytes, kernel.est_flops)

    def dispatch(self, name: str, kind: str, start: int, est_bytes: int = 0,
                 est_flops: int = 0) -> None:
        """Record one per-step dispatch of a stepped ``sim`` run (``kind`` =
        compute/exchange): one a cycle tracer or a fault injector observes."""
        dur = self.now() - start
        self.events.append(
            SpanEvent(
                name,
                kind,
                start,
                dur,
                {"kind": kind, "est_bytes": est_bytes, "est_flops": est_flops},
            )
        )
        self._accumulate(name, kind, dur, est_bytes, est_flops)

    @contextmanager
    def scope(self, label: str):
        """Span covering a labeled program scope (nests over the launches)."""
        start = self.now()
        try:
            yield self
        finally:
            self.events.append(
                SpanEvent(label, "scope", start, self.now() - start, {})
            )

    def finalize(self) -> None:
        """Emit the end-of-run totals instant (idempotent per totals)."""
        total = sum(e[2] for e in self._agg.values())
        self.events.append(
            InstantEvent(
                "wall_totals",
                "wall",
                self.now(),
                {
                    "spans": sum(e[1] for e in self._agg.values()),
                    "wall_ns": total,
                    "est_bytes": sum(e[3] for e in self._agg.values()),
                    "est_flops": sum(e[4] for e in self._agg.values()),
                },
            )
        )

    # -- views ----------------------------------------------------------------------

    def profile(self, top: int | None = None) -> dict:
        """Aggregated per-kernel wall profile.

        Returns ``{"clock": "wall_ns", "total_wall_ns": ..., "kernels":
        [...]}`` with one row per kernel / step name: launches, total
        measured nanoseconds, the byte/FLOP estimates, and the derived
        GB/s and GFLOP/s.  Rows are sorted hottest-first; ``top`` limits
        how many are returned.
        """
        rows = []
        for name, (kind, launches, ns, est_b, est_f) in self._agg.items():
            sec = ns * 1e-9
            rows.append(
                {
                    "name": name,
                    "kind": kind,
                    "launches": launches,
                    "wall_ns": ns,
                    "est_bytes": est_b,
                    "est_flops": est_f,
                    "gb_per_s": (est_b / sec / 1e9) if sec > 0 and est_b else 0.0,
                    "gflop_per_s": (est_f / sec / 1e9) if sec > 0 and est_f else 0.0,
                }
            )
        rows.sort(key=lambda r: -r["wall_ns"])
        if top is not None:
            rows = rows[:top]
        return {
            "clock": "wall_ns",
            "total_wall_ns": sum(e[2] for e in self._agg.values()),
            "kernels": rows,
        }

    def report(self, top: int = 10):
        """Aggregate the event stream into a :class:`TelemetryReport`."""
        from repro.telemetry.report import TelemetryReport

        return TelemetryReport.from_events(self.events, meta=self.meta, top=top)

    def to_chrome(self, path=None) -> dict:
        """Chrome ``trace_event`` JSON in the wall-clock domain."""
        from repro.telemetry.exporters import chrome_trace, write_chrome

        if path is not None:
            return write_chrome(self.events, path, meta=self.meta)
        return chrome_trace(self.events, meta=self.meta)

    def to_ndjson(self, path) -> None:
        """Newline-delimited JSON, nanosecond timestamps."""
        from repro.telemetry.exporters import write_ndjson

        write_ndjson(self.events, path, meta=self.meta)

    def __len__(self) -> int:
        return len(self.events)

    def __repr__(self):
        return f"WallTracer(events={len(self.events)}, kernels={len(self._agg)})"
