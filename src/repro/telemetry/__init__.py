"""PopVision-style telemetry: structured tracing across the runtime.

The paper's measurement story leans on Poplar's profiling tools (PopVision
Graph Analyser) for cycle breakdowns and tile load-balance diagnosis; this
package is the reproduction's equivalent.  A :class:`Tracer` attaches to a
runtime backend (``Backend.attach``) and records the BSP timeline as
structured events — compute supersteps with per-tile makespans and load
imbalance, exchange phases with transfer volume and fabric congestion,
labeled program scopes, solver convergence — which export to Chrome
``trace_event`` JSON (Perfetto-loadable) or NDJSON, and aggregate into a
:class:`TelemetryReport`.

:class:`WallTracer` is the same tracer on the host clock (nanoseconds, on
every backend): one span per fused-kernel launch or stepped dispatch.  Its
per-kernel profile, the report's kernel table and the ``repro_kernel_*``
series in a :class:`MetricsRegistry` are views of those same spans
(:func:`~repro.telemetry.report.kernel_rows`).

Tracing is observational: a traced run is bit-identical in tensors *and*
cycles to an untraced one.  See ``docs/observability.md``.
"""

from repro.telemetry.events import CounterEvent, InstantEvent, SpanEvent
from repro.telemetry.exporters import (
    chrome_trace,
    load_trace,
    validate_chrome_trace,
    write_chrome,
    write_ndjson,
)
from repro.telemetry.metrics import Counter, Gauge, Histogram, MetricsRegistry, log_buckets
from repro.telemetry.report import TelemetryReport
from repro.telemetry.tracer import Tracer
from repro.telemetry.walltrace import WallTracer

__all__ = [
    "Tracer",
    "WallTracer",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "log_buckets",
    "TelemetryReport",
    "SpanEvent",
    "CounterEvent",
    "InstantEvent",
    "chrome_trace",
    "write_chrome",
    "write_ndjson",
    "load_trace",
    "validate_chrome_trace",
]
