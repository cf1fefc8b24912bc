"""``WallTracer``: measured host wall-clock profiling on every backend.

The cycle-domain :class:`~repro.telemetry.tracer.Tracer` only works on the
sim backend — the ``fused`` backend has no cycle clock.  ``WallTracer`` is
the same tracer on the host clock: :meth:`~WallTracer.now` counts
``perf_counter_ns`` from the tracer's creation, and everything else — the
event list, binding and the rebind rule, scopes, end-of-run instants, the
report and the Chrome / NDJSON exports — is inherited.  Attached through
``Backend.attach`` (every backend accepts it), it records one span per
fused-kernel launch — or, on a ``sim`` run stepped for a cycle tracer or a
fault injector, per priced step — tagged with a ``kind`` arg, the fused step
counts and the static byte/FLOP estimate from
:mod:`repro.graph.passes.costs`, so measured wall time reads directly as
per-kernel GB/s and GFLOP/s (roofline-style, after the Citadel IPU
microbenchmarking methodology).  :meth:`~WallTracer.profile` is one view of
those spans (:func:`~repro.telemetry.report.kernel_rows`).

``metadata.clock`` is ``"wall_ns"`` and ``metadata.clock_hz`` is 1e9, so
the generic ns→µs scaling in :func:`~repro.telemetry.exporters.chrome_trace`
is exact and a wall trace loads in Perfetto next to a sim cycle trace
without ambiguity (the sim device's modeled rate travels separately as
``device_clock_hz``).

Like the cycle tracer, wall tracing is observational: it never touches the
numerics, so a traced run is bit-identical in tensors to an untraced one —
only wall time (the thing being measured) changes, by the cost of two
``perf_counter_ns`` calls per dispatch.
"""

from __future__ import annotations

import time

from repro.telemetry.report import kernel_rows
from repro.telemetry.tracer import Tracer

__all__ = ["WallTracer", "WALL_CLOCK_HZ"]

#: Nanosecond timestamps exported through the generic cycles→µs scaling.
WALL_CLOCK_HZ = 1e9


class WallTracer(Tracer):
    """A :class:`Tracer` whose clock is the host's, in nanoseconds."""

    def __init__(self):
        super().__init__()
        self.meta.update(clock="wall_ns", clock_hz=WALL_CLOCK_HZ)
        self._t0 = time.perf_counter_ns()

    def bind(self, device) -> None:
        super().bind(device)
        self.meta.update(clock_hz=WALL_CLOCK_HZ, device_clock_hz=device.spec.clock_hz)

    def now(self) -> int:
        """Nanoseconds since the tracer was created."""
        return time.perf_counter_ns() - self._t0

    # -- backend hooks (one call per launch / dispatch) ----------------------------

    def kernel(self, kernel, start: int) -> None:
        """Record one fused-kernel launch (``start`` from :meth:`now`)."""
        self.span(kernel.name, "kernel", start, self.now() - start, {
            "kind": "kernel",
            "n_compute": kernel.n_compute,
            "n_exchange": kernel.n_exchange,
            "n_dispatch": kernel.n_dispatch,
            "n_fallback": kernel.n_fallback,
            "est_bytes": kernel.est_bytes,
            "est_flops": kernel.est_flops,
        })

    def dispatch(self, name: str, kind: str, start: int, est_bytes: int = 0,
                 est_flops: int = 0) -> None:
        """Record one per-step dispatch of a stepped ``sim`` run (``kind`` =
        compute/exchange): one a cycle tracer or a fault injector observes."""
        self.span(name, kind, start, self.now() - start,
                  {"kind": kind, "est_bytes": est_bytes, "est_flops": est_flops})

    # -- views ----------------------------------------------------------------------

    def profile(self, top: int | None = None) -> dict:
        """Per-kernel wall profile of every launch recorded so far.

        Returns ``{"clock": "wall_ns", "total_wall_ns": ..., "kernels":
        [...]}`` with the :func:`~repro.telemetry.report.kernel_rows` rows,
        hottest first; ``top`` limits how many are returned.
        """
        rows = kernel_rows(self.events)
        return {
            "clock": "wall_ns",
            "total_wall_ns": sum(r["wall_ns"] for r in rows),
            "kernels": rows[:top],
        }
