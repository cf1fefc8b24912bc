"""``FusedBackend``: whole-device kernel execution over flat arrays.

Executes the :class:`~repro.graph.passes.kernels.KernelSchedule` built at
compile time: each :class:`~repro.graph.passes.kernels.FusedKernel` is one
host-side dispatch that runs a whole run of compute/exchange steps as
vectorized numpy over the flat per-device buffers.

Results are bit-identical to ``sim``: the vectorized paths replay the exact
same floating-point operations (see :mod:`repro.graph.passes.kernels`), and
any codelet the lowerer could not vectorize runs unchanged inside the
kernel.  There is no interpreter underneath — the engine enters every
block, a bare-step root included, through the schedule's lowered items.

The backend is untimed: cycle tracers and fault injectors are rejected
(:func:`~repro.graph.runtime.base.check_observers`), but a
:class:`~repro.telemetry.WallTracer` is accepted — each launch then gets a
measured ``perf_counter_ns`` span tagged with the kernel's fused step
counts and byte/FLOP estimates.  Every launch is also tallied in
:class:`~repro.graph.runtime.counters.GlobalCounters` so telemetry and
tests can prove fusion happened.
"""

from __future__ import annotations

from repro.graph.runtime.base import Backend, register_backend
from repro.graph.runtime.counters import GlobalCounters

__all__ = ["FusedBackend"]


@register_backend
class FusedBackend(Backend):
    """Kernel-dispatch backend: bit-identical results, fused execution."""

    name = "fused"

    #: Tells the engine to dispatch blocks through the kernel schedule.
    uses_kernels = True

    def run_kernel(self, kernel) -> None:
        """Launch one fused kernel (one host dispatch)."""
        GlobalCounters.kernels += 1
        GlobalCounters.dispatches += 1
        GlobalCounters.fused_compute_sets += kernel.n_compute
        GlobalCounters.fused_exchanges += kernel.n_exchange
        GlobalCounters.fallback_vertices += kernel.n_fallback
        wt = self.wall_tracer
        if wt is None:
            kernel.run()
            return
        start = wt.now()
        kernel.run()
        wt.kernel(kernel, start)

    def run_compute_set(self, step) -> None:
        raise RuntimeError(
            f"lowering bug: the {self.name!r} backend was handed the bare step "
            f"{step!r}; every Execute/Exchange must reach it inside a FusedKernel"
        )

    run_exchange = run_compute_set
