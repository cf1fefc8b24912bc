"""``FusedBackend``: whole-device kernel execution over flat arrays.

Launches the :class:`~repro.graph.passes.kernels.KernelSchedule` built at
compile time (:meth:`Backend.run_kernel`): each
:class:`~repro.graph.passes.kernels.FusedKernel` is one host-side dispatch
that runs a whole run of compute/exchange steps as vectorized numpy over
the flat per-device buffers.

Results are bit-identical to ``sim``: the vectorized paths replay the exact
same floating-point operations (see :mod:`repro.graph.passes.kernels`), and
any codelet the lowerer could not vectorize runs unchanged inside the
kernel.  There is no interpreter underneath — the engine enters every
block, a bare-step root included, through the schedule's lowered items.

The backend is untimed: it never prices a plan, and cycle tracers and
fault injectors are rejected
(:func:`~repro.graph.runtime.base.check_observers`), but a
:class:`~repro.telemetry.WallTracer` — a tracer on the host clock — is
accepted: :meth:`Backend.run_kernel` gives each launch a measured
``perf_counter_ns`` span tagged with the kernel's fused step counts and
byte/FLOP estimates, the spans every per-kernel wall view is derived from.
Every launch is also tallied in
:class:`~repro.graph.runtime.counters.GlobalCounters` so telemetry and
tests can prove fusion happened.
"""

from __future__ import annotations

from repro.graph.runtime.base import Backend, register_backend

__all__ = ["FusedBackend"]


@register_backend
class FusedBackend(Backend):
    """Kernel-dispatch backend: bit-identical results, no cycle model."""

    name = "fused"

    def run_compute_set(self, step) -> None:
        raise RuntimeError(
            f"lowering bug: the {self.name!r} backend was handed the bare step "
            f"{step!r}; every Execute/Exchange must reach it inside a FusedKernel"
        )

    run_exchange = run_compute_set
