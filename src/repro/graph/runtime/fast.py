"""``FastBackend``: numerics only, as fast as the host allows.

Executes exactly the same floating-point operations in exactly the same
order as :class:`~repro.graph.runtime.sim.SimBackend` — results are
bit-identical — but skips everything that only exists to produce cycle
counts: no profiler records, no worker packing, no fabric or sync model,
no control-overhead accounting.  Compute phases replay the plan's cached
dispatch list; exchange phases are the plan's flat copy ops — one numpy
gather/scatter per whole-device buffer pair — and nothing else.

Use it for large-matrix runs where only the solution matters (convergence
studies, correctness sweeps); cycle counts and modeled seconds read as
zero afterwards.
"""

from __future__ import annotations

from repro.errors import BackendCapabilityError
from repro.graph.runtime.base import Backend, register_backend

__all__ = ["FastBackend"]


@register_backend
class FastBackend(Backend):
    """Functional backend: bit-identical results, no cycle accounting.

    Both observability hooks are rejected with the same typed error — the
    guard is shared (by inheritance) with every untimed backend, e.g.
    :class:`~repro.graph.runtime.fused.FusedBackend`.
    """

    name = "fast"

    def set_tracer(self, tracer) -> None:
        """An untimed backend has no cycle clock, so a trace would be a flat
        line of zero-timestamp events; reject it instead of recording one."""
        if tracer is not None:
            raise BackendCapabilityError(
                f"the {self.name!r} backend has no cycle clock, so it cannot "
                "record a cycle-domain trace; use --backend sim for cycle "
                "traces, or --wall-trace for measured host timing on this "
                "backend (docs/observability.md)",
                backend=self.name,
                capability="tracer",
            )

    def set_fault_injector(self, injector) -> None:
        """Fault injection is defined on the BSP superstep timeline (stall
        cycles, superstep-indexed OOM); without a cycle model the plan would
        replay wrongly, so reject it exactly like a tracer."""
        if injector is not None:
            raise BackendCapabilityError(
                f"the {self.name!r} backend has no superstep cost model, so "
                "fault timing would be meaningless; use --backend sim for "
                "fault injection (docs/resilience.md)",
                backend=self.name,
                capability="fault_injector",
            )

    def bind(self, compiled, device) -> None:
        super().bind(compiled, device)
        # Per-step dispatch cache: id(step) -> the work to replay.  Plans
        # are resolved once, outside the interpreter loop.
        self._compute: dict = {}
        self._exchange: dict = {}

    def run_compute_set(self, step) -> None:
        dispatch = self._compute.get(id(step))
        if dispatch is None:
            dispatch = self._compute.setdefault(id(step), self.plan_for(step).dispatch)
        wt = self.wall_tracer
        if wt is None:
            for run in dispatch:
                run()
            return
        start = wt.now()
        for run in dispatch:
            run()
        name, est_bytes, est_flops = self._wall_cost(step, "compute")
        wt.dispatch(name, "compute", start, est_bytes, est_flops)

    def run_exchange(self, step) -> None:
        ops = self._exchange.get(id(step))
        if ops is None:
            ops = self._exchange.setdefault(id(step), self.plan_for(step).flat)
        wt = self.wall_tracer
        if wt is None:
            for op in ops:
                op.apply()
            return
        start = wt.now()
        for op in ops:
            op.apply()
        name, est_bytes, est_flops = self._wall_cost(step, "exchange")
        wt.dispatch(name, "exchange", start, est_bytes, est_flops)

    def scope(self, label: str):
        if self.wall_tracer is None:
            return super().scope(label)
        return self.wall_tracer.scope(label)
