"""``SimBackend``: cycle-accurate, bit-identical simulation (the default).

Reproduces exactly what the monolithic engine did before the runtime split:
every compute phase is priced as a BSP sync plus the slowest tile's worker
makespan, every exchange phase as its fabric cost plus on-tile copies,
control decisions charge :data:`~repro.graph.runtime.base.CONTROL_CYCLES`,
and labeled steps open hierarchical profiler scopes.  The only difference
is that the structure — vertex groupings, LPT packing, transfer lists,
vectorized copy ops, compiled expression evaluators — comes precomputed
from the execution plans, and each exchange plan is priced by the fabric
once (``ExchangePlan.phase``; the fabric is stateless, so every replay of a
plan costs the same), so the hot path does no per-step re-derivation.

This is also the backend that feeds the telemetry layer: with a tracer
attached (:meth:`Backend.attach`) every superstep emits a structured
event *after* its cycles are recorded, so tracing observes the run without
perturbing it — traced and untraced executions are bit-identical in both
tensors and cycle counts (``docs/observability.md``).
"""

from __future__ import annotations

from contextlib import ExitStack, contextmanager

from repro.graph.runtime.base import Backend, CONTROL_CYCLES, register_backend

__all__ = ["SimBackend"]


@register_backend
class SimBackend(Backend):
    """Cycle-accurate backend: real numerics *and* deterministic cycles."""

    name = "sim"

    has_cycle_clock = True

    def bind(self, compiled, device) -> None:
        super().bind(compiled, device)
        self.profiler = device.profiler
        self.model = device.model
        # Per-step (name, est_bytes, est_flops) cache for wall-span tagging.
        self._wall_costs: dict = {}

    def _wall_cost(self, step, kind: str) -> tuple:
        """``(name, est_bytes, est_flops)`` of one step, cached by identity."""
        cached = self._wall_costs.get(id(step))
        if cached is None:
            from repro.graph.passes.costs import estimate_compute_set, estimate_exchange

            plan = self.plan_for(step)  # a compute plan carries its set's name
            if kind == "compute":
                cached = (plan.name, *estimate_compute_set(step.compute_set))
            else:
                cached = (plan.name, estimate_exchange(plan), 0)
            self._wall_costs[id(step)] = cached
        return cached

    def run_compute_set(self, step) -> None:
        wt = self.wall_tracer
        wall_start = wt.now() if wt is not None else 0
        plan = self.plan_for(step)
        for v in plan.vertices:
            v.codelet.run(v.ctx)
        sync = self.model.sync()
        cost = sync + plan.worst_tile
        self.profiler.record(plan.category, cost)
        if self.tracer is not None:
            self.tracer.compute_phase(
                plan, self.profiler.total_cycles - cost, cost, sync
            )
        if self.injector is not None:
            self.injector.compute_superstep(plan)
        if wt is not None:
            name, est_bytes, est_flops = self._wall_cost(step, "compute")
            wt.dispatch(name, "compute", wall_start, est_bytes, est_flops)

    def run_exchange(self, step) -> None:
        wt = self.wall_tracer
        wall_start = wt.now() if wt is not None else 0
        plan = self.plan_for(step)
        for op in plan.ops:
            op.apply()
        phase = plan.phase
        cost = phase.cycles + plan.local_cycles
        if self.injector is not None:
            # Injection happens after the copies land (corrupting *received*
            # data) but before the cycles are recorded, so link stalls are
            # priced into this phase's span.
            cost += self.injector.exchange_superstep(plan, phase)
        self.profiler.record(plan.name, cost)
        if self.tracer is not None:
            self.tracer.exchange_phase(
                plan, phase, self.profiler.total_cycles - cost, cost
            )
        if wt is not None:
            name, est_bytes, est_flops = self._wall_cost(step, "exchange")
            wt.dispatch(name, "exchange", wall_start, est_bytes, est_flops)

    def control(self) -> None:
        self.profiler.record("control", CONTROL_CYCLES)
        if self.tracer is not None:
            self.tracer.control(
                self.profiler.total_cycles - CONTROL_CYCLES, CONTROL_CYCLES
            )

    def scope(self, label: str):
        if self.tracer is None and self.wall_tracer is None:
            return self.profiler.step(label)
        return self._traced_scope(label)

    @contextmanager
    def _traced_scope(self, label: str):
        with ExitStack() as stack:
            stack.enter_context(self.profiler.step(label))
            if self.tracer is not None:
                stack.enter_context(self.tracer.scope(label))
            if self.wall_tracer is not None:
                stack.enter_context(self.wall_tracer.scope(label))
            yield
