"""``SimBackend``: cycle-accurate, bit-identical simulation (the default).

Every compute phase is priced as a BSP sync plus the slowest tile's worker
makespan, every exchange phase as its fabric cost plus on-tile copies,
control decisions charge :data:`~repro.graph.runtime.base.CONTROL_CYCLES`,
and labeled steps open hierarchical profiler scopes.  Each of those costs
is a constant of the compiled plans — vertex groupings and LPT packing,
transfer lists and on-tile copy cost, the fabric's price of each exchange
plan (``ExchangePlan.phase``, computed once: the fabric is stateless) — so
nothing is re-derived while running.

That is why ``sim`` has two routes through a program, with the same bits
and the same cycles:

- **Unobserved** (no cycle tracer, no fault injector — a wall tracer does
  not count), the engine launches the compiled program's fused kernels, the
  ones ``fused`` runs, and each launch charges the kernel's static record
  (:meth:`SimBackend.charge_kernel`): the cost of every superstep it
  absorbed, summed per profiler category, into the scope that is open.
  Kernels never cross a ``Sequence`` or a host callback, so scope paths and
  the cycle count a callback reads are the per-superstep ones.
- **Observed** by a :class:`~repro.telemetry.Tracer` or a fault injector
  (:meth:`Backend.attach`), every superstep runs its plan vertex by vertex
  and emits its event *after* its cycles are recorded, so tracing observes
  the run without perturbing it (``docs/observability.md``).  This is also
  the per-vertex reference the kernels are checked against
  (``tests/test_lattice.py``).
"""

from __future__ import annotations

from contextlib import ExitStack, contextmanager

from repro.graph.program import Execute
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

    def charge_kernel(self, kernel) -> None:
        record = kernel.cycles
        if record is None:
            # Priced on the first clocked launch: the superstep costs in
            # schedule order, summed per category (first-charge order).
            totals: dict = {}
            for step in kernel.steps:
                plan = self.plan_for(step)
                if isinstance(step, Execute):
                    key, cost = plan.category, self.model.sync() + plan.worst_tile
                else:
                    key, cost = plan.name, plan.phase.cycles + plan.local_cycles
                totals[key] = totals.get(key, 0) + cost
            record = kernel.cycles = tuple(totals.items())
        for category, cycles in record:
            self.profiler.record(category, cycles)

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
