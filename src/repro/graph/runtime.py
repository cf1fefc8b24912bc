"""The runtime ``Backend``: runs a compiled program's leaf steps.

The engine (:mod:`repro.graph.engine`) is a thin control-flow interpreter;
everything that actually *runs* — kernel launches, compute and exchange
phases, control overhead accounting, profiler scopes — goes through the one
:class:`Backend` bound to the compiled program.  Its name says whether the
modeled cycle clock observes the run:

- ``"sim"`` (the default) — the clock is the device's profiler.  Every
  kernel launch charges the cycles of the supersteps it absorbed
  (:meth:`Backend.charge_kernel`), control decisions charge
  :data:`CONTROL_CYCLES`, and labeled steps open profiler scopes.
- ``"fused"`` — no clock: numerics only, zero reported cycles.  Cycle
  tracers and fault injectors are refused (:func:`check_observers`).

Either way the engine launches the compiled program's fused kernels, so
the results are the same bits.  Each kernel's cost is a constant of the
compiled plans: every plan's one cost record (:mod:`repro.graph.passes.costs`
— LPT packing, the fabric's price of an exchange, the on-tile copies),
folded per kernel and read on the first clocked launch, so nothing is
re-derived while running.  A run observed by a
:class:`~repro.telemetry.Tracer` or a fault injector needs every superstep
instead: the engine steps each one, its plan runs vertex by vertex and
emits its event *after* its cycles are recorded, so tracing observes the
run without perturbing it (``docs/observability.md``).  That is also the
per-vertex reference the kernels are checked against
(``tests/test_lattice.py``).  See ``docs/runtime.md``.
"""

from __future__ import annotations

from contextlib import ExitStack, contextmanager, nullcontext

from repro.errors import BackendCapabilityError

__all__ = ["Backend", "check_observers", "CONTROL_CYCLES"]

#: Control-flow overhead charged per loop-iteration / branch decision
#: (the IPU evaluates branch predicates with single-cycle latency, but the
#: sync to agree on the branch across tiles is not free).
CONTROL_CYCLES = 8


def check_observers(backend, tracer=None, injector=None) -> None:
    """Reject an unknown backend name, or cycle-domain observers on
    ``fused``, which runs without the cycle clock: the trace would be a
    flat line of zero timestamps, the fault plan would replay at the wrong
    times.  :class:`Backend` calls this; ``solve()`` / ``submit()`` call it
    before anything is built.
    """
    if backend == "sim":
        return
    if backend != "fused":
        raise BackendCapabilityError(
            f"unknown backend {backend!r} (available: ['fused', 'sim'])",
            backend=backend,
        )
    if tracer is not None:
        raise BackendCapabilityError(
            f"the {backend!r} backend has no cycle clock, so it cannot "
            "record a cycle-domain trace; use --backend sim for cycle "
            "traces, or --wall-trace for measured host timing on this "
            "backend (docs/observability.md)",
            backend=backend,
            capability="tracer",
        )
    if injector is not None:
        raise BackendCapabilityError(
            f"the {backend!r} backend has no superstep cost model, so "
            "fault timing would be meaningless; use --backend sim for "
            "fault injection (docs/resilience.md)",
            backend=backend,
            capability="fault_injector",
        )


class Backend:
    """Executes the leaf steps of a compiled program.

    Bound to exactly one compiled program + device pair via :meth:`bind`
    before the first step runs; it reads per-step execution plans from the
    program's plan table instead of re-deriving structure on the hot path.
    """

    #: Observers.  ``None`` means disabled: every emission sits behind one
    #: ``is None`` check, so an unobserved run executes exactly the
    #: observer-free code path.  ``clock`` is the modeled cycle clock (the
    #: device's profiler on ``sim``, set by :meth:`bind`); tracer and
    #: injector live on it.  The wall tracer measures the host clock, which
    #: every run has.
    clock = None
    tracer = None
    injector = None
    wall_tracer = None

    def __init__(self, name: str = "sim"):
        check_observers(name)
        self.name = name

    def bind(self, compiled, device) -> None:
        self.plans = compiled.plans
        self.kernels = compiled.kernels
        self.device = device
        if self.name == "sim":
            self.clock = device.profiler

    def attach(self, tracer=None, injector=None, wall_tracer=None) -> None:
        """Attach this run's observers (after :meth:`bind`) — the one
        observer seam.  The engine calls it once with everything the run is
        observed by, so the injector is pointed at the tracer right here."""
        check_observers(self.name, tracer=tracer, injector=injector)
        self.tracer = tracer
        self.injector = injector
        self.wall_tracer = wall_tracer
        if tracer is not None:
            tracer.bind(self.device)
        if injector is not None:
            injector.bind(self.device, tracer=tracer)
        if wall_tracer is not None:
            wall_tracer.bind(self.device)
            for kernel in self.kernels.kernels:  # priced here, so no timed span prices
                kernel.cost

    def run_kernel(self, kernel) -> None:
        """Launch one fused kernel (one host dispatch); on the cycle clock,
        charge what its absorbed supersteps cost (:meth:`charge_kernel`)."""
        wt = self.wall_tracer
        if wt is None:
            kernel.run()
        else:
            start = wt.now()
            kernel.run()
            wt.kernel(kernel, start)
        if self.clock is not None:
            self.charge_kernel(kernel)

    def charge_kernel(self, kernel) -> None:
        """Record one launch's cycles: the kernel's cost record, the cost of
        every superstep it absorbed summed per profiler category.  Kernels
        never cross a ``Sequence`` or a host callback, so scope paths and
        the cycle count a callback reads are the per-superstep ones."""
        for category, cycles in kernel.cost.cycles:
            self.clock.record(category, cycles)

    def _stepped_plan(self, step):
        """The plan of a step the engine hands over one by one — which it
        only does when a cycle-domain observer is attached."""
        if self.clock is None:
            raise RuntimeError(
                f"lowering bug: the {self.name!r} backend was handed the bare step "
                f"{step!r}; every Execute/Exchange must reach it inside a FusedKernel"
            )
        return self.plans.plan_for(step)

    def run_compute_set(self, step) -> None:
        """Execute one ``Execute`` step (one BSP compute phase) vertex by
        vertex and record its cost."""
        plan = self._stepped_plan(step)
        wt = self.wall_tracer
        wall_start = wt.now() if wt is not None else 0
        for v in plan.vertices:
            v.codelet.run(v.ctx)
        cost = plan.cost
        self.clock.record(cost.key, cost.cycles)
        if self.tracer is not None:
            self.tracer.compute_phase(plan, self.clock.total_cycles - cost.cycles)
        if self.injector is not None:
            self.injector.compute_superstep(plan)
        if wt is not None:
            wt.dispatch(plan, "compute", wall_start)

    def run_exchange(self, step) -> None:
        """Execute one ``Exchange`` step (one BSP exchange phase) copy by
        copy and record its cost."""
        plan = self._stepped_plan(step)
        wt = self.wall_tracer
        wall_start = wt.now() if wt is not None else 0
        for op in plan.ops:
            op.apply()
        cost = plan.cost
        cycles = cost.cycles
        if self.injector is not None:
            # Injection happens after the copies land (corrupting *received*
            # data) but before the cycles are recorded, so link stalls are
            # priced into this phase's span.
            cycles += self.injector.exchange_superstep(plan, cost.phase)
        self.clock.record(cost.key, cycles)
        if self.tracer is not None:
            self.tracer.exchange_phase(plan, self.clock.total_cycles - cycles, cycles)
        if wt is not None:
            wt.dispatch(plan, "exchange", wall_start)

    def control(self) -> None:
        """Account one loop-iteration / branch decision on the clock."""
        clock = self.clock
        if clock is None:
            return
        clock.record("control", CONTROL_CYCLES)
        if self.tracer is not None:
            self.tracer.control(clock.total_cycles - CONTROL_CYCLES, CONTROL_CYCLES)

    def scope(self, label: str):
        """Context manager for a labeled program scope: a profiler scope on
        the clock, a span on each attached tracer."""
        if self.tracer is None and self.wall_tracer is None:
            return nullcontext() if self.clock is None else self.clock.step(label)
        return self._traced_scope(label)

    @contextmanager
    def _traced_scope(self, label: str):
        with ExitStack() as stack:
            if self.clock is not None:
                stack.enter_context(self.clock.step(label))
            if self.tracer is not None:
                stack.enter_context(self.tracer.scope(label))
            if self.wall_tracer is not None:
                stack.enter_context(self.wall_tracer.scope(label))
            yield

    def __repr__(self):
        return f"Backend({self.name!r})"
