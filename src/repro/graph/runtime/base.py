"""The ``Backend`` protocol: pluggable execution of compute and exchange.

The engine (:mod:`repro.graph.engine`) is a thin control-flow interpreter;
everything that actually *runs* — compute phases, exchange phases, control
overhead accounting, profiler scopes — is delegated to a backend bound to
the compiled program.  Two implementations ship with the framework
(:mod:`repro.graph.runtime.sim`, :mod:`repro.graph.runtime.fused`); see
``docs/runtime.md`` for when to use which and what each guarantees.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from contextlib import nullcontext

from repro.errors import BackendCapabilityError
from repro.graph.runtime.counters import GlobalCounters

__all__ = [
    "Backend",
    "BACKENDS",
    "register_backend",
    "resolve_backend",
    "check_observers",
    "CONTROL_CYCLES",
]

#: Control-flow overhead charged per loop-iteration / branch decision
#: (the IPU evaluates branch predicates with single-cycle latency, but the
#: sync to agree on the branch across tiles is not free).
CONTROL_CYCLES = 8

#: Name -> backend class registry (populated by ``register_backend``).
BACKENDS: dict = {}


def register_backend(cls):
    """Class decorator adding a backend to the ``BACKENDS`` registry."""
    BACKENDS[cls.name] = cls
    return cls


def resolve_backend(spec) -> "Backend":
    """Resolve a backend selector: a name, a class, or an instance."""
    if isinstance(spec, Backend):
        return spec
    if isinstance(spec, type) and issubclass(spec, Backend):
        return spec()
    if isinstance(spec, str):
        try:
            return BACKENDS[spec]()
        except KeyError:
            raise BackendCapabilityError(
                f"unknown backend {spec!r} (available: {sorted(BACKENDS)})",
                backend=spec,
            ) from None
    raise TypeError(f"backend must be a name, Backend class, or instance, not {spec!r}")


def check_observers(spec, tracer=None, injector=None) -> None:
    """Reject an unknown backend, or cycle-domain observers on one without
    a cycle clock: the trace would be a flat line of zero timestamps, the
    fault plan would replay at the wrong times.  :meth:`Backend.attach`
    calls this; ``solve()`` / ``submit()`` call it before anything is built.
    """
    backend = resolve_backend(spec)
    if backend.has_cycle_clock:
        return
    if tracer is not None:
        raise BackendCapabilityError(
            f"the {backend.name!r} backend has no cycle clock, so it cannot "
            "record a cycle-domain trace; use --backend sim for cycle "
            "traces, or --wall-trace for measured host timing on this "
            "backend (docs/observability.md)",
            backend=backend.name,
            capability="tracer",
        )
    if injector is not None:
        raise BackendCapabilityError(
            f"the {backend.name!r} backend has no superstep cost model, so "
            "fault timing would be meaningless; use --backend sim for "
            "fault injection (docs/resilience.md)",
            backend=backend.name,
            capability="fault_injector",
        )


class Backend(ABC):
    """Executes the leaf steps of a compiled program.

    A backend is bound to exactly one compiled program + device pair via
    :meth:`bind` before the first step runs; it reads per-step execution
    plans from the program's plan table instead of re-deriving structure on
    the hot path.
    """

    name = "backend"

    #: True for backends that price supersteps in modeled IPU cycles — the
    #: clock a tracer and a fault injector need (:func:`check_observers`).
    #: Such a backend charges every kernel launch its static cost.
    has_cycle_clock = False

    #: Observers, set together by :meth:`attach`.  ``None`` means disabled:
    #: every emission sits behind one ``is None`` check, so an unobserved
    #: run executes exactly the observer-free code path.  Tracer and
    #: injector live on the cycle clock; the wall tracer measures the host
    #: clock, which every backend has.
    tracer = None
    injector = None
    wall_tracer = None

    def bind(self, compiled, device) -> None:
        self.plans = compiled.plans
        self.device = device

    def attach(self, tracer=None, injector=None, wall_tracer=None) -> None:
        """Attach this run's observers (after :meth:`bind`) — the one
        observer seam.  The engine calls it once with everything the run is
        observed by, so the injector is pointed at the tracer right here."""
        check_observers(self, tracer=tracer, injector=injector)
        self.tracer = tracer
        self.injector = injector
        self.wall_tracer = wall_tracer
        if tracer is not None:
            tracer.bind(self.device)
        if injector is not None:
            injector.bind(self.device, tracer=tracer)
        if wall_tracer is not None:
            wall_tracer.bind(self.device)

    def plan_for(self, step):
        return self.plans.plan_for(step)

    def run_kernel(self, kernel) -> None:
        """Launch one fused kernel (one host dispatch); on a cycle clock,
        charge what its absorbed supersteps cost (:meth:`charge_kernel`)."""
        GlobalCounters.kernels += 1
        GlobalCounters.dispatches += 1
        GlobalCounters.fused_compute_sets += kernel.n_compute
        GlobalCounters.fused_exchanges += kernel.n_exchange
        GlobalCounters.fallback_vertices += kernel.n_fallback
        wt = self.wall_tracer
        if wt is None:
            kernel.run()
        else:
            start = wt.now()
            kernel.run()
            wt.kernel(kernel, start)
        if self.has_cycle_clock:
            self.charge_kernel(kernel)

    def charge_kernel(self, kernel) -> None:
        """Record one launch's cycles (backends with a cycle clock)."""
        raise NotImplementedError

    @abstractmethod
    def run_compute_set(self, step) -> None:
        """Execute one ``Execute`` step (one BSP compute phase)."""

    @abstractmethod
    def run_exchange(self, step) -> None:
        """Execute one ``Exchange`` step (one BSP exchange phase)."""

    def control(self) -> None:
        """Account one loop-iteration / branch decision (no-op by default)."""

    def scope(self, label: str):
        """Context manager for a labeled program scope: a wall span when a
        wall tracer is attached, else a no-op."""
        if self.wall_tracer is None:
            return nullcontext()
        return self.wall_tracer.scope(label)

    def __repr__(self):
        return f"{type(self).__name__}()"
