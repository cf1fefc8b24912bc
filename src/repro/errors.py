"""Unified error hierarchy for the framework.

Every failure the framework raises deliberately derives from
:class:`ReproError`, so callers can catch one base class, and the CLI can
map each family to a distinct nonzero exit code instead of a traceback
(``docs/resilience.md``).  The hierarchy doubles-inherits from the matching
builtin (``MemoryError``, ``ArithmeticError``, ``ValueError``) so existing
``except MemoryError`` style handlers keep working.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "SRAMOverflowError",
    "SolverBreakdownError",
    "DivergenceError",
    "FaultSpecError",
    "BackendCapabilityError",
    "ServiceOverloadError",
    "JobTimeoutError",
    "QuotaExceededError",
    "MatrixFormatError",
    "SolverConfigError",
    "FactorizationError",
]


class ReproError(Exception):
    """Base class of all deliberate framework errors.

    ``exit_code`` is the process exit status the CLI uses for the family
    (distinct per subclass, never 0/1/2 which argparse and Python claim).
    """

    exit_code = 10


class SRAMOverflowError(ReproError, MemoryError):
    """A tensor shard (or injected allocation) no longer fits in a tile's
    local SRAM.

    Carries the structured context a caller needs to re-partition: the tile
    id, the requested and free byte counts, and the capacity.  The message
    always points at ``IPUDevice.sram_report()`` for the per-tile picture.
    """

    exit_code = 11

    def __init__(
        self,
        message: str = "SRAM capacity exceeded",
        *,
        tile_id: int | None = None,
        requested: int | None = None,
        free: int | None = None,
        capacity: int | None = None,
    ):
        self.tile_id = tile_id
        self.requested = requested
        self.free = free
        self.capacity = capacity
        detail = []
        if tile_id is not None:
            detail.append(f"tile {tile_id}")
        if requested is not None:
            part = f"requested {requested} B"
            if free is not None:
                part += f", {free} B free"
            if capacity is not None:
                part += f" of {capacity} B"
            detail.append(part)
        full = f"{message} ({'; '.join(detail)})" if detail else message
        if detail:
            full += " — see IPUDevice.sram_report() for per-tile usage"
        super().__init__(full)


class SolverBreakdownError(ReproError, ArithmeticError):
    """A Krylov recurrence broke down (e.g. ``|rho| ~ 0`` in CG/BiCGStab).

    Only raised when the caller opts in via
    ``ResilienceConfig(raise_on_failure=True)``; by default a breakdown is
    reported as ``SolveResult.failure == "breakdown"`` instead.
    """

    exit_code = 12

    def __init__(self, message: str, *, solver: str | None = None,
                 iteration: int | None = None):
        self.solver = solver
        self.iteration = iteration
        super().__init__(message)


class DivergenceError(ReproError, ArithmeticError):
    """The solve failed to reach its tolerance — the residual diverged,
    went NaN/Inf, stagnated, or the iteration budget ran out.

    Like :class:`SolverBreakdownError`, raised only under
    ``ResilienceConfig(raise_on_failure=True)``.
    """

    exit_code = 13

    def __init__(self, message: str, *, solver: str | None = None,
                 reason: str | None = None):
        self.solver = solver
        self.reason = reason
        super().__init__(message)


class FaultSpecError(ReproError, ValueError):
    """A fault-plan spec (``repro.faults``) failed to parse or validate."""

    exit_code = 14


class BackendCapabilityError(ReproError, ValueError):
    """A runtime backend was asked for a capability it cannot provide.

    The untimed ``fused`` backend has no cycle clock, so attaching a tracer
    or a fault injector — both defined on the simulated superstep timeline —
    is a caller error; so is naming a backend that does not exist.  Both are
    raised before anything is built (``docs/runtime.md``).
    """

    exit_code = 15

    def __init__(self, message: str, *, backend: str | None = None,
                 capability: str | None = None):
        self.backend = backend
        self.capability = capability
        super().__init__(message)


class ServiceOverloadError(ReproError):
    """The serving runtime shed this job instead of accepting it.

    Raised by :class:`repro.serve.SolverService` admission control when the
    bounded job queue is full, the service is draining for shutdown, or the
    target structure's circuit breaker is open (``docs/serving.md``).
    ``reason`` is one of ``"queue_full"``, ``"shutting_down"``,
    ``"circuit_open"`` so clients can decide between back-off-and-retry
    (queue_full), failover (shutting_down), and reporting a poisoned
    workload (circuit_open).
    """

    exit_code = 16

    def __init__(self, message: str = "service overloaded", *,
                 reason: str = "queue_full", depth: int | None = None,
                 capacity: int | None = None):
        self.reason = reason
        self.depth = depth
        self.capacity = capacity
        detail = [f"reason={reason}"]
        if depth is not None and capacity is not None:
            detail.append(f"queue {depth}/{capacity}")
        super().__init__(f"{message} ({', '.join(detail)})")


class JobTimeoutError(ReproError, TimeoutError):
    """A solve exceeded its wall-clock deadline and was cancelled
    cooperatively (checked in the :class:`~repro.solvers.SolveProgress`
    hook between iterations).

    Carries the partial convergence record so callers can see how far the
    solve got: ``stats`` is a detached
    :class:`~repro.solvers.SolveStats` copy (``None`` when the deadline
    expired before the first recorded iteration, e.g. while the job was
    still queued), ``iteration`` the last recorded iteration, and
    ``wall_seconds``/``budget_seconds`` the measured and allowed time.
    """

    exit_code = 17

    def __init__(self, message: str = "solve deadline exceeded", *,
                 solver: str | None = None, iteration: int | None = None,
                 wall_seconds: float | None = None,
                 budget_seconds: float | None = None, stats=None):
        self.solver = solver
        self.iteration = iteration
        self.wall_seconds = wall_seconds
        self.budget_seconds = budget_seconds
        self.stats = stats
        detail = []
        if iteration is not None:
            detail.append(f"at iteration {iteration}")
        if wall_seconds is not None and budget_seconds is not None:
            detail.append(f"{wall_seconds:.3f}s > budget {budget_seconds:.3f}s")
        super().__init__(f"{message} ({', '.join(detail)})" if detail else message)


class QuotaExceededError(ReproError):
    """A tenant ran out of admission tokens (per-tenant token bucket).

    ``retry_after`` is the seconds until the bucket refills enough for one
    job (``inf`` for a zero-rate bucket) — the client back-off hint
    (``docs/serving.md``).
    """

    exit_code = 18

    def __init__(self, message: str = "tenant quota exceeded", *,
                 tenant: str | None = None, retry_after: float | None = None):
        self.tenant = tenant
        self.retry_after = retry_after
        detail = []
        if tenant is not None:
            detail.append(f"tenant {tenant!r}")
        if retry_after is not None:
            detail.append(f"retry after {retry_after:.3f}s")
        super().__init__(f"{message} ({', '.join(detail)})" if detail else message)


class MatrixFormatError(ReproError, ValueError):
    """A sparse matrix is malformed where it is constructed
    (:class:`~repro.sparse.crs.ModifiedCRS`): inconsistent CRS arrays,
    column indices out of range, a zero diagonal, or a NaN/Inf entry.

    Matrices are immutable once built, so this is the only place a bad
    entry can be refused — ``solve()``, the CLI and ``submit()`` never see
    one.
    """

    exit_code = 19


class SolverConfigError(ReproError, ValueError):
    """A solver config (:mod:`repro.solvers.config`) cannot be read: JSON
    that does not parse, a tree node without a ``solver`` key, a solver
    name that is not registered, or a ``tol`` / iteration cap out of
    bounds (the message names its key path)."""

    exit_code = 20


class FactorizationError(ReproError, ArithmeticError):
    """An ILU(0) / DILU factorization produced a zero or non-finite pivot.

    Each tile factors its block as the program is built, so this is raised
    before anything is lowered or run — never a NaN solve.  Carries the
    preconditioner's name, the tile and the tile-local row of the pivot.
    """

    exit_code = 21

    def __init__(self, message: str, *, solver: str | None = None,
                 tile: int | None = None, row: int | None = None):
        self.solver = solver
        self.tile = tile
        self.row = row
        super().__init__(message)
