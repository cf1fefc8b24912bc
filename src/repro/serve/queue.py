"""The bounded, tenant-fair job queue behind the serving runtime.

Two pieces:

- :class:`Job` — one accepted solve request: the system to solve, the
  tenant it belongs to, its (absolute, monotonic-clock) deadline, its
  precomputed retry schedule, and the ``asyncio.Future`` every outcome is
  delivered through.  A job's future is resolved **exactly once** — the
  no-lost-no-duplicated invariant the hypothesis overload test pins.
- :class:`FairQueue` — a bounded multi-tenant queue: one FIFO lane per
  tenant, round-robin dequeue across lanes.  Fairness means a tenant
  flooding the queue cannot starve the others: each ``pop`` serves the
  next tenant in rotation, so per-tenant latency degrades with *that
  tenant's* backlog, not the total.  A full queue refuses new work with a
  typed :class:`~repro.errors.ServiceOverloadError` (admission control);
  retries re-enter with ``force=True`` because they were already admitted.

The queue is event-loop-confined (the service touches it only from loop
callbacks), so it needs no lock of its own — unlike the cross-thread
:class:`~repro.solvers.ProgramCache`.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass, field

from repro.errors import ReproError, ServiceOverloadError
from repro.solvers.session import ProgramShape

__all__ = ["Job", "JobResult", "FairQueue"]


@dataclass
class Job:
    """One admitted solve request, queued or running."""

    matrix: object
    b: object
    config: object
    tenant: str = "default"
    #: Absolute deadline on the monotonic clock (``None`` = no deadline).
    deadline: float | None = None
    #: Seed the retry backoff schedule derives from (jobs are deterministic;
    #: the seed buys replayable retry timing, not numerics).
    seed: int = 0
    x0: object = None
    inject_faults: object = None
    resilience: object = None
    #: The device shape the job's program is built for.
    shape: ProgramShape = field(default_factory=ProgramShape)
    #: :func:`repro.solvers.solve`'s observer options (``trace``,
    #: ``metrics``, ``on_progress``, ...); a job with any never shares a
    #: dispatch.
    observers: dict = field(default_factory=dict)

    #: Whether the submitter allows this job to be coalesced into a
    #: stacked multi-RHS solve with compatible jobs (``submit(...,
    #: batchable=False)`` opts out; eligibility is still gated by the
    #: config/shape checks in :mod:`repro.serve.batching`).
    batchable: bool = False

    # -- filled in by the service ---------------------------------------------------
    #: Admission order within the service (from 1; 0 = not admitted).
    id: int = 0
    #: Structure fingerprint of attempt 0 (circuit-breaker key).
    fingerprint: str = ""
    #: Coalescing key: jobs sharing a ``batch_key`` may ride one stacked
    #: solve (it is the attempt's single-RHS structure fingerprint, which
    #: embeds the canonical effective config, device shape, and backend).
    #: ``None`` marks the job batch-ineligible.  Recomputed on re-queue so
    #: a retried job only batches with peers at the same escalation.
    batch_key: str | None = None
    #: Attempts made before this one (the backoff before the next is
    #: ``RetryPolicy.schedule(seed)[attempt]``).
    attempt: int = 0
    #: Times this job survived a batch whose earliest deadline expired and
    #: was pushed back to the queue (not a retry: the attempt ladder is
    #: for *failed* solves, re-dispatch is for unfinished ones).
    redispatches: int = 0
    submitted_at: float = 0.0
    started_at: float | None = None
    #: Seconds spent executing solve() across attempts (queue wait excluded).
    exec_seconds: float = 0.0
    future: object = None  # asyncio.Future delivering JobResult / exception

    def resolve(self, result) -> None:
        if self.future is not None and not self.future.done():
            self.future.set_result(result)

    def fail(self, exc: BaseException) -> None:
        if self.future is not None and not self.future.done():
            self.future.set_exception(exc)


@dataclass(frozen=True)
class JobResult:
    """A served job's outcome: the solve result plus serving metadata."""

    job_id: int
    tenant: str
    #: The :class:`~repro.solvers.SolveResult` of the successful attempt.
    result: object
    #: Attempts run (1 = no retry was needed).
    attempts: int
    #: Config the successful attempt actually ran
    #: (:meth:`~repro.serve.RetryPolicy.effective_config`); a direct
    #: ``solve(matrix, b, effective_config)`` call reproduces ``result``
    #: bit for bit.
    effective_config: object
    #: Seconds from admission to first dispatch.
    queue_seconds: float
    #: Seconds spent inside solve() across all attempts.
    exec_seconds: float
    #: Seconds from admission to completion (what the tenant experienced).
    total_seconds: float
    #: Width of the stacked solve that served the successful attempt
    #: (1 = it ran alone; padding columns are not counted).  Purely
    #: observational — the result itself is bit-identical either way.
    batch_size: int = 1


class FairQueue:
    """Bounded multi-tenant FIFO with round-robin dequeue across tenants."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ReproError("FairQueue capacity must be >= 1")
        self.capacity = int(capacity)
        self._lanes: OrderedDict[str, deque] = OrderedDict()
        self._rotation: deque = deque()  # tenants with queued work
        self._size = 0

    def __len__(self) -> int:
        return self._size

    @property
    def depth(self) -> int:
        return self._size

    def tenants(self) -> list:
        """Tenants with queued work, in rotation order."""
        return list(self._rotation)

    def push(self, job: Job, *, force: bool = False) -> None:
        """Enqueue ``job``; a full queue raises the typed overload error.

        ``force`` bypasses the capacity check — used for retries of jobs
        that were already admitted (an accepted job is never dropped by
        its own backoff re-entry).
        """
        if not force and self._size >= self.capacity:
            raise ServiceOverloadError(
                "job queue full",
                reason="queue_full",
                depth=self._size,
                capacity=self.capacity,
            )
        lane = self._lanes.get(job.tenant)
        if lane is None:
            lane = self._lanes[job.tenant] = deque()
        if not lane:
            self._rotation.append(job.tenant)
        lane.append(job)
        self._size += 1

    def pop(self) -> Job | None:
        """Dequeue the next job, rotating across tenants; None when empty."""
        while self._rotation:
            tenant = self._rotation.popleft()
            lane = self._lanes.get(tenant)
            if not lane:
                continue
            job = lane.popleft()
            self._size -= 1
            if lane:
                self._rotation.append(tenant)  # tenant goes to the back
            return job
        return None

    def take_batchable(self, batch_key: str, limit: int) -> list:
        """Remove and return up to ``limit`` queued jobs whose
        ``batch_key`` equals ``batch_key``.

        The batch-assembly sweep (:class:`~repro.serve.BatchAssembler`):
        jobs are taken FIFO within each lane, lanes scanned in rotation
        order, so the coalesced companions are exactly the jobs that
        would have been served next anyway — batching pulls their service
        *earlier*, never later.  Lanes the sweep empties are dropped from
        the rotation so a subsequent ``push`` cannot enqueue a duplicate
        rotation turn for the tenant.
        """
        if limit <= 0 or not batch_key:
            return []
        taken: list = []
        for tenant in list(self._rotation):
            lane = self._lanes.get(tenant)
            if not lane:
                continue
            kept: deque = deque()
            while lane and len(taken) < limit:
                job = lane.popleft()
                if job.batch_key == batch_key:
                    taken.append(job)
                else:
                    kept.append(job)
            kept.extend(lane)
            lane.clear()
            lane.extend(kept)
            if len(taken) >= limit:
                break
        if taken:
            self._size -= len(taken)
            self._rotation = deque(
                t for t in self._rotation if self._lanes.get(t))
        return taken

    def drain(self) -> list:
        """Remove and return every queued job (shutdown without drain)."""
        out = []
        for lane in self._lanes.values():
            out.extend(lane)
            lane.clear()
        self._rotation.clear()
        self._size = 0
        return out
