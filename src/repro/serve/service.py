"""``SolverService``: the fault-tolerant async solve-serving runtime.

The paper's solvers are amortized-compile engines — setup once, solve many
— and this module is the "solve many, for many tenants" layer (ROADMAP
item 1): a long-running asyncio service that accepts solve jobs, runs them
on a thread worker pool over one structure-keyed
:class:`~repro.solvers.ProgramCache`, and is robust by construction:

- **Admission control** — a bounded tenant-fair queue
  (:class:`~repro.serve.FairQueue`); a full queue, a draining service, or
  a quarantined structure sheds the job with a typed
  :class:`~repro.errors.ServiceOverloadError` instead of queueing without
  bound.  Memory is the scarce resource (the Citadel IPU microbenchmarks:
  everything lives in SRAM) — a bounded queue over a bounded LRU of
  compiled programs keeps the service's footprint flat under any load.
- **Per-tenant quotas** — a token bucket per tenant
  (:class:`~repro.serve.TokenBucket`); an exhausted bucket rejects with
  :class:`~repro.errors.QuotaExceededError` and a ``retry_after`` hint.
- **Deadlines** — per-job wall-clock budgets (queue wait included),
  enforced cooperatively mid-solve through ``solve(max_wall_seconds=...)``
  — the PR 8 progress-hook seam — surfacing
  :class:`~repro.errors.JobTimeoutError` with the partial
  :class:`~repro.solvers.SolveStats`.
- **Retries** — transient failures (breakdown / divergence / stagnation,
  the PR 4 hierarchy) retry on a seeded exponential-backoff schedule with
  an escalated or fallback config
  (:class:`~repro.serve.RetryPolicy`); fault-injected jobs ride the
  existing resilience rollback path *first* and only reach the retry
  ladder if recovery fails.
- **Circuit breaking** — structures whose solves repeatedly fail are
  quarantined per fingerprint (:class:`~repro.serve.CircuitBreaker`).
- **Graceful drain** — ``stop()`` stops admitting, finishes queued and
  in-flight work, then tears down the pool; every accepted job's future
  resolves exactly once, whatever happens.

- **Dynamic batching** — when :class:`~repro.serve.BatchPolicy` is set,
  compatible queued jobs (same structure fingerprint, batch-capable f32
  cg/bicgstab config) coalesce into one stacked multi-RHS solve through
  the shared cache — one halo exchange per iteration for the whole batch
  (the PR 7 axis, now formed at the queue).  Per-job deadlines, retries,
  and the accounting ledger all survive batching, and every column's
  result stays bit-identical to serving that job alone.

Solves execute in a :class:`~concurrent.futures.ThreadPoolExecutor` so the
event loop stays responsive for admission and shutdown while numerics run.
The service holds no execution lock of its own: dispatches that share a
cache entry take turns on the cache's
(:meth:`~repro.solvers.ProgramCache.lock`, held by every cached
:func:`~repro.solvers.solve`), and distinct structures run concurrently.

Serving is *observational*: a served result is bit-identical — solution,
residual history, cycles — to a direct :func:`repro.solvers.solve` call
with the same arguments (and, after retries, with the recorded
``effective_config``).  ``benchmarks/bench_serve_load.py`` enforces this
under deliberate overload.  See ``docs/serving.md``.
"""

from __future__ import annotations

import asyncio
import dataclasses
import itertools
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.errors import (
    DivergenceError,
    FactorizationError,
    JobTimeoutError,
    QuotaExceededError,
    ReproError,
    ServiceOverloadError,
    SolverBreakdownError,
)
from repro.graph.runtime import check_observers
from repro.serve.batching import BatchAssembler, config_supports_batch
from repro.serve.policy import CircuitBreaker, ServicePolicy, TokenBucket
from repro.serve.queue import FairQueue, Job, JobResult
from repro.solvers.api import failure_error, solve, validate_arrays
from repro.solvers.config import load_config
from repro.solvers.session import ProgramCache, ProgramShape, batch_bucket

__all__ = ["SolverService"]

#: :func:`~repro.solvers.solve`'s observer options: a job passes them
#: through to its own solve, so it never shares a dispatch.
_OBSERVERS = frozenset({"trace", "wall_trace", "metrics", "on_progress", "progress_every"})


def _shutting_down() -> ServiceOverloadError:
    return ServiceOverloadError("service shutting down", reason="shutting_down")


class SolverService:
    """A long-running async solve service over a shared compile cache.

    Usage::

        policy = ServicePolicy(max_queue_depth=8, quota_rate=50.0)
        async with SolverService(policy=policy, workers=2) as svc:
            result = await svc.solve(matrix, b, "cg", tenant="acme",
                                     deadline=2.0)
            x = result.result.x

    ``submit`` returns the :class:`~repro.serve.Job` immediately (its
    ``future`` delivers a :class:`~repro.serve.JobResult` or a typed
    :class:`~repro.errors.ReproError`); ``solve`` is submit-and-await.
    """

    def __init__(self, *, policy: ServicePolicy | None = None, workers: int = 2,
                 cache: ProgramCache | None = None, metrics=None):
        if workers < 1:
            raise ReproError("SolverService needs at least 1 worker")
        self.policy = policy if policy is not None else ServicePolicy()
        self.workers = int(workers)
        #: The structure-keyed compile cache shared by every tenant; it
        #: also serializes the runs of each entry.
        self.cache = cache if cache is not None else ProgramCache()
        self.metrics = metrics  # MetricsRegistry or None
        self.breaker = CircuitBreaker(self.policy.breaker_threshold,
                                      self.policy.breaker_cooldown)
        self._buckets: dict[str, TokenBucket] = {}
        self._queue = FairQueue(self.policy.max_queue_depth)
        self._job_ids = itertools.count(1)
        bp = self.policy.batch
        self._assembler = (BatchAssembler(bp)
                           if bp is not None and bp.enabled else None)

        self._loop: asyncio.AbstractEventLoop | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._worker_tasks: list = []
        self._requeue_tasks: set = set()
        self._items: asyncio.Semaphore | None = None
        self._idle: asyncio.Event | None = None
        self._running = False
        self._draining = False

        # Accounting: the no-lost-no-duplicated-job ledger the overload
        # tests check.  One state lock makes its compound transitions
        # (queue depth + in-flight + outcome counters) atomic, so
        # ``accounting()``/``pending()``/the gauges can never observe a
        # torn depth — e.g. a job popped from the queue but not yet
        # counted in flight.
        self._state_lock = threading.Lock()
        self.counts = {
            "submitted": 0, "accepted": 0, "rejected": 0,
            "ok": 0, "failed": 0, "timed_out": 0, "cancelled": 0,
            "retries": 0, "worker_faults": 0,
            "batches": 0, "coalesced": 0, "redispatched": 0,
        }
        self.rejections: dict[str, int] = {}
        self._in_flight = 0

    # -- lifecycle ----------------------------------------------------------------------

    async def start(self) -> "SolverService":
        if self._running:
            raise ReproError("service already started")
        self._loop = asyncio.get_running_loop()
        self._executor = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-serve")
        self._items = asyncio.Semaphore(0)
        self._idle = asyncio.Event()
        self._idle.set()
        self._worker_tasks = [
            self._loop.create_task(self._worker(i), name=f"repro-serve-worker-{i}")
            for i in range(self.workers)
        ]
        self._running = True
        self._draining = False
        return self

    async def stop(self, drain: bool = True, timeout: float | None = None) -> None:
        """Shut down: stop admitting, then drain or shed the backlog.

        ``drain=True`` (graceful): queued and in-flight jobs finish
        normally.  ``drain=False``: queued jobs fail immediately with
        ``ServiceOverloadError(reason="shutting_down")``; in-flight solves
        still run to completion (worker threads cannot be interrupted
        safely — deadlines are the tool for bounding them).  Either way
        every accepted job's future is resolved before this returns.
        """
        if not self._running:
            return
        self._draining = True
        if not drain:
            with self._state_lock:
                shed = self._queue.drain()
                self.counts["cancelled"] += len(shed)
            for job in shed:
                job.fail(_shutting_down())
                self._job_done(job, "cancelled")
        self._gauges()
        if self.pending() == 0:
            self._idle.set()
        await asyncio.wait_for(self._idle.wait(), timeout)
        for task in self._worker_tasks:
            task.cancel()
        await asyncio.gather(*self._worker_tasks, return_exceptions=True)
        self._worker_tasks = []
        self._executor.shutdown(wait=True)
        self._running = False

    async def __aenter__(self) -> "SolverService":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.stop(drain=True)

    @property
    def running(self) -> bool:
        return self._running

    # -- submission ---------------------------------------------------------------------

    def submit(self, matrix, b, config, *, tenant: str = "default",
               deadline: float | None = None, seed: int = 0, x0=None,
               inject_faults=None, resilience=None, batchable: bool = True,
               **options) -> Job:
        """Admit one solve job; returns it with a live ``future``.

        ``options`` are :func:`~repro.solvers.solve`'s shape options, one
        :class:`~repro.solvers.session.ProgramShape` that keys the job's
        program, circuit breaker and batch, and its observer options
        (``trace``, ``wall_trace``, ``metrics``, ``on_progress``,
        ``progress_every``), which pass through to the job's solve and keep
        it out of any batch.  Any other keyword is refused, whether unknown
        or the service's own (``cache``, ``max_wall_seconds``: use
        ``deadline``).

        Raises the typed admission errors **synchronously**:
        :class:`~repro.errors.ReproError` (malformed ``b``/``x0``/
        ``deadline``/``config``/shape, a refused keyword, an unknown
        ``backend`` or one that cannot host ``trace``/``inject_faults`` —
        caught here instead of deep in a worker),
        :class:`~repro.errors.ServiceOverloadError` (queue full, draining,
        or circuit open) and :class:`~repro.errors.QuotaExceededError`
        (tenant out of tokens).  ``deadline`` is wall-clock seconds from
        now, queue wait included.  ``batchable=False`` opts the job out of
        queue-level batching (it still shares the compile cache; it just
        never shares a dispatch).
        """
        with self._state_lock:
            self.counts["submitted"] += 1
        now = self._now()
        if not self._running or self._draining:
            self._reject("shutting_down")
            raise ServiceOverloadError("service is not accepting jobs",
                                       reason="shutting_down")
        try:
            validate_arrays(matrix, b, x0)
            shape, observers = ProgramShape.split(matrix, options)
            refused = sorted(set(observers) - _OBSERVERS)
            if refused:
                raise ReproError(
                    f"submit() does not take {', '.join(refused)}: it takes solve()'s "
                    f"shape and observer options; the service owns the cache, and "
                    f"deadline= bounds a job's wall clock")
            load_config(config)
            check_observers(shape.backend, tracer=observers.get("trace") or None,
                            injector=inject_faults)
            if deadline is None:
                deadline = self.policy.default_deadline
            if deadline is not None and deadline <= 0:
                raise ReproError(f"deadline must be > 0, got {deadline!r}")
        except ReproError:
            # Caller errors are *rejections* in the ledger — they must not
            # burn quota tokens, and ``balanced`` must keep holding.
            self._reject("invalid_argument")
            raise
        if self.policy.quota_rate is not None:
            bucket = self._buckets.get(tenant)
            if bucket is None:
                bucket = self._buckets[tenant] = TokenBucket(
                    self.policy.quota_rate, self.policy.quota_burst)
            if not bucket.try_acquire(now):
                self._reject("quota")
                raise QuotaExceededError(tenant=tenant,
                                         retry_after=bucket.retry_after())

        job = Job(
            id=next(self._job_ids), matrix=matrix, b=b, config=config, tenant=tenant,
            deadline=None if deadline is None else now + float(deadline),
            seed=int(seed), x0=x0, inject_faults=inject_faults,
            resilience=resilience, shape=shape, observers=observers,
            batchable=bool(batchable),
        )
        job.fingerprint = self._fingerprint(job, config)
        job.batch_key = (job.fingerprint
                         if self._batch_eligible(job, config) else None)
        job.submitted_at = now
        job.future = self._loop.create_future()

        if not self.breaker.allow(job.fingerprint, now):
            self._reject("circuit_open")
            raise ServiceOverloadError(
                f"structure {job.fingerprint[:12]} is quarantined "
                f"(circuit breaker open)", reason="circuit_open")
        try:
            with self._state_lock:
                self._queue.push(job)
                self.counts["accepted"] += 1
        except ServiceOverloadError:
            self._reject("queue_full")
            raise
        self._idle.clear()
        self._items.release()
        self._gauges()
        return job

    async def solve(self, matrix, b, config, **kwargs) -> JobResult:
        """Submit and await: returns the :class:`~repro.serve.JobResult`
        or raises the job's typed error."""
        return await self.submit(matrix, b, config, **kwargs).future

    # -- internals ----------------------------------------------------------------------

    def _now(self) -> float:
        return self._loop.time() if self._loop is not None else time.monotonic()

    def pending(self) -> int:
        """Jobs accepted but not yet finished (queued + in flight), read
        atomically under the state lock — a reader can never catch a job
        between the queue and the in-flight account."""
        with self._state_lock:
            return len(self._queue) + self._in_flight

    def _reject(self, reason: str) -> None:
        with self._state_lock:
            self.counts["rejected"] += 1
            self.rejections[reason] = self.rejections.get(reason, 0) + 1
        if self.metrics is not None:
            self.metrics.counter(
                "repro_serve_rejections_total", "jobs shed at admission"
            ).inc(1, reason=reason)

    def _gauges(self) -> None:
        if self.metrics is None:
            return
        with self._state_lock:
            depth, in_flight = len(self._queue), self._in_flight
        for name, help_text, value in (
            ("repro_serve_queue_depth", "jobs waiting in the fair queue", depth),
            ("repro_serve_in_flight", "jobs dispatched to the worker pool", in_flight),
            ("repro_cache_bytes", "bytes the compile cache pins (storage + snapshots)",
             self.cache.stats()["bytes"]),
        ):
            self.metrics.gauge(name, help_text).set(value)

    def _fingerprint(self, job: Job, config) -> str:
        """The structure key solve() will use for this job's cache entry when
        it runs alone — the circuit-breaker and batch key."""
        b = np.asarray(job.b)
        return job.shape.key(job.matrix, config, resilient=job.resilience is not None,
                             batch=b.shape[0] if b.ndim == 2 else 1)

    def _batch_eligible(self, job: Job, config) -> bool:
        """Static batch eligibility (the PR 7 multi-RHS gate, decided at
        admission / re-queue): batching on, job opted in, a single 1-D
        right-hand side, no fault/resilience state, no observers of its
        own, and a config whose whole tree rides the f32 batch axis."""
        return (self._assembler is not None and job.batchable
                and np.asarray(job.b).ndim == 1
                and job.inject_faults is None and job.resilience is None
                and not job.observers and config_supports_batch(config))

    def _job_done(self, job: Job, outcome: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(
                "repro_serve_jobs_total", "finished jobs by outcome"
            ).inc(1, tenant=job.tenant, outcome=outcome)
            total = self._now() - job.submitted_at
            self.metrics.histogram(
                "repro_serve_job_seconds", "admission-to-completion latency"
            ).observe(total, tenant=job.tenant)
        if self._draining and self.pending() == 0:
            self._idle.set()

    async def _worker(self, wid: int) -> None:
        while True:
            await self._items.acquire()
            with self._state_lock:
                # Pop and count in flight in one step: the ledger never
                # sees the job in neither account.
                job = self._queue.pop()
                if job is not None:
                    self._in_flight += 1
            self._gauges()
            if job is None:
                # Stale permit: the queue was shed under us (non-drain
                # stop), or a batch sweep took the job this permit was
                # released for.
                continue
            await self._dispatch(job)

    def _finish(self, job: Job, outcome: str, *, result=None,
                error: BaseException | None = None) -> None:
        """Retire one dispatched job: resolve its future exactly once and
        move its ledger entry from in-flight to the outcome bucket in one
        locked step."""
        if error is not None:
            job.fail(error)
        else:
            job.resolve(result)
        with self._state_lock:
            self.counts[outcome] += 1
            self._in_flight -= 1
        self._job_done(job, outcome)
        self._gauges()

    # -- dispatch (docs/serving.md, "Architecture") ------------------------------------

    async def _dispatch(self, lead: Job) -> None:
        """Serve ``lead`` and the batch-compatible jobs assembled around it
        — a lone job is a batch of width 1 — exception-safely.

        Every job taken leaves here resolved, back in the queue, or
        waiting out its retry backoff; the worker loop never touches it
        again.  ``pending`` tracks the jobs this coroutine still owns, so an
        unexpected error (or cancellation, mid-assembly included) retires
        exactly the unsettled ones.
        """
        pending = [lead]

        def _take(limit: int) -> list:
            with self._state_lock:
                extra = self._queue.take_batchable(lead.batch_key, limit)
                self._in_flight += len(extra)
            pending.extend(extra)
            self._gauges()
            return extra

        try:
            if self._assembler is not None:
                await self._assembler.assemble(lead, _take)
            await self._attempt(pending)
        except asyncio.CancelledError:
            for job in list(pending):
                pending.remove(job)
                self._finish(job, "cancelled", error=_shutting_down())
            raise
        except BaseException as exc:  # the "zero worker crashes" ledger
            err = (exc if isinstance(exc, ReproError)
                   else ReproError(f"worker fault: {exc!r}"))
            for job in list(pending):
                pending.remove(job)
                with self._state_lock:
                    self.counts["worker_faults"] += 1
                self._finish(job, "failed", error=err)

    async def _attempt(self, pending: list) -> None:
        """One solve for the batch, then settle each job.

        Per-job semantics survive a shared dispatch:

        - the *earliest* deadline in the batch bounds the solve; when it
          fires, only the columns whose own budget is gone time out —
          survivors go straight back to the queue (``redispatched``, not a
          retry: their solve did not fail);
        - a per-column transient failure re-enters the retry ladder
          individually (and may re-batch at its escalated config);
        - each success resolves with the column's own stats, residual
          history, and failure classification — bit-identical to a direct
          single-RHS ``solve()`` of that job (the PR 7 masking guarantee).
        """
        now = self._now()
        for job in pending:
            if job.started_at is None:
                job.started_at = now
        # Shed jobs whose budget is already gone — in a batch they would
        # only trip the earliest-deadline bound at iteration 0.
        for job in list(pending):
            if job.deadline is not None and job.deadline - now <= 0:
                pending.remove(job)
                self._finish(job, "timed_out", error=JobTimeoutError(
                    "deadline expired before dispatch", iteration=0,
                    wall_seconds=now - job.submitted_at,
                    budget_seconds=job.deadline - job.submitted_at,
                ))
        if not pending:
            return

        live = list(pending)
        lead, width = live[0], len(live)
        config = self.policy.retry.effective_config(lead.config, lead.attempt)
        pol = self.policy.batch
        bucket = (batch_bucket(width, pol.max_batch) if width > 1 and pol.bucket
                  else width)
        if width > 1:  # a batch of one runs the classic single-RHS program
            with self._state_lock:
                self.counts["batches"] += 1
                self.counts["coalesced"] += width - 1
        deadlines = [j.deadline for j in live if j.deadline is not None]
        remaining = (min(deadlines) - now) if deadlines else None
        if self.metrics is not None:
            self.metrics.histogram(
                "repro_serve_batch_size", "coalesced jobs per dispatched solve"
            ).observe(width)

        t0 = time.perf_counter()
        result = error = None
        try:
            result = await self._loop.run_in_executor(
                self._executor, self._solve_attempt, live, config, remaining, bucket)
        except JobTimeoutError as exc:
            self._timed_out(pending, exc, time.perf_counter() - t0, width)
            return
        # raise_on_failure configs (resilient, so never batched):
        except SolverBreakdownError as exc:
            failure, error = "breakdown", exc
        except DivergenceError as exc:
            failure, error = (exc.reason or "divergence"), exc
        except FactorizationError as exc:  # the structure cannot factor: terminal
            failure, error = "factorization", exc
        dt = time.perf_counter() - t0
        if width > 1:
            self._count_phases_saved(result, width)
        for j, job in enumerate(live):
            col = None
            if error is None:  # scatter first: a fault here still retires the job
                col = result if width == 1 else self._column_result(result, j)
                failure = col.stats.failure
            pending.remove(job)
            job.exec_seconds += dt
            self._settle(job, col, failure, error, width)

    def _count_phases_saved(self, result, width: int) -> None:
        """Each column would have run its own exchange phase per iteration
        alone; batched, the whole batch shares one per iteration of the
        longest column."""
        if self.metrics is None or not result.batch_stats:
            return
        col_iters = [st.total_iterations for st in result.batch_stats[:width]]
        saved = max(0, sum(col_iters) - max(col_iters))
        if saved:
            self.metrics.counter(
                "repro_serve_exchange_phases_saved_total",
                "halo-exchange phases amortized away by batched dispatch",
            ).inc(saved)

    def _timed_out(self, pending: list, exc: JobTimeoutError, dt: float,
                   width: int) -> None:
        """The dispatch's deadline fired: a lone job times out with the
        solve's own error (and its partial stats); in a batch only the
        columns whose budget is gone do, and the rest are redispatched."""
        now = self._now()
        for job in list(pending):
            pending.remove(job)
            job.exec_seconds += dt
            if width == 1:
                self._finish(job, "timed_out", error=exc)
            elif job.deadline is not None and job.deadline - now <= 0:
                self._finish(job, "timed_out", error=JobTimeoutError(
                    f"deadline expired in a batched solve (width {width})",
                    iteration=exc.iteration,
                    wall_seconds=now - job.submitted_at,
                    budget_seconds=job.deadline - job.submitted_at,
                    stats=getattr(exc, "stats", None),
                ))
            else:
                with self._state_lock:
                    self.counts["redispatched"] += 1
                job.redispatches += 1
                self._requeue(job)

    def _solve_attempt(self, jobs: list, config, remaining: float | None,
                       bucket: int):
        """One attempt, on a worker thread.

        A lone job solves its own ``b``/``x0`` (with its fault and
        resilience settings).  A batch stacks the coalesced right-hand
        sides — zero rows pad up to the cache bucket, inert columns with
        ``||b|| = 0`` that the masked loop retires at iteration 0 — and a
        job without an ``x0`` gets a zero row, identical to the build-time
        initial image its single-RHS solve would start from.  Two
        dispatches of one structure take turns inside ``solve`` on the
        cache entry's execution lock.
        """
        lead = jobs[0]
        b, x0 = lead.b, lead.x0
        if len(jobs) > 1:
            shape = (bucket, int(lead.matrix.n))
            b = np.zeros(shape, dtype=np.float64)
            x0 = (np.zeros(shape, dtype=np.float64)
                  if any(job.x0 is not None for job in jobs) else None)
            for j, job in enumerate(jobs):
                b[j] = np.asarray(job.b, dtype=np.float64)
                if job.x0 is not None:
                    x0[j] = np.asarray(job.x0, dtype=np.float64)
        return solve(
            lead.matrix, b, config,
            x0=x0,
            cache=self.cache,
            max_wall_seconds=remaining,
            inject_faults=lead.inject_faults,
            resilience=lead.resilience,
            **vars(lead.shape),
            **lead.observers,
        )

    def _settle(self, job: Job, result, failure: str | None,
                error: ReproError | None, width: int) -> None:
        """The outcome ladder for one job of a finished dispatch.

        Success resolves; a terminal failure — or the last attempt — fails
        with its typed error; a transient one backs off and goes back to
        the queue for its next attempt at the escalated config, unless the
        backoff would overrun the job's deadline.
        """
        retry = self.policy.retry
        config = retry.effective_config(job.config, job.attempt)
        now = self._now()
        if failure is None:
            self.breaker.record_success(job.fingerprint)
            self._finish(job, "ok", result=JobResult(
                job_id=job.id, tenant=job.tenant, result=result,
                attempts=job.attempt + 1, effective_config=config,
                queue_seconds=job.started_at - job.submitted_at,
                exec_seconds=job.exec_seconds,
                total_seconds=now - job.submitted_at,
                batch_size=width,
            ))
            return
        # The structure produced a failed solve — feed the breaker whether
        # or not this particular job still has retries left.
        self.breaker.record_failure(job.fingerprint, now)
        stats = result.stats if result is not None else None
        if not retry.is_transient(failure) or job.attempt + 1 >= retry.max_attempts:
            if error is None:
                error = failure_error(
                    failure, f"job {job.id}",
                    iteration=stats.total_iterations if stats is not None else None,
                    detail=f" after {job.attempt + 1} attempt(s)")
                error.last_result = result  # the final attempt's SolveResult
            self._finish(job, "failed", error=error)
            return
        # Drawn only here, on a retry: admission computes no backoff.
        delay = retry.schedule(job.seed)[job.attempt]
        if job.deadline is not None and delay >= job.deadline - now:
            self._finish(job, "timed_out", error=JobTimeoutError(
                f"backoff ({delay:.3f}s) would overrun the deadline",
                iteration=stats.total_iterations if stats is not None else None,
                wall_seconds=now - job.submitted_at,
                budget_seconds=job.deadline - job.submitted_at,
                stats=stats,
            ))
            return
        with self._state_lock:
            self.counts["retries"] += 1
        if self.metrics is not None:
            self.metrics.counter(
                "repro_serve_retries_total", "retry attempts dispatched"
            ).inc(1, tenant=job.tenant)
        job.attempt += 1
        task = self._loop.create_task(self._requeue_after(job, delay))
        self._requeue_tasks.add(task)
        task.add_done_callback(self._requeue_tasks.discard)

    async def _requeue_after(self, job: Job, delay: float) -> None:
        # The job stays in the in-flight account through its backoff, so a
        # drain waits for it and the ledger stays balanced — but no worker
        # is held: the backoff is a timer, not a sleeping worker.
        if delay > 0:
            await asyncio.sleep(delay)
        self._requeue(job)

    def _requeue(self, job: Job) -> None:
        """Move a dispatched job back into the queue (in-flight -> queued
        in one locked step, bypassing capacity: it was already admitted).
        The batch key is recomputed from the attempt's effective config,
        so a retried job only coalesces with peers at the same
        escalation."""
        config = self.policy.retry.effective_config(job.config, job.attempt)
        batch_key = (self._fingerprint(job, config)
                     if self._batch_eligible(job, config) else None)
        with self._state_lock:
            job.batch_key = batch_key
            self._in_flight -= 1
            self._queue.push(job, force=True)
        self._items.release()
        self._gauges()

    @staticmethod
    def _column_result(res, j: int):
        """Column ``j`` of a batched SolveResult, shaped as the single-RHS
        result its job would have gotten alone: solution, residual
        history, and failure classification are bit-identical (PR 7's
        masking guarantee); the device-time fields (cycles / seconds /
        energy / wall) describe the shared batched dispatch."""
        return dataclasses.replace(
            res, x=np.ascontiguousarray(res.x[j]), stats=res.batch_stats[j],
            relative_residual=res.relative_residuals[j], batch=1,
            batch_stats=None, relative_residuals=None)

    # -- introspection ------------------------------------------------------------------

    def accounting(self) -> dict:
        """The job ledger: every accepted job is queued, in flight, or
        finished in exactly one outcome bucket — nothing lost, nothing
        duplicated."""
        with self._state_lock:
            c = dict(self.counts)
            c["queued"] = len(self._queue)
            c["in_flight"] = self._in_flight
            c["rejections"] = dict(self.rejections)
        c["balanced"] = (
            c["submitted"] == c["accepted"] + c["rejected"]
            and c["accepted"] == (c["ok"] + c["failed"] + c["timed_out"]
                                  + c["cancelled"] + c["queued"] + c["in_flight"])
        )
        return c

    def __repr__(self):
        state = ("draining" if self._draining else
                 "running" if self._running else "stopped")
        return (f"SolverService({state}, workers={self.workers}, "
                f"queue={len(self._queue)}/{self.policy.max_queue_depth}, "
                f"in_flight={self._in_flight}, cache={self.cache!r})")
