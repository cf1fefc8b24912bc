"""``SolverService``: the fault-tolerant async solve-serving runtime.

The paper's solvers are amortized-compile engines — setup once, solve many
— and this module is the "solve many, for many tenants" layer (ROADMAP
item 1): a long-running asyncio service that accepts solve jobs, runs them
on a thread worker pool over one process-wide structure-keyed
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
Jobs that share a structure fingerprint serialize on a per-fingerprint
lock (cache entries are stateful — :attr:`~repro.solvers.CompiledSolve`);
distinct structures run concurrently.

Serving is *observational*: a served result is bit-identical — solution,
residual history, cycles — to a direct :func:`repro.solvers.solve` call
with the same arguments (and, after retries, with the recorded
``effective_config``).  ``benchmarks/bench_serve_load.py`` enforces this
under deliberate overload.  See ``docs/serving.md``.
"""

from __future__ import annotations

import asyncio
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.errors import (
    DivergenceError,
    JobTimeoutError,
    QuotaExceededError,
    ReproError,
    ServiceOverloadError,
    SolverBreakdownError,
)
from repro.graph.runtime import check_observers
from repro.serve.batching import (
    BatchAssembler,
    batchable_solve_kwargs,
    config_supports_batch,
)
from repro.serve.policy import CircuitBreaker, ServicePolicy, TokenBucket
from repro.serve.queue import FairQueue, Job, JobResult
from repro.solvers.config import load_config
from repro.solvers.session import ProgramCache, batch_bucket, fingerprint_solve

__all__ = ["SolverService"]


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
        #: The process-wide structure-keyed compile cache shared by every
        #: tenant (thread-safe since this PR).
        self.cache = cache if cache is not None else ProgramCache()
        self.metrics = metrics  # MetricsRegistry or None
        self.breaker = CircuitBreaker(self.policy.breaker_threshold,
                                      self.policy.breaker_cooldown)
        self._buckets: dict[str, TokenBucket] = {}
        self._queue = FairQueue(self.policy.max_queue_depth)
        self._struct_locks: dict[str, threading.Lock] = {}
        self._struct_locks_guard = threading.Lock()
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
                job.fail(ServiceOverloadError(
                    "service shutting down", reason="shutting_down"))
                self._job_done(job, "cancelled")
        self._gauges()
        if self._pending() == 0:
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
               **solve_kwargs) -> Job:
        """Admit one solve job; returns it with a live ``future``.

        Raises the typed admission errors **synchronously**:
        :class:`~repro.errors.ReproError` (malformed ``b``/``x0``/
        ``deadline``/``config``, an unknown ``backend`` or one that cannot
        host ``trace``/``inject_faults`` — caught here instead of deep in a
        worker),
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
            self._validate_arrays(matrix, b, x0)
            load_config(config)
            check_observers(solve_kwargs.get("backend", "sim"),
                            tracer=solve_kwargs.get("trace") or None,
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
            matrix=matrix, b=b, config=config, tenant=tenant,
            deadline=None if deadline is None else now + float(deadline),
            seed=int(seed), x0=x0, inject_faults=inject_faults,
            resilience=resilience, solve_kwargs=dict(solve_kwargs),
            batchable=bool(batchable),
        )
        job.fingerprint = self._fingerprint(job, config)
        job.batch_key = (job.fingerprint
                         if self._batch_eligible(job, config) else None)
        job.retry_delays = self.policy.retry.schedule(job.seed)
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

    @staticmethod
    def _validate_arrays(matrix, b, x0) -> None:
        """Admission-time validation of the right-hand side(s) and guess.

        A malformed ``b`` used to sail through admission and surface deep
        in a worker as an untyped shape/dtype error; checking here rejects
        it synchronously with a typed :class:`~repro.errors.ReproError`
        (the existing exit-code mapping) before it consumes quota or queue
        capacity.
        """
        b_arr = np.asarray(b)
        if b_arr.ndim not in (1, 2):
            raise ReproError(
                f"b must be 1-D (n,) or batched 2-D (batch, n), "
                f"got shape {b_arr.shape}")
        if b_arr.ndim == 2 and b_arr.shape[0] < 1:
            raise ReproError("batched b needs at least one right-hand side")
        n = int(matrix.n)
        if b_arr.shape[-1] != n:
            raise ReproError(
                f"b has {b_arr.shape[-1]} entries per right-hand side "
                f"but the matrix is {n}x{n}")
        if b_arr.dtype.kind not in "fiu":
            raise ReproError(
                f"b must be real-numeric, got dtype {b_arr.dtype}")
        if b_arr.dtype.kind == "f" and not np.isfinite(b_arr).all():
            raise ReproError("b contains non-finite values")
        if x0 is not None:
            x0_arr = np.asarray(x0)
            if x0_arr.shape != b_arr.shape:
                raise ReproError(
                    f"x0 shape {x0_arr.shape} must match b shape {b_arr.shape}")
            if x0_arr.dtype.kind not in "fiu":
                raise ReproError(
                    f"x0 must be real-numeric, got dtype {x0_arr.dtype}")
            if x0_arr.dtype.kind == "f" and not np.isfinite(x0_arr).all():
                raise ReproError("x0 contains non-finite values")

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

    def _pending(self) -> int:
        return self.pending()

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
        self.metrics.gauge(
            "repro_serve_queue_depth", "jobs waiting in the fair queue"
        ).set(depth)
        self.metrics.gauge(
            "repro_serve_in_flight", "jobs dispatched to the worker pool"
        ).set(in_flight)
        self.metrics.gauge(
            "repro_cache_bytes", "bytes the compile cache pins (storage + snapshots)"
        ).set(self.cache.stats()["bytes"])

    def _observe_batch(self, width: int) -> None:
        if self.metrics is not None:
            self.metrics.histogram(
                "repro_serve_batch_size", "coalesced jobs per dispatched solve"
            ).observe(width)

    def _fingerprint(self, job: Job, config, batch: int | None = None) -> str:
        """The structure key solve() will use for this job's cache entry —
        also the circuit-breaker key and the execution-serialization key.
        ``batch`` overrides the RHS width (the batched dispatch keys on the
        padded bucket width, not the job's own 1-D shape)."""
        kw = job.solve_kwargs
        if batch is None:
            b = np.asarray(job.b)
            batch = b.shape[0] if b.ndim == 2 else 1
        return fingerprint_solve(
            job.matrix, config,
            num_ipus=kw.get("num_ipus", 1),
            tiles_per_ipu=kw.get("tiles_per_ipu", 16),
            num_tiles=kw.get("num_tiles"),
            grid_dims=kw.get("grid_dims"),
            blockwise_halo=kw.get("blockwise_halo", True),
            optimize=kw.get("optimize", True),
            backend=kw.get("backend", "sim"),
            resilient=job.resilience is not None,
            batch=int(batch),
        )

    def _batch_eligible(self, job: Job, config) -> bool:
        """Static batch eligibility (the PR 7 multi-RHS gate, decided at
        admission / re-queue): batching on, job opted in, a single 1-D
        right-hand side, no fault/resilience state, purely structural
        solve kwargs, and a config whose whole tree rides the f32 batch
        axis."""
        if self._assembler is None or not job.batchable:
            return False
        if np.asarray(job.b).ndim != 1:
            return False
        if job.inject_faults is not None or job.resilience is not None:
            return False
        if not batchable_solve_kwargs(job.solve_kwargs):
            return False
        return config_supports_batch(config)

    def _struct_lock(self, fingerprint: str) -> threading.Lock:
        with self._struct_locks_guard:
            lock = self._struct_locks.get(fingerprint)
            if lock is None:
                lock = self._struct_locks[fingerprint] = threading.Lock()
            return lock

    def _job_done(self, job: Job, outcome: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(
                "repro_serve_jobs_total", "finished jobs by outcome"
            ).inc(1, tenant=job.tenant, outcome=outcome)
            total = self._now() - job.submitted_at
            self.metrics.histogram(
                "repro_serve_job_seconds", "admission-to-completion latency"
            ).observe(total, tenant=job.tenant)
        if self._draining and self._pending() == 0:
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
            jobs = [job]
            if self._assembler is not None and job.batch_key is not None:
                taken: list = []

                def _take(limit: int, _key=job.batch_key) -> list:
                    with self._state_lock:
                        extra = self._queue.take_batchable(_key, limit)
                        self._in_flight += len(extra)
                    taken.extend(extra)
                    self._gauges()
                    return extra

                try:
                    jobs = await self._assembler.assemble(job, _take)
                except asyncio.CancelledError:
                    for held in [job, *taken]:
                        self._finish(held, "cancelled",
                                     error=ServiceOverloadError(
                                         "service shutting down",
                                         reason="shutting_down"))
                    raise
            if len(jobs) > 1:
                # _run_batch is exception-safe: every job it is handed is
                # resolved or re-queued before it returns (or re-raises
                # cancellation).
                await self._run_batch(jobs)
                continue
            try:
                await self._run_job(job)
            except asyncio.CancelledError:
                # Shutdown while holding a job: resolve it, then exit.
                self._finish(job, "cancelled", error=ServiceOverloadError(
                    "service shutting down", reason="shutting_down"))
                raise
            except BaseException as exc:  # the "zero worker crashes" ledger
                with self._state_lock:
                    self.counts["worker_faults"] += 1
                self._finish(job, "failed",
                             error=exc if isinstance(exc, ReproError)
                             else ReproError(f"worker fault: {exc!r}"))

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

    async def _run_job(self, job: Job) -> None:
        """The attempt loop: dispatch, classify, back off, retry."""
        retry = self.policy.retry
        job.started_at = self._now()
        while True:
            remaining = None
            if job.deadline is not None:
                remaining = job.deadline - self._now()
                if remaining <= 0:
                    self._finish(job, "timed_out", error=JobTimeoutError(
                        "deadline expired before dispatch",
                        iteration=0,
                        wall_seconds=self._now() - job.submitted_at,
                        budget_seconds=job.deadline - job.submitted_at,
                    ))
                    return

            config = retry.effective_config(job.config, job.attempt)
            fingerprint = (job.fingerprint if job.attempt == 0
                           else self._fingerprint(job, config))
            self._observe_batch(1)
            t0 = time.perf_counter()
            failure: str | None = None
            error: ReproError | None = None
            result = None
            try:
                result = await self._loop.run_in_executor(
                    self._executor, self._solve_attempt,
                    job, config, fingerprint, remaining)
                failure = result.stats.failure
            except JobTimeoutError as exc:
                job.exec_seconds += time.perf_counter() - t0
                self._finish(job, "timed_out", error=exc)
                return
            except SolverBreakdownError as exc:  # raise_on_failure configs
                failure, error = "breakdown", exc
            except DivergenceError as exc:
                failure, error = (exc.reason or "divergence"), exc
            job.exec_seconds += time.perf_counter() - t0

            if failure is None:
                self.breaker.record_success(job.fingerprint)
                now = self._now()
                self._finish(job, "ok", result=JobResult(
                    job_id=job.id, tenant=job.tenant, result=result,
                    attempts=job.attempt + 1, effective_config=config,
                    queue_seconds=job.started_at - job.submitted_at,
                    exec_seconds=job.exec_seconds,
                    total_seconds=now - job.submitted_at,
                ))
                return

            # The structure produced a failed solve — feed the breaker
            # whether or not this particular job still has retries left.
            self.breaker.record_failure(job.fingerprint, self._now())
            out_of_attempts = job.attempt + 1 >= retry.max_attempts
            if not retry.is_transient(failure) or out_of_attempts:
                if error is None:
                    error = self._failure_error(job, failure, result)
                self._finish(job, "failed", error=error)
                return

            delay = (job.retry_delays[job.attempt]
                     if job.attempt < len(job.retry_delays) else 0.0)
            if remaining is not None and delay >= remaining:
                self._finish(job, "timed_out", error=JobTimeoutError(
                    f"backoff ({delay:.3f}s) would overrun the deadline",
                    iteration=result.stats.total_iterations if result else None,
                    wall_seconds=self._now() - job.submitted_at,
                    budget_seconds=job.deadline - job.submitted_at,
                    stats=result.stats if result is not None else None,
                ))
                return
            with self._state_lock:
                self.counts["retries"] += 1
            if self.metrics is not None:
                self.metrics.counter(
                    "repro_serve_retries_total", "retry attempts dispatched"
                ).inc(1, tenant=job.tenant)
            job.attempt += 1
            await asyncio.sleep(delay)

    def _solve_attempt(self, job: Job, config, fingerprint: str,
                       remaining: float | None):
        """One attempt, on a worker thread.  Holds the structure lock:
        cache entries are stateful, so two jobs sharing a fingerprint must
        not prepare/run the same entry concurrently; distinct structures
        proceed in parallel."""
        from repro.solvers.api import solve

        with self._struct_lock(fingerprint):
            return solve(
                job.matrix, job.b, config,
                x0=job.x0,
                cache=self.cache,
                max_wall_seconds=remaining,
                inject_faults=job.inject_faults,
                resilience=job.resilience,
                **job.solve_kwargs,
            )

    # -- batched dispatch (docs/serving.md, "Dynamic batching") -------------------------

    async def _run_batch(self, jobs: list) -> None:
        """Serve one assembled batch, exception-safely.

        Every job handed in leaves here resolved or back in the queue;
        the worker loop never touches a batch again.  ``pending`` tracks
        the jobs this coroutine still owns, so an unexpected error (or
        cancellation) can retire exactly the unsettled ones.
        """
        pending = list(jobs)
        try:
            await self._dispatch_batch(pending)
        except asyncio.CancelledError:
            for job in list(pending):
                pending.remove(job)
                self._finish(job, "cancelled", error=ServiceOverloadError(
                    "service shutting down", reason="shutting_down"))
            raise
        except BaseException as exc:
            err = (exc if isinstance(exc, ReproError)
                   else ReproError(f"worker fault: {exc!r}"))
            for job in list(pending):
                pending.remove(job)
                with self._state_lock:
                    self.counts["worker_faults"] += 1
                self._finish(job, "failed", error=err)

    async def _dispatch_batch(self, pending: list) -> None:
        """One stacked solve for a coalesced batch, then scatter.

        Per-job semantics survive the shared dispatch:

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
        retry = self.policy.retry
        pol = self.policy.batch
        now = self._now()

        for job in pending:
            if job.started_at is None:
                job.started_at = now
        # Shed columns whose budget is already gone — they would only trip
        # the batch's earliest-deadline bound at iteration 0.
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
        if len(pending) == 1:
            # A batch of one is just a single job: run the classic attempt
            # ladder (its own program width, its own deadline re-checks).
            job = pending[0]
            await self._run_job(job)
            pending.remove(job)
            return

        live = list(pending)
        lead = live[0]
        width = len(live)
        config = retry.effective_config(lead.config, lead.attempt)
        bucket = batch_bucket(width, pol.max_batch) if pol.bucket else width
        fingerprint = self._fingerprint(lead, config, batch=bucket)
        deadlines = [j.deadline for j in live if j.deadline is not None]
        remaining = (min(deadlines) - now) if deadlines else None
        with self._state_lock:
            self.counts["batches"] += 1
            self.counts["coalesced"] += width - 1
        self._observe_batch(width)

        t0 = time.perf_counter()
        try:
            result = await self._loop.run_in_executor(
                self._executor, self._solve_batch_attempt,
                live, lead, config, fingerprint, remaining, bucket)
        except JobTimeoutError as exc:
            dt = time.perf_counter() - t0
            now = self._now()
            for job in list(pending):
                pending.remove(job)
                job.exec_seconds += dt
                if job.deadline is not None and job.deadline - now <= 0:
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
            return
        dt = time.perf_counter() - t0

        if self.metrics is not None and result.batch_stats:
            # Each column would have run its own exchange phase per
            # iteration alone; batched, the whole batch shares one per
            # iteration of the longest column.
            col_iters = [st.total_iterations
                         for st in result.batch_stats[:width]]
            saved = max(0, sum(col_iters) - max(col_iters))
            if saved:
                self.metrics.counter(
                    "repro_serve_exchange_phases_saved_total",
                    "halo-exchange phases amortized away by batched dispatch",
                ).inc(saved)

        for j, job in enumerate(live):
            pending.remove(job)
            job.exec_seconds += dt
            self._scatter_column(job, result, j, width)

    def _solve_batch_attempt(self, jobs: list, lead: Job, config,
                             fingerprint: str, remaining: float | None,
                             bucket: int):
        """One stacked attempt, on a worker thread.

        Stacks the coalesced right-hand sides (zero rows pad up to the
        cache bucket — inert columns with ``||b|| = 0`` that the masked
        loop retires at iteration 0) and solves once through the shared
        cache under the batched structure lock.  Jobs without an ``x0``
        get a zero row, identical to the build-time initial image their
        single-RHS solve would start from.
        """
        from repro.solvers.api import solve

        n = int(lead.matrix.n)
        bs = np.zeros((bucket, n), dtype=np.float64)
        for j, job in enumerate(jobs):
            bs[j] = np.asarray(job.b, dtype=np.float64)
        x0 = None
        if any(job.x0 is not None for job in jobs):
            x0 = np.zeros((bucket, n), dtype=np.float64)
            for j, job in enumerate(jobs):
                if job.x0 is not None:
                    x0[j] = np.asarray(job.x0, dtype=np.float64)
        with self._struct_lock(fingerprint):
            return solve(
                lead.matrix, bs, config,
                x0=x0,
                cache=self.cache,
                max_wall_seconds=remaining,
                **lead.solve_kwargs,
            )

    def _scatter_column(self, job: Job, result, j: int, width: int) -> None:
        """Deliver column ``j`` of a batched solve to its job.

        Success resolves with the column's detached stats; a transient
        per-column failure re-enters the retry ladder individually
        (eligible for re-batching at its escalated config); anything else
        fails with the same typed error the single-job path raises.
        """
        retry = self.policy.retry
        col = self._column_result(result, j)
        failure = col.stats.failure
        config = retry.effective_config(job.config, job.attempt)
        now = self._now()
        if failure is None:
            self.breaker.record_success(job.fingerprint)
            self._finish(job, "ok", result=JobResult(
                job_id=job.id, tenant=job.tenant, result=col,
                attempts=job.attempt + 1, effective_config=config,
                queue_seconds=job.started_at - job.submitted_at,
                exec_seconds=job.exec_seconds,
                total_seconds=now - job.submitted_at,
                batch_size=width,
            ))
            return
        self.breaker.record_failure(job.fingerprint, now)
        out_of_attempts = job.attempt + 1 >= retry.max_attempts
        if not retry.is_transient(failure) or out_of_attempts:
            self._finish(job, "failed",
                         error=self._failure_error(job, failure, col))
            return
        delay = (job.retry_delays[job.attempt]
                 if job.attempt < len(job.retry_delays) else 0.0)
        if job.deadline is not None and delay >= job.deadline - now:
            self._finish(job, "timed_out", error=JobTimeoutError(
                f"backoff ({delay:.3f}s) would overrun the deadline",
                iteration=col.stats.total_iterations,
                wall_seconds=now - job.submitted_at,
                budget_seconds=job.deadline - job.submitted_at,
                stats=col.stats,
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
        # The job stays in the in-flight account through its backoff (as a
        # single-path retry does through its sleep), so a drain waits for
        # it and the ledger stays balanced.
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
        from repro.solvers.api import SolveResult

        return SolveResult(
            x=np.ascontiguousarray(res.x[j]),
            stats=res.batch_stats[j],
            cycles=res.cycles,
            seconds=res.seconds,
            relative_residual=res.relative_residuals[j],
            batch=1,
            energy_j=res.energy_j,
            profile=res.profile,
            engine=res.engine,
            solver=res.solver,
            compiled=res.compiled,
            backend=res.backend,
            kernel_counters=res.kernel_counters,
            wall_seconds=res.wall_seconds,
        )

    @staticmethod
    def _failure_error(job: Job, failure: str, result) -> ReproError:
        """Map a terminal SolveResult.failure to its typed error (same
        mapping as ``ResilienceConfig.raise_on_failure``)."""
        iterations = result.stats.total_iterations if result is not None else None
        if failure == "breakdown":
            exc: ReproError = SolverBreakdownError(
                f"job {job.id}: Krylov breakdown after {job.attempt + 1} attempt(s)",
                iteration=iterations)
        else:
            exc = DivergenceError(
                f"job {job.id}: failed ({failure}) after {job.attempt + 1} attempt(s)",
                reason=failure)
        exc.last_result = result  # the final attempt's SolveResult, if any
        return exc

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
