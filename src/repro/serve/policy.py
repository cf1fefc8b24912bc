"""Serving policies: admission, quotas, retries, and circuit breaking.

Every knob the :class:`~repro.serve.SolverService` uses to stay robust
under load lives here, as plain deterministic data structures that are
testable without an event loop:

- :class:`RetryPolicy` — seeded exponential-backoff-with-jitter retries
  for failures the PR 4 error hierarchy classifies as transient
  (breakdown, divergence, stagnation...).  The backoff schedule is a pure
  function of ``(job seed, policy)`` — same derivation as the fault
  injector's per-clause RNGs (:mod:`repro.faults`): one
  ``numpy.random.SeedSequence`` child per retry attempt.
- :class:`TokenBucket` — per-tenant admission quota.  Time is *injected*
  (``try_acquire(now)``) so tests replay exact admission decisions.
- :class:`CircuitBreaker` — per-structure-fingerprint quarantine: a
  structure whose solves keep failing stops consuming worker time until a
  cooldown passes, then a single half-open probe decides whether to close
  the circuit again.
- :class:`ServicePolicy` — the bundle the service is constructed with.

See ``docs/serving.md`` for the failure-mode table these policies drive.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ReproError
from repro.serve.batching import BatchPolicy

__all__ = ["RetryPolicy", "TokenBucket", "CircuitBreaker", "ServicePolicy",
           "BatchPolicy"]


#: SolveResult.failure values the default retry policy treats as transient:
#: a perturbed config or a more robust solver plausibly fixes them.  (An
#: SRAM overflow is handled earlier, by resilience's degrade-on-OOM path.)
TRANSIENT_FAILURES = frozenset({
    "breakdown",
    "divergence",
    "stagnation",
    "nan_residual",
    "max_iterations",
    "silent_corruption",
})


@dataclass(frozen=True)
class RetryPolicy:
    """Seeded, deterministic retry behavior for transient solve failures.

    A failed attempt retries after an exponential-backoff delay with
    multiplicative jitter.  The delay schedule is a pure function of the
    job seed (:meth:`schedule`), drawn when a retry happens, so a served
    job's retry timing is replayable.  What each retry *runs* comes from
    :meth:`effective_config`: attempt 0 uses the job's own config; later
    attempts escalate the iteration budget (the standard fix for
    ``max_iterations``/stagnation) until ``fallback_after``, from which
    point the configured fallback — a more robust solver such as
    preconditioned BiCGStab — takes over.
    """

    #: Total attempts including the first (1 = never retry).
    max_attempts: int = 3
    #: Delay before the first retry, in seconds.
    base_delay: float = 0.05
    #: Exponential growth factor per retry.
    multiplier: float = 2.0
    #: Jitter fraction: each delay is scaled by ``1 + jitter * u`` with
    #: ``u ~ U[0, 1)`` drawn from the attempt's seeded child RNG.
    jitter: float = 0.5
    #: ``max_iterations`` multiplier applied per retry attempt (only when
    #: the config sets ``max_iterations`` explicitly; solver-class defaults
    #: are left alone so the retried config stays a valid direct-solve
    #: config).
    escalate_iterations: float = 4.0
    #: Solver config (dict / JSON / name) used from ``fallback_after`` on;
    #: ``None`` keeps escalating the original config.
    fallback_config: object = None
    #: First attempt index that uses ``fallback_config``.
    fallback_after: int = 2
    #: ``SolveResult.failure`` values worth retrying.
    transient: frozenset = TRANSIENT_FAILURES

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ReproError("retry: max_attempts must be >= 1")
        if self.base_delay < 0 or self.multiplier < 1.0:
            raise ReproError("retry: need base_delay >= 0 and multiplier >= 1")
        if self.jitter < 0:
            raise ReproError("retry: jitter must be >= 0")
        if self.escalate_iterations < 1.0:
            raise ReproError("retry: escalate_iterations must be >= 1.0")
        if self.fallback_after < 1:
            raise ReproError("retry: fallback_after must be >= 1")

    def schedule(self, job_seed: int) -> tuple:
        """Backoff delays (seconds) before attempts ``1..max_attempts-1``.

        A pure function of ``(job_seed, policy)``: attempt ``k``'s jitter
        draw comes from the ``k``-th ``SeedSequence`` child of the job
        seed, exactly one draw per attempt — the same spawn-per-clause
        scheme :mod:`repro.faults` uses for its injection schedule.
        """
        n = self.max_attempts - 1
        if n <= 0:
            return ()
        children = np.random.SeedSequence(int(job_seed)).spawn(n)
        return tuple(
            self.base_delay
            * self.multiplier**k
            * (1.0 + self.jitter * float(np.random.default_rng(c).random()))
            for k, c in enumerate(children)
        )

    def is_transient(self, failure: str | None) -> bool:
        """Whether a ``SolveResult.failure`` value is worth a retry."""
        return failure in self.transient

    def effective_config(self, config, attempt: int):
        """The solver config attempt ``attempt`` actually runs.

        Returns something :func:`repro.solvers.solve` accepts directly, so
        a retried job's result stays reproducible by one direct
        ``solve(matrix, b, effective_config(config, k))`` call — the
        bit-identity contract the load bench checks.
        """
        if attempt <= 0:
            return config
        if self.fallback_config is not None and attempt >= self.fallback_after:
            return self.fallback_config
        from repro.solvers.config import load_config

        conf = dict(load_config(config))
        if "max_iterations" in conf:
            conf["max_iterations"] = int(
                conf["max_iterations"] * self.escalate_iterations**attempt
            )
        return conf


class TokenBucket:
    """Per-tenant admission quota: ``rate`` tokens/second, ``burst`` deep.

    The caller supplies the clock (``now`` in seconds, any monotonic
    origin), which keeps admission decisions a pure function of the
    request timeline — tests replay them exactly.  A ``rate`` of 0 makes
    the bucket a fixed budget of ``burst`` jobs.
    """

    def __init__(self, rate: float, burst: float):
        if burst < 1:
            raise ReproError("token bucket: burst must be >= 1")
        if rate < 0:
            raise ReproError("token bucket: rate must be >= 0")
        self.rate = float(rate)
        self.burst = float(burst)
        self.tokens = float(burst)
        self._updated: float | None = None

    def try_acquire(self, now: float, cost: float = 1.0) -> bool:
        """Take ``cost`` tokens if available; refills lazily from ``now``."""
        if self._updated is None:
            self._updated = now
        elif now > self._updated:
            self.tokens = min(self.burst, self.tokens + (now - self._updated) * self.rate)
            self._updated = now
        if self.tokens >= cost:
            self.tokens -= cost
            return True
        return False

    def retry_after(self, cost: float = 1.0) -> float:
        """Seconds until ``cost`` tokens will be available (client hint)."""
        deficit = cost - self.tokens
        if deficit <= 0:
            return 0.0
        if self.rate <= 0:
            return float("inf")
        return deficit / self.rate


class CircuitBreaker:
    """Per-key failure quarantine (keys are structure fingerprints).

    Classic three-state breaker, thread-safe:

    - **closed** — traffic flows; consecutive failures are counted.
    - **open** — after ``failure_threshold`` consecutive failures the key
      is quarantined: :meth:`allow` refuses until ``cooldown_seconds``
      pass.
    - **half-open** — after the cooldown exactly one probe job is let
      through; its success closes the circuit, its failure re-opens it
      (with a fresh cooldown).
    """

    def __init__(self, failure_threshold: int = 3, cooldown_seconds: float = 5.0):
        if failure_threshold < 1:
            raise ReproError("breaker: failure_threshold must be >= 1")
        if cooldown_seconds < 0:
            raise ReproError("breaker: cooldown_seconds must be >= 0")
        self.failure_threshold = int(failure_threshold)
        self.cooldown_seconds = float(cooldown_seconds)
        self._lock = threading.Lock()
        # key -> [state, consecutive_failures, opened_at]
        self._keys: dict = {}

    def allow(self, key: str, now: float) -> bool:
        """Whether a job for ``key`` may run right now (may claim the
        half-open probe slot)."""
        with self._lock:
            st = self._keys.get(key)
            if st is None or st[0] == "closed":
                return True
            if st[0] == "open":
                if now - st[2] >= self.cooldown_seconds:
                    st[0] = "half_open"  # this caller is the probe
                    return True
                return False
            return False  # half_open: probe already in flight

    def record_success(self, key: str) -> None:
        with self._lock:
            self._keys.pop(key, None)

    def record_failure(self, key: str, now: float) -> None:
        with self._lock:
            st = self._keys.setdefault(key, ["closed", 0, 0.0])
            st[1] += 1
            if st[0] == "half_open" or st[1] >= self.failure_threshold:
                st[0] = "open"
                st[2] = now

    def state(self, key: str) -> str:
        with self._lock:
            st = self._keys.get(key)
            return "closed" if st is None else st[0]

    def quarantined(self) -> list:
        """Keys currently open or half-open (for reports/metrics)."""
        with self._lock:
            return sorted(k for k, st in self._keys.items() if st[0] != "closed")


@dataclass(frozen=True)
class ServicePolicy:
    """Everything the service's robustness behavior is parameterized by."""

    #: Bounded job-queue capacity; a full queue sheds new jobs with a typed
    #: :class:`~repro.errors.ServiceOverloadError` (admission control).
    max_queue_depth: int = 16
    #: Deadline (seconds, queue wait included) applied to jobs submitted
    #: without one; ``None`` = no default deadline.
    default_deadline: float | None = None
    #: Retry behavior for transient failures.
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    #: Per-tenant token-bucket refill rate (jobs/second); ``None`` disables
    #: quotas entirely.
    quota_rate: float | None = None
    #: Per-tenant token-bucket burst depth.
    quota_burst: float = 8.0
    #: Consecutive failures per structure fingerprint before its circuit
    #: opens, and how long it stays open.
    breaker_threshold: int = 3
    breaker_cooldown: float = 5.0
    #: Queue-level dynamic batching (:class:`~repro.serve.BatchPolicy`);
    #: ``None`` serves every job as an independent single solve.
    batch: BatchPolicy | None = None

    def __post_init__(self):
        if self.max_queue_depth < 1:
            raise ReproError("policy: max_queue_depth must be >= 1")
        if self.default_deadline is not None and self.default_deadline <= 0:
            raise ReproError("policy: default_deadline must be > 0")
        if self.quota_rate is not None and self.quota_rate < 0:
            raise ReproError("policy: quota_rate must be >= 0")
        if self.quota_burst < 1:
            raise ReproError("policy: quota_burst must be >= 1")
