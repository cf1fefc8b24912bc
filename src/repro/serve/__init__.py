"""``repro.serve``: solver-as-a-service — a fault-tolerant async serving
runtime over the structure-keyed compile cache.

The paper's premise is amortized compilation: build a solver graph once
per sparsity structure, then solve many right-hand sides against it.  This
package is the serving half of that premise (ROADMAP item 1): a
long-running :class:`SolverService` that admits solve jobs from multiple
tenants, runs them on a worker pool over one shared
:class:`~repro.solvers.ProgramCache`, and degrades gracefully instead of
falling over — bounded queue + typed rejections, per-tenant quotas,
per-job deadlines (cooperative, mid-solve), seeded deterministic retries,
per-structure circuit breaking, graceful drain — and, since PR 10,
queue-level dynamic batching: compatible jobs sharing a structure
fingerprint coalesce into one stacked multi-RHS solve
(:class:`BatchPolicy` / :class:`BatchAssembler`), bit-identical per
column to serving each job alone.  Admission is one request gate: a
job's arrays, its config and its one
:class:`~repro.solvers.ProgramShape` are checked at ``submit()``, and a
keyword that is not a shape or observer option of
:func:`~repro.solvers.solve` is refused there, typed, before the job
spends a quota token.

See ``docs/serving.md`` for the architecture and the failure-mode table,
and ``benchmarks/bench_serve_load.py`` for the overload/bit-identity
acceptance harness.
"""

from repro.serve.batching import (
    BatchAssembler,
    BatchPolicy,
    config_supports_batch,
)
from repro.serve.client import LoadGenerator, LoadReport, ServiceClient
from repro.serve.policy import (
    TRANSIENT_FAILURES,
    CircuitBreaker,
    RetryPolicy,
    ServicePolicy,
    TokenBucket,
)
from repro.serve.queue import FairQueue, Job, JobResult
from repro.serve.service import SolverService

__all__ = [
    "SolverService",
    "ServicePolicy",
    "RetryPolicy",
    "TokenBucket",
    "CircuitBreaker",
    "TRANSIENT_FAILURES",
    "BatchPolicy",
    "BatchAssembler",
    "config_supports_batch",
    "FairQueue",
    "Job",
    "JobResult",
    "ServiceClient",
    "LoadGenerator",
    "LoadReport",
]
