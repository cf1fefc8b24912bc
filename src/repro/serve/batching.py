"""Queue-level dynamic batching: coalesce compatible jobs into one solve.

The paper's efficiency argument is amortizing exchange cost over useful
compute.  PR 7 realized it *inside* a solve — the multi-RHS batch axis
runs one halo exchange per iteration regardless of the number of
right-hand sides — and the serving runtime (``docs/serving.md``) serves
the dominant production shape: many tenants, few distinct structures,
many right-hand sides.  This module closes the loop by forming the batch
**at the queue**, the way continuous-batching LLM servers do:

- :class:`BatchPolicy` — the assembly knobs: how wide a batch may get
  (``max_batch``), how long the first job of a batch may wait for
  companions (``max_wait_ms``), and whether assembled widths are padded
  up to power-of-two buckets so the compile cache holds ``O(log
  max_batch)`` batched artifacts per structure instead of one per width
  (:func:`repro.solvers.session.batch_bucket`).
- :func:`config_supports_batch` — the *static* eligibility check of a
  config: only configs whose every solver class opts in
  (``supports_batch``, the rule :func:`repro.solvers.solve` enforces) and
  whose root keeps per-column records can ride the multi-RHS batch axis.
  The service adds its own: a job with observers of its own (a tracer, a
  metrics registry, a progress hook) never shares a dispatch.
- :class:`BatchAssembler` — sits between the
  :class:`~repro.serve.FairQueue` and the worker pool.  When a worker
  pops a batch-eligible job, the assembler sweeps the queue for jobs
  with the *same batch key* (structure fingerprint + canonical effective
  config + device shape + backend), optionally waits out the assembly
  window for late arrivals, and hands the worker the whole batch.  The
  service then runs **one** stacked ``(B, n)`` solve through the shared
  :class:`~repro.solvers.ProgramCache` and scatters per-column results —
  stats, residual history, failure classification — back to each job's
  future.

Batching is *work-conserving and observational*: a coalesced job is
served earlier than it would have been (it rides a dispatch that was
happening anyway), a tenant whose jobs are never batch-compatible still
gets its round-robin turn, and — because PR 7 guarantees each column of
a batched solve is bit-identical to its single-RHS solve — every
batch-served result is bit-identical to a direct
:func:`repro.solvers.solve` of that job alone.  Per-job semantics
survive: deadlines (the earliest deadline in the batch bounds the
dispatch; expired columns time out, survivors re-dispatch), retries (a
failed column re-enters the retry ladder individually and may re-batch),
and the exactly-once accounting ledger.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass

from repro.errors import ReproError

__all__ = [
    "BatchPolicy",
    "BatchAssembler",
    "config_supports_batch",
]


def config_supports_batch(config) -> bool:
    """Whether ``config`` can ride the multi-RHS batch axis.

    The gate :func:`repro.solvers.solve` enforces for ``(B, n)``
    right-hand sides — every solver in the tree opts in through its class's
    ``supports_batch`` — read off the config's nested keys, so it is
    checkable at admission time without building a solver tree.  The root
    must also keep per-column records (``keeps_batch_stats``): a batched
    job gets its own column's stats back.  Unknown or unparseable configs
    are simply not batchable — the single-job path reports their real error.
    """
    from repro.solvers.config import SOLVERS, SUB_SOLVER_KEYS, load_config

    def tree(config):  # the config tree's solver classes, root first
        cfg = load_config(config)
        yield SOLVERS[cfg["solver"]]
        for k in SUB_SOLVER_KEYS:
            if k in cfg:
                yield from tree(cfg[k])

    try:
        classes = list(tree(config))
    except Exception:
        return False
    return classes[0].keeps_batch_stats and all(c.supports_batch for c in classes)


@dataclass(frozen=True)
class BatchPolicy:
    """Knobs of the queue-level dynamic batcher (``docs/serving.md``).

    ``max_batch=1`` disables batching entirely — the service behaves
    exactly as the unbatched PR 9 runtime (the ``--batch-window 0``
    baseline of ``benchmarks/bench_serve_batching.py``).
    """

    #: Widest stacked solve the assembler may form (columns).
    max_batch: int = 8
    #: Assembly window: after an eligible lead job is popped, how many
    #: milliseconds the worker waits for batch-compatible companions
    #: before dispatching.  ``0`` dispatches immediately with whatever is
    #: already queued (still coalescing a backlog, never waiting for one).
    max_wait_ms: float = 2.0
    #: Pad assembled widths up to the next power of two (capped at
    #: ``max_batch``) so the compile cache keys ``O(log max_batch)``
    #: batched program widths per structure instead of one per width —
    #: :func:`repro.solvers.session.batch_bucket`.  Padding columns are
    #: zero right-hand sides: they converge in zero iterations and are
    #: bitwise-inert to the real columns (per-column masking).
    bucket: bool = True

    def __post_init__(self):
        if self.max_batch < 1:
            raise ReproError("batch policy: max_batch must be >= 1")
        if self.max_wait_ms < 0:
            raise ReproError("batch policy: max_wait_ms must be >= 0")

    @property
    def enabled(self) -> bool:
        return self.max_batch > 1


class BatchAssembler:
    """Forms batches between the fair queue and the worker pool.

    The assembler never *delays* incompatible work: it only sweeps jobs
    that share the lead job's batch key out of the queue (a strict win
    for them — they are served now instead of later), and the only added
    latency is the lead job's bounded assembly window.  The queue's
    round-robin rotation is untouched for everyone else, so a tenant
    whose jobs are never batch-compatible keeps its dequeue turn
    (``tests/serve/test_batching.py`` pins this).
    """

    def __init__(self, policy: BatchPolicy):
        self.policy = policy

    async def assemble(self, lead, take) -> list:
        """Collect the lead job's batch.

        ``take(limit)`` is the service-provided sweep: atomically remove
        and return up to ``limit`` queued jobs whose ``batch_key`` equals
        the lead's (the service moves them straight into its in-flight
        account, so the ledger never observes a job in neither state).
        Returns ``[lead]`` when batching is off or the lead opted out.
        """
        pol = self.policy
        if not pol.enabled or lead.batch_key is None:
            return [lead]
        jobs = [lead]
        jobs += take(pol.max_batch - len(jobs))
        if len(jobs) < pol.max_batch and pol.max_wait_ms > 0:
            # One bounded nap for late arrivals, then dispatch with
            # whatever showed up — continuous batching, not barrier
            # batching.  The lead is already accounted in flight.
            await asyncio.sleep(pol.max_wait_ms / 1000.0)
            jobs += take(pol.max_batch - len(jobs))
        return jobs
