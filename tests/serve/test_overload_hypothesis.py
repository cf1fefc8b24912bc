"""Property test: under ANY mix of accepted / rejected / timed-out /
retried jobs, the service neither loses nor duplicates a job, and every
job it serves is bit-identical to a direct solve() call.

Hypothesis drives the job mix — tenants, deadlines, weak configs that
force the retry ladder, tight queue bounds, quotas, and queue-level
dynamic batching (off / greedy / windowed) — and the invariants are
checked after a full drain:

1. exactly one outcome record per submitted spec (nothing lost),
2. the service's own ledger balances (nothing duplicated),
3. every outcome is one of the typed classes (no raw crashes escape),
4. every served result is reproduced exactly by one direct
   ``solve(matrix, b, effective_config)`` call.
"""

import asyncio

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.serve import (
    BatchPolicy,
    LoadGenerator,
    RetryPolicy,
    ServicePolicy,
    SolverService,
)
from repro.solvers import solve
from repro.sparse import poisson2d

CRS, DIMS = poisson2d(6)
B = np.random.default_rng(5).standard_normal(CRS.n)
GOOD = {"solver": "cg", "tol": 1e-8, "max_iterations": 200}
#: Starved budget: fails transiently, engages the retry ladder.
WEAK = {"solver": "cg", "tol": 1e-8, "max_iterations": 2}

KNOWN_OUTCOMES = frozenset({
    "ok", "failed", "timed_out",
    "rejected:queue_full", "rejected:quota",
    "rejected:circuit_open", "rejected:shutting_down",
})

job_spec = st.fixed_dictionaries({
    "tenant": st.sampled_from(["a", "b", "c"]),
    "weak": st.booleans(),
    "seed": st.integers(min_value=0, max_value=2**16),
    # None = no deadline; tiny = expires in the queue -> timed_out.
    "deadline": st.sampled_from([None, None, 1e-9, 30.0]),
})


#: (max_batch, assembly window ms); None = queue-level batching off.
#: Batched interleavings — coalesced dispatches, deadline collateral
#: redispatch, per-column retries — must uphold the same four invariants.
batch_policy = st.sampled_from([None, (2, 0.0), (4, 2.0)])


@given(
    specs=st.lists(job_spec, min_size=1, max_size=12),
    queue_depth=st.integers(min_value=1, max_value=4),
    quota_burst=st.integers(min_value=1, max_value=8),
    batching=batch_policy,
)
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_no_job_is_lost_or_duplicated_and_served_means_bit_identical(
        specs, queue_depth, quota_burst, batching):
    retry = RetryPolicy(max_attempts=2, base_delay=0.001,
                        escalate_iterations=200.0, fallback_after=5)
    batch = (BatchPolicy(max_batch=batching[0], max_wait_ms=batching[1])
             if batching is not None else None)
    policy = ServicePolicy(max_queue_depth=queue_depth, retry=retry,
                           quota_rate=0.0, quota_burst=float(quota_burst),
                           batch=batch)

    full_specs = [
        {
            "matrix": CRS, "b": B, "config": WEAK if s["weak"] else GOOD,
            "tenant": s["tenant"], "seed": s["seed"],
            "deadline": s["deadline"], "grid_dims": DIMS, "backend": "fused",
        }
        for s in specs
    ]

    async def go():
        service = SolverService(policy=policy, workers=2)
        async with service:
            report = await LoadGenerator(service).run(full_specs)
        return report, service.accounting()

    report, acc = asyncio.run(go())

    # 1. Nothing lost: one record per submitted spec.
    assert report.total == len(full_specs)
    # 2. Nothing duplicated: the service ledger balances exactly.
    assert acc["balanced"], acc
    assert acc["submitted"] == len(full_specs)
    assert acc["queued"] == 0 and acc["in_flight"] == 0  # fully drained
    assert acc["worker_faults"] == 0
    # 3. Every outcome is typed.
    assert {r["outcome"] for r in report.records} <= KNOWN_OUTCOMES
    served = report.served
    assert len(served) == acc["ok"]
    # 4. Serving is observational: each served job is reproduced exactly
    #    by one direct solve with the recorded effective config.
    for rec in served:
        res = rec["result"]
        spec = rec["spec"]
        ref = solve(spec["matrix"], spec["b"], res.effective_config,
                    grid_dims=spec["grid_dims"], backend=spec["backend"])
        np.testing.assert_array_equal(res.result.x, ref.x)
        assert res.result.stats.residuals == ref.stats.residuals
        assert res.result.cycles == ref.cycles
