"""Load-test the serving runtime: overload shedding, latency, bit-identity.

The acceptance gate for ``repro.serve`` (docs/serving.md):

- **Graceful degradation** — under a burst of 4x the service's capacity
  (queue depth + workers), the service sheds the excess with *typed*
  rejections (``ServiceOverloadError``/``QuotaExceededError``), finishes
  everything it accepted, and suffers zero worker crashes; the job ledger
  balances exactly.
- **Bounded served latency** — overload must not slow down the work the
  service *does* accept: the p50 solver-execution latency of served jobs
  stays within 2x of an unloaded direct solve through a warm cache.
  (Queue wait is reported separately — under overload it is the queue
  doing its job, not the solver degrading.)
- **Serving is observational** — every served job, including jobs that
  went through the retry ladder (escalated config) and jobs that rode the
  resilience rollback path under injected faults, is bit-identical in
  solution and residual history to one direct :func:`repro.solvers.solve`
  call with the recorded effective config.
"""

import asyncio
import time

import numpy as np
import pytest

from repro.bench import print_table, save_result
from repro.serve import LoadGenerator, RetryPolicy, ServicePolicy, SolverService
from repro.solvers import ProgramCache, solve
from repro.sparse import poisson2d, poisson3d

GRID = 10              # 100 rows: small enough for a fast CI load run
OVERLOAD_FACTOR = 4    # burst = factor x (queue depth + workers)
QUEUE_DEPTH = 6
CONFIG = {"solver": "cg", "tol": 1e-8, "max_iterations": 400}
#: Starved budget: fails with "max_iterations", engaging the retry ladder.
WEAK = {"solver": "cg", "tol": 1e-8, "max_iterations": 2}
FAULTS = "seed=7;bitflip:p=0.03,where=exchange"


def _system(seed=0):
    crs, dims = poisson2d(GRID)
    b = np.random.default_rng(seed).standard_normal(crs.n)
    return crs, dims, b


def _unloaded_p50(crs, dims, b, runs=5) -> float:
    """Median direct-solve wall time through a warm compile cache — the
    latency an unloaded tenant would see."""
    cache = ProgramCache()
    solve(crs, b, CONFIG, grid_dims=dims, backend="fused", cache=cache)  # warm
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        solve(crs, b, CONFIG, grid_dims=dims, backend="fused", cache=cache)
        times.append(time.perf_counter() - t0)
    return float(np.median(times))


def test_overload_sheds_gracefully_with_bounded_served_latency():
    """4x-capacity burst: typed rejections, zero crashes, p50 within 2x."""
    crs, dims, b = _system()
    baseline = _unloaded_p50(crs, dims, b)

    workers = 1  # one executor lane: served exec latency is pure solve time
    capacity = QUEUE_DEPTH + workers
    burst = OVERLOAD_FACTOR * capacity
    policy = ServicePolicy(max_queue_depth=QUEUE_DEPTH)

    async def go():
        service = SolverService(policy=policy, workers=workers)
        gen = LoadGenerator(service)
        async with service:
            # Warm the service's cache so the burst measures serving, not
            # the one-time compile (same warm-start as the baseline).
            await service.solve(crs, b, CONFIG, grid_dims=dims, backend="fused")
            specs = [
                {"matrix": crs, "b": b, "config": CONFIG, "grid_dims": dims,
                 "backend": "fused", "tenant": f"tenant-{i % 3}"}
                for i in range(burst)
            ]
            report = await gen.run(specs)
        return report, service.accounting()

    report, acc = asyncio.run(go())
    summary = report.summary()
    served = report.served
    p50 = summary["exec_latency"]["p50"]

    rows = [
        ["burst jobs", burst, f"{OVERLOAD_FACTOR}x capacity ({capacity})"],
        ["served", len(served), f"p50 exec {p50 * 1e3:.1f} ms"],
        ["rejected (typed)", report.rejected, str(report.rejection_reasons())],
        ["unloaded p50", f"{baseline * 1e3:.1f} ms", "warm-cache direct solve"],
        ["worker crashes", acc["worker_faults"], "must be 0"],
        ["ledger balanced", acc["balanced"], "accepted == finished"],
    ]
    text = print_table("serve under 4x overload", ["metric", "value", "note"], rows)
    save_result("serve_load", text, data={
        "burst": burst, "capacity": capacity, "factor": OVERLOAD_FACTOR,
        "outcomes": summary["outcomes"],
        "rejection_reasons": summary["rejection_reasons"],
        "served": len(served),
        "unloaded_p50_ms": baseline * 1e3,
        "served_exec_p50_ms": p50 * 1e3,
        "served_total_p50_ms": summary["total_latency"]["p50"] * 1e3,
        "worker_faults": acc["worker_faults"],
        "balanced": acc["balanced"],
    })

    # Shedding: the burst exceeds capacity, so typed rejections must show
    # up, everything accepted must finish, and nobody may crash.
    assert report.total == burst
    assert report.rejected > 0
    assert set(report.rejection_reasons()) <= {"queue_full", "quota"}
    assert len(served) + report.rejected + summary["outcomes"].get("timed_out", 0) \
        + summary["outcomes"].get("failed", 0) == burst
    assert summary["outcomes"].get("failed", 0) == 0
    assert acc["worker_faults"] == 0
    assert acc["balanced"], acc
    # Overload must not degrade the solves the service accepts.
    assert p50 <= 2.0 * baseline, (
        f"served p50 {p50 * 1e3:.1f} ms > 2x unloaded {baseline * 1e3:.1f} ms")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_served_results_are_bit_identical_including_retry_and_rollback():
    """Mixed tenants — clean, retry-ladder, fault-injected — every served
    job must be reproduced exactly by one direct solve call."""
    crs, dims, b = _system(seed=1)
    f_crs, f_dims = poisson3d(8)
    f_b = np.random.default_rng(3).standard_normal(f_crs.n)
    # The rollback path recovers to the resilience suite's tolerance; the
    # tighter CONFIG budget would legitimately stagnate under these faults.
    fault_config = {"solver": "cg", "tol": 1e-6}
    fault_kw = {"grid_dims": f_dims, "num_ipus": 2, "tiles_per_ipu": 16,
                "inject_faults": FAULTS, "resilience": True}

    retry = RetryPolicy(max_attempts=2, base_delay=0.001,
                        escalate_iterations=200.0, fallback_after=5)
    policy = ServicePolicy(max_queue_depth=16, retry=retry)

    specs = []
    for i in range(4):
        specs.append({"matrix": crs, "b": b, "config": CONFIG,
                      "grid_dims": dims, "backend": "fused", "tenant": "clean"})
    for i in range(3):
        specs.append({"matrix": crs, "b": b, "config": WEAK, "seed": 100 + i,
                      "grid_dims": dims, "backend": "fused", "tenant": "flaky"})
    for i in range(2):
        specs.append({"matrix": f_crs, "b": f_b, "config": fault_config,
                      "tenant": "faulty", **fault_kw})

    async def go():
        service = SolverService(policy=policy, workers=2)
        async with service:
            report = await LoadGenerator(service).run(specs)
        return report, service.accounting()

    report, acc = asyncio.run(go())
    served = report.served
    assert len(served) == len(specs), report.summary()
    assert acc["balanced"] and acc["worker_faults"] == 0
    # The retry ladder actually engaged for the starved configs...
    assert any(r["result"].attempts > 1 for r in served
               if r["tenant"] == "flaky")
    # ...and the fault tenant recovered through checkpoint/rollback.
    for rec in served:
        if rec["tenant"] == "faulty":
            rep = rec["result"].result.resilience
            assert rep.outcome == "recovered" and rep.rollbacks > 0

    checked = 0
    for rec in served:
        res = rec["result"]
        spec = rec["spec"]
        ref = solve(
            spec["matrix"], spec["b"], res.effective_config,
            grid_dims=spec.get("grid_dims"),
            num_ipus=spec.get("num_ipus", 1),
            tiles_per_ipu=spec.get("tiles_per_ipu", 16),
            backend=spec.get("backend", "sim"),
            inject_faults=spec.get("inject_faults"),
            resilience=spec.get("resilience"),
        )
        np.testing.assert_array_equal(res.result.x, ref.x)
        assert res.result.stats.residuals == ref.stats.residuals
        assert res.result.cycles == ref.cycles
        checked += 1
    assert checked == len(specs)

    save_result("serve_bit_identity", print_table(
        "served vs direct solve (bit-identity)",
        ["tenant", "jobs", "note"],
        [["clean", 4, "no retries"],
         ["flaky", 3, "retry ladder, escalated budget"],
         ["faulty", 2, "seeded bitflips + checkpoint/rollback"],
         ["all", checked, "x, residual history, cycles identical"]]),
        data={"jobs": checked, "bit_identical": True,
              "retry_jobs": 3, "fault_jobs": 2})
