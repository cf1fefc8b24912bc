"""Queue-level dynamic batching: served throughput and latency under load.

The acceptance gate for the :class:`~repro.serve.BatchAssembler`
(docs/serving.md, "Dynamic batching"):

- **Throughput** — at 4x batch-capacity load (32 compatible jobs against
  one worker, ``fused`` backend), coalescing into multi-RHS dispatches
  serves no fewer jobs/second than the same service with batching off;
  the measured ratio is recorded in ``serve_batching.json``.  The
  deterministic win is the paper's batch amortization: one halo-exchange
  phase per iteration carries the whole batch, so a width-B dispatch runs
  max(col iters) exchange phases instead of sum(col iters).  How much
  host time that buys is ROADMAP item 3's question (a width-8 fused
  dispatch still costs several width-1 solves), judged there by
  perfbench's ``serve_backlog`` — not by a stopwatch gate here.
- **Latency** — the served p50 *total* latency (queue wait + solve) is no
  worse than unbatched; batching drains the queue faster, it never holds
  a job hostage beyond the assembly window.
- **Observational** — batching is invisible in the results: a sample of
  batched-served jobs is re-solved directly and must be bit-identical in
  solution and residual history; the job ledger balances in both runs.
"""

import asyncio
import time

import numpy as np

from repro.bench import print_table, save_result
from repro.serve import BatchPolicy, ServicePolicy, SolverService
from repro.solvers import solve
from repro.sparse import poisson2d
from repro.telemetry import MetricsRegistry

GRID = 10                  # 100 rows: small enough for a fast CI run
CONFIG = {"solver": "cg", "tol": 1e-8, "max_iterations": 400}
MAX_BATCH = 8
JOBS = 4 * MAX_BATCH       # 4x batch capacity, all structure-compatible
QUEUE_DEPTH = JOBS         # no shedding: both runs serve every job


def _system():
    crs, dims = poisson2d(GRID)
    rng = np.random.default_rng(11)
    bs = [rng.standard_normal(crs.n) for _ in range(JOBS)]
    return crs, dims, bs


def _run(crs, dims, bs, batch: BatchPolicy | None):
    """Serve all of ``bs`` through one service; return (results, ledger,
    registry, wall seconds of the timed burst)."""
    policy = ServicePolicy(max_queue_depth=QUEUE_DEPTH, batch=batch)
    mreg = MetricsRegistry()

    async def go():
        async with SolverService(policy=policy, workers=1,
                                 metrics=mreg) as svc:
            # Warm the compile cache outside the timed window so the burst
            # measures serving, not one-time compiles: the single-RHS
            # program, and (batched run) the bucket-MAX_BATCH program.
            await svc.solve(crs, bs[0], CONFIG, grid_dims=dims,
                            backend="fused")
            if batch is not None:
                warm = [svc.submit(crs, b, CONFIG, grid_dims=dims,
                                   backend="fused")
                        for b in bs[:MAX_BATCH]]
                await asyncio.gather(*(j.future for j in warm))
            t0 = time.perf_counter()
            jobs = [svc.submit(crs, b, CONFIG, grid_dims=dims,
                               backend="fused", tenant=f"tenant-{i % 3}")
                    for i, b in enumerate(bs)]
            results = await asyncio.gather(*(j.future for j in jobs))
            wall = time.perf_counter() - t0
            return results, svc.accounting(), wall

    results, acc, wall = asyncio.run(go())
    return results, acc, mreg, wall


def test_batching_serves_4x_load_no_slower_and_bit_identically():
    crs, dims, bs = _system()

    un_res, un_acc, _, un_wall = _run(crs, dims, bs, None)
    policy = BatchPolicy(max_batch=MAX_BATCH, max_wait_ms=2.0)
    ba_res, ba_acc, ba_reg, ba_wall = _run(crs, dims, bs, policy)

    un_tput = len(un_res) / un_wall
    ba_tput = len(ba_res) / ba_wall
    un_p50 = float(np.median([r.total_seconds for r in un_res]))
    ba_p50 = float(np.median([r.total_seconds for r in ba_res]))
    saved = ba_reg.counter("repro_serve_exchange_phases_saved_total").value()
    widths = sorted({r.batch_size for r in ba_res})

    rows = [
        ["jobs", JOBS, f"4x batch capacity ({MAX_BATCH}), 1 worker"],
        ["unbatched", f"{un_tput:.1f} jobs/s",
         f"total p50 {un_p50 * 1e3:.1f} ms"],
        ["batched", f"{ba_tput:.1f} jobs/s",
         f"total p50 {ba_p50 * 1e3:.1f} ms"],
        ["speedup", f"{ba_tput / un_tput:.2f}x", "gate: not slower (>= 1x)"],
        ["dispatch widths", widths, f"{ba_acc['batches']} batched "
                                    f"dispatch(es)"],
        ["exchange phases saved", int(saved), "sum(col iters) - max"],
    ]
    text = print_table("dynamic batching at 4x load",
                       ["metric", "value", "note"], rows)
    save_result("serve_batching", text, data={
        "jobs": JOBS, "max_batch": MAX_BATCH, "backend": "fused",
        "unbatched_jobs_per_s": un_tput, "batched_jobs_per_s": ba_tput,
        "speedup": ba_tput / un_tput,
        "unbatched_total_p50_ms": un_p50 * 1e3,
        "batched_total_p50_ms": ba_p50 * 1e3,
        "batches": ba_acc["batches"], "coalesced": ba_acc["coalesced"],
        "exchange_phases_saved": int(saved),
        "balanced": un_acc["balanced"] and ba_acc["balanced"],
    })

    assert un_acc["balanced"] and ba_acc["balanced"]
    assert un_acc["worker_faults"] == 0 and ba_acc["worker_faults"] == 0
    assert all(r.result.failure is None for r in un_res + ba_res)
    # The assembler actually coalesced (widths beyond 1 dispatched)...
    assert ba_acc["batches"] > 0 and max(widths) > 1
    assert saved > 0
    # ...and the wins hold: throughput no lower, p50 no worse.
    assert ba_tput >= un_tput, (
        f"batched {ba_tput:.1f} jobs/s slower than unbatched {un_tput:.1f}")
    assert ba_p50 <= un_p50, (
        f"batched total p50 {ba_p50 * 1e3:.1f} ms worse than "
        f"unbatched {un_p50 * 1e3:.1f} ms")

    # Batching is observational: a sample of batched-served jobs is
    # reproduced exactly by one direct solve of that column alone.
    sample = [r for r in ba_res if r.batch_size > 1][:4]
    assert sample, "no batched-served job to check"
    for res in sample:
        j = ba_res.index(res)
        ref = solve(crs, bs[j], CONFIG, grid_dims=dims, backend="fused")
        np.testing.assert_array_equal(res.result.x, ref.x)
        assert res.result.stats.residuals == ref.stats.residuals
