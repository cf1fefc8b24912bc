"""End-to-end behavior of the SolverService: served results are
bit-identical to direct solve() calls, and every robustness path —
deadlines, retries, quotas, circuit breaking, drain — resolves each
accepted job's future exactly once with a typed outcome."""

import asyncio
from unittest import mock

import numpy as np
import pytest

from repro.errors import (
    DivergenceError,
    JobTimeoutError,
    QuotaExceededError,
    ServiceOverloadError,
)
from repro.serve import RetryPolicy, ServicePolicy, SolverService
from repro.solvers import solve
from repro.sparse import poisson2d

CRS, DIMS = poisson2d(8)
B = np.random.default_rng(3).standard_normal(CRS.n)
#: Deliberately starved iteration budget: fails with "max_iterations".
WEAK = {"solver": "cg", "tol": 1e-8, "max_iterations": 3}
FALLBACK = {"solver": "cg", "tol": 1e-8, "max_iterations": 1000}


def run(coro):
    return asyncio.run(coro)


class TestServedBitIdentity:
    def test_roundtrip_matches_direct_solve(self):
        ref = solve(CRS, B, "cg", grid_dims=DIMS, backend="fused")

        async def go():
            async with SolverService(workers=2) as svc:
                return await svc.solve(CRS, B, "cg", grid_dims=DIMS,
                                       backend="fused", tenant="t")

        res = run(go())
        np.testing.assert_array_equal(res.result.x, ref.x)
        assert res.result.stats.residuals == ref.stats.residuals
        assert res.attempts == 1
        assert res.effective_config == "cg"
        assert res.queue_seconds >= 0 and res.exec_seconds > 0
        assert res.total_seconds >= res.exec_seconds

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_fault_injected_job_rides_the_rollback_path(self):
        """A fault-injection tenant's served result equals the direct
        resilient solve bit for bit — recovery happens inside the solve
        (checkpoint/rollback), not in the serving retry ladder."""
        from repro.sparse import poisson3d

        crs, dims = poisson3d(8)
        b = np.random.default_rng(3).standard_normal(crs.n)
        conf = {"solver": "cg", "tol": 1e-6}
        spec = "seed=7;bitflip:p=0.03,where=exchange"
        kw = dict(grid_dims=dims, num_ipus=2, tiles_per_ipu=16,
                  inject_faults=spec, resilience=True)
        ref = solve(crs, b, conf, **kw)
        assert ref.resilience.outcome == "recovered"
        assert ref.resilience.rollbacks > 0

        async def go():
            async with SolverService(workers=1) as svc:
                res = await svc.solve(crs, b, conf, tenant="faulty", **kw)
                return res, dict(svc.counts)

        res, counts = run(go())
        np.testing.assert_array_equal(res.result.x, ref.x)
        assert res.result.stats.residuals == ref.stats.residuals
        assert res.result.resilience.to_dict() == ref.resilience.to_dict()
        assert res.attempts == 1          # rollback absorbed the faults
        assert counts["retries"] == 0


class TestRetries:
    def test_retry_ladder_reaches_fallback_and_stays_reproducible(self):
        retry = RetryPolicy(max_attempts=3, base_delay=0.001,
                            fallback_config=FALLBACK, fallback_after=2)

        async def go():
            pol = ServicePolicy(retry=retry)
            async with SolverService(policy=pol, workers=1) as svc:
                res = await svc.solve(CRS, B, WEAK, grid_dims=DIMS,
                                      backend="fused", seed=7)
                return res, dict(svc.counts)

        res, counts = run(go())
        assert res.attempts == 3
        assert res.effective_config is FALLBACK
        assert counts["retries"] == 2 and counts["ok"] == 1
        # The bit-identity contract: one direct call with the recorded
        # effective config reproduces the served result exactly.
        ref = solve(CRS, B, res.effective_config, grid_dims=DIMS, backend="fused")
        np.testing.assert_array_equal(res.result.x, ref.x)
        assert res.result.stats.residuals == ref.stats.residuals

    def test_escalation_multiplies_the_iteration_budget(self):
        retry = RetryPolicy(max_attempts=2, base_delay=0.001,
                            escalate_iterations=400.0, fallback_after=5)

        async def go():
            pol = ServicePolicy(retry=retry)
            async with SolverService(policy=pol, workers=1) as svc:
                return await svc.solve(CRS, B, WEAK, grid_dims=DIMS,
                                       backend="fused")

        res = run(go())
        assert res.attempts == 2
        assert res.effective_config["max_iterations"] == 1200
        assert res.result.stats.failure is None

    def test_exhausted_retries_fail_with_the_typed_error(self):
        retry = RetryPolicy(max_attempts=2, base_delay=0.001, fallback_after=5,
                            escalate_iterations=1.0)

        async def go():
            pol = ServicePolicy(retry=retry)
            async with SolverService(policy=pol, workers=1) as svc:
                with pytest.raises(DivergenceError) as exc_info:
                    await svc.solve(CRS, B, WEAK, grid_dims=DIMS, backend="fused")
                return exc_info.value, dict(svc.counts)

        exc, counts = run(go())
        assert exc.reason == "max_iterations"
        assert exc.exit_code == 13
        assert exc.last_result.stats.failure == "max_iterations"
        assert counts["failed"] == 1 and counts["retries"] == 1

    def test_backoff_is_drawn_on_retry_not_at_admission(self):
        """``submit()`` computes no backoff schedule; a retried job waits
        exactly ``schedule(seed)[attempt]`` before each next attempt."""
        retry = RetryPolicy(max_attempts=3, base_delay=0.001,
                            fallback_config=FALLBACK, fallback_after=2)
        waits = []
        requeue_after = SolverService._requeue_after

        async def recorded(svc, job, delay):
            waits.append((job.attempt - 1, delay))
            await requeue_after(svc, job, delay)

        async def go():
            async with SolverService(policy=ServicePolicy(retry=retry), workers=1) as svc:
                with mock.patch.object(RetryPolicy, "schedule", autospec=True,
                                       side_effect=RetryPolicy.schedule) as schedule:
                    job = svc.submit(CRS, B, WEAK, grid_dims=DIMS, backend="fused", seed=11)
                    admitted = schedule.call_count
                    with mock.patch.object(SolverService, "_requeue_after", recorded):
                        res = await job.future
                return admitted, res

        admitted, res = run(go())
        assert admitted == 0
        assert res.attempts == 3
        assert waits == [(0, retry.schedule(11)[0]), (1, retry.schedule(11)[1])]

    def test_backoff_does_not_hold_the_worker(self):
        """A retry waits out its backoff on a timer, not in a worker: with
        one worker, a healthy job from another tenant resolves before the
        failing job's retry is dispatched."""
        retry = RetryPolicy(max_attempts=2, base_delay=0.2,
                            escalate_iterations=400.0, fallback_after=5)

        async def go():
            async with SolverService(policy=ServicePolicy(retry=retry),
                                     workers=1) as svc:
                failing = svc.submit(CRS, B, WEAK, tenant="a", grid_dims=DIMS,
                                     backend="fused")
                healthy = svc.submit(CRS, B, "cg", tenant="b", grid_dims=DIMS,
                                     backend="fused")
                # One worker: if the retry held it, "a" would finish first.
                done = []
                for job in (failing, healthy):
                    job.future.add_done_callback(
                        lambda _f, t=job.tenant: done.append(t))
                results = await asyncio.gather(failing.future, healthy.future)
                return done, results, svc.accounting()

        done, (res_a, res_b), acc = run(go())
        assert done == ["b", "a"]
        assert res_a.attempts == 2 and res_b.attempts == 1
        assert acc["balanced"] and acc["retries"] == 1 and acc["ok"] == 2


class TestDeadlines:
    def test_expired_deadline_times_out_before_dispatch(self):
        async def go():
            async with SolverService(workers=1) as svc:
                with pytest.raises(JobTimeoutError) as exc_info:
                    await svc.solve(CRS, B, "cg", grid_dims=DIMS,
                                    backend="fused", deadline=1e-9)
                return exc_info.value, dict(svc.counts)

        exc, counts = run(go())
        assert exc.exit_code == 17
        assert counts["timed_out"] == 1 and counts["ok"] == 0

    def test_backoff_that_would_overrun_the_deadline_times_out(self):
        """A failed attempt whose retry delay exceeds the remaining budget
        reports a timeout carrying the failed attempt's partial stats."""
        retry = RetryPolicy(max_attempts=3, base_delay=60.0, jitter=0.0)

        async def go():
            pol = ServicePolicy(retry=retry)
            async with SolverService(policy=pol, workers=1) as svc:
                with pytest.raises(JobTimeoutError) as exc_info:
                    await svc.solve(CRS, B, WEAK, grid_dims=DIMS,
                                    backend="fused", deadline=30.0)
                return exc_info.value

        exc = run(go())
        assert exc.stats is not None
        assert exc.stats.failure == "max_iterations"

    def test_nonpositive_deadline_is_rejected(self):
        async def go():
            async with SolverService(workers=1) as svc:
                with pytest.raises(Exception, match="deadline"):
                    svc.submit(CRS, B, "cg", grid_dims=DIMS, deadline=0.0)

        run(go())


class TestAdmissionControl:
    def test_full_queue_sheds_with_typed_rejection(self):
        async def go():
            pol = ServicePolicy(max_queue_depth=2)
            async with SolverService(policy=pol, workers=1) as svc:
                jobs, rejected = [], 0
                # Submits are synchronous, so the bound is hit before any
                # worker can drain: everything past the capacity sheds.
                for _ in range(8):
                    try:
                        jobs.append(svc.submit(CRS, B, "cg", grid_dims=DIMS,
                                               backend="fused"))
                    except ServiceOverloadError as exc:
                        assert exc.reason == "queue_full"
                        assert exc.capacity == 2
                        rejected += 1
                await asyncio.gather(*(j.future for j in jobs))
                return jobs, rejected, svc.accounting()

        jobs, rejected, acc = run(go())
        assert len(jobs) == 2 and rejected == 6
        assert all(j.future.exception() is None for j in jobs)
        assert acc["rejections"]["queue_full"] == 6
        assert acc["balanced"]

    def test_quota_exhaustion_rejects_with_retry_hint(self):
        async def go():
            pol = ServicePolicy(quota_rate=0.0, quota_burst=1.0)
            async with SolverService(policy=pol, workers=1) as svc:
                job = svc.submit(CRS, B, "cg", grid_dims=DIMS, backend="fused",
                                 tenant="a")
                with pytest.raises(QuotaExceededError) as exc_info:
                    svc.submit(CRS, B, "cg", grid_dims=DIMS, backend="fused",
                               tenant="a")
                # Quotas are per tenant: another tenant still gets in.
                other = svc.submit(CRS, B, "cg", grid_dims=DIMS, backend="fused",
                                   tenant="b")
                await asyncio.gather(job.future, other.future)
                return exc_info.value

        exc = run(go())
        assert exc.exit_code == 18
        assert exc.tenant == "a"
        assert exc.retry_after == float("inf")

    def test_circuit_breaker_quarantines_a_failing_structure(self):
        retry = RetryPolicy(max_attempts=1)

        async def go():
            pol = ServicePolicy(retry=retry, breaker_threshold=2,
                                breaker_cooldown=600.0)
            async with SolverService(policy=pol, workers=1) as svc:
                for _ in range(2):
                    with pytest.raises(DivergenceError):
                        await svc.solve(CRS, B, WEAK, grid_dims=DIMS,
                                        backend="fused")
                with pytest.raises(ServiceOverloadError) as exc_info:
                    svc.submit(CRS, B, WEAK, grid_dims=DIMS, backend="fused")
                # Other structures are unaffected by the quarantine.
                healthy = await svc.solve(CRS, B, "cg", grid_dims=DIMS,
                                          backend="fused")
                return exc_info.value, healthy, svc.breaker.quarantined()

        exc, healthy, quarantined = run(go())
        assert exc.reason == "circuit_open"
        assert healthy.result.stats.failure is None
        assert len(quarantined) == 1


class TestLifecycle:
    def test_graceful_drain_finishes_the_backlog(self):
        async def go():
            pol = ServicePolicy(max_queue_depth=8)
            svc = SolverService(policy=pol, workers=2)
            await svc.start()
            jobs = [svc.submit(CRS, B, "cg", grid_dims=DIMS, backend="fused")
                    for _ in range(5)]
            await svc.stop(drain=True)
            return jobs, svc.accounting()

        jobs, acc = run(go())
        assert all(j.future.done() for j in jobs)
        assert all(j.future.exception() is None for j in jobs)
        assert acc["ok"] == 5 and acc["balanced"]

    def test_non_drain_stop_sheds_the_queue_but_resolves_every_future(self):
        async def go():
            pol = ServicePolicy(max_queue_depth=8)
            svc = SolverService(policy=pol, workers=1)
            await svc.start()
            jobs = [svc.submit(CRS, B, "cg", grid_dims=DIMS, backend="fused")
                    for _ in range(4)]
            await svc.stop(drain=False)
            return jobs, svc.accounting()

        jobs, acc = run(go())
        assert all(j.future.done() for j in jobs)
        shed = [j for j in jobs
                if isinstance(j.future.exception(), ServiceOverloadError)]
        assert all(j.future.exception().reason == "shutting_down" for j in shed)
        assert acc["cancelled"] == len(shed) >= 1
        assert acc["balanced"]

    def test_submissions_after_stop_are_rejected(self):
        async def go():
            svc = SolverService(workers=1)
            await svc.start()
            await svc.stop()
            with pytest.raises(ServiceOverloadError) as exc_info:
                svc.submit(CRS, B, "cg", grid_dims=DIMS, backend="fused")
            return exc_info.value

        assert run(go()).reason == "shutting_down"

    def test_job_ids_are_unique_and_increasing_per_service(self):
        """Each service numbers its own jobs from 1: no counter is shared
        between services, and a result carries its job's id."""
        async def go():
            out = []
            for _ in range(2):
                async with SolverService(workers=1) as svc:
                    jobs = [svc.submit(CRS, B, "cg", grid_dims=DIMS, backend="fused")
                            for _ in range(3)]
                    results = [await job.future for job in jobs]
                out.append(([j.id for j in jobs], [r.job_id for r in results]))
            return out

        for ids, result_ids in run(go()):
            assert ids == result_ids == [1, 2, 3]

    def test_repr_tracks_state(self):
        async def go():
            svc = SolverService(workers=1)
            assert "stopped" in repr(svc)
            await svc.start()
            assert "running" in repr(svc)
            await svc.stop()

        run(go())


class TestObservability:
    def test_service_metrics_are_registered(self):
        from repro.telemetry import MetricsRegistry

        async def go():
            mreg = MetricsRegistry()
            pol = ServicePolicy(max_queue_depth=4, quota_rate=0.0, quota_burst=2.0)
            async with SolverService(policy=pol, workers=1, metrics=mreg) as svc:
                jobs = [svc.submit(CRS, B, "cg", grid_dims=DIMS, backend="fused",
                                   tenant="a") for _ in range(2)]
                with pytest.raises(QuotaExceededError):
                    svc.submit(CRS, B, "cg", grid_dims=DIMS, backend="fused",
                               tenant="a")
                await asyncio.gather(*(j.future for j in jobs))
            return mreg.to_json()

        snap = run(go())
        assert "repro_serve_jobs_total" in snap
        assert "repro_serve_rejections_total" in snap
        assert "repro_serve_queue_depth" in snap
        assert "repro_serve_job_seconds" in snap
        assert "repro_cache_bytes" in snap
