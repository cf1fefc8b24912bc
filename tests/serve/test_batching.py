"""Queue-level dynamic batching: coalescing is invisible in results.

Every batched-served job must be bit-identical to one direct
:func:`repro.solvers.solve` of its column alone, and per-job semantics —
deadlines, retries, fairness, opt-out, admission validation — survive
coalescing unchanged (docs/serving.md, "Dynamic batching").
"""

import asyncio
from unittest import mock

import numpy as np
import pytest

from repro.errors import BackendCapabilityError, JobTimeoutError, ReproError
from repro.serve import (BatchPolicy, RetryPolicy, ServicePolicy,
                         SolverService, config_supports_batch)
from repro.solvers import solve
from repro.sparse import poisson2d

CRS, DIMS = poisson2d(8)
RNG = np.random.default_rng(17)
CONFIG = {"solver": "cg", "tol": 1e-8, "max_iterations": 400}
#: Starved budget: fails with "max_iterations", engaging the retry ladder.
WEAK = {"solver": "cg", "tol": 1e-8, "max_iterations": 3}
KW = dict(grid_dims=DIMS, backend="fused")
CG_PRE_CG = {"solver": "cg", "tol": 1e-8, "preconditioner":
             {"solver": "cg", "fixed_iterations": 3, "tol": 1e-3, "record_history": False}}
JACOBI = {"solver": "jacobi"}
GATE_CONFIGS = [
    "cg", "bicgstab", "jacobi", "identity", "ilu0", "gauss_seidel", "richardson",
    {"solver": "cg", "preconditioner": JACOBI},
    {"solver": "bicgstab", "preconditioner": {"solver": "identity"}},
    {"solver": "cg", "preconditioner": {"solver": "ilu0"}},
    {"solver": "cg", "preconditioner": {"solver": "dilu"}},
    {"solver": "bicgstab", "preconditioner": {"solver": "gauss_seidel"}},
    CG_PRE_CG,
    {"solver": "cg", "max_iterations": 20, "preconditioner":
     {"solver": "bicgstab", "fixed_iterations": 2, "preconditioner": JACOBI}},
    {"solver": "cg", "preconditioner": {"solver": "cg", "fixed_iterations": 2,
                                         "preconditioner": {"solver": "ilu0"}}},
    {"solver": "mpir", "inner": {"solver": "cg", "fixed_iterations": 5}},
    {"solver": "mpir", "precision": "float32", "inner": {"solver": "cg"}},
]


def _tree(config) -> str:
    """``cg(bicgstab(jacobi))``: a config's solver nesting, as a test id."""
    if isinstance(config, str):
        return config
    subs = [config[k] for k in ("preconditioner", "inner") if k in config]
    return config["solver"] + "".join(f"({_tree(c)})" for c in subs)


def run(coro):
    return asyncio.run(coro)


def _bs(k, seed=17):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(CRS.n) for _ in range(k)]


def _policy(max_batch=4, max_wait_ms=20.0, **kw):
    return ServicePolicy(
        batch=BatchPolicy(max_batch=max_batch, max_wait_ms=max_wait_ms), **kw)


class TestCoalescing:
    def test_compatible_jobs_coalesce_and_match_direct_solve(self):
        """K jobs submitted before the single worker wakes form one
        width-K dispatch, and every column equals its solo solve."""
        bs = _bs(4)
        refs = [solve(CRS, b, CONFIG, **KW) for b in bs]

        async def go():
            async with SolverService(policy=_policy(), workers=1) as svc:
                jobs = [svc.submit(CRS, b, CONFIG, tenant="t", **KW)
                        for b in bs]
                results = await asyncio.gather(*(j.future for j in jobs))
                return results, svc.accounting()

        results, acc = run(go())
        assert acc["balanced"] and acc["worker_faults"] == 0
        assert acc["batches"] == 1 and acc["coalesced"] == 3
        for res, ref in zip(results, refs):
            assert res.batch_size == 4
            assert res.result.failure is None
            np.testing.assert_array_equal(res.result.x, ref.x)
            assert res.result.stats.residuals == ref.stats.residuals
            assert res.result.relative_residual == ref.relative_residual

    def test_lone_job_rides_the_classic_single_rhs_path(self):
        """A batch of one is not a batch: the dispatch falls back to the
        single-RHS program, bit-identical cycles included."""
        b = _bs(1)[0]
        ref = solve(CRS, b, CONFIG, **KW)

        async def go():
            async with SolverService(policy=_policy(), workers=1) as svc:
                return await svc.solve(CRS, b, CONFIG, **KW), svc.accounting()

        res, acc = run(go())
        assert res.batch_size == 1
        assert acc["batches"] == 0 and acc["coalesced"] == 0
        np.testing.assert_array_equal(res.result.x, ref.x)
        assert res.result.stats.residuals == ref.stats.residuals
        assert res.result.cycles == ref.cycles

    def test_opt_out_jobs_never_share_a_dispatch(self):
        bs = _bs(3)

        async def go():
            async with SolverService(policy=_policy(), workers=1) as svc:
                jobs = [svc.submit(CRS, b, CONFIG, tenant="t",
                                   batchable=False, **KW) for b in bs]
                results = await asyncio.gather(*(j.future for j in jobs))
                return results, svc.accounting()

        results, acc = run(go())
        assert acc["batches"] == 0 and acc["coalesced"] == 0
        assert all(r.batch_size == 1 for r in results)
        assert all(r.result.failure is None for r in results)

    def test_batch_eligibility_is_config_aware(self):
        assert config_supports_batch("cg")
        assert config_supports_batch({"solver": "bicgstab",
                                      "preconditioner": {"solver": "jacobi"}})
        assert not config_supports_batch({"solver": "mpir",
                                          "inner": {"solver": "cg"}})
        assert not config_supports_batch(
            {"solver": "cg", "preconditioner": {"solver": "ilu0"}})
        assert not config_supports_batch("not a solver at all")

    @pytest.mark.parametrize("config", GATE_CONFIGS, ids=_tree)
    def test_gate_admits_exactly_what_solve_batches(self, config):
        """The serve gate admits exactly the configs ``solve()`` batches
        with per-column records (``batch_stats``), which serve hands back."""
        try:
            batched = solve(CRS, np.stack(_bs(2)), config, **KW).batch_stats is not None
        except ReproError as exc:
            assert "batched solves" in str(exc)
            batched = False
        assert config_supports_batch(config) == batched

    def test_bare_jacobi_jobs_dispatch_solo(self):
        """A bare Jacobi batches in ``solve()`` but keeps no per-column
        records, so serve never coalesces it; each job matches its solo solve."""
        bs = _bs(2)
        refs = [solve(CRS, b, JACOBI, **KW) for b in bs]

        async def go():
            async with SolverService(policy=_policy(), workers=1) as svc:
                jobs = [svc.submit(CRS, b, JACOBI, tenant="t", **KW) for b in bs]
                return await asyncio.gather(*(j.future for j in jobs)), svc.accounting()

        results, acc = run(go())
        assert acc["balanced"] and acc["batches"] == 0
        for res, ref in zip(results, refs):
            assert res.batch_size == 1
            np.testing.assert_array_equal(res.result.x, ref.x)

    def test_nested_krylov_preconditioner_is_served_batched(self):
        """CG preconditioned by a fixed-burst CG rides the batch axis, and
        every column equals its solo solve."""
        bs = _bs(3)
        refs = [solve(CRS, b, CG_PRE_CG, **KW) for b in bs]

        async def go():
            async with SolverService(policy=_policy(), workers=1) as svc:
                jobs = [svc.submit(CRS, b, CG_PRE_CG, tenant="t", **KW) for b in bs]
                return await asyncio.gather(*(j.future for j in jobs))

        for res, ref in zip(run(go()), refs):
            assert res.batch_size > 1
            np.testing.assert_array_equal(res.result.x, ref.x)
            assert res.result.stats.residuals == ref.stats.residuals
            assert res.result.relative_residual == ref.relative_residual


    def test_a_scatter_fault_retires_every_column(self, monkeypatch):
        """A fault while handing a batched result back fails each job once,
        balances the ledger and lets the service drain."""
        def boom(res, j):
            raise TypeError("scatter")

        monkeypatch.setattr(SolverService, "_column_result", staticmethod(boom))

        async def go():
            async with SolverService(policy=_policy(), workers=1) as svc:
                jobs = [svc.submit(CRS, b, CONFIG, tenant="t", **KW) for b in _bs(2)]
                out = await asyncio.gather(*(j.future for j in jobs), return_exceptions=True)
                return out, svc.accounting()

        out, acc = run(go())
        assert all(isinstance(e, ReproError) and "worker fault" in str(e) for e in out)
        assert acc["balanced"] and acc["worker_faults"] == 2


class TestDeadlinesInBatches:
    def test_one_column_times_out_the_rest_converge_bit_identically(self):
        """The earliest deadline bounds the whole dispatch, but only the
        expired job times out — collateral columns go back to the queue
        (no retry attempt consumed) and finish exactly.

        No wall clock decides the outcome: the service reads a clock the
        test owns, and the dispatch that carries the doomed column is gated
        so its budget is spent when the solve starts — the cooperative
        deadline fires on the first iteration however fast the host is.
        """
        bs = _bs(3, seed=5)
        refs = [solve(CRS, b, CONFIG, **KW) for b in bs[1:]]

        async def go():
            async with SolverService(policy=_policy(max_wait_ms=5.0),
                                     workers=1) as svc:
                clock = [0.0]
                svc._now = lambda: clock[0]
                attempt = svc._solve_attempt

                def gated(jobs, config, remaining, bucket):
                    if remaining is not None:
                        clock[0] += remaining
                        remaining = 1e-9
                    return attempt(jobs, config, remaining, bucket)

                svc._solve_attempt = gated
                doomed = svc.submit(CRS, bs[0], CONFIG, tenant="t",
                                    deadline=0.15, **KW)
                rest = [svc.submit(CRS, b, CONFIG, tenant="t", **KW)
                        for b in bs[1:]]
                outcome = await asyncio.gather(doomed.future,
                                               return_exceptions=True)
                results = await asyncio.gather(*(j.future for j in rest))
                return outcome[0], results, svc.accounting()

        err, results, acc = run(go())
        assert isinstance(err, JobTimeoutError) and err.exit_code == 17
        assert acc["balanced"] and acc["timed_out"] == 1 and acc["ok"] == 2
        # The survivors were redispatched, not retried: one attempt each.
        assert acc["redispatched"] == 2 and acc["retries"] == 0
        for res, ref in zip(results, refs):
            assert res.attempts == 1
            np.testing.assert_array_equal(res.result.x, ref.x)
            assert res.result.stats.residuals == ref.stats.residuals


class TestRetriesInBatches:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_failed_columns_retry_individually_and_stay_exact(self):
        """A starved batch fails every column; each re-enters the retry
        ladder on its own and the escalated result is reproduced by one
        direct solve with the recorded effective config."""
        bs = _bs(3, seed=9)
        retry = RetryPolicy(max_attempts=2, base_delay=0.001,
                            escalate_iterations=200.0, fallback_after=5)

        async def go():
            async with SolverService(policy=_policy(retry=retry),
                                     workers=1) as svc:
                jobs = [svc.submit(CRS, b, WEAK, tenant="t", **KW)
                        for b in bs]
                results = await asyncio.gather(*(j.future for j in jobs))
                return results, svc.accounting()

        results, acc = run(go())
        assert acc["balanced"] and acc["retries"] == 3
        assert acc["batches"] >= 1
        for res, b in zip(results, bs):
            assert res.attempts == 2
            assert res.result.failure is None
            assert res.effective_config != WEAK
            ref = solve(CRS, b, res.effective_config, **KW)
            np.testing.assert_array_equal(res.result.x, ref.x)
            assert res.result.stats.residuals == ref.stats.residuals


class TestFairness:
    def test_batching_cannot_starve_an_incompatible_tenant(self):
        """One worker, a deep lane of batchable jobs from tenant A, one
        never-batchable job from tenant B: round-robin still serves B
        after A's first dispatch, not after A's whole backlog."""
        bs = _bs(12, seed=3)
        order: list = []

        async def go():
            policy = _policy(max_batch=4, max_wait_ms=5.0,
                             max_queue_depth=16)
            async with SolverService(policy=policy, workers=1) as svc:
                a_jobs = [svc.submit(CRS, b, CONFIG, tenant="A", **KW)
                          for b in bs]
                b_job = svc.submit(CRS, _bs(1, seed=4)[0], CONFIG,
                                   tenant="B", batchable=False, **KW)
                for j in [*a_jobs, b_job]:
                    j.future.add_done_callback(
                        lambda _, t=j.tenant: order.append(t))
                await asyncio.gather(*(j.future for j in [*a_jobs, b_job]))
                return svc.accounting()

        acc = run(go())
        assert acc["balanced"] and acc["ok"] == 13
        # B finished right after A's first width-4 dispatch — well before
        # A's 12-job backlog drained.
        assert order.index("B") <= 4, order


class TestAdmissionValidation:
    """Malformed jobs are rejected synchronously at submit with a typed
    error and an ``invalid_argument`` ledger entry — they never reach a
    worker (or burn a quota token)."""

    def _submit(self, svc, b, config=CONFIG, **kw):
        return svc.submit(CRS, b, config, grid_dims=DIMS, backend="fused",
                          **kw)

    def test_malformed_inputs_are_typed_rejections(self):
        good = _bs(1)[0]

        async def go():
            async with SolverService(workers=1) as svc:
                cases = [
                    (dict(b=np.zeros((2, 2, CRS.n))), "1-D .* or batched"),
                    (dict(b=good[:-1]), "entries per right-hand side"),
                    (dict(b=np.empty((0, CRS.n))), "at least one"),
                    (dict(b=np.array(["x"] * CRS.n, dtype=object)),
                     "real-numeric"),
                    (dict(b=np.full(CRS.n, np.nan)), "non-finite"),
                    (dict(b=good, x0=good[:-1]), "x0 shape"),
                    (dict(b=good, deadline=-1.0), "deadline"),
                    (dict(b=good, config="{bad json"), "valid JSON"),
                ]
                for kw, needle in cases:
                    with pytest.raises(ReproError, match=needle):
                        self._submit(svc, **kw)
                ok = await self._submit(svc, good).future
                return ok, svc.accounting(), len(cases)

        ok, acc, n = run(go())
        assert ok.result.failure is None
        assert acc["balanced"], acc
        assert acc["rejected"] == n
        assert acc["rejections"].get("invalid_argument") == n

    def test_wrong_backend_is_rejected_at_the_door(self):
        """An unknown backend name, or a cycle-domain observer on the
        untimed backend, is a caller error: rejected at ``submit`` before
        anything is compiled, not admitted and booked as a worker fault."""
        from repro.graph.passes import compile_program

        good = _bs(1)[0]
        cases = [
            dict(backend="nope"),
            dict(backend="fused", trace=True),
            dict(backend="fused", inject_faults="seed=1;bitflip:p=0.5"),
        ]

        async def go():
            # One quota token, never refilled: a rejection that spent it
            # would turn the good job below into a QuotaExceededError.
            policy = ServicePolicy(quota_rate=0.0, quota_burst=1.0)
            async with SolverService(workers=1, policy=policy) as svc:
                with mock.patch("repro.tensordsl.context.compile_program",
                                wraps=compile_program) as lowered:
                    for kw in cases:
                        with pytest.raises(BackendCapabilityError):
                            svc.submit(CRS, good, CONFIG, grid_dims=DIMS, **kw)
                assert lowered.call_count == 0
                ok = await self._submit(svc, good).future
                return ok, svc.accounting()

        ok, acc = run(go())
        assert ok.result.failure is None
        assert acc["balanced"], acc
        assert acc["worker_faults"] == 0
        assert acc["rejected"] == len(cases)
        assert acc["rejections"] == {"invalid_argument": len(cases)}

    def test_integer_rhs_is_admitted(self):
        """Integer b is valid (solve() widens it) — validation rejects
        only non-numeric or non-finite payloads."""

        async def go():
            async with SolverService(workers=1) as svc:
                res = await self._submit(
                    svc, np.ones(CRS.n, dtype=np.int32)).future
                return res

        assert run(go()).result.failure is None
