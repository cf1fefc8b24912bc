"""Concurrent access to the structure-keyed compile cache.

A :class:`~repro.solvers.ProgramCache` is shared by threads — a
:class:`~repro.solvers.SolverSession` called from several of them, or the
serving runtime's worker pool (docs/serving.md) — so the LRU map and its
hit/miss/eviction counters must survive concurrent get/put/evict traffic.
A cached entry's buffers are overwritten in place by ``prepare`` and the
run, so the cache also owns one execution lock per fingerprint
(:meth:`~repro.solvers.ProgramCache.lock`), which every cached ``solve``
holds from the lookup to its result: a concurrent solve observes only
itself.
"""

import asyncio
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.serve import SolverService
from repro.solvers import CompiledSolve, ProgramCache, SolverSession, solve
from repro.sparse import poisson2d, poisson3d
from repro.sparse.suitesparse import g3_circuit_like


def _dummy_entry(key: str) -> CompiledSolve:
    return CompiledSolve(key=key, ctx=None, solver=None, xvec=None,
                         bvec=None, device=None, compiled=None)


class TestCacheMapConcurrency:
    def test_hammered_lru_keeps_counters_and_capacity_consistent(self):
        """16 threads × mixed get/put over a tiny LRU: every get must count
        exactly one hit or miss, the map never exceeds capacity, and no
        operation raises (the pre-lock OrderedDict corrupted under this)."""
        cache = ProgramCache(capacity=4)
        threads, per_thread, keyspace = 16, 300, 12
        errors: list = []

        def worker(tid: int) -> None:
            rng = np.random.default_rng(tid)
            try:
                for i in range(per_thread):
                    key = f"k{rng.integers(keyspace)}"
                    if cache.get(key) is None and i % 2 == 0:
                        cache.put(key, _dummy_entry(key))
            except Exception as exc:  # pragma: no cover - the regression
                errors.append(exc)

        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(worker, range(threads)))

        assert not errors
        stats = cache.stats()
        assert stats["hits"] + stats["misses"] == threads * per_thread
        assert stats["size"] <= stats["capacity"] == 4
        assert len(cache) == stats["size"]

    def test_execution_lock_serializes_one_key_and_is_dropped_when_free(self):
        """Two holders of one key never overlap, another key is not held up
        by them, and once nobody holds or awaits a lock it is gone."""
        cache = ProgramCache(capacity=1)
        inside, overlaps = [], []
        held = threading.Event()

        def use() -> None:
            with cache.lock("k"):
                inside.append(None)
                if len(inside) > 1:
                    overlaps.append(True)
                held.set()
                threading.Event().wait(0.002)
                inside.pop()

        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(use) for _ in range(8)]
            held.wait(timeout=10)
            with cache.lock("other"):  # never waits on "k"'s holders
                pass
            for f in futures:
                f.result(timeout=30)
        assert not overlaps
        assert cache._runs == {}


#: Three structures, each a fused-kernel program: two CG systems and the
#: paper's Fig. 8 solver, MPIR (double-word) + PBiCGStab + ILU(0), on a small
#: circuit matrix.
def _systems() -> dict:
    cg = {"solver": "cg", "tol": 1e-6}
    mpir = {"solver": "mpir", "precision": "dw", "tol": 1e-9, "max_outer": 12,
            "inner": {"solver": "bicgstab", "fixed_iterations": 50, "tol": 2e-7,
                      "record_history": False, "preconditioner": {"solver": "ilu0"}}}
    (a, a_dims), (b, b_dims) = poisson2d(32), poisson3d(8)
    return {
        "cg_2d": (a, cg, dict(grid_dims=a_dims, tiles_per_ipu=8, backend="fused")),
        "cg_3d": (b, cg, dict(grid_dims=b_dims, tiles_per_ipu=8, backend="fused")),
        "mpir_g3": (g3_circuit_like(16), mpir, dict(tiles_per_ipu=8, backend="fused")),
    }


SYSTEMS = _systems()
THREADS = 3  # direct solvers, beside the service's two workers
PER_THREAD = 6
SERVED = 6


class TestConcurrentSolves:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_threads_and_a_service_sharing_one_cache_observe_only_their_own_solve(
            self, seed):
        """Three threads calling ``solve(cache=…)`` and a 2-worker
        ``SolverService`` share one cold cache, all released at once: every
        first job is the same CG structure (one miss racing hits), the rest
        mix a second CG structure and MPIR(dw) + PBiCGStab + ILU(0).  Each
        result's ``x``, residual history and kernel tallies equal the same
        job solved alone, bit for bit, and each structure is built once."""
        rng = np.random.default_rng(seed)
        names = list(SYSTEMS)

        def jobs(count: int) -> list:
            picks = ["cg_2d"] + [names[i] for i in rng.integers(len(names), size=count - 1)]
            return [(name, rng.standard_normal(SYSTEMS[name][0].n)) for name in picks]

        direct = [jobs(PER_THREAD) for _ in range(THREADS)]
        served = jobs(SERVED)

        def run(name: str, b, cache):
            crs, config, kw = SYSTEMS[name]
            return solve(crs, b, config, cache=cache, **kw)

        alone = ProgramCache()
        solo = [[run(name, b, alone) for name, b in share] for share in direct + [served]]

        cache = ProgramCache()
        start = threading.Barrier(THREADS + 1, timeout=60)

        def solve_directly(share: list) -> list:
            start.wait()
            return [run(name, b, cache) for name, b in share]

        async def serve_all() -> list:
            async with SolverService(workers=2, cache=cache) as svc:
                start.wait()
                submitted = [svc.submit(SYSTEMS[name][0], b, SYSTEMS[name][1],
                                        **SYSTEMS[name][2]) for name, b in served]
                return [(await job.future).result for job in submitted]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # hand the interpreter lock over often
        try:
            with ThreadPoolExecutor(max_workers=THREADS + 1) as pool:
                threads = [pool.submit(solve_directly, share) for share in direct]
                threads.append(pool.submit(asyncio.run, serve_all()))
                results = [f.result(timeout=300) for f in threads]
        finally:
            sys.setswitchinterval(interval)

        wrong = []
        for share, got, want in zip(direct + [served], results, solo):
            for (name, _), res, ref in zip(share, got, want):
                if not (np.array_equal(res.x, ref.x)
                        and res.stats.residuals == ref.stats.residuals
                        and res.kernel_counters == ref.kernel_counters):
                    wrong.append(name)
        total = THREADS * PER_THREAD + SERVED
        assert not wrong, f"{len(wrong)}/{total} concurrent solves differ from solo: {wrong}"
        # A cold burst on one structure builds it once; everything else hits.
        built = {name for share in direct + [served] for name, _ in share}
        stats = cache.stats()
        assert (stats["misses"], stats["hits"]) == (len(built), total - len(built))
        assert cache._runs == {}

    def test_parallel_solves_through_one_shared_cache_stay_bit_identical(self):
        """Four threads, four distinct structures, one shared cache: every
        concurrent result must equal its single-threaded reference bit for
        bit, and the counters must balance."""
        grids = (8, 9, 10, 11)
        systems = {}
        for g in grids:
            crs, dims = poisson2d(g)
            b = np.random.default_rng(g).standard_normal(crs.n)
            systems[g] = (crs, dims, b)
        reference = {
            g: solve(crs, b, "cg", grid_dims=dims)
            for g, (crs, dims, b) in systems.items()
        }

        cache = ProgramCache(capacity=8)
        rounds = 3

        def run(g: int):
            crs, dims, b = systems[g]
            return [
                solve(crs, b, "cg", grid_dims=dims, cache=cache)
                for _ in range(rounds)
            ]

        with ThreadPoolExecutor(max_workers=len(grids)) as pool:
            results = dict(zip(grids, pool.map(run, grids)))

        for g in grids:
            for res in results[g]:
                np.testing.assert_array_equal(res.x, reference[g].x)
                assert res.stats.residuals == reference[g].stats.residuals
                assert res.cycles == reference[g].cycles
        stats = cache.stats()
        assert stats["misses"] == len(grids)
        assert stats["hits"] == len(grids) * (rounds - 1)


class TestPerRunKernelCounters:
    def test_concurrent_sessions_report_only_their_own_launches(self):
        """Two threads solving different structures at once: every result's
        ``kernel_counters`` is its own solve's, equal to that structure's
        solo value — the tallies live on each run's engine, so one thread's
        launches never land in the other's."""
        systems = {"2d": poisson2d(24), "3d": poisson3d(12)}
        sessions, rhs, solo = {}, {}, {}
        for name, (crs, dims) in systems.items():
            sessions[name] = SolverSession(crs, "cg", grid_dims=dims, backend="fused")
            rhs[name] = np.random.default_rng(len(name)).standard_normal(crs.n)
            sessions[name].solve(rhs[name])  # warm: compiled and cached
            solo[name] = sessions[name].solve(rhs[name]).kernel_counters
        assert solo["2d"] != solo["3d"]
        start = threading.Barrier(len(systems), timeout=60)

        def run(name: str) -> list:
            start.wait()
            return [sessions[name].solve(rhs[name]).kernel_counters for _ in range(10)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # hand the interpreter lock over often
        try:
            with ThreadPoolExecutor(max_workers=len(systems)) as pool:
                results = dict(zip(systems, pool.map(run, systems, timeout=300)))
        finally:
            sys.setswitchinterval(interval)
        for name, counters in results.items():
            wrong = sum(kc != solo[name] for kc in counters)
            assert wrong == 0, f"{wrong}/10 {name} solves reported another run's launches"
