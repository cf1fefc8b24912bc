"""Concurrent access to the structure-keyed compile cache.

The serving runtime (``repro.serve``) shares one process-wide
:class:`~repro.solvers.ProgramCache` across a worker pool, so the LRU map
and its hit/miss/eviction counters must survive concurrent get/put/evict
traffic (docs/serving.md).  Entry *execution* stays serialized through
:attr:`~repro.solvers.CompiledSolve.lock` — also exercised here.
"""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.solvers import CompiledSolve, ProgramCache, SolverSession, solve
from repro.sparse import poisson2d, poisson3d


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

    def test_entry_lock_serializes_stateful_execution(self):
        """CompiledSolve.lock is a real mutex: two holders never overlap."""
        entry = _dummy_entry("k")
        inside, overlaps = [], []

        def use() -> None:
            with entry.lock:
                inside.append(None)
                if len(inside) > 1:
                    overlaps.append(True)
                threading.Event().wait(0.002)
                inside.pop()

        with ThreadPoolExecutor(max_workers=8) as pool:
            for _ in range(8):
                pool.submit(use)
        assert not overlaps


class TestConcurrentSolves:
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
