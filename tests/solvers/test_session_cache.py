"""The structure-keyed compile cache and reusable solve sessions."""

from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

from repro.errors import ReproError, SolverConfigError
from repro.graph import Graph
from repro.graph.passes import PassManager, compile_program
from repro.machine import IPUDevice
from repro.solvers import (
    ProgramCache,
    ProgramShape,
    SolverSession,
    fingerprint_matrix,
    fingerprint_solve,
    solve,
)
from repro.solvers.sweeps import SweepPlan
from repro.sparse import ModifiedCRS, poisson2d, poisson3d

CG = {"solver": "cg", "tol": 1e-6}


def _system(n=6):
    crs, dims = poisson2d(n)
    b = np.random.default_rng(0).standard_normal(crs.n)
    return crs, dims, b


def _entry(nbytes=0):
    """A cache entry as far as the LRU map cares: something with a size."""
    return SimpleNamespace(nbytes=nbytes)


def _counts(cache_or_session) -> dict:
    """``stats()`` without the byte count (which depends on the program)."""
    stats = cache_or_session.stats()
    assert stats.pop("bytes") > 0
    return stats


def _scaled(crs, factor):
    """Same sparsity pattern, different values."""
    return ModifiedCRS(crs.diag * factor, crs.values * factor,
                       crs.col_idx, crs.row_ptr)


class TestFingerprint:
    def test_matrix_hash_is_deterministic(self):
        crs, _, _ = _system()
        assert fingerprint_matrix(crs) == fingerprint_matrix(crs)

    def test_matrix_hash_covers_values_not_just_structure(self):
        # Values are baked into tile-local blocks at distribution time, so a
        # value-only change must produce a different key.
        crs, _, _ = _system()
        assert fingerprint_matrix(crs) != fingerprint_matrix(_scaled(crs, 2.0))

    def test_solve_key_excludes_rhs_and_x0(self):
        crs, dims, _ = _system()
        k1 = fingerprint_solve(crs, CG, grid_dims=dims)
        k2 = fingerprint_solve(crs, CG, grid_dims=dims)
        assert k1 == k2

    @pytest.mark.parametrize("change", [
        {"num_ipus": 2},
        {"tiles_per_ipu": 8},
        {"num_tiles": 3},
        {"grid_dims": None},
        {"blockwise_halo": False},
        {"optimize": False},
        {"backend": "fused"},
        {"resilient": True},
    ])
    def test_every_structural_knob_changes_the_key(self, change):
        crs, dims, _ = _system()
        base = dict(num_ipus=1, tiles_per_ipu=4, grid_dims=dims)
        assert fingerprint_solve(crs, CG, **base) != \
            fingerprint_solve(crs, CG, **{**base, **change})

    def test_config_change_changes_the_key(self):
        crs, dims, _ = _system()
        assert fingerprint_solve(crs, CG, grid_dims=dims) != \
            fingerprint_solve(crs, {"solver": "cg", "tol": 1e-8},
                              grid_dims=dims)

    def test_equivalent_config_spellings_share_a_key(self):
        # load_config canonicalizes; a JSON string and the same dict must
        # land on the same cache entry.
        import json

        crs, dims, _ = _system()
        assert fingerprint_solve(crs, CG, grid_dims=dims) == \
            fingerprint_solve(crs, json.dumps(CG), grid_dims=dims)


class TestProgramCache:
    def test_rejects_zero_capacity(self):
        with pytest.raises(ReproError):
            ProgramCache(capacity=0)

    def test_lru_eviction_counts_and_drops_oldest(self):
        cache = ProgramCache(capacity=2)
        for key in ("a", "b", "c"):
            cache.put(key, _entry(nbytes=3))
        assert cache.stats() == {"hits": 0, "misses": 0, "evictions": 1,
                                 "size": 2, "capacity": 2, "bytes": 6}
        assert "a" not in cache and "b" in cache and "c" in cache

    def test_get_refreshes_lru_order(self):
        cache = ProgramCache(capacity=2)
        cache.put("a", _entry())
        cache.put("b", _entry())
        assert cache.get("a") is not None  # refresh: "b" is now oldest
        cache.put("c", _entry())
        assert "a" in cache and "b" not in cache

    def test_contains_has_no_counter_side_effects(self):
        cache = ProgramCache()
        cache.put("a", _entry())
        assert "a" in cache and "zzz" not in cache
        assert cache.stats()["hits"] == 0 and cache.stats()["misses"] == 0

    def test_clear_and_repr(self):
        cache = ProgramCache(capacity=3)
        cache.put("a", _entry())
        cache.get("missing")
        assert "hits=0" in repr(cache) and "misses=1" in repr(cache)
        cache.clear()
        assert len(cache) == 0

    def test_cache_takes_none_or_a_program_cache(self):
        """There is no process-wide cache: ``True``/``False`` are refused
        like any other non-cache, before anything is built."""
        crs, dims, b = _system()
        cache = ProgramCache()
        solve(crs, b, CG, grid_dims=dims, tiles_per_ipu=4, cache=None)
        solve(crs, b, CG, grid_dims=dims, tiles_per_ipu=4, cache=cache)
        assert cache.stats()["misses"] == 1
        with mock.patch("repro.tensordsl.context.compile_program",
                        wraps=compile_program) as lowered:
            for bad in (True, False, "yes please"):
                with pytest.raises(TypeError, match="ProgramCache"):
                    solve(crs, b, CG, grid_dims=dims, tiles_per_ipu=4, cache=bad)
        assert lowered.call_count == 0


class TestCacheHits:
    def test_hit_is_bit_identical_and_runs_no_passes(self):
        crs, dims, b = _system()
        cache = ProgramCache()
        # The call counts are this test's own: a build in another thread
        # cannot move them between the cold solve and the hit.
        with mock.patch.object(PassManager, "run", autospec=True,
                               side_effect=PassManager.run) as passes, \
                mock.patch("repro.tensordsl.context.compile_program",
                           wraps=compile_program) as lowered:
            cold = solve(crs, b, CG, grid_dims=dims, tiles_per_ipu=4, cache=cache)
            assert cache.stats()["misses"] == 1
            assert (passes.call_count, lowered.call_count) == (1, 1)
            hit = solve(crs, b, CG, grid_dims=dims, tiles_per_ipu=4, cache=cache)
        # The hit re-executed the cached CompiledProgram without re-lowering.
        assert (passes.call_count, lowered.call_count) == (1, 1)
        assert cache.stats()["hits"] == 1
        np.testing.assert_array_equal(hit.x, cold.x)
        assert hit.cycles == cold.cycles
        assert hit.stats.residuals == cold.stats.residuals
        assert hit.relative_residual == cold.relative_residual

    def test_fused_hits_keep_every_buffer_the_kernels_captured(self):
        """Fused kernels capture flat buffers and scratch at compile time, so
        ``prepare()`` must restore *into* them: every variable keeps its
        ``flat_data`` / ``flat_lo`` objects, and two consecutive hits with
        the same inputs replay bit-identically (no scratch state leaks from
        one run into the next)."""
        crs, dims, b = _system()
        cache = ProgramCache()
        kw = dict(grid_dims=dims, tiles_per_ipu=4, backend="fused", cache=cache)
        cold = solve(crs, b, CG, **kw)
        variables = cold.compiled.graph.variables
        buffers = {name: (var.flat_data, var.flat_lo)
                   for name, var in variables.items()}
        other = solve(crs, np.random.default_rng(4).standard_normal(crs.n), CG, **kw)
        hits = [solve(crs, b, CG, **kw) for _ in range(2)]
        assert cache.stats() == {**cache.stats(), "hits": 3, "misses": 1}
        assert all(hit.compiled is cold.compiled for hit in hits)
        for name, var in variables.items():
            assert var.flat_data is buffers[name][0], name
            assert var.flat_lo is buffers[name][1], name
        assert not np.array_equal(other.x, cold.x)
        for hit in hits:
            np.testing.assert_array_equal(hit.x, cold.x)
            assert hit.stats.residuals == cold.stats.residuals

    def test_fused_ilu_hits_share_one_merged_plan(self):
        """The merged sweep plans and their scratch belong to the compiled
        program's solver: the cold solve merges each direction once (both
        preconditioner call sites of the BiCGStab iteration share them), a
        hit merges nothing, and two identical hits replay bit-identically —
        no scratch state leaks from one run into the next."""
        crs, dims, b = _system(8)
        config = {"solver": "bicgstab", "tol": 1e-8, "max_iterations": 20,
                  "preconditioner": {"solver": "ilu0"}}
        cache = ProgramCache()
        kw = dict(grid_dims=dims, tiles_per_ipu=4, backend="fused", cache=cache)
        with mock.patch.object(SweepPlan, "merged", wraps=SweepPlan.merged) as merges:
            cold = solve(crs, b, config, **kw)
            assert merges.call_count == 2  # forward + backward
            solve(crs, np.random.default_rng(4).standard_normal(crs.n), config, **kw)
            hits = [solve(crs, b, config, **kw) for _ in range(2)]
        assert merges.call_count == 2
        assert cache.stats() == {**cache.stats(), "hits": 3, "misses": 1}
        for hit in hits:
            np.testing.assert_array_equal(hit.x, cold.x)
            assert hit.stats.residuals == cold.stats.residuals
        sim = solve(crs, b, config, grid_dims=dims, tiles_per_ipu=4)
        np.testing.assert_array_equal(cold.x, sim.x)

    def test_hit_with_new_rhs_matches_uncached_solve(self):
        crs, dims, b = _system()
        cache = ProgramCache()
        solve(crs, b, CG, grid_dims=dims, tiles_per_ipu=4, cache=cache)
        b2 = np.random.default_rng(9).standard_normal(crs.n)
        hit = solve(crs, b2, CG, grid_dims=dims, tiles_per_ipu=4, cache=cache)
        ref = solve(crs, b2, CG, grid_dims=dims, tiles_per_ipu=4)
        assert cache.stats()["hits"] == 1
        np.testing.assert_array_equal(hit.x, ref.x)
        assert hit.cycles == ref.cycles

    def test_hit_with_x0_matches_uncached_solve(self):
        crs, dims, b = _system()
        cache = ProgramCache()
        solve(crs, b, CG, grid_dims=dims, tiles_per_ipu=4, cache=cache)
        x0 = np.random.default_rng(2).standard_normal(crs.n)
        hit = solve(crs, b, CG, grid_dims=dims, tiles_per_ipu=4, cache=cache,
                    x0=x0)
        ref = solve(crs, b, CG, grid_dims=dims, tiles_per_ipu=4, x0=x0)
        np.testing.assert_array_equal(hit.x, ref.x)
        assert hit.cycles == ref.cycles

    def test_value_change_misses(self):
        crs, dims, b = _system()
        cache = ProgramCache()
        solve(crs, b, CG, grid_dims=dims, tiles_per_ipu=4, cache=cache)
        solve(_scaled(crs, 2.0), b, CG, grid_dims=dims, tiles_per_ipu=4,
              cache=cache)
        assert _counts(cache) == {"hits": 0, "misses": 2, "evictions": 0,
                                  "size": 2, "capacity": 8}

    def test_equal_content_built_separately_hits(self):
        # The key is the content, not the object: a second matrix built from
        # its own copies of the same numbers shares the first one's program.
        crs, dims, b = _system()
        twin = ModifiedCRS(np.array(crs.diag), np.array(crs.values),
                           np.array(crs.col_idx), np.array(crs.row_ptr))
        cache = ProgramCache()
        cold = solve(crs, b, CG, grid_dims=dims, tiles_per_ipu=4, cache=cache)
        hit = solve(twin, b, CG, grid_dims=dims, tiles_per_ipu=4, cache=cache)
        assert _counts(cache) == {"hits": 1, "misses": 1, "evictions": 0,
                                  "size": 1, "capacity": 8}
        assert hit.compiled is cold.compiled
        np.testing.assert_array_equal(hit.x, cold.x)

    def test_shape_and_config_changes_miss(self):
        crs, dims, b = _system()
        cache = ProgramCache()
        solve(crs, b, CG, grid_dims=dims, tiles_per_ipu=4, cache=cache)
        solve(crs, b, CG, grid_dims=dims, tiles_per_ipu=8, cache=cache)
        solve(crs, b, {"solver": "bicgstab", "tol": 1e-6}, grid_dims=dims,
              tiles_per_ipu=4, cache=cache)
        assert cache.stats()["misses"] == 3 and cache.stats()["hits"] == 0

    def test_eviction_under_capacity_pressure(self):
        crs, dims, b = _system()
        cache = ProgramCache(capacity=1)
        solve(crs, b, CG, grid_dims=dims, tiles_per_ipu=4, cache=cache)
        solve(crs, b, CG, grid_dims=dims, tiles_per_ipu=8, cache=cache)
        # The 4-tile entry was evicted; solving it again recompiles.
        solve(crs, b, CG, grid_dims=dims, tiles_per_ipu=4, cache=cache)
        stats = cache.stats()
        assert stats["evictions"] == 2
        assert stats["misses"] == 3 and stats["hits"] == 0
        assert stats["size"] == 1

    def test_stats_are_detached_per_result(self):
        # Under caching the solver tree's stats are reset in place on every
        # hit; each SolveResult must keep its own copy.
        crs, dims, b = _system()
        cache = ProgramCache()
        first = solve(crs, b, CG, grid_dims=dims, tiles_per_ipu=4, cache=cache)
        its = first.iterations
        solve(crs, b, CG, grid_dims=dims, tiles_per_ipu=4, cache=cache)
        assert first.iterations == its


class TestSolverSession:
    def test_session_solves_and_counts(self):
        crs, dims, b = _system()
        session = SolverSession(crs, CG, grid_dims=dims, tiles_per_ipu=4)
        r1 = session.solve(b)
        r2 = session.solve(b)
        np.testing.assert_array_equal(r1.x, r2.x)
        assert r1.cycles == r2.cycles
        assert _counts(session) == {"hits": 1, "misses": 1, "evictions": 0,
                                    "size": 1, "capacity": 8}

    def test_session_checks_its_shape_once_at_construction(self):
        crs, dims, b = _system()
        with pytest.raises(SolverConfigError, match="tiles_per_ipu must be a positive int"):
            SolverSession(crs, CG, grid_dims=dims, tiles_per_ipu=None)
        session = SolverSession(crs, CG, grid_dims=list(dims), tiles_per_ipu=np.int64(4),
                                backend="fused")
        assert session.shape == ProgramShape(tiles_per_ipu=4, grid_dims=dims,
                                             backend="fused")
        assert session.options == {}
        # Every program builds on a device of its own: there is no device=.
        with pytest.raises(TypeError, match="device"):
            session.solve(b, device=IPUDevice(num_ipus=1, tiles_per_ipu=4))

    def test_per_call_overrides_key_new_entries(self):
        crs, dims, b = _system()
        session = SolverSession(crs, CG, grid_dims=dims, tiles_per_ipu=4)
        session.solve(b)
        session.solve(b, tiles_per_ipu=8)
        assert session.stats()["misses"] == 2 and len(session.cache) == 2

    def test_sessions_can_share_a_cache(self):
        crs, dims, b = _system()
        cache = ProgramCache()
        s1 = SolverSession(crs, CG, cache=cache, grid_dims=dims, tiles_per_ipu=4)
        s2 = SolverSession(crs, CG, cache=cache, grid_dims=dims, tiles_per_ipu=4)
        s1.solve(b)
        s2.solve(b)  # second session hits the first one's entry
        assert _counts(cache) == {"hits": 1, "misses": 1, "evictions": 0,
                                  "size": 1, "capacity": 8}

    def test_session_loop_returns_one_result_per_rhs(self):
        crs, dims, _ = _system()
        rng = np.random.default_rng(5)
        bs = [rng.standard_normal(crs.n) for _ in range(3)]
        cache = ProgramCache()
        session = SolverSession(crs, CG, cache=cache, grid_dims=dims,
                                tiles_per_ipu=4)
        results = [session.solve(b) for b in bs]
        assert len(results) == 3
        for b, r in zip(bs, results):
            ref = solve(crs, b, CG, grid_dims=dims, tiles_per_ipu=4)
            np.testing.assert_array_equal(r.x, ref.x)
        assert cache.stats()["misses"] == 1 and cache.stats()["hits"] == 2


def _views_of_flat_storage(var) -> bool:
    return all(
        np.shares_memory(sh.data, var.flat_data)
        and (sh.lo is None or np.shares_memory(sh.lo, var.flat_lo))
        for sh in map(var.shard, var.tiles.tolist())
    )


class TestWholeBufferRestore:
    """``prepare()`` restores one array per variable, which is the state of
    every shard only because every shard is a view into that array."""

    def _captured(self, **kw):
        crs, dims, b = _system()
        cache = ProgramCache()
        kw = dict(grid_dims=dims, tiles_per_ipu=4, **kw)
        solve(crs, b, CG, cache=cache, **kw)
        batch = b.shape[0] if b.ndim == 2 else 1
        return cache, cache.get(fingerprint_solve(crs, CG, batch=batch, **kw)), b

    @pytest.mark.parametrize("backend", ["sim", "fused"])
    def test_shards_stay_views_through_capture_run_and_prepare(self, backend):
        _, entry, b = self._captured(backend=backend)
        variables = entry.ctx.graph.variables
        assert variables and all(map(_views_of_flat_storage, variables.values()))
        entry.prepare(b)
        assert all(map(_views_of_flat_storage, variables.values()))

    def test_prepare_restores_every_variable_to_its_captured_image(self):
        _, entry, b = self._captured()
        variables = entry.ctx.graph.variables
        for var in variables.values():  # as a solve leaves it: anything at all
            var.flat_data[...] = 3
            if var.flat_lo is not None:
                var.flat_lo[...] = 5
        entry.prepare(b)
        bound = {entry.bvec.owned.var.name}
        for name, var in variables.items():
            data, lo = entry.initial_state[name]
            if name not in bound:  # b is rebound after the restore
                assert var.flat_data.tobytes() == data.tobytes(), name
            assert lo is None or var.flat_lo.tobytes() == lo.tobytes(), name

    def test_prepare_refuses_a_variable_without_an_image(self):
        _, entry, b = self._captured()
        entry.ctx.graph.add_variable("late", (4,))
        with pytest.raises(ReproError, match="late"):
            entry.prepare(b)

    def test_the_cache_reports_what_it_pins(self):
        cache, entry, _ = self._captured()
        storage = sum(
            var.flat_data.nbytes + (0 if var.flat_lo is None else var.flat_lo.nbytes)
            for var in entry.ctx.graph.variables.values()
        )
        assert entry.nbytes == 2 * storage > 0  # the buffers and their snapshot
        assert cache.stats()["bytes"] == entry.nbytes
        assert f"bytes={entry.nbytes}" in repr(cache)
        crs, dims, b = _system()
        observed = solve(crs, b, CG, grid_dims=dims, tiles_per_ipu=4, cache=cache,
                         metrics=True)
        assert observed.metrics.gauge("repro_cache_bytes").value() == entry.nbytes

    @pytest.mark.parametrize("make", [
        lambda g: g.add_variable("v", (11,), dtype="dw"),
        lambda g: g.add_variable("v", (11,), batch=3),
        lambda g: g.add_variable("v", (11,), dtype="dw", batch=2),
        lambda g: g.add_replicated("v", (2,), dtype="dw"),
        lambda g: g.add_replicated("v", (1,), batch=3),
    ], ids=["dw", "batched", "dw-batched", "replicated-dw", "replicated-batched"])
    def test_snapshot_mutate_restore_round_trip_is_exact(self, make):
        var = make(Graph(IPUDevice(num_ipus=1, tiles_per_ipu=4)))
        rng = np.random.default_rng(8)
        host = rng.standard_normal(((var.batch,) if var.batched else ()) + var.shape)
        var.scatter(host)
        # The host write reached every shard, in the layout the codelets read.
        per_element = host.reshape(var.batch, -1).T if var.batched else host.reshape(-1)
        for sh in map(var.shard, var.tiles.tolist()):
            iv = sh.interval
            want = per_element[iv.start:iv.stop]
            hi = want.astype(np.float32)
            np.testing.assert_array_equal(sh.data, hi)
            if var.paired:
                np.testing.assert_array_equal(
                    sh.lo, (want - hi.astype(np.float64)).astype(np.float32))
        before = var.gather()
        assert before.shape == host.shape
        hi = host.astype(np.float32)
        np.testing.assert_array_equal(  # a dw pair reads back as hi + lo in f64
            before,
            hi + (host - hi).astype(np.float32).astype(np.float64) if var.paired else hi)
        snap = var.snapshot()
        shards = [(sh.data.copy(), None if sh.lo is None else sh.lo.copy())
                  for sh in map(var.shard, var.tiles.tolist())]
        for sh in map(var.shard, var.tiles.tolist()):  # what a run does: writes through the views
            sh.data[...] = -1.0
            if sh.lo is not None:
                sh.lo[...] = 0.5
        assert not np.array_equal(var.gather(), before)
        var.restore(snap)
        for sh, (data, lo) in zip(map(var.shard, var.tiles.tolist()), shards):
            assert sh.data.tobytes() == data.tobytes()
            assert lo is None or sh.lo.tobytes() == lo.tobytes()
        np.testing.assert_array_equal(var.gather(), before)
        assert _views_of_flat_storage(var)
        assert not np.shares_memory(before, var.flat_data)  # gather copies


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestCachedResilience:
    FAULTS = "seed=7;bitflip:p=0.03,where=exchange"
    KW = dict(num_ipus=2, tiles_per_ipu=16)

    def _system3d(self):
        crs, dims = poisson3d(8)
        b = np.random.default_rng(3).standard_normal(crs.n)
        return crs, dims, b

    def test_cached_faulty_runs_replay_bit_identically(self):
        # Session reuse under injection: a hit resets the monitor and the
        # fault stream, so the recovered run replays exactly — solution,
        # cycles, and the full resilience report.
        crs, dims, b = self._system3d()
        session = SolverSession(crs, CG, grid_dims=dims, **self.KW)
        runs = [session.solve(b, inject_faults=self.FAULTS, resilience=True)
                for _ in range(2)]
        assert session.stats()["hits"] >= 1
        assert runs[0].resilience.rollbacks > 0
        assert np.array_equal(runs[0].x, runs[1].x)
        assert runs[0].cycles == runs[1].cycles
        assert runs[0].resilience.to_dict() == runs[1].resilience.to_dict()

    def test_cached_faulty_run_matches_uncached(self):
        crs, dims, b = self._system3d()
        cached = solve(crs, b, CG, grid_dims=dims, cache=ProgramCache(),
                       inject_faults=self.FAULTS, resilience=True, **self.KW)
        plain = solve(crs, b, CG, grid_dims=dims,
                      inject_faults=self.FAULTS, resilience=True, **self.KW)
        assert np.array_equal(cached.x, plain.x)
        assert cached.cycles == plain.cycles
        assert cached.resilience.to_dict() == plain.resilience.to_dict()
