"""The multi-RHS batch axis (docs/solvers.md, "Batched Krylov solves").

The batching contract has three legs, each tested here:

1. **Bit-identity** — column ``j`` of a batched solve is bit-for-bit the
   single-RHS solve of ``b[j]`` alone: solution, iteration count, failure
   classification, and the full per-iteration residual history.  Per-RHS
   convergence masking multiplies frozen columns by exactly ``0.0`` and
   active columns by exactly ``1.0``, both bitwise-exact in IEEE f32.
2. **One halo exchange per iteration** — the batched program executes the
   *same number* of exchange phases as a single-RHS solve; the payload
   carries all columns, so exchange count is independent of the batch size
   (the amortization the paper's SpMV-bound solvers want).
3. **Caching** — the batch size is part of the structure fingerprint, and
   a batched cache hit replays bit-identically with freshly reset per-RHS
   stats.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.solvers import SolverSession, solve
from repro.solvers.session import fingerprint_solve
from repro.sparse import poisson2d

CG = {"solver": "cg", "tol": 1e-6}
CG_JACOBI = {"solver": "cg", "tol": 1e-6,
             "preconditioner": {"solver": "jacobi", "sweeps": 2}}
BICGSTAB = {"solver": "bicgstab", "tol": 1e-6}
BICGSTAB_JACOBI = {"solver": "bicgstab", "tol": 1e-6,
                   "preconditioner": {"solver": "jacobi", "sweeps": 2}}
#: The ``fixed_iterations`` form (``Repeat`` of ``If``, as in MPIR's inner
#: solve): CG's burst ends before any column converges; PBiCGStab's columns
#: converge at 11 and 12 of 12, so some skip the last iteration.
CG_FIXED = {**CG, "fixed_iterations": 20}
BICGSTAB_JACOBI_FIXED = {**BICGSTAB_JACOBI, "fixed_iterations": 12}
CONFIGS = [CG, CG_JACOBI, BICGSTAB, BICGSTAB_JACOBI, CG_FIXED, BICGSTAB_JACOBI_FIXED]

KW = dict(tiles_per_ipu=8)


def _system(n=10, batch=4, seed=42):
    crs, dims = poisson2d(n)
    bs = np.random.default_rng(seed).standard_normal((batch, crs.n))
    return crs, dims, bs


def _assert_columns_match_singles(crs, dims, bs, config, backend="sim"):
    # A cycle tracer makes ``sim`` step every vertex: the reference path.
    kw = dict(grid_dims=dims, backend=backend, trace=backend == "sim", **KW)
    batched = solve(crs, bs, config, **kw)
    assert batched.batch == len(bs)
    assert batched.x.shape == bs.shape
    for j, b in enumerate(bs):
        single = solve(crs, b, config, **kw)
        assert np.array_equal(batched.x[j], single.x), f"column {j} diverged"
        st_j = batched.batch_stats[j]
        assert st_j.total_iterations == single.stats.total_iterations
        assert st_j.residuals == single.stats.residuals
        assert st_j.failure == single.stats.failure
        assert batched.relative_residuals[j] == single.relative_residual
    assert batched.relative_residual == max(batched.relative_residuals)
    return batched


class TestBitIdentity:
    @pytest.mark.parametrize("config", CONFIGS,
                             ids=["cg", "cg+jacobi", "bicgstab", "bicgstab+jacobi",
                                  "cg-fixed", "bicgstab+jacobi-fixed"])
    def test_every_column_matches_its_single_rhs_solve(self, config):
        crs, dims, bs = _system()
        _assert_columns_match_singles(crs, dims, bs, config)

    def test_untimed_backend_matches_too(self):
        crs, dims, bs = _system(batch=3)
        _assert_columns_match_singles(crs, dims, bs, CG, backend="fused")

    def test_batched_result_matches_sim_across_backends(self):
        crs, dims, bs = _system(batch=3)
        sim = solve(crs, bs, CG, grid_dims=dims, trace=True, **KW)
        fused = solve(crs, bs, CG, grid_dims=dims, backend="fused", **KW)
        assert np.array_equal(sim.x, fused.x)
        kc = fused.kernel_counters
        assert kc is not None and kc["dispatches"] == kc["kernels"] > 0

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000),
           batch=st.integers(min_value=2, max_value=5),
           backend=st.sampled_from(["sim", "fused"]))
    def test_property_batched_equals_single(self, seed, batch, backend):
        # Any RHS draw, any batch size, timed or kernel backend: batching
        # never changes a single bit of any column's trajectory.
        crs, dims, bs = _system(n=8, batch=batch, seed=seed)
        _assert_columns_match_singles(crs, dims, bs, CG, backend=backend)

    def test_batch_of_one_matches_classic_solve(self):
        crs, dims, bs = _system(batch=1)
        batched = solve(crs, bs, CG, grid_dims=dims, **KW)
        single = solve(crs, bs[0], CG, grid_dims=dims, **KW)
        # (1, n) input still reports the batched shape/metadata...
        assert batched.batch == 1 and batched.x.shape == (1, crs.n)
        # ...but the numerics and the schedule are the classic solve's.
        assert np.array_equal(batched.x[0], single.x)
        assert batched.cycles == single.cycles


class TestConvergenceMasking:
    def test_columns_freeze_at_their_own_iteration(self):
        # rng(42) RHS on poisson2d(10) stagger bicgstab convergence across
        # columns; each column must stop recording at its own iteration
        # while the program runs on until the slowest column finishes.
        crs, dims, bs = _system()
        batched = solve(crs, bs, BICGSTAB, grid_dims=dims, **KW)
        iters = [s.total_iterations for s in batched.batch_stats]
        assert len(set(iters)) > 1, "need staggered convergence to test masking"
        assert batched.stats.total_iterations == max(iters)
        for j, st_j in enumerate(batched.batch_stats):
            # The frozen column's history ends where its single solve ends —
            # no post-convergence drift leaked into x or the records.
            single = solve(crs, bs[j], BICGSTAB, grid_dims=dims, **KW)
            assert st_j.total_iterations == single.stats.total_iterations
            assert np.array_equal(batched.x[j], single.x)
            assert st_j.failure is None

    def test_aggregate_history_tracks_worst_column(self):
        crs, dims, bs = _system()
        batched = solve(crs, bs, CG, grid_dims=dims, **KW)
        for i, agg in enumerate(batched.stats.residuals):
            per_col = [s.residuals[i] for s in batched.batch_stats
                       if i < len(s.residuals)]
            assert per_col and agg >= max(per_col) * (1 - 1e-12)

    def test_max_iterations_classified_per_column(self):
        crs, dims, bs = _system()
        cfg = {"solver": "cg", "tol": 1e-12, "max_iterations": 3}
        batched = solve(crs, bs, cfg, grid_dims=dims, **KW)
        assert batched.failure == "max_iterations"
        for st_j in batched.batch_stats:
            assert st_j.failure == "max_iterations"


class TestExchangeAmortization:
    def test_one_exchange_per_iteration_independent_of_batch(self):
        # The tentpole acceptance bar: the batched loop executes exactly the
        # same halo-exchange schedule as a single-RHS solve — exchanges are
        # counted by the engine, and the counts must be equal whenever the
        # loop runs the same number of iterations.
        crs, dims, bs = _system()
        single = solve(crs, bs[0], CG, grid_dims=dims, **KW)
        batched = solve(crs, bs, CG, grid_dims=dims, **KW)
        # rng(42) columns all take the same iteration count under cg...
        assert batched.stats.total_iterations == single.stats.total_iterations
        # ...so the batched program must not add a single exchange phase.
        assert batched.engine.exchanges == single.engine.exchanges

    def test_exchange_count_flat_across_batch_sizes(self):
        crs, dims, bs = _system(batch=8)
        counts = {}
        for batch in (2, 4, 8):
            r = solve(crs, bs[:batch], CG, grid_dims=dims, **KW)
            counts[batch] = (r.stats.total_iterations, r.engine.exchanges)
        iters = {v[0] for v in counts.values()}
        assert len(iters) == 1, f"iteration counts diverged: {counts}"
        assert len({v[1] for v in counts.values()}) == 1, counts


class TestBatchedCaching:
    def test_batch_size_is_in_the_fingerprint(self):
        crs, dims, _ = _system()
        base = dict(grid_dims=dims, **KW)
        keys = {fingerprint_solve(crs, CG, batch=batch, **base)
                for batch in (1, 2, 4)}
        assert len(keys) == 3

    def test_batched_hit_replays_bit_identically(self):
        crs, dims, bs = _system()
        session = SolverSession(crs, CG, grid_dims=dims, **KW)
        cold = session.solve(bs)
        hit = session.solve(bs)
        assert session.stats()["hits"] == 1 and session.stats()["misses"] == 1
        assert np.array_equal(cold.x, hit.x)
        assert cold.cycles == hit.cycles
        for a, b in zip(cold.batch_stats, hit.batch_stats):
            # prepare() reset the per-RHS stats in place; each result keeps
            # a detached copy with the full history intact.
            assert a.residuals == b.residuals
            assert a.total_iterations == b.total_iterations
        assert cold.relative_residuals == hit.relative_residuals

    def test_batched_hit_with_new_rhs_matches_uncached(self):
        crs, dims, bs = _system()
        session = SolverSession(crs, CG, grid_dims=dims, **KW)
        session.solve(bs)
        bs2 = np.random.default_rng(7).standard_normal(bs.shape)
        hit = session.solve(bs2)
        ref = solve(crs, bs2, CG, grid_dims=dims, **KW)
        assert session.stats()["hits"] == 1
        assert np.array_equal(hit.x, ref.x)
        assert hit.cycles == ref.cycles

    def test_single_and_batched_share_a_session_without_collisions(self):
        crs, dims, bs = _system()
        session = SolverSession(crs, CG, grid_dims=dims, **KW)
        r1 = session.solve(bs[0])
        rb = session.solve(bs)
        # Different batch → different key → both compiled, no false hit.
        assert session.stats()["misses"] == 2
        assert np.array_equal(rb.x[0], r1.x)


class TestBatchedValidation:
    def test_unsupported_solver_rejected(self):
        crs, dims, bs = _system()
        with pytest.raises(ReproError, match="batched"):
            solve(crs, bs, {"solver": "gauss_seidel", "sweeps": 10},
                  grid_dims=dims, **KW)

    def test_unsupported_preconditioner_rejected(self):
        crs, dims, bs = _system()
        with pytest.raises(ReproError, match="batched"):
            solve(crs, bs, {"solver": "cg", "tol": 1e-6,
                            "preconditioner": {"solver": "ilu0"}},
                  grid_dims=dims, **KW)

    def test_mixed_precision_mpir_rejected(self):
        # MPIR's extended-precision RHS is outside the f32-only batched
        # path; the supports_batch gate catches it before allocation.
        crs, dims, bs = _system()
        with pytest.raises(ReproError, match="batched"):
            solve(crs, bs, {"solver": "mpir", "tol": 1e-6,
                            "inner": {"solver": "cg", "tol": 1e-4}},
                  grid_dims=dims, **KW)

    def test_faults_and_resilience_rejected(self):
        crs, dims, bs = _system()
        with pytest.raises(ReproError, match="fault"):
            solve(crs, bs, CG, grid_dims=dims, inject_faults="bitflip:p=0.1",
                  **KW)
        with pytest.raises(ReproError, match="resilience"):
            solve(crs, bs, CG, grid_dims=dims, resilience=True, **KW)

    def test_bad_shapes_rejected(self):
        crs, dims, bs = _system()
        with pytest.raises(ReproError, match="rows"):
            solve(crs, bs[:, :-1], CG, grid_dims=dims, **KW)
        with pytest.raises(ReproError, match="1-D"):
            solve(crs, bs[None], CG, grid_dims=dims, **KW)
        with pytest.raises(ReproError, match="x0"):
            solve(crs, bs, CG, grid_dims=dims, x0=bs[0], **KW)
