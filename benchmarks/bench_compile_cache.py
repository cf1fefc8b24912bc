"""Compile-cache amortization on repeated Fig. 5 solves.

The motivating workload for the structure-keyed compile cache
(``docs/performance.md``): a time-stepping code solves the *same* Poisson
system shape every step with a slowly drifting right-hand side, warm-started
from the previous step's solution.  A :class:`~repro.solvers.SolverSession`
pays for graph construction + pass pipeline + plan lowering once and rebinds
``b``/``x0`` into the cached :class:`~repro.graph.CompiledProgram` for every
later step.

This bench is the cache's acceptance gate:

- cache hits must reuse the lowered artifact without re-running a single
  compiler pass (asserted by counting the calls of the pass pipeline and
  of the lowering while the bench runs),
- the matrix's bytes are hashed once for the whole run, not once per step
  (asserted by counting the calls of the hashing step — a count, not a
  stopwatch),
- hit solutions and modeled cycle counts must be bit-identical to cold
  compiles of the same step,
- the amortized host wall-clock over 10 solves must beat the
  rebuild-every-step path by at least 1.5x.
"""

import statistics
import time
from unittest import mock

import numpy as np

from repro.bench import cached_solve_wallclock, print_table, save_result
from repro.graph import Engine
from repro.graph.passes import PassManager, compile_program
from repro.solvers import SolverSession, fingerprint_solve, solve
from repro.solvers.session import _hash_matrix
from repro.sparse import poisson3d

GRID = 16  # 4,096 rows — the Fig. 5 matrix family at laptop scale
STEPS = 10
TILES_PER_IPU = 16
CONFIG = {"solver": "cg", "tol": 1e-6}
DRIFT = 1e-5  # per-step rhs perturbation (small-time-step scale)


def _rhs_stream(n: int, steps: int = STEPS, seed: int = 0) -> list:
    """A drifting right-hand-side stream, one vector per time step."""
    rng = np.random.default_rng(seed)
    bs = [rng.standard_normal(n)]
    for _ in range(steps - 1):
        bs.append(bs[-1] + DRIFT * rng.standard_normal(n))
    return bs


HIT_STAGES = ("fingerprint", "prepare", "run", "readback", "residual")


def _staged_hit_ms(crs, dims, cache, b, x0, repeats: int = 7) -> dict:
    """Where a cache hit spends its time: the calls ``solve()`` makes on a
    hit, timed one by one (median of ``repeats``, milliseconds)."""
    b64 = np.asarray(b, dtype=np.float64)
    samples = {stage: [] for stage in HIT_STAGES}
    for _ in range(repeats):
        marks = [time.perf_counter()]
        key = fingerprint_solve(crs, CONFIG, grid_dims=dims, tiles_per_ipu=TILES_PER_IPU)
        entry = cache.get(key)
        marks.append(time.perf_counter())
        entry.prepare(b64, x0=x0)
        marks.append(time.perf_counter())
        Engine(entry.compiled).run()
        marks.append(time.perf_counter())
        x = entry.xvec.read_global()
        marks.append(time.perf_counter())
        np.linalg.norm(crs.spmv(x) - b64) / np.linalg.norm(b64)
        marks.append(time.perf_counter())
        for stage, t0, t1 in zip(HIT_STAGES, marks, marks[1:]):
            samples[stage].append((t1 - t0) * 1e3)
    return {stage: statistics.median(ms) for stage, ms in samples.items()}


def test_compile_cache_amortizes_time_stepping():
    """10 warm-started solves through one session vs. 10 cold compiles."""
    crs, dims = poisson3d(GRID)
    bs = _rhs_stream(crs.n)

    session = SolverSession(crs, CONFIG, grid_dims=dims, tiles_per_ipu=TILES_PER_IPU)
    cached_results, cached_times = [], []
    with mock.patch("repro.solvers.session._hash_matrix", wraps=_hash_matrix) as hashes:
        x_prev = None
        with mock.patch.object(PassManager, "run", autospec=True,
                               side_effect=PassManager.run) as passes, \
                mock.patch("repro.tensordsl.context.compile_program",
                           wraps=compile_program) as lowered:
            for b in bs:
                t0 = time.perf_counter()
                result = session.solve(b, x0=x_prev)
                cached_times.append(time.perf_counter() - t0)
                cached_results.append(result)
                x_prev = result.x
        # Step 0 lowered the program; every later step was served from the cache.
        assert (passes.call_count, lowered.call_count) == (1, 1)
        # One content hash for ten steps: the nine hits key on the memo.
        assert hashes.call_count == 1

        cold_results, cold_times = [], []
        x_prev = None
        for b in bs:
            t0 = time.perf_counter()
            result = solve(crs, b, CONFIG, grid_dims=dims,
                           tiles_per_ipu=TILES_PER_IPU, x0=x_prev)
            cold_times.append(time.perf_counter() - t0)
            cold_results.append(result)
            x_prev = result.x

        # A hit must be indistinguishable from a cold compile — in the solution
        # bytes and in the modeled cycle count.
        for hit, cold in zip(cached_results, cold_results):
            np.testing.assert_array_equal(hit.x, cold.x)
            assert hit.cycles == cold.cycles
            assert hit.stats.residuals == cold.stats.residuals

        stats = session.stats()
        assert stats["misses"] == 1
        assert stats["hits"] == STEPS - 1
        assert stats["evictions"] == 0

        stages = _staged_hit_ms(crs, dims, session.cache, bs[-1], cached_results[-2].x)
    assert hashes.call_count == 1

    speedup = sum(cold_times) / sum(cached_times)
    hit_mean = sum(cached_times[1:]) / (STEPS - 1)
    cold_mean = sum(cold_times) / STEPS
    rows = [
        [i, r.iterations, r.cycles, f"{tc * 1e3:.1f}", f"{tk * 1e3:.1f}"]
        for i, (r, tc, tk) in enumerate(zip(cached_results, cached_times, cold_times))
    ]
    text = print_table(
        f"Compile cache: {STEPS} time steps of CG on poisson3d:{GRID} "
        f"({TILES_PER_IPU} tiles, warm-started)",
        ["step", "iterations", "cycles", "cached ms", "cold ms"],
        rows,
    )
    text += (
        f"\n\n  amortized speedup: {speedup:.2f}x over {STEPS} solves"
        f"\n  hit mean:          {hit_mean * 1e3:.1f} ms"
        f" (cold mean {cold_mean * 1e3:.1f} ms)"
        f"\n  hit stages (ms):   "
        + "  ".join(f"{stage} {stages[stage]:.2f}" for stage in HIT_STAGES)
        + f"\n  matrix hashes:     1 over {STEPS} steps"
        f"\n  cache:             {stats}"
    )
    # Wall-clock is a host measurement and varies run to run; the JSON twin
    # keeps the stable fields only (cycles, iteration counts, identities).
    save_result(
        "compile_cache",
        text,
        data={
            "grid": GRID,
            "steps": STEPS,
            "tiles_per_ipu": TILES_PER_IPU,
            "config": CONFIG,
            "cycles": [r.cycles for r in cached_results],
            "iterations": [r.iterations for r in cached_results],
            "cache": stats,
            "bit_identical_to_cold": True,
            "passes_rerun_on_hit": 0,
            "matrix_hashes": 1,
            "hit_stages": list(HIT_STAGES),
        },
    )

    assert hit_mean < cold_mean  # a hit skips build + lowering
    assert speedup >= 1.5, f"amortized speedup {speedup:.2f}x < 1.5x"


def test_compile_cache_batch_bit_identity():
    """A session loop over several RHS through the harness helper: cached and
    cold paths must agree bit for bit in solutions *and* modeled cycles."""
    crs, dims = poisson3d(12)
    rng = np.random.default_rng(7)
    bs = [rng.standard_normal(crs.n) for _ in range(4)]
    out = cached_solve_wallclock(crs, CONFIG, bs, grid_dims=dims,
                                 tiles_per_ipu=TILES_PER_IPU)
    assert out["bit_identical_solutions"]
    assert out["identical_cycles"]
    assert out["cache"].pop("bytes") > 0
    assert out["cache"] == {"hits": 3, "misses": 1, "evictions": 0,
                            "size": 1, "capacity": 8}
    # The hit path skips graph build + pass pipeline + plan lowering; its
    # per-solve host time must come in under the rebuild-every-time mean.
    assert out["hit_mean_seconds"] < out["cold_mean_seconds"]
