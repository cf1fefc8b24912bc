"""Observability is observational: wall tracing, metrics, and progress
callbacks must never change what a solve computes.

The property here is the wall-clock twin of the sim tracer's
bit-identity guarantee (docs/observability.md): on the ``fused``
performance backend, for any combination of batch width and observability
hooks, the observed run returns bit-identical solutions, residual histories, and kernel
counters to a plain run — including through session-cache hits.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.solvers import SolverSession, solve
from repro.sparse import poisson3d

CG = '{"solver": "cg", "tol": 1e-7, "max_iterations": 60}'
BACKEND = "fused"


def _rhs(n: int, batch: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    b = rng.standard_normal((batch, n))
    return b[0] if batch == 1 else b


def _signature(res):
    """Everything a solve computes, hashed down to comparable pieces."""
    return (
        np.asarray(res.x).tobytes(),
        tuple(res.stats.iterations),
        tuple(res.stats.residuals),
        res.stats.failure,
        res.kernel_counters,
        (
            tuple(tuple(s.residuals) for s in res.batch_stats)
            if res.batch_stats is not None
            else None
        ),
    )


@given(
    batch=st.sampled_from([1, 3]),
    seed=st.integers(0, 10**6),
    stride=st.integers(1, 5),
)
@settings(max_examples=12, deadline=None)
def test_observed_solve_is_bit_identical_to_plain(batch, seed, stride):
    crs, dims = poisson3d(5)
    b = _rhs(crs.n, batch, seed)
    plain = solve(crs, b, CG, grid_dims=dims, tiles_per_ipu=4, backend=BACKEND)
    samples = []
    observed = solve(
        crs, b, CG, grid_dims=dims, tiles_per_ipu=4, backend=BACKEND,
        wall_trace=True, metrics=True, on_progress=samples.append,
        progress_every=stride,
    )
    assert _signature(observed) == _signature(plain)
    assert observed.wall_profile["kernels"]
    assert len(observed.metrics) > 0
    expected_samples = [i for i in plain.stats.iterations if i % stride == 0]
    assert [p.iteration for p in samples] == expected_samples


@given(seed=st.integers(0, 10**6))
@settings(max_examples=6, deadline=None)
def test_observed_session_cache_hit_is_bit_identical(seed):
    crs, dims = poisson3d(5)
    b1 = _rhs(crs.n, 1, seed)
    b2 = _rhs(crs.n, 1, seed + 1)

    plain = SolverSession(crs, CG, grid_dims=dims, tiles_per_ipu=4,
                          backend=BACKEND)
    observed = SolverSession(crs, CG, grid_dims=dims, tiles_per_ipu=4,
                             backend=BACKEND)
    p1 = plain.solve(b1)
    p2 = plain.solve(b2)  # cache hit
    samples = []
    o1 = observed.solve(b1, wall_trace=True, metrics=True,
                        on_progress=samples.append)
    n1 = len(samples)
    o2 = observed.solve(b2, wall_trace=True, metrics=True,
                        on_progress=samples.append)  # cache hit, still observed
    assert observed.stats()["hits"] >= 1
    assert _signature(o1) == _signature(p1)
    assert _signature(o2) == _signature(p2)
    assert n1 and len(samples) > n1  # hooks fired on the hit too
