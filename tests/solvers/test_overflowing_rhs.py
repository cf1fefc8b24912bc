"""A right-hand side whose float32 ``‖b‖²`` overflows is a ``nan_residual``
failure — never a converged solve of zero iterations — on ``solve()``, on
each column of a batch, and through the service, and no numpy
floating-point warning escapes the device run."""

import asyncio
import warnings

import numpy as np
import pytest

from repro.errors import DivergenceError
from repro.serve import RetryPolicy, ServicePolicy, SolverService
from repro.solvers import solve
from repro.sparse import poisson2d

CRS, DIMS = poisson2d(8)
#: 64 entries of 1e19: ‖b‖² = 6.4e39, past float32's 3.4e38.
HUGE = np.full(CRS.n, 1e19, np.float32)
GOOD = np.random.default_rng(4).standard_normal(CRS.n).astype(np.float32)
SHAPE = {"grid_dims": DIMS, "num_ipus": 1, "tiles_per_ipu": 4}
CONFIGS = {
    "cg": {"solver": "cg", "tol": 1e-6},
    "bicgstab": {"solver": "bicgstab", "tol": 1e-6},
    "cg+jacobi": {"solver": "cg", "tol": 1e-6, "preconditioner": {"solver": "jacobi"}},
    "mpir": {"solver": "mpir", "precision": "dw", "tol": 1e-9,
             "inner": {"solver": "cg", "tol": 1e-3}},
}


def _solve_quietly(*args, **kwargs):
    """``solve`` with every warning recorded; fails on a numpy
    floating-point warning ("overflow encountered in ...")."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = solve(*args, **kwargs)
    floating = [str(w.message) for w in caught if "encountered" in str(w.message)]
    assert not floating, floating
    return result


@pytest.mark.parametrize("backend", ["fused", "sim"])
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_an_overflowing_rhs_norm_is_a_nan_residual(name, backend):
    result = _solve_quietly(CRS, HUGE, CONFIGS[name], backend=backend, **SHAPE)
    assert result.failure == "nan_residual"


@pytest.mark.parametrize("backend", ["fused", "sim"])
def test_a_batched_column_with_an_overflowing_norm_fails_alone(backend):
    result = _solve_quietly(CRS, np.stack([GOOD, HUGE]), CONFIGS["cg"], backend=backend,
                            **SHAPE)
    assert [s.failure for s in result.batch_stats] == [None, "nan_residual"]
    assert result.failure == "nan_residual"
    assert result.relative_residuals[0] <= 1e-5
    solo = solve(CRS, GOOD, CONFIGS["cg"], backend=backend, **SHAPE)
    assert result.x[0].tobytes() == solo.x.tobytes()


def test_a_served_job_with_an_overflowing_norm_fails_as_nan_residual():
    async def go():
        policy = ServicePolicy(retry=RetryPolicy(max_attempts=1))
        async with SolverService(policy=policy, workers=1) as svc:
            with pytest.raises(DivergenceError) as caught:
                await svc.solve(CRS, HUGE, CONFIGS["cg"], backend="fused", **SHAPE)
            return caught.value

    exc = asyncio.run(go())
    assert exc.reason == "nan_residual"
    assert exc.last_result.stats.failure == "nan_residual"
