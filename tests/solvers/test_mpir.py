"""MPIR tests: the paper's headline precision result (Sec. V-B, Figs. 9/10)."""

import numpy as np
import pytest

from repro.solvers import solve
from repro.sparse import ModifiedCRS, poisson2d
from repro.sparse.suitesparse import af_shell_like


@pytest.fixture(scope="module")
def system():
    crs, dims = poisson2d(16)
    rng = np.random.default_rng(7)
    b = rng.standard_normal(crs.n)
    return crs, dims, b


INNER = {
    "solver": "bicgstab",
    "fixed_iterations": 40,
    "record_history": False,
    "tol": 5e-7,
    "preconditioner": {"solver": "ilu0"},
}


def mpir(crs, dims, b, precision, tol, max_outer=10):
    return solve(
        crs, b,
        {"solver": "mpir", "precision": precision, "tol": tol,
         "max_outer": max_outer, "inner": INNER},
        grid_dims=dims, tiles_per_ipu=4,
    )


class TestPrecisionLadder:
    """The Figs. 9/10 result: f32-IR stalls ~1e-6; MPIR-DW ~1e-13; MPIR-DP ~1e-15."""

    def test_plain_ir_stalls(self, system):
        crs, dims, b = system
        res = mpir(crs, dims, b, "float32", tol=1e-13)
        assert res.relative_residual > 1e-8  # cannot break the f32 barrier
        assert res.relative_residual < 1e-5  # but does converge to f32 level

    def test_mpir_dw_reaches_1e12(self, system):
        crs, dims, b = system
        res = mpir(crs, dims, b, "dw", tol=1e-12)
        assert res.relative_residual < 5e-12

    def test_mpir_dp_reaches_1e14(self, system):
        crs, dims, b = system
        res = mpir(crs, dims, b, "float64", tol=1e-14)
        assert res.relative_residual < 5e-14

    def test_ladder_ordering(self, system):
        crs, dims, b = system
        r32 = mpir(crs, dims, b, "float32", tol=1e-15).relative_residual
        rdw = mpir(crs, dims, b, "dw", tol=1e-15, max_outer=6).relative_residual
        rdp = mpir(crs, dims, b, "float64", tol=1e-15, max_outer=6).relative_residual
        assert rdp < rdw < r32


class TestMPIRMechanics:
    def test_history_records_outer_steps(self, system):
        crs, dims, b = system
        res = mpir(crs, dims, b, "dw", tol=1e-12)
        hist = res.stats.residuals
        assert len(hist) >= 2
        assert hist[0] > hist[-1]
        # Each refinement gains several orders of magnitude.
        assert hist[1] / hist[0] < 1e-3

    def test_overhead_is_small(self, system):
        # Table IV: extended-precision ops are a small fraction of runtime
        # when the inner solver runs many iterations.
        crs, dims, b = system
        res = mpir(crs, dims, b, "dw", tol=1e-12)
        frac = res.profile.get("extended_precision", 0.0)
        assert 0.0 < frac < 0.25

    def test_dp_overhead_larger_than_dw(self, system):
        # Table IV: 2% (DW) vs 14% (DP) — emulated double is ~8x slower.
        crs, dims, b = system
        dw = mpir(crs, dims, b, "dw", tol=1e-12)
        dp = mpir(crs, dims, b, "float64", tol=1e-12)
        assert dp.profile["extended_precision"] > dw.profile["extended_precision"]

    def test_extended_solution_exposed(self, system):
        crs, dims, b = system
        res = mpir(crs, dims, b, "dw", tol=1e-12)
        assert res.solver.x_ext is not None
        # The returned x IS the extended solution (f32 rounding would destroy
        # the refined digits).
        x64 = res.solver.x_ext.read_global()
        np.testing.assert_array_equal(res.x, x64)

    def test_invalid_precision_rejected(self, system):
        crs, dims, b = system
        with pytest.raises(ValueError, match="precision"):
            mpir(crs, dims, b, "bfloat16", tol=1e-10)

    def test_converges_on_afshell_double(self):
        # The af_shell7 stand-in of Fig. 10, at reduced size.
        crs = af_shell_like(nx=12, ny=12, layers=3)
        rng = np.random.default_rng(3)
        b = rng.standard_normal(crs.n)
        res = solve(
            crs, b,
            {"solver": "mpir", "precision": "dw", "tol": 1e-11, "max_outer": 12,
             "inner": INNER},
            tiles_per_ipu=4,
        )
        assert res.relative_residual < 1e-10


#: The Fig. 8 solver (benchmarks/bench_fig8_solver_platforms.py).
FIG8 = {"solver": "mpir", "precision": "dw", "tol": 1e-9, "max_outer": 12,
        "inner": {"solver": "bicgstab", "fixed_iterations": 50, "tol": 2e-7,
                  "record_history": False, "preconditioner": {"solver": "ilu0"}}}


@pytest.fixture(scope="module")
def g3():
    from repro.sparse.suitesparse import g3_circuit_like

    crs = g3_circuit_like(64)
    return crs, crs.to_scipy()


@pytest.mark.parametrize("seed, draw", [(29, 293), (105, 147), (307, 285)])
def test_an_exact_zero_inner_divisor_does_not_end_the_refinement(g3, seed, draw):
    """Right-hand sides ``A x*`` on which an inner PBiCGStab step meets
    ``r0·v == 0.0`` exactly in float32 (``x*`` the ``draw``-th
    ``standard_normal(4096)`` of ``default_rng([seed, 3])``).  Guarding
    that divisor with ``1e-30`` made ``alpha`` ~1e26 and the refinement
    diverge or go NaN; an exactly-zero divisor now gives a negligible
    quotient, the step is skipped, and the Fig. 8 solve converges."""
    crs, a = g3
    rng = np.random.default_rng([seed, 3])
    for _ in range(draw):
        x_star = rng.standard_normal(crs.n)
    res = solve(crs, a @ x_star, FIG8, num_ipus=1, tiles_per_ipu=16, backend="fused")
    assert res.failure is None
    assert res.relative_residual < 1e-9 * 10
    assert res.iterations <= 10


@pytest.mark.parametrize("config", [
    {"solver": "bicgstab", "tol": 1e-6, "max_iterations": 20},
    {"solver": "mpir", "precision": "dw", "tol": 1e-9, "max_outer": 4,
     "inner": {"solver": "bicgstab", "fixed_iterations": 5, "tol": 1e-7,
               "record_history": False}},
], ids=["bicgstab", "mpir"])
def test_a_zero_r0_dot_v_keeps_the_iterate_finite(config):
    """``A = [[1, -2], [0, 1]]``, ``b = [1, 1]``: ``v = A b`` is orthogonal
    to ``r0 = b``, so the first ``r0·v`` is exactly zero.  The iterate stays
    finite and the failure is typed — not a ``nan_residual``."""
    crs = ModifiedCRS([1.0, 1.0], [-2.0], [1], [0, 1, 1])
    res = solve(crs, np.ones(2, np.float32), config, num_ipus=1, tiles_per_ipu=1,
                backend="fused")
    assert np.isfinite(res.x).all()
    assert res.failure == "max_iterations"
    assert all(np.isfinite(res.stats.residuals))
