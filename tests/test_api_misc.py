"""Coverage for the top-level API surface, bench harness, and softfloat."""

import numpy as np
import pytest

from repro.bench import print_series, print_table, save_result
from repro.dw import softfloat
from repro.solvers import solve
from repro.solvers.api import SolveResult
from repro.sparse import poisson2d


class TestSolveResult:
    @pytest.fixture(scope="class")
    def result(self):
        crs, dims = poisson2d(8)
        b = np.random.default_rng(0).standard_normal(crs.n)
        return solve(crs, b, {"solver": "bicgstab", "tol": 1e-5},
                     grid_dims=dims, tiles_per_ipu=4)

    def test_fields_populated(self, result):
        assert isinstance(result, SolveResult)
        assert result.x.shape == (64,)
        assert result.cycles > 0
        assert result.seconds == pytest.approx(result.cycles / 1.33e9)
        assert 0 < result.relative_residual < 1e-4
        assert result.iterations == result.stats.total_iterations
        assert sum(result.profile.values()) == pytest.approx(1.0)

    def test_engine_and_solver_exposed(self, result):
        assert result.engine is not None
        assert result.solver.name == "bicgstab"


class TestResidualDtype:
    def test_float32_rhs_reports_f64_relative_residual(self):
        # Regression: ``np.linalg.norm(b)`` in the caller's float32 used to
        # normalize an f64 residual — the reported relative residual must be
        # identical whichever dtype the rhs arrives in.
        crs, dims = poisson2d(8)
        b64 = np.random.default_rng(1).standard_normal(crs.n)
        b32 = b64.astype(np.float32)
        cfg = {"solver": "cg", "tol": 1e-6}
        r32 = solve(crs, b32, cfg, grid_dims=dims, tiles_per_ipu=4)
        r64 = solve(crs, b32.astype(np.float64), cfg, grid_dims=dims,
                    tiles_per_ipu=4)
        assert r32.relative_residual == r64.relative_residual
        # And it really is the f64 quantity: recompute on the host.
        bref = b32.astype(np.float64)
        expect = np.linalg.norm(crs.spmv(r32.x) - bref) / np.linalg.norm(bref)
        assert r32.relative_residual == expect


class TestBenchHarness:
    def test_print_table_returns_text(self, capsys):
        text = print_table("T", ["a", "bb"], [[1, 22], [333, 4]])
        out = capsys.readouterr().out
        assert "T" in text and "333" in text
        assert text in out

    def test_print_series(self):
        text = print_series("S", "x", ["y"], [[1, 2.0]])
        assert "x" in text and "y" in text

    def test_save_result_roundtrip(self):
        path = save_result("selftest_artifact", "hello world")
        assert path.read_text() == "hello world\n"
        path.unlink()

    def test_empty_table(self):
        text = print_table("empty", ["col"], [])
        assert "col" in text


class TestSoftFloat:
    def test_conversion_roundtrip(self):
        v = np.array([np.pi, 1 + 1e-12])
        wide = softfloat.to_emulated(v.astype(np.float32))
        assert wide.dtype == np.float64
        narrow = softfloat.from_emulated(v)
        assert narrow.dtype == np.float32

    def test_cycle_constants_table1(self):
        assert softfloat.CYCLES == {"add": 1080, "mul": 1260, "div": 2520}
        assert softfloat.DIGITS == 16.0


class TestBlockwiseOption:
    def test_solve_with_naive_halo(self):
        # The naive exchange plan must give identical numerics, just slower.
        crs, dims = poisson2d(8)
        b = np.random.default_rng(4).standard_normal(crs.n)
        cfg = {"solver": "bicgstab", "tol": 1e-5}
        block = solve(crs, b, cfg, grid_dims=dims, tiles_per_ipu=4)
        naive = solve(crs, b, cfg, grid_dims=dims, tiles_per_ipu=4,
                      blockwise_halo=False)
        np.testing.assert_array_equal(block.x, naive.x)
        assert naive.cycles > block.cycles


def test_serving_and_a_grid_solve_load_no_heavy_scipy_module():
    """``scipy.sparse.linalg`` and ``scipy.sparse.csgraph`` load on first
    use (a multigrid or Schur factorization, the reference baselines, a
    graph partition): importing the serving, solver and sparse packages and
    running a fused CG solve on a grid partition loads neither."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    script = (
        "import sys\n"
        "import numpy as np\n"
        "import repro.serve, repro.solvers, repro.sparse\n"
        "from repro.solvers import solve\n"
        "from repro.sparse import poisson2d\n"
        "crs, dims = poisson2d(12)\n"
        "solve(crs, np.ones(crs.n, np.float32), {'solver': 'cg', 'tol': 1e-6},\n"
        "      backend='fused', num_tiles=4, grid_dims=dims)\n"
        "print(sorted(m for m in ('scipy.sparse.linalg', 'scipy.sparse.csgraph')\n"
        "             if m in sys.modules))\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
