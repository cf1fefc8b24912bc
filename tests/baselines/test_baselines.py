"""Tests for the CPU/GPU baseline numerics and performance models."""

import numpy as np
import scipy.sparse as sp

from repro.baselines import (
    H100_SXM,
    IPU_M2000,
    XEON_8470Q,
    energy_j,
    global_ilu0,
    ilu_solve_time,
    reference_bicgstab,
    reference_solve_info,
    solver_iteration_time,
    spmv_time,
)
from repro.sparse import ModifiedCRS, poisson2d


class TestGlobalILU0:
    def test_exact_on_tridiagonal(self):
        # Tridiagonal pattern admits exact LU: L@U must equal A.
        a = sp.diags([-1.0, 4.0, -1.0], [-1, 0, 1], shape=(12, 12), format="csr")
        m = ModifiedCRS.from_scipy(a)
        lower, upper = global_ilu0(m)
        np.testing.assert_allclose((lower @ upper).toarray(), a.toarray(), atol=1e-12)

    def test_pattern_preserved(self):
        m, _ = poisson2d(6)
        lower, upper = global_ilu0(m)
        a = m.to_scipy()
        prod_pattern = set(zip(*sp.tril(a, -1).nonzero()))
        assert set(zip(*sp.tril(lower, -1).nonzero())) <= prod_pattern

    def test_residual_smaller_than_no_preconditioner(self):
        m, _ = poisson2d(8)
        lower, upper = global_ilu0(m)
        # A ≈ LU: the factorization error is small relative to |A|.
        err = sp.linalg.norm(lower @ upper - m.to_scipy())
        assert err < 0.5 * sp.linalg.norm(m.to_scipy())


class TestReferenceBiCGStab:
    def test_converges_f64(self):
        m, _ = poisson2d(10)
        b = np.random.default_rng(0).standard_normal(m.n)
        x, iters, hist = reference_bicgstab(m, b, tol=1e-10)
        rel = np.linalg.norm(m.spmv(x) - b) / np.linalg.norm(b)
        assert rel < 1e-9  # native double precision: no f32 stall
        assert iters == len(hist)

    def test_ilu_reduces_iterations(self):
        m, _ = poisson2d(12)
        b = np.random.default_rng(1).standard_normal(m.n)
        _, it_plain, _ = reference_bicgstab(m, b, tol=1e-8, use_ilu=False)
        _, it_ilu, _ = reference_bicgstab(m, b, tol=1e-8, use_ilu=True)
        assert it_ilu < it_plain

    def test_global_ilu_beats_block_local(self):
        # The Sec. VI-D effect: the baselines' global ILU converges in fewer
        # iterations than the IPU's halo-ignoring block-local ILU.
        from repro.solvers import solve

        m, dims = poisson2d(12)
        b = np.random.default_rng(2).standard_normal(m.n)
        info = reference_solve_info(m, b, tol=1e-6)
        ipu = solve(
            m, b,
            {"solver": "bicgstab", "tol": 1e-6, "preconditioner": {"solver": "ilu0"}},
            grid_dims=dims, tiles_per_ipu=16,
        )
        assert info["iterations"] <= ipu.iterations

    def test_solve_info_fields(self):
        m, _ = poisson2d(6)
        b = np.ones(m.n)
        info = reference_solve_info(m, b, tol=1e-6)
        assert info["n"] == 36 and info["nnz"] == m.nnz
        assert info["num_levels"] >= 1
        assert info["iterations"] > 0


class TestPerfModel:
    # The paper-scale matrices (Table II) for ratio checks.
    N, NNZ = int(1.4e6), int(63.1e6)  # Geo_1438

    def test_spmv_bandwidth_ordering(self):
        t_cpu = spmv_time(XEON_8470Q, self.N, self.NNZ)
        t_gpu = spmv_time(H100_SXM, self.N, self.NNZ)
        t_ipu = spmv_time(IPU_M2000, self.N, self.NNZ, value_bytes=4)
        assert t_ipu < t_gpu < t_cpu

    def test_spmv_ratios_in_paper_range(self):
        # Fig. 7: IPU outperforms GPU 13-19x and CPU 55-150x.  The model
        # must land in (a superset of) that regime at paper scale.
        t_cpu = spmv_time(XEON_8470Q, self.N, self.NNZ)
        t_gpu = spmv_time(H100_SXM, self.N, self.NNZ)
        t_ipu = spmv_time(IPU_M2000, self.N, self.NNZ, value_bytes=4)
        assert 5 < t_gpu / t_ipu < 40
        assert 30 < t_cpu / t_ipu < 250

    def test_gpu_ilu_pays_per_level(self):
        fast = ilu_solve_time(H100_SXM, self.N, self.NNZ, num_levels=10)
        slow = ilu_solve_time(H100_SXM, self.N, self.NNZ, num_levels=3000)
        assert slow > 2 * fast
        # The CPU does not pay level overheads.
        assert ilu_solve_time(XEON_8470Q, self.N, self.NNZ, 10) == ilu_solve_time(
            XEON_8470Q, self.N, self.NNZ, 3000
        )

    def test_iteration_time_composition(self):
        t = solver_iteration_time(XEON_8470Q, self.N, self.NNZ, num_levels=100)
        assert t > 2 * spmv_time(XEON_8470Q, self.N, self.NNZ)

    def test_energy(self):
        assert energy_j(XEON_8470Q, 2.0) == 700.0
        assert energy_j(IPU_M2000, 1.0) == 420.0

    def test_small_problems_overhead_dominated_on_gpu(self):
        # At tiny sizes the 4 µs launch dominates the H100's bandwidth.
        t = spmv_time(H100_SXM, 1000, 5000)
        assert t > 0.8 * H100_SXM.op_overhead_s

    def test_table3_spec_sheet(self):
        # Table III constants.
        assert XEON_8470Q.tdp_w == 350 and XEON_8470Q.flops == 2.3e12
        assert H100_SXM.tdp_w == 700 and H100_SXM.flops == 34e12
        assert IPU_M2000.tdp_w == 420 and IPU_M2000.flops == 11e12
        assert IPU_M2000.mem_bandwidth == 47.5e12
