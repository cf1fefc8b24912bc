"""Tests for DistributedMatrix / DistVector: layouts, exchanges, SpMV."""

import numpy as np
import pytest

from repro.machine import IPUDevice
from repro.sparse import poisson2d, poisson3d
from repro.sparse.distribute import DistributedMatrix, RowSegments
from repro.sparse.suitesparse import g3_circuit_like
from repro.tensordsl import TensorContext, Type


def make(crs, dims=None, tiles=4, blockwise=True):
    ctx = TensorContext(IPUDevice(tiles_per_ipu=tiles))
    A = DistributedMatrix(ctx, crs, grid_dims=dims, blockwise=blockwise)
    return ctx, A


class TestSegmentSums:
    def test_basic(self):
        contrib = np.array([1.0, 2.0, 3.0, 4.0], dtype=np.float32)
        row_ptr = np.array([0, 2, 2, 4])
        out = RowSegments(row_ptr).sums(contrib)
        np.testing.assert_array_equal(out, [3.0, 0.0, 7.0])

    def test_empty_matrix(self):
        out = RowSegments(np.array([0, 0, 0])).sums(np.array([], dtype=np.float32))
        np.testing.assert_array_equal(out, [0.0, 0.0])

    def test_trailing_empty_rows(self):
        contrib = np.array([5.0], dtype=np.float32)
        out = RowSegments(np.array([0, 1, 1, 1])).sums(contrib)
        np.testing.assert_array_equal(out, [5.0, 0.0, 0.0])


    @pytest.mark.parametrize("row_len", [[2, 0, 3], [1, 2, 0, 0], [0, 0], [4]])
    @pytest.mark.parametrize("batch", [1, 3])
    def test_precomputed_plan_equals_per_call_recomputation(self, row_len, batch):
        """RowSegments hoists the starts / empty mask / pad decision out of
        the call; the sums are those of the padded per-call formula."""
        row_ptr = np.concatenate([[0], np.cumsum(row_len)])
        nnz, n = int(row_ptr[-1]), len(row_len)
        shape = (nnz,) if batch == 1 else (nnz, batch)
        contrib = np.random.default_rng(1).standard_normal(shape).astype(np.float32)
        plan = RowSegments(row_ptr)
        assert plan.pad == (row_len[-1] == 0)
        got = plan.sums(contrib)
        if nnz:
            padded = np.concatenate([contrib, np.zeros((1,) + shape[1:], np.float32)])
            want = np.add.reduceat(padded, row_ptr[:-1], axis=0)
            want[np.diff(row_ptr) == 0] = 0
        else:
            want = np.zeros((n,) + shape[1:], np.float32)
        np.testing.assert_array_equal(got, want)


class TestDistVector:
    def test_write_read_roundtrip(self):
        crs, dims = poisson2d(8)
        ctx, A = make(crs, dims)
        v = A.vector()
        data = np.arange(64, dtype=np.float64)
        v.write_global(data)
        np.testing.assert_array_equal(v.read_global(), data)

    def test_reordered_layout_on_tiles(self):
        crs, dims = poisson2d(8)
        ctx, A = make(crs, dims)
        v = A.vector(data=np.arange(64, dtype=np.float64))
        # Tile 0's shard holds its owned cells in the halo-reordered order.
        shard = v.owned.var.shard(0).data
        np.testing.assert_array_equal(shard, A.plan.owned_order[0].astype(np.float32))

    def test_dw_vector(self):
        crs, dims = poisson2d(4)
        ctx, A = make(crs, dims)
        v = A.vector(dtype=Type.DOUBLEWORD)
        data = np.arange(16) + 1e-9
        v.write_global(data)
        np.testing.assert_allclose(v.read_global(), data, rtol=2**-45)


class TestHaloExchange:
    def test_exchange_fills_halo_buffers(self):
        crs, dims = poisson2d(8)
        ctx, A = make(crs, dims)
        v = A.vector(data=np.arange(64, dtype=np.float64))
        A.exchange(v)
        ctx.run()
        for t in A.tiles:
            if A.plan.halo_count(t):
                np.testing.assert_array_equal(
                    v.halo.var.shard(t).data,
                    A.plan.halo_order[t].astype(np.float32),
                )

    def test_exchange_is_blockwise(self):
        crs, dims = poisson3d(8)
        ctx, A = make(crs, dims, tiles=8)
        v = A.vector(data=np.zeros(512))
        A.exchange(v)
        from repro.graph import collect_stats

        stats = collect_stats(ctx.root)
        # One copy per region, not per cell.
        assert stats.region_copies == len(A.plan.regions)
        assert stats.region_copies < A.plan.total_halo_cells() / 4

    def test_naive_plan_many_copies(self):
        crs, dims = poisson3d(8)
        ctx, A = make(crs, dims, tiles=8, blockwise=False)
        v = A.vector(data=np.zeros(512))
        A.exchange(v)
        from repro.graph import collect_stats

        stats = collect_stats(ctx.root)
        assert stats.region_copies == sum(r.size for r in A.plan.regions)

    def test_blockwise_exchange_cheaper(self):
        def cycles(blockwise):
            crs, dims = poisson3d(8)
            ctx, A = make(crs, dims, tiles=8, blockwise=blockwise)
            v = A.vector(data=np.zeros(512))
            A.exchange(v)
            ctx.run()
            return ctx.device.profiler.category("exchange")

        assert cycles(True) < cycles(False)


class TestSpMV:
    @pytest.mark.parametrize("tiles", [1, 2, 4, 8])
    def test_matches_reference_poisson(self, tiles):
        crs, dims = poisson3d(6)
        ctx, A = make(crs, dims, tiles=tiles)
        rng = np.random.default_rng(0)
        xdata = rng.standard_normal(crs.n)
        x = A.vector(data=xdata)
        y = A.vector()
        A.spmv(x, y)
        ctx.run()
        np.testing.assert_allclose(
            y.read_global(), crs.spmv(xdata), rtol=1e-5, atol=1e-5
        )

    def test_matches_reference_irregular(self):
        crs = g3_circuit_like(grid=12, seed=7)
        ctx, A = make(crs, None, tiles=6)
        rng = np.random.default_rng(1)
        xdata = rng.standard_normal(crs.n)
        x, y = A.vector(data=xdata), A.vector()
        A.spmv(x, y)
        ctx.run()
        np.testing.assert_allclose(y.read_global(), crs.spmv(xdata), rtol=1e-4, atol=1e-4)

    def test_spmv_inside_loop_reuses_exchange(self):
        # y = A(A(x)) iterated: halo values must refresh between SpMVs.
        crs, dims = poisson2d(8)
        ctx, A = make(crs, dims)
        xdata = np.random.default_rng(3).standard_normal(64)
        x, y = A.vector(data=xdata), A.vector()
        A.spmv(x, y)
        # copy back and multiply again
        x.owned.assign(y.owned)
        A.spmv(x, y)
        ctx.run()
        expected = crs.spmv(crs.spmv(xdata).astype(np.float32).astype(np.float64))
        np.testing.assert_allclose(y.read_global(), expected, rtol=1e-4, atol=1e-4)

    def test_extended_precision_spmv_dw(self):
        crs, dims = poisson2d(8)
        ctx, A = make(crs, dims)
        rng = np.random.default_rng(5)
        xdata = rng.standard_normal(64) * (1 + 1e-10)
        x = A.vector(dtype=Type.DOUBLEWORD, data=xdata)
        y = A.vector(dtype=Type.DOUBLEWORD)
        A.spmv(x, y)
        ctx.run()
        # dw result: ~1e-14 relative accuracy, far beyond f32's 1e-7.
        np.testing.assert_allclose(y.read_global(), crs.spmv(xdata), rtol=1e-12, atol=1e-12)
        # Extended SpMVs bucket under "spmv" (Table IV taxonomy) but cost
        # extended cycles.
        assert ctx.device.profiler.category("spmv") > 0

    def test_extended_precision_spmv_f64(self):
        crs, dims = poisson2d(8)
        ctx, A = make(crs, dims)
        xdata = np.random.default_rng(6).standard_normal(64)
        x = A.vector(dtype=Type.FLOAT64, data=xdata)
        y = A.vector(dtype=Type.FLOAT64)
        A.spmv(x, y)
        ctx.run()
        np.testing.assert_allclose(y.read_global(), crs.spmv(xdata), rtol=1e-14)

    def test_spmv_charges_spmv_category(self):
        crs, dims = poisson2d(8)
        ctx, A = make(crs, dims)
        x, y = A.vector(data=np.ones(64)), A.vector()
        A.spmv(x, y)
        ctx.run()
        prof = ctx.device.profiler
        assert prof.category("spmv") > 0
        assert prof.category("exchange") > 0

    def test_extended_costs_more_cycles(self):
        def total(dtype):
            crs, dims = poisson2d(12)
            ctx, A = make(crs, dims)
            x = A.vector(dtype=dtype, data=np.ones(144))
            y = A.vector(dtype=dtype)
            A.spmv(x, y)
            ctx.run()
            return ctx.device.profiler.total_cycles

        f32 = total(Type.FLOAT32)
        dw = total(Type.DOUBLEWORD)
        f64 = total(Type.FLOAT64)
        assert f32 < dw < f64

    def test_algebra_on_owned_tensors(self):
        crs, dims = poisson2d(6)
        ctx, A = make(crs, dims)
        x = A.vector(data=np.ones(36))
        y = A.vector(data=np.full(36, 2.0))
        z = (x.t + y.t * 3.0).materialize()
        dot = x.t.dot(y.t)
        ctx.run()
        np.testing.assert_allclose(z.value(), np.full(36, 7.0))
        assert dot.value() == pytest.approx(72.0)


class TestWorkerChunks:
    def test_chunks_cover_all_rows(self):
        crs, dims = poisson3d(6)
        ctx, A = make(crs, dims, tiles=4)
        start, stop = A._worker_row_bounds(6)
        for i, t in enumerate(A.tiles):
            covered = []
            for s, e in zip(start[i], stop[i]):
                covered.extend(range(s, e))
            assert covered == list(range(A.local[t]["n"]))

    def test_single_row_tile(self):
        crs, dims = poisson2d(2)
        ctx = TensorContext(IPUDevice(tiles_per_ipu=4))
        A = DistributedMatrix(ctx, crs)
        start, stop = A._worker_row_bounds(6)
        for i, t in enumerate(A.tiles):
            assert (stop[i] - start[i]).sum() == A.local[t]["n"]
