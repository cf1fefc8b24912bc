"""Tests for the SELL-C-σ format (the paper's Sec. II-C future work)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine import CycleModel
from repro.sparse import poisson2d, poisson3d
from repro.sparse.distribute import RowSegments
from repro.sparse.sell import SellBlock, SlotMajorRows, crs_spmv_cycles, sell_spmv_cycles
from repro.sparse.suitesparse import g3_circuit_like


class TestSellConstruction:
    def test_spmv_matches_crs(self):
        crs, _ = poisson2d(8)
        sell = SellBlock.from_crs(crs, chunk=4)
        x = np.random.default_rng(0).standard_normal(crs.n)
        np.testing.assert_allclose(sell.spmv(x), crs.spmv(x), rtol=1e-12)

    @given(st.integers(2, 8), st.integers(1, 6), st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_spmv_matches_crs_property(self, grid, chunk, seed):
        crs, _ = poisson2d(grid)
        sell = SellBlock.from_crs(crs, chunk=chunk)
        x = np.random.default_rng(seed).standard_normal(crs.n)
        np.testing.assert_allclose(sell.spmv(x), crs.spmv(x), rtol=1e-10, atol=1e-12)

    def test_sigma_windows_limit_sorting(self):
        crs = g3_circuit_like(grid=12)
        full_sort = SellBlock.from_crs(crs, chunk=4, sigma=crs.n)
        no_sort = SellBlock.from_crs(crs, chunk=4, sigma=1)
        # σ=1 keeps the original order (sorting window of one row).
        np.testing.assert_array_equal(no_sort.perm, np.arange(crs.n))
        # Full-σ sorting reduces padding on irregular matrices.
        assert full_sort.padding_ratio <= no_sort.padding_ratio

    def test_padding_ratio_regular_vs_irregular(self):
        regular, _ = poisson3d(8)
        irregular = g3_circuit_like(grid=16)
        pr_reg = SellBlock.from_crs(regular, chunk=4, sigma=1).padding_ratio
        pr_irr = SellBlock.from_crs(irregular, chunk=4, sigma=1).padding_ratio
        assert pr_irr > pr_reg

    def test_nnz_preserved(self):
        crs, _ = poisson2d(6)
        sell = SellBlock.from_crs(crs, chunk=4)
        # Padding entries carry value 0; true nonzeros preserved.
        assert sell.nnz == crs.nnz_offdiag
        assert sell.padded_nnz >= sell.nnz


class TestSellCycles:
    def test_paper_prediction_small_gains(self):
        """Sec. II-C: 'we anticipate that the performance gains typically
        associated with ELLPACK and SELL formats would be small on IPUs'."""
        model = CycleModel()
        crs, _ = poisson3d(10)
        sell = SellBlock.from_crs(crs, chunk=4)
        c_crs = crs_spmv_cycles(model, crs)
        c_sell = sell_spmv_cycles(model, sell)
        # Within ±15% of each other — no ELLPACK win like on CPUs/GPUs.
        assert 0.85 < c_sell / c_crs < 1.15

    def test_irregular_padding_can_lose(self):
        model = CycleModel()
        crs = g3_circuit_like(grid=20)
        sell_unsorted = SellBlock.from_crs(crs, chunk=8, sigma=1)
        sell_sorted = SellBlock.from_crs(crs, chunk=8)
        c_unsorted = sell_spmv_cycles(model, sell_unsorted)
        c_sorted = sell_spmv_cycles(model, sell_sorted)
        # Length sorting (the σ in SELL-C-σ) recovers part of the padding loss.
        assert c_sorted <= c_unsorted


# -- SlotMajorRows: the fused kernels' SpMV inner loop -----------------------------------

#: Values that expose a wrong summation order or a leaked padding term:
#: signed zeros, non-finite entries, magnitudes far enough apart to round.
_AWKWARD = [0.0, -0.0, 1.0, -1.0, 0.1, 3.25, 1e-30, 7.5e8, -2.5e-8, 1e25,
            np.inf, -np.inf, np.nan]


def _same_bits(a, b) -> bool:
    """Equal bit for bit — signed zeros told apart — except that a NaN only
    has to be a NaN (its payload is whichever operand's the FPU kept)."""
    nan = np.isnan(a)
    return bool(
        np.array_equal(nan, np.isnan(b))
        and np.array_equal(a.view(np.uint32)[~nan], b.view(np.uint32)[~nan])
    )


class TestSlotMajorRows:
    @given(
        row_len=st.lists(st.integers(0, 12), min_size=1, max_size=24),
        batch=st.sampled_from([1, 3]),
        seed=st.integers(0, 10**6),
    )
    @settings(max_examples=200, deadline=None)
    def test_bitwise_equal_to_reduceat_path(self, row_len, batch, seed):
        """Random CRS with empty rows, rows inside and beyond numpy's
        sequential regime, ``-0.0`` and non-finite ``x``: the slot-major sums
        equal the ``np.add.reduceat`` path of ``RowSegments`` exactly, on
        the first call and on the buffers' reuse."""
        rng = np.random.default_rng(seed)
        row_ptr = np.concatenate([[0], np.cumsum(row_len)])
        nnz, nx = int(row_ptr[-1]), 9
        cols = rng.integers(0, nx, nnz)
        vals = rng.choice(np.float32([1.0, -1.0, 0.5, -0.0, 0.0, 3.25, 1e20, -1e-20]), nnz)
        trailing = () if batch == 1 else (batch,)
        rows = SlotMajorRows(row_len, cols, vals, trailing)
        segments = RowSegments(row_ptr)
        coeff = vals[:, None] if trailing else vals
        with np.errstate(all="ignore"):
            for _ in range(2):
                if rng.integers(2):
                    x = rng.choice(np.float32(_AWKWARD), (nx,) + trailing)
                else:
                    x = rng.standard_normal((nx,) + trailing).astype(np.float32)
                assert _same_bits(rows.sums(x), segments.sums(coeff * x[cols]))

    def test_summation_order_is_reduceat_not_left_to_right(self):
        """(1 + 1e8) + -1e8 is 0 in float32 left to right; reduceat's
        a0 + (a1 + a2) keeps the 1 — the slot order must as well."""
        vals = np.float32([1.0, 1e8, -1e8])
        rows = SlotMajorRows([3], [0, 0, 0], vals)
        x = np.ones(1, np.float32)
        want = np.add.reduceat(vals, [0])
        np.testing.assert_array_equal(rows.sums(x), want)
        assert want[0] == 1.0 != (vals[0] + vals[1]) + vals[2]
