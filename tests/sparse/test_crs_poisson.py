"""Tests for the modified CRS format and workload generators."""

import copy
import sys
import threading
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MatrixFormatError, ReproError
from repro.solvers.session import _hash_matrix, fingerprint_matrix
from repro.sparse import ModifiedCRS, poisson2d, poisson3d
from repro.sparse.suitesparse import (
    MATRICES,
    af_shell_like,
    g3_circuit_like,
    geo_like,
    hook_like,
)


def random_spd(n, density=0.1, seed=0):
    rng = np.random.default_rng(seed)
    a = sp.random(n, n, density=density, random_state=rng, format="csr")
    a = a + a.T + sp.diags(np.full(n, n * 1.0))
    return a.tocsr()


class TestModifiedCRS:
    def test_roundtrip_scipy(self):
        a = random_spd(50)
        m = ModifiedCRS.from_scipy(a)
        assert m.n == 50
        np.testing.assert_allclose(m.to_scipy().toarray(), a.toarray(), rtol=1e-14)

    def test_diagonal_stored_separately(self):
        a = sp.csr_matrix(np.array([[2.0, 1.0], [0.0, 3.0]]))
        m = ModifiedCRS.from_scipy(a)
        np.testing.assert_array_equal(m.diag, [2.0, 3.0])
        assert m.nnz_offdiag == 1  # only the (0,1) entry
        assert m.nnz == 3

    def test_zero_diagonal_rejected(self):
        a = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 1.0]]))
        with pytest.raises(ValueError, match="diagonal"):
            ModifiedCRS.from_scipy(a)

    def test_nonsquare_rejected(self):
        with pytest.raises(ValueError):
            ModifiedCRS.from_scipy(sp.random(3, 4, density=0.9))

    def test_inconsistent_arrays_rejected(self):
        with pytest.raises(ValueError):
            ModifiedCRS([1.0, 1.0], [1.0], [0], [0, 1])  # row_ptr too short

    def test_spmv_matches_scipy(self):
        a = random_spd(64, density=0.2)
        m = ModifiedCRS.from_scipy(a)
        x = np.random.default_rng(1).standard_normal(64)
        np.testing.assert_allclose(m.spmv(x), a @ x, rtol=1e-12)

    @given(st.integers(min_value=2, max_value=30), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=30, deadline=None)
    def test_spmv_property(self, n, seed):
        a = random_spd(n, density=0.3, seed=seed)
        m = ModifiedCRS.from_scipy(a)
        x = np.random.default_rng(seed).standard_normal(n)
        np.testing.assert_allclose(m.spmv(x), a @ x, rtol=1e-10, atol=1e-12)

    def test_permute_is_symmetric_permutation(self):
        a = random_spd(20, density=0.3)
        m = ModifiedCRS.from_scipy(a)
        rng = np.random.default_rng(3)
        perm = rng.permutation(20)
        pm = m.permute(perm)
        # (PAPᵀ)x = P A Pᵀ x.
        p = sp.csr_matrix((np.ones(20), (np.arange(20), perm)), shape=(20, 20))
        np.testing.assert_allclose(
            pm.to_scipy().toarray(), (p @ a @ p.T).toarray(), rtol=1e-12
        )

    def test_permute_rejects_non_permutation(self):
        m = ModifiedCRS.from_scipy(random_spd(4))
        with pytest.raises(ValueError):
            m.permute([0, 0, 1, 2])

    def test_row_access(self):
        a = sp.csr_matrix(np.array([[2.0, 5.0, 0.0], [0.0, 3.0, 7.0], [1.0, 0.0, 4.0]]))
        m = ModifiedCRS.from_scipy(a)
        cols, vals = m.row(1)
        np.testing.assert_array_equal(cols, [2])
        np.testing.assert_array_equal(vals, [7.0])


def spmv_oracle(m: ModifiedCRS, x) -> np.ndarray:
    """The ``np.add.at`` form ``ModifiedCRS.spmv`` had before it became one
    compiled pass: ``diag·x``, then the off-diagonals in storage order."""
    x = np.asarray(x)
    y = m.diag * x
    contrib = m.values * x[m.col_idx]
    np.add.at(y, np.repeat(np.arange(m.n), np.diff(m.row_ptr)), contrib)
    return y


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def wide_range(rng, shape) -> np.ndarray:
    """Finite values across sixteen decades, so that the order of the
    additions shows in the last bits."""
    return rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 9, shape)


class TestSpmvIsOrderExact:
    @given(
        row_len=st.lists(st.integers(0, 7), min_size=1, max_size=24),
        seed=st.integers(0, 10**6),
        x_dtype=st.sampled_from([np.float32, np.float64]),
        batch=st.sampled_from([None, 1, 3]),
        stride=st.sampled_from([1, 2]),
    )
    @settings(max_examples=150, deadline=None)
    def test_bit_equal_to_the_add_at_form(self, row_len, seed, x_dtype, batch, stride):
        """Empty rows, ``n = 1``, f32 and f64 ``x``, non-contiguous ``x``,
        ``(batch, n)``: every result has the oracle's bits, and every batch
        row the bits of its own 1-D call."""
        rng = np.random.default_rng(seed)
        n = len(row_len)
        row_ptr = np.concatenate([[0], np.cumsum(row_len)])
        m = ModifiedCRS(
            wide_range(rng, n) + 1e-300,  # never exactly zero
            wide_range(rng, row_ptr[-1]),
            rng.integers(0, n, row_ptr[-1]),
            row_ptr,
        )
        shape = (n,) if batch is None else (batch, n)
        wide = wide_range(rng, shape[:-1] + (n * stride,)).astype(x_dtype)
        x = wide[..., ::stride]
        assert stride == 1 or n == 1 or not x.flags.c_contiguous
        y = m.spmv(x)
        assert y.dtype == np.float64 and y.flags.c_contiguous
        if batch is None:
            assert same_bits(y, spmv_oracle(m, x))
        else:
            for yj, xj in zip(y, x):
                assert same_bits(yj, spmv_oracle(m, xj))
                assert same_bits(yj, m.spmv(xj))

    def test_rejects_a_wrong_length_before_compiled_code_sees_it(self):
        m, _ = poisson2d(4)
        for bad in (np.ones(m.n - 1), np.ones((2, m.n + 1)), np.ones((1, 2, m.n))):
            with pytest.raises(ValueError, match="shape"):
                m.spmv(bad)


class TestImmutableValue:
    def test_arrays_cannot_be_written_or_made_writeable(self):
        m, _ = poisson2d(4)
        for name in ("diag", "values", "col_idx", "row_ptr"):
            arr = getattr(m, name)
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1
            with pytest.raises(ValueError):
                arr.setflags(write=True)

    def test_callers_arrays_stay_theirs(self):
        src, _ = poisson2d(4)
        diag, values = np.array(src.diag), np.array(src.values)
        cols, ptr = np.array(src.col_idx), np.array(src.row_ptr)
        m = ModifiedCRS(diag, values, cols, ptr)
        key = fingerprint_matrix(m)
        for arr in (diag, values, cols, ptr):
            assert arr.flags.writeable
        diag *= 2.0
        values[:] = 7.0
        cols[:] = 0
        np.testing.assert_array_equal(m.diag, src.diag)
        np.testing.assert_array_equal(m.values, src.values)
        np.testing.assert_array_equal(m.col_idx, src.col_idx)
        assert fingerprint_matrix(m) == key == fingerprint_matrix(src)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries_are_refused_at_construction(self, bad):
        src, _ = poisson2d(3)
        for name in ("diag", "values"):
            arrays = {k: np.array(getattr(src, k))
                      for k in ("diag", "values", "col_idx", "row_ptr")}
            arrays[name][1] = bad
            with pytest.raises(MatrixFormatError, match="finite") as exc:
                ModifiedCRS(**arrays)
            assert isinstance(exc.value, ReproError)
            assert isinstance(exc.value, ValueError)
            assert exc.value.exit_code == 19

    def test_indices_compiled_code_would_trust_are_checked(self):
        with pytest.raises(MatrixFormatError, match="col_idx"):
            ModifiedCRS([1.0, 1.0], [1.0], [2], [0, 1, 1])
        with pytest.raises(MatrixFormatError, match="col_idx"):
            ModifiedCRS([1.0, 1.0], [1.0], [-1], [0, 1, 1])
        with pytest.raises(MatrixFormatError, match="row_ptr"):
            ModifiedCRS([1.0, 1.0], [1.0], [0], [0, 2, 1])
        with pytest.raises(MatrixFormatError, match="row_ptr"):
            ModifiedCRS([1.0, 1.0], [1.0, 1.0], [0, 0], [1, 1, 2])


def _counting_hashes():
    """Count the matrix content hashes of the ``with`` block."""
    return mock.patch("repro.solvers.session._hash_matrix", wraps=_hash_matrix)


class TestFingerprintMemo:
    def test_one_hash_per_matrix_object(self):
        m, _ = poisson2d(5)
        with _counting_hashes() as hashes:
            keys = {fingerprint_matrix(m) for _ in range(5)}
        assert len(keys) == 1
        assert hashes.call_count == 1

    def test_deepcopy_rehashes_and_never_trusts_the_inherited_memo(self):
        m, _ = poisson2d(5)
        key = fingerprint_matrix(m)
        clone = copy.deepcopy(m)
        assert clone.values.flags.writeable  # numpy's deepcopy owns its data
        with _counting_hashes() as hashes:
            assert fingerprint_matrix(clone) == key
            clone.values[0] *= 2.0
            changed = fingerprint_matrix(clone)
            assert changed != key
            # Frozen again, it could be thawed again: still hashed on every call.
            clone.values.setflags(write=False)
            assert fingerprint_matrix(clone) == changed
        assert hashes.call_count == 3
        assert fingerprint_matrix(m) == key  # the original is untouched

    def test_a_rebound_array_rehashes(self):
        m, _ = poisson2d(5)
        key = fingerprint_matrix(m)
        m.values = ModifiedCRS(m.diag, m.values * 2.0, m.col_idx, m.row_ptr).values
        with _counting_hashes() as hashes:
            assert fingerprint_matrix(m) != key
        assert hashes.call_count == 1

    def test_threads_racing_the_first_hash_agree_and_do_not_block(self):
        """Event-loop admission and a worker may both be first: no lock, so
        both hash, both get the same digest, and the memo ends up set."""
        m, _ = poisson3d(12)
        expected = fingerprint_matrix(ModifiedCRS(m.diag, m.values, m.col_idx, m.row_ptr))
        workers = 8
        start = threading.Barrier(workers)
        digests = []
        # A mock's call count is itself a racy ``+= 1``: count under a lock.
        hashes, counting = [0], threading.Lock()

        def counted_hash(*args):
            with counting:
                hashes[0] += 1
            return _hash_matrix(*args)

        def first_hash():
            start.wait(timeout=10)
            digests.append(fingerprint_matrix(m))

        threads = [threading.Thread(target=first_hash) for _ in range(workers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with mock.patch("repro.solvers.session._hash_matrix", new=counted_hash):
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=30)
                settled = hashes[0]
                assert fingerprint_matrix(m) == expected
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert digests == [expected] * workers
        assert 1 <= settled <= workers
        assert hashes[0] == settled


class TestPoisson:
    def test_poisson3d_structure(self):
        m, dims = poisson3d(4)
        assert dims == (4, 4, 4)
        assert m.n == 64
        np.testing.assert_array_equal(m.diag, np.full(64, 6.0))
        # Interior cell has 6 off-diagonal neighbors.
        assert m.rows_nnz().max() == 6
        # 7-point: nnz = 7n - boundary corrections.
        assert m.nnz == 64 + 2 * 3 * (4 * 4 * 3)

    def test_poisson3d_spd(self):
        m, _ = poisson3d(4)
        w = np.linalg.eigvalsh(m.to_scipy().toarray())
        assert w.min() > 0

    def test_poisson3d_anisotropic_dims(self):
        m, dims = poisson3d(3, 4, 5)
        assert m.n == 60 and dims == (3, 4, 5)

    def test_poisson2d(self):
        m, dims = poisson2d(5)
        assert m.n == 25
        np.testing.assert_array_equal(m.diag, np.full(25, 4.0))

    def test_poisson_matches_paper_scale(self):
        # Paper: 200^3 grid -> ~58 M entries.  Check the formula at our scale
        # and extrapolate: nnz(n³ grid) = 7n³ - 6n².
        m, _ = poisson3d(10)
        assert m.nnz == 7 * 1000 - 6 * 100
        nnz_200 = 7 * 200**3 - 6 * 200**2
        assert nnz_200 == pytest.approx(58e6, rel=0.05)


class TestSuiteSparseDoubles:
    @pytest.mark.parametrize("name,gen", list(MATRICES.items()))
    def test_spd_and_symmetric(self, name, gen):
        m = gen() if name not in ("Geo_1438", "Hook_1498") else gen(nx=8, ny=8, nz=8)
        a = m.to_scipy()
        assert (a != a.T).nnz == 0, f"{name} double is not symmetric"
        # SPD check via Cholesky-like shift: smallest eigenvalue positive.
        if m.n <= 4000:
            w = np.linalg.eigvalsh(a.toarray())
            assert w.min() > 0, f"{name} double is not positive definite"

    def test_g3_has_long_range_edges(self):
        m = g3_circuit_like(grid=30, extra_edge_frac=0.05, seed=0)
        # A pure grid has |i-j| ∈ {1, 30}; long-range edges break that.
        rows = np.repeat(np.arange(m.n), m.rows_nnz())
        dist = np.abs(rows - m.col_idx)
        assert (dist > 30).any()

    def test_afshell_is_thin_slab_with_wide_stencil(self):
        m = af_shell_like(nx=12, ny=12, layers=4)
        assert m.n == 12 * 12 * 4
        # 27-point stencil: interior rows have 26 off-diagonal entries.
        assert m.rows_nnz().max() == 26

    def test_geo_anisotropy_raises_conditioning(self):
        iso = geo_like(nx=6, ny=6, nz=6, anisotropy=1.0)
        aniso = geo_like(nx=6, ny=6, nz=6, anisotropy=25.0)
        cond = lambda m: np.linalg.cond(m.to_scipy().toarray())
        assert cond(aniso) > cond(iso)

    def test_hook_contrast_raises_conditioning(self):
        lo = hook_like(nx=6, ny=6, nz=6, contrast=1.0)
        hi = hook_like(nx=6, ny=6, nz=6, contrast=1e4)
        cond = lambda m: np.linalg.cond(m.to_scipy().toarray())
        assert cond(hi) > 100 * cond(lo)

    def test_deterministic(self):
        a = g3_circuit_like(grid=20, seed=5)
        b = g3_circuit_like(grid=20, seed=5)
        np.testing.assert_array_equal(a.values, b.values)
