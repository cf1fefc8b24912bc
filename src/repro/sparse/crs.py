"""Modified Compressed Row Storage (Sec. II-C).

Diagonal entries are stored in a separate dense array rather than inside
the CRS structure.  This saves their column indices and gives solvers like
Gauss-Seidel and (D)ILU direct access to each row's pivot.  The CRS arrays
hold only the off-diagonal entries.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools

from repro.errors import MatrixFormatError

__all__ = ["ModifiedCRS"]


def _frozen(array, dtype) -> np.ndarray:
    """An immutable copy of ``array``: a view onto a ``bytes`` object, which
    numpy refuses to make writeable again (``setflags(write=True)`` raises)."""
    array = np.ascontiguousarray(array, dtype=dtype)
    return np.frombuffer(array.tobytes(), dtype=array.dtype)


class ModifiedCRS:
    """A square sparse matrix in modified CRS format — an immutable value.

    The constructor copies and validates its four arrays; nothing can
    change them afterwards (the caller's are left alone).  The compile cache
    relies on that to hash a matrix object once, :meth:`spmv` to hand the
    arrays to compiled code unchecked.

    Attributes
    ----------
    diag : float array of shape (n,)
        Dense diagonal (must be structurally nonzero).
    values, col_idx : arrays of length nnz_offdiag
        Off-diagonal entries, row-major.
    row_ptr : int array of shape (n+1,)
        Row starts into ``values``/``col_idx``.
    """

    def __init__(self, diag, values, col_idx, row_ptr, dtype=np.float64):
        self.diag = _frozen(diag, dtype)
        self.values = _frozen(values, dtype)
        self.col_idx = _frozen(col_idx, np.int64)
        self.row_ptr = _frozen(row_ptr, np.int64)
        n = self.diag.size
        if self.row_ptr.size != n + 1:
            raise MatrixFormatError("row_ptr must have n+1 entries")
        if self.row_ptr[-1] != self.values.size or self.values.size != self.col_idx.size:
            raise MatrixFormatError("inconsistent CRS arrays")
        if self.row_ptr[0] != 0 or np.any(np.diff(self.row_ptr) < 0):
            raise MatrixFormatError("row_ptr must start at 0 and never decrease")
        if self.col_idx.size and not 0 <= self.col_idx.min() <= self.col_idx.max() < n:
            raise MatrixFormatError(f"col_idx entries must lie in [0, {n})")
        if np.any(self.diag == 0):
            raise MatrixFormatError(
                "modified CRS requires nonzero diagonal entries "
                "(apply a row permutation first)"
            )
        if not (np.isfinite(self.diag).all() and np.isfinite(self.values).all()):
            raise MatrixFormatError("matrix entries must be finite (found NaN or Inf)")

    # -- properties ------------------------------------------------------------------

    @property
    def n(self) -> int:
        return self.diag.size

    @property
    def shape(self):
        return (self.n, self.n)

    @property
    def nnz(self) -> int:
        """Total stored entries including the dense diagonal."""
        return self.values.size + self.n

    @property
    def nnz_offdiag(self) -> int:
        return self.values.size

    def row(self, i: int):
        """Off-diagonal (cols, vals) of row ``i``."""
        s, e = self.row_ptr[i], self.row_ptr[i + 1]
        return self.col_idx[s:e], self.values[s:e]

    # -- conversions -------------------------------------------------------------------

    @classmethod
    def from_scipy(cls, mat, dtype=np.float64) -> "ModifiedCRS":
        """Build from any SciPy sparse matrix (square, nonzero diagonal)."""
        csr = sp.csr_matrix(mat)
        if csr.shape[0] != csr.shape[1]:
            raise ValueError("matrix must be square")
        csr.sum_duplicates()
        csr.sort_indices()
        diag = csr.diagonal()
        # Strip the diagonal out of the CRS structure.
        offdiag = csr - sp.diags(diag, format="csr")
        offdiag.eliminate_zeros()
        offdiag.sort_indices()
        return cls(diag, offdiag.data, offdiag.indices, offdiag.indptr, dtype=dtype)

    def to_scipy(self) -> sp.csr_matrix:
        off = sp.csr_matrix(
            (self.values, self.col_idx, self.row_ptr), shape=self.shape
        )
        return (off + sp.diags(self.diag)).tocsr()

    # -- operations --------------------------------------------------------------------------

    def spmv(self, x) -> np.ndarray:
        """Host-side f64 SpMV ``y = A x`` for ``x`` of shape ``(n,)`` or
        batch-leading ``(batch, n)``; the true-residual check of ``solve()``.

        SciPy's compiled CSR row loop, started from ``y = diag·x``: every
        row adds ``diag·x`` first, then its off-diagonals in storage order.
        That is bit-equal to the multiply-then-``np.add.at`` form it replaced
        unless a SciPy build contracts ``sum += a*x`` to an FMA (x86-64 wheels
        do not; the property test in ``tests/sparse`` holds the line).  A
        batch is the same call per row of ``x``.
        """
        x = np.ascontiguousarray(x, dtype=np.float64)
        if x.ndim not in (1, 2) or x.shape[-1] != self.n:
            raise ValueError(f"x must have shape ({self.n},) or (batch, {self.n}), got {x.shape}")
        values = np.asarray(self.values, dtype=np.float64)
        y = self.diag * x
        for xj, yj in zip(np.atleast_2d(x), np.atleast_2d(y)):
            # Checks no lengths itself: row_ptr/col_idx were validated at
            # construction, x just above.
            _sparsetools.csr_matvec(self.n, self.n, self.row_ptr, self.col_idx, values, xj, yj)
        return y

    def permute(self, perm) -> "ModifiedCRS":
        """Symmetric permutation ``PAPᵀ``: row i of the result is row perm[i]
        of the original, with columns relabeled accordingly."""
        perm = np.asarray(perm)
        if perm.size != self.n or set(perm.tolist()) != set(range(self.n)):
            raise ValueError("perm must be a permutation of 0..n-1")
        csr = self.to_scipy()
        p = sp.csr_matrix(
            (np.ones(self.n), (np.arange(self.n), perm)), shape=self.shape
        )
        dtype = self.values.dtype if self.values.size else np.float64
        return ModifiedCRS.from_scipy(p @ csr @ p.T, dtype=dtype)

    def rows_nnz(self) -> np.ndarray:
        """Off-diagonal entries per row."""
        return np.diff(self.row_ptr)

    def astype(self, dtype) -> "ModifiedCRS":
        return ModifiedCRS(self.diag, self.values, self.col_idx, self.row_ptr, dtype=dtype)

    def __repr__(self):
        return f"ModifiedCRS(n={self.n}, nnz={self.nnz})"
