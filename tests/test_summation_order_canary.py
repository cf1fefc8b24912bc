"""Canary: the numpy summation orders every bit-identity claim rests on.

``sim`` and ``fused`` agree bit for bit because each whole-device kernel
reproduces the exact float32 summation order of the per-tile code it
replaces — and those orders are numpy's, not the language's.  None of them
is a documented numpy guarantee, so this module pins them on the installed
version; a failure names that version, and means a numpy upgrade moved a
sum, not that a kernel is wrong:

- a strided column's ``.sum()`` is the contiguous column's ``.sum()`` and
  the matching row of a transposed-contiguous ``sum(axis=-1)``, while
  ``sum(axis=0)`` over the 2-D array is a different order (the batched
  per-column reduce in ``tensordsl.materialize`` relies on both);
- ``.sum()`` is ``+0.0 + pairwise(a0, a1, ...)`` and, below eight addends,
  ``pairwise`` is the sequential loop from ``-0.0``;
- ``np.add.reduceat`` over a segment is *not* ``.sum()``: it is
  ``a0 + pairwise(a1, a2, ...)`` — sequential from ``-0.0`` for up to seven
  rest addends, an unrolled tree from eight on (``sparse.sell`` reproduces
  the first regime slot by slot and leaves longer rows to ``reduceat``;
  docs/runtime.md, "Why the summation order is not left to right").  The
  whole formula, tree and recursive split included, is pinned up to 300
  addends: the native sweep kernel (``solvers/native.c``) implements it,
  and so does the native SpMV beside it, per RHS column — ``reduceat``
  along axis 0 of an ``(nnz, batch)`` array sums each column as the
  contiguous column;
- ``np.bincount(rows, weights=w)`` sums each bin in float64, sequentially
  in input order from ``0.0``: the extended-precision residual SpMV sums a
  row that way per tile and over the whole device alike.

The host-side f64 residual of every solve (``ModifiedCRS.spmv``) rides on
SciPy's private compiled ``csr_matvec``; its canary names the SciPy version:
the row loop must stay ``diag*x`` then each off-diagonal product rounded and
added in storage order — the ``np.add.at`` form it replaced — with no fused
multiply-add contracting ``sum += a*x``.
"""

from fractions import Fraction

import numpy as np
import scipy
from scipy.sparse import _sparsetools

from repro.sparse import ModifiedCRS

VERSION = f"numpy {np.__version__}"
SCIPY = f"scipy {scipy.__version__}"


def _bits(x) -> int:
    return int(np.float32(x).view(np.uint32))


def _sequential(values, start=-0.0):
    acc = np.float32(start)
    for v in values:
        acc = np.float32(acc + v)
    return acc


def _columns(rng, n: int, count: int) -> np.ndarray:
    """``count`` float32 columns of length ``n`` spanning several decades."""
    scale = 10.0 ** rng.integers(-3, 4, (n, count))
    return (rng.standard_normal((n, count)) * scale).astype(np.float32)


def test_strided_column_sum_is_the_contiguous_and_transposed_row_sum():
    rng = np.random.default_rng(0)
    for n in (1, 2, 7, 8, 9, 31, 128, 129, 300, 1000):
        m = _columns(rng, n, 6)
        rows = np.ascontiguousarray(m.T).sum(axis=-1)
        for j in range(m.shape[1]):
            strided = m[:, j].sum(dtype=np.float32)
            assert _bits(strided) == _bits(np.ascontiguousarray(m[:, j]).sum()), (
                f"{VERSION}: strided column sum of length {n} moved"
            )
            assert _bits(strided) == _bits(rows[j]), (
                f"{VERSION}: transposed-contiguous sum(axis=-1) of length {n} moved"
            )
    m = _columns(rng, 300, 64)
    axis0 = m.sum(axis=0)
    differ = sum(_bits(axis0[j]) != _bits(m[:, j].sum()) for j in range(64))
    assert differ > 0, f"{VERSION}: sum(axis=0) now equals the per-column sums"


def test_sum_is_a_pairwise_sum_from_zero_sequential_below_eight_addends():
    rng = np.random.default_rng(1)
    for n in range(1, 8):
        for a in _columns(rng, n, 300).T:
            want = np.float32(0.0) + _sequential(a)
            assert _bits(a.sum()) == _bits(want), f"{VERSION}: .sum() of {n} moved"
    unrolled = sum(_bits(a.sum()) != _bits(_sequential(a)) for a in _columns(rng, 8, 300).T)
    assert unrolled > 0, f"{VERSION}: .sum() of 8 addends is sequential now"
    assert _bits(np.array([-0.0, -0.0], np.float32).sum()) == _bits(0.0), (
        f"{VERSION}: .sum() no longer starts from +0.0"
    )


def test_reduceat_is_first_element_plus_pairwise_rest():
    rng = np.random.default_rng(2)
    for n in range(1, 9):  # up to seven rest addends: sequential from -0.0
        for a in _columns(rng, n, 300).T:
            got = np.add.reduceat(a, [0])[0]
            assert _bits(got) == _bits(a[0] + _sequential(a[1:])), (
                f"{VERSION}: reduceat over a segment of {n} moved"
            )
    for n in (9, 12, 20):  # eight rest addends on: the unrolled tree
        segs = _columns(rng, n, 300).T
        unrolled = sum(
            _bits(np.add.reduceat(a, [0])[0]) != _bits(a[0] + _sequential(a[1:])) for a in segs
        )
        assert unrolled > 0, f"{VERSION}: reduceat over {n} is sequential now"
    # The -0.0 start: a segment of zeros keeps its sign through reduceat,
    # never through .sum().
    zeros = np.array([-0.0, -0.0, -0.0], np.float32)
    assert _bits(np.add.reduceat(zeros, [0])[0]) == _bits(-0.0), (
        f"{VERSION}: reduceat's pairwise rest no longer starts from -0.0"
    )


def _numpy_pairwise(a) -> np.float32:
    """numpy's float32 ``pairwise_sum`` (``loops_utils.h.src``), written out:
    below eight addends the sequential sum from ``-0.0``; up to 128, eight
    accumulators over the multiple-of-eight prefix, the tree
    ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))`` and a sequential tail; above 128
    the sum of the halves split at ``n/2`` rounded down to a multiple of
    eight.  ``solvers/native.c`` implements this formula."""
    n = a.size
    if n < 8:
        return _sequential(a)
    if n <= 128:
        body = n - n % 8
        r = a[:8].copy()
        for i in range(8, body, 8):
            r += a[i : i + 8]  # float32, accumulator by accumulator
        tree = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        return _sequential(a[body:], start=tree)
    half = n // 2 - (n // 2) % 8
    return np.float32(_numpy_pairwise(a[:half]) + _numpy_pairwise(a[half:]))


def test_reduceat_is_first_element_plus_numpy_pairwise_up_to_300():
    """Every segment length from 9 to 300: past eight rest addends, past 128
    and through the recursive split — the order the native sweep kernel
    reproduces.  A failure here means numpy moved, not that the kernel is
    wrong (its own tests compare it with ``reduceat``)."""
    rng = np.random.default_rng(6)
    for n in range(9, 301):
        for a in np.ascontiguousarray(_columns(rng, n, 6).T):
            got = np.add.reduceat(a, [0])[0]
            assert _bits(got) == _bits(a[0] + _numpy_pairwise(a[1:])), (
                f"{VERSION}: reduceat over a segment of {n} is no longer a0 + pairwise(rest)"
            )


def test_reduceat_along_axis_0_sums_each_column_as_the_contiguous_column():
    """The batched SpMV's order: ``reduceat`` over ``(nnz, batch)`` rows is,
    column by column, the 1-D ``reduceat`` of that column — not a
    row-by-row accumulation."""
    rng = np.random.default_rng(7)
    for n in (2, 8, 9, 20, 129, 300):
        for batch in (2, 3, 8, 64):
            m = _columns(rng, n, batch)
            got = np.add.reduceat(m, [0], axis=0)[0]
            for j in range(batch):
                want = np.add.reduceat(np.ascontiguousarray(m[:, j]), [0])[0]
                assert _bits(got[j]) == _bits(want), (
                    f"{VERSION}: reduceat along axis 0 of ({n}, {batch}) moved in column {j}"
                )


def test_bincount_sums_each_bin_in_float64_in_input_order():
    """Bins interleaved in input order, weights spanning sixteen decades: a
    left-to-right float64 sum from ``0.0`` per bin, never a pairwise tree or
    a wider accumulator (the sequential and pairwise orders differ on these
    weights, so the check can tell them apart)."""
    rng = np.random.default_rng(8)
    for size in (1, 9, 64, 300, 1000):
        bins = rng.integers(0, 5, size)
        weights = rng.standard_normal(size) * 10.0 ** rng.integers(-8, 9, size)
        got = np.bincount(bins, weights=weights, minlength=5)
        for k in range(5):
            want = 0.0
            for w in weights[bins == k]:
                want = want + w  # Python floats: binary64, one rounding per add
            assert got[k].view(np.uint64) == np.float64(want).view(np.uint64), (
                f"{VERSION}: bincount no longer sums bin {k} of {size} sequentially"
            )
    zeros = np.bincount([0, 0], weights=[-0.0, -0.0])
    assert _bits(np.float32(zeros[0])) == _bits(0.0), (
        f"{VERSION}: bincount no longer starts a bin from +0.0"
    )
    w = np.array([1.0, 1e16, -1e16])
    assert np.bincount([0, 0, 0], weights=w)[0] == 0.0 != w[0] + (w[1] + w[2]), (
        f"{VERSION}: bincount no longer adds left to right"
    )


def test_reduceat_and_sum_disagree_on_short_columns():
    """The two orders are not interchangeable even at length 7: on numpy
    2.4 they differ in roughly half of random float32 columns."""
    rng = np.random.default_rng(3)
    cols = rng.standard_normal((7, 200)).astype(np.float32).T
    differ = sum(_bits(np.add.reduceat(a, [0])[0]) != _bits(a.sum()) for a in cols)
    assert 40 <= differ <= 160, f"{VERSION}: reduceat and .sum() differ in {differ} of 200"


def _add_at_spmv(crs, x):
    """The multiply-then-``np.add.at`` form ``spmv`` replaced: ``diag*x``,
    then every off-diagonal product added to its row in storage order."""
    rows = np.repeat(np.arange(crs.n), np.diff(crs.row_ptr))
    y = crs.diag * x
    for xj, yj in zip(np.atleast_2d(x), np.atleast_2d(y)):
        np.add.at(yj, rows, crs.values * xj[crs.col_idx])
    return y


def _wide(rng, shape):
    return rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 9, shape)


def test_csr_matvec_is_the_add_at_oracle_bit_for_bit():
    assert hasattr(_sparsetools, "csr_matvec"), f"{SCIPY}: private csr_matvec is gone"
    rng = np.random.default_rng(4)
    for n in (1, 2, 9, 64, 257):
        # Rows of 0..12 entries: empty rows and rows past eight addends.
        counts = rng.integers(0, 13, n)
        row_ptr = np.concatenate([[0], np.cumsum(counts)])
        crs = ModifiedCRS(_wide(rng, n) + 1e-300, _wide(rng, row_ptr[-1]),
                          rng.integers(0, n, row_ptr[-1]), row_ptr)
        for x in (_wide(rng, n), _wide(rng, (3, n))):
            got, want = crs.spmv(x), _add_at_spmv(crs, x)
            assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist(), (
                f"{SCIPY}: csr_matvec no longer sums a row like np.add.at (n={n})"
            )


def test_csr_matvec_does_not_contract_to_a_fused_multiply_add():
    """Row 0 is ``c + a*b`` with ``a*b = 1 + 2**-29 + 2**-60`` exactly: the
    product rounds to ``1 + 2**-29 = -c``, so the rounded sum is 0.0, while
    a fused multiply-add keeps the ``2**-60``."""
    a = b = 1.0 + 2.0**-30
    c = -(1.0 + 2.0**-29)
    assert Fraction(a) * Fraction(b) + Fraction(c) == Fraction(2) ** -60
    crs = ModifiedCRS([c, 1.0], [a], [1], [0, 1, 1])
    x = np.array([1.0, b])
    assert _add_at_spmv(crs, x)[0] == 0.0
    assert crs.spmv(x)[0] == 0.0, f"{SCIPY}: csr_matvec contracts sum += a*x to an FMA"
