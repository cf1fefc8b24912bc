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
  docs/runtime.md, "Why the summation order is not left to right").
"""

import numpy as np

VERSION = f"numpy {np.__version__}"


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


def test_reduceat_and_sum_disagree_on_short_columns():
    """The two orders are not interchangeable even at length 7: on numpy
    2.4 they differ in roughly half of random float32 columns."""
    rng = np.random.default_rng(3)
    cols = rng.standard_normal((7, 200)).astype(np.float32).T
    differ = sum(_bits(np.add.reduceat(a, [0])[0]) != _bits(a.sum()) for a in cols)
    assert 40 <= differ <= 160, f"{VERSION}: reduceat and .sum() differ in {differ} of 200"
