"""Sliced ELLPACK (SELL-C-σ) — the format the paper leaves as future work.

Sec. II-C argues that ELLPACK/SELL's benefits (vectorizable, cache-friendly
column-major chunks) largely evaporate on the IPU: the 2-wide float32 SIMD
cannot pair the *gathered* ``x[col]`` operands anyway, and the cacheless
SRAM makes the contiguous layout irrelevant — so the expected gain reduces
to amortized per-row overhead, paid for with padding.  This module
implements the format so that prediction can be tested (ablation bench
``bench_ablation_sell.py``).

Layout: rows are sorted by descending length within windows of ``sigma``
rows, grouped into chunks of ``chunk`` rows, and each chunk is padded to
its longest row and stored column-major.

:class:`SlotMajorRows` is the same idea put to work on the host, where the
prediction does not hold: with ``sigma = n``, one chunk and *no padding* it
is the SpMV inner loop of the fused whole-device kernels
(:mod:`repro.graph.passes.kernels`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.machine.cycles import CycleModel, OP_CYCLES
from repro.sparse.crs import ModifiedCRS

__all__ = ["SellBlock", "SlotMajorRows", "sell_spmv_cycles", "crs_spmv_cycles"]


@dataclass
class SellBlock:
    """A square block in SELL-C-σ with the diagonal kept dense (the same
    modified layout as our CRS: Sec. II-C)."""

    n: int
    chunk: int
    diag: np.ndarray
    #: Per chunk: (rows, padded_cols, padded_vals) with column-major padding;
    #: padded arrays have shape (width, chunk) — entry [k, i] is the k-th
    #: coefficient of the chunk's i-th row (or padding: col == row, val == 0).
    chunks: list
    perm: np.ndarray  # permutation applied by the length sort (new -> old)

    @property
    def padded_nnz(self) -> int:
        return sum(c[2].size for c in self.chunks)

    @property
    def nnz(self) -> int:
        return int(sum((c[2] != 0).sum() for c in self.chunks))

    @property
    def padding_ratio(self) -> float:
        stored = self.padded_nnz
        return stored / max(self.nnz, 1)

    @classmethod
    def from_crs(cls, crs: ModifiedCRS, chunk: int = 4, sigma: int | None = None) -> "SellBlock":
        n = crs.n
        sigma = n if sigma is None else sigma
        lengths = crs.rows_nnz()
        order = np.arange(n)
        for start in range(0, n, sigma):
            window = order[start : start + sigma]
            order[start : start + sigma] = window[np.argsort(-lengths[window], kind="stable")]
        chunks = []
        for start in range(0, n, chunk):
            rows = order[start : start + chunk]
            width = int(lengths[rows].max()) if rows.size else 0
            cols = np.tile(rows, (width, 1)).astype(np.int64)  # pad: col = row
            vals = np.zeros((width, rows.size))
            for i, r in enumerate(rows):
                c, v = crs.row(int(r))
                cols[: c.size, i] = c
                vals[: v.size, i] = v
            chunks.append((rows.copy(), cols, vals))
        return cls(n=n, chunk=chunk, diag=crs.diag.copy(), chunks=chunks, perm=order)

    def spmv(self, x) -> np.ndarray:
        """Reference SpMV in the SELL layout (must equal the CRS result)."""
        x = np.asarray(x)
        y = self.diag * x
        for rows, cols, vals in self.chunks:
            if vals.size:
                y[rows] += (vals * x[cols]).sum(axis=0)
        return y


class SlotMajorRows:
    """Per-row sums of the products ``vals * x[cols]``, bit-identical to
    ``np.add.reduceat`` over the CRS-ordered products, with every index
    array, coefficient array and scratch buffer allocated once.

    Rows are sorted by length (stable, descending); slot ``j`` stores the
    column and coefficient of the ``j``-th entry of every row with more than
    ``j`` entries — a prefix of the sorted rows, so a slot is one dense
    gather, one multiply and one contiguous add.  Nothing is padded: a
    phantom ``0 * x`` term would turn a ``-0.0`` sum into ``+0.0`` and a
    non-finite ``x`` into NaN.

    Summation order is ``reduceat``'s, which is not left to right.  numpy
    reduces a segment as ``a0 + pairwise(a1, a2, ...)``, and for fewer than
    eight addends ``pairwise`` is the sequential ``((-0.0 + a1) + a2) + ...``;
    so slots 1.. accumulate in order into a buffer preset to ``-0.0`` (the
    exact additive identity, which rows of one entry never overwrite) and
    slot 0 is added last.  From eight addends on ``pairwise`` is an unrolled
    eight-accumulator tree that slot-wise accumulation cannot reproduce:
    rows longer than :attr:`SEQUENTIAL` keep ``reduceat`` over their own
    CRS-ordered entries.  The split is per row, from the structure alone.

    ``trailing`` is ``()`` or ``(batch,)``: ``x`` (of ``vals``' dtype) may
    carry RHS columns on a trailing axis, which ride along every operation.
    """

    #: Longest row that ``np.add.reduceat`` sums sequentially.
    SEQUENTIAL = 8

    def __init__(self, row_len, cols, vals, trailing: tuple = ()):
        row_len = np.asarray(row_len, dtype=np.intp)
        cols = np.asarray(cols, dtype=np.intp)
        n = row_len.size
        row_start = np.cumsum(row_len) - row_len

        def per_row(a):
            return a[:, None] if trailing else a

        slot_len = np.where(row_len <= self.SEQUENTIAL, row_len, 0)
        by_len = np.argsort(-slot_len, kind="stable")
        tmp = np.empty((n,) + trailing, vals.dtype)
        acc = np.full((n,) + trailing, -0.0, vals.dtype)
        self._sums = np.zeros((n,) + trailing, vals.dtype)
        if (by_len == np.arange(n)).all():
            self._rank, self._sorted = None, self._sums
        else:
            self._rank = np.argsort(by_len)  # layout row -> sorted position
            self._sorted = np.zeros_like(self._sums)
        self._slots = []
        for j in range(int(slot_len.max(initial=0))):
            rows = by_len[: np.count_nonzero(slot_len > j)]
            entries = row_start[rows] + j
            k = rows.size
            self._slots.append((cols[entries], per_row(vals[entries]), tmp[:k], acc[:k]))
        self._filled = self._sorted[: self._slots[0][2].shape[0]] if self._slots else None

        self._long_rows = np.flatnonzero(row_len > self.SEQUENTIAL)
        long_len = row_len[self._long_rows]
        self._long_start = np.cumsum(long_len) - long_len
        entries = np.repeat(
            row_start[self._long_rows] - self._long_start, long_len
        ) + np.arange(int(long_len.sum()))
        self._long_cols, self._long_vals = cols[entries], per_row(vals[entries])

    def sums(self, x: np.ndarray) -> np.ndarray:
        """Row sums for this ``x``; the returned buffer is reused by the
        next call."""
        slots = self._slots
        for cols, vals, tmp, acc in slots[1:2]:
            # Overwrites the last call's sums: -0.0 + a1 is a1.
            np.take(x, cols, axis=0, out=tmp, mode="clip")
            np.multiply(vals, tmp, out=acc)
        for cols, vals, tmp, acc in slots[2:]:
            np.take(x, cols, axis=0, out=tmp, mode="clip")
            np.multiply(vals, tmp, out=tmp)
            np.add(acc, tmp, out=acc)
        for cols, vals, tmp, acc in slots[:1]:
            np.take(x, cols, axis=0, out=tmp, mode="clip")
            np.multiply(vals, tmp, out=tmp)
            np.add(tmp, acc, out=self._filled)
        if self._rank is not None:
            np.take(self._sorted, self._rank, axis=0, out=self._sums, mode="clip")
        if self._long_rows.size:
            self._sums[self._long_rows] = np.add.reduceat(
                self._long_vals * x[self._long_cols], self._long_start, axis=0
            )
        return self._sums


def sell_spmv_cycles(model: CycleModel, block: SellBlock, workers: int = 6) -> int:
    """Modeled cycles of a SELL SpMV on one tile (max over workers).

    Per padded coefficient: one mul + one add at scalar rate (the gathered
    ``x[col]`` defeats SIMD pairing, same as CRS); per chunk a small fixed
    overhead replaces CRS's per-row branch — the format's entire upside.
    """
    per_nnz = OP_CYCLES["float32"]["mul"] + OP_CYCLES["float32"]["add"]
    chunk_overhead = 4
    splits = np.array_split(np.arange(len(block.chunks)), workers)
    worst = 0
    for s in splits:
        padded = sum(block.chunks[i][2].size for i in s)
        rows = sum(block.chunks[i][0].size for i in s)
        cost = (
            model.vertex_overhead
            + padded * per_nnz
            + len(s) * chunk_overhead
            + rows * OP_CYCLES["float32"]["mul"]  # dense diagonal
        )
        worst = max(worst, cost)
    return worst


def crs_spmv_cycles(model: CycleModel, crs: ModifiedCRS, workers: int = 6) -> int:
    """Modeled cycles of the modified-CRS SpMV on one tile (max over workers)."""
    rows = np.array_split(np.arange(crs.n), workers)
    lengths = crs.rows_nnz()
    return max(
        model.spmv_rows("float32", int(lengths[s].sum()), s.size) for s in rows if s.size
    )
