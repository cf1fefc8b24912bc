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
reproduces ``np.add.reduceat``'s row sums in a few whole-array passes.  It
is the oracle and the no-compiler fallback of :class:`DeviceSpmv`, the
fused whole-device kernels' SpMV (:mod:`repro.graph.passes.kernels`), which
is one native table entry in the same order.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from repro.machine.cycles import CycleModel, OP_CYCLES
from repro.sparse.crs import ModifiedCRS

__all__ = ["DeviceSpmv", "SellBlock", "SlotMajorRows", "crs_spmv_cycles", "native_spmv",
           "sell_spmv_cycles"]


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


class DeviceSpmv:
    """``y = diag * x + Σ vals[e] * [x | halo][cols[e]]`` per row: a whole
    device's working-precision SpMV over CRS arrays in the ``[owned | halo]``
    index space (``DistributedMatrix.device_columns``), with ``batch`` RHS
    columns on a trailing axis.

    :meth:`bind` makes it one ``repro_spmv_f32`` entry of ``native.c``
    (a fused kernel's table runs it with the ops around it), which sums
    every row in ``np.add.reduceat``'s order — so it equals the per-tile
    SpMV bit for bit.  :meth:`run_numpy`, :class:`SlotMajorRows` plus the
    diagonal, is its oracle and runs instead when no library loads or the
    library fails its self-check; the slot-major layout is built only then.
    The arrays are checked once, here: the native call trusts them.
    """

    def __init__(self, row_ptr, cols, vals, diag, halo: int, batch: int = 1):
        self.row_ptr = np.ascontiguousarray(row_ptr, dtype=np.int64)
        cols = np.asarray(cols)
        self.vals = np.ascontiguousarray(vals, dtype=np.float32)
        self.diag = np.ascontiguousarray(diag, dtype=np.float32)
        self.n, self.halo, self.batch = self.diag.size, int(halo), int(batch)
        width = self.n + self.halo
        if not (self.row_ptr.size == self.n + 1 and self.row_ptr[0] == 0
                and self.row_ptr[-1] == cols.size == self.vals.size
                and (np.diff(self.row_ptr) >= 0).all() and cols.dtype.kind in "iu"
                and cols.min(initial=0) >= 0 and cols.max(initial=0) < width
                and width < 2**31 and self.batch >= 1):
            raise ValueError("malformed SpMV: row_ptr does not index cols / vals, or a "
                             "column is outside [x | halo]")
        self.cols = np.ascontiguousarray(cols, dtype=np.int32)
        longest = int(np.diff(self.row_ptr).max(initial=0))
        # The native call's scratch: ``[x | halo]`` and the longest row's
        # products.
        self._xfull = np.empty(width * self.batch, dtype=np.float32)
        self._prod = np.empty(max(longest, 1) * self.batch, dtype=np.float32)
        self._args = (self.n, self.halo, self.batch, *(a.ctypes.data for a in (
            self.row_ptr, self.cols, self.vals, self.diag)))
        self._scratch = (self._xfull.ctypes.data, self._prod.ctypes.data)

    def bind(self, x: np.ndarray, halo, y: np.ndarray):
        """A :class:`repro.solvers.native.Entry` writing ``y = A [x | halo]``
        for these buffers at every call: C-contiguous float32 ``(n,)``
        arrays — ``(n, batch)`` with RHS columns — ``halo`` with ``halo``
        rows (``None`` when there are none), ``y`` overlapping neither."""
        trailing = () if self.batch == 1 else (self.batch,)
        buffers = [("x", x, self.n), ("y", y, self.n)]
        if self.halo or halo is not None:
            buffers.append(("halo", halo, self.halo))
        for name, a, rows in buffers:
            if not (isinstance(a, np.ndarray) and a.dtype == np.float32
                    and a.shape == (rows,) + trailing and a.flags.c_contiguous):
                raise TypeError(f"SpMV {name} must be a C-contiguous float32 array of shape "
                                f"{(rows,) + trailing}")
        if not y.flags.writeable or any(
                np.shares_memory(a, y) for name, a, _ in buffers if name != "y"):
            raise ValueError("SpMV y must be writable and overlap neither x nor halo")
        from repro.solvers import native  # the package's one C library and its loader

        args = (*self._args, x.ctypes.data, None if halo is None else halo.ctypes.data,
                y.ctypes.data, *self._scratch)
        return native.Entry(native.SPMV, args, (self, x, halo, y),
                            functools.partial(self.run_numpy, x, halo, y), native_spmv)

    def run_numpy(self, x: np.ndarray, halo, y: np.ndarray) -> None:
        """The native call as numpy: assemble ``[x | halo]``, the slot-major
        row sums, then ``y = diag * x + sums``."""
        rows, diag = self._numpy
        if halo is None:
            xfull = x
        else:
            xfull = self._xfull.reshape((-1,) + x.shape[1:])
            xfull[: self.n] = x
            xfull[self.n :] = halo
        sums = rows.sums(xfull)
        np.multiply(diag, x, out=y)
        np.add(y, sums, out=y)

    @functools.cached_property
    def _numpy(self) -> tuple:
        trailing = () if self.batch == 1 else (self.batch,)
        rows = SlotMajorRows(np.diff(self.row_ptr), self.cols, self.vals, trailing)
        return rows, self.diag[:, None] if trailing else self.diag


#: The self-check's matrix, which every process runs on its first SpMV:
#: its row lengths, halo cells and RHS columns (one, then three).
CHECK_LENGTHS = (1, 7, 7, 7, 0, 8, 9, 128, 129, 300, 2, 2, 3, 0)
CHECK_HALO = 6
CHECK_COLUMNS = 4


def _self_check(run) -> str | None:
    """Compare SpMV entries run by ``run`` (``repro_run``) with
    :meth:`DeviceSpmv.run_numpy` bit for bit on a fixed matrix; ``None``
    when they agree, else what differed.

    Rows of 0, 1, 7, 8, 9, 128, 129 and 300 entries (both sides of each
    ``reduceat`` regime and of the recursive split), runs of equal short
    rows, a trailing empty row, columns in the halo suffix, signed-zero
    products and diagonal entries; one and three RHS columns.
    """
    from repro.solvers import native  # the package's one C library and its loader

    rng = np.random.default_rng(31)
    n, halo = len(CHECK_LENGTHS), CHECK_HALO
    row_ptr = np.cumsum((0,) + CHECK_LENGTHS)
    cols = rng.integers(0, n + halo, row_ptr[-1])
    size = cols.size + CHECK_COLUMNS * (n + halo)
    draws = rng.standard_normal(size) * 10.0 ** rng.integers(-3, 4, size)
    vals = draws[: cols.size]
    cells = draws[cols.size :].astype(np.float32).reshape(-1, CHECK_COLUMNS)
    vals[row_ptr[12] : row_ptr[13]] = -0.0
    diag = np.linspace(0.5, 4.0, n)
    diag[12] = -0.0
    for batch, columns in ((1, 0), (3, slice(1, CHECK_COLUMNS))):
        spmv = DeviceSpmv(row_ptr, cols, vals, diag, halo, batch)
        x = np.ascontiguousarray(cells[:n, columns])
        h = np.ascontiguousarray(cells[n:, columns])
        y_native, y_numpy = np.empty_like(x), np.empty_like(x)
        native.Table([spmv.bind(x, h, y_native)], run)()
        spmv.run_numpy(x, h, y_numpy)
        differ = np.argwhere(y_native.view(np.uint32) != y_numpy.view(np.uint32))
        if differ.size:
            at = tuple(int(i) for i in differ[0])
            return (f"self-check: y{list(at)} with {batch} RHS column(s) is "
                    f"{y_native[at]!r}, numpy {y_numpy[at]!r}")
    return None


@functools.cache
def native_spmv():
    """The runner for SpMV entries (``repro_spmv_f32``), resolved on the
    first :class:`DeviceSpmv` run or table fold: ``None`` — with one
    ``RuntimeWarning`` saying why — when the library does not build or
    load, or disagrees with the slot-major numpy SpMV on the self-check,
    which then runs instead."""
    from repro.solvers import native  # the package's one C library and its loader

    return native.kernel(_self_check, "SpMV", "the slot-major numpy SpMV")


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
