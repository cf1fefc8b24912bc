"""Distributed matrices and vectors on the (simulated) IPU.

``DistributedMatrix`` decomposes a :class:`ModifiedCRS` row-wise across the
device's tiles (Sec. II-B), reorders each tile's cells per the Sec. IV halo
strategy, and stores the local modified-CRS blocks in tile SRAM.  Vectors
(``DistVector``) carry an *owned* tensor (the authoritative values, in the
reordered layout) plus a *halo* tensor (cached neighbor values refreshed by
blockwise exchanges).

SpMV numerics:

- working precision (float32): true float32 products; row sums are short
  (one rounding vs. per-term rounding differs below the f32 noise floor),
- extended precision (for the MPIR residual): products/accumulation are
  evaluated in binary64 and the result is stored in the target
  representation (double-word split or float64).  The *stored* precision of
  operands and results — which is what bounds MPIR's attainable residual —
  is exactly that of the paper's double-word/soft-float pipelines, while
  the cycle model charges the Table I costs of those pipelines.
"""

from __future__ import annotations

import functools
import weakref

import numpy as np

from repro.dw import DWArray, from_float64
from repro.graph import Exchange
from repro.graph.codelet import Codelet, ComputeSet, SpmvSpec, VertexGroup
from repro.graph.program import COPY, SRC_TILE, Execute as ExecuteStep
from repro.sparse.crs import ModifiedCRS
from repro.sparse.halo import HaloPlan, build_halo_plan, build_naive_plan
from repro.sparse.partition import Partition, partition_rows
from repro.sparse.sell import DeviceSpmv
from repro.tensordsl import Tensor, Type
from repro.tensordsl.types import RANK
from repro.tensordsl.tensor import ContextRef

__all__ = ["DeviceExtendedSpmv", "DistVector", "DistributedMatrix", "RowSegments",
           "extended_spmv", "native_xspmv"]


class RowSegments:
    """The per-row ``np.add.reduceat`` plan of one CRS ``row_ptr``.

    Built once per tile at distribute time, so a launch only reduces: the
    segment starts, the empty-row mask (``None`` when no row is empty) and
    whether a trailing row is empty — the one case in which ``reduceat``
    needs a pad element to index.
    """

    __slots__ = ("n", "starts", "empty", "pad")

    def __init__(self, row_ptr: np.ndarray):
        row_ptr = np.asarray(row_ptr, dtype=np.intp)
        self.n = row_ptr.size - 1
        self.starts = row_ptr[:-1]
        empty = row_ptr[1:] == self.starts
        self.empty = empty if empty.any() else None
        self.pad = bool(self.n and empty[-1])

    def sums(self, contrib: np.ndarray) -> np.ndarray:
        """Per-row sums of CRS-ordered contributions (empty rows -> 0).

        ``contrib`` may carry a trailing batch axis ``(nnz, B)`` (the SpMM
        path); segments then reduce along axis 0 — ``np.add.reduceat`` over
        rows is bit-identical per column to the 1-D per-column reduction, so
        batched SpMV results match single-RHS SpMVs exactly.
        """
        if contrib.shape[0] == 0:
            return np.zeros((self.n,) + contrib.shape[1:], dtype=contrib.dtype)
        if self.pad:
            pad = np.zeros((1,) + contrib.shape[1:], dtype=contrib.dtype)
            contrib = np.concatenate([contrib, pad])
        return self.reduce(contrib)

    def reduce(self, padded: np.ndarray) -> np.ndarray:
        """:meth:`sums` of a non-empty contribution buffer that already
        carries the pad slot when :attr:`pad` is set (the sweep plans keep
        such a buffer per level, so a launch concatenates nothing)."""
        sums = np.add.reduceat(padded, self.starts, axis=0)
        if self.empty is not None:
            sums[self.empty] = 0
        return sums


class _TileBlocks(dict):
    """tile -> block, each built by ``build(tile)`` on first access.  The
    bound method is held weakly: its object owns this dict."""

    def __init__(self, build):
        super().__init__()
        self._build = weakref.WeakMethod(build)

    def __missing__(self, tile: int) -> dict:
        block = self[tile] = self._build()(tile)
        return block


def _consecutive(tiles, counts, keep_empty: bool = False) -> np.ndarray:
    """Back-to-back ``(tile, start, stop)`` rows of ``counts[i]`` elements
    on ``tiles[i]`` (empty ones dropped unless ``keep_empty``)."""
    counts = np.asarray(counts, dtype=np.int64)
    ends = np.cumsum(counts)
    rows = np.stack([np.asarray(tiles, dtype=np.int64).reshape(-1), ends - counts, ends], axis=1)
    return rows if keep_empty else rows[counts > 0]


class DistVector:
    """A vector distributed in the halo-reordered layout.

    ``owned`` holds each tile's authoritative cells; ``halo`` holds cached
    copies of neighbor cells, refreshed by :meth:`DistributedMatrix.exchange`.
    TensorDSL algebra applies to ``owned`` (all owned tensors of one matrix
    share the same mapping, so they combine freely).
    """

    def __init__(self, matrix: "DistributedMatrix", owned: Tensor, halo: Tensor):
        self.matrix = matrix
        self.owned = owned
        self.halo = halo

    @property
    def t(self) -> Tensor:
        """The owned tensor — use this in TensorDSL expressions."""
        return self.owned

    @property
    def dtype(self) -> str:
        return self.owned.dtype

    @property
    def batch(self) -> int:
        return self.owned.var.batch

    def write_global(self, values) -> None:
        """Host-write values given in the ORIGINAL row order (batched vectors
        take ``(batch, n)``, or ``(n,)`` broadcast to every RHS)."""
        values = np.asarray(values)
        self.owned.write(values[..., self.matrix.perm])

    def read_global(self) -> np.ndarray:
        """Host-read values in the ORIGINAL row order (batched: ``(batch, n)``)."""
        reordered = self.owned.value()
        out = np.empty_like(reordered)
        out[..., self.matrix.perm] = reordered
        return out

    def __repr__(self):
        batch = f", batch={self.batch}" if self.batch > 1 else ""
        return f"DistVector(n={self.matrix.n}, dtype={self.dtype}{batch})"


class DistributedMatrix:
    """A modified-CRS matrix decomposed across tiles with halo regions."""

    ctx = ContextRef()

    def __init__(
        self,
        ctx,
        crs: ModifiedCRS,
        num_tiles: int | None = None,
        grid_dims=None,
        partition: Partition | None = None,
        plan: HaloPlan | None = None,
        blockwise: bool = True,
        name: str = "A",
    ):
        self.ctx = ctx
        self.crs = crs
        self.name = name
        device = ctx.device
        if partition is None:
            parts = min(num_tiles or device.num_tiles, crs.n, device.num_tiles)
            partition = partition_rows(crs, parts, grid_dims=grid_dims)
        self.partition = partition
        if plan is None:
            builder = build_halo_plan if blockwise else build_naive_plan
            plan = builder(crs, partition)
        self.plan = plan
        self.tiles = plan.tiles()
        #: tile -> its position in ``tiles`` (-1: no rows there), one past the last tile.
        self._position = np.full(max(self.tiles, default=-1) + 2, -1, dtype=np.int64)
        self._position[self.tiles] = np.arange(len(self.tiles))
        #: perm[new_index] = old_index (the Sec. IV reordering).
        self.perm = plan.global_permutation()
        self._build_local_blocks()
        self._device_cols = None  # every entry's device column, int32
        self._device_spmv: dict[int, DeviceSpmv] = {}
        self._device_extended = None
        self._sender_tables = None  # the halo copy table cut per sending tile
        self._spmv_cycles: dict = {}  # (cost dtype, batch) -> (keys, tasks)
        self._owned_mapping = self._halo_mapping = None

    # -- construction -----------------------------------------------------------------

    @property
    def n(self) -> int:
        return self.crs.n

    def _build_local_blocks(self) -> None:
        """Gather the matrix into layout order and place the tiles' local
        modified-CRS blocks in SRAM."""
        crs, plan, device = self.crs, self.plan, self.ctx.device
        # Every row's entries, rows in layout (``perm``) order: one gather
        # for the whole matrix, cut per tile at the row-pointer bounds.
        starts = crs.row_ptr[self.perm].astype(np.int64)
        lengths = crs.row_ptr[self.perm + 1] - starts
        ptr = np.concatenate([[0], np.cumsum(lengths)])
        entries = np.repeat(starts - ptr[:-1], lengths) + np.arange(ptr[-1])
        cols = crs.col_idx[entries]
        self._wide = (crs.values[entries], crs.diag[self.perm])
        owned = [plan.owned_count(t) for t in self.tiles]
        tile_rows = np.concatenate([[0], np.cumsum(owned, dtype=np.int64)])
        col_idx = plan.local_index(
            np.repeat(self.tiles, np.diff(ptr[tile_rows])), cols
        ).astype(np.int32)
        # The device-wide row pointer and each tile's first row, kept for
        # the per-worker row split of every SpMV; the binary64 coefficients
        # and diagonal in layout order (``_wide``, above), whose float32
        # and double-word forms the SpMVs and the tiles' arrays take.
        self._row_ptr, self._tile_rows, self._col_idx = ptr, tile_rows, col_idx
        #: tile -> its local block (views of the arrays above plus its own
        #: row pointer and row segments), built when a per-tile path asks.
        self.local = _TileBlocks(self._local_block)
        device.sram.place(self)

    @functools.cached_property
    def _f32(self) -> tuple:
        """``(coefficients, diagonal)`` in working precision, for the float32
        whole-device SpMV."""
        with np.errstate(over="ignore"):
            return tuple(wide.astype(np.float32) for wide in self._wide)

    @functools.cached_property
    def _split(self) -> tuple:
        """``(coefficients, diagonal)``, each as ``(f32, lo, f32 + lo)``: a
        double-word copy for the extended-precision residual SpMV of MPIR
        (standard mixed-precision IR practice: the residual must see A
        beyond working precision, else the f32 rounding of A bounds
        accuracy).  Built on first use; its hi words are :attr:`_f32` (the
        same bits as the split's own), and the tiles' arrays are views of
        it."""
        split = [DWArray(hi, from_float64(wide)[1]) for wide, hi in zip(self._wide, self._f32)]
        return tuple((dw.hi, dw.lo, dw.to_float64()) for dw in split)

    def _local_block(self, t: int) -> dict:
        i = int(self._position[min(t, len(self._position) - 1)])
        if i < 0:
            raise KeyError(t)
        row, end = self._tile_rows[i : i + 2].tolist()
        rows = slice(row, end)
        a, b = self._row_ptr[row], self._row_ptr[end]
        values, diag = self._split
        local = {
            "rows_global": self.plan.owned_order[t],
            "n": end - row,
            "diag": diag[0][rows], "diag_lo": diag[1][rows], "diag_ext": diag[2][rows],
            "values": values[0][a:b], "values_lo": values[1][a:b], "values_ext": values[2][a:b],
            "col_idx": self._col_idx[a:b],
            "row_ptr": (self._row_ptr[row : end + 1] - a).astype(np.int32),
        }
        local["segments"] = RowSegments(local["row_ptr"])
        local["row_of_entry"] = np.repeat(
            np.arange(end - row, dtype=np.int32), np.diff(local["row_ptr"])
        )
        return local

    # -- a region of device SRAM (repro.machine.tile.SRAM) ---------------------------------

    #: The local arrays each tile holds in SRAM, in allocation order.
    SRAM_KEYS = ("diag", "values", "col_idx", "row_ptr", "values_lo", "diag_lo")

    def shard_bytes(self) -> list:
        # float32 coefficients and lo words, int32 indices: 4 bytes each.
        rows, nnz = np.diff(self._tile_rows), np.diff(self._row_ptr[self._tile_rows])
        size = {"diag": rows, "values": nnz, "col_idx": nnz, "row_ptr": rows + 1,
                "values_lo": nnz, "diag_lo": rows}
        return [4 * size[key] for key in self.SRAM_KEYS]

    def shard_name(self, k: int, half: int) -> str:
        return f"{self.name}.{self.SRAM_KEYS[half]}@{self.tiles[k]}"

    def arrays_on(self, tile_id: int) -> dict:
        if tile_id not in self.plan.owned_order:
            return {}
        local = self.local[tile_id]
        return {f"{self.name}.{key}@{tile_id}": local[key] for key in self.SRAM_KEYS}

    # -- vectors -------------------------------------------------------------------------

    def owned_mapping(self) -> np.ndarray:
        """The ``(tile, start, stop)`` rows of every owned tensor
        :meth:`vector` allocates."""
        if self._owned_mapping is None:
            self._owned_mapping = _consecutive(
                self.tiles, [self.plan.owned_count(t) for t in self.tiles], keep_empty=True
            )
        return self._owned_mapping

    def halo_mapping(self) -> tuple:
        """``(rows, total)`` of every halo tensor :meth:`vector` allocates
        (tiles without a halo hold no row)."""
        if self._halo_mapping is None:
            halo = _consecutive(self.tiles, [self.plan.halo_count(t) for t in self.tiles])
            self._halo_mapping = halo, int(halo[-1, 2]) if len(halo) else 0
        return self._halo_mapping

    def device_columns(self) -> dict:
        """Per tile, the index array taking a local column (owned prefix,
        halo suffix) into the whole-device ``[owned | halo]`` index space
        of this matrix's vectors: column ``c < n`` is row ``c`` of an owned
        buffer, column ``n + h`` is row ``h`` of the matching halo buffer
        (the mappings :meth:`vector` allocates)."""
        halo = {t: (a, b) for t, a, b in self.halo_mapping()[0].tolist()}
        columns = {}
        for t, a, b in self.owned_mapping().tolist():
            parts = [np.arange(a, b, dtype=np.intp)]
            if t in halo:
                h0, h1 = halo[t]
                parts.append(np.arange(self.n + h0, self.n + h1, dtype=np.intp))
            columns[t] = np.concatenate(parts)
        return columns

    def _device_columns_of_entries(self) -> np.ndarray:
        """Every off-diagonal entry's column in the :meth:`device_columns`
        index space, rows in layout order (built once, shared by every
        whole-device SpMV)."""
        if self._device_cols is None:
            # A local column below the tile's row count is an owned row, the
            # rest index the tile's halo, which starts at its halo offset.
            first, rows = self._tile_rows[:-1], np.diff(self._tile_rows)
            halo = np.array([self.plan.halo_count(t) for t in self.tiles], dtype=np.int64)
            nnz = np.diff(self._row_ptr[self._tile_rows])
            per_tile = np.stack([rows, first, self.n + np.cumsum(halo) - halo - rows])
            n_loc, owned_at, halo_at = np.repeat(per_tile.astype(np.int32), nnz, axis=1)
            col = self._col_idx
            self._device_cols = np.where(col < n_loc, owned_at, halo_at) + col
        return self._device_cols

    def device_spmv(self, batch: int = 1) -> DeviceSpmv:
        """The working-precision SpMV of the whole matrix over the
        :meth:`device_columns` index space.  Every SpMV of this matrix with
        ``batch`` RHS columns shares the one instance — arrays and scratch —
        which the fused kernels call in program order."""
        spmv = self._device_spmv.get(batch)
        if spmv is None:
            spmv = self._device_spmv[batch] = DeviceSpmv(
                self._row_ptr, self._device_columns_of_entries(), *self._f32,
                self.halo_mapping()[1], batch)
        return spmv

    def device_extended(self) -> DeviceExtendedSpmv:
        """The extended-precision SpMV of the whole matrix over the
        :meth:`device_columns` index space (built once, shared like
        :meth:`device_spmv`)."""
        if self._device_extended is None:
            self._device_extended = DeviceExtendedSpmv(
                self._row_ptr, self._device_columns_of_entries(), self._split[0][2],
                self._split[1][2], self.halo_mapping()[1])
        return self._device_extended

    def vector(self, name: str | None = None, dtype: str = Type.FLOAT32, data=None,
               batch: int = 1) -> DistVector:
        """Create a distributed vector compatible with this matrix.

        ``batch > 1`` creates a multi-RHS vector: every owned/halo element
        stores ``batch`` contiguous values, so one halo exchange refreshes
        all RHS columns at once.
        """
        name = name or self.ctx.graph.unique_name("v")
        owned = self.ctx.from_mapping(name, (self.n,), dtype, self.owned_mapping(), batch=batch)
        halo_map, halo_total = self.halo_mapping()
        if halo_total:
            halo = self.ctx.from_mapping(f"{name}.halo", (halo_total,), dtype, halo_map, batch)
        else:
            halo = self.ctx.tensor((), dtype, f"{name}.halo", tile_ids=self.tiles, batch=batch)
        vec = DistVector(self, owned, halo)
        if data is not None:
            vec.write_global(data)
        return vec

    # -- program steps ----------------------------------------------------------------------

    def exchange(self, vec: DistVector) -> None:
        """Append the blockwise halo exchange refreshing ``vec``'s halo buffer.

        One communication program (``Exchange`` step) is emitted per sending
        tile — the blockwise programs of Sec. IV.  The graph compiler's
        exchange-coalescing pass merges adjacent programs into a single
        fabric phase, so the optimized schedule pays one BSP sync for the
        whole halo update; without the pass each block pays its own sync.
        Every exchange of this matrix shares the per-sender slices of the
        plan's one copy table.
        """
        if self._sender_tables is None:
            table = self.plan.copies  # rows run sender by sender
            cuts = np.flatnonzero(np.diff(table[:, SRC_TILE])) + 1
            parts = np.split(table.copy(), cuts) if len(table) else []
            for part in parts:
                part[:, COPY] -= part[0, COPY]  # each program numbers its copies from 0
                part.setflags(write=False)  # shared by every exchange of the matrix
            self._sender_tables = parts
        variables = (vec.owned.var, vec.halo.var)
        for table in self._sender_tables:
            self.ctx.append(Exchange(variables=variables, table=table))

    def _worker_row_bounds(self, workers: int) -> tuple:
        """``(start, stop)``: per tile (rows, in ``tiles`` order) and worker
        (columns), the contiguous local row range the worker takes,
        balanced by work (an off-diagonal nonzero or a diagonal entry each
        count one).  All tiles at once, over the device-wide row pointer."""
        ptr, bounds = self._row_ptr, self._tile_rows
        work = ptr + np.arange(ptr.size)  # work through each row, device-wide
        first, n = bounds[:-1, None], np.diff(bounds)[:, None]
        total = work[first + n] - work[first]
        # Worker w stops at the first row whose work reaches (w + 1) / workers
        # of its tile's total: the integer ceiling of that share, exactly.
        share = -(-total * np.arange(1, workers + 1) // workers)
        stop = np.minimum(np.searchsorted(work[1:], work[first] + share) + 1 - first, n)
        stop[:, -1] = n[:, 0]
        start = np.concatenate([np.zeros_like(stop[:, :1]), stop[:, :-1]], axis=1)
        return start, stop

    def spmv(self, x: DistVector, y: DistVector, accumulate_category: str | None = None) -> None:
        """Append ``y = A x`` (halo exchange + per-tile SpMV compute set).

        Working precision when both vectors are float32; extended precision
        (binary64 evaluation, result stored in ``y.dtype``) otherwise.
        """
        self.exchange(x)
        batch = x.owned.var.batch
        if batch != y.owned.var.batch:
            raise ValueError(
                f"spmv batch mismatch: x batch {batch} vs y batch {y.owned.var.batch}"
            )
        if batch > 1 and (x.dtype != Type.FLOAT32 or y.dtype != Type.FLOAT32):
            raise ValueError(
                "batched SpMV supports the float32 working-precision path only"
            )
        cost_dtype = x.dtype if x.dtype != Type.FLOAT32 else y.dtype
        # SpMVs bucket as "spmv" regardless of precision (Table IV's taxonomy:
        # "Extended-Precision Ops" covers the MPIR vector ops, while the
        # residual SpMV counts as SpMV); the *cost* still uses the extended
        # per-op cycle counts.
        category = accumulate_category or "spmv"
        keys, tasks = self._tile_spmv_cycles(cost_dtype, batch)
        spec = SpmvSpec(self, x, y)

        def codelet(t: int) -> Codelet:
            local = self.local[t]
            cycles = tasks[keys[self._position[t]]]
            return Codelet(f"spmv@{t}", lambda ctx: self._spmv_tile(t, local, x, y),
                           cycles, category=category, spec=spec)

        cs = ComputeSet(self.ctx.graph.unique_name("cs_spmv"), category=category)
        cs.add_group(VertexGroup(self.tiles, codelet, tasks.__getitem__, category=category,
                                 spec=spec, keys=keys))
        self.ctx.append(ExecuteStep(cs))

    def _tile_spmv_cycles(self, cost_dtype: str, batch: int) -> tuple:
        """``(keys, tasks)``: the SpMV's distinct per-worker cycle tuples over
        the tiles' nonzero-balanced row chunks, and per tile (``tiles``
        order) which one is its own (computed once per precision and batch
        width)."""
        key = (cost_dtype, batch)
        if key not in self._spmv_cycles:
            model = self.ctx.device.model
            start, stop = self._worker_row_bounds(self.ctx.device.spec.workers_per_tile)
            first = self._tile_rows[:-1, None]
            nnz = self._row_ptr[first + stop] - self._row_ptr[first + start]
            # SpMM: every nonzero touches all `batch` RHS columns; the
            # vertex overhead amortizes across the batch (the PopSparse
            # effect the multi-RHS path exists for).  An empty chunk is -1.
            cost = np.where(stop > start,
                            model.spmv_rows(cost_dtype, nnz * batch, (stop - start) * batch), -1)
            rows, keys = np.unique(cost, axis=0, return_inverse=True)
            tasks = [tuple(c for c in row if c >= 0) or (model.vertex_overhead,)
                     for row in rows.tolist()]
            self._spmv_cycles[key] = keys.reshape(-1), tasks
        return self._spmv_cycles[key]

    def _spmv_tile(self, t: int, local: dict, x: DistVector, y: DistVector) -> None:
        xo_sh = x.owned.var.shard(t)
        yo_sh = y.owned.var.shard(t)
        halo_sh = x.halo.var.shard(t) if self.plan.halo_count(t) else None

        if x.dtype == Type.FLOAT32 and y.dtype == Type.FLOAT32:
            xfull = (
                np.concatenate([xo_sh.data, halo_sh.data])
                if halo_sh is not None
                else xo_sh.data
            )
            if x.owned.var.batch > 1:
                # SpMM: (nnz, B) contributions, one segmented sum over rows.
                contrib = local["values"][:, None] * xfull[local["col_idx"]]
                sums = local["segments"].sums(contrib)
                yo_sh.data[...] = local["diag"][:, None] * xo_sh.data + sums
                return
            contrib = local["values"] * xfull[local["col_idx"]]
            sums = local["segments"].sums(contrib)
            yo_sh.data[...] = local["diag"] * xo_sh.data + sums
            return

        extended_spmv(
            (local["row_of_entry"], local["col_idx"], local["values_ext"], local["diag_ext"]),
            (xo_sh.data, xo_sh.lo), None if halo_sh is None else (halo_sh.data, halo_sh.lo),
            (yo_sh.data, yo_sh.lo),
        )


def _wide(hi: np.ndarray, lo) -> np.ndarray:
    """A vector in binary64: a double word's ``hi + lo``, else its values."""
    wide = hi.astype(np.float64)
    return wide if lo is None else wide + lo.astype(np.float64)


def extended_spmv(entries: tuple, x: tuple, halo, y: tuple) -> None:
    """``y = diag * x + A_off [x | halo]`` evaluated in binary64 and stored
    in ``y``'s representation: a double word's ``hi``/``lo`` split, float64,
    or float32.  ``x``, ``halo`` and ``y`` are ``(values, lo)`` buffer pairs
    (``lo`` is ``None`` unless the vector is a double word; ``halo`` is
    ``None`` without a halo).

    ``entries`` is ``(rows, cols, vals, diag)``: one tile's block over its
    local columns, or the whole device's over
    :meth:`DistributedMatrix.device_columns`.  ``np.bincount`` sums each
    row's products in entry order from ``0.0``, and a row's entries are the
    same in both, so the whole-device call equals the per-tile calls bit for
    bit.
    """
    rows, cols, vals, diag = entries
    xo = _wide(*x)
    xfull = xo if halo is None else np.concatenate([xo, _wide(*halo)])
    products = xfull[cols]
    np.multiply(vals, products, out=products)
    sums = np.bincount(rows, weights=products, minlength=diag.size)
    result = diag * xo + sums
    hi, lo = y
    if lo is None:
        hi[...] = result  # rounded once to float32, or stored as is
    else:
        hi[...], lo[...] = from_float64(result)


class DeviceExtendedSpmv:
    """:func:`extended_spmv` over a whole device's CRS arrays in the
    ``[owned | halo]`` index space, as one ``repro_xspmv`` entry of
    ``native.c`` (:meth:`bind`): binary64 products, each row summed in
    entry order from ``0.0`` — ``np.bincount``'s order — and the result
    stored through the one double-word split.  :meth:`run_numpy`, the numpy
    function itself, is its oracle and fallback.  The arrays are checked
    once, here: the native call trusts them."""

    def __init__(self, row_ptr, cols, vals, diag, halo: int):
        self.row_ptr = np.ascontiguousarray(row_ptr, dtype=np.int64)
        self.vals = np.ascontiguousarray(vals, dtype=np.float64)
        self.diag = np.ascontiguousarray(diag, dtype=np.float64)
        self.n, self.halo = self.diag.size, int(halo)
        cols = np.asarray(cols)
        if not (self.row_ptr.size == self.n + 1 and self.row_ptr[0] == 0
                and self.row_ptr[-1] == cols.size == self.vals.size
                and (np.diff(self.row_ptr) >= 0).all() and cols.dtype.kind in "iu"
                and cols.min(initial=0) >= 0 and cols.max(initial=0) < self.n + self.halo
                and self.n + self.halo < 2**31):
            raise ValueError("malformed SpMV: row_ptr does not index cols / vals, or a "
                             "column is outside [x | halo]")
        self.cols = np.ascontiguousarray(cols, dtype=np.int32)
        rows = np.repeat(np.arange(self.n, dtype=np.intp), np.diff(self.row_ptr))
        self.entries = (rows, self.cols, self.vals, self.diag)
        self._xfull = np.empty(self.n + self.halo, dtype=np.float64)

    def bind(self, x: tuple, halo, y: tuple):
        """A :class:`repro.solvers.native.Entry` writing ``y = A [x | halo]``
        at every call.  ``x``, ``halo`` and ``y`` are ``(values, lo)``
        pairs as :func:`extended_spmv` takes them: C-contiguous 1-D float32
        or float64 ``values`` (``lo`` ``None``), or a double word's float32
        halves; ``halo`` is ``None`` without halo rows and is in ``x``'s
        representation; ``y`` overlaps neither."""
        buffers = [("x", x, self.n), ("y", y, self.n)]
        if self.halo or halo is not None:
            buffers.append(("halo", halo, self.halo))
        reps = {}
        for name, (values, lo), rows in buffers:
            parts = (values,) if lo is None else (values, lo)
            if not all(isinstance(a, np.ndarray) and a.shape == (rows,) and a.flags.c_contiguous
                       and a.dtype in (np.float32, np.float64) for a in parts) or (
                           lo is not None and not values.dtype == lo.dtype == np.float32):
                raise TypeError(f"SpMV {name} must be C-contiguous float32 / float64 arrays, "
                                f"or a double word's float32 halves, of {rows} rows")
            # native.c's representation codes are the types' RANK.
            reps[name] = RANK[Type.DOUBLEWORD if lo is not None else
                              Type.FLOAT64 if values.dtype == np.float64 else Type.FLOAT32]
        if reps.get("halo", reps["x"]) != reps["x"]:
            raise TypeError("SpMV halo must be in x's representation")
        written = [a for a in y if a is not None]
        read = [a for name, pair, _ in buffers if name != "y" for a in pair if a is not None]
        if not all(a.flags.writeable for a in written) or any(
                np.shares_memory(a, b) for a in written for b in read):
            raise ValueError("SpMV y must be writable and overlap neither x nor halo")
        from repro.solvers import native  # the package's one C library and its loader

        def address(a):
            return None if a is None else a.ctypes.data

        h = (None, None) if halo is None else halo
        args = (self.n, self.halo, reps["x"] + 3 * reps["y"],
                *(a.ctypes.data for a in (self.row_ptr, self.cols, self.vals, self.diag)),
                *map(address, (*x, *h, *y)), self._xfull.ctypes.data)
        return native.Entry(native.XSPMV, args, (self, x, halo, y),
                            functools.partial(self.run_numpy, x, halo, y), native_xspmv)

    def run_numpy(self, x: tuple, halo, y: tuple) -> None:
        extended_spmv(self.entries, x, halo, y)


def _xspmv_self_check(run) -> str | None:
    """Compare extended SpMV entries run by ``run`` (``repro_run``) with
    :func:`extended_spmv` bit for bit on a fixed matrix; ``None`` when they
    agree, else what differed.

    Rows of 0, 1, 2, 9 and 40 entries, a trailing empty row, columns in the
    halo suffix, weights spanning sixteen decades (the binary64 order
    shows), ±0.0, ±inf and NaN; every representation of ``x`` into every
    representation of ``y``, a double word's sum beyond float32's range
    among them.
    """
    from repro.solvers import native  # the package's one C library and its loader

    rng = np.random.default_rng(47)
    lengths = [1, 0, 40, 2, 9, 9, 1, 0]
    n, halo = len(lengths), 5
    row_ptr = np.cumsum([0] + lengths)
    cols = rng.integers(0, n + halo, row_ptr[-1])
    vals = rng.standard_normal(cols.size) * 10.0 ** rng.integers(-8, 9, cols.size)
    vals[3], vals[4] = -0.0, 1e300
    diag = np.linspace(0.5, 4.0, n)
    diag[-1] = -0.0
    wide = rng.standard_normal(n + halo) * 10.0 ** rng.integers(-3, 4, n + halo)
    wide[[1, 2, n + 1]] = (-0.0, np.inf, np.nan)
    spmv = DeviceExtendedSpmv(row_ptr, cols, vals, diag, halo)
    with np.errstate(all="ignore"):
        hi, lo = from_float64(wide)
        forms = {"float32": (wide.astype(np.float32), None), "dw": (hi, lo * 3),
                 "float64": (wide, None)}
        for xname, (v, vlo) in forms.items():
            x = (v[:n].copy(), None if vlo is None else vlo[:n].copy())
            h = (v[n:].copy(), None if vlo is None else vlo[n:].copy())
            for yname, (yv, ylo) in forms.items():
                got, want = ((np.empty(n, yv.dtype),
                              None if ylo is None else np.empty(n, ylo.dtype))
                             for _ in range(2))
                native.Table([spmv.bind(x, h, got)], run)()
                spmv.run_numpy(x, h, want)
                for g, w in zip(got, want):
                    if g is None:
                        continue
                    bits = f"u{g.itemsize}"
                    nan = np.isnan(g) & np.isnan(w)
                    differ = np.flatnonzero((g.view(bits) != w.view(bits)) & ~nan)
                    if differ.size:
                        i = int(differ[0])
                        return (f"self-check: y[{i}] of {xname} into {yname} is {g[i]!r}, "
                                f"numpy {w[i]!r}")
    return None


@functools.cache
def native_xspmv():
    """The runner for extended SpMV entries (``repro_xspmv``), resolved on
    the first :class:`DeviceExtendedSpmv` run or table fold: ``None`` —
    with one ``RuntimeWarning`` saying why — when the library does not
    build or load, or disagrees with :func:`extended_spmv` on the
    self-check, which then runs instead."""
    from repro.solvers import native  # the package's one C library and its loader

    return native.kernel(_xspmv_self_check, "extended SpMV", "the binary64 numpy SpMV")
