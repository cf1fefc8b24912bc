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

import numpy as np

from repro.dw import DWArray
from repro.graph import Exchange, Interval
from repro.graph.codelet import Codelet, ComputeSet, SpmvSpec
from repro.graph.program import Execute as ExecuteStep
from repro.sparse.crs import ModifiedCRS
from repro.sparse.halo import HaloPlan, build_halo_plan, build_naive_plan
from repro.sparse.partition import Partition, partition_rows
from repro.sparse.sell import SlotMajorRows
from repro.tensordsl import Tensor, Type

__all__ = ["DistVector", "DistributedMatrix", "RowSegments"]


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
        #: perm[new_index] = old_index (the Sec. IV reordering).
        self.perm = plan.global_permutation()
        self._build_local_blocks()
        self._device_rows: dict[int, SlotMajorRows] = {}

    # -- construction -----------------------------------------------------------------

    @property
    def n(self) -> int:
        return self.crs.n

    def _build_local_blocks(self) -> None:
        """Extract and allocate each tile's local modified-CRS block."""
        crs, plan, device = self.crs, self.plan, self.ctx.device
        # Every row's entries, rows in layout (``perm``) order: one gather
        # for the whole matrix, cut per tile at the row-pointer bounds.
        starts = crs.row_ptr[self.perm].astype(np.int64)
        lengths = crs.row_ptr[self.perm + 1] - starts
        ptr = np.concatenate([[0], np.cumsum(lengths)])
        entries = np.repeat(starts - ptr[:-1], lengths) + np.arange(ptr[-1])
        cols = crs.col_idx[entries]

        def split(wide):
            # (f32, lo, f32 + lo): a double-word copy of the coefficients for
            # the extended-precision residual SpMV of MPIR (standard
            # mixed-precision IR practice: the residual must see A beyond
            # working precision, else the f32 rounding of A bounds accuracy).
            dw = DWArray.from_float64(wide)
            return dw.hi, dw.lo, dw.to_float64()

        values, diag = split(crs.values[entries]), split(crs.diag[self.perm])
        self.local: dict[int, dict] = {}
        row = 0
        for t in self.tiles:
            n_loc = plan.owned_count(t)
            rows = slice(row, row + n_loc)
            a, b = ptr[row], ptr[row + n_loc]
            row += n_loc
            local = {
                "rows_global": plan.owned_order[t],
                "n": n_loc,
                "diag": diag[0][rows], "diag_lo": diag[1][rows], "diag_ext": diag[2][rows],
                "values": values[0][a:b], "values_lo": values[1][a:b], "values_ext": values[2][a:b],
                "col_idx": plan.local_index(t, cols[a:b]).astype(np.int32),
                "row_ptr": (ptr[rows.start : rows.stop + 1] - a).astype(np.int32),
            }
            tile = device.tile(t)
            for key in ("diag", "values", "col_idx", "row_ptr", "values_lo", "diag_lo"):
                tile.alloc(f"{self.name}.{key}@{t}", local[key])
            local["segments"] = RowSegments(local["row_ptr"])
            local["row_of_entry"] = np.repeat(
                np.arange(n_loc, dtype=np.int32), np.diff(local["row_ptr"])
            )
            self.local[t] = local

    # -- vectors -------------------------------------------------------------------------

    def owned_mapping(self) -> list:
        """The tile intervals of every owned tensor :meth:`vector` allocates."""
        offset = 0
        mapping = []
        for t in self.tiles:
            c = self.plan.owned_count(t)
            mapping.append(Interval(t, offset, offset + c))
            offset += c
        return mapping

    def halo_mapping(self) -> tuple:
        """``(intervals, total)`` of every halo tensor :meth:`vector`
        allocates (tiles without a halo hold no interval)."""
        offset = 0
        mapping = []
        for t in self.tiles:
            c = self.plan.halo_count(t)
            if c:
                mapping.append(Interval(t, offset, offset + c))
                offset += c
        return mapping, offset

    def device_columns(self) -> dict:
        """Per tile, the index array taking a local column (owned prefix,
        halo suffix) into the whole-device ``[owned | halo]`` index space
        of this matrix's vectors: column ``c < n`` is row ``c`` of an owned
        buffer, column ``n + h`` is row ``h`` of the matching halo buffer
        (the mappings :meth:`vector` allocates)."""
        halo = {iv.tile_id: iv for iv in self.halo_mapping()[0]}
        columns = {}
        for iv in self.owned_mapping():
            parts = [np.arange(iv.start, iv.stop, dtype=np.intp)]
            if iv.tile_id in halo:
                h = halo[iv.tile_id]
                parts.append(np.arange(self.n + h.start, self.n + h.stop, dtype=np.intp))
            columns[iv.tile_id] = np.concatenate(parts)
        return columns

    def device_rows(self, batch: int = 1) -> SlotMajorRows:
        """The off-diagonal part of the whole matrix as one slot-major
        layout over the :meth:`device_columns` index space.  Every
        working-precision SpMV of this matrix with ``batch`` RHS columns
        shares the one instance — layout and scratch — which the fused
        kernels call in program order.
        """
        rows = self._device_rows.get(batch)
        if rows is None:
            columns = self.device_columns()
            locals_ = [self.local[t] for t in self.tiles]
            rows = self._device_rows[batch] = SlotMajorRows(
                np.concatenate([np.diff(loc["row_ptr"]) for loc in locals_]),
                np.concatenate([columns[t][self.local[t]["col_idx"]] for t in self.tiles]),
                np.concatenate([loc["values"] for loc in locals_]),
                () if batch == 1 else (batch,),
            )
        return rows

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
        """
        copies = self.plan.copies(vec.owned.var, vec.halo.var)
        by_src: dict[int, list] = {}
        for rc in copies:
            by_src.setdefault(rc.src_tile, []).append(rc)
        for t in sorted(by_src):
            self.ctx.append(Exchange(by_src[t], name="exchange"))

    def _worker_row_chunks(self, t: int, workers: int):
        """Contiguous row ranges per worker, balanced by nonzero count."""
        local = self.local[t]
        nnz_prefix = local["row_ptr"]
        n = local["n"]
        total = int(nnz_prefix[-1]) + n  # off-diag + diagonal work
        chunks = []
        start = 0
        for w in range(workers):
            target = (w + 1) * total / workers
            # Smallest end such that work(0..end) >= target.
            end = int(np.searchsorted(nnz_prefix[1:] + np.arange(1, n + 1), target)) + 1
            end = min(max(end, start), n)
            if w == workers - 1:
                end = n
            if end > start:
                chunks.append((start, end))
            start = end
        return chunks

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
        model = self.ctx.device.model
        workers = self.ctx.device.spec.workers_per_tile
        cs = ComputeSet(self.ctx.graph.unique_name("cs_spmv"), category=category)
        for t in self.tiles:
            local = self.local[t]
            chunks = self._worker_row_chunks(t, workers)

            def run(ctx, t=t, local=local):
                self._spmv_tile(t, local, x, y)

            def cycles(ctx, t=t, local=local, chunks=chunks):
                ptr = local["row_ptr"]
                # SpMM: every nonzero touches all `batch` RHS columns; the
                # vertex overhead amortizes across the batch (the PopSparse
                # effect the multi-RHS path exists for).
                return [
                    model.spmv_rows(
                        cost_dtype, int(ptr[e] - ptr[s]) * batch, (e - s) * batch
                    )
                    for s, e in chunks
                ] or [model.vertex_overhead]

            # Whole-device lowering only vectorizes the f32 working-precision
            # path; extended-precision SpMVs fall back to batched dispatch.
            spec = (
                SpmvSpec(self, x, y)
                if x.dtype == Type.FLOAT32 and y.dtype == Type.FLOAT32
                else None
            )
            cs.add_vertex(
                Codelet(f"spmv@{t}", run, cycles, category=category, spec=spec), t, {}
            )
        self.ctx.append(ExecuteStep(cs))

    def _spmv_tile(self, t: int, local: dict, x: DistVector, y: DistVector) -> None:
        n_loc = local["n"]
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

        # Extended precision: binary64 evaluation, stored per y.dtype.
        def wide(shard, dtype):
            if dtype == Type.DOUBLEWORD:
                return shard.data.astype(np.float64) + shard.lo.astype(np.float64)
            return shard.data.astype(np.float64)

        xo = wide(xo_sh, x.dtype)
        xfull = (
            np.concatenate([xo, wide(halo_sh, x.dtype)]) if halo_sh is not None else xo
        )
        contrib = local["values_ext"] * xfull[local["col_idx"]]
        sums = np.bincount(local["row_of_entry"], weights=contrib, minlength=n_loc)
        result = local["diag_ext"] * xo + sums
        if y.dtype == Type.DOUBLEWORD:
            hi = result.astype(np.float32)
            yo_sh.data[...] = hi
            yo_sh.lo[...] = (result - hi.astype(np.float64)).astype(np.float32)
        elif y.dtype == Type.FLOAT64:
            yo_sh.data[...] = result
        else:
            yo_sh.data[...] = result.astype(np.float32)
