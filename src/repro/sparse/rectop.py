"""Rectangular distributed operators (grid-transfer machinery).

``DistributedRectOp`` applies an arbitrary rectangular sparse operator
``y = R x`` between two *differently distributed* vectors — the primitive
multigrid restriction/prolongation needs.  Unlike the square-matrix halo
machinery of Sec. IV (where a consistent cell ordering makes every exchange
a single blockwise copy), a general rectangular operator's remote operands
are scattered in their owners' layouts, so each source tile first *packs*
them into a contiguous staging buffer (a local gather codelet — exactly the
"requires reordering" cost Burchard et al.'s schemes pay) and then ships
one blockwise region per destination tile.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.graph import Exchange, RegionCopy
from repro.graph.codelet import Codelet, ComputeSet
from repro.graph.program import Execute as ExecuteStep
from repro.sparse.distribute import DistVector, RowSegments

__all__ = ["DistributedRectOp"]


class DistributedRectOp:
    """Distributed ``y = R x`` with output rows owned like ``out_matrix``'s
    vectors and input columns read from ``in_matrix``'s vectors."""

    def __init__(self, ctx, R, out_matrix, in_matrix, name: str | None = None):
        R = sp.csr_matrix(R)
        if R.shape[0] != out_matrix.n or R.shape[1] != in_matrix.n:
            raise ValueError(
                f"operator shape {R.shape} does not map "
                f"n={in_matrix.n} onto n={out_matrix.n}"
            )
        self.ctx = ctx
        self.out_matrix = out_matrix
        self.in_matrix = in_matrix
        self.name = name or ctx.graph.unique_name("rect")
        self._build(R)

    def _build(self, R: sp.csr_matrix) -> None:
        out_plan = self.out_matrix.plan
        in_plan = self.in_matrix.plan
        in_owner = self.in_matrix.partition.owner

        self.local: dict[int, dict] = {}
        #: (src_tile, dst_tile) -> sorted global input cells staged across.
        self.pair_cells: dict[tuple, np.ndarray] = {}

        for t in self.out_matrix.tiles:
            rows_global = out_plan.owned_order[t]  # output layout order
            sub = R[rows_global]  # rows in local output order
            n_owned_in = in_plan.owned_count(t)
            remote = in_owner[sub.indices] != t
            cells_needed = np.unique(sub.indices[remote]).astype(np.int64)

            # The tile's input view: [its owned input shard | staging halo],
            # the halo staged per source tile in ascending (source, cell) order.
            by_source = np.argsort(in_owner[cells_needed], kind="stable")
            staged = cells_needed[by_source]
            sources, first = np.unique(in_owner[staged], return_index=True)
            for src, cells in zip(sources.tolist(), np.split(staged, first[1:])):
                self.pair_cells[(src, t)] = cells

            cols_local = np.empty(sub.indices.size, dtype=np.int32)
            cols_local[~remote] = in_plan.local_index(t, sub.indices[~remote])
            slot = np.argsort(by_source)  # cells_needed[j] is staged at slot[j]
            cols_local[remote] = n_owned_in + slot[
                np.searchsorted(cells_needed, sub.indices[remote])
            ]
            self.local[t] = {
                "n_rows": rows_global.size,
                "segments": RowSegments(sub.indptr),
                "cols": cols_local,
                "vals": sub.data.astype(np.float32),
                "stage_size": staged.size,
                "n_owned_in": n_owned_in,
            }

        # Staging buffers: one per communicating pair, plus the per-tile
        # receive halo.  Allocated in tile SRAM.
        self._stage_send = {}
        self._recv = {}
        for (src, dst), cells in self.pair_cells.items():
            self._stage_send[(src, dst)] = self.ctx.graph.add_single_tile(
                self.ctx.graph.unique_name(f"{self.name}.stage"),
                (cells.size,), "float32", tile_id=src,
            )
        for t in self.out_matrix.tiles:
            size = self.local[t]["stage_size"]
            if size:
                self._recv[t] = self.ctx.graph.add_single_tile(
                    self.ctx.graph.unique_name(f"{self.name}.recv"),
                    (size,), "float32", tile_id=t,
                )
        # Receive offsets per pair (in ascending src order, matching stage_index).
        self._recv_offset = {}
        for t in self.out_matrix.tiles:
            offset = 0
            for src in sorted(s for (s, d) in self.pair_cells if d == t):
                self._recv_offset[(src, t)] = offset
                offset += self.pair_cells[(src, t)].size

    # -- program steps ------------------------------------------------------------------

    def apply(self, x: DistVector, y: DistVector) -> None:
        """Append the steps computing ``y = R x``."""
        if x.matrix is not self.in_matrix or y.matrix is not self.out_matrix:
            raise ValueError("vectors do not match this operator's distributions")
        model = self.ctx.device.model
        in_plan = self.in_matrix.plan

        # Phase 1: pack codelets on every source tile.
        if self.pair_cells:
            cs_pack = ComputeSet(self.ctx.graph.unique_name("cs_pack"), category="transfer")
            for (src, dst), cells in self.pair_cells.items():
                positions = in_plan.local_index(src, cells)
                stage = self._stage_send[(src, dst)]

                def run(ctx, src=src, positions=positions, stage=stage):
                    stage.shard(src).data[...] = x.owned.var.shard(src).data[positions]

                def cycles(ctx, n=cells.size):
                    # One load+store per element, no overlap (gather).
                    return model.vertex_overhead + n * 4

                cs_pack.add_vertex(Codelet("pack", run, cycles, category="transfer"), src, {})
            self.ctx.append(ExecuteStep(cs_pack))

            # Phase 2: one blockwise copy per communicating pair.
            copies = [
                RegionCopy(
                    self._stage_send[(src, dst)], src, 0,
                    ((self._recv[dst], dst, self._recv_offset[(src, dst)]),),
                    cells.size,
                )
                for (src, dst), cells in self.pair_cells.items()
            ]
            self.ctx.append(Exchange(copies, name="exchange"))

        # Phase 3: the local sparse apply on every output tile.
        cs = ComputeSet(self.ctx.graph.unique_name("cs_rect"), category="transfer")
        workers = self.ctx.device.spec.workers_per_tile
        for t in self.out_matrix.tiles:
            loc = self.local[t]

            def run(ctx, t=t, loc=loc):
                xin = x.owned.var.shard(t).data
                if loc["stage_size"]:
                    xin = np.concatenate([xin, self._recv[t].shard(t).data])
                contrib = loc["vals"] * xin[loc["cols"]]
                y.owned.var.shard(t).data[...] = loc["segments"].sums(contrib)

            def cycles(ctx, loc=loc):
                nnz = loc["vals"].size
                rows = loc["n_rows"]
                per_worker_nnz = -(-nnz // workers)
                per_worker_rows = -(-rows // workers)
                return [model.spmv_rows("float32", per_worker_nnz, per_worker_rows)] * min(
                    workers, max(rows, 1)
                )

            cs.add_vertex(Codelet(f"rect@{t}", run, cycles, category="transfer"), t, {})
        self.ctx.append(ExecuteStep(cs))
