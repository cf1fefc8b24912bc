"""Region-based halo-exchange reordering (Sec. IV — contribution 3).

Cells (matrix rows) fall into three classes per tile:

- **interior**: owned and required only by the owner,
- **separator**: owned by this tile but required by neighbors,
- **halo**: owned by neighbors but required by this tile.

A *region* is the largest group of separator cells with an identical set of
*involved tiles* (the neighbors requiring them).  The strategy orders cells
identically in each separator region and all its corresponding halo regions,
so a halo exchange is one blockwise broadcast copy per region — no
per-cell communication instructions and no local reordering.

:func:`build_halo_plan` implements the four steps of Sec. IV;
:func:`build_naive_plan` is the per-cell baseline in the style of
Burchard et al. [12], used by the ablation bench.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.program import RegionCopy
from repro.sparse.crs import ModifiedCRS
from repro.sparse.partition import Partition

__all__ = ["Region", "HaloPlan", "build_halo_plan", "build_naive_plan"]


@dataclass(frozen=True)
class Region:
    """A maximal group of separator cells with one involved-tile set."""

    rid: int
    owner: int
    receivers: tuple  # sorted tile ids requiring these cells
    cells: np.ndarray  # global row ids in the consistent (ascending) order

    @property
    def size(self) -> int:
        return self.cells.size


@dataclass
class HaloPlan:
    """Per-tile memory layouts and the blockwise exchange schedule.

    The local layout of the solution vector on tile ``t`` is
    ``[interior cells | separator regions...]`` for the owned part and
    ``[halo regions...]`` for the halo buffer (Fig. 3b).
    """

    partition: Partition
    regions: list
    owned_order: dict  # tile -> np.ndarray of global ids (local layout)
    halo_order: dict  # tile -> np.ndarray of global ids (halo layout)
    sep_offset: dict  # rid -> offset of the region in the owner's layout
    halo_offset: dict  # (tile, rid) -> offset in the tile's halo buffer
    blockwise: bool = True

    # -- sizes ---------------------------------------------------------------------

    def owned_count(self, tile: int) -> int:
        return self.owned_order[tile].size

    def halo_count(self, tile: int) -> int:
        return self.halo_order[tile].size

    def tiles(self):
        return sorted(self.owned_order)

    # -- index mapping ----------------------------------------------------------------

    def global_permutation(self) -> np.ndarray:
        """``perm[new_global] = old_global``: tiles concatenated in order,
        each tile's cells in its local layout order.  Applying this
        permutation to the matrix realizes the reordering strategy."""
        return np.concatenate([self.owned_order[t] for t in self.tiles()])

    def local_index(self, tile: int, cells) -> np.ndarray:
        """Local vector index on ``tile`` (owned prefix, then halo) of each
        global id in ``cells``, all of which the tile must hold."""
        ids = np.concatenate([self.owned_order[tile], self.halo_order[tile]])
        order = np.argsort(ids)
        return order[np.searchsorted(ids[order], cells)]

    # -- exchange -----------------------------------------------------------------------

    def copies(self, owned_var, halo_var) -> list:
        """RegionCopies updating every halo buffer from its separator region.

        ``owned_var``'s shard on each tile follows the owned layout;
        ``halo_var``'s shard follows the halo layout.
        """
        out = []
        for r in self.regions:
            if self.blockwise:
                out.append(
                    RegionCopy(
                        owned_var,
                        r.owner,
                        self.sep_offset[r.rid],
                        tuple((halo_var, t, self.halo_offset[(t, r.rid)]) for t in r.receivers),
                        r.size,
                    )
                )
            else:
                # Naive per-cell scheme: one instruction per cell (still
                # broadcast per cell, as the fabric allows).
                for k in range(r.size):
                    out.append(
                        RegionCopy(
                            owned_var,
                            r.owner,
                            self.sep_offset[r.rid] + k,
                            tuple(
                                (halo_var, t, self.halo_offset[(t, r.rid)] + k)
                                for t in r.receivers
                            ),
                            1,
                        )
                    )
        return out

    # -- statistics (what the reordering optimizes) ---------------------------------------

    def num_copy_instructions(self) -> int:
        """Communication-program size: one instruction per copy per
        participant (sender + receivers)."""
        total = 0
        for r in self.regions:
            per_copy = 1 + len(r.receivers)
            total += per_copy if self.blockwise else per_copy * r.size
        return total

    def total_halo_cells(self) -> int:
        return sum(self.halo_count(t) for t in self.tiles())

    def exchanged_bytes(self, element_bytes: int = 4, batch: int = 1) -> int:
        """Fabric payload of one halo exchange: every halo cell is written
        once per exchange, carrying all ``batch`` RHS columns of the cell.

        The exchange *count* is independent of ``batch`` (the schedule is
        identical); only the per-exchange payload scales — which is exactly
        the multi-RHS amortization the batched solvers exploit
        (``benchmarks/bench_multi_rhs.py`` reports bytes-per-RHS from this).
        """
        return self.total_halo_cells() * element_bytes * batch


def _slices(flat: np.ndarray, counts: np.ndarray) -> dict:
    """tile -> its run of ``flat``, which holds ``counts[t]`` entries per tile."""
    bounds = np.concatenate([[0], np.cumsum(counts)])
    return {t: flat[bounds[t] : bounds[t + 1]] for t in range(counts.size)}


def _build(matrix: ModifiedCRS, partition: Partition, blockwise: bool) -> HaloPlan:
    owner, parts = partition.owner, partition.num_parts
    # Every cell a foreign tile requires, once per requiring tile: sorted
    # unique (cell, tile) pairs, held as two arrays.
    row_owner = np.repeat(owner, matrix.rows_nnz())
    foreign = row_owner != owner[matrix.col_idx]
    req_cell, req_tile = np.divmod(
        np.unique(matrix.col_idx[foreign].astype(np.int64) * parts + row_owner[foreign]), parts
    )
    # Separator cells, ascending; cell i's involved tiles are
    # ``req_tile[first[i] : first[i] + involved[i]]``, ascending.
    sep, first, involved = np.unique(req_cell, return_index=True, return_counts=True)

    # Steps 1+2: group separator cells by (owner, involved-tile set).  The
    # region id is the cell's dense rank under that key — refined one
    # involved tile at a time, an exhausted set ranking before any tile, the
    # order in which tuples compare.
    rid = owner[sep]
    for k in range(int(involved.max(initial=0))):
        tile_k = np.zeros(sep.size, dtype=np.int64)
        more = involved > k
        tile_k[more] = req_tile[first[more] + k] + 1
        rid = np.unique(rid * (parts + 1) + tile_k, return_inverse=True)[1]

    # Per-tile owned layout: interior first, then separator regions.
    cell_rid = np.full(matrix.n, -1, dtype=np.int64)
    cell_rid[sep] = rid
    layout = np.lexsort((cell_rid, owner))  # ties keep ascending global id
    owned_counts = partition.counts()
    offset_in_tile = np.empty(matrix.n, dtype=np.int64)
    offset_in_tile[layout] = np.arange(matrix.n) - np.repeat(
        np.cumsum(owned_counts) - owned_counts, owned_counts
    )

    # Step 3: halo regions on each receiver, in (owner, rid) order — which
    # is rid order, regions being numbered owner-major.
    req_rid = np.repeat(rid, involved)
    halo_cells = req_cell[np.lexsort((req_cell, req_rid, req_tile))]

    # Step 4: one consistent order (ascending global id) everywhere.
    by_region = np.argsort(rid, kind="stable")
    cells = sep[by_region]
    regions, sep_offset, halo_offset = [], {}, {}
    halo_fill = [0] * parts
    a = 0
    for r, size in enumerate(np.bincount(rid).tolist()):
        i = by_region[a]
        receivers = tuple(req_tile[first[i] : first[i] + involved[i]].tolist())
        regions.append(Region(r, int(owner[sep[i]]), receivers, cells[a : a + size]))
        sep_offset[r] = int(offset_in_tile[sep[i]])
        for t in receivers:
            halo_offset[(t, r)] = halo_fill[t]
            halo_fill[t] += size
        a += size
    return HaloPlan(
        partition,
        regions,
        owned_order=_slices(layout, owned_counts),
        halo_order=_slices(halo_cells, np.bincount(req_tile, minlength=parts)),
        sep_offset=sep_offset,
        halo_offset=halo_offset,
        blockwise=blockwise,
    )


def build_halo_plan(matrix: ModifiedCRS, partition: Partition) -> HaloPlan:
    """The paper's region-based blockwise strategy (Sec. IV steps 1–4)."""
    return _build(matrix, partition, blockwise=True)


def build_naive_plan(matrix: ModifiedCRS, partition: Partition) -> HaloPlan:
    """Per-cell exchange baseline: same data, one instruction per cell."""
    return _build(matrix, partition, blockwise=False)
