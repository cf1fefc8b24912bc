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
from functools import cached_property

import numpy as np

from repro.graph.program import (
    COPY,
    DST_OFFSET,
    DST_TILE,
    DST_VAR,
    SIZE,
    SRC_OFFSET,
    SRC_TILE,
)
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


@dataclass(eq=False)
class HaloPlan:
    """Per-tile memory layouts and the blockwise exchange schedule.

    The local layout of the solution vector on tile ``t`` is
    ``[interior cells | separator regions...]`` for the owned part and
    ``[halo regions...]`` for the halo buffer (Fig. 3b).  The regions are
    arrays, indexed by region id: region ``r`` is owned by
    ``region_owner[r]``, holds ``region_cells[region_start[r] :
    region_start[r + 1]]`` and sits at ``region_offset[r]`` in its owner's
    layout; ``receivers`` has one ``(region, tile, halo offset)`` row per
    tile requiring a region, region-major, tiles ascending.
    """

    partition: Partition
    owned_order: dict  # tile -> np.ndarray of global ids (local layout)
    halo_order: dict  # tile -> np.ndarray of global ids (halo layout)
    owned_offset: np.ndarray  # global id -> its offset in its owner's layout
    region_owner: np.ndarray
    region_offset: np.ndarray
    region_start: np.ndarray  # region id -> first of its cells; one more entry at the end
    region_cells: np.ndarray  # separator cells, region by region, ascending within each
    receivers: np.ndarray  # (pairs, 3) int64: region, receiving tile, offset in its halo
    blockwise: bool = True

    # -- the regions as objects (inspection, the Schur interface) --------------------

    @cached_property
    def regions(self) -> list:
        """The regions as :class:`Region` objects, by region id."""
        bounds = np.searchsorted(self.receivers[:, 0], np.arange(len(self.region_owner) + 1))
        tiles = self.receivers[:, 1].tolist()
        cells = self.region_cells
        return [
            Region(r, owner, tuple(tiles[bounds[r] : bounds[r + 1]]), cells[a:b])
            for r, (owner, a, b) in enumerate(zip(
                self.region_owner.tolist(), self.region_start[:-1].tolist(),
                self.region_start[1:].tolist()))
        ]

    @cached_property
    def sep_offset(self) -> dict:
        """rid -> offset of the region in the owner's layout."""
        return dict(enumerate(self.region_offset.tolist()))

    @cached_property
    def halo_offset(self) -> dict:
        """(tile, rid) -> offset of the region in the tile's halo buffer."""
        return {(t, r): offset for r, t, offset in self.receivers.tolist()}

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

    def local_index(self, tiles, cells) -> np.ndarray:
        """Local vector index (owned prefix, then halo) of each global id in
        ``cells`` on ``tiles`` — one tile, or one per cell — which must hold
        it: an owned cell's offset in its owner's layout, a halo cell's slot
        in the tile's halo after the owned prefix."""
        cells = np.asarray(cells, dtype=np.int64)
        tiles = np.broadcast_to(np.asarray(tiles, dtype=np.int64), cells.shape)
        out = self.owned_offset[cells]
        foreign = np.flatnonzero(self.partition.owner[cells] != tiles)
        if foreign.size:
            keys, slots = self._halo_slots
            at = np.searchsorted(keys, tiles[foreign] * self.partition.n + cells[foreign])
            out[foreign] = self.partition.counts()[tiles[foreign]] + slots[at]
        return out

    @cached_property
    def _halo_slots(self) -> tuple:
        """Every halo cell keyed by ``tile * n + cell``, sorted, beside its
        slot in that tile's halo."""
        n = self.partition.n
        keys = np.concatenate([t * n + ids for t, ids in self.halo_order.items()])
        slots = np.concatenate([np.arange(ids.size) for ids in self.halo_order.values()])
        order = np.argsort(keys)
        return keys[order], slots[order]

    # -- exchange -----------------------------------------------------------------------

    @cached_property
    def copies(self) -> np.ndarray:
        """The copy table (:data:`repro.graph.program.COPY` ... ``SIZE``
        columns) updating every halo buffer from its separator region:
        variable 0 is an owned vector (owned layout), variable 1 its halo
        buffer (halo layout).  One copy per region, a row per receiver;
        the naive scheme copies each cell on its own (still broadcast per
        cell, as the fabric allows).  Rows run owner by owner."""
        size = np.diff(self.region_start)
        region, tile, offset = self.receivers.T
        pairs = np.searchsorted(region, np.arange(size.size + 1))
        fanout = np.diff(pairs)
        pieces = np.ones_like(size) if self.blockwise else size  # copies per region
        length = size if self.blockwise else np.ones_like(size)  # cells per copy
        rows = pieces * fanout
        row_region = np.repeat(np.arange(size.size), rows)
        w = np.arange(rows.sum()) - np.repeat(np.cumsum(rows) - rows, rows)
        piece = w // fanout[row_region]
        pair = pairs[row_region] + w % fanout[row_region]
        shift = piece * length[row_region]
        table = np.zeros((row_region.size, 8), dtype=np.int64)
        table[:, COPY] = (np.cumsum(pieces) - pieces)[row_region] + piece
        table[:, SRC_TILE] = self.region_owner[row_region]
        table[:, SRC_OFFSET] = self.region_offset[row_region] + shift
        table[:, DST_VAR] = 1
        table[:, DST_TILE] = tile[pair]
        table[:, DST_OFFSET] = offset[pair] + shift
        table[:, SIZE] = length[row_region]
        return table

    # -- statistics (what the reordering optimizes) ---------------------------------------

    def num_copy_instructions(self) -> int:
        """Communication-program size: one instruction per copy per
        participant (sender + receivers)."""
        table = self.copies
        return len(table) + (int(table[-1, COPY]) + 1 if len(table) else 0)

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
    pairs = np.sort(matrix.col_idx[foreign].astype(np.int64) * parts + row_owner[foreign])
    # (A sort and a mask: cheaper here than np.unique's hashing.)
    req_cell, req_tile = np.divmod(pairs[np.diff(pairs, prepend=-1) != 0], parts)
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
    size = np.bincount(rid)
    region_start = np.concatenate([[0], np.cumsum(size)])
    head_at = by_region[region_start[:-1]]  # each region's first separator cell
    head = sep[head_at]
    # Each region's receivers, region-major: its first cell's involved tiles.
    fanout = involved[head_at]
    pair_region = np.repeat(np.arange(size.size), fanout)
    pair_tile = req_tile[np.repeat(first[head_at] - (np.cumsum(fanout) - fanout), fanout)
                         + np.arange(fanout.sum())]
    # A region's offset in a receiver's halo: the sizes of the regions that
    # tile receives before it (in region order, as in ``halo_cells``).
    by_tile = np.lexsort((pair_region, pair_tile))
    sizes = size[pair_region[by_tile]]
    before = np.cumsum(sizes) - sizes
    tile_first = np.flatnonzero(np.diff(pair_tile[by_tile], prepend=-1))
    pair_offset = np.empty_like(before)
    pair_offset[by_tile] = before - np.repeat(before[tile_first],
                                              np.diff(np.append(tile_first, by_tile.size)))
    return HaloPlan(
        partition,
        owned_order=_slices(layout, owned_counts),
        halo_order=_slices(halo_cells, np.bincount(req_tile, minlength=parts)),
        owned_offset=offset_in_tile,
        region_owner=owner[head],
        region_offset=offset_in_tile[head],
        region_start=region_start,
        region_cells=sep[by_region],
        receivers=np.stack([pair_region, pair_tile, pair_offset], axis=1).astype(np.int64),
        blockwise=blockwise,
    )


def build_halo_plan(matrix: ModifiedCRS, partition: Partition) -> HaloPlan:
    """The paper's region-based blockwise strategy (Sec. IV steps 1–4)."""
    return _build(matrix, partition, blockwise=True)


def build_naive_plan(matrix: ModifiedCRS, partition: Partition) -> HaloPlan:
    """Per-cell exchange baseline: same data, one instruction per cell."""
    return _build(matrix, partition, blockwise=False)
