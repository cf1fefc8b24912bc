"""Row-wise matrix partitioning across tiles (Sec. II-B / IV).

The matrix is conceptualized as a mesh of cells (rows); partitioning assigns
each cell to a tile.  Two strategies:

- **grid**: block decomposition of a structured grid (the Poisson scaling
  benches) — near-cubic tile subdomains minimize the surface-to-volume
  ratio, i.e. the halo size.
- **graph**: for general matrices, a bandwidth-reducing ordering (reverse
  Cuthill-McKee) chunked into equal contiguous pieces — locality-preserving
  subdomains with small separators, without an external partitioner.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np
import scipy.sparse as sp

from repro.sparse.crs import ModifiedCRS

__all__ = ["Partition", "partition_rows", "partition_grid", "partition_graph", "grid_factors"]


@dataclass
class Partition:
    """Assignment of matrix rows to tiles."""

    owner: np.ndarray  # row -> tile id
    num_parts: int

    def __post_init__(self):
        self.owner = np.asarray(self.owner, dtype=np.int64)

    def rows_of(self, tile: int) -> np.ndarray:
        """Rows owned by ``tile``, ascending."""
        return np.flatnonzero(self.owner == tile)

    def counts(self) -> np.ndarray:
        return np.bincount(self.owner, minlength=self.num_parts)

    @property
    def n(self) -> int:
        return self.owner.size


@cache  # every solve's input gate asks (repro.solvers.ProgramShape.of)
def grid_factors(parts: int, ndim: int) -> tuple:
    """Factor ``parts`` into ``ndim`` near-equal factors (px*py*pz = parts)."""
    factors = [1] * ndim
    remaining = parts
    for axis in range(ndim - 1):
        target = round(remaining ** (1.0 / (ndim - axis)))
        best = 1
        for f in range(1, remaining + 1):
            if remaining % f == 0 and abs(f - target) < abs(best - target):
                best = f
        factors[axis] = best
        remaining //= best
    factors[ndim - 1] = remaining
    return tuple(factors)


def partition_grid(dims, parts: int) -> Partition:
    """Block-decompose a structured grid of ``dims = (nx[, ny[, nz]])``."""
    dims = tuple(dims)
    ndim = len(dims)
    pf = grid_factors(parts, ndim)
    if any(p > d for p, d in zip(pf, dims)):
        raise ValueError(f"cannot split grid {dims} into {pf} blocks")
    # Block index of each coordinate along each axis.
    axis_block = [
        np.minimum((np.arange(d) * p) // d, p - 1) for d, p in zip(dims, pf)
    ]
    # Row index convention: x + nx*(y + ny*z).
    grids = np.indices(dims)  # shape (ndim, *dims), index [axis][x,y,z]
    flat = np.zeros(dims, dtype=np.int64)
    blk = np.zeros(dims, dtype=np.int64)
    stride = 1
    for axis in range(ndim):
        flat += grids[axis] * stride
        stride *= dims[axis]
    bstride = 1
    for axis in range(ndim):
        blk += axis_block[axis][grids[axis]] * bstride
        bstride *= pf[axis]
    owner = np.zeros(int(np.prod(dims)), dtype=np.int64)
    owner[flat.ravel()] = blk.ravel()
    return Partition(owner=owner, num_parts=parts)


def partition_graph(matrix: ModifiedCRS, parts: int) -> Partition:
    """Chunk a reverse-Cuthill-McKee ordering into equal contiguous pieces."""
    from scipy.sparse.csgraph import reverse_cuthill_mckee  # loaded on first use: heavy

    adj = sp.csr_matrix(
        (np.ones_like(matrix.values), matrix.col_idx, matrix.row_ptr),
        shape=matrix.shape,
    )
    order = reverse_cuthill_mckee(adj, symmetric_mode=True)
    owner = np.empty(matrix.n, dtype=np.int64)
    bounds = np.linspace(0, matrix.n, parts + 1).astype(np.int64)
    for t in range(parts):
        owner[order[bounds[t] : bounds[t + 1]]] = t
    return Partition(owner=owner, num_parts=parts)


def partition_rows(matrix: ModifiedCRS, parts: int, grid_dims=None) -> Partition:
    """Partition ``matrix`` rows over ``parts`` tiles.

    With ``grid_dims`` the structured block decomposition is used; otherwise
    the general graph strategy.
    """
    if parts < 1:
        raise ValueError("need at least one part")
    if parts == 1:
        return Partition(owner=np.zeros(matrix.n, dtype=np.int64), num_parts=1)
    if grid_dims is not None:
        part = partition_grid(grid_dims, parts)
        if part.n != matrix.n:
            raise ValueError("grid_dims inconsistent with matrix size")
        return part
    return partition_graph(matrix, parts)
