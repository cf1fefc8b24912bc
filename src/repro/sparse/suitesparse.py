"""Benchmark matrices: synthetic doubles of the paper's SuiteSparse set.

The paper evaluates on four SuiteSparse matrices (Table II) — all real,
symmetric, positive definite.  The collection is not available offline and
the originals (0.5–1.6 M rows) exceed laptop-scale simulation, so this
module generates *structural doubles*: SPD matrices of the same class
(graph-Laplacian based, hence symmetric positive definite by construction)
that preserve each original's character at a configurable reduced size:

==============  ======================================  ====================
paper matrix    character                               double
==============  ======================================  ====================
G3_circuit      circuit simulation; ~4.9 nnz/row;       2-D grid Laplacian +
                irregular long-range connections        random long edges
af_shell7       sheet-metal shell; ~35 nnz/row;         thin 3-D slab with a
                thin 3-D structure, wide stencil        27-point Laplacian
Geo_1438        geomechanics; ~44 nnz/row; 3-D,         anisotropic 3-D
                anisotropic stiffness                   27-point Laplacian
Hook_1498       steel hook elasticity; ~41 nnz/row;     3-D 27-point with
                strong material-coefficient jumps       1e4 contrast regions
==============  ======================================  ====================

Each generator documents why the substitution preserves the behaviour the
experiments measure (structure class, nnz/row, SPD-ness, conditioning).
Users with the real files can load them via :func:`load_matrix_market`.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.sparse.crs import ModifiedCRS

__all__ = [
    "g3_circuit_like",
    "af_shell_like",
    "geo_like",
    "hook_like",
    "load_matrix_market",
    "MATRICES",
    "PAPER_STATS",
]


def _laplacian_from_edges(n, rows, cols, weights, shift=1e-3) -> sp.csr_matrix:
    """SPD graph Laplacian  L = D - W + shift*I  from an undirected edge list."""
    w = sp.coo_matrix((weights, (rows, cols)), shape=(n, n))
    w = w + w.T
    degree = np.asarray(w.sum(axis=1)).ravel()
    return (sp.diags(degree + shift) - w).tocsr()


def _grid_edges(dims, offsets, weight_fn, rng):
    """Edge list of a structured grid graph for the given positive offsets."""
    nd = len(dims)
    idx = np.arange(int(np.prod(dims))).reshape(dims[::-1])  # z,y,x layout
    rows, cols, weights = [], [], []
    for off in offsets:
        src = [slice(None)] * nd
        dst = [slice(None)] * nd
        for axis, d in enumerate(off):  # off = (dx, dy, dz, ...)
            ax = nd - 1 - axis  # numpy axis for this coordinate
            if d == 0:
                continue
            if d > 0:
                src[ax] = slice(0, dims[axis] - d)
                dst[ax] = slice(d, dims[axis])
            else:
                src[ax] = slice(-d, dims[axis])
                dst[ax] = slice(0, dims[axis] + d)
        i = idx[tuple(src)].ravel()
        j = idx[tuple(dst)].ravel()
        rows.append(i)
        cols.append(j)
        weights.append(weight_fn(i, j, off, rng))
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(weights)


def _offsets_27():
    """One representative offset per undirected neighbor pair of the full
    26-neighbor stencil (13 offsets; the Laplacian builder symmetrizes)."""
    offs = [
        (dx, dy, dz)
        for dx in (-1, 0, 1)
        for dy in (-1, 0, 1)
        for dz in (-1, 0, 1)
        if (dx, dy, dz) != (0, 0, 0)
    ]
    return [o for o in offs if o > tuple(-c for c in o)]


def g3_circuit_like(grid: int = 110, extra_edge_frac: float = 0.04,
                    seed: int = 0, shift: float = 1e-4):
    """Circuit-simulation double of *G3_circuit*.

    A 2-D grid Laplacian (≈5 nnz/row like the original's 4.86) with a
    sprinkling of random long-range "wire" edges that break the pure grid
    structure — the feature that makes circuit matrices partition worse than
    mesh matrices.  SPD by construction.
    """
    rng = np.random.default_rng(seed)
    n = grid * grid
    rows, cols, weights = _grid_edges(
        (grid, grid), [(1, 0), (0, 1)], lambda i, j, o, r: r.uniform(0.5, 2.0, i.size), rng
    )
    m = int(extra_edge_frac * n)
    ri = rng.integers(0, n, m)
    rj = rng.integers(0, n, m)
    keep = ri != rj
    rows = np.concatenate([rows, ri[keep]])
    cols = np.concatenate([cols, rj[keep]])
    weights = np.concatenate([weights, rng.uniform(0.1, 1.0, keep.sum())])
    return ModifiedCRS.from_scipy(_laplacian_from_edges(n, rows, cols, weights, shift=shift))


def af_shell_like(nx: int = 56, ny: int = 56, layers: int = 4, seed: int = 1, shift: float = 1e-4):
    """Sheet-metal-shell double of *af_shell7*.

    A thin 3-D slab (a shell has large in-plane extent, few through-thickness
    layers) with the full 27-point coupling — matching the original's wide
    ~35 nnz/row stencil and quasi-2-D connectivity.  SPD by construction.
    """
    rng = np.random.default_rng(seed)
    dims = (nx, ny, layers)
    rows, cols, weights = _grid_edges(
        dims,
        _offsets_27(),
        lambda i, j, o, r: np.full(i.size, 1.0 / (abs(o[0]) + abs(o[1]) + abs(o[2]))),
        rng,
    )
    return ModifiedCRS.from_scipy(
        _laplacian_from_edges(int(np.prod(dims)), rows, cols, weights, shift=shift)
    )


def geo_like(nx: int = 24, ny: int = 24, nz: int = 24, anisotropy: float = 25.0,
             seed: int = 2, shift: float = 1e-3):
    """Geomechanics double of *Geo_1438*.

    A 3-D 27-point Laplacian (≈44 nnz/row in the original) with anisotropic
    vertical stiffness — geological strata are much stiffer vertically than
    horizontally, which is what drives the original's conditioning.
    """
    rng = np.random.default_rng(seed)

    def weight(i, j, off, r):
        base = 1.0 / (abs(off[0]) + abs(off[1]) + abs(off[2]))
        return np.full(i.size, base * (anisotropy if off[2] != 0 else 1.0))

    dims = (nx, ny, nz)
    rows, cols, weights = _grid_edges(dims, _offsets_27(), weight, rng)
    return ModifiedCRS.from_scipy(
        _laplacian_from_edges(int(np.prod(dims)), rows, cols, weights, shift=shift)
    )


def hook_like(nx: int = 24, ny: int = 24, nz: int = 24, contrast: float = 1e4,
              seed: int = 3, shift: float = 1e-1):
    """Steel-hook double of *Hook_1498*.

    A 3-D 27-point Laplacian whose coefficients jump by ``contrast`` between
    two material regions (steel vs. void/filler in the original), producing
    the high condition number that makes Hook_1498 the slowest-converging of
    the four.
    """
    rng = np.random.default_rng(seed)
    n = nx * ny * nz
    # Material field: a hard inclusion occupying a corner octant.
    z, y, x = np.meshgrid(range(nz), range(ny), range(nx), indexing="ij")
    hard = ((x.ravel() < nx // 2) & (y.ravel() < ny // 2)).astype(np.float64)
    coeff = 1.0 + hard * (contrast - 1.0)

    def weight(i, j, off, r):
        # Harmonic mean of the two endpoints' coefficients (standard FV).
        ci, cj = coeff[i], coeff[j]
        return 2.0 * ci * cj / (ci + cj) / (abs(off[0]) + abs(off[1]) + abs(off[2]))

    rows, cols, weights = _grid_edges((nx, ny, nz), _offsets_27(), weight, rng)
    return ModifiedCRS.from_scipy(_laplacian_from_edges(n, rows, cols, weights, shift=shift))


def load_matrix_market(path) -> ModifiedCRS:
    """Load a real SuiteSparse matrix from a Matrix-Market file."""
    from scipy.io import mmread

    return ModifiedCRS.from_scipy(mmread(str(path)).tocsr())


#: Registry used by the benchmark harness: name -> zero-arg generator.
MATRICES = {
    "G3_circuit": g3_circuit_like,
    "af_shell7": af_shell_like,
    "Geo_1438": geo_like,
    "Hook_1498": hook_like,
}

#: Table II of the paper: the original matrices' sizes (for scale factors).
PAPER_STATS = {
    "G3_circuit": {"rows": 1.6e6, "entries": 7.7e6},
    "af_shell7": {"rows": 0.5e6, "entries": 17.6e6},
    "Geo_1438": {"rows": 1.4e6, "entries": 63.1e6},
    "Hook_1498": {"rows": 1.5e6, "entries": 60.9e6},
}
