"""Geometric multigrid (V-cycle) for structured-grid problems.

The paper motivates Gauss-Seidel by its "smoothing properties … as a
smoother in multigrid algorithms" (Sec. V-D) but stops short of a multigrid
solver; this module builds one on the framework's pieces:

- a hierarchy of Galerkin-coarsened operators ``A_{l+1} = R A_l P``,
  each distributed across the tiles with its own Sec.-IV halo plan,
- linear-interpolation prolongation / full-weighting restriction applied
  as :class:`~repro.sparse.rectop.DistributedRectOp` transfers,
- level-set-scheduled Gauss-Seidel smoothing on every level,
- a direct coarsest-grid solve on a single tile (gather → LU → scatter).

Usable standalone (V-cycles to a tolerance) or — like every framework
solver — as a preconditioner, e.g. for PBiCGStab.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.graph import Exchange, RegionCopy
from repro.graph.codelet import Codelet, ComputeSet
from repro.graph.program import Execute as ExecuteStep
from repro.solvers.base import Solver
from repro.sparse.crs import ModifiedCRS
from repro.sparse.distribute import DistributedMatrix
from repro.sparse.rectop import DistributedRectOp

__all__ = ["Multigrid", "interpolation_1d", "build_transfer"]


def interpolation_1d(n_fine: int, n_coarse: int) -> sp.csr_matrix:
    """1-D linear interpolation from even-index coarse vertices."""
    rows, cols, vals = [], [], []
    for f in range(n_fine):
        c, rem = divmod(f, 2)
        if rem == 0:
            rows.append(f), cols.append(c), vals.append(1.0)
        else:
            rows.append(f), cols.append(c), vals.append(0.5)
            if c + 1 < n_coarse:
                rows.append(f), cols.append(c + 1), vals.append(0.5)
            else:
                rows.append(f), cols.append(c), vals.append(0.5)
    return sp.csr_matrix((vals, (rows, cols)), shape=(n_fine, n_coarse))


def build_transfer(dims):
    """(P, coarse_dims): d-dimensional prolongation as a Kronecker product
    matching the row convention ``x + nx*(y + ny*z)``."""
    dims = tuple(dims)
    coarse = tuple((d + 1) // 2 for d in dims)
    p = interpolation_1d(dims[0], coarse[0])
    for axis in range(1, len(dims)):
        p = sp.kron(interpolation_1d(dims[axis], coarse[axis]), p, format="csr")
    return p.tocsr(), coarse


class Multigrid(Solver):
    name = "multigrid"

    def __init__(
        self,
        A: DistributedMatrix,
        grid_dims,
        levels: int | None = None,
        pre_smooth: int = 1,
        post_smooth: int = 1,
        cycles: int = 10,
        coarsest_size: int = 64,
        coarse_tile: int = 0,
        smoother: dict | None = None,
        **params,
    ):
        super().__init__(A, levels=levels, pre_smooth=pre_smooth,
                         post_smooth=post_smooth, cycles=cycles, **params)
        self.grid_dims = tuple(grid_dims)
        self.levels_requested = levels
        self.pre_smooth = pre_smooth
        self.post_smooth = post_smooth
        self.cycles = cycles
        self.coarsest_size = coarsest_size
        self.coarse_tile = coarse_tile
        #: Smoother config (any framework solver); default: 1 GS sweep.
        self.smoother_cfg = smoother or {"solver": "gauss_seidel", "sweeps": 1}

    # -- hierarchy construction -----------------------------------------------------

    def _setup(self) -> None:
        if int(np.prod(self.grid_dims)) != self.A.n:
            raise ValueError("grid_dims inconsistent with the matrix size")
        ctx = self.ctx
        self.hierarchy = [{"A": self.A, "dims": self.grid_dims}]
        dims = self.grid_dims
        crs = self.A.crs
        level = 0
        while True:
            n_coarse = int(np.prod(tuple((d + 1) // 2 for d in dims)))
            if n_coarse < self.coarsest_size or n_coarse == int(np.prod(dims)):
                break
            if self.levels_requested is not None and level + 1 >= self.levels_requested:
                break
            p, coarse_dims = build_transfer(dims)
            r = (p.T * (1.0 / 2 ** len(dims))).tocsr()
            a_c = ModifiedCRS.from_scipy(r @ crs.to_scipy() @ p)
            A_fine = self.hierarchy[-1]["A"]
            tiles = min(len(A_fine.tiles), a_c.n)
            A_coarse = DistributedMatrix(
                ctx, a_c, num_tiles=tiles, grid_dims=coarse_dims,
                name=ctx.graph.unique_name("A_mg"),
            )
            entry = {
                "A": A_coarse,
                "dims": coarse_dims,
                "R": DistributedRectOp(ctx, r, A_coarse, A_fine),
                "P": DistributedRectOp(ctx, p, A_fine, A_coarse),
            }
            self.hierarchy.append(entry)
            dims, crs = coarse_dims, a_c
            level += 1

        # Smoothers and per-level workspaces.
        from repro.solvers.config import build_solver  # local: avoids a cycle

        for lv in self.hierarchy:
            lv["smoother"] = build_solver(lv["A"], self.smoother_cfg)
            lv["smoother"].setup()
            lv["r"] = lv["A"].vector(name=ctx.graph.unique_name("mg.r"))
            lv["ax"] = lv["A"].vector(name=ctx.graph.unique_name("mg.ax"))
            lv["b"] = lv["A"].vector(name=ctx.graph.unique_name("mg.b"))
            lv["x"] = lv["A"].vector(name=ctx.graph.unique_name("mg.x"))

        # Coarsest-grid direct factorization (in the plan's layout order).
        coarsest = self.hierarchy[-1]["A"]
        perm = coarsest.perm
        import scipy.sparse.linalg as spla  # loaded on first use: a heavy module

        a_perm = sp.csc_matrix(coarsest.crs.to_scipy()[np.ix_(perm, perm)])
        self._coarse_lu = spla.splu(a_perm)
        self._coarse_gather = ctx.graph.add_single_tile(
            ctx.graph.unique_name("mg.coarse"), (coarsest.n,), "float32",
            tile_id=self.coarse_tile,
        )

    @property
    def num_levels(self) -> int:
        return len(self.hierarchy)

    # -- coarsest solve ----------------------------------------------------------------

    def _coarse_solve(self, x, b) -> None:
        """Gather b to one tile, LU-solve, scatter into x."""
        coarsest = self.hierarchy[-1]["A"]
        gvec = self._coarse_gather
        model = self.ctx.device.model

        offset = 0
        gather, scatter = [], []
        for t in coarsest.tiles:
            count = coarsest.plan.owned_count(t)
            gather.append(RegionCopy(b.owned.var, t, 0, ((gvec, self.coarse_tile, offset),), count))
            dest = (x.owned.var, t, 0)
            scatter.append(RegionCopy(gvec, self.coarse_tile, offset, (dest,), count))
            offset += count
        self.ctx.append(Exchange(gather, name="exchange"))

        lu = self._coarse_lu
        lu_nnz = int(lu.L.nnz + lu.U.nnz)

        def run(ctx):
            sh = gvec.shard(self.coarse_tile)
            sh.data[...] = lu.solve(sh.data.astype(np.float64)).astype(np.float32)

        def cycles(ctx):
            return model.triangular_rows("float32", lu_nnz, coarsest.n)

        cs = ComputeSet(self.ctx.graph.unique_name("cs_mg_coarse"), category="mg_coarse")
        cs.add_vertex(Codelet("mg_coarse", run, cycles, category="mg_coarse"),
                      self.coarse_tile, {})
        self.ctx.append(ExecuteStep(cs))
        self.ctx.append(Exchange(scatter, name="exchange"))

    # -- the V-cycle ------------------------------------------------------------------------

    def _vcycle(self, level: int, x, b) -> None:
        lv = self.hierarchy[level]
        if level == self.num_levels - 1:
            self._coarse_solve(x, b)
            return
        nxt = self.hierarchy[level + 1]
        A = lv["A"]
        for _ in range(self.pre_smooth):
            lv["smoother"].solve_into(x, b)
        A.spmv(x, lv["ax"])
        lv["r"].owned.assign(b.t - lv["ax"].t)
        nxt["R"].apply(lv["r"], nxt["b"])
        nxt["x"].owned.assign(0.0)
        self._vcycle(level + 1, nxt["x"], nxt["b"])
        nxt["P"].apply(nxt["x"], lv["r"])  # r reused as the correction buffer
        x.owned.assign(x.t + lv["r"].t)
        for _ in range(self.post_smooth):
            lv["smoother"].solve_into(x, b)

    def solve_into(self, x, b) -> None:
        self.setup()
        ctx = self.ctx
        rnorm2 = ctx.scalar(1.0)
        it = ctx.scalar(0.0)
        it.assign(0.0)

        def cycle():
            self._vcycle(0, x, b)
            self.A.spmv(x, self.hierarchy[0]["ax"])
            self.hierarchy[0]["r"].owned.assign(b.t - self.hierarchy[0]["ax"].t)
            rnorm2.assign(self.hierarchy[0]["r"].t.dot(self.hierarchy[0]["r"].t))
            it.assign(it + 1.0)
            stats = self.stats

            def record(engine, _r=rnorm2.var, _i=it.var):
                stats.record(int(engine.read_scalar(_i)),
                             max(engine.read_scalar(_r), 0.0) ** 0.5,
                             cycles=engine.profiler.total_cycles)

            ctx.callback(record)

        ctx.Repeat(self.cycles, cycle, label=f"{self.name}.cycles")
