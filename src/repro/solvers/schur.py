"""Schur-complement interface correction (Sec. VI-D — the paper's future work).

The block-local (D)ILU preconditioner "completely disregards halo values",
which is why its effectiveness degrades with the tile count.  The paper
suggests compensating with a Schur-complement-style method that solves an
additional system over the halo/separator cells of all tiles, noting it
"would likely necessitate a multi-step process, as the resulting additional
matrix would likely be too large to be solved on a single tile".

This solver implements the single-step variant as a *multiplicative
two-level preconditioner*:

1. ``x ← M_block(b)``       (any framework solver, e.g. block ILU(0)),
2. ``r ← b − A x``          (one extra SpMV),
3. restrict ``r`` to the interface cells (blockwise copies of the Sec. IV
   separator regions — their contiguity makes the gather cheap),
4. solve ``A_SS z_S = r_S`` with a direct factorization on one tile,
5. prolong ``z_S`` back and update ``x ← x + P z_S``.

The interface factor lives in one tile's SRAM (the limitation the paper
predicts); construction fails with a clear error when it does not fit,
pointing at the multi-step distributed variant as the remedy.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.graph import Exchange, RegionCopy
from repro.graph.codelet import Codelet, ComputeSet
from repro.graph.program import Execute as ExecuteStep
from repro.machine.tile import SRAMOverflowError
from repro.solvers.base import Solver

__all__ = ["SchurInterface"]


class SchurInterface(Solver):
    name = "schur"

    def __init__(self, A, inner: Solver, interface_tile: int = 0, **params):
        super().__init__(A, **params)
        self.inner = inner
        self.interface_tile = interface_tile
        self._iface = None

    # -- setup -------------------------------------------------------------------------

    def _setup(self) -> None:
        self.inner.setup()
        A = self.A
        plan = A.plan

        # The interface: all separator cells, laid out region by region so
        # every restriction/prolongation is one blockwise copy per region.
        regions = plan.regions
        cells = (
            np.concatenate([r.cells for r in regions])
            if regions
            else np.empty(0, dtype=np.int64)
        )
        offsets = {}
        off = 0
        for r in regions:
            offsets[r.rid] = off
            off += r.size
        m = cells.size

        iface = {"cells": cells, "offsets": offsets, "m": m}
        if m:
            import scipy.sparse.linalg as spla  # loaded on first use: a heavy module

            a_ss = sp.csc_matrix(A.crs.to_scipy()[np.ix_(cells, cells)])
            lu = spla.splu(a_ss)
            lu_nnz = int(lu.L.nnz + lu.U.nnz)
            # The factor must fit the interface tile's SRAM (f32 values +
            # i32 indices) — the single-tile limitation of Sec. VI-D.
            tile = self.ctx.device.tile(self.interface_tile)
            try:
                iface["lu_store"] = tile.alloc(
                    self.ctx.graph.unique_name("schur.lu"),
                    np.zeros(lu_nnz * 2, dtype=np.float32),
                )
            except SRAMOverflowError as exc:
                raise SRAMOverflowError(
                    f"Schur interface factor ({lu_nnz} entries for {m} separator "
                    f"cells) exceeds tile SRAM; a multi-step distributed interface "
                    f"solve (Sec. VI-D) or fewer tiles is required",
                    tile_id=self.interface_tile,
                    requested=lu_nnz * 2 * 4,
                    free=tile.bytes_free,
                    capacity=tile.spec.sram_per_tile,
                ) from exc
            iface["lu"] = lu
            iface["lu_nnz"] = lu_nnz
            # On-device interface vector (gathered residual / correction).
            iface["svec"] = self.ctx.graph.add_single_tile(
                self.ctx.graph.unique_name("schur.s"), (m,), "float32",
                tile_id=self.interface_tile,
            )
        self._iface = iface

    # -- restriction / prolongation ------------------------------------------------------

    def _restrict(self, vec) -> None:
        """Gather separator entries of ``vec`` into the interface vector."""
        svec = self._iface["svec"]
        copies = [
            RegionCopy(
                vec.owned.var,
                r.owner,
                self.A.plan.sep_offset[r.rid],
                ((svec, self.interface_tile, self._iface["offsets"][r.rid]),),
                r.size,
            )
            for r in self.A.plan.regions
        ]
        if copies:
            self.ctx.append(Exchange(copies, name="exchange"))

    def _prolong(self, vec) -> None:
        """Scatter the interface vector back into ``vec``'s separator cells."""
        svec = self._iface["svec"]
        copies = [
            RegionCopy(
                svec,
                self.interface_tile,
                self._iface["offsets"][r.rid],
                ((vec.owned.var, r.owner, self.A.plan.sep_offset[r.rid]),),
                r.size,
            )
            for r in self.A.plan.regions
        ]
        if copies:
            self.ctx.append(Exchange(copies, name="exchange"))

    # -- solve -------------------------------------------------------------------------------

    def solve_into(self, x, b) -> None:
        self.setup()
        iface = self._iface
        # Step 1: the block preconditioner.
        self.inner.solve_into(x, b)
        if iface["m"] == 0:
            return  # single tile: no interface to correct

        ax = self.workspace("ax")
        r = self.workspace("r")
        c = self.workspace("c")

        # Step 2: interface residual.
        self.A.spmv(x, ax)
        r.owned.assign(b.t - ax.t)
        # Step 3: gather.
        self._restrict(r)

        # Step 4: direct interface solve on one tile.
        svec = iface["svec"]
        lu = iface["lu"]
        model = self.ctx.device.model

        def run(ctx):
            sh = svec.shard(self.interface_tile)
            sh.data[...] = lu.solve(sh.data.astype(np.float64)).astype(np.float32)

        def cycles(ctx):
            # Forward + backward substitution through the LU factor on the
            # single interface tile (one worker: the solve is sequential).
            return model.triangular_rows("float32", iface["lu_nnz"], iface["m"])

        cs = ComputeSet(self.ctx.graph.unique_name("cs_schur"), category="schur_solve")
        cs.add_vertex(Codelet("schur_solve", run, cycles, category="schur_solve"),
                      self.interface_tile, {})
        self.ctx.append(ExecuteStep(cs))

        # Step 5: prolong and update.
        c.owned.assign(0.0)
        self._prolong(c)
        x.owned.assign(x.t + c.t)
