"""ILU(0) and DILU preconditioners (Sec. V-E).

Both approximate ``A ≈ LU`` on the original sparsity pattern.  Each tile
factors its *local block* independently — the decomposition "completely
disregards halo values" (Sec. VI-D), which is exactly why the preconditioner
weakens as the tile count grows (visible in the Fig. 8 bench).

- **ILU(0)**: IKJ factorization restricted to the pattern; substitution is a
  unit-lower forward solve followed by an upper backward solve.
- **DILU**: only the diagonal is modified
  (``d_i = a_ii − Σ_{k<i} a_ik d_k⁻¹ a_ki``); substitution uses the original
  off-diagonals with the modified diagonal: ``M = (D+L) D⁻¹ (D+U)``.

Factorization and substitution are parallelized per tile over the six
worker threads with Level-Set Scheduling; cycle costs use the IPUTHREADING
model.  All numerics run in float32, like the IPU.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from repro.errors import FactorizationError
from repro.graph.codelet import Codelet, ComputeSet, SweepSpec, VertexGroup
from repro.graph.program import Execute as ExecuteStep
from repro.machine.cycles import OP_CYCLES
from repro.solvers.base import Solver
from repro.solvers.native import Chain
from repro.solvers.sweeps import SweepPlan, build_sweep
from repro.tensordsl.materialize import vector_f32

__all__ = ["ILU0", "DILU"]


def _check_pivot(value, solver: str, tile: int, row: int) -> None:
    """Refuse a pivot no substitution may divide by."""
    if value == 0 or not np.isfinite(value):
        raise FactorizationError(
            f"{solver}: the factorization of tile {tile} produced pivot {value} at local "
            f"row {row}; the tile's block is singular or unstable under {solver}",
            solver=solver, tile=tile, row=row)


def _factor_ilu0(n, row_ptr, col_idx, values, diag, tile: int):
    """In-place-style block-local ILU(0); returns (values_f, diag_u, flops).

    Lower entries end up holding L (unit diagonal implied), upper entries
    hold U's off-diagonals, ``diag_u`` holds U's diagonal.  Each pivot is
    checked as row ``i`` completes it, before a later row divides by it.
    """
    vals = values.astype(np.float32).copy()
    diag_u = diag.astype(np.float32).copy()
    # Per-row lookup: local col -> entry position (halo columns excluded).
    row_map = []
    for i in range(n):
        s, e = row_ptr[i], row_ptr[i + 1]
        row_map.append({int(c): int(s + k) for k, c in enumerate(col_idx[s:e]) if c < n})
    flops = 0
    for i in range(n):
        lower = sorted((c, p) for c, p in row_map[i].items() if c < i)
        for k, pos_ik in lower:
            l_ik = np.float32(vals[pos_ik] / diag_u[k])
            vals[pos_ik] = l_ik
            flops += 1
            # Update row i against row k's upper part (cols > k).
            for j, pos_kj in row_map[k].items():
                if j <= k:
                    continue
                if j == i:
                    diag_u[i] = np.float32(diag_u[i] - l_ik * vals[pos_kj])
                    flops += 2
                elif j in row_map[i]:
                    p = row_map[i][j]
                    vals[p] = np.float32(vals[p] - l_ik * vals[pos_kj])
                    flops += 2
        _check_pivot(diag_u[i], "ilu0", tile, i)
    return vals, diag_u, flops


def _factor_dilu(n, row_ptr, col_idx, values, diag, tile: int):
    """Block-local DILU diagonal; returns (d, flops).  Each pivot is checked
    as row ``i`` completes it."""
    d = diag.astype(np.float32).copy()
    row_map = []
    for i in range(n):
        s, e = row_ptr[i], row_ptr[i + 1]
        row_map.append({int(c): int(s + k) for k, c in enumerate(col_idx[s:e]) if c < n})
    flops = 0
    for i in range(n):
        for k, pos_ik in row_map[i].items():
            if k >= i:
                continue
            pos_ki = row_map[k].get(i)
            if pos_ki is not None:
                d[i] = np.float32(d[i] - values[pos_ik] * values[pos_ki] / d[k])
                flops += 3
        _check_pivot(d[i], "dilu", tile, i)
    return d, flops


class _ILUBase(Solver):
    """Shared machinery: factor at setup, substitution sweeps per solve.

    A *state* is what one substitution needs — ``fwd`` / ``bwd`` sweep
    plans, the factored ``diag`` and a ``work`` vector — over one index
    space: ``_tile_data[t]`` over tile ``t``'s rows, :meth:`_device_state`
    over the flat device buffers.  :meth:`_substitute` is the one body both
    run: it binds the substitution's native entries, which a vertex runs at
    once and a fused kernel folds into its table.
    """

    def _setup(self) -> None:
        self._tile_data = {}
        self._merged = None
        factor_cycle_costs = {}
        for t in self.A.tiles:
            loc = self.A.local[t]
            data = self._factor_tile(loc, t)
            data["work"] = np.empty(loc["n"], dtype=np.float32)
            self._tile_data[t] = data
            factor_cycle_costs[t] = data["factor_flops"] * (
                OP_CYCLES["float32"]["mul"] + OP_CYCLES["float32"]["add"]
            ) // 2 + self.ctx.device.model.vertex_overhead
        # The factorization executes once on-device: numerics were computed
        # during symbolic execution (they depend only on the static matrix),
        # so the compute set is cost-only — it charges the level-scheduled
        # cost and runs nothing.
        cs = ComputeSet(self.ctx.graph.unique_name("cs_ilu_factor"), category="ilu_factor")
        cs.add_group(VertexGroup(
            self.A.tiles,
            lambda t: Codelet(f"{self.name}_factor@{t}", run=None,
                              cycles=factor_cycle_costs[t], category="ilu_factor"),
            lambda t: (factor_cycle_costs[t],),
            category="ilu_factor",
            cost_only=True,
        ))
        self.ctx.append(ExecuteStep(cs))

    def _factor_tile(self, loc, tile: int) -> dict:  # pragma: no cover - abstract
        raise NotImplementedError

    def _device_state(self) -> dict:
        """The tiles' states merged over the flat device index space (the
        matrix's owned mapping): built once, shared — plans and scratch —
        by the kernel op of every :meth:`solve_into` call site."""
        if self._merged is None:
            states = [self._tile_data[t] for t in self.A.tiles]
            starts = [iv.start for iv in self.A.owned_mapping()]
            self._merged = {
                "fwd": SweepPlan.merged([s["fwd"] for s in states], starts),
                "bwd": SweepPlan.merged([s["bwd"] for s in states], starts),
                "diag": np.concatenate([s["diag"] for s in states]),
                "work": np.empty(self.A.n, dtype=np.float32),
            }
        return self._merged

    def solve_into(self, x, b) -> None:
        self.setup()
        cs = ComputeSet(self.ctx.graph.unique_name(f"cs_{self.name}_solve"), category="ilu_solve")
        model = self.ctx.device.model
        spec = self.ctx.device.spec
        sweep = SweepSpec(self.A, x, b, self._substitute, self._device_state)

        def cycles(t: int) -> tuple:
            data = self._tile_data[t]
            return (int(data["fwd"].cycles(model, spec) + data["bwd"].cycles(model, spec)),)

        def codelet(t: int) -> Codelet:
            @cache  # bound on the first run: the shards are never reallocated
            def substitution() -> Chain:
                return Chain(self._substitute(self._tile_data[t], b.owned.var.shard(t).data,
                                              x.owned.var.shard(t).data))

            def run(ctx):
                substitution()()

            return Codelet(f"{self.name}@{t}", run, lambda ctx: cycles(t),
                           category="ilu_solve", spec=sweep)

        cs.add_group(VertexGroup(self.A.tiles, codelet, cycles, category="ilu_solve", spec=sweep))
        self.ctx.append(ExecuteStep(cs))

    @staticmethod
    def _substitute(state, rhs, out, halo=None) -> tuple:  # pragma: no cover - abstract
        """The ops of ``out = M⁻¹ rhs`` over ``state``'s index space, bound
        once, in run order.  Both sweeps write every row before any row
        reads it (their entries are exactly their dependencies), so
        ``work`` needs no reset and ``out`` may alias ``rhs``."""
        raise NotImplementedError


def _triangular_plans(loc, values) -> tuple:
    """Forward (strictly lower) and backward (strictly upper) sweep plans
    over one tile's block-local entries."""
    n = loc["n"]
    fwd = build_sweep(
        n, loc["row_ptr"], loc["col_idx"], values,
        include=lambda rows, cols: (cols < rows) & (cols < n),
    )
    bwd = build_sweep(
        n, loc["row_ptr"], loc["col_idx"], values,
        include=lambda rows, cols: (cols > rows) & (cols < n),
        backward=True,
    )
    return fwd, bwd


class ILU0(_ILUBase):
    name = "ilu0"

    def _factor_tile(self, loc, tile: int) -> dict:
        vals, diag_u, flops = _factor_ilu0(
            loc["n"], loc["row_ptr"], loc["col_idx"], loc["values"], loc["diag"], tile
        )
        fwd, bwd = _triangular_plans(loc, vals)
        return {"fwd": fwd, "bwd": bwd, "diag": diag_u, "factor_flops": flops}

    @staticmethod
    def _substitute(state, rhs, out, halo=None) -> tuple:
        work = state["work"]
        return (state["fwd"].bind(work, rhs),  # L y = rhs (unit diagonal)
                state["bwd"].bind(out, work, diag=state["diag"]))  # U x = y


class DILU(_ILUBase):
    name = "dilu"

    def _factor_tile(self, loc, tile: int) -> dict:
        d, flops = _factor_dilu(
            loc["n"], loc["row_ptr"], loc["col_idx"], loc["values"], loc["diag"], tile
        )
        fwd, bwd = _triangular_plans(loc, loc["values"])
        return {"fwd": fwd, "bwd": bwd, "diag": d, "factor_flops": flops}

    @staticmethod
    def _substitute(state, rhs, out, halo=None) -> tuple:
        d, work = state["diag"], state["work"]
        program = vector_f32("*")
        values = dict(zip(program.leaves, (d, work)))

        def interpret():
            np.copyto(work, program(lambda leaf: values[leaf.var]))

        scale = program.bind([0, work.size], {0: d, 1: work}, {}, work, fallback=interpret)
        return (state["fwd"].bind(work, rhs, diag=d),  # (D+L) w = rhs
                scale,  # z = D w
                state["bwd"].bind(out, work, diag=d))  # (D+U) x = z
