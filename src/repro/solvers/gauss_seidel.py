"""Level-set-scheduled Gauss-Seidel (Sec. V-D).

Each sweep updates ``x_i ← (b_i − Σ_{j≠i} a_ij x_j) / a_ii`` sequentially
per tile, parallelized over the six worker threads with Level-Set
Scheduling.  Halo values are refreshed by a blockwise exchange before each
sweep and treated as constants within it (block-local Gauss-Seidel — the
standard domain-decomposed hybrid).

``direction`` selects the sweep pattern: ``"forward"`` (the classic
Eq. 1 order), ``"backward"``, or ``"symmetric"`` (forward then backward —
the SGS smoother, which is symmetric and therefore safe as a CG
preconditioner).
"""

from __future__ import annotations

from functools import cache, partial

import numpy as np

from repro.graph.codelet import Codelet, ComputeSet, SweepSpec, VertexGroup
from repro.graph.passes.plans import CopyOp
from repro.graph.program import Execute as ExecuteStep
from repro.solvers.base import Solver
from repro.solvers.native import Chain
from repro.solvers.sweeps import SweepPlan, build_sweep

__all__ = ["GaussSeidel"]

_DIRECTIONS = ("forward", "backward", "symmetric")


class GaussSeidel(Solver):
    name = "gauss_seidel"

    def __init__(self, A, sweeps: int = 1, direction: str = "forward", **params):
        super().__init__(A, sweeps=sweeps, direction=direction, **params)
        if direction not in _DIRECTIONS:
            raise ValueError(f"unknown sweep direction {direction!r} ({_DIRECTIONS})")
        self.sweeps = sweeps
        self.direction = direction

    def _setup(self) -> None:
        # Sweep states per tile over ALL off-diagonal entries; dependencies
        # are the directional local-triangular ones (Sec. V-A).  A state is
        # the plan, the diagonal and the ``[x | halo]`` working vector.
        directions = [d for d in ("forward", "backward")
                      if self.direction in (d, "symmetric")]
        self._states = {d: {} for d in directions}
        self._merged = {}
        everything = lambda rows, cols: np.ones(rows.size, dtype=bool)
        for t in self.A.tiles:
            loc = self.A.local[t]
            xfull = np.empty(loc["n"] + self.A.plan.halo_count(t), dtype=np.float32)
            for d in directions:
                plan = build_sweep(
                    loc["n"], loc["row_ptr"], loc["col_idx"], loc["values"],
                    include=everything, backward=d == "backward",
                )
                self._states[d][t] = {"plan": plan, "diag": loc["diag"], "xfull": xfull}

    def _device_state(self, direction: str) -> dict:
        """The tiles' states of one direction merged over the flat
        ``[owned | halo]`` index space of the matrix's vectors: built once,
        shared by the kernel op of every sweep in that direction."""
        if direction not in self._merged:
            A = self.A
            states = [self._states[direction][t] for t in A.tiles]
            columns = A.device_columns()
            self._merged[direction] = {
                "plan": SweepPlan.merged(
                    [s["plan"] for s in states],
                    A.owned_mapping()[:, 1].tolist(),
                    [columns[t] for t in A.tiles],
                ),
                "diag": np.concatenate([s["diag"] for s in states]),
                "xfull": np.empty(A.n + A.halo_mapping()[1], dtype=np.float32),
            }
        return self._merged[direction]

    @staticmethod
    def _sweep(state, rhs, out, halo=None) -> tuple:
        """The ops of one in-place sweep of ``out`` against ``rhs``, bound
        once, in run order; ``halo`` holds the neighbor values, constants
        within the sweep."""
        xfull, n = state["xfull"], out.shape[0]
        copies = [CopyOp(out, xfull, slice(None), slice(0, n))]
        if halo is not None:
            copies.append(CopyOp(halo, xfull, slice(None), slice(n, None)))
        return (*(copy.bind() for copy in copies),
                state["plan"].bind(xfull, rhs, diag=state["diag"]),
                CopyOp(xfull, out, slice(0, n), slice(None)).bind())

    def _emit_sweep(self, x, b, direction: str) -> None:
        self.A.exchange(x)
        cs = ComputeSet(self.ctx.graph.unique_name("cs_gs"), category="gs_sweep")
        model = self.ctx.device.model
        spec = self.ctx.device.spec
        sweep = SweepSpec(
            self.A, x, b, self._sweep, partial(self._device_state, direction), halo=True
        )
        states = self._states[direction]

        def cycles(t: int) -> tuple:
            return (int(states[t]["plan"].cycles(model, spec)),)

        def codelet(t: int) -> Codelet:
            @cache  # bound on the first run: the shards are never reallocated
            def bound() -> Chain:
                halo = x.halo.var.shard(t).data if self.A.plan.halo_count(t) else None
                return Chain(self._sweep(states[t], b.owned.var.shard(t).data,
                                         x.owned.var.shard(t).data, halo))

            def run(ctx):
                bound()()

            return Codelet(f"gs@{t}", run, lambda ctx: cycles(t), category="gs_sweep",
                           spec=sweep)

        cs.add_group(VertexGroup(self.A.tiles, codelet, cycles, category="gs_sweep", spec=sweep))
        self.ctx.append(ExecuteStep(cs))

    def solve_into(self, x, b) -> None:
        self.setup()

        def sweep():
            if self.direction == "forward":
                self._emit_sweep(x, b, "forward")
            elif self.direction == "backward":
                self._emit_sweep(x, b, "backward")
            else:  # symmetric: forward then backward
                self._emit_sweep(x, b, "forward")
                self._emit_sweep(x, b, "backward")

        if self.sweeps == 1:
            sweep()
        else:
            self.ctx.Repeat(self.sweeps, sweep, label=f"{self.name}.sweeps")
