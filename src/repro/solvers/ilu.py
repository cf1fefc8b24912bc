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

Each tile's block is factored once, at build time, by :func:`factor`: one
``repro_factor_f32`` entry of ``native.c`` (:mod:`repro.solvers.native`),
whose oracle — and fallback when the library does not load or fails its
load-time self-check — is the Python loop :func:`_factor_ilu0` or
:func:`_factor_dilu`.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from repro.errors import FactorizationError
from repro.graph.codelet import Codelet, ComputeSet, SweepSpec, VertexGroup
from repro.graph.program import Execute as ExecuteStep
from repro.machine.cycles import OP_CYCLES
from repro.solvers import native
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
    vals = values.astype(np.float32)
    diag_u = diag.astype(np.float32)
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
    values = values.astype(np.float32)
    d = diag.astype(np.float32)
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


_ORACLES = {"ilu0": _factor_ilu0, "dilu": _factor_dilu}


def factor(solver: str, n: int, row_ptr, col_idx, values, diag, tile: int) -> tuple:
    """Tile ``tile``'s block-local factorization under ``solver`` (``"ilu0"``
    or ``"dilu"``): ``(values, diag, flops)`` in float32 — ILU(0)'s L and U
    off-diagonals and U's diagonal, or DILU's unchanged values and modified
    diagonal.  A pivot that is zero or not finite raises
    :class:`FactorizationError` at the first such row, as the Python loops
    do: they are the entry's oracle and fallback."""
    entry = _factor_entry(solver, n, row_ptr, col_idx, values, diag, tile)
    entry()
    return _factored(entry, solver, tile)


def _factored(entry, solver: str, tile: int) -> tuple:
    """``(values, diag, flops)`` as a factor entry wrote them, or the
    :class:`FactorizationError` of the first bad pivot it reported."""
    vals, d, _, out = entry.keep[2:]
    if out[1] >= 0:
        _check_pivot(d[out[1]], solver, tile, int(out[1]))
    return vals, d, int(out[0])


def _factor_entry(solver: str, n: int, row_ptr, col_idx, values, diag, tile: int):
    """The bound ``repro_factor_f32`` entry of :func:`factor`; it keeps
    ``(row_ptr, cols, vals, diag, scratch, out)`` and writes ``vals``,
    ``diag`` and ``out = (flops, first bad pivot row or -1)`` in place."""
    row_ptr = np.ascontiguousarray(row_ptr, dtype=np.int64)
    cols = np.ascontiguousarray(col_idx, dtype=np.int64)
    vals = np.array(values, dtype=np.float32)  # copies: the entry writes them
    d = np.array(diag, dtype=np.float32)
    # The native call trusts these indices: check them once, here.
    lengths = row_ptr[1:] - row_ptr[:-1]
    if not (row_ptr.shape == (n + 1,) and d.shape == (n,) and row_ptr[0] == 0
            and row_ptr[-1] == cols.size == vals.size and (lengths >= 0).all()
            and cols.min(initial=0) >= 0):
        raise ValueError("malformed block: row_ptr does not index col_idx / values, diag is "
                         "not one per row, or a column is negative")
    out = np.zeros(2, dtype=np.int64)
    # native.c's pos, uniq and lower; pos comes in -1 (a fill loop in C
    # would become a memset call, see repro_levels).
    scratch = np.full(n + cols.size + int(lengths.max(initial=0)), -1, dtype=np.int64)

    def fallback():
        *factored, flops = _ORACLES[solver](n, row_ptr, cols, vals, d, tile)
        if solver == "ilu0":
            vals[...] = factored[0]
        d[...] = factored[-1]
        out[...] = (flops, -1)

    keep = (row_ptr, cols, vals, d, scratch, out)
    mode = tuple(_ORACLES).index(solver)  # native.c's: 0 ILU(0), 1 DILU
    return native.Entry(native.FACTOR, (mode, n, *(a.ctypes.data for a in keep)), keep,
                        fallback, native_factor)


def _check_blocks() -> list:
    """The self-check's blocks, ``(n, row_ptr, col_idx, values, diag)``:
    one of :data:`CHECK_ROWS` rows that factors completely — unsorted and
    repeated columns, halo columns, empty rows, rows with only lower or
    only upper entries, entries from 1e-30 to 1e30 with subnormals and
    signed zeros, pivots from 1e25 to 1e30 — one of :data:`CHECK_SCALED`
    rows with a symmetric pattern and entries and pivots of one scale, so
    a product rounded or not shows in its difference — and four 2 x 2
    blocks whose second pivot is zero, -inf or NaN, or whose first is
    zero."""
    rng = np.random.default_rng(53)
    n = CHECK_ROWS
    lengths = rng.integers(0, 7, n)
    lengths[[0, 9]] = 0
    shuffled = rng.random((n, n + 6)).argsort(axis=1)  # each row's columns in random order
    cols = [shuffled[i, :size] for i, size in enumerate(lengths)]
    cols[3] = rng.integers(0, 3, 4)  # only lower, with repeats
    cols[5] = np.array([n + 2, 7, 6, 30])  # only upper and halo
    cols[11] = np.array([4, 20, 4, 2, 20])  # repeats, lower and upper
    lengths = [c.size for c in cols]
    nnz = sum(lengths)
    # Lower entries up to 1e8, upper from 1e-8: no DILU product overflows.
    lower = np.concatenate(cols) < np.repeat(np.arange(n), lengths)
    values = rng.choice([-1.0, 1.0], nnz) * 10.0 ** np.where(
        lower, rng.uniform(-30, 8, nnz), rng.uniform(-8, 30, nnz))
    values[rng.choice(nnz, 6, replace=False)] = [1e-40, -3e-42, 1e-45, 0.0, -0.0, 2e-38]
    diag = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(25, 30, n)
    blocks = [(n, np.concatenate([[0], np.cumsum(lengths)]), np.concatenate(cols), values, diag)]
    # A symmetric pattern (every pair updates a pivot) plus halo columns,
    # entries and pivots of one scale, so every product shows in its sum.
    m = CHECK_SCALED
    pattern = rng.random((m, m + 2)) < 0.2
    pattern[:, :m] |= pattern[:, :m].T
    np.fill_diagonal(pattern, False)
    cols = np.concatenate([rng.permutation(np.flatnonzero(row)) for row in pattern])
    blocks.append((m, np.concatenate([[0], np.cumsum(pattern.sum(axis=1))]), cols,
                   rng.uniform(-1.0, 1.0, cols.size), rng.uniform(3.0, 6.0, m)))
    for off, pivot in (((1.0, 1.0), 1.0), ((1e30, 1e30), 1e-30), ((np.nan, 1.0), 1.0),
                       ((1.0, 1.0), 0.0)):
        blocks.append((2, np.array([0, 1, 2]), np.array([1, 0]), np.array(off),
                       np.array([pivot, 1.0])))
    return blocks


#: The rows of the self-check's two complete blocks (:func:`_check_blocks`).
CHECK_ROWS, CHECK_SCALED = 40, 16


def _self_check(run) -> str | None:
    """Compare factor entries run by ``run`` (``repro_run``) with the
    Python loops on :func:`_check_blocks`, both solvers: the factored
    values, the diagonal and the flop count bit for bit, or the first bad
    pivot and its error message; ``None`` when all agree, else the first
    difference."""
    def outcome(factorization):
        try:
            with np.errstate(all="ignore"):
                return factorization()
        except FactorizationError as exc:
            return str(exc)

    for b, block in enumerate(_check_blocks()):
        for solver, oracle in _ORACLES.items():
            entry = _factor_entry(solver, *block, tile=0)
            native.Table([entry], run)()
            got = outcome(lambda: _factored(entry, solver, 0))
            want = outcome(lambda: oracle(*block, tile=0))
            where = f"self-check: {solver} block {b}"
            if isinstance(got, str) or isinstance(want, str):
                if got != want:
                    return f"{where}: {str(got)[:200]}; the loop: {str(want)[:200]}"
                continue
            if got[2] != want[-1]:
                return f"{where}: {got[2]} flops, the loop {want[-1]}"
            unchanged = np.asarray(block[3], dtype=np.float32)
            for name, mine, ref in (("values", got[0], want[0] if solver == "ilu0" else unchanged),
                                    ("diag", got[1], want[-2])):
                same = (mine.view(np.uint32) == ref.view(np.uint32)) | (np.isnan(mine)
                                                                          & np.isnan(ref))
                if not same.all():
                    i = int(np.flatnonzero(~same)[0])
                    return f"{where}: {name}[{i}] is {mine[i]!r}, the loop's {ref[i]!r}"
    return None


@cache
def native_factor():
    """The runner for factor entries (``repro_factor_f32``), resolved on
    the first :func:`factor`: ``None`` — with one ``RuntimeWarning`` saying
    why — when the library does not build or load, or disagrees with the
    Python loops on the self-check; the factorizations then run the loops."""
    return native.kernel(_self_check, "factorization", "the Python ILU(0) / DILU loops")


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
            starts = self.A.owned_mapping()[:, 1].tolist()
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
        vals, diag_u, flops = factor(
            "ilu0", loc["n"], loc["row_ptr"], loc["col_idx"], loc["values"], loc["diag"], tile
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
        _, d, flops = factor(
            "dilu", loc["n"], loc["row_ptr"], loc["col_idx"], loc["values"], loc["diag"], tile
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
