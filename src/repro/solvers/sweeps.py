"""Level-set-scheduled triangular/GS sweeps over one tile's local block.

All sequential row sweeps in the framework (Gauss-Seidel smoothing, ILU/DILU
forward and backward substitution) share the same shape: process rows in
dependency order, updating ``x[row]`` from a subset of the row's entries.
``SweepPlan`` precomputes the level structure once (Sec. V-A) and executes
each level vectorized; the cycle cost model uses the IPUTHREADING
single-compute-set strategy (Sec. V-A / the IPUTHREADING library).
``SweepPlan.merged`` concatenates the tiles' plans level by level into one
plan over the flat device index space — what the fused kernels run, with
the same ``run`` and bit-identical results (``docs/runtime.md``).

Dependencies are the entries whose column is itself updated by the sweep;
for structurally symmetric matrices the level order reproduces the
sequential algorithm's result exactly (every coupled row pair is ordered by
the lower-triangular dependency between them).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.machine import threading as thr
from repro.sparse.distribute import RowSegments
from repro.sparse.levelset import LevelSchedule

__all__ = ["SweepPlan", "build_sweep", "merged_invocations"]


#: Process-wide count of :meth:`SweepPlan.merged` calls (the cache tests
#: assert a compiled program merges its plans once, not once per hit).
_MERGED_INVOCATIONS = 0


def merged_invocations() -> int:
    """Total :meth:`SweepPlan.merged` calls in this process."""
    return _MERGED_INVOCATIONS


@dataclass
class SweepPlan:
    """Precomputed level-ordered entry layout of a sweep: one tile's, or —
    :meth:`merged` — every tile's over the flat device index space."""

    n: int
    #: Per level: rows processed (ascending), their entries (cols, vals)
    #: grouped by row, and the per-row segment pointer into them.
    level_rows: list
    level_cols: list
    level_vals: list
    level_ptr: list
    #: The tile's level schedule (cost model); a merged plan is for
    #: execution only and carries none.
    schedule: LevelSchedule | None = None

    def __post_init__(self):
        # Everything a level step needs, allocated once: index arrays, the
        # RowSegments reduce plan, the product buffer — ``padded`` keeps
        # RowSegments' pad slot (zero, never written) behind the products
        # when a trailing row is empty — and two row-sized scratch vectors.
        self._steps = []
        for rows, cols, vals, ptr in zip(
            self.level_rows, self.level_cols, self.level_vals, self.level_ptr
        ):
            if rows.size == 0:
                continue
            segments = RowSegments(ptr)
            padded = np.zeros(cols.size + segments.pad, dtype=vals.dtype)
            self._steps.append((
                np.asarray(rows, dtype=np.intp), np.asarray(cols, dtype=np.intp), vals,
                segments, padded[: cols.size], padded,
                np.empty(rows.size, dtype=vals.dtype), np.empty(rows.size, dtype=vals.dtype),
            ))

    @classmethod
    def merged(cls, plans, row_offsets, col_maps=None) -> "SweepPlan":
        """One plan running every tile's sweep at once: level *k* is level
        *k* of each plan, concatenated in plan order (a plan with fewer
        levels contributes nothing to the later ones).

        Plan ``i``'s rows move by ``row_offsets[i]``; its columns go through
        the index array ``col_maps[i]`` (local column -> device column), or
        move by the row offset when ``col_maps`` is ``None`` (block-local
        entries).  Tiles never read each other's rows within a sweep, and a
        row's sum is ``reduceat`` over exactly its own entries wherever they
        sit (:class:`RowSegments`), so :meth:`run` over the concatenated
        vectors equals the per-plan runs bit for bit.
        """
        global _MERGED_INVOCATIONS
        _MERGED_INVOCATIONS += 1
        level_rows, level_cols, level_vals, level_ptr = [], [], [], []
        for k in range(max((len(p.level_rows) for p in plans), default=0)):
            rows, cols, vals, ptr, base = [], [], [], [], 0
            for i, p in enumerate(plans):
                if k >= len(p.level_rows):
                    continue
                rows.append(p.level_rows[k] + row_offsets[i])
                local = p.level_cols[k]
                cols.append(local + row_offsets[i] if col_maps is None else col_maps[i][local])
                vals.append(p.level_vals[k])
                ptr.append(p.level_ptr[k][:-1] + base)
                base += local.size
            ptr.append([base])
            level_rows.append(np.concatenate(rows))
            level_cols.append(np.concatenate(cols))
            level_vals.append(np.concatenate(vals))
            level_ptr.append(np.concatenate(ptr))
        return cls(sum(p.n for p in plans), level_rows, level_cols, level_vals, level_ptr)

    # -- execution ----------------------------------------------------------------

    def run(self, x_full: np.ndarray, rhs: np.ndarray, diag=None) -> None:
        """Sweep in place: ``x[row] = (rhs[row] - Σ vals·x_full[cols]) / diag[row]``.

        ``x_full`` is the working vector (owned prefix + halo suffix); only
        owned rows are written.  ``diag=None`` means unit diagonal.  All
        three arrays share ``vals``' dtype.  Every backend runs this one
        body, allocation-free except for ``reduceat``'s result.
        """
        for rows, cols, vals, segments, prod, padded, acc, div in self._steps:
            rhs.take(rows, out=acc, mode="clip")
            if cols.size:  # else every sum is +0.0, and rhs - 0.0 is rhs
                x_full.take(cols, out=prod, mode="clip")
                np.multiply(vals, prod, out=prod)
                np.subtract(acc, segments.reduce(padded), out=acc)
            if diag is not None:
                diag.take(rows, out=div, mode="clip")
                np.divide(acc, div, out=acc)
            x_full[rows] = acc

    # -- cost ------------------------------------------------------------------------

    def worker_cycles(self, model, workers: int, dtype: str = "float32"):
        """Per-level per-worker cycle costs for the threading model."""
        out = []
        for rows, cols in zip(self.level_rows, self.level_cols):
            if rows.size == 0:
                continue
            splits = np.array_split(np.arange(rows.size), min(workers, rows.size))
            nnz = cols.size
            out.append(
                [
                    model.triangular_rows(dtype, nnz * s.size // max(rows.size, 1), s.size)
                    for s in splits
                ]
            )
        return out

    def cycles(self, model, spec, dtype: str = "float32") -> int:
        """Total tile cycles with IPUTHREADING worker management."""
        return thr.iputhreading(
            self.worker_cycles(model, spec.workers_per_tile, dtype), spec
        ).cycles


def _levels_directional(n: int, dep_rows, dep_cols, backward: bool):
    """level_of[row] for deps (row depends on col); forward: col<row only,
    backward: col>row only — both guaranteed acyclic."""
    level_of = np.zeros(n, dtype=np.int64)
    # Group deps per row.
    order = np.argsort(dep_rows, kind="stable")
    dr, dc = dep_rows[order], dep_cols[order]
    ptr = np.searchsorted(dr, np.arange(n + 1))
    row_iter = range(n - 1, -1, -1) if backward else range(n)
    for i in row_iter:
        cols = dc[ptr[i] : ptr[i + 1]]
        if cols.size:
            level_of[i] = level_of[cols].max() + 1
    return level_of


def build_sweep(
    n: int,
    row_ptr: np.ndarray,
    col_idx: np.ndarray,
    values: np.ndarray,
    include,
    backward: bool = False,
) -> SweepPlan:
    """Build a sweep plan over one tile's local CRS block.

    ``include(rows, cols)`` selects which entries feed the update formula;
    dependency edges are the included entries whose column is an owned row
    updated earlier in the sweep direction (``col < row`` forward,
    ``col > row`` backward).  Halo columns (``col >= n``) never induce
    dependencies — the block-local treatment the paper discusses in
    Sec. VI-D.
    """
    row_ptr = np.asarray(row_ptr)
    col_idx = np.asarray(col_idx, dtype=np.int64)
    values = np.asarray(values)
    e_rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(row_ptr))
    keep = np.asarray(include(e_rows, col_idx), dtype=bool)
    e_rows, e_cols, e_vals = e_rows[keep], col_idx[keep], values[keep]

    dep = ((e_cols > e_rows) if backward else (e_cols < e_rows)) & (e_cols < n)
    level_of = _levels_directional(n, e_rows[dep], e_cols[dep], backward)

    num_levels = int(level_of.max()) + 1 if n else 0
    # Rows per level, ascending.
    row_order = np.lexsort((np.arange(n), level_of))
    row_bounds = np.searchsorted(level_of[row_order], np.arange(num_levels + 1))
    # Entries sorted by (level of their row, row).
    entry_order = np.lexsort((e_rows, level_of[e_rows]))
    e_rows, e_cols, e_vals = e_rows[entry_order], e_cols[entry_order], e_vals[entry_order]
    entry_bounds = np.searchsorted(level_of[e_rows], np.arange(num_levels + 1))

    level_rows, level_cols, level_vals, level_ptr = [], [], [], []
    for k in range(num_levels):
        rows = np.sort(row_order[row_bounds[k] : row_bounds[k + 1]])
        lr = e_rows[entry_bounds[k] : entry_bounds[k + 1]]
        lc = e_cols[entry_bounds[k] : entry_bounds[k + 1]]
        lv = e_vals[entry_bounds[k] : entry_bounds[k + 1]]
        ptr = np.concatenate([np.searchsorted(lr, rows, side="left"), [lr.size]])
        level_rows.append(rows)
        level_cols.append(lc)
        level_vals.append(lv)
        level_ptr.append(ptr)

    return SweepPlan(
        n, level_rows, level_cols, level_vals, level_ptr,
        schedule=LevelSchedule(levels=level_rows, n=n),
    )
