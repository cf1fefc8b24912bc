"""Level-set-scheduled triangular/GS sweeps over one tile's local block.

All sequential row sweeps in the framework (Gauss-Seidel smoothing, ILU/DILU
forward and backward substitution) share the same shape: process rows in
dependency order, updating ``x[row]`` from a subset of the row's entries.
``SweepPlan`` precomputes the level structure once (Sec. V-A) as flat
arrays; the cycle cost model uses the IPUTHREADING single-compute-set
strategy (Sec. V-A / the IPUTHREADING library).  ``SweepPlan.merged``
concatenates the tiles' plans level by level into one plan over the flat
device index space — what the fused kernels run, with the same ``run`` and
bit-identical results (``docs/runtime.md``).

``run`` is one call into ``native.c`` (:mod:`repro.solvers.native`), which
sums each row in numpy's ``reduceat`` order; the numpy level loop
(:meth:`SweepPlan.run_numpy`) is its oracle, and runs instead when no
library loads or the library fails its load-time self-check.

Dependencies are the entries whose column is itself updated by the sweep;
for structurally symmetric matrices the level order reproduces the
sequential algorithm's result exactly (every coupled row pair is ordered by
the lower-triangular dependency between them).
"""

from __future__ import annotations

import ctypes
import functools
from dataclasses import dataclass

import numpy as np

from repro.machine import threading as thr
from repro.solvers import native
from repro.sparse.distribute import RowSegments
from repro.sparse.levelset import LevelSchedule

__all__ = ["SweepPlan", "build_sweep", "merged_invocations", "native_sweep"]


#: Process-wide count of :meth:`SweepPlan.merged` calls (the cache tests
#: assert a compiled program merges its plans once, not once per hit).
_MERGED_INVOCATIONS = 0


def merged_invocations() -> int:
    """Total :meth:`SweepPlan.merged` calls in this process."""
    return _MERGED_INVOCATIONS


def _buffer(a, name: str, size: int, writable: bool = False) -> int:
    """``a``'s data pointer, once it is a contiguous 1-D float32 array of at
    least ``size`` elements (``TypeError`` / ``ValueError`` otherwise)."""
    if not (isinstance(a, np.ndarray) and a.dtype == np.float32 and a.ndim == 1
            and a.flags.c_contiguous):
        raise TypeError(f"sweep {name} must be a contiguous 1-D float32 array, got "
                        f"{getattr(a, 'dtype', type(a).__name__)} {getattr(a, 'shape', '')}")
    if a.size < size:
        raise ValueError(f"sweep {name} must hold at least {size} elements")
    if writable and not a.flags.writeable:
        raise ValueError(f"sweep {name} must be writable")
    return a.ctypes.data


@dataclass(eq=False)
class SweepPlan:
    """Precomputed level-ordered entry layout of a sweep: one tile's, or —
    :meth:`merged` — every tile's over the flat device index space."""

    n: int
    #: Level ``k`` updates ``rows[level_ptr[k]:level_ptr[k + 1]]``
    #: (ascending); the ``i``-th row's entries are
    #: ``cols``/``vals[entry_ptr[i]:entry_ptr[i + 1]]``.
    level_ptr: np.ndarray
    rows: np.ndarray
    entry_ptr: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    #: The tile's level schedule (cost model); a merged plan is for
    #: execution only and carries none.
    schedule: LevelSchedule | None = None

    def __post_init__(self):
        self.level_ptr, self.rows, self.entry_ptr, self.cols = (
            np.ascontiguousarray(a, dtype=np.int64)
            for a in (self.level_ptr, self.rows, self.entry_ptr, self.cols))
        self.vals = np.ascontiguousarray(self.vals, dtype=np.float32)
        # The native call trusts these indices: check them once, here.
        if not (self.level_ptr.size and self.level_ptr[0] == 0
                and self.level_ptr[-1] == self.rows.size == self.entry_ptr.size - 1
                and self.entry_ptr[0] == 0 and self.entry_ptr[-1] == self.cols.size
                and self.cols.size == self.vals.size
                and (np.diff(self.level_ptr) >= 0).all() and (np.diff(self.entry_ptr) >= 0).all()
                and self.rows.min(initial=0) >= 0 and self.cols.min(initial=0) >= 0):
            raise ValueError("malformed sweep plan: level_ptr / entry_ptr do not index "
                             "rows / cols, or an index is negative")
        # The native call's scratch: the largest level's products.
        level_entries = np.diff(self.entry_ptr[self.level_ptr])
        self._prod = np.empty(int(level_entries.max(initial=0)), dtype=np.float32)
        # How much of each buffer ``run`` touches.
        self._rhs_size = int(self.rows.max(initial=-1)) + 1
        self._x_size = max(self._rhs_size, int(self.cols.max(initial=-1)) + 1)
        self._plan_args = (self.num_levels, *(a.ctypes.data for a in (
            self.level_ptr, self.rows, self.entry_ptr, self.cols, self.vals)))

    @property
    def num_levels(self) -> int:
        return self.level_ptr.size - 1

    @classmethod
    def merged(cls, plans, row_offsets, col_maps=None) -> "SweepPlan":
        """One plan running every tile's sweep at once: level *k* is level
        *k* of each plan, concatenated in plan order (a plan with fewer
        levels contributes nothing to the later ones).

        Plan ``i``'s rows move by ``row_offsets[i]``; its columns go through
        the index array ``col_maps[i]`` (local column -> device column), or
        move by the row offset when ``col_maps`` is ``None`` (block-local
        entries).  Tiles never read each other's rows within a sweep, and a
        row's sum runs over exactly its own entries wherever they sit, so
        :meth:`run` over the concatenated vectors equals the per-plan runs
        bit for bit.
        """
        global _MERGED_INVOCATIONS
        _MERGED_INVOCATIONS += 1
        rows, cols, vals, counts, row_level = [], [], [], [], []
        for i, p in enumerate(plans):
            rows.append(p.rows + row_offsets[i])
            cols.append(p.cols + row_offsets[i] if col_maps is None else col_maps[i][p.cols])
            vals.append(p.vals)
            counts.append(np.diff(p.entry_ptr))
            row_level.append(np.repeat(np.arange(p.num_levels), np.diff(p.level_ptr)))
        # A stable sort by level keeps plan order, and each row's entries
        # stay contiguous and in order.
        row_level, counts = np.concatenate(row_level), np.concatenate(counts)
        by_row = np.argsort(row_level, kind="stable")
        by_entry = np.argsort(np.repeat(row_level, counts), kind="stable")
        levels = max(p.num_levels for p in plans)
        return cls(
            sum(p.n for p in plans),
            np.concatenate([[0], np.cumsum(np.bincount(row_level, minlength=levels))]),
            np.concatenate(rows)[by_row],
            np.concatenate([[0], np.cumsum(counts[by_row])]),
            np.concatenate(cols)[by_entry],
            np.concatenate(vals)[by_entry],
        )

    # -- execution ----------------------------------------------------------------

    def run(self, x_full: np.ndarray, rhs: np.ndarray, diag=None) -> None:
        """Sweep in place: ``x[row] = (rhs[row] - Σ vals·x_full[cols]) / diag[row]``.

        ``x_full`` is the working vector (owned prefix + halo suffix); only
        owned rows are written.  ``diag=None`` means unit diagonal.  All
        three are contiguous 1-D float32 arrays.  Every backend runs this
        one body: the native call, or :meth:`run_numpy` without one.
        """
        args = (
            _buffer(x_full, "x_full", self._x_size, writable=True),
            _buffer(rhs, "rhs", self._rhs_size),
            None if diag is None else _buffer(diag, "diag", self._rhs_size),
        )
        kernel = native_sweep()
        if kernel is None:
            self.run_numpy(x_full, rhs, diag)
        else:
            kernel(*self._plan_args, *args, self._prod.ctypes.data)

    def run_numpy(self, x_full: np.ndarray, rhs: np.ndarray, diag=None) -> None:
        """:meth:`run` as a numpy loop over the levels — the native call's
        oracle and fallback: per level, one gather–multiply–``reduceat``
        (:class:`RowSegments`), subtract and divide on preallocated scratch."""
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

    @functools.cached_property
    def _steps(self) -> list:
        # Everything a level step needs, allocated once: index arrays, the
        # RowSegments reduce plan, the product buffer — ``padded`` keeps
        # RowSegments' pad slot (zero, never written) behind the products
        # when a trailing row is empty — and two row-sized scratch vectors.
        steps = []
        for r0, r1 in zip(self.level_ptr[:-1].tolist(), self.level_ptr[1:].tolist()):
            if r0 == r1:
                continue
            e0, e1 = int(self.entry_ptr[r0]), int(self.entry_ptr[r1])
            segments = RowSegments(self.entry_ptr[r0 : r1 + 1] - e0)
            padded = np.zeros(e1 - e0 + segments.pad, dtype=np.float32)
            steps.append((
                self.rows[r0:r1], self.cols[e0:e1], self.vals[e0:e1],
                segments, padded[: e1 - e0], padded,
                np.empty(r1 - r0, dtype=np.float32), np.empty(r1 - r0, dtype=np.float32),
            ))
        return steps

    # -- cost ------------------------------------------------------------------------

    def worker_cycles(self, model, workers: int, dtype: str = "float32"):
        """Per-level per-worker cycle costs for the threading model: a
        level's rows split over the workers as ``np.array_split`` would, its
        entries charged pro rata."""
        out = []
        level_entries = np.diff(self.entry_ptr[self.level_ptr]).tolist()
        for rows, nnz in zip(np.diff(self.level_ptr).tolist(), level_entries):
            if rows == 0:
                continue
            w = min(workers, rows)
            sizes = [rows // w + (i < rows % w) for i in range(w)]
            out.append([model.triangular_rows(dtype, nnz * s // rows, s) for s in sizes])
        return out

    def cycles(self, model, spec, dtype: str = "float32") -> int:
        """Total tile cycles with IPUTHREADING worker management."""
        return thr.iputhreading(
            self.worker_cycles(model, spec.workers_per_tile, dtype), spec
        ).cycles


# -- the native call ---------------------------------------------------------------------


def _self_check(kernel) -> str | None:
    """Compare ``kernel`` with :meth:`SweepPlan.run_numpy` bit for bit on a
    fixed plan; ``None`` when they agree, else what differed.

    Level 0 has rows of 1, 7, 8, 9, 128, 129 and 300 entries (both sides of
    each ``reduceat`` regime and of the recursive split), an empty row and
    a trailing empty row, and reads its own rows (a Gauss-Seidel sweep);
    level 1 reads level 0, and sums ``-0.0`` products into a ``-0.0``
    right-hand side; level 2 has rows but no entries.  With and without a
    diagonal.
    """
    rng = np.random.default_rng(29)
    lengths = [1, 7, 0, 8, 9, 128, 129, 300, 0, 3, 3, 0, 0]
    rows = np.arange(len(lengths))
    size = rows.size + 16  # owned rows + halo cells
    cols = np.concatenate([rng.integers(0, size, sum(lengths[:9])),
                           [0, 1, 2], [size - 3, size - 2, size - 1]])
    vals = (rng.standard_normal(cols.size) * 10.0 ** rng.integers(-3, 4, cols.size))
    vals[rng.random(cols.size) < 0.05] = 0.0
    vals[-3:] = -0.0
    plan = SweepPlan(rows.size, [0, 9, 11, 13], rows,
                     np.concatenate([[0], np.cumsum(lengths)]), cols, vals)
    x0 = (rng.standard_normal(size) * 10.0 ** rng.integers(-3, 4, size)).astype(np.float32)
    x0[-3:] = 1.0
    rhs = rng.standard_normal(rows.size).astype(np.float32)
    rhs[[2, 10, 11]] = -0.0
    diag = rng.uniform(0.5, 4.0, rows.size).astype(np.float32)
    for d in (diag, None):
        x_native, x_numpy = x0.copy(), x0.copy()
        kernel(*plan._plan_args, x_native.ctypes.data, rhs.ctypes.data,
               None if d is None else d.ctypes.data, plan._prod.ctypes.data)
        plan.run_numpy(x_numpy, rhs, d)
        differ = np.flatnonzero(x_native.view(np.uint32) != x_numpy.view(np.uint32))
        if differ.size:
            row = int(differ[0])
            return (f"self-check: row {row} {'with' if d is not None else 'without'} a "
                    f"diagonal is {x_native[row]!r}, numpy {x_numpy[row]!r}")
    return None


@functools.cache
def native_sweep():
    """The compiled level loop (``repro_sweep_f32``), resolved on the first
    :meth:`SweepPlan.run`: ``None`` — with one ``RuntimeWarning`` saying why
    — when the library does not build or load, or disagrees with the numpy
    loop on the self-check; :meth:`SweepPlan.run` then runs the numpy loop."""
    return native.kernel("repro_sweep_f32", [ctypes.c_int64] + [ctypes.c_void_p] * 9,
                         _self_check, "sweep", "the numpy level loop")


# -- building ------------------------------------------------------------------------------


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
    # Rows by (level, row); entries by (level of their row, row), each
    # row's in CRS order.
    rows = np.lexsort((np.arange(n), level_of))
    level_ptr = np.searchsorted(level_of[rows], np.arange(num_levels + 1))
    entry_order = np.lexsort((e_rows, level_of[e_rows]))
    entry_ptr = np.concatenate([[0], np.cumsum(np.bincount(e_rows, minlength=n)[rows])])
    levels = [rows[a:b] for a, b in zip(level_ptr[:-1], level_ptr[1:])]
    return SweepPlan(
        n, level_ptr, rows, entry_ptr, e_cols[entry_order], e_vals[entry_order],
        schedule=LevelSchedule(levels=levels, n=n),
    )
