"""Level-Set Scheduling (Sec. V-A).

Analyzes the data dependencies in the lower triangular part of a (local)
matrix: row *i* depends on row *j < i* iff ``a_ij != 0``.  Clustering the
dependency DAG into levels lets all rows within one level be processed in
parallel by the tile's six worker threads, while preserving the sequential
algorithm's result (and hence its convergence rate).

:func:`dependency_levels` computes the levels of any acyclic dependency
set, forward or backward, for :func:`level_schedule` and for every sweep
plan (:func:`repro.solvers.sweeps.build_sweep`): one ``repro_levels``
entry of ``native.c``, with the per-row loop :func:`_levels_directional`
as its oracle and no-compiler fallback.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

__all__ = ["LevelSchedule", "dependency_levels", "level_schedule", "native_levels"]


@dataclass(eq=False)
class LevelSchedule:
    """Rows grouped into dependency levels (local indices): level ``k`` is
    ``rows[level_ptr[k]:level_ptr[k + 1]]``, ascending."""

    rows: np.ndarray
    level_ptr: np.ndarray

    @classmethod
    def of(cls, level_of: np.ndarray) -> "LevelSchedule":
        """The schedule putting row ``i`` on level ``level_of[i]``."""
        rows = np.argsort(level_of, kind="stable")
        return cls(rows, np.searchsorted(level_of[rows], np.arange(level_of.max(initial=-1) + 2)))

    @property
    def n(self) -> int:
        return self.rows.size

    @property
    def num_levels(self) -> int:
        return self.level_ptr.size - 1

    @functools.cached_property
    def levels(self) -> list:
        """Each level's rows, one array per level."""
        bounds = self.level_ptr.tolist()
        return [self.rows[a:b] for a, b in zip(bounds[:-1], bounds[1:])]

    @property
    def max_parallelism(self) -> int:
        return int(np.diff(self.level_ptr).max(initial=0))

    @property
    def avg_parallelism(self) -> float:
        return self.n / self.num_levels if self.num_levels else 0.0

    def worker_partition(self, level: int, workers: int) -> list:
        """Split one level's rows into up to ``workers`` chunks."""
        rows = self.levels[level]
        if rows.size == 0:
            return []
        return np.array_split(rows, min(workers, rows.size))

    def validate(self, row_ptr, col_idx) -> bool:
        """Check the defining invariant: every lower-triangular dependency
        points to a strictly earlier level."""
        level_of = np.empty(self.n, dtype=np.int64)
        for k, rows in enumerate(self.levels):
            level_of[rows] = k
        for i in range(self.n):
            for j in col_idx[row_ptr[i] : row_ptr[i + 1]]:
                if j < i and level_of[j] >= level_of[i]:
                    return False
        return True


def level_schedule(row_ptr, col_idx, n: int) -> LevelSchedule:
    """Compute levels for ``n`` rows with off-diagonal pattern (CRS arrays).

    Only lower-triangular entries (``col < row``) induce dependencies —
    exactly the updated-solution-value dependencies of Gauss-Seidel /
    ILU substitution.  Runs in O(nnz), through :func:`dependency_levels`.
    """
    col_idx = np.asarray(col_idx, dtype=np.int64)
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(np.asarray(row_ptr, dtype=np.int64)))
    lower = col_idx < rows
    return LevelSchedule.of(dependency_levels(n, rows[lower], col_idx[lower]))


def dependency_levels(n: int, dep_rows, dep_cols, backward: bool = False) -> np.ndarray:
    """``level_of[row]`` over ``n`` rows for the dependencies ``row`` on
    ``col`` (one pair per edge, any order): 0 for a row without any, else
    one more than the largest level among its dependencies, rows taken in
    increasing order — every ``col < row`` — or, ``backward``, in decreasing
    order — every ``col > row``.

    One ``repro_levels`` entry of ``native.c``
    (:mod:`repro.solvers.native`); :func:`_levels_directional` is its
    oracle, and runs instead when the library does not load or fails its
    load-time self-check.
    """
    entry = _levels_entry(n, dep_rows, dep_cols, backward)
    entry()
    return entry.keep[2]


def _levels_entry(n: int, dep_rows, dep_cols, backward: bool):
    """The bound entry of :func:`dependency_levels`; it keeps
    ``(rows, cols, level_of, scratch)`` and writes ``level_of``."""
    from repro.solvers import native  # the package's one C library and its loader

    rows = np.ascontiguousarray(dep_rows, dtype=np.int64)
    cols = np.ascontiguousarray(dep_cols, dtype=np.int64)
    # The native call trusts these indices: check them once, here.
    if rows.shape != cols.shape or rows.ndim != 1:
        raise ValueError("dependency rows and columns must be 1-D and of one length")
    if rows.size and not (0 <= min(rows.min(), cols.min()) and max(rows.max(), cols.max()) < n):
        raise ValueError(f"a dependency row or column lies outside [0, {n})")
    # Both come in zero: the C fills nothing (native.c, repro_levels).
    level_of = np.zeros(n, dtype=np.int64)
    keep = (rows, cols, level_of, np.zeros(n + 2 + rows.size, dtype=np.int64))
    return native.Entry(
        native.LEVELS, (n, int(backward), rows.size, *(a.ctypes.data for a in keep)), keep,
        lambda: np.copyto(level_of, _levels_directional(n, rows, cols, backward)), native_levels)


def _levels_directional(n: int, dep_rows, dep_cols, backward: bool) -> np.ndarray:
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


#: The self-check's case: :data:`CHECK_ROWS` rows, each depending on up to
#: :data:`CHECK_DEPS` rows on the side its direction reads.
CHECK_ROWS, CHECK_DEPS = 48, 5


def _check_edges(backward: bool) -> tuple:
    """The self-check's dependencies: every seventh row and the row the
    direction starts from without any, the others on one to
    :data:`CHECK_DEPS` random rows (repeats included), given in scrambled
    order."""
    rng = np.random.default_rng(41)
    rows = np.repeat(np.arange(CHECK_ROWS), rng.integers(1, CHECK_DEPS + 1, CHECK_ROWS))
    rows = rows[(rows % 7 != 0) & (rows != (CHECK_ROWS - 1 if backward else 0))]
    reach = CHECK_ROWS - 1 - rows if backward else rows  # rows on the side read
    cols = (rng.random(rows.size) * reach).astype(np.int64)
    cols = rows + 1 + cols if backward else cols
    scramble = rng.permutation(rows.size)
    return rows[scramble], cols[scramble]


def _self_check(run) -> str | None:
    """Compare level entries run by ``run`` (``repro_run``) with the
    per-row loop on :func:`_check_edges`, forward and backward; ``None``
    when every level agrees, else the first that differs."""
    from repro.solvers import native

    for backward in (False, True):
        rows, cols = _check_edges(backward)
        entry = _levels_entry(CHECK_ROWS, rows, cols, backward)
        native.Table([entry], run)()
        level_of, want = entry.keep[2], _levels_directional(CHECK_ROWS, rows, cols, backward)
        differ = np.flatnonzero(level_of != want)
        if differ.size:
            row = int(differ[0])
            return (f"self-check: {'backward' if backward else 'forward'} row {row} is on "
                    f"level {level_of[row]}, the loop's {want[row]}")
    return None


@functools.cache
def native_levels():
    """The runner for level entries (``repro_levels``), resolved on the
    first :func:`dependency_levels`: ``None`` — with one ``RuntimeWarning``
    saying why — when the library does not build or load, or disagrees with
    the per-row loop on the self-check; the levels then come from the loop."""
    from repro.solvers import native

    return native.kernel(_self_check, "levels", "the per-row level loop")
