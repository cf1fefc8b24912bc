"""Structure-keyed compile cache and reusable solve sessions.

Time-stepping codes (the paper's OpenFOAM motivation) solve the *same*
sparse system shape hundreds of times with a new right-hand side each
step.  On a real IPU the Poplar graph compile dominates the first solve
and is amortized by keeping the ``poplar::Engine`` alive; this module is
the analogue for the simulated pipeline:

- :class:`ProgramShape` — the device shape, the partition, the halo
  strategy, the optimization setting and the runtime backend, defaulted
  and checked in one place; its :meth:`~ProgramShape.key` is a structural
  fingerprint of everything the lowered program depends on: the matrix
  (sparsity pattern *and* values — the values are baked into tile-local
  blocks at distribution time), the canonicalized solver config, and that
  shape,
- :class:`ProgramCache` — an LRU map from fingerprint to a ready-to-run
  :class:`CompiledSolve`, with hit/miss/eviction counters that surface in
  telemetry and the CLI, and one execution lock per fingerprint that the
  solves of a structure take turns on,
- :class:`CompiledSolve` — one built-and-lowered solver program plus a
  snapshot of every graph variable's initial storage; ``prepare``
  restores that snapshot (one array assignment per variable) and rebinds a
  new ``b`` / ``x0``, so a cache hit re-executes the identical
  :class:`~repro.graph.CompiledProgram` without re-running a single
  compiler pass — bit-identical in tensors *and* in modeled cycles to a
  cold compile,
- :class:`SolverSession` — the user-facing wrapper: a session pins
  (matrix, config, device shape) and exposes ``solve(b)``.

Rebinding is sound because every solver recomputes its derived state
in-program from the bound vectors (``r = b − Ax``, ``‖b‖²`` via an
on-device reduction grabbed by a per-run host callback) — nothing about a
specific ``b`` is frozen into the artifact at build time.  The cache key
deliberately excludes ``b`` and ``x0`` for the same reason.

See ``docs/performance.md`` for the amortization numbers and
``benchmarks/bench_compile_cache.py`` for the measurement.
"""

from __future__ import annotations

import hashlib
import json
import math
import threading
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ReproError, SolverConfigError
from repro.graph.runtime import check_observers
from repro.solvers.config import load_config
from repro.sparse.partition import grid_factors

__all__ = [
    "CompiledSolve",
    "ProgramCache",
    "ProgramShape",
    "SolverSession",
    "batch_bucket",
    "fingerprint_matrix",
    "fingerprint_solve",
]


def batch_bucket(batch: int, max_batch: int) -> int:
    """Round a batch width up to its cache bucket.

    The serving batcher pads assembled widths to the next power of two
    (capped at ``max_batch``), so the program cache holds at most
    ``O(log max_batch)`` batched artifacts per structure instead of one
    per width — a width-7 batch reuses the width-8 program instead of
    compiling (and LRU-thrashing) its own.  Padding columns are zero
    right-hand sides: per-column convergence masking retires them at
    iteration 0, so real columns stay bit-identical (see
    ``docs/serving.md``).
    """
    if batch < 1:
        raise ReproError(f"batch_bucket: batch must be >= 1, got {batch}")
    if max_batch < batch:
        raise ReproError(
            f"batch_bucket: max_batch ({max_batch}) < batch ({batch})")
    bucket = 1
    while bucket < batch:
        bucket *= 2
    return min(bucket, max_batch)


_HASHED_ARRAYS = ("row_ptr", "col_idx", "diag", "values")


def fingerprint_matrix(matrix) -> str:
    """Content hash of a :class:`~repro.sparse.crs.ModifiedCRS` matrix.

    Covers the sparsity *structure* (row_ptr/col_idx drive the partition,
    the halo layout, and the exchange plans) and the *values* (diag and
    off-diagonals are baked into each tile's local block at
    :class:`~repro.sparse.distribute.DistributedMatrix` build time, so a
    value change must miss the cache even when the pattern is unchanged).

    The digest is memoised on the matrix beside the arrays it was computed
    from, and honoured only while the matrix still holds those same array
    objects and each is a read-only view onto a ``bytes`` object — what a
    ``ModifiedCRS`` holds, and what numpy never lets become writeable.  So
    a stale key is impossible, not unlikely: a rebound attribute is another
    object, and a ``deepcopy`` (whose arrays own their data and *are*
    writeable) re-hashes on every call, frozen again or not.  Two threads
    racing the first hash both compute the same digest; neither waits.
    """
    arrays = tuple(getattr(matrix, name) for name in _HASHED_ARRAYS)
    immutable = all(
        isinstance(arr.base, bytes) and not arr.flags.writeable for arr in arrays
    )
    memo = matrix.__dict__.get("_fingerprint")
    if memo is not None and immutable and all(a is b for a, b in zip(memo[1], arrays)):
        return memo[0]
    digest = _hash_matrix(matrix.n, arrays)
    if immutable:
        matrix._fingerprint = (digest, arrays)
    return digest


def _hash_matrix(n: int, arrays: tuple) -> str:
    """The SHA-256 of a matrix's size and arrays: the one place its bytes
    are read (a time-stepping session must reach it once, not once per
    step)."""
    h = hashlib.sha256()
    h.update(f"n={n}".encode())
    for name, arr in zip(_HASHED_ARRAYS, arrays):
        arr = np.ascontiguousarray(arr)
        h.update(name.encode())
        h.update(arr.dtype.str.encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def _positive_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= 1


@dataclass(frozen=True)
class ProgramShape:
    """The device shape a program is built for.  With the matrix and the
    config it names one program: :meth:`key`, the cache key.

    The one place these options are defaulted and checked.  ``num_ipus``,
    ``tiles_per_ipu`` and ``num_tiles`` (``None``: every tile) are positive
    ints, and ``grid_dims`` (``None``: no structured partition) is a tuple of
    positive ints.  A bad value is a :class:`~repro.errors.SolverConfigError`
    that names it (exit code 20); an unknown ``backend`` is a
    :class:`~repro.errors.BackendCapabilityError`.  :meth:`of` also checks
    the shape against the matrix it is to hold.
    """

    num_ipus: int = 1
    tiles_per_ipu: int = 16
    num_tiles: int | None = None
    grid_dims: tuple | None = None
    blockwise_halo: bool = True
    optimize: bool = True
    backend: str = "sim"

    def __post_init__(self):
        for name in ("num_ipus", "tiles_per_ipu", "num_tiles"):
            value = getattr(self, name)
            if value is None and name == "num_tiles":
                continue
            if not _positive_int(value):
                raise SolverConfigError(f"{name} must be a positive int, got {value!r}")
            object.__setattr__(self, name, int(value))
        dims = self.grid_dims
        if dims is not None:
            if not (isinstance(dims, (tuple, list)) and dims and all(map(_positive_int, dims))):
                raise SolverConfigError(
                    f"grid_dims must be a tuple of positive ints, got {dims!r}")
            object.__setattr__(self, "grid_dims", tuple(map(int, dims)))
        object.__setattr__(self, "blockwise_halo", bool(self.blockwise_halo))
        object.__setattr__(self, "optimize", bool(self.optimize))
        check_observers(self.backend)

    @classmethod
    def of(cls, matrix, **options) -> ProgramShape:
        """The shape ``options`` name, checked against ``matrix``:
        ``grid_dims`` covers its rows and splits into one block per tile
        the rows are spread over."""
        shape = cls(**options)
        dims = shape.grid_dims
        if dims is None:
            return shape
        n = int(matrix.n)
        if math.prod(dims) != n:
            raise SolverConfigError(
                f"grid_dims {dims} holds {math.prod(dims)} cells "
                f"but the matrix has {n} rows")
        tiles = shape.num_ipus * shape.tiles_per_ipu
        parts = min(shape.num_tiles or tiles, n, tiles)
        blocks = grid_factors(parts, len(dims))
        if any(b > d for b, d in zip(blocks, dims)):
            raise SolverConfigError(
                f"grid_dims {dims} cannot be split into {blocks} blocks, "
                f"one per tile of the {parts} the matrix is spread over")
        return shape

    @classmethod
    def split(cls, matrix, options: dict) -> tuple:
        """``options`` as the shape they name (:meth:`of`) and the rest."""
        names = cls.__dataclass_fields__
        shape = cls.of(matrix, **{k: v for k, v in options.items() if k in names})
        return shape, {k: v for k, v in options.items() if k not in names}

    def key(self, matrix, config, *, resilient: bool = False, batch: int = 1) -> str:
        """The cache key: everything the lowered program artifact depends on.

        ``b`` and ``x0`` are deliberately absent — they are host-rebindable
        (see the module docstring).  ``resilient`` keys on whether a
        :class:`~repro.solvers.resilience.ResilienceMonitor` was woven into
        the schedule (its detection callbacks are program steps).  ``batch``
        keys on the RHS batch width: a batched program allocates ``(n,
        batch)`` shards and a masked iteration loop, so each width is its own
        artifact (``b``'s *values* still rebind freely within a width).
        """
        parts = {
            **vars(self),
            "matrix": fingerprint_matrix(matrix),
            "config": json.dumps(load_config(config), sort_keys=True, default=str),
            "resilient": bool(resilient),
            "batch": int(batch),
        }
        return hashlib.sha256(json.dumps(parts, sort_keys=True).encode()).hexdigest()


def fingerprint_solve(matrix, config, *, resilient: bool = False, batch: int = 1,
                      **shape) -> str:
    """:meth:`ProgramShape.key` of the shape the keywords name."""
    return ProgramShape(**shape).key(matrix, config, resilient=resilient, batch=batch)


@dataclass
class CompiledSolve:
    """One built solver program, ready to re-run against new host values.

    Holds the live object graph of a single ``_build_program`` +
    ``ctx.compile`` invocation — context, solver tree, bound x/b vectors,
    device, monitor — plus ``initial_state``: a
    :meth:`~repro.graph.variable.Variable.snapshot` of every graph
    variable's flat storage taken *before* the first execution.
    :meth:`prepare` rolls the device back to that image, which is what
    makes a re-run bit-identical to the first run (the program itself is
    never mutated by execution; only the storage is).  So an entry runs one
    solve at a time: its :class:`ProgramCache` owns the execution lock,
    :meth:`ProgramCache.lock`, which :func:`~repro.solvers.solve` holds
    from the lookup to the finished result.
    """

    key: str
    ctx: object  # TensorContext
    solver: object  # the root Solver
    xvec: object  # DistVector bound to x
    bvec: object  # DistVector bound to b
    device: object  # IPUDevice the graph's shards live on
    compiled: object  # the frozen CompiledProgram artifact
    monitor: object = None  # ResilienceMonitor woven into the schedule, or None
    build_seconds: float = 0.0  # host wall-clock of build + lowering
    runs: int = 0  # executions served from this entry
    initial_state: dict = field(default_factory=dict, repr=False)
    #: Bytes this entry pins: every variable's flat storage plus its snapshot.
    nbytes: int = 0

    @classmethod
    def capture(cls, key, ctx, solver, xvec, bvec, device, compiled,
                monitor=None, build_seconds: float = 0.0) -> "CompiledSolve":
        """Snapshot the post-build, pre-run state of every graph variable."""
        initial = {}
        for name, var in ctx.graph.variables.items():
            # The whole-buffer snapshot/restore is only the shards' state
            # if every shard is a view into the flat storage.
            assert all(
                np.shares_memory(sh.data, var.flat_data)
                and (sh.lo is None or np.shares_memory(sh.lo, var.flat_lo))
                for sh in var.shards.values()
            ), f"variable {name!r}: a shard is not a view of the flat storage"
            initial[name] = var.snapshot()
        nbytes = 2 * sum(
            a.nbytes for snap in initial.values() for a in snap if a is not None
        )
        return cls(
            key=key, ctx=ctx, solver=solver, xvec=xvec, bvec=bvec,
            device=device, compiled=compiled, monitor=monitor,
            build_seconds=build_seconds, initial_state=initial, nbytes=nbytes,
        )

    def prepare(self, b, x0=None, rconfig=None) -> None:
        """Reset for a fresh run: restore the initial image, rebind hosts.

        Restores every variable's storage, clears the solver tree's
        :class:`~repro.solvers.base.SolveStats` *in place* (runtime
        callbacks close over them), resets the monitor and the device
        profiler clock, then writes the new ``b`` (and ``x0``, default
        zeros — the build-time initial image) through the halo-reordering
        host writes.
        """
        for name, var in self.ctx.graph.variables.items():
            snap = self.initial_state.get(name)
            if snap is None:
                # It would carry the previous solve's state into this one.
                raise ReproError(
                    f"graph variable {name!r} was created after the program "
                    "was captured; it has no initial image to restore"
                )
            var.restore(snap)
        for s in self.solver.iter_tree():
            s.stats.reset()
            # Batched programs also carry one SolveStats per RHS column;
            # the record callbacks close over the list's elements, so
            # clear them in place too.
            for st in s.batch_stats or ():
                st.reset()
        if self.monitor is not None:
            self.monitor.reset(rconfig)
        self.device.profiler.reset()
        self.bvec.write_global(np.asarray(b, dtype=np.float64))
        if x0 is not None:
            self.xvec.write_global(np.asarray(x0, dtype=np.float64))
        self.runs += 1


class ProgramCache:
    """LRU cache of :class:`CompiledSolve` entries keyed by fingerprint.

    Thread-safe: every map operation (get/put/evict/clear) and every
    hit/miss/eviction counter update happens under one internal ``RLock``,
    so a cache shared by threads — a :class:`SolverSession`, or the serving
    runtime's worker pool (``docs/serving.md``) — never corrupts its LRU
    order or under-counts.

    Executing an entry overwrites its shard arrays, so the cache also
    serializes the runs: :meth:`lock` is one execution lock per
    fingerprint, held by :func:`~repro.solvers.solve` from the lookup to
    the finished result.  Solves of one structure take turns (a cold burst
    builds once, and the rest hit); distinct structures run concurrently.
    """

    def __init__(self, capacity: int = 8):
        if capacity < 1:
            raise ReproError("ProgramCache capacity must be >= 1")
        self.capacity = capacity
        self._entries: OrderedDict[str, CompiledSolve] = OrderedDict()
        self._lock = threading.RLock()
        #: fingerprint -> [execution lock, threads holding or awaiting it].
        self._runs: dict[str, list] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @contextmanager
    def lock(self, key: str):
        """Hold ``key``'s execution lock for the ``with`` block.

        Independent of the LRU map: an evicted entry's lock still
        serializes whoever holds it, and a lock is dropped only once no
        thread holds or awaits it.
        """
        with self._lock:
            run = self._runs.get(key)
            if run is None:
                run = self._runs[key] = [threading.Lock(), 0]
            run[1] += 1
        try:
            with run[0]:
                yield
        finally:
            with self._lock:
                run[1] -= 1
                if not run[1]:
                    del self._runs[key]

    def get(self, key: str) -> CompiledSolve | None:
        """Look up ``key``; counts a hit (and refreshes LRU order) or a miss."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry

    def put(self, key: str, entry: CompiledSolve) -> None:
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def stats(self) -> dict:
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "size": len(self._entries),
                "capacity": self.capacity,
                "bytes": sum(entry.nbytes for entry in self._entries.values()),
            }

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __contains__(self, key: str) -> bool:  # no LRU / counter side effects
        with self._lock:
            return key in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __repr__(self):
        s = self.stats()
        return (
            f"ProgramCache(size={s['size']}/{s['capacity']}, bytes={s['bytes']}, "
            f"hits={s['hits']}, misses={s['misses']}, evictions={s['evictions']})"
        )


class SolverSession:
    """A reusable solve pipeline pinned to one (matrix, config, shape).

    The first :meth:`solve` builds and lowers the program; every later
    call with the same structure rebinds ``b``/``x0`` into the cached
    :class:`~repro.graph.CompiledProgram` and re-executes it — no symbolic
    execution, no compiler passes, no re-partitioning.  The shape options
    among ``solve_kwargs`` are checked once, here, as a
    :class:`ProgramShape`; the rest are :func:`~repro.solvers.solve`'s own
    options, passed to every call.  Per-call keyword overrides are allowed
    (e.g. a different ``num_tiles``) and simply key a different cache
    entry.  Threads may share a session: their solves take turns on the
    compiled program (:meth:`ProgramCache.lock`).

        session = SolverSession(matrix, "cg", grid_dims=(40, 40))
        for b in rhs_stream:
            x = session.solve(b).x
    """

    def __init__(self, matrix, config, cache: ProgramCache | None = None, **solve_kwargs):
        self.matrix = matrix
        self.config = config
        self.cache = cache if cache is not None else ProgramCache()
        self.shape, self.options = ProgramShape.split(matrix, solve_kwargs)

    def solve(self, b, x0=None, **overrides):
        """Solve ``A x = b`` through the session's compile cache."""
        from repro.solvers.api import solve as _solve

        kwargs = {**vars(self.shape), **self.options, **overrides}
        return _solve(self.matrix, b, self.config, x0=x0, cache=self.cache, **kwargs)

    def stats(self) -> dict:
        """The session cache's hit/miss/eviction counters."""
        return self.cache.stats()

    def __repr__(self):
        return f"SolverSession(config={self.config!r}, cache={self.cache!r})"

