"""Kernel lowering: fuse runs of adjacent steps into whole-device kernels.

This is the second lowering stage of the graph compiler, run after plan
building (:mod:`repro.graph.passes.plans`).  It walks the optimized
schedule and groups every maximal run of adjacent ``Execute`` / ``Exchange``
steps inside a block — flushed only at control-flow boundaries and host
callbacks — into a :class:`FusedKernel`: one host-side dispatch that
executes the whole run as vectorized numpy over *flat per-device arrays*
(the ``Variable.flat_data`` buffers the shard views alias).

The lowering is spec-driven: codelets carry declarative
``Elementwise/Reduce/Spmv/SweepSpec`` metadata (:mod:`repro.graph.codelet`),
and each spec group in a compute set becomes a single whole-device numpy
expression — per-tile gather/scatter disappears because the shard views
already alias one flat buffer, so the "gather" is the identity and only
genuinely scalar operands are expanded (``np.repeat`` over the segment
sizes, reproducing per-tile broadcast exactly).  A level-scheduled sweep
(ILU/DILU substitution, Gauss-Seidel) runs the solver's own substitution
over the tiles' plans merged level by level
(:meth:`repro.solvers.sweeps.SweepPlan.merged`).  An SpMV is one op over
the whole device's rows: the native working-precision SpMV
(:class:`repro.sparse.sell.DeviceSpmv`) or the native binary64 residual
SpMV of MPIR (:class:`repro.sparse.distribute.DeviceExtendedSpmv`).
Codelets without a spec — CodeDSL vertices — fall back to batched
per-vertex dispatch *inside* the kernel, so fusion never changes what runs,
only how it is dispatched; cost-only codelets emit nothing.

Every vectorized path reuses the exact numpy/Joldes op sequence of the
per-tile path (the same expression program, run by the native evaluator
or by the same numpy interpreter with a flat leaf resolver, the same
pairwise summation shapes, the same ``np.bincount``)
or reproduces its rounding order term by term (the native SpMV and its
numpy oracle :class:`repro.sparse.sell.SlotMajorRows` against the
per-tile ``np.add.reduceat``), which is why ``fused`` results are
bit-identical to ``sim`` — enforced by the property tests in
``tests/graph/test_kernels.py``, ``tests/sparse/test_sell.py``,
``tests/sparse/test_device_spmv.py`` and ``tests/solvers/test_sweeps.py``.
Exchanges replay the plan's flat copy ops: one gather/scatter per
whole-device buffer pair (:mod:`repro.graph.passes.plans`).

The native ops — expression programs (float32 or double-word), copies,
SpMVs and sweeps — are bound once here as table entries
(:mod:`repro.solvers.native`); on its first launch a kernel folds each
maximal run of them into one table, so a launch makes one ctypes call per
run (``tests/graph/test_native_tables.py``).

The schedule is stored on the :class:`CompiledProgram` alongside the
per-step plans.  Every run launches it except one a cycle tracer or a fault
injector observes: those see every superstep, so ``sim`` steps the plans
vertex by vertex for them.
"""

from __future__ import annotations

import functools
from collections import Counter
from typing import NamedTuple

import numpy as np

from repro.graph.codelet import (
    BatchReduceSpec,
    ElementwiseSpec,
    ReduceSpec,
    SpmvSpec,
    SweepSpec,
)
from repro.graph.passes.plans import ComputePlan, _distinct
from repro.graph.program import (
    Execute,
    Exchange,
    HostCallback,
    If,
    Repeat,
    RepeatWhile,
    Sequence,
    Step,
)

__all__ = ["ExchangeOp", "FusedKernel", "KernelCost", "KernelSchedule", "build_kernels"]


class _Unvectorizable(Exception):
    """Raised by a group lowerer when a vectorization precondition fails;
    the group falls back to batched per-vertex dispatch."""


class KernelCost(NamedTuple):
    """One launch's price: its steps' records folded (``FusedKernel.cost``)."""

    cycles: tuple  # ((profiler key, cycles), ...) in first-charge order
    est_bytes: int
    est_flops: int


class FusedKernel:
    """One whole-device kernel: a fused run of compute/exchange steps.

    ``ops`` is the ordered tuple of zero-argument callables (vectorized
    group evaluators, :class:`ExchangeOp` replays, batched fallbacks) that
    one dispatch executes: the logical ops.  ``calls`` is how they run —
    :func:`repro.solvers.native.fold` of ``ops`` on the first launch, every
    maximal run of consecutive native entries one ``repro_run`` table, so a
    launch makes one ctypes call per run rather than one per op.
    ``n_compute`` / ``n_exchange`` count the absorbed steps (the engine
    keeps its superstep statistics in parity with the interpreted
    backends), ``n_dispatch`` the per-step dispatch calls the kernel
    replaces, and ``fallbacks`` names the codelet of every per-vertex
    run that could not be vectorized (``n_fallback`` of them).

    ``plans`` are the absorbed steps' plans in schedule order; ``cost``
    folds their records (:mod:`repro.graph.passes.costs`) on first read into
    what one launch charges on a cycle clock and the traffic and arithmetic
    estimate (``est_bytes`` / ``est_flops``) the wall-clock profiler reads.
    A ``fused`` run no clock or wall tracer observes never reads it.
    """

    __slots__ = ("name", "ops", "n_compute", "n_exchange", "n_dispatch", "fallbacks",
                 "n_fallback", "plans", "_cost", "_calls")

    def __init__(self, name: str, ops: tuple, n_compute: int, n_exchange: int,
                 n_dispatch: int, fallbacks: tuple, plans: tuple = ()):
        self.name = name
        self.ops = ops
        self.n_compute = n_compute
        self.n_exchange = n_exchange
        self.n_dispatch = n_dispatch
        self.fallbacks = fallbacks
        self.n_fallback = len(fallbacks)
        self.plans = plans
        self._cost = None
        self._calls = None

    @property
    def cost(self) -> KernelCost:
        if self._cost is None:
            costs = [plan.cost for plan in self.plans]
            cycles: dict = {}  # per profiler key, in first-charge order
            for c in costs:
                cycles[c.key] = cycles.get(c.key, 0) + c.cycles
            self._cost = KernelCost(tuple(cycles.items()), sum(c.est_bytes for c in costs),
                                    sum(c.est_flops for c in costs))
        return self._cost

    @property
    def est_bytes(self) -> int:
        return self.cost.est_bytes

    @property
    def est_flops(self) -> int:
        return self.cost.est_flops

    @property
    def calls(self) -> tuple:
        if self._calls is None:
            from repro.solvers.native import fold  # the package's one C library and its runner

            self._calls = fold(self.ops)
        return self._calls

    def run(self) -> None:
        for call in self._calls or self.calls:
            call()

    def __repr__(self):
        return (
            f"FusedKernel({self.name!r}, compute={self.n_compute}, "
            f"exchange={self.n_exchange}, dispatch {self.n_dispatch}->1)"
        )


class ExchangeOp:
    """Kernel op replaying one absorbed exchange from its plan's flat copies,
    each bound once (:meth:`repro.graph.passes.plans.CopyOp.bind`: a float32
    copy is a native copy entry per half); ``parts`` are the bound copies,
    which a kernel's table fold opens up.

    ``n_assign`` is the static number of array assignments one call
    performs (a double-word copy moves its hi and lo halves separately).
    """

    __slots__ = ("copies", "n_assign", "parts")

    def __init__(self, copies: tuple):
        from repro.solvers.native import Chain  # the package's one C library and its runner

        self.copies = copies
        self.n_assign = sum(1 if c.dst_lo is None else 2 for c in copies)
        self.parts = Chain(copy.bind() for copy in copies).parts

    def __call__(self) -> None:
        for part in self.parts:
            part()


class KernelSchedule:
    """Per-block kernel item lists of one compiled program.

    A *block* is a step the engine enters as a unit: a ``Sequence``, a loop
    body, or an ``If`` branch.  ``items_for`` maps a block (by identity,
    like the plan table) to its lowered item tuple — ``FusedKernel`` objects
    interleaved with the control-flow / host-callback steps that flushed
    them.  Steps absorbed into a kernel never appear as items.  ``loops``
    maps a loop step (by identity) to its folded native table, ``None`` when
    it does not fold: the engine fills it on a loop's first unobserved
    launch (:mod:`repro.graph.loops`).
    """

    __slots__ = ("_items", "kernels", "loops")

    def __init__(self, items: dict, kernels: tuple):
        self._items = items
        self.kernels = kernels
        self.loops: dict = {}

    @property
    def n_kernels(self) -> int:
        return len(self.kernels)

    def items_for(self, step: Step):
        """The lowered items of one block, or ``None`` if unknown."""
        return self._items.get(id(step))

    def _walk(self, step: Step, label: str = ""):
        """``(kernel, innermost enclosing loop label)`` for every kernel
        launched by one pass through ``step``'s block (visiting each nested
        block once, regardless of loop trip counts)."""
        for item in self._items.get(id(step)) or ():
            if isinstance(item, FusedKernel):
                yield item, label
            elif isinstance(item, Sequence):
                yield from self._walk(item, label)
            elif isinstance(item, (Repeat, RepeatWhile)):
                yield from self._walk(item.body, item.label or label)
            elif isinstance(item, If):
                yield from self._walk(item.then_body, label)
                if item.else_body is not None:
                    yield from self._walk(item.else_body, label)

    def kernels_in(self, step: Step) -> list:
        """Kernels launched by one pass through ``step``'s block."""
        return [kernel for kernel, _ in self._walk(step)]

    def fallback_rows(self, root: Step) -> list:
        """What is still dispatched vertex by vertex: one ``(kernel name,
        loop label, {codelet: vertices})`` row per kernel with fallbacks, in
        schedule order.  ``loop label`` is the innermost labeled loop
        around the kernel (``""`` outside any); codelet names drop their
        ``@tile`` suffix."""
        rows, seen = [], set()
        for kernel, label in self._walk(root):
            if kernel.fallbacks and id(kernel) not in seen:
                seen.add(id(kernel))
                counts = Counter(name.split("@")[0] for name in kernel.fallbacks)
                rows.append((kernel.name, label, dict(counts)))
        return rows

    def loop_kernels(self, root: Step, label: str) -> list:
        """Kernels of one iteration of the loop labeled ``label`` under
        ``root``."""
        loop = _find_loop(root, label)
        if loop is None:
            raise KeyError(f"no loop labeled {label!r} in schedule")
        return self.kernels_in(loop.body)

    def loop_kernel_count(self, root: Step, label: str) -> int:
        """Kernels per iteration of the loop labeled ``label`` under ``root``
        (the fig5 acceptance metric: kernels per CG inner-loop iteration)."""
        return len(self.loop_kernels(root, label))

    def stats(self) -> dict:
        """Aggregate lowering statistics (surfaced through telemetry)."""
        return {
            "kernels": len(self.kernels),
            "steps_fused": sum(k.n_compute + k.n_exchange for k in self.kernels),
            "dispatches_replaced": sum(k.n_dispatch for k in self.kernels),
            "fallback_vertices": sum(k.n_fallback for k in self.kernels),
            "est_bytes": sum(k.est_bytes for k in self.kernels),
            "est_flops": sum(k.est_flops for k in self.kernels),
        }


def _find_loop(step: Step, label: str):
    if isinstance(step, (Repeat, RepeatWhile)) and step.label == label:
        return step
    children = ()
    if isinstance(step, Sequence):
        children = step.steps
    elif isinstance(step, (Repeat, RepeatWhile)):
        children = (step.body,)
    elif isinstance(step, If):
        children = (step.then_body,) + ((step.else_body,) if step.else_body else ())
    for c in children:
        found = _find_loop(c, label)
        if found is not None:
            return found
    return None


# -- leaf resolution over flat buffers ---------------------------------------------------


def _leaf_vars(expr) -> list:
    seen: dict = {}
    for leaf in expr.leaves():
        seen.setdefault(id(leaf.var), leaf.var)
    return list(seen.values())


def _flat_ndim(var) -> int:
    """Expected flat-buffer rank of a *distributed* variable: the batch axis
    adds one trailing dimension (``(n, batch)`` instead of ``(n,)``)."""
    return 1 if var.batch == 1 else 2


def _leaf_sources(leaf_vars, tiles, ref, lo, hi) -> dict:
    """Where each leaf's values live for element-major (distributed)
    evaluation: ``id(var) -> (hi, lo, index)``.

    A leaf whose shards are the reference mapping rows ``ref`` (one per
    tile of ``tiles``) is the zero-copy view ``flat[lo:hi]`` (``index``
    ``None``); a per-tile scalar leaf is a whole-device buffer whose row
    ``index[i]`` holds the value of the ``i``-th tile in ``tiles``.  Batched
    leaves work identically — all indexing is along axis 0, the batch
    columns ride along.  ``lo`` is ``None`` unless the variable is
    double-word.  Anything else is unvectorizable.
    """
    sources: dict = {}
    for var in leaf_vars:
        if var.flat_data is None:
            raise _Unvectorizable
        aligned = (
            ref is not None
            and not var.replicated
            and var.flat_data.ndim == _flat_ndim(var)
            and var.maps(ref)
        )
        if aligned:
            sources[id(var)] = (var.flat_data[lo:hi],
                                var.flat_lo[lo:hi] if var.paired else None, None)
            continue
        rows = var.rows_of(tiles)
        if not ((rows >= 0).all() and (var.mapping[rows, 2] - var.mapping[rows, 1] == 1).all()):
            raise _Unvectorizable
        if var.replicated:
            data, lo_arr = var.flat_data[:, 0], var.flat_lo[:, 0] if var.paired else None
        else:
            if var.flat_data.ndim != _flat_ndim(var):
                raise _Unvectorizable
            rows = var.mapping[rows, 1]
            data, lo_arr = var.flat_data, var.flat_lo
        sources[id(var)] = (data, lo_arr, rows.astype(np.intp))
    return sources


def _fetchers(sources: dict, seg_sizes) -> dict:
    """Per-variable flat-value fetchers over :func:`_leaf_sources`: the
    aligned view, or a per-tile scalar repeated over the segment sizes
    (exactly the per-tile numpy broadcast, materialized)."""

    def fetcher(data, lo_arr, index):
        if index is None:
            value = data if lo_arr is None else (data, lo_arr)
            return lambda: value
        if lo_arr is None:
            return lambda: np.repeat(data[index], seg_sizes, axis=0)
        return lambda: (np.repeat(data[index], seg_sizes, axis=0),
                        np.repeat(lo_arr[index], seg_sizes, axis=0))

    return {key: fetcher(*source) for key, source in sources.items()}


def _native(program, sources: dict, offsets, out, out_at, fallback):
    """``fallback`` as one call of a native evaluator
    (:meth:`repro.tensordsl.materialize.Program.bind`) — or ``fallback``
    itself when the program has a batched node or the buffers are not ones
    the call can take.  A double word's buffers are its ``(hi, lo)`` pair.
    A group without per-tile scalars is one segment: its elements do not
    depend on the tiles."""
    vectors, scalars = {}, {}
    for i, var in enumerate(program.leaves):
        data, lo, index = sources[id(var)]
        if lo is not None:
            data = (data, lo)
        if index is None:
            vectors[i] = data
        else:
            scalars[i] = (data, index)
    if not scalars and out_at is None:
        offsets = offsets[[0, -1]]
    try:
        return program.bind(offsets, vectors, scalars, out, out_at, fallback)
    except (TypeError, ValueError):  # a program or buffers the native call cannot take
        return fallback


def _pair(hi, lo=None):
    """An output buffer as a native evaluator takes it: ``hi``, or a double
    word's ``(hi, lo)``."""
    return hi if lo is None else (hi, lo)


def _make_resolver(fetchers: dict):
    cache: dict = {}

    def resolve(leaf):
        key = id(leaf.var)
        value = cache.get(key)
        if value is None:
            value = fetchers[key]()
            cache[key] = value
        return value

    return resolve


def _contiguous_order(var, tiles) -> tuple:
    """Group tiles sorted by ``var``'s intervals; requires a gap-free range.

    Returns ``(order, rows, lo, hi, seg_sizes)``: ``rows`` are ``var``'s
    mapping rows of the tiles in ``order``.
    """
    found = var.rows_of(tiles)
    if (found < 0).any():
        raise _Unvectorizable
    rows = var.mapping[found]
    rows = rows[np.argsort(rows[:, 1], kind="stable")]
    if (rows[1:, 1] != rows[:-1, 2]).any():
        raise _Unvectorizable
    seg = (rows[:, 2] - rows[:, 1]).astype(np.intp)
    return rows[:, 0], rows, int(rows[0, 1]), int(rows[-1, 2]), seg


# -- group lowerers ----------------------------------------------------------------------


def _lower_elementwise_group(spec: ElementwiseSpec, tiles):
    from repro.tensordsl.materialize import assignment_evaluator

    expr, out = spec.expr, spec.out_var
    if _distinct(tiles) != len(tiles):
        raise _Unvectorizable
    leaf_vars = _leaf_vars(expr)

    if out.replicated:
        # Row-wise evaluation over the stacked (replicas, size) buffers: every
        # leaf must be replicated with a replica on each group tile, so the
        # pointwise ops compute each group tile's row exactly as its vertex
        # would.  Rows follow ``out``'s storage order; a variable whose rows
        # for the group are one run is a view (the whole buffer when the
        # group spans its replicas), else a gather — and ``out``'s rows of
        # tiles outside the group are left alone.
        variables = {id(var): var for var in (out, *leaf_vars)}
        if not all(var.replicated and var.flat_data is not None for var in variables.values()):
            raise _Unvectorizable
        rows = {key: var.rows_of(tiles) for key, var in variables.items()}
        if any((r < 0).any() for r in rows.values()):
            raise _Unvectorizable
        order = np.argsort(rows[id(out)], kind="stable")
        index = {key: _run_or_rows(r[order]) for key, r in rows.items()}
        fetchers = {id(var): _row_fetcher(var, index[id(var)]) for var in leaf_vars}
        at = index[id(out)]
        program = assignment_evaluator(expr, out)

        def op():
            value = program(_make_resolver(fetchers))
            if out.flat_lo is None:
                out.flat_data[at] = value
            else:
                out.flat_data[at], out.flat_lo[at] = value

        # The native call takes the rows as one segment of vectors when each
        # variable's are one run shaped like out's (no gather anywhere).
        if not all(isinstance(i, slice) for i in index.values()):
            return op
        views = {key: tuple(None if p is None else p[index[key]]
                            for p in (var.flat_data, var.flat_lo))
                 for key, var in variables.items()}
        shape = views[id(out)][0].shape
        if not all(p is None or p.shape == shape and p.flags.c_contiguous
                   for pair in views.values() for p in pair):
            return op
        sources = {key: (*(None if p is None else p.reshape(-1) for p in pair), None)
                   for key, pair in views.items()}
        hi, lo, _ = sources[id(out)]
        return _native(program, sources, np.array([0, hi.size]), _pair(hi, lo), None, op)
    if out.flat_data is None or out.flat_data.ndim != _flat_ndim(out):
        raise _Unvectorizable
    order, ref, lo, hi, seg = _contiguous_order(out, tiles)
    sources = _leaf_sources(leaf_vars, order, ref, lo, hi)
    fetchers = _fetchers(sources, seg)
    out_hi = out.flat_data[lo:hi]
    out_lo = out.flat_lo[lo:hi] if out.paired else None
    program = assignment_evaluator(expr, out)

    def op():
        value = program(_make_resolver(fetchers))
        if out_lo is None:
            out_hi[...] = value
        else:
            out_hi[...], out_lo[...] = value

    offsets = np.concatenate([[0], np.cumsum(seg)])
    return _native(program, sources, offsets, _pair(out_hi, out_lo), None, op)


def _run_or_rows(rows):
    """A row index over a stacked replica buffer: a slice when ``rows`` is
    one ascending run, else the rows themselves (a gather)."""
    if (np.diff(rows) == 1).all():
        return slice(int(rows[0]), int(rows[-1]) + 1)
    return rows.astype(np.intp)


def _row_fetcher(var, index):
    """Fetcher of a replicated leaf's rows ``index`` (a view or a gather)."""
    if var.flat_lo is None:
        return lambda: var.flat_data[index]
    return lambda: (var.flat_data[index], var.flat_lo[index])


def _equal_segments(seg) -> bool:
    """All segments share one non-zero length (they reduce as one matrix)."""
    return len(seg) > 0 and seg[0] > 0 and bool((seg == seg[0]).all())


def _reduce_segments(value, dt: str, op: str, seg, offsets, equal: bool):
    """Per-segment reduction matching materialize._reduce_value per segment;
    ``equal`` is the static :func:`_equal_segments` of ``seg``: the
    segments then reduce as the rows of one matrix."""
    from repro.tensordsl.materialize import _dw_tree_sum, _reduce_value

    T = len(seg)
    paired = dt == "dw"
    if paired:
        parts = [np.asarray(part, np.float32).ravel() for part in value]
    else:
        parts = [np.asarray(value).ravel()]
    if not equal:
        res = np.empty((len(parts), T), parts[0].dtype)
        for i in range(T):
            a, b = offsets[i], offsets[i + 1]
            res[:, i] = _reduce_value(tuple(p[a:b] for p in parts) if paired else parts[0][a:b],
                                      dt, op)
        return (res[0], res[1]) if paired else res[0]
    rows = [p.reshape(T, int(seg[0])) for p in parts]
    if not paired:
        m = rows[0]
        if op == "sum":
            return m.sum(axis=1, dtype=m.dtype)
        return m.max(axis=1) if op == "max" else m.min(axis=1)
    H, L = rows
    if op == "sum":
        return _dw_tree_sum(H, L)
    wide = H.astype(np.float64) + L.astype(np.float64)
    k = np.argmax(wide, axis=1) if op == "max" else np.argmin(wide, axis=1)
    return H[np.arange(T), k], L[np.arange(T), k]


def _reduce_segments_batched(value, dt: str, op: str, seg, offsets, batch: int):
    """Batched per-segment reduction: each (segment, RHS-column) pair runs
    the same per-column `_reduce_value` as the per-tile batched path — a
    row-slice of the whole-device value is the tile's value, so results are
    bit-identical to the sim backend per RHS."""
    from repro.tensordsl.materialize import _reduce_value_batched

    T = len(seg)
    arr = np.asarray(value)
    res = np.empty((T, batch), arr.dtype)
    for i in range(T):
        a, b = int(offsets[i]), int(offsets[i + 1])
        res[i] = _reduce_value_batched(arr[a:b], dt, op, b - a, batch)
    return res


def _lower_reduce_group(spec: ReduceSpec, tiles):
    from repro.tensordsl.materialize import compile_expr
    from repro.tensordsl.types import Type

    expr, out, rop = spec.expr, spec.out_var, spec.op
    batch = expr.batch
    if _distinct(tiles) != len(tiles):
        raise _Unvectorizable
    # A replicated scalar ``out`` (the combine of a global reduction) keeps
    # one row per replica: ``(replicas, 1[, batch])``.
    if out.flat_data is None or out.flat_data.ndim != _flat_ndim(out) + out.replicated:
        raise _Unvectorizable
    if out.dtype != expr.dtype or out.batch != batch:
        raise _Unvectorizable
    if batch > 1 and expr.dtype == "dw":
        raise _Unvectorizable
    if not (out.sizes_on(tiles, missing=0) == 1).all():
        raise _Unvectorizable
    leaf_vars = _leaf_vars(expr)
    # Segment layout comes from the non-scalar leaves (per-tile evaluation
    # reduces a value of the largest leaf shard size on each tile).
    big = [
        v
        for v in leaf_vars
        if not v.replicated
        and v.flat_data is not None
        and v.flat_data.ndim == _flat_ndim(v)
        and (v.sizes_on(tiles, missing=0) > 1).any()
    ]
    if big:
        order, ref, lo, hi, seg = _contiguous_order(big[0], tiles)
    else:
        starts = out.mapping[out.rows_of(tiles), 1]
        order = np.asarray(tiles, dtype=np.int64)[np.argsort(starts, kind="stable")]
        ref, lo, hi = None, 0, 0
        seg = np.ones(len(order), dtype=np.intp)
    offsets = np.concatenate([[0], np.cumsum(seg)])
    total = int(offsets[-1])
    sources = _leaf_sources(leaf_vars, order, ref, lo, hi)
    fetchers = _fetchers(sources, seg)
    out_hi, out_lo = out.flat_data, out.flat_lo
    out_idx = out.rows_of(order)
    if out.replicated:
        out_hi = out_hi[:, 0]
        out_lo = out_lo[:, 0] if out_lo is not None else None
    else:
        out_idx = out.mapping[out_idx, 1]
    out_idx = out_idx.astype(np.intp)
    expr_dt = expr.dtype
    paired = expr_dt == Type.DOUBLEWORD
    equal = _equal_segments(seg)
    shape = (total,) if batch == 1 else (total, batch)
    program = compile_expr(expr)

    def whole(part):
        """A scalar-valued expression, broadcast over the segment layout."""
        part = np.asarray(part)
        return part if part.shape == shape else np.broadcast_to(part, shape)

    def op():
        value = program(_make_resolver(fetchers))
        if paired:
            res_h, res_l = _reduce_segments(
                (whole(value[0]), whole(value[1])), expr_dt, rop, seg, offsets, equal
            )
            out_hi[out_idx] = res_h
            out_lo[out_idx] = res_l
        elif batch > 1:
            out_hi[out_idx] = _reduce_segments_batched(
                whole(value), expr_dt, rop, seg, offsets, batch
            )
        else:
            out_hi[out_idx] = _reduce_segments(whole(value), expr_dt, rop, seg, offsets, equal)

    if rop != "sum":
        return op
    return _native(program, sources, offsets, _pair(out_hi, out_lo), out_idx, op)


def _device_layout(m, tiles, owned_vars, hvar, batch: int):
    """Check that a group covers exactly ``m``'s tiles and that its vectors
    sit in the whole-device layout ``m`` itself allocates (the index space
    of ``DistributedMatrix.device_columns`` and of the merged sweep plans):
    ``owned_vars`` in the owned mapping, ``hvar`` (unless ``None``) in the
    halo mapping, all with ``batch`` RHS columns.  Returns the flat halo
    buffer, ``None`` when there is no halo to read."""
    if not (_distinct(tiles) == len(tiles) and np.array_equal(np.sort(tiles), m.tiles)):
        raise _Unvectorizable

    def mapped(var, size, rows):
        return (
            not var.replicated
            and var.flat_data is not None
            and var.flat_data.ndim == _flat_ndim(var)
            and var.batch == batch
            and var.size == size
            and var.maps(rows)
        )

    owned = m.owned_mapping()
    if not all(mapped(var, m.n, owned) for var in owned_vars):
        raise _Unvectorizable
    halo_map, halo_total = m.halo_mapping()
    if hvar is None or not halo_total:
        return None
    if not mapped(hvar, halo_total, halo_map):
        raise _Unvectorizable
    return hvar.flat_data


def _lower_spmv_group(spec: SpmvSpec, tiles):
    """One op per SpMV over the whole device's rows and ``[owned | halo]``
    columns: the native working-precision SpMV
    (:class:`repro.sparse.sell.DeviceSpmv`), or the native binary64
    evaluation of :func:`repro.sparse.distribute.extended_spmv`
    (:class:`repro.sparse.distribute.DeviceExtendedSpmv`).  Both sum a
    row's products in the per-tile order, so they equal the per-tile
    vertices bit for bit."""
    from repro.tensordsl.types import Type

    m, x, y = spec.matrix, spec.x, spec.y
    xvar, yvar, hvar = x.owned.var, y.owned.var, x.halo.var
    hflat = _device_layout(m, tiles, (xvar, yvar), hvar, xvar.batch)
    if xvar.dtype == yvar.dtype == Type.FLOAT32:
        try:
            return m.device_spmv(xvar.batch).bind(xvar.flat_data, hflat, yvar.flat_data)
        except (TypeError, ValueError):  # buffers the native call cannot take
            raise _Unvectorizable from None
    spmv = m.device_extended()
    xs, ys = (xvar.flat_data, xvar.flat_lo), (yvar.flat_data, yvar.flat_lo)
    hs = None if hflat is None else (hflat, hvar.flat_lo)
    try:
        return spmv.bind(xs, hs, ys)
    except (TypeError, ValueError):  # buffers the native call cannot take
        return functools.partial(spmv.run_numpy, xs, hs, ys)


def _lower_sweep_group(spec: SweepSpec, tiles):
    """One op per sweep: the solver's substitution over its tiles' plans
    merged level by level, on the flat buffers.  A sweep row reads its own
    tile's rows and halo cells only, and sums exactly its own entries
    (``RowSegments``), so the whole-device run equals the per-tile runs bit
    for bit."""
    xvar, bvar = spec.x.owned.var, spec.b.owned.var
    hvar = spec.x.halo.var if spec.halo else None
    hflat = _device_layout(spec.matrix, tiles, (xvar, bvar), hvar, batch=1)
    from repro.solvers.native import Chain  # the package's one C library and its runner

    try:
        return Chain(spec.body(spec.device_state(), bvar.flat_data, xvar.flat_data, hflat))
    except (TypeError, ValueError):  # buffers the native calls cannot take
        raise _Unvectorizable from None


def _lower_batch_reduce_group(spec: BatchReduceSpec, tiles):
    """Whole-device batch-axis collapse: ``out[:, 0] = in[:, 0, :].max(axis=1)``
    over the stacked replica buffers.  max/min are order-insensitive, so the
    row-wise numpy reduction is bit-identical to each tile's own ``arr.max()``."""
    src, out, rop = spec.in_var, spec.out_var, spec.op
    if _distinct(tiles) != len(tiles):
        raise _Unvectorizable
    if not (src.replicated and out.replicated):
        raise _Unvectorizable
    if src.flat_data is None or out.flat_data is None:
        raise _Unvectorizable
    if not (np.array_equal(src.tiles, out.tiles)
            and np.array_equal(np.sort(src.tiles), np.sort(tiles))):
        raise _Unvectorizable
    if src.flat_data.ndim != 3 or out.flat_data.ndim != 2:
        raise _Unvectorizable
    src_flat, out_flat = src.flat_data, out.flat_data

    def op():
        arr = src_flat[:, 0, :]
        out_flat[:, 0] = arr.max(axis=1) if rop == "max" else arr.min(axis=1)

    return op


# -- compute-set and schedule lowering ---------------------------------------------------


_LOWERERS = {
    ElementwiseSpec: _lower_elementwise_group,
    ReduceSpec: _lower_reduce_group,
    BatchReduceSpec: _lower_batch_reduce_group,
    SweepSpec: _lower_sweep_group,
    SpmvSpec: _lower_spmv_group,
}


def _lower_compute_set(cs) -> tuple:
    """Lower one compute set into kernel ops, one per vertex group.

    Returns ``(ops, n_dispatch, fallbacks)`` —
    ``fallbacks`` the codelet names of the per-vertex runs left: the
    vertices of groups without a spec or that could not vectorize (the only
    groups whose vertices are ever built here).  Vertices within
    a compute set are element-disjoint (tile-local access + the
    FuseComputeSets disjointness invariant), so group order cannot be
    observed.
    """
    ops: list = []
    unvectorized: list = []
    for g in cs.groups:
        if g.cost_only:
            continue
        lower = _LOWERERS.get(type(g.spec))
        if lower is not None:
            try:
                ops.append(lower(g.spec, g.tiles))
                continue
            except _Unvectorizable:
                pass
        unvectorized.append(g)
    fallback = [v for g in unvectorized for v in g.vertices]
    if fallback:
        runs = tuple(v.run for v in fallback)

        def batched(runs=runs):
            for r in runs:
                r()

        ops.append(batched)
    return ops, len(cs), tuple(v.codelet.name for v in fallback)


def build_kernels(root: Step, plans) -> KernelSchedule:
    """Lower an optimized schedule + its plans into a :class:`KernelSchedule`."""
    items_by_block: dict = {}
    all_kernels: list = []
    cs_cache: dict = {}

    def lower_execute(step: Execute) -> tuple:
        key = id(step.compute_set)
        if key not in cs_cache:
            cs_cache[key] = _lower_compute_set(step.compute_set)
        return cs_cache[key]

    def lower_children(children) -> list:
        items: list = []
        ops: list = []
        absorbed: list = []  # the absorbed steps' plans
        fallbacks: list = []
        dispatches = 0  # the per-step dispatch calls the kernel replaces

        def flush():
            nonlocal dispatches
            if absorbed:
                n_compute = sum(1 for p in absorbed if isinstance(p, ComputePlan))
                kernel = FusedKernel(f"k{len(all_kernels)}", tuple(ops), n_compute,
                                     len(absorbed) - n_compute, dispatches,
                                     tuple(fallbacks), tuple(absorbed))
                all_kernels.append(kernel)
                items.append(kernel)
            ops.clear()
            absorbed.clear()
            fallbacks.clear()
            dispatches = 0

        for s in children:
            if isinstance(s, Execute):
                cs_ops, n_dispatch, cs_fallbacks = lower_execute(s)
                ops.extend(cs_ops)
                absorbed.append(plans.plan_for(s))
                fallbacks.extend(cs_fallbacks)
                dispatches += n_dispatch
            elif isinstance(s, Exchange):
                plan = plans.plan_for(s)
                ops.append(ExchangeOp(plan.flat))
                absorbed.append(plan)
                dispatches += plan.n_ops
            else:
                flush()
                if isinstance(s, Sequence):
                    lower_block(s)
                elif isinstance(s, (Repeat, RepeatWhile)):
                    lower_block(s.body)
                elif isinstance(s, If):
                    lower_block(s.then_body)
                    if s.else_body is not None:
                        lower_block(s.else_body)
                elif not isinstance(s, HostCallback):
                    raise TypeError(f"unknown program step: {s!r}")
                items.append(s)
        flush()
        return items

    def lower_block(step: Step) -> None:
        if id(step) in items_by_block:
            return
        if isinstance(step, Sequence):
            items_by_block[id(step)] = ()  # guard against re-entry on shared bodies
            items_by_block[id(step)] = tuple(lower_children(step.steps))
        else:
            items_by_block[id(step)] = ()
            items_by_block[id(step)] = tuple(lower_children([step]))

    lower_block(root)
    del lower_block, lower_children  # the two closures cycle through each other
    return KernelSchedule(items_by_block, tuple(all_kernels))
