"""Loops folded into one native table.

Poplar's engine runs ``Repeat`` / ``RepeatWhile`` / ``If`` on the device,
with no host round trip per iteration.  Here a loop whose body is native
can run the same way: :func:`fold_loop` packs the loop — its control steps
as the runner's control entries (``REPEAT``, ``WHILE``, ``IF``), its fused
kernels' tables inline, and each declaring host callback as ``LOG``
entries — into one :class:`repro.solvers.native.Table`, which
:meth:`NativeLoop.run` launches with one ctypes call.

A loop folds when every item of its body, at any depth, is a fused kernel
whose calls are all native tables, a control step whose condition is a
float32 (or double-word) scalar of one RHS, or a :class:`HostCallback`
that declares the scalars it reads (:class:`repro.graph.program.ScalarReads`).
The engine folds only unobserved runs (no cycle clock, tracer, injector or
wall tracer), and runs a folded loop only while none of its callbacks is
observed (a ``tick`` or ``progress`` hook is set); otherwise — and when a
control kind does not resolve (:func:`repro.solvers.native.control`) — the
engine's Python loop runs it, which is also the oracle the folded loop is
checked against (``tests/graph/test_native_loops.py``).

After a launch the loop's counters — one per body, counting the body's
runs — give the engine's tallies (each body's kernels, supersteps,
exchanges, callbacks and loop iterations per run, times its runs), and
each callback's logged values are replayed in one call, so the engine's
counters and the callbacks' records are those of the Python loop.
"""

from __future__ import annotations

import numpy as np

from repro.graph.passes.kernels import FusedKernel
from repro.graph.program import HostCallback, If, Repeat, RepeatWhile, Sequence
from repro.solvers import native  # the engine imports this module on its first fold

__all__ = ["COUNTERS", "LOG_LIMIT", "NativeLoop", "fold_loop"]

#: The engine counters a body run adds to, in a tally's order.
COUNTERS = ("supersteps", "exchanges", "kernels", "fused_compute_sets", "fused_exchanges",
            "fallback_vertices", "host_callbacks", "loop_iterations")

#: The most values one ``LOG`` buffer holds; a loop whose callbacks could
#: log more (its iteration caps multiplied) stays in Python rather than
#: allocate that much up front.
LOG_LIMIT = 1 << 20


class _Unfoldable(Exception):
    """Raised while folding when the loop cannot run as one table."""


class NativeLoop:
    """A loop folded into one table.  ``state`` holds one int64 per body
    (its runs) and per ``LOG`` entry (its cursor); ``tallies[slot]`` is
    what one run of body ``slot`` adds to each of :data:`COUNTERS`;
    ``logs`` are ``(reads, buffers)`` per callback, ``buffers`` the float32
    logs of each scalar's hi and lo half (``None`` for a float32 scalar)
    and their cursor slots."""

    __slots__ = ("table", "state", "tallies", "logs")

    def __init__(self, table, state, tallies, logs):
        self.table, self.state, self.tallies, self.logs = table, state, tallies, logs

    def observed(self) -> bool:
        """Whether a callback must run in place (a hook it fires is set)."""
        return any(reads.observed() for reads, _ in self.logs)

    def run(self, engine) -> None:
        """One launch: the table, then the engine's tallies and the
        callbacks' replays."""
        state = self.state
        state.fill(0)
        self.table()
        for name, n in zip(COUNTERS, (state @ self.tallies).tolist()):
            setattr(engine, name, getattr(engine, name) + n)
        for reads, buffers in self.logs:
            columns = []
            for hi, hi_slot, lo, lo_slot in buffers:
                values = hi[:state[hi_slot]].tolist()
                if lo is not None:
                    values = [h + low for h, low in zip(values, lo[:state[lo_slot]].tolist())]
                columns.append(values)
            reads.replay(engine, *columns)


class _Folder:
    """Walks a loop the way the engine's ``_run_step`` / ``_run_block``
    would, emitting entries instead of running steps.  ``specs`` are the
    table's entries, a control entry a function of the counters' base
    address until :meth:`finish` allocates them."""

    def __init__(self, schedule, views):
        self.schedule, self.views = schedule, views
        self.specs: list = []
        self.tallies: list = []
        self.logs: list = []
        self.kinds: set = set()

    def slot(self) -> int:
        self.tallies.append([0] * len(COUNTERS))
        return len(self.tallies) - 1

    def block(self, step, slot: int, passes: int) -> None:
        """``Engine._run_block``: the block's kernel items, else the step."""
        items = self.schedule.items_for(step)
        if items is None:
            self.step(step, slot, passes)
        else:
            self.items(items, slot, passes)

    def items(self, items, slot: int, passes: int) -> None:
        """``Engine._run_kernel_items``."""
        tally = self.tallies[slot]
        for item in items:
            if not isinstance(item, FusedKernel):
                self.step(item, slot, passes)
                continue
            calls = item.calls
            if not all(isinstance(call, native.Table) for call in calls):
                raise _Unfoldable
            for call in calls:
                self.specs.extend(call.entries)
            for k, n in enumerate((item.n_compute, item.n_exchange, 1, item.n_compute,
                                   item.n_exchange, item.n_fallback)):
                tally[k] += n

    def step(self, step, slot: int, passes: int) -> None:
        """``Engine._run_step``."""
        if isinstance(step, Sequence):
            items = self.schedule.items_for(step)
            if items is None:
                for s in step.steps:
                    self.step(s, slot, passes)
            else:
                self.items(items, slot, passes)
        elif isinstance(step, Repeat):
            self.loop(native.REPEAT, step, passes * max(step.count, 0),
                      lambda nbody, runs: (step.count, nbody, runs))
        elif isinstance(step, RepeatWhile):
            cond = self.condition(step.cond)
            self.loop(native.WHILE, step, passes * max(step.max_iterations, 0),
                      lambda nbody, runs: (*cond, step.max_iterations,
                                           int(step.check_before_first), nbody, runs))
        elif isinstance(step, If):
            self.branch(step, passes)
        elif isinstance(step, HostCallback):
            self.callback(step, slot, passes)
        else:  # an Execute / Exchange outside a kernel: stepped runs only
            raise _Unfoldable

    def loop(self, kind: int, step, passes: int, args) -> None:
        """A ``REPEAT`` / ``WHILE`` entry before its body; ``args(nbody,
        runs)`` are its arguments."""
        at, body = len(self.specs), self.slot()
        self.tallies[body][COUNTERS.index("loop_iterations")] = 1
        self.specs.append(None)
        self.block(step.body, body, passes)
        nbody = len(self.specs) - at - 1
        self.specs[at] = lambda base: native.Entry(kind, args(nbody, base + 8 * body), (),
                                                   None, None)
        self.kinds.add(kind)

    def branch(self, step: If, passes: int) -> None:
        """An ``IF`` entry before its then body and its else body."""
        cond, at = self.condition(step.cond), len(self.specs)
        self.specs.append(None)
        sizes, slots = [], []
        for body in (step.then_body, step.else_body):
            slots.append(self.slot())
            first = len(self.specs)
            if body is not None:
                self.block(body, slots[-1], passes)
            sizes.append(len(self.specs) - first)
        self.specs[at] = lambda base: native.Entry(
            native.IF, (*cond, *sizes, base + 8 * slots[0], base + 8 * slots[1]), (), None, None)
        self.kinds.add(native.IF)

    def callback(self, step: HostCallback, slot: int, passes: int) -> None:
        """``LOG`` entries for each scalar the callback declares (its hi
        and lo halves), or no fold when it declares nothing."""
        reads = step.reads
        if reads is None or passes > LOG_LIMIT:
            raise _Unfoldable
        self.tallies[slot][COUNTERS.index("host_callbacks")] += 1
        buffers = []
        for var in reads.scalars:
            logged = []
            for address in self.condition(var):
                if address is None:
                    logged += [None, None]
                    continue
                buffer, cursor = np.zeros(passes, dtype=np.float32), self.slot()
                self.specs.append(lambda base, a=address, b=buffer, c=cursor: native.Entry(
                    native.LOG, (a, b.ctypes.data, base + 8 * c, passes), (b,), None, None))
                logged += [buffer, cursor]
            buffers.append(tuple(logged))
        if buffers:
            self.kinds.add(native.LOG)
        self.logs.append((reads, tuple(buffers)))

    def condition(self, var) -> tuple:
        """``(hi, lo)`` addresses of a scalar as ``Engine.read_scalar``
        reads it (``lo`` ``None`` for a float32 scalar)."""
        if not var.is_scalar or var.batch != 1:
            raise _Unfoldable
        hi, lo = self.views(var)
        if any(v is not None and v.dtype != np.float32 for v in (hi, lo)):
            raise _Unfoldable
        return hi.ctypes.data, None if lo is None else lo.ctypes.data

    def finish(self):
        """The folded loop, or ``None`` when a kind it needs does not
        resolve."""
        for kind in sorted(self.kinds):
            run = native.control(kind)
            if run is None:
                return None
        state = np.zeros(len(self.tallies), dtype=np.int64)
        base = state.ctypes.data
        entries = [s if isinstance(s, native.Entry) else s(base) for s in self.specs]
        return NativeLoop(native.Table(entries, run), state,
                          np.array(self.tallies, dtype=np.int64), tuple(self.logs))


def fold_loop(schedule, step, views):
    """``step`` (a ``Repeat`` or ``RepeatWhile``) of a compiled program's
    kernel ``schedule`` as one :class:`NativeLoop`, or ``None`` when it
    cannot run as one table.  ``views(var)`` is a scalar's ``(hi, lo)``
    storage views (``Engine._scalar_views``)."""
    folder = _Folder(schedule, views)
    try:
        folder.step(step, folder.slot(), 1)
    except _Unfoldable:
        return None
    return folder.finish()
