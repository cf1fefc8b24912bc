"""Build and load the package's C kernels through the system compiler, and
run them as tables.

The kernels' one source, ``native.c``, ships beside this module.
:func:`load` compiles it with ``cc`` once per source hash into the user
cache (``$XDG_CACHE_HOME/repro``, else ``~/.cache/repro``; a private
temporary directory when that is not writable) and opens it with
:mod:`ctypes`.  It never raises: no compiler, a failed compile or a library
that does not open is a reason string.

Every native op is an :class:`Entry` of one of eight kinds (:data:`EVAL`,
:data:`COPY`, :data:`SPMV`, :data:`SWEEP`, :data:`DWEVAL`, :data:`XSPMV`,
:data:`FACTOR`, :data:`LEVELS`): the kind's arguments, bound once, and the
numpy or Python form that is its oracle and fallback.  The last two run at
build time, one entry per tile and sweep.  Four control kinds
(:data:`REPEAT`, :data:`WHILE`, :data:`IF`, :data:`LOG`) run the entries
after them as a body, so a whole loop is one table
(:mod:`repro.graph.loops`); their Python form is the engine's loop, and a
kind that does not resolve (:func:`control`) keeps loops that need it
there.  The library's
one entry point, ``repro_run``, runs a table of entries in order;
:func:`fold` packs every maximal run of consecutive entries of a fused
kernel into one :class:`Table`, so the kernel makes one ctypes call per run
instead of one per op.  :func:`kernel` resolves ``repro_run`` for one kind
the one way every kind does — a bit-for-bit self-check of that kind against
its numpy form, run through the runner, and one ``RuntimeWarning`` and
``None`` when the library does not load or the check fails — and that
kind's entries then run their numpy forms, splitting the tables
(``docs/runtime.md``).
"""

from __future__ import annotations

import atexit
import ctypes
import functools
import hashlib
import os
import shutil
import subprocess
import tempfile
import warnings
from pathlib import Path

import numpy as np

__all__ = ["ARGS", "CONTROL", "COPY", "DWEVAL", "EVAL", "FACTOR", "FLAGS", "IF", "LEVELS", "LOG",
           "REPEAT", "SPMV", "SWEEP", "WHILE", "XSPMV", "Chain", "Entry", "Table", "control",
           "fold", "kernel", "load"]

#: Entry kinds of a ``repro_run`` table, in ``native.c``'s order:
#: ``repro_eval_f32``, ``repro_copy_f32``, ``repro_spmv_f32``,
#: ``repro_sweep_f32``, ``repro_eval_dw`` (the double-word evaluator),
#: ``repro_xspmv`` (the extended-precision SpMV), ``repro_factor_f32`` (a
#: tile's ILU(0) or DILU factorization) and ``repro_levels`` (a sweep's
#: dependency levels), then the control kinds (``native.c``'s ``run``):
#: ``REPEAT count nbody runs``, ``WHILE cond lo max before nbody runs``,
#: ``IF cond lo nthen nelse then_runs else_runs`` and ``LOG src buffer cursor
#: capacity``; ``ARGS[kind]`` is the number of arguments each takes.
EVAL, COPY, SPMV, SWEEP, DWEVAL, XSPMV, FACTOR, LEVELS, REPEAT, WHILE, IF, LOG = range(12)
ARGS = (10, 5, 12, 10, 11, 14, 8, 7, 3, 6, 6, 4)
CONTROL = (REPEAT, WHILE, IF, LOG)

#: ``-ffp-contract=off``: no fused multiply-add may merge a product into a
#: sum.  Never ``-ffast-math``: it reassociates sums and sets flush-to-zero
#: for the whole process.  ``-ftree-vectorize`` vectorizes the evaluator's
#: loops (GCC's ``-O2`` alone leaves them scalar; clang vectorizes at ``-O2``
#: and takes the flag too), which cannot change a bit: each lane does the
#: IEEE operation of one scalar iteration, and no sum is reassociated.
#: ``-fno-math-errno``: ``sqrtf`` is the square-root instruction alone.
FLAGS = ("-O2", "-ftree-vectorize", "-ffp-contract=off", "-fno-math-errno", "-fPIC", "-shared")

SOURCE = Path(__file__).resolve().with_name("native.c")


def _cache_dir() -> Path:
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    return Path(base) / "repro"


def _compile(cc: str, source: Path, directory: Path, target: Path) -> None:
    """Compile under a temporary name in ``directory``, then move it into
    place, so a concurrent process never opens a half-written library."""
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".so.tmp")
    os.close(fd)
    try:
        done = subprocess.run([cc, *FLAGS, "-o", tmp, str(source)],
                              capture_output=True, text=True, timeout=120)
        if done.returncode:
            raise RuntimeError(done.stderr.strip() or f"cc exited {done.returncode}")
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def load() -> tuple:
    """``(library, None)`` for :data:`SOURCE`, or ``(None, reason)`` when it
    cannot be built or opened."""
    key = hashlib.sha256(SOURCE.read_bytes() + " ".join(FLAGS).encode()).hexdigest()[:16]
    filename = f"{SOURCE.stem}-{key}.so"
    target = _cache_dir() / filename
    try:
        if not target.exists():
            cc = shutil.which("cc")
            if cc is None:
                return None, "no C compiler (cc) on PATH"
            try:
                target.parent.mkdir(mode=0o700, parents=True, exist_ok=True)
                _compile(cc, SOURCE, target.parent, target)
            except OSError:  # the cache is not writable: a private directory
                private = Path(tempfile.mkdtemp(prefix="repro-"))
                atexit.register(shutil.rmtree, private, ignore_errors=True)
                target = private / filename
                _compile(cc, SOURCE, private, target)
        return ctypes.CDLL(str(target)), None
    except (OSError, RuntimeError, subprocess.SubprocessError) as exc:
        return None, f"{SOURCE.name} did not build or load: {exc}"


def kernel(self_check, what: str, fallback: str):
    """The library's runner, ``repro_run(n, table)``, for the entries of
    one kind, once ``self_check(run)`` — the kind's comparison with its
    numpy form, run through the runner: ``None`` when they agree bit for
    bit, else what differed — passes.  ``None``, after one
    ``RuntimeWarning`` naming ``what`` and the ``fallback`` that runs
    instead, when the library does not build or load or the check fails.
    Callers resolve each kind once per process."""
    library, reason = load()
    if library is not None:
        run = library.repro_run
        run.restype = None
        run.argtypes = [ctypes.c_int64, ctypes.c_void_p]
        reason = self_check(run)
        if reason is None:
            return run
    warnings.warn(f"native {what} unavailable, running {fallback}: {reason}",
                  RuntimeWarning, stacklevel=4)
    return None


class Entry:
    """One bound native op: ``kind`` with its arguments ``args`` (sizes and
    addresses, ``None`` for NULL, checked by whoever bound them) as one
    table row, and ``fallback``, the numpy form that runs instead when
    ``resolve()`` — the kind's cached :func:`kernel` — is ``None``.
    ``keep`` holds every array the addresses point into; the arrays are
    written in place, never reallocated, so the addresses hold as long as
    the entry does.  Called alone, an entry is a one-entry table."""

    __slots__ = ("kind", "row", "keep", "fallback", "resolve", "_address")

    def __init__(self, kind: int, args: tuple, keep, fallback, resolve):
        if len(args) != ARGS[kind]:
            raise ValueError(f"a kind {kind} entry takes {ARGS[kind]} arguments, not {len(args)}")
        self.kind, self.keep, self.fallback, self.resolve = kind, keep, fallback, resolve
        self.row = np.array([kind, *(0 if a is None else a for a in args)], dtype=np.int64)
        self._address = self.row.ctypes.data

    def __call__(self) -> None:
        run = self.resolve()
        if run is None:
            self.fallback()
        else:
            run(1, self._address)


def _parts(op) -> tuple:
    """The ops ``op`` runs one after the other: its ``parts`` (a
    :class:`Chain`'s, an exchange's copies), else ``op`` itself."""
    return getattr(op, "parts", (op,))


class Chain:
    """Ops that run one after the other as one op — entries, numpy
    callables, anything with ``parts`` (flattened here) — and that
    :func:`fold` opens up."""

    __slots__ = ("parts",)

    def __init__(self, parts):
        self.parts = tuple(p for part in parts for p in _parts(part))

    def __call__(self) -> None:
        for part in self.parts:
            part()


class Table:
    """Consecutive entries run by one call of ``run``, the library's
    ``repro_run``.  A table with control entries is checked here, before
    any launch (:func:`_check_bodies`)."""

    __slots__ = ("entries", "rows", "_run", "_n", "_address")

    def __init__(self, entries, run):
        self.entries = tuple(entries)
        if any(e.kind in CONTROL for e in self.entries):
            _check_bodies(self.entries)
        self.rows = np.concatenate([e.row for e in self.entries])
        self._run, self._n, self._address = run, len(self.entries), self.rows.ctypes.data

    def __call__(self) -> None:
        self._run(self._n, self._address)


def fold(ops) -> tuple:
    """``ops`` as they run: chains opened, every maximal run of consecutive
    entries whose kind resolves packed into one :class:`Table`, and an entry
    whose kind does not resolve replaced by its numpy fallback — which
    splits the run around it.  Resolves every kind present (their
    self-checks run on first use)."""
    calls, run = [], []

    def close():
        if run:
            calls.append(Table(run, run[0].resolve()))
            run.clear()

    for op in ops:
        for part in _parts(op):
            if not isinstance(part, Entry):
                close()
                calls.append(part)
            elif part.resolve() is None:
                close()
                calls.append(part.fallback)
            else:
                run.append(part)
    close()
    return tuple(calls)


# -- Control entries -------------------------------------------------------------------------

def _check_bodies(entries) -> None:
    """``ValueError`` unless every control entry's body lies inside the
    table (inside its enclosing body), and every ``LOG`` holds as many
    values as its enclosing loops can run it (their ``count`` or ``max``
    multiplied, from an empty log)."""

    def walk(start: int, stop: int, passes: int) -> None:
        e = start
        while e < stop:
            kind, args = entries[e].kind, entries[e].row[1:].tolist()
            if kind == LOG and args[3] < passes:
                raise ValueError(f"a LOG entry holds {args[3]} values, its loops run it "
                                 f"up to {passes} times")
            if kind in (REPEAT, WHILE, IF):
                if kind == REPEAT:
                    parts, runs = (args[1],), max(args[0], 0)
                elif kind == WHILE:
                    parts, runs = (args[4],), max(args[2], 0)
                else:
                    parts, runs = (args[2], args[3]), 1
                body = sum(parts)
                if min(parts) < 0 or e + 1 + body > stop:
                    raise ValueError(f"entry {e}'s body of {body} entries overruns its "
                                     f"table (entries {start} to {stop - 1})")
                first = e + 1
                for part in parts:
                    walk(first, first + part, passes * runs)
                    first += part
                e += body
            e += 1

    walk(0, len(entries), 1)


class _Case:
    """A control self-check case: ``nodes`` over one float32 buffer ``mem``
    and int64 counters and cursors ``state``.  A node is ``("copy", src,
    dst, n)`` — ``mem[dst:dst + n] = mem[src:src + n]`` — ``("log", src,
    buffer, slot)``, ``("repeat", count, body, slot)``, ``("while", cond,
    lo, max, before, body, slot)`` or ``("if", cond, lo, then, else,
    slot)`` (which counts its else runs at ``slot + 1``), with positions in
    ``mem`` and ``state``."""

    def __init__(self, kinds, mem, nodes):
        self.kinds, self.mem, self.nodes = kinds, mem, nodes
        self.state = np.zeros(16, dtype=np.int64)

    def entries(self, nodes=None, out=None) -> list:
        """The nodes as table entries."""
        out = [] if out is None else out
        mem, state = self.mem.ctypes.data, self.state.ctypes.data
        for kind, *a in self.nodes if nodes is None else nodes:
            if kind == "copy":
                out.append(Entry(COPY, (a[2], mem + 4 * a[0], None, mem + 4 * a[1], None),
                                 (), None, None))
                continue
            if kind == "log":
                out.append(Entry(LOG, (mem + 4 * a[0], mem + 4 * a[1], state + 8 * a[2], 16),
                                 (), None, None))
                continue
            at, sizes = len(out), []
            for body in (a[1],) if kind == "repeat" else (a[4],) if kind == "while" else a[2:4]:
                before = len(out)
                self.entries(body, out)
                sizes.append(len(out) - before)
            if kind == "repeat":
                args, code = (a[0], sizes[0], state + 8 * a[2]), REPEAT
            else:
                cond = (mem + 4 * a[0], None if a[1] is None else mem + 4 * a[1])
                if kind == "while":
                    args, code = (*cond, a[2], int(a[3]), sizes[0], state + 8 * a[5]), WHILE
                else:
                    args, code = (*cond, *sizes, state + 8 * a[4], state + 8 * a[4] + 8), IF
            out.insert(at, Entry(code, args, (), None, None))
        return out

    def interpret(self, nodes=None) -> None:
        """The nodes run as the engine's ``_run_repeat``,
        ``_run_repeat_while`` and ``If`` run steps."""
        mem, state = self.mem, self.state

        def cond(at, lo):
            value = float(mem[at])
            if lo is not None:
                value += float(mem[lo])
            return value

        for kind, *a in self.nodes if nodes is None else nodes:
            if kind == "copy":
                mem[a[1]:a[1] + a[2]] = mem[a[0]:a[0] + a[2]]
            elif kind == "log":
                mem[a[1] + state[a[2]]] = mem[a[0]]
                state[a[2]] += 1
            elif kind == "repeat":
                for _ in range(a[0]):
                    state[a[2]] += 1
                    self.interpret(a[1])
            elif kind == "while":
                at, lo, most, before, body, slot = a
                runs = 0
                while True:
                    if (before or runs > 0) and cond(at, lo) == 0.0:
                        break
                    if runs >= most:
                        break
                    runs += 1
                    state[slot] += 1
                    self.interpret(body)
            else:
                taken = cond(a[0], a[1]) != 0.0
                state[a[4] + (0 if taken else 1)] += 1
                self.interpret(a[2] if taken else a[3])


def _control_cases() -> tuple:
    """Two :class:`_Case`: a nested ``REPEAT(IF)`` whose branch turns with
    the data, and ``WHILE`` loops stopping on ``max``, on a ``-0.0`` after
    running on through a NaN, on a ``0.0`` when tested only after the first
    run, and on a double word summing to zero.  Loop ``k``'s body shifts its
    script of conditions (8 at ``8k``) one place and copies the head into
    its condition (at ``40 + k``), so the conditions run through the
    script's last seven; it logs the condition into 16 floats at ``48 +
    16k`` at cursor ``state[k]`` and counts its runs at ``state[5 + k]``.
    ``kinds`` are the control kinds whose self-check runs the case."""
    nan = np.float32(np.nan)
    scripts = [[9.0, 1.0, 2.0, 0.0, 3.0, 4.0, nan, 5.0], [9.0, 2.0, nan, -3.0, 4.0, 5.0, 6.0, 7.0],
               [9.0, nan, 2.0, -0.0, 4.0, 0.0, 1.0, 1.0], [9.0, 5.0, 0.0, 1.0, 1.0, 1.0, 1.0, 1.0],
               [9.0, 3.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]]
    mem = np.full(128, 7.0, dtype=np.float32)
    mem[:40] = np.concatenate(scripts)
    mem[40:46] = [1.0, 1.0, 1.0, 0.0, 2.0, -1.0]  # the conditions, then a lo half

    def shift(k):
        return [("copy", 8 * k + 1, 8 * k, 7), ("copy", 8 * k, 40 + k, 1),
                ("log", 40 + k, 48 + 16 * k, k)]

    other = [("copy", 7, 40, 1), ("log", 0, 48, 0)]
    loops = [("while", 41, None, 3, True, shift(1), 6),
             ("while", 42, None, 12, True, shift(2), 7),
             ("while", 43, None, 12, False, shift(3), 8),
             ("while", 44, 45, 12, True, shift(4), 9)]
    return (_Case((REPEAT, IF), mem, [("repeat", 5, [("if", 40, None, shift(0), other, 10)], 5)]),
            _Case((WHILE, LOG), mem.copy(), loops))


def _control_self_check(run, kind: int) -> str | None:
    """Run the :func:`_control_cases` of ``kind`` as one table each through
    ``run`` (``repro_run``), and interpreted as the engine's Python loop
    runs them, and compare the buffers bit for bit and every counter;
    ``None`` when they agree, else what differed."""
    for k, case in enumerate(_control_cases()):
        if kind not in case.kinds:
            continue
        oracle = _Case(case.kinds, case.mem.copy(), case.nodes)
        Table(case.entries(), run)()
        oracle.interpret()
        for name in ("mem", "state"):
            got, want = getattr(case, name), getattr(oracle, name)
            differ = np.flatnonzero(got.view(np.uint8) != want.view(np.uint8))
            if differ.size:
                at = int(differ[0]) // got.itemsize
                return (f"self-check: case {k}'s {name}[{at}] is {got[at]!r}, the Python "
                        f"loop's {want[at]!r}")
    return None


_CONTROL_NAMES = {REPEAT: "REPEAT", WHILE: "WHILE", IF: "IF", LOG: "LOG"}


@functools.cache
def control(kind: int):
    """The runner for ``kind``'s control entries, resolved the first time a
    loop that needs it folds (:mod:`repro.graph.loops`): ``None`` — with one
    ``RuntimeWarning`` saying why — when the library does not build or
    load, or :func:`_control_self_check` fails; loops needing the kind then
    run in the engine's Python loop."""
    return kernel(lambda run: _control_self_check(run, kind), f"{_CONTROL_NAMES[kind]} entries",
                  "the Python loop")
