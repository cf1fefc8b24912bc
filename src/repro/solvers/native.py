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
build time, one entry per tile and sweep.  The library's
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
import hashlib
import os
import shutil
import subprocess
import tempfile
import warnings
from pathlib import Path

import numpy as np

__all__ = ["ARGS", "COPY", "DWEVAL", "EVAL", "FACTOR", "FLAGS", "LEVELS", "SPMV", "SWEEP",
           "XSPMV", "Chain", "Entry", "Table", "fold", "kernel", "load"]

#: Entry kinds of a ``repro_run`` table, in ``native.c``'s order:
#: ``repro_eval_f32``, ``repro_copy_f32``, ``repro_spmv_f32``,
#: ``repro_sweep_f32``, ``repro_eval_dw`` (the double-word evaluator),
#: ``repro_xspmv`` (the extended-precision SpMV), ``repro_factor_f32`` (a
#: tile's ILU(0) or DILU factorization) and ``repro_levels`` (a sweep's
#: dependency levels); ``ARGS[kind]`` is the number of arguments each takes.
EVAL, COPY, SPMV, SWEEP, DWEVAL, XSPMV, FACTOR, LEVELS = range(8)
ARGS = (10, 5, 12, 10, 11, 14, 8, 7)

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
    ``repro_run``."""

    __slots__ = ("entries", "rows", "_run", "_n", "_address")

    def __init__(self, entries, run):
        self.entries = tuple(entries)
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
