"""Build and load the package's C kernels through the system compiler.

The kernels' one source, ``native.c``, ships beside this module.
:func:`load` compiles it with ``cc`` once per source hash into the user
cache (``$XDG_CACHE_HOME/repro``, else ``~/.cache/repro``; a private
temporary directory when that is not writable) and opens it with
:mod:`ctypes`.  It never raises: no compiler, a failed compile or a library
that does not open is a reason string.  :func:`kernel` resolves one function
of the library the one way every kernel does — argument types, a bit-for-bit
self-check against its numpy form, one ``RuntimeWarning`` and ``None`` when
either step fails — and the caller then runs its numpy form instead
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

__all__ = ["FLAGS", "kernel", "load"]

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


def kernel(symbol: str, argtypes: list, self_check, what: str, fallback: str):
    """The library function ``symbol`` taking ``argtypes``, once
    ``self_check(function)`` — its comparison with the numpy form, ``None``
    when they agree bit for bit, else what differed — passes.  ``None``,
    after one ``RuntimeWarning`` naming ``what`` and the ``fallback`` that
    runs instead, when the library does not build or load or the check
    fails.  Callers resolve each kernel once per process."""
    library, reason = load()
    if library is not None:
        function = getattr(library, symbol)
        function.restype = None
        function.argtypes = argtypes
        reason = self_check(function)
        if reason is None:
            return function
    warnings.warn(f"native {what} unavailable, running {fallback}: {reason}",
                  RuntimeWarning, stacklevel=4)
    return None
