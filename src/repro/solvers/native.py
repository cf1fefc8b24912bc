"""Build and load the package's C kernels through the system compiler.

A kernel source ships beside this module.  :func:`load` compiles it with
``cc`` once per source hash into the user cache (``$XDG_CACHE_HOME/repro``,
else ``~/.cache/repro``; a private temporary directory when that is not
writable) and opens it with :mod:`ctypes`.  It never raises: no compiler,
a failed compile or a library that does not open is a reason string, and
the caller runs its numpy form instead (``docs/runtime.md``).
"""

from __future__ import annotations

import atexit
import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path

__all__ = ["FLAGS", "load"]

#: ``-ffp-contract=off``: no fused multiply-add may merge a product into a
#: sum.  Never ``-ffast-math``: it reassociates sums and sets flush-to-zero
#: for the whole process.
FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")

_HERE = Path(__file__).resolve().parent


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


def load(name: str) -> tuple:
    """``(library, None)`` for the kernel source ``name``, or ``(None,
    reason)`` when it cannot be built or opened."""
    source = _HERE / name
    key = hashlib.sha256(source.read_bytes() + " ".join(FLAGS).encode()).hexdigest()[:16]
    filename = f"{source.stem}-{key}.so"
    target = _cache_dir() / filename
    try:
        if not target.exists():
            cc = shutil.which("cc")
            if cc is None:
                return None, "no C compiler (cc) on PATH"
            try:
                target.parent.mkdir(mode=0o700, parents=True, exist_ok=True)
                _compile(cc, source, target.parent, target)
            except OSError:  # the cache is not writable: a private directory
                private = Path(tempfile.mkdtemp(prefix="repro-"))
                atexit.register(shutil.rmtree, private, ignore_errors=True)
                target = private / filename
                _compile(cc, source, private, target)
        return ctypes.CDLL(str(target)), None
    except (OSError, RuntimeError, subprocess.SubprocessError) as exc:
        return None, f"{name} did not build or load: {exc}"
