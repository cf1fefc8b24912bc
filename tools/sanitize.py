"""Run the native-touching tests against ``native.c`` built with ASan and UBSan.

The script re-runs itself as a child with the compiler's ``libasan`` and
``libubsan`` in ``LD_PRELOAD`` and ``ASAN_OPTIONS=detect_leaks=0`` (the
interpreter's own allocations are not the C layer's leaks); the child sets
:data:`repro.solvers.native.FLAGS` to :data:`FLAGS` before the first load,
whose build is then the instrumented one, and runs pytest.  The flags are
part of the library's cache key, so the sanitized build never collides with
the optimized one and needs no other switch.  ``-fno-sanitize-recover=all``
makes the first report abort the run: a non-zero exit is a finding, and
the report is on stderr.

Self-check *timing* tests are deselected here, and only here: an
instrumented build is several times slower.  Usage::

    python tools/sanitize.py [pytest args...]

With no pytest args it runs :data:`TESTS`.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: The sanitized build: no optimization that hides a fault, debug info for
#: the reports, and the numerics flags of the optimized build.
FLAGS = ("-O1", "-g", "-fsanitize=address,undefined", "-fno-sanitize-recover=all",
         "-ffp-contract=off", "-fno-math-errno", "-fPIC", "-shared")

#: Every test module that runs native code: the kinds against their numpy
#: or Python forms, the double-word opcodes over the whole float32 range,
#: the fused kernels of one shared cache run from several threads at once,
#: and loops run as one table over a cache's misses, hits, evictions and
#: rebuilds.
TESTS = ("tests/graph/test_native_eval.py", "tests/graph/test_native_tables.py",
         "tests/graph/test_native_loops.py",
         "tests/graph/test_native_dw.py", "tests/sparse/test_device_spmv.py",
         "tests/solvers/test_sweeps.py", "tests/solvers/test_native_factor.py",
         "tests/solvers/test_mpir.py", "tests/dw/test_special_values.py",
         "tests/solvers/test_cache_concurrency.py")


def _runtime(name: str) -> str:
    """The compiler's shared runtime library ``name`` (``libasan.so``)."""
    path = subprocess.run(["cc", f"-print-file-name={name}"], capture_output=True, text=True,
                          check=True).stdout.strip()
    if not os.path.isabs(path):
        raise SystemExit(f"cc has no {name}")
    return path


def main(argv: list) -> int:
    if os.environ.get("REPRO_SANITIZE_CHILD") == "1":
        sys.path.insert(0, str(ROOT / "src"))
        import pytest

        from repro.solvers import native

        native.FLAGS = FLAGS
        # --capture=sys: a report goes to the real stderr, which fd-level
        # capture would swallow when the report aborts the process.
        return pytest.main([*(argv or TESTS), "-q", "-p", "no:cacheprovider",
                            "--capture=sys", "-k", "not self_check"])
    env = dict(os.environ, REPRO_SANITIZE_CHILD="1", ASAN_OPTIONS="detect_leaks=0",
               LD_PRELOAD=" ".join(_runtime(lib) for lib in ("libasan.so", "libubsan.so")),
               PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                         os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, __file__, *argv], env=env, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
