"""Process-wide kernel/dispatch counters, bumped by every kernel launch.

Modeled on tinygrad's ``GlobalCounters``: a handful of class-level integers
that hot paths bump with plain attribute adds — no locks, no objects, zero
overhead when nobody reads them.  The counters let telemetry (and tests)
*prove* that kernel lowering happened: a CG iteration that a stepped
``sim`` run prices as ~20 steps shows up as a single fused-kernel launch.

Semantics:

- ``kernels`` — fused-kernel launches (one per :class:`FusedKernel` run),
- ``dispatches`` — host-side dispatch calls actually made.  No step runs
  outside a kernel any more, so this equals ``kernels`` by construction;
  the key stays because ``perfbench`` reads it (``passes.dispatches``),
- ``fused_compute_sets`` / ``fused_exchanges`` — Execute / Exchange steps
  whose work ran *inside* a kernel (what the launches replaced),
- ``fallback_vertices`` — per-vertex ``run()`` calls inside kernels for
  compute sets the lowerer could not vectorize (unspec'd codelets).

Counters accumulate for the process; callers wrap a run in
:meth:`GlobalCounters.track` (or snapshot before/after and diff by hand)
to get the per-run movement, which is how ``SolveResult.kernel_counters``
is produced.
"""

from __future__ import annotations

from contextlib import contextmanager

__all__ = ["GlobalCounters"]


class GlobalCounters:
    """Global kernel/dispatch tallies (class-level, tinygrad-style)."""

    kernels: int = 0
    dispatches: int = 0
    fused_compute_sets: int = 0
    fused_exchanges: int = 0
    fallback_vertices: int = 0

    _FIELDS = (
        "kernels",
        "dispatches",
        "fused_compute_sets",
        "fused_exchanges",
        "fallback_vertices",
    )

    @classmethod
    def snapshot(cls) -> dict:
        return {f: getattr(cls, f) for f in cls._FIELDS}

    @classmethod
    def delta(cls, since: dict) -> dict:
        """Counter movement since a prior :meth:`snapshot`."""
        return {f: getattr(cls, f) - since.get(f, 0) for f in cls._FIELDS}

    @classmethod
    @contextmanager
    def track(cls):
        """Scope that captures the counter movement it encloses.

        Yields a dict that is empty while the block runs and holds the
        per-run delta (same keys as :meth:`snapshot`) once the block exits —
        the with-statement replacement for hand-rolled snapshot/delta pairs.
        The delta is filled in even if the block raises, so error paths can
        still report how far the run got.
        """
        before = cls.snapshot()
        out: dict = {}
        try:
            yield out
        finally:
            out.update(cls.delta(before))
