"""Pluggable runtime backends executing compiled programs.

- :mod:`repro.graph.runtime.base` — the :class:`Backend` protocol, the
  backend registry, and :func:`resolve_backend`,
- :mod:`repro.graph.runtime.sim` — cycle-accurate, bit-identical
  simulation (the default),
- :mod:`repro.graph.runtime.fused` — numerics-only execution through
  fused whole-device kernels (the fastest host path),
- :mod:`repro.graph.runtime.counters` — tinygrad-style global
  kernel/dispatch counters.

See ``docs/runtime.md`` for the protocol, determinism guarantees, and
guidance on choosing a backend.
"""

from repro.graph.runtime.base import (
    BACKENDS,
    Backend,
    CONTROL_CYCLES,
    check_observers,
    register_backend,
    resolve_backend,
)
from repro.graph.runtime.counters import GlobalCounters
from repro.graph.runtime.fused import FusedBackend
from repro.graph.runtime.sim import SimBackend

__all__ = [
    "Backend",
    "BACKENDS",
    "register_backend",
    "resolve_backend",
    "check_observers",
    "CONTROL_CYCLES",
    "SimBackend",
    "FusedBackend",
    "GlobalCounters",
]
