"""The pass-based graph compiler: lowering pipeline between DSLs and Engine.

- :mod:`repro.graph.passes.base` — ``Pass`` protocol, ``PassManager`` with
  per-pass :class:`~repro.graph.compiler.GraphStats` deltas, and the
  immutable :class:`CompiledProgram` artifact,
- :mod:`repro.graph.passes.flatten` — sequence flattening + dead-step
  elimination,
- :mod:`repro.graph.passes.coalesce` — adjacent exchanges merge into one
  fabric phase (fewer BSP supersteps),
- :mod:`repro.graph.passes.fuse` — adjacent compute sets on disjoint tiles
  share one sync,
- :mod:`repro.graph.passes.loops` — loop-invariant normalization hoisting
  (bodies compiled once, trivial loops simplified),
- :mod:`repro.graph.passes.plans` — every leaf step of the optimized
  schedule is frozen into an execution plan (precomputed worker packing,
  vectorized exchange index arrays per shard pair and per whole-device
  buffer pair) that the runtime backends replay,
- :mod:`repro.graph.passes.kernels` — the last lowering stage: runs of
  adjacent compute/exchange steps between control-flow boundaries fuse
  into whole-device :class:`FusedKernel` nodes the ``fused`` backend
  dispatches (docs/runtime.md).
"""

from repro.graph.passes.base import (
    CompiledProgram,
    Pass,
    PassManager,
    PassReport,
    PassResult,
    compile_program,
    default_passes,
    rewrite_bottom_up,
)
from repro.graph.passes.coalesce import CoalesceExchanges
from repro.graph.passes.costs import Cost, lpt_makespan
from repro.graph.passes.flatten import FlattenSequences
from repro.graph.passes.fuse import FuseComputeSets
from repro.graph.passes.kernels import ExchangeOp, FusedKernel, KernelSchedule, build_kernels
from repro.graph.passes.loops import HoistLoopInvariants
from repro.graph.passes.plans import (
    ComputePlan,
    CopyOp,
    ExchangePlan,
    ExecutionPlans,
    build_plans,
    compute_set_category,
)

__all__ = [
    "Pass",
    "PassManager",
    "PassReport",
    "PassResult",
    "CompiledProgram",
    "compile_program",
    "default_passes",
    "rewrite_bottom_up",
    "FlattenSequences",
    "HoistLoopInvariants",
    "CoalesceExchanges",
    "FuseComputeSets",
    "ComputePlan",
    "CopyOp",
    "Cost",
    "ExchangePlan",
    "ExecutionPlans",
    "build_plans",
    "compute_set_category",
    "lpt_makespan",
    "ExchangeOp",
    "FusedKernel",
    "KernelSchedule",
    "build_kernels",
]
