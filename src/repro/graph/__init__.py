"""Poplar-like programming layer: dataflow graph, schedule, engine.

The IPU's programming model (Sec. II-A) consists of three artifacts the
programmer normally constructs by hand — a dataflow graph of vertices over
tensors, an execution schedule of program steps, and C++ codelets.  This
package provides those artifacts; the DSLs of :mod:`repro.codedsl` and
:mod:`repro.tensordsl` generate them via symbolic execution.

- :mod:`repro.graph.variable` — tensors with explicit tile mappings,
- :mod:`repro.graph.codelet` — codelets, vertices, compute sets,
- :mod:`repro.graph.program` — the execution-schedule step types,
- :mod:`repro.graph.engine` — control-flow interpreter over a compiled
  program, delegating compute/exchange to a runtime backend,
- :mod:`repro.graph.runtime` — the runtime ``Backend``: kernel launches,
  with the cycle clock attached on ``sim`` and not on ``fused``
  (docs/runtime.md),
- :mod:`repro.graph.compiler` — graph statistics (the compile-time proxy
  used by the ablation benches),
- :mod:`repro.graph.passes` — the pass-based graph compiler: optimization
  pipeline + plan lowering producing a :class:`CompiledProgram`.
"""

from repro.graph.variable import Interval, Variable
from repro.graph.codelet import Codelet, ComputeSet, Vertex
from repro.graph.graph import Graph
from repro.graph.program import (
    Execute,
    Exchange,
    HostCallback,
    If,
    RegionCopy,
    Repeat,
    RepeatWhile,
    ScalarReads,
    Sequence,
)
from repro.graph.engine import Engine
from repro.graph.compiler import GraphStats, collect_stats, describe
from repro.graph.passes import (
    CompiledProgram,
    ExecutionPlans,
    Pass,
    PassManager,
    PassReport,
    build_plans,
    compile_program,
    default_passes,
)
from repro.graph.runtime import Backend

__all__ = [
    "Interval",
    "Variable",
    "Codelet",
    "Vertex",
    "ComputeSet",
    "Graph",
    "Sequence",
    "Execute",
    "Exchange",
    "RegionCopy",
    "Repeat",
    "RepeatWhile",
    "If",
    "HostCallback",
    "ScalarReads",
    "Engine",
    "GraphStats",
    "collect_stats",
    "describe",
    "Pass",
    "PassManager",
    "PassReport",
    "CompiledProgram",
    "ExecutionPlans",
    "build_plans",
    "compile_program",
    "default_passes",
    "Backend",
]
