"""Pass manager, lowering pipeline, and the ``CompiledProgram`` artifact.

This is the missing middle layer between program construction (the DSLs)
and execution (the engine) — the analogue of what the Poplar graph compiler
does between ``poplar::Graph`` and ``poplar::Engine``.  A *pass* is a pure
schedule-to-schedule rewrite; the :class:`PassManager` applies a pipeline of
passes, recording per-pass :class:`~repro.graph.compiler.GraphStats` deltas,
and the result is frozen into an immutable :class:`CompiledProgram` that the
engine executes.

Passes never mutate their input: rewrites build fresh ``Sequence`` / loop /
``Exchange`` / ``Execute`` nodes and share unchanged subtrees, so the source
schedule stays intact inside the artifact for inspection and re-compilation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.graph.compiler import GraphStats, collect_stats, describe
from repro.graph.program import (
    If,
    Repeat,
    RepeatWhile,
    Sequence,
    Step,
)

__all__ = [
    "Pass",
    "PassResult",
    "PassReport",
    "PassManager",
    "CompiledProgram",
    "compile_program",
    "default_passes",
    "rewrite_bottom_up",
]


def rewrite_bottom_up(step: Step, fn, memo: dict | None = None) -> Step:
    """Rewrite a schedule bottom-up: children first, then ``fn`` on the node.

    ``fn(step) -> step`` receives a node whose children are already
    rewritten and returns a replacement (possibly the same object).  Subtrees
    reached through several paths — loop bodies shared between loops, branch
    bodies reused across ``If`` steps — are rewritten exactly *once* and the
    result is shared (``memo`` maps ``id(original) -> rewritten``), which is
    the compile-once guarantee the loop-hoisting pass relies on.
    """
    memo = memo if memo is not None else {}
    key = id(step)
    if key in memo:
        return memo[key]

    if isinstance(step, Sequence):
        new_steps = [rewrite_bottom_up(s, fn, memo) for s in step.steps]
        if any(n is not o for n, o in zip(new_steps, step.steps)):
            step = Sequence(new_steps, label=step.label)
    elif isinstance(step, Repeat):
        body = rewrite_bottom_up(step.body, fn, memo)
        if body is not step.body:
            step = Repeat(step.count, body, label=step.label)
    elif isinstance(step, RepeatWhile):
        body = rewrite_bottom_up(step.body, fn, memo)
        if body is not step.body:
            step = RepeatWhile(
                step.cond,
                body,
                max_iterations=step.max_iterations,
                check_before_first=step.check_before_first,
                label=step.label,
            )
    elif isinstance(step, If):
        then_body = rewrite_bottom_up(step.then_body, fn, memo)
        else_body = (
            rewrite_bottom_up(step.else_body, fn, memo)
            if step.else_body is not None
            else None
        )
        if then_body is not step.then_body or else_body is not step.else_body:
            step = If(step.cond, then_body, else_body)

    out = fn(step)
    memo[key] = out
    return out


class Pass:
    """A schedule-to-schedule rewrite with a stable name.

    Subclasses implement :meth:`run`; rewrites must preserve engine numerics
    bit-for-bit and must never increase ``GraphStats.compile_proxy`` (both
    properties are enforced by the test suite's pass-pipeline property test).
    """

    name = "pass"

    def run(self, root: Step) -> Step:
        raise NotImplementedError

    def __repr__(self):
        return f"{type(self).__name__}()"


@dataclass(frozen=True)
class PassResult:
    """Before/after graph statistics of one pass application."""

    name: str
    before: GraphStats
    after: GraphStats

    @property
    def proxy_delta(self) -> int:
        return self.after.compile_proxy - self.before.compile_proxy

    def row(self) -> list:
        b, a = self.before, self.after
        return [
            self.name,
            f"{b.steps}->{a.steps}",
            f"{b.compute_sets}->{a.compute_sets}",
            f"{b.exchanges}->{a.exchanges}",
            f"{b.region_copies}->{a.region_copies}",
            f"{self.proxy_delta:+d}",
        ]


@dataclass
class PassReport:
    """Per-pass :class:`GraphStats` deltas of one pipeline run."""

    results: list = field(default_factory=list)

    @property
    def passes_run(self) -> list:
        return [r.name for r in self.results]

    def render(self) -> str:
        """Human-readable compile report (per-pass artifact deltas)."""
        headers = ["pass", "steps", "compute sets", "exchanges", "copies", "proxy delta"]
        rows = [r.row() for r in self.results]
        if not rows:
            return "compile report: no passes run"
        widths = [
            max(len(str(h)), *(len(str(r[i])) for r in rows))
            for i, h in enumerate(headers)
        ]
        lines = ["compile report:"]
        lines.append("  " + "  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
        for r in rows:
            lines.append("  " + "  ".join(str(c).ljust(w) for c, w in zip(r, widths)))
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            r.name: {
                "before": vars(r.before) | {"compile_proxy": r.before.compile_proxy},
                "after": vars(r.after) | {"compile_proxy": r.after.compile_proxy},
            }
            for r in self.results
        }


class PassManager:
    """Applies an ordered pipeline of passes, collecting stats deltas."""

    def __init__(self, passes=None):
        self.passes = list(passes) if passes is not None else default_passes()

    def run(self, root: Step) -> tuple[Step, PassReport]:
        report = PassReport()
        stats = collect_stats(root) if self.passes else None
        for p in self.passes:
            new = p.run(root)
            # Passes never mutate a schedule: one they return unchanged
            # keeps its tallies.
            before, stats = stats, stats if new is root else collect_stats(new)
            root = new
            report.results.append(PassResult(p.name, before, stats))
        return root, report


@dataclass(frozen=True)
class CompiledProgram:
    """The immutable artifact the engine executes.

    Bundles the optimized schedule with the graph it runs against, the
    source schedule it was lowered from, graph statistics for both, the
    pass report, and the frozen per-step execution plans
    (:mod:`repro.graph.passes.plans`) that the runtime backends replay —
    everything the ablation benches and the CLI compile-report view need,
    mirroring Poplar's compiled-executable + report pair.
    """

    root: Step
    graph: object  # repro.graph.Graph (kept untyped to avoid an import cycle)
    stats: GraphStats
    source: Step
    source_stats: GraphStats
    report: PassReport
    plans: object = None  # ExecutionPlans of the optimized schedule
    kernels: object = None  # KernelSchedule (repro.graph.passes.kernels)

    def plan_for(self, step: Step):
        """The frozen execution plan of one leaf step of ``root``."""
        return self.plans.plan_for(step)

    @property
    def compile_proxy(self) -> int:
        return self.stats.compile_proxy

    @property
    def source_compile_proxy(self) -> int:
        return self.source_stats.compile_proxy

    def describe(self, max_depth: int = 8) -> str:
        return describe(self.root, max_depth=max_depth)

    def __repr__(self):
        return (
            f"CompiledProgram(steps={self.stats.steps}, "
            f"compile_proxy={self.stats.compile_proxy}, "
            f"passes={self.report.passes_run})"
        )


def default_passes() -> list:
    """The standard lowering pipeline, in application order."""
    # Imported here: the pass modules subclass Pass from this module.
    from repro.graph.passes.coalesce import CoalesceExchanges
    from repro.graph.passes.flatten import FlattenSequences
    from repro.graph.passes.fuse import FuseComputeSets
    from repro.graph.passes.loops import HoistLoopInvariants

    return [
        FlattenSequences(),
        HoistLoopInvariants(),
        CoalesceExchanges(),
        FuseComputeSets(),
    ]


def compile_program(graph, root: Step, passes=None, optimize: bool = True) -> CompiledProgram:
    """Lower a constructed schedule into a :class:`CompiledProgram`.

    ``passes=None`` uses :func:`default_passes`; ``optimize=False`` (the
    ablation baseline) freezes the schedule as-is with an empty report.
    Either way the final lowering stages build the per-step execution
    plans every runtime backend executes, then the fused-kernel schedule
    (:mod:`repro.graph.passes.kernels`) the ``fused`` backend dispatches.
    """
    from repro.graph.passes.kernels import build_kernels
    from repro.graph.passes.plans import build_plans

    manager = PassManager([] if not optimize else passes)
    optimized, report = manager.run(root)
    # The report's first and last tallies are the source and optimized ones.
    results = report.results
    source_stats = results[0].before if results else collect_stats(root)
    plans = build_plans(optimized, graph.device)
    return CompiledProgram(
        root=optimized,
        graph=graph,
        stats=results[-1].after if results else source_stats,
        source=root,
        source_stats=source_stats,
        report=report,
        plans=plans,
        kernels=build_kernels(optimized, plans),
    )
