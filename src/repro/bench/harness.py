"""Shared machinery for the per-table / per-figure benchmark targets.

Each ``benchmarks/bench_*.py`` target regenerates one artifact of the
paper's evaluation section: it runs the experiment, prints the same rows or
series the paper reports, saves a text artifact (and, when structured data
is provided, a machine-readable JSON twin) under ``benchmarks/results/``,
and asserts the *shape* of the result (who wins, by roughly what factor,
where crossovers fall).  The JSON artifacts let successive PRs track the
cycle-count trajectory of the Fig. 5–8 benches without parsing tables.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.machine import IPUDevice
from repro.sparse.distribute import DistributedMatrix
from repro.tensordsl import TensorContext

__all__ = [
    "print_table",
    "print_series",
    "save_result",
    "save_trace",
    "ipu_spmv_run",
    "SpMVRun",
    "cached_solve_wallclock",
]

RESULTS_DIR = Path(__file__).resolve().parents[3] / "benchmarks" / "results"


def print_table(title: str, headers, rows) -> str:
    """Format and print a fixed-width table; returns the text."""
    widths = [
        max(len(str(h)), *(len(str(r[i])) for r in rows)) if rows else len(str(h))
        for i, h in enumerate(headers)
    ]
    lines = [title, ""]
    lines.append("  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for r in rows:
        lines.append("  ".join(str(c).ljust(w) for c, w in zip(r, widths)))
    text = "\n".join(lines)
    print("\n" + text)
    return text


def print_series(title: str, x_label: str, y_labels, points) -> str:
    """Print an (x, y1, y2, ...) series — the data behind a figure."""
    headers = [x_label, *y_labels]
    return print_table(title, headers, points)


def save_result(name: str, text: str, data=None) -> Path:
    """Persist a bench artifact for EXPERIMENTS.md.

    ``data`` (any JSON-serializable structure) additionally writes
    ``benchmarks/results/<name>.json`` so later PRs can diff cycle counts
    mechanically.  The JSON is deterministic — no timestamps — so reruns
    only change it when the measured numbers change.
    """
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    if data is not None:
        (RESULTS_DIR / f"{name}.json").write_text(
            json.dumps({"bench": name, "data": data}, indent=2, sort_keys=True) + "\n"
        )
    return path


def save_trace(name: str, tracer) -> Path:
    """Persist a telemetry trace artifact as Chrome ``trace_event`` JSON.

    Writes ``benchmarks/results/<name>.trace.json`` — deterministic like the
    other artifacts (cycle-domain timestamps, no wall-clock) — and returns
    the path.  Load it in Perfetto or feed it to ``repro trace-report``.
    """
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"{name}.trace.json"
    tracer.to_chrome(path)
    return path


@dataclass
class SpMVRun:
    """Cycle breakdown of one SpMV on the simulated device."""

    total_cycles: int
    compute_cycles: int
    exchange_cycles: int
    seconds: float
    num_tiles: int
    exchange_phases: int = 0  # engine-counted exchange supersteps
    compile_proxy: int = 0  # optimized-schedule compile-time proxy
    source_compile_proxy: int = 0  # pre-pass schedule compile-time proxy

    @property
    def compute_seconds(self) -> float:
        return self.seconds * self.compute_cycles / max(self.total_cycles, 1)

    def to_dict(self) -> dict:
        return {
            "total_cycles": self.total_cycles,
            "compute_cycles": self.compute_cycles,
            "exchange_cycles": self.exchange_cycles,
            "exchange_phases": self.exchange_phases,
            "seconds": self.seconds,
            "num_tiles": self.num_tiles,
            "compile_proxy": self.compile_proxy,
            "source_compile_proxy": self.source_compile_proxy,
        }


def ipu_spmv_run(crs, grid_dims=None, num_ipus: int = 1, tiles_per_ipu: int = 16,
                 repeats: int = 1, optimize: bool = True,
                 tracer=None, injector=None) -> SpMVRun:
    """Simulate ``repeats`` SpMVs and return the per-SpMV cycle breakdown.

    ``optimize=False`` executes the raw schedule without the graph
    compiler's passes — the no-pass baseline of the compile ablations.
    ``tracer`` attaches a :class:`~repro.telemetry.Tracer`; pair with
    :func:`save_trace` to persist the timeline as a bench artifact.
    ``injector`` attaches a :class:`~repro.faults.FaultInjector` (the
    fault-campaign benches perturb the same program they time).
    """
    device = IPUDevice(num_ipus=num_ipus, tiles_per_ipu=tiles_per_ipu)
    ctx = TensorContext(device)
    A = DistributedMatrix(ctx, crs, grid_dims=grid_dims)
    rng = np.random.default_rng(0)
    x = A.vector(data=rng.standard_normal(crs.n))
    y = A.vector()
    if repeats == 1:
        A.spmv(x, y)
    else:
        ctx.Repeat(repeats, lambda: A.spmv(x, y))
    engine = ctx.run(optimize=optimize, tracer=tracer, injector=injector)
    compiled = engine.compiled
    prof = device.profiler
    total = prof.total_cycles // repeats
    compute = prof.category("spmv") // repeats
    exchange = prof.category("exchange") // repeats
    return SpMVRun(
        total_cycles=total,
        compute_cycles=compute,
        exchange_cycles=exchange,
        seconds=device.spec.seconds(total),
        num_tiles=device.num_tiles,
        exchange_phases=engine.exchanges,
        compile_proxy=compiled.stats.compile_proxy,
        source_compile_proxy=compiled.source_stats.compile_proxy,
    )


def cached_solve_wallclock(crs, config, bs, **solve_kwargs) -> dict:
    """Host wall-clock of one solve per rhs in ``bs``, cached vs. uncached.

    Runs the whole batch twice: once through a shared
    :class:`~repro.solvers.session.SolverSession` (first solve compiles,
    the rest hit the structure-keyed cache) and once cold (every solve
    rebuilds and re-lowers).  Returns per-run timings, the amortized
    speedup, the session's cache counters, and bit-identity checks of
    solutions and modeled cycles between the two paths.  Wall-clock
    numbers are host measurements — keep them out of the deterministic
    cycle-count artifacts (see :func:`save_result`).
    """
    from repro.solvers import SolverSession, solve

    session = SolverSession(crs, config, **solve_kwargs)
    cached_times, cached_results = [], []
    for b in bs:
        t0 = time.perf_counter()
        cached_results.append(session.solve(b))
        cached_times.append(time.perf_counter() - t0)

    cold_times, cold_results = [], []
    for b in bs:
        t0 = time.perf_counter()
        cold_results.append(solve(crs, b, config, **solve_kwargs))
        cold_times.append(time.perf_counter() - t0)

    return {
        "solves": len(bs),
        "cached_seconds": cached_times,
        "cold_seconds": cold_times,
        "cached_total": sum(cached_times),
        "cold_total": sum(cold_times),
        "amortized_speedup": sum(cold_times) / max(sum(cached_times), 1e-12),
        "hit_mean_seconds": (
            sum(cached_times[1:]) / max(len(cached_times) - 1, 1)
        ),
        "cold_mean_seconds": sum(cold_times) / max(len(cold_times), 1),
        "cache": session.stats(),
        "bit_identical_solutions": bool(all(
            np.array_equal(a.x, c.x) for a, c in zip(cached_results, cold_results)
        )),
        "identical_cycles": bool(all(
            a.cycles == c.cycles for a, c in zip(cached_results, cold_results)
        )),
        "cycles": [r.cycles for r in cached_results],
    }
