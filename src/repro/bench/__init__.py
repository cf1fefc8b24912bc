"""Benchmark harness utilities shared by the ``benchmarks/`` targets."""

from repro.bench.harness import (
    cached_solve_wallclock,
    ipu_spmv_run,
    print_series,
    print_table,
    save_result,
    save_trace,
    SpMVRun,
)

__all__ = [
    "print_table",
    "print_series",
    "save_result",
    "save_trace",
    "ipu_spmv_run",
    "SpMVRun",
    "cached_solve_wallclock",
]
