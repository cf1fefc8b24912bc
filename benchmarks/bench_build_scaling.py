"""Cold set-up against device size: what a build costs per tile.

For fig5's CG on ``poisson3d(40)`` and the Fig. 8 MPIR(dw) + PBiCGStab +
ILU(0) config on ``g3_circuit_like(127)``, at 1 x 16, 16 x 16 and the
M2000's 4 x 1,472 tiles, prints the median cold set-up (a fresh
``SolverSession``'s first solve: build, passes, lowering, capture and one
run) and warm solve (its second solve, a cache hit), taken as alternated
in-process pairs, and the process's peak RSS.  Each (program, shape) runs
in a child process of its own, so its peak RSS is its own.

Not a tier-1 test (minutes at 4 x 1,472)::

    PYTHONPATH=src python benchmarks/bench_build_scaling.py [--pairs 10]
        [--shapes 1x16,16x16,4x1472] [--programs cg,mpir]
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time

CG = {"solver": "cg", "tol": 1e-6}
MPIR = {
    "solver": "mpir", "precision": "dw", "tol": 1e-9, "max_outer": 12,
    "inner": {"solver": "bicgstab", "fixed_iterations": 50, "tol": 2e-7,
              "record_history": False, "preconditioner": {"solver": "ilu0"}},
}


def _system(program: str):
    from repro.sparse import poisson3d
    from repro.sparse.suitesparse import g3_circuit_like

    if program == "cg":
        crs, dims = poisson3d(40)
        return crs, dims, CG
    return g3_circuit_like(grid=127), None, MPIR


def measure(program: str, ipus: int, tiles: int, pairs: int) -> dict:
    """``pairs`` alternated (cold, warm) solves of one program and shape."""
    import numpy as np

    from repro.solvers import SolverSession

    crs, dims, config = _system(program)
    b = np.random.default_rng(0).standard_normal(crs.n)
    cold, warm = [], []
    for _ in range(pairs):
        session = SolverSession(crs, config, num_ipus=ipus, tiles_per_ipu=tiles,
                                grid_dims=dims, backend="fused")
        t = time.perf_counter()
        session.solve(b)
        cold.append(time.perf_counter() - t)
        t = time.perf_counter()
        session.solve(b)
        warm.append(time.perf_counter() - t)
        del session
    return {"cold_s": statistics.median(cold), "warm_s": statistics.median(warm),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--shapes", default="1x16,16x16,4x1472")
    ap.add_argument("--programs", default="cg,mpir")
    ap.add_argument("--one", help=argparse.SUPPRESS)  # child: program:ipus:tiles
    args = ap.parse_args(argv)
    if args.one:
        program, ipus, tiles = args.one.split(":")
        print(json.dumps(measure(program, int(ipus), int(tiles), args.pairs)))
        return
    print(f"{'program':8} {'shape':>8} {'cold set-up s':>14} {'warm solve s':>13} "
          f"{'peak RSS MiB':>13}")
    for program in args.programs.split(","):
        for shape in args.shapes.split(","):
            ipus, tiles = shape.split("x")
            child = subprocess.run(
                [sys.executable, __file__, "--pairs", str(args.pairs),
                 "--one", f"{program}:{ipus}:{tiles}"],
                check=True, capture_output=True, text=True)
            row = json.loads(child.stdout.splitlines()[-1])
            print(f"{program:8} {shape:>8} {row['cold_s']:14.3f} {row['warm_s']:13.3f} "
                  f"{row['peak_rss_mb']:13.1f}", flush=True)


if __name__ == "__main__":
    main()
