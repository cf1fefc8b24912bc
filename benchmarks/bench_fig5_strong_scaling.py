"""Figure 5: strong scaling of SpMV on a Poisson matrix.

The paper holds a 200³ Poisson problem (~58 M entries) fixed and sweeps
1–16 IPUs, reporting speedup with halo exchange (blue) and compute-only
(orange).  We run the same sweep at reduced size with the same
tiles-per-IPU proportionality and report both speedup curves.

Also the home of the graph-compiler acceptance check: with all passes
enabled the same SpMV must execute strictly fewer exchange phases and
total cycles than the no-pass baseline, with bit-identical results.
"""

import numpy as np

from repro.bench import ipu_spmv_run, print_series, save_result, save_trace
from repro.solvers import solve
from repro.sparse import poisson3d
from repro.telemetry import Tracer, validate_chrome_trace

GRID = 40  # 64,000 rows / 438,400 entries — laptop-scale stand-in for 200³
IPUS = [1, 2, 4, 8, 16]
TILES_PER_IPU = 16


def sweep():
    crs, dims = poisson3d(GRID)
    runs = {}
    for ipus in IPUS:
        runs[ipus] = ipu_spmv_run(crs, grid_dims=dims, num_ipus=ipus,
                                  tiles_per_ipu=TILES_PER_IPU)
    return runs


def test_fig5_strong_scaling(benchmark):
    runs = benchmark.pedantic(sweep, rounds=1, iterations=1)
    base = runs[IPUS[0]]
    points = []
    for ipus in IPUS:
        r = runs[ipus]
        points.append([
            ipus,
            f"{base.total_cycles / r.total_cycles:.2f}",
            f"{base.compute_cycles / r.compute_cycles:.2f}",
            r.total_cycles,
            r.exchange_cycles,
        ])
    text = print_series(
        f"Figure 5: strong scaling of SpMV (Poisson {GRID}^3, "
        f"{TILES_PER_IPU} tiles/IPU)",
        "IPUs",
        ["speedup (with halo)", "speedup (compute only)", "cycles", "exchange cycles"],
        points,
    )
    save_result(
        "fig5_strong_scaling",
        text,
        data={
            "grid": GRID,
            "tiles_per_ipu": TILES_PER_IPU,
            "runs": {str(k): runs[k].to_dict() for k in IPUS},
        },
    )

    total_speedup = base.total_cycles / runs[16].total_cycles
    compute_speedup = base.compute_cycles / runs[16].compute_cycles
    # Paper shape: compute-only scaling is near-ideal; total scaling trails
    # it because the surface-to-volume ratio grows with the partition count.
    assert compute_speedup > 0.85 * 16
    assert 0.5 * 16 < total_speedup <= compute_speedup
    # Speedups must be monotone in the IPU count.
    totals = [runs[k].total_cycles for k in IPUS]
    assert all(a > b for a, b in zip(totals, totals[1:]))


def test_fig5_exchange_grows_relative_to_compute(benchmark):
    runs = benchmark.pedantic(sweep, rounds=1, iterations=1)
    # The communication share rises as the fixed problem is cut finer —
    # the "fundamental property of domain decomposition" (Sec. VI-B).
    frac = {k: runs[k].exchange_cycles / runs[k].total_cycles for k in IPUS}
    assert frac[16] > frac[1]


def test_fig5_passes_beat_no_pass_baseline():
    """Graph-compiler acceptance: the optimized SpMV schedule executes
    strictly fewer exchange phases and total cycles than the raw one."""
    crs, dims = poisson3d(16)
    opt = ipu_spmv_run(crs, grid_dims=dims, num_ipus=2, tiles_per_ipu=TILES_PER_IPU)
    raw = ipu_spmv_run(crs, grid_dims=dims, num_ipus=2, tiles_per_ipu=TILES_PER_IPU,
                       optimize=False)
    assert opt.exchange_phases < raw.exchange_phases
    assert opt.total_cycles < raw.total_cycles
    assert opt.compile_proxy < opt.source_compile_proxy
    save_result(
        "fig5_compile_ablation",
        f"Fig. 5 SpMV, optimized vs no-pass (poisson3d:16, 2 IPUs):\n"
        f"  exchange phases: {opt.exchange_phases} vs {raw.exchange_phases}\n"
        f"  total cycles:    {opt.total_cycles} vs {raw.total_cycles}\n"
        f"  compile proxy:   {opt.compile_proxy} (source {opt.source_compile_proxy})",
        data={"optimized": opt.to_dict(), "no_pass": raw.to_dict()},
    )


def test_fig5_fused_backend_matches_sim():
    """Runtime-backend smoke (the CI bench job): one Fig. 5 configuration
    solved under both backends must agree bit for bit, and the fused
    backend must actually fuse — a bounded number of kernel launches per
    CG iteration instead of per-tile step dispatch."""
    crs, dims = poisson3d(12)
    b = np.ones(crs.n)
    cfg = '{"solver": "cg", "tol": 1e-8, "max_iterations": 60}'
    sim = solve(crs, b, cfg, num_ipus=2, tiles_per_ipu=TILES_PER_IPU,
                grid_dims=dims, backend="sim")
    fused = solve(crs, b, cfg, num_ipus=2, tiles_per_ipu=TILES_PER_IPU,
                  grid_dims=dims, backend="fused")
    np.testing.assert_array_equal(sim.x, fused.x)
    assert sim.relative_residual == fused.relative_residual
    assert sim.stats.total_iterations == fused.stats.total_iterations
    assert sim.cycles > 0
    assert fused.cycles == 0  # the kernel path carries no cycle model
    # Untraced sim launches the same kernels, with the cycle clock attached.
    assert sim.kernel_counters == fused.kernel_counters
    kc = fused.kernel_counters
    assert kc is not None and kc["kernels"] > 0
    # Kernel-count threshold: the whole CG inner loop must lower to a
    # handful of launches per iteration, not one dispatch per step.
    assert kc["kernels"] <= 5 * fused.iterations + 10
    assert kc["fused_compute_sets"] + kc["fused_exchanges"] > kc["kernels"]


def test_fig5_trace_artifact():
    """Telemetry acceptance on a Fig. 5 configuration: tracing must observe
    without perturbing (bit-identical cycles), the Chrome export must pass
    the schema check, and the trace + report land under
    ``benchmarks/results/`` for the CI artifact."""
    crs, dims = poisson3d(16)
    tracer = Tracer()
    traced = ipu_spmv_run(crs, grid_dims=dims, num_ipus=2,
                          tiles_per_ipu=TILES_PER_IPU, repeats=4, tracer=tracer)
    plain = ipu_spmv_run(crs, grid_dims=dims, num_ipus=2,
                         tiles_per_ipu=TILES_PER_IPU, repeats=4)
    assert traced.total_cycles == plain.total_cycles
    assert traced.exchange_cycles == plain.exchange_cycles

    assert validate_chrome_trace(tracer.to_chrome()) == []
    report = tracer.report()
    assert report.compute_phases == 4  # coalesced: one SpMV superstep per repeat
    assert report.exchange_phases == traced.exchange_phases
    assert report.compute_cycles + report.exchange_cycles <= report.wall_cycles
    assert report.hottest and report.hottest[0][1] == "spmv"
    assert report.sram["max_bytes"] > 0

    save_trace("fig5_spmv", tracer)
    save_result(
        "fig5_spmv_trace_report",
        report.render(),
        data={
            "wall_cycles": report.wall_cycles,
            "compute_cycles": report.compute_cycles,
            "exchange_cycles": report.exchange_cycles,
            "compute_phases": report.compute_phases,
            "exchange_phases": report.exchange_phases,
            "mean_imbalance": report.mean_imbalance,
            "max_imbalance": report.max_imbalance,
            "exchange": report.exchange,
        },
    )


def test_fig5_passes_are_bit_identical_end_to_end():
    """Same CG solve with and without the pass pipeline: fewer cycles,
    identical bits in the solution and the residual."""
    crs, dims = poisson3d(12)
    b = np.ones(crs.n)
    cfg = '{"solver": "cg", "tol": 1e-8, "max_iterations": 60}'
    opt = solve(crs, b, cfg, tiles_per_ipu=8, grid_dims=dims, optimize=True)
    raw = solve(crs, b, cfg, tiles_per_ipu=8, grid_dims=dims, optimize=False)
    assert opt.engine.exchanges < raw.engine.exchanges
    assert opt.cycles < raw.cycles
    np.testing.assert_array_equal(opt.x, raw.x)
    assert opt.relative_residual == raw.relative_residual
