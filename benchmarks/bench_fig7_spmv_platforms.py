"""Figure 7: SpMV execution time on IPU / CPU / GPU across the four matrices.

Paper result: the IPU (one M2000, 5,888 tiles) outperforms the H100 by
13–19x and the Xeon by 55–150x.

Method here: the IPU side is *simulated* on 64 tiles (4 IPUs × 16) with the
matrix double sized for **nonzeros-per-tile parity** with the paper's full
configuration — per-tile work equals the real machine's, and the all-to-all
exchange model prices the halo traffic — so per-SpMV time is representative.
CPU/GPU times come from the roofline models at the *paper-scale* sizes of
Table II (SpMV is bandwidth-bound; the model carries the published STREAM
bandwidths plus launch overheads).
"""

from repro.baselines import H100_SXM, IPU_M2000, XEON_8470Q, energy_j, spmv_time
from repro.bench import ipu_spmv_run, print_table, save_result
from repro.sparse.suitesparse import (
    PAPER_STATS,
    af_shell_like,
    g3_circuit_like,
    geo_like,
    hook_like,
)

#: 5,888 tiles in the paper's M2000 box; we simulate 64 with per-tile parity.
PAPER_TILES = 5888
SIM_TILES = 64

#: Doubles sized so nnz / SIM_TILES ≈ paper nnz / PAPER_TILES.
SIZED = {
    "G3_circuit": lambda: g3_circuit_like(grid=127),
    "af_shell7": lambda: af_shell_like(nx=49, ny=49, layers=4),
    "Geo_1438": lambda: geo_like(nx=30, ny=30, nz=30),
    "Hook_1498": lambda: hook_like(nx=30, ny=30, nz=30),
}


def run_all():
    out = {}
    for name, gen in SIZED.items():
        crs = gen()
        run = ipu_spmv_run(crs, num_ipus=4, tiles_per_ipu=16)
        paper = PAPER_STATS[name]
        t_cpu = spmv_time(XEON_8470Q, int(paper["rows"]), int(paper["entries"]))
        t_gpu = spmv_time(H100_SXM, int(paper["rows"]), int(paper["entries"]))
        out[name] = {
            "nnz_per_tile_sim": crs.nnz / SIM_TILES,
            "nnz_per_tile_paper": paper["entries"] / PAPER_TILES,
            "ipu_s": run.seconds,
            "cpu_s": t_cpu,
            "gpu_s": t_gpu,
            "ipu_run": run.to_dict(),
        }
    return out


def test_fig7_spmv_platforms(benchmark):
    data = benchmark.pedantic(run_all, rounds=1, iterations=1)
    rows = []
    for name, d in data.items():
        rows.append([
            name,
            f"{d['ipu_s'] * 1e6:.1f}",
            f"{d['gpu_s'] * 1e6:.1f}",
            f"{d['cpu_s'] * 1e6:.1f}",
            f"{d['gpu_s'] / d['ipu_s']:.1f}x",
            f"{d['cpu_s'] / d['ipu_s']:.1f}x",
        ])
    text = print_table(
        "Figure 7: SpMV execution times (µs) and IPU speedups",
        ["Matrix", "IPU", "GPU", "CPU", "IPU vs GPU", "IPU vs CPU"],
        rows,
    )
    save_result("fig7_spmv_platforms", text, data=data)

    for name, d in data.items():
        # Per-tile parity must actually hold (within 40%).
        parity = d["nnz_per_tile_sim"] / d["nnz_per_tile_paper"]
        assert 0.6 < parity < 1.6, f"{name}: parity {parity:.2f}"
        # Shape: IPU wins on every matrix, GPU beats CPU (bandwidth order).
        assert d["ipu_s"] < d["gpu_s"] < d["cpu_s"], name
        # Factors in (a generous envelope of) the paper's 13-19x / 55-150x.
        assert 3 < d["gpu_s"] / d["ipu_s"] < 60, name
        assert 15 < d["cpu_s"] / d["ipu_s"] < 400, name


def test_fig7_energy_comparable(benchmark):
    data = benchmark.pedantic(run_all, rounds=1, iterations=1)
    # Sec. VI: speedups come "at a comparable energy consumption level" —
    # the IPU's higher power is far outweighed by its shorter runtime.
    for name, d in data.items():
        e_ipu = energy_j(IPU_M2000, d["ipu_s"])
        e_gpu = energy_j(H100_SXM, d["gpu_s"])
        e_cpu = energy_j(XEON_8470Q, d["cpu_s"])
        assert e_ipu < e_gpu and e_ipu < e_cpu, name
