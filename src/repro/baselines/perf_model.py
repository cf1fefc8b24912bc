"""Roofline performance/energy models of the benchmark architectures.

Table III of the paper lists the three platforms; the constants below add
the published memory bandwidths and the latency terms that matter for
sparse solvers.  Sparse kernels move ~12–16 bytes per nonzero and perform
2 flops — hundreds of times below every platform's flop:byte balance point
— so time is ``bytes / bandwidth`` plus per-operation overheads:

- CPU: MPI/threading fork-join latency per operation (HYPRE runs flat MPI),
- GPU: kernel-launch latency per operation, and one *launch per level* in
  level-scheduled triangular solves (the cuSPARSE ILU bottleneck the paper
  discusses in Sec. VI-D),
- IPU: measured directly by the cycle-accurate machine model — the numbers
  fed to the comparison benches come from simulation, not from this file.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "ArchSpec",
    "XEON_8470Q",
    "H100_SXM",
    "IPU_M2000",
    "PLATFORMS",
    "spmv_bytes",
    "spmv_time",
    "ilu_solve_time",
    "dot_time",
    "axpy_time",
    "solver_iteration_time",
    "energy_j",
]


@dataclass(frozen=True)
class ArchSpec:
    """One benchmark platform (Table III + published bandwidth figures)."""

    name: str
    #: Sustained memory bandwidth in bytes/s (STREAM-like, not peak).
    mem_bandwidth: float
    #: Peak general-purpose FLOP/s in the precision the platform solves in.
    flops: float
    #: Power draw used for the energy comparison, in watts.
    tdp_w: float
    #: Fixed overhead per device-wide operation (kernel launch / MPI
    #: fork-join / BSP superstep), in seconds.
    op_overhead_s: float
    #: Extra overhead per dependency level in level-scheduled triangular
    #: solves (zero where sweeps run in one pass).
    level_overhead_s: float = 0.0
    #: Fraction of peak bandwidth sparse kernels sustain (irregular access).
    sparse_efficiency: float = 1.0

    def effective_bandwidth(self) -> float:
        return self.mem_bandwidth * self.sparse_efficiency


#: Intel Xeon Platinum 8470Q (52 cores, DDR5): ~300 GB/s STREAM, 2.3 TF FP64,
#: 350 W.  HYPRE runs MPI; a parallel sparse op costs ~3 µs of fork-join.
XEON_8470Q = ArchSpec(
    name="CPU (Xeon 8470Q, HYPRE)",
    mem_bandwidth=300e9,
    flops=2.3e12,
    tdp_w=350.0,
    op_overhead_s=3e-6,
    level_overhead_s=0.0,  # triangular sweeps are one sequential pass
    sparse_efficiency=0.75,
)

#: NVIDIA H100 SXM: 3.35 TB/s HBM3, 34 TF FP64, 700 W; ~4 µs kernel launch,
#: and cuSPARSE's level-scheduled ILU solve launches one kernel per level.
H100_SXM = ArchSpec(
    name="GPU (H100 SXM, cuSPARSE)",
    mem_bandwidth=3.35e12,
    flops=34e12,
    tdp_w=700.0,
    op_overhead_s=4e-6,
    # cuSPARSE's level-scheduled triangular solve issues one kernel per
    # dependency level; launch plus inter-level ordering costs ≈ 4 µs per
    # level (the effect behind the paper's Sec. VI-D observation that the
    # ILU preconditioner suits the CPU far better than the GPU).
    level_overhead_s=4e-6,
    sparse_efficiency=0.6,
)

#: GraphCore M2000 (4 Mk2 IPUs): listed for the spec sheet and the energy
#: model; timing comes from the cycle-accurate simulation.  420 W is the
#: paper's measured IPU-only figure; 1100 W the full-box AC rating.
IPU_M2000 = ArchSpec(
    name="IPU (M2000, this framework)",
    mem_bandwidth=47.5e12,
    flops=11e12,  # FP32
    tdp_w=420.0,
    op_overhead_s=0.0,
    # SpMV on the IPU is partly bound by the f32 pipelines (2 flops per
    # ~12 bytes at 11 TFLOP/s), not by the 47.5 TB/s SRAM: the sustained
    # fraction is well below unity, consistent with the paper's measured
    # 13-19x (GPU) / 55-150x (CPU) ratios.
    sparse_efficiency=0.35,
)

PLATFORMS = {"cpu": XEON_8470Q, "gpu": H100_SXM, "ipu": IPU_M2000}


# -- operation models --------------------------------------------------------------------


def spmv_bytes(n: int, nnz: int, value_bytes: int = 8, index_bytes: int = 4) -> int:
    """Data movement of one CRS SpMV: values + column indices + row pointer,
    the source vector (≈ once, given some reuse) and the result."""
    return nnz * (value_bytes + index_bytes) + n * (index_bytes + 3 * value_bytes)


def spmv_time(arch: ArchSpec, n: int, nnz: int, value_bytes: int = 8) -> float:
    """Seconds for one SpMV on ``arch`` (bandwidth-bound + launch)."""
    return spmv_bytes(n, nnz, value_bytes) / arch.effective_bandwidth() + arch.op_overhead_s


def ilu_solve_time(
    arch: ArchSpec, n: int, nnz: int, num_levels: int, value_bytes: int = 8
) -> float:
    """Seconds for one ILU(0) substitution (forward + backward sweep).

    Each sweep touches L/U values+indices and the solution vector; on GPUs
    every dependency level is a separate kernel launch (the dominant cost
    for deep level structures — Sec. VI-D's "particularly well-suited to
    the CPU" observation comes from exactly this asymmetry).
    """
    stream = spmv_bytes(n, nnz, value_bytes) / arch.effective_bandwidth()
    return stream + arch.op_overhead_s + 2 * num_levels * arch.level_overhead_s


def dot_time(arch: ArchSpec, n: int, value_bytes: int = 8) -> float:
    return 2 * n * value_bytes / arch.effective_bandwidth() + arch.op_overhead_s


def axpy_time(arch: ArchSpec, n: int, value_bytes: int = 8) -> float:
    return 3 * n * value_bytes / arch.effective_bandwidth() + arch.op_overhead_s


def solver_iteration_time(
    arch: ArchSpec, n: int, nnz: int, num_levels: int, value_bytes: int = 8
) -> float:
    """Seconds per PBiCGStab+ILU(0) iteration: 2 SpMV + 2 ILU solves +
    4 dots + 6 vector updates (the Fig. 4 loop body)."""
    return (
        2 * spmv_time(arch, n, nnz, value_bytes)
        + 2 * ilu_solve_time(arch, n, nnz, num_levels, value_bytes)
        + 4 * dot_time(arch, n, value_bytes)
        + 6 * axpy_time(arch, n, value_bytes)
    )


def energy_j(arch: ArchSpec, seconds: float) -> float:
    """Energy at the platform's comparison power draw."""
    return arch.tdp_w * seconds
