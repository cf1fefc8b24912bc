"""Reference numerics of the CPU/GPU baselines.

HYPRE (CPU) and HYPRE+cuSPARSE (GPU) both run native-float64 BiCGStab with
a *global* ILU(0) preconditioner — unlike the IPU, whose block-local ILU
disregards halo values (Sec. VI-D).  This module computes exactly those
numerics, which supplies the baseline iteration counts for the Fig. 8
bench; the time per iteration comes from :mod:`repro.baselines.perf_model`.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.sparse.crs import ModifiedCRS
from repro.sparse.levelset import level_schedule

__all__ = ["global_ilu0", "reference_bicgstab", "reference_solve_info"]


def global_ilu0(matrix: ModifiedCRS):
    """Global (un-decomposed) ILU(0) factorization in float64.

    Returns ``(L, U)`` as CSR with unit-lower L.  IKJ algorithm restricted
    to the original sparsity pattern — the textbook variant HYPRE/cuSPARSE
    implement.
    """
    csr = matrix.to_scipy().astype(np.float64)
    csr.sort_indices()
    n = csr.shape[0]
    indptr, indices, data = csr.indptr, csr.indices, csr.data.copy()
    # Row lookup maps for pattern-restricted updates.
    row_pos = [
        {int(c): p for p, c in enumerate(indices[indptr[i] : indptr[i + 1]], int(indptr[i]))}
        for i in range(n)
    ]
    diag_pos = np.array([row_pos[i][i] for i in range(n)])
    for i in range(n):
        s, e = indptr[i], indptr[i + 1]
        for p in range(s, e):
            k = indices[p]
            if k >= i:
                break
            l_ik = data[p] / data[diag_pos[k]]
            data[p] = l_ik
            # Update against row k's upper part.
            ks, ke = indptr[k], indptr[k + 1]
            for q in range(ks, ke):
                j = indices[q]
                if j <= k:
                    continue
                tgt = row_pos[i].get(int(j))
                if tgt is not None:
                    data[tgt] -= l_ik * data[q]
    lu = sp.csr_matrix((data, indices, indptr), shape=(n, n))
    lower = sp.tril(lu, k=-1).tocsr() + sp.identity(n, format="csr")
    upper = sp.triu(lu, k=0).tocsr()
    return lower, upper


def _ilu_apply(lower, upper):
    """Preconditioner application  z = U⁻¹ L⁻¹ r  (two triangular solves)."""

    import scipy.sparse.linalg as spla  # loaded on first use: a heavy module

    def apply(r):
        y = spla.spsolve_triangular(lower, r, lower=True, unit_diagonal=True)
        return spla.spsolve_triangular(upper, y, lower=False)

    return apply


def reference_bicgstab(
    matrix: ModifiedCRS,
    b: np.ndarray,
    tol: float = 1e-9,
    max_iterations: int = 2000,
    use_ilu: bool = True,
):
    """Float64 (P)BiCGStab with global ILU(0) — the baseline numerics.

    Returns ``(x, iterations, history)`` where ``history`` is the relative
    residual after each iteration (the quantity Fig. 8's stop criterion and
    Figs. 9/10's curves use).
    """
    a = matrix.to_scipy().astype(np.float64)
    b = np.asarray(b, dtype=np.float64)
    n = a.shape[0]
    M = _ilu_apply(*global_ilu0(matrix)) if use_ilu else (lambda r: r)
    bnorm = np.linalg.norm(b) or 1.0

    x = np.zeros(n)
    r = b - a @ x
    r0 = r.copy()
    rho_old = alpha = omega = 1.0
    p = np.zeros(n)
    v = np.zeros(n)
    history = []
    for it in range(1, max_iterations + 1):
        rho = float(r0 @ r)
        if abs(rho) < 1e-300:
            break
        beta = (rho / rho_old) * (alpha / omega)
        p = r + beta * (p - omega * v)
        y = M(p)
        v = a @ y
        denom = float(r0 @ v)
        if denom == 0.0:
            break
        alpha = rho / denom
        s = r - alpha * v
        z = M(s)
        t = a @ z
        tt = float(t @ t)
        omega = float(t @ s) / tt if tt > 0 else 0.0
        x = x + alpha * y + omega * z
        r = s - omega * t
        rho_old = rho
        rel = np.linalg.norm(r) / bnorm
        history.append(rel)
        if rel < tol:
            break
    return x, len(history), history


def reference_solve_info(matrix: ModifiedCRS, b: np.ndarray, tol: float = 1e-9) -> dict:
    """Everything the Fig. 8 bench needs about the baseline solve:
    iteration count plus the ILU level structure (for the GPU time model)."""
    _, iterations, history = reference_bicgstab(matrix, b, tol=tol)
    sched = level_schedule(matrix.row_ptr, matrix.col_idx, matrix.n)
    return {
        "iterations": iterations,
        "history": history,
        "num_levels": sched.num_levels,
        "n": matrix.n,
        "nnz": matrix.nnz,
    }
