"""Preconditioned Conjugate Gradient.

All four benchmark matrices are symmetric positive definite (Table II), for
which CG is the canonical Krylov method — one SpMV and one preconditioner
application per iteration versus PBiCGStab's two of each.  Written in
TensorDSL like PBiCGStab (Fig. 4 style); requires an SPD matrix and an SPD
preconditioner to converge.
"""

from __future__ import annotations

from repro.solvers.base import Solver
from repro.solvers.identity import Identity

__all__ = ["ConjugateGradient"]

_BREAKDOWN = 1e-30


class ConjugateGradient(Solver):
    name = "cg"
    supports_batch = keeps_batch_stats = True
    _breakdown = _BREAKDOWN

    def __init__(
        self,
        A,
        preconditioner: Solver | None = None,
        tol: float = 1e-9,
        max_iterations: int = 1000,
        fixed_iterations: int | None = None,
        record_history: bool = True,
        **params,
    ):
        super().__init__(A, tol=tol, max_iterations=max_iterations, **params)
        self.preconditioner = preconditioner or Identity(A)
        self.tol = tol
        self.max_iterations = max_iterations
        self.fixed_iterations = fixed_iterations
        self.record_history = record_history
        self._rho_var = None  # read back post-run to classify breakdowns

    def _setup(self) -> None:
        self.preconditioner.setup()

    def solve_into(self, x, b) -> None:
        """One recurrence for one RHS or a batch (docs/solvers.md, "Batched
        Krylov solves").  A batch carries every column through each SpMV,
        exchange and reduction, and masks per column: ``alpha`` where it
        updates ``x``/``r``, ``p`` by mask-combine, and the loop runs while
        any column is active.  Each column is bit for bit its solo solve."""
        self.setup()
        ctx = self.ctx
        A = self.A
        M = self.preconditioner
        batch = x.batch
        safe = self._safe

        r = self.workspace("r", batch=batch)
        z = self.workspace("z", batch=batch)
        p = self.workspace("p", batch=batch)
        ap = self.workspace("ap", batch=batch)

        rho = ctx.scalar(1.0, batch=batch)
        self._rho_var = rho.var
        rho_old = ctx.scalar(1.0, batch=batch)
        alpha = ctx.scalar(0.0, batch=batch)
        beta = ctx.scalar(0.0, batch=batch)
        rnorm2 = ctx.scalar(1.0, batch=batch)
        active = self._active_flags(batch)
        it = ctx.scalar(0.0)
        cont = ctx.scalar(1.0)

        # r = b - A x;  z = M⁻¹ r;  p = z.
        A.spmv(x, ap)
        r.owned.assign(b.t - ap.t)
        z.owned.assign(0.0)
        M.solve_into(z, r)
        p.owned.assign(z.t)
        rho.assign(r.t.dot(z.t))
        rho_old.assign(rho)
        it.assign(0.0)
        rnorm2.assign(r.t.dot(r.t))
        bnorm2 = b.t.dot(b.t)
        tol2 = (bnorm2 * (self.tol * self.tol)).materialize()
        self._set_cont(cont, active, rnorm2 > tol2, start=True)
        bnorm2_host = self._read_bnorm2(bnorm2)

        def body():
            A.spmv(p, ap)
            step = rho / safe(p.t.dot(ap.t))
            alpha.assign(step if active is None else active * step)  # frozen column: 0
            x.owned.assign(x.t + alpha * p.t)
            r.owned.assign(r.t - alpha * ap.t)
            z.owned.assign(0.0)
            M.solve_into(z, r)
            rho_old.assign(rho)
            rho.assign(r.t.dot(z.t))
            beta.assign(rho / safe(rho_old))
            p.owned.assign(self._frozen(active, z.t + beta * p.t, p.t))
            rnorm2.assign(r.t.dot(r.t))
            it.assign(it + 1.0)
            self._end_iteration(cont, active, (rnorm2 > tol2, abs(rho) > _BREAKDOWN),
                                it, rnorm2, bnorm2_host,
                                {"x": x, "r": r, "p": p, "rho": rho})

        self._iterate(cont, body)
