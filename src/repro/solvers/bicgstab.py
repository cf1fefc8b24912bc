"""Preconditioned BiCGStab (Sec. V-C, Fig. 4).

A Krylov solver for nonsymmetric and symmetric systems; any other solver
of the framework can serve as its preconditioner.  The implementation below
is written in TensorDSL and mirrors the paper's Fig. 4 line by line (with
the additional setup, early-exit, and statistics code the figure elides);
Python cannot overload ``=``, so loop-carried updates use ``.assign``.
"""

from __future__ import annotations

from repro.solvers.base import Solver
from repro.solvers.identity import Identity

__all__ = ["PBiCGStab"]

#: Breakdown guard: |rho| below this aborts the iteration (singularity exit).
_BREAKDOWN = 1e-30


class PBiCGStab(Solver):
    name = "bicgstab"
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
        verbose: int = 0,
        **params,
    ):
        super().__init__(
            A,
            tol=tol,
            max_iterations=max_iterations,
            fixed_iterations=fixed_iterations,
            **params,
        )
        self.verbose = verbose
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
        Krylov solves").  The loop-carried scalars stay unmasked, so active
        columns compute exactly the single-RHS recurrence; a batch masks
        ``alpha``/``omega`` where they feed a vector update (``alpha_eff``/
        ``omega_eff``), so a frozen column keeps ``s = r``, ``x`` and ``r``
        bit for bit, and freezes ``p`` by mask-combine."""
        self.setup()
        ctx = self.ctx
        A = self.A
        M = self.preconditioner
        batch = x.batch
        safe = self._safe

        # Workspace vectors (allocated once; reused every execution).
        r = self.workspace("r", batch=batch)
        r0 = self.workspace("r0", batch=batch)
        p = self.workspace("p", batch=batch)
        v = self.workspace("v", batch=batch)  # v = A·y  (AyA in Fig. 4)
        s = self.workspace("s", batch=batch)
        t_ = self.workspace("t", batch=batch)
        y = self.workspace("y", batch=batch)
        z = self.workspace("z", batch=batch)

        # Loop-carried scalars.  (Initial values are (re)assigned as program
        # steps so nested/repeated invocations restart cleanly.)
        rho = ctx.scalar(1.0, batch=batch)
        self._rho_var = rho.var
        rho_old = ctx.scalar(1.0, batch=batch)
        alpha = ctx.scalar(1.0, batch=batch)
        omega = ctx.scalar(1.0, batch=batch)
        beta = ctx.scalar(0.0, batch=batch)
        alpha_eff, omega_eff = alpha, omega  # what updates the vectors
        if batch > 1:
            alpha_eff = ctx.scalar(0.0, batch=batch)
            omega_eff = ctx.scalar(0.0, batch=batch)
        rnorm2 = ctx.scalar(1.0, batch=batch)
        active = self._active_flags(batch)
        it = ctx.scalar(0.0)
        cont = ctx.scalar(1.0)

        # --- setup: r = b - A x;  r0 = r;  p = v = 0 --------------------------------
        A.spmv(x, v)
        r.owned.assign(b.t - v.t)
        r0.owned.assign(r.t)
        p.owned.assign(0.0)
        v.owned.assign(0.0)
        for scalar, init in ((rho, 1.0), (rho_old, 1.0), (alpha, 1.0), (omega, 1.0), (it, 0.0)):
            scalar.assign(init)
        rnorm2.assign(r.t.dot(r.t))
        bnorm2 = b.t.dot(b.t)
        tol2 = (bnorm2 * (self.tol * self.tol)).materialize()
        self._set_cont(cont, active, rnorm2 > tol2, start=True)
        bnorm2_host = self._read_bnorm2(bnorm2)

        # --- iteration body (Fig. 4) ---------------------------------------------------
        def body():
            rho.assign(r0.t.dot(r.t))
            beta.assign((rho / safe(rho_old)) * (alpha / safe(omega)))
            p.owned.assign(self._frozen(active, r.t + beta * (p.t - omega * v.t), p.t))
            y.owned.assign(0.0)
            M.solve_into(y, p)  # yA = preconditioner.solve(pA)
            A.spmv(y, v)  # AyA = A * yA (SpMV)
            alpha.assign(rho / safe(r0.t.dot(v.t)))
            if active is not None:
                alpha_eff.assign(active * alpha)
            s.owned.assign(r.t - alpha_eff * v.t)
            z.owned.assign(0.0)
            M.solve_into(z, s)  # zA = preconditioner.solve(sA)
            A.spmv(z, t_)  # tA = A * zA (SpMV)
            omega.assign(t_.t.dot(s.t) / safe(t_.t.dot(t_.t)))
            if active is not None:
                omega_eff.assign(active * omega)
            x.owned.assign(x.t + alpha_eff * y.t + omega_eff * z.t)
            r.owned.assign(s.t - omega_eff * t_.t)
            rho_old.assign(rho)
            rnorm2.assign(r.t.dot(r.t))
            it.assign(it + 1.0)
            # terminate = ... : convergence OR breakdown (|rho| ~ 0).
            self._end_iteration(cont, active, (rnorm2 > tol2, abs(rho) > _BREAKDOWN),
                                it, rnorm2, bnorm2_host,
                                {"x": x, "r": r, "p": p, "rho": rho})

        self._iterate(cont, body)
