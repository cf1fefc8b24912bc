"""Mixed-Precision Iterative Refinement (Sec. V-B — contribution 2).

The three-step loop of Moler's method, with the paper's novel twist that
the extended-precision steps use *double-word arithmetic* (or software
emulated binary64):

1. residual ``r = b − A·x`` in extended precision,
2. correction ``A·c = r`` solved by any framework solver in working f32,
3. update ``x ← x + c`` in extended precision.

``precision="float32"`` degrades the method to plain (non-mixed) iterative
refinement — the ablation of Figs. 9/10 showing that IR *without* extended
precision does not improve convergence.
"""

from __future__ import annotations

from repro.solvers.base import Solver
from repro.tensordsl import Type

__all__ = ["MPIR"]

_PRECISIONS = {"dw": Type.DOUBLEWORD, "float64": Type.FLOAT64, "float32": Type.FLOAT32}


class MPIR(Solver):
    name = "mpir"

    def __init__(
        self,
        A,
        inner: Solver,
        precision: str = "dw",
        tol: float = 1e-12,
        max_outer: int = 50,
        record_history: bool = True,
        verbose: int = 0,
        **params,
    ):
        super().__init__(A, precision=precision, tol=tol, max_outer=max_outer, **params)
        if precision not in _PRECISIONS:
            raise ValueError(f"unknown MPIR precision {precision!r} (dw/float64/float32)")
        self.inner = inner
        self.precision = _PRECISIONS[precision]
        self.tol = tol
        self.max_outer = max_outer
        self.record_history = record_history
        #: Print per-refinement progress via a CPU callback; 0 disables.
        self.verbose = verbose
        #: Extended-precision solution, readable after the run.
        self.x_ext = None
        self._x_out = None  # the caller's f32 vector (for post_restore)

    @property
    def rhs_dtype(self) -> str:
        """The right-hand side should be stored in the extended precision so
        the residual is meaningful below f32 resolution."""
        return self.precision

    def _setup(self) -> None:
        self.inner.setup()

    def post_restore(self) -> None:
        """The refinement prologue re-widens the caller's f32 vector into
        ``x_ext``; after a checkpoint restore, round the restored extended
        solution back into that vector so the re-run resumes from the
        checkpoint instead of the original guess (losing only the lo word —
        extra refinements recover it)."""
        if self.x_ext is not None and self._x_out is not None:
            self._x_out.owned.var.scatter(self.x_ext.owned.var.gather())

    def classify_failure(self, engine):
        failure = super().classify_failure(engine)
        if failure == "max_iterations":
            # The cont flag carries a divergence cutoff (rnorm2 >= bnorm2 *
            # 1e10 exits early); a huge final relative residual means that
            # guard, not the refinement budget, ended the loop.
            if self.stats.final_residual >= 1e5:
                return "divergence"
            inner_classify = getattr(self.inner, "classify_failure", None)
            if inner_classify is not None and inner_classify(engine) == "breakdown":
                return "breakdown"
        return failure

    def solve_into(self, x, b) -> None:
        self.setup()
        ctx = self.ctx
        A = self.A
        prec = self.precision

        x_ext = self.workspace("x_ext", dtype=prec)
        ax = self.workspace("ax", dtype=prec)
        r_ext = self.workspace("r_ext", dtype=prec)
        r32 = self.workspace("r32")
        c = self.workspace("c")
        self.x_ext = x_ext
        self._x_out = x

        rnorm2 = ctx.scalar(1.0, dtype=prec)
        it = ctx.scalar(0.0)
        cont = ctx.scalar(1.0)

        x_ext.owned.assign(x.t)  # widen the initial guess
        it.assign(0.0)
        cont.assign(1.0)
        bnorm2 = (b.t * b.t).reduce()
        tol2 = (bnorm2 * (self.tol * self.tol)).materialize()
        bnorm2_host = self._read_bnorm2(bnorm2)

        def body():
            # Step 1: extended-precision residual r = b - A x.
            A.spmv(x_ext, ax)
            r_ext.owned.assign(b.t - ax.t)
            rnorm2.assign((r_ext.t * r_ext.t).reduce())
            it.assign(it + 1.0)
            self._emit_history(it, rnorm2, bnorm2_host)
            if self.verbose:
                self._emit_verbose(it, rnorm2, bnorm2_host, step="refinement")
            # Continue while above tolerance; stop on divergence (MPIR only
            # converges for systems that are "not too ill-conditioned" —
            # a runaway residual means the working-precision inner solver
            # cannot produce useful corrections).
            cont.assign((rnorm2 > tol2) * (rnorm2 < bnorm2 * 1e10))
            self._emit_resilience(it, rnorm2, {"x": x, "x_ext": x_ext})

            def refine():
                # Step 2: correction in working precision.
                r32.owned.assign(r_ext.t)  # round to f32
                c.owned.assign(0.0)
                self.inner.solve_into(c, r32)
                # Step 3: extended-precision update.
                x_ext.owned.assign(x_ext.t + c.t)

            ctx.If(cont, refine)

        ctx.While(cont, body, max_iterations=self.max_outer, label=f"{self.name}.refine")
        # Round the refined solution back into the caller's f32 vector.
        x.owned.assign(x_ext.t)
