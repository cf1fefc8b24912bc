"""The user-facing Tensor handle.

A Tensor either *is* a materialized graph variable or *holds* a lazy
expression.  Operators always return lazy tensors (unless the context is in
eager mode — the ablation baseline for Sec. III-C); materialization happens
when a value is genuinely needed: assignment, reduction, control-flow
conditions, host reads.

Inside loop bodies, update tensors with ``t.assign(expr)`` — it writes into
the tensor's existing storage, so every loop iteration updates the same
tiles.  Python's ``=`` merely rebinds the host-side handle (the C++ DSL can
overload ``operator=``; Python cannot).
"""

from __future__ import annotations

import numpy as np

from repro.tensordsl.expression import BinExpr, ConstExpr, ConvertExpr, Expr, Leaf, UnExpr

__all__ = ["Tensor"]


class Tensor:
    """Handle to a (lazy or materialized) TensorDSL tensor."""

    def __init__(self, ctx, expr: Expr | None = None, var=None):
        if (expr is None) == (var is None):
            raise ValueError("Tensor needs exactly one of expr / var")
        self.ctx = ctx
        self.var = var
        self._expr = expr

    # -- expression access -----------------------------------------------------------

    @property
    def expr(self) -> Expr:
        return Leaf(self.var) if self.var is not None else self._expr

    @property
    def dtype(self) -> str:
        return self.expr.dtype

    @property
    def shape(self) -> tuple:
        return self.expr.shape

    @property
    def is_materialized(self) -> bool:
        return self.var is not None

    # -- operator helpers ---------------------------------------------------------------

    def _coerce(self, other) -> Expr:
        if isinstance(other, Tensor):
            if other.ctx is not self.ctx:
                raise ValueError("cannot mix tensors from different contexts")
            return other.expr
        if isinstance(other, (int, float, np.floating, np.integer)):
            return ConstExpr(float(other))
        raise TypeError(f"cannot use {other!r} in a TensorDSL expression")

    def _make(self, expr: Expr) -> "Tensor":
        t = Tensor(self.ctx, expr=expr)
        return t.materialize() if self.ctx.eager else t

    def _bin(self, op, other, swap=False):
        a, b = self.expr, self._coerce(other)
        if swap:
            a, b = b, a
        return self._make(BinExpr(op, a, b))

    # -- arithmetic -------------------------------------------------------------------------

    def __add__(self, o):
        return self._bin("+", o)

    def __radd__(self, o):
        return self._bin("+", o, swap=True)

    def __sub__(self, o):
        return self._bin("-", o)

    def __rsub__(self, o):
        return self._bin("-", o, swap=True)

    def __mul__(self, o):
        return self._bin("*", o)

    def __rmul__(self, o):
        return self._bin("*", o, swap=True)

    def __truediv__(self, o):
        return self._bin("/", o)

    def __rtruediv__(self, o):
        return self._bin("/", o, swap=True)

    def __neg__(self):
        return self._make(UnExpr("neg", self.expr))

    def __abs__(self):
        return self._make(UnExpr("abs", self.expr))

    def abs(self):
        return self.__abs__()

    def sqrt(self):
        return self._make(UnExpr("sqrt", self.expr))

    # -- comparisons (produce 0/1 flag tensors) ----------------------------------------------

    def __lt__(self, o):
        return self._bin("<", o)

    def __le__(self, o):
        return self._bin("<=", o)

    def __gt__(self, o):
        return self._bin(">", o)

    def __ge__(self, o):
        return self._bin(">=", o)

    def eq(self, o):
        return self._bin("==", o)

    def ne(self, o):
        return self._bin("!=", o)

    __hash__ = object.__hash__

    # -- precision ----------------------------------------------------------------------------

    def astype(self, dtype: str) -> "Tensor":
        if dtype == self.dtype:
            return self
        return self._make(ConvertExpr(self.expr, dtype))

    # -- materialization & data movement --------------------------------------------------------

    def materialize(self) -> "Tensor":
        """Force the expression into a fresh variable (no-op if materialized)."""
        if self.var is not None:
            return self
        return self.ctx.materialize_expr(self.expr)

    def assign(self, value) -> "Tensor":
        """Schedule ``value`` to be written into this tensor's storage."""
        if self.var is None:
            raise ValueError("cannot assign into an unmaterialized expression")
        self.ctx.assign(self.var, self._coerce(value))
        return self

    # -- reductions -------------------------------------------------------------------------------

    def reduce(self, op: str = "sum") -> "Tensor":
        """Global reduction (sum/max/min) over all elements → replicated
        scalar tensor."""
        return self.ctx.reduce_expr(self.expr, op=op)

    def max(self) -> "Tensor":
        return self.reduce(op="max")

    def min(self) -> "Tensor":
        return self.reduce(op="min")

    def norm_inf(self) -> "Tensor":
        """Infinity norm as a (materialized) scalar tensor."""
        return abs(self).reduce(op="max")

    def dot(self, other) -> "Tensor":
        return (self * other).reduce()

    def norm2(self) -> "Tensor":
        """Euclidean norm as a (materialized) scalar tensor."""
        return (self * self).reduce().sqrt().materialize()

    # -- host access ------------------------------------------------------------------------------

    def value(self) -> np.ndarray:
        """Host-side read of the materialized tensor's current contents."""
        if self.var is None:
            raise ValueError("materialize() the tensor before reading it")
        return self.var.gather()

    def write(self, values) -> None:
        """Host-side write into the tensor's storage (initialization)."""
        if self.var is None:
            raise ValueError("materialize() the tensor before writing it")
        self.var.scatter(values)

    def __repr__(self):
        state = f"var={self.var.name!r}" if self.var is not None else "lazy"
        return f"Tensor(shape={self.shape}, dtype={self.dtype}, {state})"
