"""Lazy expression objects (Sec. III-C).

Evaluating ``x * 4`` during symbolic execution does not touch the dataflow
graph; it returns an expression node.  Nodes combine into trees; when a
value is needed the whole tree is *materialized* — fused into one codelet
per tile (see :mod:`repro.tensordsl.materialize`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.tensordsl.types import Type, promote

__all__ = ["Expr", "Leaf", "ConstExpr", "BinExpr", "UnExpr", "ConvertExpr", "OP_KINDS"]

#: expression op -> cycle-model op kind.
OP_KINDS = {
    "+": "add",
    "-": "sub",
    "*": "mul",
    "/": "div",
    "neg": "neg",
    "abs": "abs",
    "sqrt": "sqrt",
    "<": "cmp",
    "<=": "cmp",
    ">": "cmp",
    ">=": "cmp",
    "==": "cmp",
    "!=": "cmp",
}


@dataclass(frozen=True)
class Expr:
    """Base expression node; concrete nodes define dtype and shape.

    Interior nodes derive ``dtype`` / ``shape`` / ``batch`` from their
    children once (``cached_property`` — a frozen node's children never
    change), so asking every node of a tree costs linear, not quadratic,
    time in its depth."""

    @property
    def dtype(self) -> str:  # pragma: no cover - overridden
        raise NotImplementedError

    @property
    def shape(self) -> tuple:  # pragma: no cover - overridden
        raise NotImplementedError

    @property
    def batch(self) -> int:
        """Width of the trailing multi-RHS batch axis (1 = unbatched)."""
        return 1

    def leaves(self):
        """Yield all variable leaves of the tree."""
        raise NotImplementedError

    def op_counts(self) -> dict:
        """Per-element arithmetic op mix (for the cycle model)."""
        raise NotImplementedError


@dataclass(frozen=True)
class Leaf(Expr):
    """A materialized variable used as an operand."""

    var: object  # repro.graph.Variable

    @property
    def dtype(self):
        return self.var.dtype

    @property
    def shape(self):
        return self.var.shape

    @property
    def batch(self):
        return getattr(self.var, "batch", 1)

    def leaves(self):
        yield self

    def op_counts(self):
        return {}


@dataclass(frozen=True)
class ConstExpr(Expr):
    """A host constant embedded in the codelet (no storage)."""

    value: float
    const_dtype: str = Type.FLOAT32

    @property
    def dtype(self):
        return self.const_dtype

    @property
    def shape(self):
        return ()

    def leaves(self):
        return iter(())

    def op_counts(self):
        return {}


def _broadcast_shape(a: tuple, b: tuple) -> tuple:
    """NumPy-style broadcast for the 1-D + scalar cases TensorDSL supports."""
    if a == b:
        return a
    if a == ():
        return b
    if b == ():
        return a
    raise ValueError(f"cannot broadcast shapes {a} and {b}")


def _merge_counts(*counts, extra=None):
    out = {}
    for c in counts:
        for k, v in c.items():
            out[k] = out.get(k, 0) + v
    if extra:
        out[extra] = out.get(extra, 0) + 1
    return out


@dataclass(frozen=True)
class BinExpr(Expr):
    op: str
    left: Expr
    right: Expr

    @cached_property
    def dtype(self):
        if self.op in ("<", "<=", ">", ">=", "==", "!="):
            return Type.FLOAT32  # predicates are working-precision flags
        return promote(self.left.dtype, self.right.dtype)

    @cached_property
    def shape(self):
        return _broadcast_shape(self.left.shape, self.right.shape)

    @cached_property
    def batch(self):
        lb, rb = self.left.batch, self.right.batch
        if lb != rb and 1 not in (lb, rb):
            raise ValueError(f"cannot broadcast batch widths {lb} and {rb}")
        return max(lb, rb)

    def leaves(self):
        yield from self.left.leaves()
        yield from self.right.leaves()

    def op_counts(self):
        return _merge_counts(
            self.left.op_counts(), self.right.op_counts(), extra=OP_KINDS[self.op]
        )


@dataclass(frozen=True)
class UnExpr(Expr):
    op: str  # neg, abs, sqrt
    operand: Expr

    @cached_property
    def dtype(self):
        return self.operand.dtype

    @cached_property
    def shape(self):
        return self.operand.shape

    @cached_property
    def batch(self):
        return self.operand.batch

    def leaves(self):
        yield from self.operand.leaves()

    def op_counts(self):
        return _merge_counts(self.operand.op_counts(), extra=OP_KINDS[self.op])


@dataclass(frozen=True)
class ConvertExpr(Expr):
    """Precision conversion (f32 <-> dw <-> f64)."""

    operand: Expr
    target: str

    @cached_property
    def dtype(self):
        return self.target

    @cached_property
    def shape(self):
        return self.operand.shape

    @cached_property
    def batch(self):
        return self.operand.batch

    def leaves(self):
        yield from self.operand.leaves()

    def op_counts(self):
        return _merge_counts(self.operand.op_counts(), extra="add")
