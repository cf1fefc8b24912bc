"""Vectorized double-word arrays.

``DWArray`` stores a NumPy float32 ``hi`` array and a float32 ``lo`` array and
applies the double-word kernels elementwise — this is how the extended-
precision residual/update steps of MPIR run across all tile shards.

Reductions (``sum``/``dot``/``norm2``) use a pairwise tree of accurate
double-word additions, so the accumulated error stays O(u² log n) rather than
O(u n) — essential for the 1e-13 residuals of Figs. 9/10.
"""

from __future__ import annotations

import numpy as np

from repro.dw import joldes
from repro.dw.eft import from_float64, two_prod
from repro.dw.scalar import DWScalar

__all__ = ["DWArray"]


class DWArray:
    """Array of double-word (float32 + float32) numbers."""

    __slots__ = ("hi", "lo", "arith")

    def __init__(self, hi, lo=None, arith=joldes):
        self.hi = np.asarray(hi, dtype=np.float32)
        self.lo = (
            np.zeros_like(self.hi)
            if lo is None
            else np.asarray(lo, dtype=np.float32)
        )
        if self.hi.shape != self.lo.shape:
            raise ValueError(f"hi/lo shape mismatch: {self.hi.shape} vs {self.lo.shape}")
        self.arith = arith

    # -- construction / conversion ------------------------------------------------

    @classmethod
    def from_float64(cls, values, arith=joldes):
        """Split float64 values into normalized (hi, lo) float32 pairs."""
        return cls(*from_float64(values), arith)

    @classmethod
    def zeros(cls, shape, arith=joldes):
        return cls(np.zeros(shape, dtype=np.float32), None, arith)

    @classmethod
    def from_product(cls, a, b, arith=joldes):
        """Exact elementwise product of two float32 arrays as a DWArray."""
        p, e = two_prod(np.asarray(a, np.float32), np.asarray(b, np.float32))
        return cls(p, e, arith)

    def to_float64(self) -> np.ndarray:
        return self.hi.astype(np.float64) + self.lo.astype(np.float64)

    def to_float32(self) -> np.ndarray:
        """Round to working precision (the hi word, for normalized values)."""
        return self.hi.copy()

    def copy(self) -> "DWArray":
        return DWArray(self.hi.copy(), self.lo.copy(), self.arith)

    # -- container protocol ---------------------------------------------------------

    @property
    def shape(self):
        return self.hi.shape

    @property
    def size(self):
        return self.hi.size

    def __len__(self):
        return len(self.hi)

    def __getitem__(self, idx):
        h, l = self.hi[idx], self.lo[idx]
        if np.ndim(h) == 0:
            return DWScalar(h, l, self.arith)
        return DWArray(h, l, self.arith)

    def __setitem__(self, idx, value):
        if isinstance(value, (DWArray, DWScalar)):
            self.hi[idx] = value.hi
            self.lo[idx] = value.lo
        else:
            self.hi[idx], self.lo[idx] = from_float64(value)

    def __repr__(self):
        return f"DWArray(shape={self.shape}, value≈{self.to_float64()!r})"

    # -- arithmetic -----------------------------------------------------------------

    def _wrap(self, pair):
        return DWArray(pair[0], pair[1], self.arith)

    @staticmethod
    def _plain(other):
        """Return a float32 array/scalar for fp-operand kernels, or None."""
        if isinstance(other, (DWArray, DWScalar)):
            return None
        if isinstance(other, (int, float, np.floating, np.integer)):
            return np.float32(other)
        arr = np.asarray(other)
        if arr.dtype == np.float32:
            return arr
        return None  # float64 operands must be split explicitly

    def _coerce(self, other):
        if isinstance(other, (DWArray, DWScalar)):
            return other
        return DWArray.from_float64(other, self.arith)

    def __neg__(self):
        return self._wrap(self.arith.neg(self.hi, self.lo))

    def __add__(self, other):
        p = self._plain(other)
        if p is not None:
            return self._wrap(self.arith.add_dw_fp(self.hi, self.lo, p))
        o = self._coerce(other)
        return self._wrap(self.arith.add_dw_dw(self.hi, self.lo, o.hi, o.lo))

    __radd__ = __add__

    def __sub__(self, other):
        p = self._plain(other)
        if p is not None:
            return self._wrap(self.arith.add_dw_fp(self.hi, self.lo, -p))
        o = self._coerce(other)
        return self._wrap(self.arith.sub_dw_dw(self.hi, self.lo, o.hi, o.lo))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        p = self._plain(other)
        if p is not None:
            return self._wrap(self.arith.mul_dw_fp(self.hi, self.lo, p))
        o = self._coerce(other)
        return self._wrap(self.arith.mul_dw_dw(self.hi, self.lo, o.hi, o.lo))

    __rmul__ = __mul__

    def __truediv__(self, other):
        p = self._plain(other)
        if p is not None:
            return self._wrap(self.arith.div_dw_fp(self.hi, self.lo, p))
        o = self._coerce(other)
        return self._wrap(self.arith.div_dw_dw(self.hi, self.lo, o.hi, o.lo))

    def __rtruediv__(self, other):
        return self._coerce(np.broadcast_to(np.asarray(other, np.float64), self.shape)) / self

    # -- reductions -------------------------------------------------------------------

    def sum(self) -> DWScalar:
        """Pairwise-tree double-word sum of all elements."""
        hi = self.hi.ravel()
        lo = self.lo.ravel()
        if hi.size == 0:
            return DWScalar(0.0, 0.0, self.arith)
        while hi.size > 1:
            n = hi.size
            half = n // 2
            upper = slice(half, 2 * half)
            h2, l2 = self.arith.add_dw_dw(hi[:half], lo[:half], hi[upper], lo[upper])
            if n % 2:
                h2 = np.concatenate([h2, hi[-1:]])
                l2 = np.concatenate([l2, lo[-1:]])
            hi, lo = h2, l2
        return DWScalar(hi[0], lo[0], self.arith)

    def dot(self, other) -> DWScalar:
        """Double-word dot product; ``other`` may be DWArray or float32 array."""
        return (self * other).sum()

    def norm2(self) -> DWScalar:
        """Euclidean norm in double-word precision."""
        return (self * self).sum().sqrt()
