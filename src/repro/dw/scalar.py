"""Ergonomic scalar wrapper around the double-word arithmetic kernels."""

from __future__ import annotations

import numpy as np

from repro.dw import joldes
from repro.dw.eft import two_prod

__all__ = ["DWScalar"]


class DWScalar:
    """A double-word scalar: the unevaluated sum ``hi + lo`` of two float32s.

    Arithmetic dispatches to an algorithm family (:mod:`repro.dw.joldes` by
    default, :mod:`repro.dw.lange_rump` for the fast variants); mixed
    operations with Python/NumPy scalars use the cheaper dw∘fp kernels, as
    the TwoFloat library does.
    """

    __slots__ = ("hi", "lo", "arith")

    def __init__(self, hi, lo=0.0, arith=joldes):
        self.hi = np.float32(hi)
        self.lo = np.float32(lo)
        self.arith = arith

    # -- construction / conversion ------------------------------------------------

    @classmethod
    def from_float(cls, value, arith=joldes):
        """Split a Python/NumPy float (read as float64) into a normalized pair."""
        v = np.float64(value)
        hi = np.float32(v)
        lo = np.float32(v - np.float64(hi))
        return cls(hi, lo, arith)

    def to_float(self) -> float:
        """Best float64 approximation of the represented value."""
        return float(np.float64(self.hi) + np.float64(self.lo))

    def __float__(self) -> float:
        return self.to_float()

    def __repr__(self) -> str:
        return f"DWScalar({self.to_float()!r}, hi={float(self.hi)!r}, lo={float(self.lo)!r})"

    # -- helpers ------------------------------------------------------------------

    def _wrap(self, pair):
        return DWScalar(pair[0], pair[1], self.arith)

    @staticmethod
    def _is_plain(other) -> bool:
        return isinstance(other, (int, float, np.floating, np.integer))

    def _coerce(self, other) -> "DWScalar":
        if isinstance(other, DWScalar):
            return other
        return DWScalar.from_float(other, self.arith)

    # -- arithmetic ---------------------------------------------------------------

    def __neg__(self):
        return self._wrap(self.arith.neg(self.hi, self.lo))

    def __abs__(self):
        return -self if self.hi < 0 else DWScalar(self.hi, self.lo, self.arith)

    def __add__(self, other):
        if self._is_plain(other):
            return self._wrap(self.arith.add_dw_fp(self.hi, self.lo, np.float32(other)))
        o = self._coerce(other)
        return self._wrap(self.arith.add_dw_dw(self.hi, self.lo, o.hi, o.lo))

    __radd__ = __add__

    def __sub__(self, other):
        if self._is_plain(other):
            negated = np.float32(-np.float32(other))
            return self._wrap(self.arith.add_dw_fp(self.hi, self.lo, negated))
        o = self._coerce(other)
        return self._wrap(self.arith.sub_dw_dw(self.hi, self.lo, o.hi, o.lo))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if self._is_plain(other):
            return self._wrap(self.arith.mul_dw_fp(self.hi, self.lo, np.float32(other)))
        o = self._coerce(other)
        return self._wrap(self.arith.mul_dw_dw(self.hi, self.lo, o.hi, o.lo))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if self._is_plain(other):
            return self._wrap(self.arith.div_dw_fp(self.hi, self.lo, np.float32(other)))
        o = self._coerce(other)
        return self._wrap(self.arith.div_dw_dw(self.hi, self.lo, o.hi, o.lo))

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def sqrt(self) -> "DWScalar":
        """Square root via one double-word Newton step on the f32 estimate.

        One refinement doubles the ~24-bit estimate to full dw precision.
        """
        if self.hi < 0:
            raise ValueError("sqrt of negative double-word number")
        if self.hi == 0 and self.lo == 0:
            return DWScalar(0.0, 0.0, self.arith)
        s0 = np.float32(np.sqrt(np.float32(self.hi)))
        # s = s0 + (x - s0*s0) / (2*s0), with the residual formed exactly.
        ph, pl = two_prod(s0, s0)
        rh, rl = self.arith.sub_dw_dw(self.hi, self.lo, ph, pl)
        ch, cl = self.arith.div_dw_fp(rh, rl, np.float32(2.0) * s0)
        return self._wrap(self.arith.add_dw_fp(ch, cl, s0))

    # -- comparisons (on the exact represented value) ------------------------------

    def _cmp_key(self):
        return (float(self.hi), float(self.lo))

    def __eq__(self, other):
        o = self._coerce(other) if not isinstance(other, DWScalar) else other
        return self._cmp_key() == o._cmp_key()

    def __lt__(self, other):
        o = self._coerce(other) if not isinstance(other, DWScalar) else other
        return self._cmp_key() < o._cmp_key()

    def __le__(self, other):
        return self == other or self < other

    def __gt__(self, other):
        return not self <= other

    def __ge__(self, other):
        return not self < other

    def __hash__(self):
        return hash(self._cmp_key())
