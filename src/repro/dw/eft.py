"""Error-free transforms (EFTs) — the building blocks of double-word arithmetic.

All functions work elementwise on NumPy arrays or scalars and preserve the
input dtype.  Every intermediate operation is performed in the working
precision, exactly as it would execute on the IPU's float32 pipelines; the
returned error terms are therefore *exact* (the defining property of an EFT).

The IPU provides a fused multiply-add; NumPy does not.  For float32 operands
we emulate FMA bit-exactly by widening to float64: a product of two 24-bit
mantissas fits in 48 bits < 53, so ``float64(a) * float64(b)`` is exact and
one float64 addition plus a final rounding to float32 rounds identically to a
hardware FMA.  For float64 operands we fall back to Dekker splitting.

Where the rounded result is not finite (an overflow, an infinite or NaN
operand) there is no finite error term: the transforms return a low part of
0 there, so a double word that overflows reads ``(±inf, 0)`` — a
divergence — instead of the NaN that ``inf - inf`` would leave in its low
part.  NaN still propagates through the high part.
"""

from __future__ import annotations

import numpy as np

__all__ = ["two_sum", "fast_two_sum", "two_prod", "split", "fma", "from_float64"]

#: Dekker split constants: 2**ceil(p/2) + 1 for precision p.
_SPLITTERS = {
    np.dtype(np.float32): np.float32(4097.0),  # 2**12 + 1
    np.dtype(np.float64): np.float64(134217729.0),  # 2**27 + 1
}


def _dtype_of(a, b):
    dt = np.result_type(a, b)
    if dt not in _SPLITTERS:
        raise TypeError(f"unsupported dtype for double-word arithmetic: {dt}")
    return dt


def _finite_lo(hi, lo):
    """``lo``, with 0 wherever ``hi`` is not finite: the same object when
    every ``hi`` is finite, else ``lo``'s dtype, and a scalar for a scalar."""
    finite = np.isfinite(hi)
    if finite.all():
        return lo
    out = np.where(finite, lo, np.zeros_like(lo))
    return out[()] if out.ndim == 0 else out


def two_sum(a, b):
    """Knuth's 2Sum: return ``(s, e)`` with ``s = fl(a + b)`` and ``a + b = s + e`` exactly.

    Six flops, no magnitude precondition.  ``e = 0`` where ``s`` is not
    finite.
    """
    s = a + b
    bb = s - a
    e = (a - (s - bb)) + (b - bb)
    return s, _finite_lo(s, e)


def fast_two_sum(a, b):
    """Dekker's Fast2Sum: like :func:`two_sum` but requires ``|a| >= |b|`` (or a == 0).

    Three flops.  The double-word algorithms only invoke it where the
    precondition is guaranteed, so it is not checked here.  ``e = 0`` where
    ``s`` is not finite.
    """
    s = a + b
    e = b - (s - a)
    return s, _finite_lo(s, e)


def split(a):
    """Dekker split: return ``(hi, lo)`` with ``a = hi + lo`` and each half
    representable in ~p/2 bits, enabling exact products without FMA."""
    dt = np.result_type(a)
    c = _SPLITTERS[np.dtype(dt)] * a
    hi = c - (c - a)
    lo = a - hi
    return hi, lo


def fma(a, b, c):
    """Fused multiply-add ``fl(a * b + c)`` with a single rounding.

    For float32 this is bit-exact (computed in float64, rounded once); it
    models the IPU's f32 FMA instruction.  float64 inputs pass through
    ``a * b + c`` with two roundings — adequate because the float64 path only
    backs the *emulated* double type, whose cost dominates its last-bit error.
    """
    dt = np.result_type(a, b, c)
    if np.dtype(dt) == np.dtype(np.float32):
        wide = (
            np.asarray(a, dtype=np.float64) * np.asarray(b, dtype=np.float64)
            + np.asarray(c, dtype=np.float64)
        )
        narrow = np.asarray(wide, dtype=np.float32)
        # Collapse 0-d results back to scalars so scalar in -> scalar out.
        return narrow[()] if narrow.ndim == 0 else narrow
    return a * b + c


def two_prod(a, b):
    """2Prod: return ``(p, e)`` with ``p = fl(a * b)`` and ``a * b = p + e`` exactly.

    Uses the FMA formulation ``e = fma(a, b, -p)`` for float32 (2 flops on
    hardware) and Dekker's 17-flop splitting product for float64.  ``e = 0``
    where ``p`` is not finite.
    """
    dt = _dtype_of(a, b)
    p = a * b
    if np.dtype(dt) == np.dtype(np.float32):
        e = fma(a, b, -p)
    else:
        ah, al = split(a)
        bh, bl = split(b)
        e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p, _finite_lo(p, e)


def from_float64(values):
    """The double word nearest each binary64 value, as float32 ``(hi, lo)``:
    ``hi`` the value rounded to float32, ``lo`` the float32 remainder — and
    ``lo = 0`` wherever ``hi`` is not finite (±inf, NaN, or a value beyond
    float32's range), so ``hi + lo`` keeps an infinity instead of turning
    it into NaN.  The package's one float64 → double-word split; no numpy
    warning."""
    wide = np.asarray(values, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        hi = wide.astype(np.float32)
        lo = (wide - hi.astype(np.float64)).astype(np.float32)
    return hi, np.where(np.isfinite(hi), lo, np.float32(0))
