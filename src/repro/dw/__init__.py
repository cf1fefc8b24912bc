"""TwoFloat: double-word arithmetic for single-precision floating point.

A double-word (dw) number represents a value as the unevaluated sum of two
floating-point numbers ``hi + lo`` with ``|lo| <= ulp(hi)/2``.  With an
underlying ``float32`` this yields roughly 13.3–14.0 decimal digits of
precision (Table I of the paper) while keeping the float32 exponent range.

Two arithmetic families are provided, mirroring the paper's TwoFloat library:

- :mod:`repro.dw.joldes` — the tight-error-bound algorithms of
  Joldes, Muller & Popescu (ACM TOMS 2017).  Slower, but the error does not
  grow across chained operations; the paper selects these for MPIR.
- :mod:`repro.dw.lange_rump` — the faster, normalization-omitting algorithms
  in the style of Lange & Rump (ACM TOMS 2020).  Fewer flops, looser bounds.

:mod:`repro.dw.eft` holds the error-free transforms both families build on
(their low part is 0 wherever the high part is not finite, so an overflow
is ``(±inf, 0)``),
:mod:`repro.dw.scalar` and :mod:`repro.dw.array` wrap them in ergonomic
scalar/NumPy-array containers, and :mod:`repro.dw.softfloat` is the
software-emulated double-precision alternative (Sec. III-D).
"""

from repro.dw.eft import fast_two_sum, fma, from_float64, split, two_prod, two_sum
from repro.dw.scalar import DWScalar
from repro.dw.array import DWArray
from repro.dw import joldes, lange_rump, softfloat

__all__ = [
    "two_sum",
    "fast_two_sum",
    "two_prod",
    "split",
    "fma",
    "from_float64",
    "DWScalar",
    "DWArray",
    "joldes",
    "lange_rump",
    "softfloat",
]
