"""The whole-device SpMV: one native call in numpy's summation order.

``DeviceSpmv`` runs the fused kernels' working-precision SpMV as one call
into ``native.c``; ``SlotMajorRows`` plus the diagonal is its oracle and its
no-compiler fallback, and the per-tile ``np.add.reduceat`` path is what
both reproduce.  The extended-precision residual SpMV of MPIR is one
whole-device numpy op over the same index space.
"""

import ctypes
import shutil
import time
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.solvers import native, solve
from repro.sparse import poisson2d, poisson3d
from repro.sparse.distribute import RowSegments
from repro.sparse.sell import DeviceSpmv, _self_check, native_spmv

#: Row lengths on both sides of every ``reduceat`` regime boundary: seven /
#: eight rest addends, 128 / 129 (the recursive split), and long rows.
EDGES = [0, 1, 7, 8, 9, 10, 127, 128, 129, 130, 137, 200, 257, 300]
SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan]


def _same_bits(a, b) -> bool:
    """Equal bit for bit — signed zeros told apart — except that a NaN only
    has to be a NaN (its payload is whichever operand's the FPU kept)."""
    nan = np.isnan(a)
    return bool(np.array_equal(nan, np.isnan(b))
                and np.array_equal(a.view(np.uint32)[~nan], b.view(np.uint32)[~nan]))


def _awkward(rng, shape, share):
    """Normal values over several decades, ``share`` of them ±0.0 / ±inf / NaN."""
    out = rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4, shape)
    special = rng.random(shape) < share
    out[special] = rng.choice(SPECIAL, int(special.sum()))
    return out.astype(np.float32)


@st.composite
def spmv_shape(draw):
    """Runs of equal row lengths (0-300 entries), halo cells, RHS columns."""
    length = st.one_of(st.integers(0, 12), st.sampled_from(EDGES))
    runs = draw(st.lists(st.tuples(length, st.integers(1, 5)), min_size=1, max_size=6))
    lengths = [n for n, repeat in runs for _ in range(repeat)]
    return lengths, draw(st.integers(0, 4)), draw(st.sampled_from([1, 2, 3, 8]))


@settings(max_examples=200, deadline=None)
@given(shape=spmv_shape(), seed=st.integers(0, 2**16))
def test_native_spmv_equals_slot_major_rows_and_reduceat_bitwise(shape, seed):
    """Property: the bound op (the native call wherever a compiler is)
    equals ``run_numpy`` — ``SlotMajorRows`` plus the diagonal — and the
    per-tile ``diag * x + reduceat`` formula, by ``view(np.uint32)``: rows
    of 0-300 entries in runs of equal length, halo columns, 1/2/3/8 RHS
    columns, ±0.0 / ±inf / NaN in ``x``, the halo and ``vals``."""
    lengths, halo, batch = shape
    rng = np.random.default_rng(seed)
    n = len(lengths)
    row_ptr = np.cumsum([0] + lengths)
    cols = rng.integers(0, n + halo, row_ptr[-1])
    vals = _awkward(rng, cols.size, 0.02)
    diag = rng.choice(np.float32([1.0, -2.0, 0.5, 3.0, 1e-3, -0.0]), n)
    trailing = () if batch == 1 else (batch,)
    x = _awkward(rng, (n,) + trailing, 0.1)
    h = _awkward(rng, (halo,) + trailing, 0.1) if halo else None
    spmv = DeviceSpmv(row_ptr, cols, vals, diag, halo, batch)
    y_op, y_numpy = np.empty_like(x), np.empty_like(x)
    op = spmv.bind(x, h, y_op)
    with np.errstate(all="ignore"):
        op()
        spmv.run_numpy(x, h, y_numpy)
        xfull = x if h is None else np.concatenate([x, h])
        per_row = (slice(None), None) if trailing else slice(None)
        want = diag[per_row] * x + RowSegments(row_ptr).sums(vals[per_row] * xfull[cols])
    assert _same_bits(y_op, y_numpy)
    assert _same_bits(y_op, want)


def test_the_native_spmv_is_in_use_wherever_a_compiler_is():
    """A broken toolchain fails here instead of silently losing the gain."""
    assert native_spmv() is not None or shutil.which("cc") is None


def test_the_self_check_is_fast_and_catches_a_wrong_kernel():
    """Every process runs the self-check on its first SpMV: it must stay
    well under a millisecond, and a kernel that is off in one element of
    one RHS column must fail it."""
    kernel = native_spmv()
    if kernel is None:
        pytest.skip("no native SpMV")
    times = []
    for _ in range(10):
        start = time.perf_counter()
        assert _self_check(kernel) is None
        times.append(time.perf_counter() - start)
    assert min(times) < 1e-3, f"self-check takes {min(times) * 1e3:.2f} ms"

    def off_by_one_element(n, table):
        kernel(n, table)
        row = (ctypes.c_int64 * 13).from_address(table)  # kind, then the twelve arguments
        ctypes.memset(row[10], 0, 4)  # y[0] = +0.0

    assert _self_check(off_by_one_element).startswith("self-check: y[0] with 1 RHS column")


CG = {"solver": "cg", "tol": 1e-6}


def test_solves_without_the_library_are_bit_identical(monkeypatch):
    """A Fig. 5-shaped fused CG solve (``poisson3d:12`` on 2 x 16 tiles) and
    a B=3 batched CG solve on ``sim`` with the loader forced to report no
    library run the slot-major numpy SpMV — after exactly one
    RuntimeWarning saying why — and match the native solves bit for bit:
    ``x``, residual history, modeled cycles."""
    crs, dims = poisson3d(12)
    rng = np.random.default_rng(8)
    b1 = rng.standard_normal(crs.n).astype(np.float32)
    b3 = rng.standard_normal((3, crs.n)).astype(np.float32)

    def run():
        return (solve(crs, b1, CG, grid_dims=dims, num_ipus=2, tiles_per_ipu=16,
                      backend="fused"),
                solve(crs, b3, CG, grid_dims=dims, num_ipus=1, tiles_per_ipu=16,
                      backend="sim"))

    reference = run()
    monkeypatch.setattr(native, "load", lambda: (None, "forced off"))
    native_spmv.cache_clear()
    try:
        with pytest.warns(RuntimeWarning) as caught:
            fallback = run()
    finally:
        native_spmv.cache_clear()
    assert [str(w.message) for w in caught] == [
        "native SpMV unavailable, running the slot-major numpy SpMV: forced off"]
    for want, got in zip(reference, fallback):
        assert want.failure is None
        assert want.x.tobytes() == got.x.tobytes()
        assert want.stats.residuals == got.stats.residuals
        assert want.cycles == got.cycles
    assert [s.residuals for s in reference[1].batch_stats] == \
        [s.residuals for s in fallback[1].batch_stats]


def test_bind_checks_its_buffers_once():
    spmv = DeviceSpmv([0, 1, 2], [2, 0], np.float32([1.0, 2.0]), np.float32([1.0, 1.0]), 1)
    x, h, y = np.ones(2, np.float32), np.ones(1, np.float32), np.empty(2, np.float32)
    for bad in (x.astype(np.float64), np.ones(4, np.float32)[::2], np.ones(3, np.float32)):
        with pytest.raises(TypeError, match="SpMV x must be a C-contiguous float32"):
            spmv.bind(bad, h, y)
    with pytest.raises(TypeError, match="SpMV halo"):
        spmv.bind(x, None, y)
    with pytest.raises(ValueError, match="overlap"):
        spmv.bind(x, h, x)
    spmv.bind(x, h, y)()
    assert y.tolist() == [2.0, 3.0]
    with pytest.raises(ValueError, match="malformed SpMV"):
        DeviceSpmv([0, 1, 2], [3, 0], np.float32([1.0, 2.0]), np.float32([1.0, 1.0]), 1)
    with pytest.raises(ValueError, match="malformed SpMV"):
        DeviceSpmv([0, 2, 1], [0, 0], np.float32([1.0, 2.0]), np.float32([1.0, 1.0]), 0)


@pytest.mark.parametrize("precision", ["dw", "float64", "float32"])
def test_extended_residual_spmv_is_one_whole_device_op(precision):
    """MPIR's residual SpMV (binary64 products, one ``np.bincount`` over the
    device's rows, stored per the precision) leaves no vertex on the
    per-vertex hatch, and matches the stepped ``sim`` — every vertex run on
    its own tile — bit for bit."""
    crs, dims = poisson2d(10)
    b = np.random.default_rng(2).standard_normal(crs.n)
    config = {"solver": "mpir", "precision": precision, "tol": 1e-10, "max_outer": 4,
              "inner": {"solver": "cg", "max_iterations": 20, "tol": 1e-4,
                        "record_history": False}}
    runs = [solve(crs, b, config, grid_dims=dims, tiles_per_ipu=4, backend=backend,
                  trace=trace) for backend, trace in (("sim", True), ("fused", None))]
    stepped, fused = runs
    assert fused.x.tobytes() == stepped.x.tobytes()
    assert fused.stats.residuals == stepped.stats.residuals
    fallbacks = Counter()
    for _, _, counts in fused.compiled.kernels.fallback_rows(fused.compiled.root):
        fallbacks.update(counts)
    assert not fallbacks
