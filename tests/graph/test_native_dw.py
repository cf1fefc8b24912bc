"""The native double-word layer: MPIR(dw)'s outer step in C.

``Program.bind`` renders a program with double-word or binary64 nodes for
``native.c``'s ``repro_eval_dw`` (every opcode of the interpreter but the
batch expansions, and a reduce mode in ``_dw_tree_sum``'s halving order),
and ``DeviceExtendedSpmv.bind`` the binary64 residual SpMV for
``repro_xspmv``.  The numpy forms are their oracles and fallbacks; the
properties here are that the two agree as raw bits over random trees,
segment layouts and matrices — ±0.0, ±inf, NaN and subnormals included —
and that an MPIR(dw) solve's outer-step kernels each launch as one native
call.
"""

import ctypes
import shutil
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dw import DWArray
from repro.solvers import native, solve
from repro.sparse import distribute
from repro.sparse.distribute import DeviceExtendedSpmv, extended_spmv, native_xspmv
from repro.sparse.suitesparse import g3_circuit_like
from repro.tensordsl import materialize
from repro.tensordsl.expression import BinExpr, ConstExpr, ConvertExpr, Leaf, UnExpr
from repro.tensordsl.materialize import _dw_tree_sum, compile_expr, native_dw_eval
from repro.tensordsl.types import Type

DTYPES = (Type.FLOAT32, Type.DOUBLEWORD, Type.FLOAT64)
SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, 1e-41, -3e-39, 1e-310, 3e38, 1e300, 1.0]


class _Var:
    """A one-RHS leaf of any representation."""

    batch, shape = 1, (1,)

    def __init__(self, dtype: str):
        self.dtype = dtype


VECTORS = {t: [Leaf(_Var(t)) for _ in range(2)] for t in DTYPES}
SCALARS = {t: Leaf(_Var(t)) for t in DTYPES}


def _native_or_skip():
    if native_dw_eval() is None:
        pytest.skip("no native double-word evaluator")


@st.composite
def trees(draw, depth=0):
    kinds = ["vector", "vector", "scalar", "const"]
    if depth < 4:
        kinds += ["unary", "binary", "binary", "compare", "convert"]
    kind = draw(st.sampled_from(kinds))
    dtype = draw(st.sampled_from(DTYPES))
    if kind == "vector":
        return draw(st.sampled_from(VECTORS[dtype]))
    if kind == "scalar":
        return SCALARS[dtype]
    if kind == "const":
        return ConstExpr(draw(st.sampled_from(SPECIAL) | st.floats(-1e3, 1e3)), dtype)
    if kind == "convert":
        return ConvertExpr(draw(trees(depth=depth + 1)), dtype)
    if kind == "unary":
        return UnExpr(draw(st.sampled_from(["neg", "abs", "sqrt"])), draw(trees(depth=depth + 1)))
    ops = ["+", "-", "*", "/"] if kind == "binary" else ["<", "<=", ">", ">=", "==", "!="]
    return BinExpr(draw(st.sampled_from(ops)), draw(trees(depth=depth + 1)),
                   draw(trees(depth=depth + 1)))


@st.composite
def segments(draw):
    """Equal or unequal segment lengths, 0-1100 elements each (past one
    1024-element block)."""
    length = st.one_of(st.integers(0, 12), st.sampled_from([7, 8, 9, 128, 129, 300, 1100]))
    if draw(st.booleans()):
        return [draw(length)] * draw(st.integers(1, 5))
    return draw(st.lists(length, min_size=1, max_size=5))


def _draw(rng, dtype, size):
    """Values of one representation: many decades and the special values,
    a double word's ``lo`` small against its ``hi`` or anything."""
    wide = rng.standard_normal(size) * 10.0 ** rng.integers(-3, 4, size)
    special = rng.random(size) < 0.15
    wide[special] = rng.choice(SPECIAL, int(special.sum()))
    with np.errstate(all="ignore"):
        if dtype == Type.FLOAT64:
            return wide
        hi = wide.astype(np.float32)
        if dtype == Type.FLOAT32:
            return hi
        lo = (rng.standard_normal(size) * np.abs(hi) * 2.0**-25).astype(np.float32)
        odd = rng.random(size) < 0.1
        lo[odd] = rng.choice(SPECIAL, int(odd.sum())).astype(np.float32)
    return hi, lo


def _repeat(value, lengths):
    if isinstance(value, tuple):
        return tuple(np.repeat(part, lengths) for part in value)
    return np.repeat(value, lengths)


def _parts(value, total):
    return tuple(np.broadcast_to(part, total) for part in (
        value if isinstance(value, tuple) else (value,)))


def _same_bits(got, want) -> bool:
    """Equal bit for bit — signed zeros told apart — except that a NaN only
    has to be a NaN."""
    got, want = np.asarray(got), np.asarray(want)
    nan = np.isnan(got)
    bits = f"u{got.dtype.itemsize}"
    return bool(got.dtype == want.dtype and np.array_equal(nan, np.isnan(want))
                and np.array_equal(got.view(bits)[~nan], want.view(bits)[~nan]))


def _numpy_ran():
    raise AssertionError("the numpy fallback ran")


@settings(max_examples=300, deadline=None)
@given(expr=trees(), lengths=segments(), reduce=st.booleans(), seed=st.integers(0, 2**16))
def test_native_dw_evaluator_equals_the_interpreter_bitwise(expr, lengths, reduce, seed):
    """Property: random trees of float32, double-word and binary64 nodes —
    every opcode but the batch expansions — over vectors, per-segment
    scalars and constants, on equal and unequal segments: the native call
    writes the interpreter's value element by element, or each segment's
    sum (``.sum()`` of float32 values, ``_dw_tree_sum`` of double words),
    as raw bits."""
    _native_or_skip()
    rng = np.random.default_rng(seed)
    offsets = np.cumsum([0] + lengths)
    total, nseg = int(offsets[-1]), len(lengths)
    with np.errstate(all="ignore"):  # constants are rounded at compile time
        program = compile_expr(expr)
    vectors, scalars, flat = {}, {}, {}
    for i, var in enumerate(program.leaves):
        if any(var is leaf.var for leaf in SCALARS.values()):
            base = _draw(rng, var.dtype, nseg + 2)
            at = rng.permutation(nseg + 2)[:nseg]
            scalars[i] = base, at
            flat[var] = _repeat(tuple(p[at] for p in base) if isinstance(base, tuple)
                                else base[at], lengths)
        else:
            vectors[i] = flat[var] = _draw(rng, var.dtype, total)
    with np.errstate(all="ignore"):
        value = _parts(program(lambda leaf: flat[leaf.var]), total)
    root = "dw" if len(value) == 2 else value[0].dtype.name
    if root == "float32" and program.f32:
        return  # the float32 evaluator's own property covers it
    if reduce and root == "float64":
        with pytest.raises(TypeError, match="binary64 sum"):
            program.bind(offsets, vectors, scalars, np.empty(nseg), np.arange(nseg))
        return
    if reduce:
        with np.errstate(all="ignore"):
            if root == "dw":
                sums = [_dw_tree_sum(value[0][a:b], value[1][a:b])
                        for a, b in zip(offsets[:-1], offsets[1:])]
                want = tuple(np.array(half, np.float32) for half in zip(*sums)) \
                    if sums else (np.empty(0, np.float32),) * 2
            else:
                want = (np.array([value[0][a:b].sum() for a, b in zip(offsets[:-1], offsets[1:])],
                                 dtype=np.float32),)
        size = nseg + 2
        out_at = rng.permutation(size)[:nseg]
    else:
        want, size, out_at = value, total, None
    out = tuple(np.full(size, 7.0, dtype=w.dtype) for w in want)
    program.bind(offsets, vectors, scalars, out if len(out) == 2 else out[0], out_at,
                 _numpy_ran)()
    for got, w in zip(out, want):
        assert _same_bits(got if out_at is None else got[out_at], w)


def test_a_double_word_sum_halves_with_the_odd_tail_carried():
    """The reduce mode's order, spelled out: seven double words sum as
    ``((x0+x3) + (x1+x4)) + ((x2+x5) + x6)``, each ``+`` an accurate
    double-word addition (it differs from a left-to-right sum here)."""
    _native_or_skip()
    from repro.dw.joldes import add_dw_dw

    hi = np.array([1e8, 3.0, -1e8, 1e-3, 7.0, 2.5e-8, -4.0], np.float32)
    lo = np.array([1.0, -1e-7, 2.0, 3e-11, 0.0, 1e-15, 1e-7], np.float32)
    x = list(zip(hi, lo))

    def add(a, b):
        return add_dw_dw(*a, *b)

    want = add(add(add(x[0], x[3]), add(x[1], x[4])), add(add(x[2], x[5]), x[6]))
    d = Leaf(_Var(Type.DOUBLEWORD))
    out = (np.empty(1, np.float32), np.empty(1, np.float32))
    compile_expr(d).bind([0, 7], {0: (hi, lo)}, {}, out, [0], _numpy_ran)()
    assert (out[0][0], out[1][0]) == tuple(np.float32(w) for w in want)
    assert tuple(_dw_tree_sum(hi, lo)) == (out[0][0], out[1][0])
    left_to_right = x[0]
    for term in x[1:]:
        left_to_right = add(left_to_right, term)
    assert tuple(left_to_right) != (out[0][0], out[1][0])


@st.composite
def matrices(draw):
    lengths = draw(st.lists(st.integers(0, 12) | st.sampled_from([40, 130]), min_size=1,
                            max_size=12))
    return lengths, draw(st.integers(0, 6)), draw(st.integers(0, 2**16))


@settings(max_examples=150, deadline=None)
@given(case=matrices(), xrep=st.sampled_from(DTYPES), yrep=st.sampled_from(DTYPES))
def test_native_extended_spmv_equals_extended_spmv_bitwise(case, xrep, yrep):
    """Property: random CRS blocks (empty and long rows, halo columns,
    weights over sixteen decades, special values) from every
    representation of ``x`` into every representation of ``y``: the native
    entry writes :func:`extended_spmv`'s bits."""
    if native_xspmv() is None:
        pytest.skip("no native extended SpMV")
    lengths, halo, seed = case
    rng = np.random.default_rng(seed)
    n = len(lengths)
    row_ptr = np.cumsum([0] + lengths)
    cols = rng.integers(0, n + halo, row_ptr[-1])
    vals = rng.standard_normal(cols.size) * 10.0 ** rng.integers(-8, 9, cols.size)
    vals[rng.random(cols.size) < 0.05] = -0.0
    diag = rng.uniform(0.5, 4.0, n)
    spmv = DeviceExtendedSpmv(row_ptr, cols, vals, diag, halo)

    def pair(value):
        return value if isinstance(value, tuple) else (value, None)

    x, h = pair(_draw(rng, xrep, n)), pair(_draw(rng, xrep, halo))
    h = h if halo else None
    outs = [pair(_draw(rng, yrep, n)) for _ in range(2)]
    spmv.bind(x, h, outs[0])()
    with np.errstate(all="ignore"):
        extended_spmv(spmv.entries, x, h, outs[1])
    for got, want in zip(*outs):
        if got is not None:
            assert _same_bits(got, want)


def test_the_self_checks_are_fast_and_catch_a_wrong_kernel():
    """Both new kinds check themselves in every process that uses them, in
    a few milliseconds, and a kernel off in one bit of one output fails."""
    checks = ((materialize._dw_self_check, native_dw_eval, 11, 8),
              (distribute._xspmv_self_check, native_xspmv, 14, 11))
    for check, resolve, nargs, out_arg in checks:
        run = resolve()
        if run is None:
            pytest.skip("no native library")
        times = []
        for _ in range(5):
            start = time.perf_counter()
            assert check(run) is None
            times.append(time.perf_counter() - start)
        assert min(times) < 5e-3, f"self-check takes {min(times) * 1e3:.2f} ms"

        def one_bit_off(n, table, run=run, nargs=nargs, out_arg=out_arg):
            run(n, table)
            row = (ctypes.c_int64 * (nargs + 1)).from_address(table)
            out = row[1 + out_arg]
            if nargs == 11:  # the evaluator's out is an array of addresses
                out = ctypes.c_int64.from_address(out).value
            ctypes.c_uint32.from_address(out).value ^= 1

        assert check(one_bit_off).startswith("self-check: ")


def test_float64_to_double_word_keeps_infinities():
    """The one split: an infinity and a binary64 beyond float32's range
    read back as infinities, with no numpy warning — through ``DWArray``
    (construction and item assignment) and through a scattered double-word
    variable — and a finite value splits as before."""
    from repro.graph import Graph
    from repro.machine import IPUDevice

    values = np.array([np.inf, -np.inf, 1e300])
    want = [np.inf, -np.inf, np.inf]
    var = Graph(IPUDevice(tiles_per_ipu=2)).add_variable("v", (3,), dtype="dw")
    with np.errstate(all="raise"):
        assert DWArray.from_float64(values).to_float64().tolist() == want
        array = DWArray.from_float64(np.zeros(3))
        array[:] = values
        assert array.to_float64().tolist() == want
        var.scatter(values)
        assert var.gather().tolist() == want
    assert var.flat_lo.tolist() == [0.0, 0.0, 0.0]
    third = DWArray.from_float64([1.0 / 3.0])
    assert third.lo[0] == np.float32(1.0 / 3.0 - np.float64(third.hi[0])) != 0.0


FIG8 = {"solver": "mpir", "precision": "dw", "tol": 1e-9, "max_outer": 12,
        "inner": {"solver": "bicgstab", "fixed_iterations": 50, "tol": 2e-7,
                  "record_history": False, "preconditioner": {"solver": "ilu0"}}}


def test_every_mpir_kernel_launches_as_one_native_call():
    """What was realized: on the Fig. 8 solver every kernel of the program
    that does anything is one native table — the outer step (``k1``, the
    set-up; ``k2``, the extended residual SpMV, the double-word update and
    norm) included — and the double-word kinds are in it."""
    if shutil.which("cc") is None:
        pytest.skip("no C compiler")
    g3 = g3_circuit_like(grid=16)
    b = g3.spmv(np.random.default_rng(3).standard_normal(g3.n)).astype(np.float32)
    res = solve(g3, b, FIG8, num_ipus=1, tiles_per_ipu=16, backend="fused")
    assert res.failure is None
    kernels = {k.name: k for k in res.compiled.kernels.kernels if k.ops}
    for kernel in kernels.values():
        assert len(kernel.calls) == 1 and isinstance(kernel.calls[0], native.Table), kernel
    kinds = {name: {e.kind for e in kernels[name].calls[0].entries} for name in ("k1", "k2")}
    assert native.DWEVAL in kinds["k1"] and {native.DWEVAL, native.XSPMV} <= kinds["k2"]
