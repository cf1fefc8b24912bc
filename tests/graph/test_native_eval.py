"""The native float32 evaluator: the fused kernels' trees in one C pass.

``compile_expr`` renders an expression tree as a three-address program;
``Program.bind`` runs a float32, one-RHS program through ``native.c``'s
``repro_eval_f32`` over segments: element by element into ``out``, or
``.sum()`` per segment.  The program's numpy interpreter is its oracle and
its fallback; the property here is that the two agree bit for bit, and
that exactly the float32, one-RHS programs bind.  The exchanges' indexed
copies (``repro_copy_f32``) are checked beside it.
"""

import ctypes
import shutil
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.graph.codelet import ElementwiseSpec, ReduceSpec
from repro.graph.passes import plans
from repro.graph.passes.plans import CopyOp, native_copy
from repro.solvers import compile_solve, native, solve, sweeps
from repro.solvers.sweeps import native_sweep
from repro.sparse import distribute, poisson3d, sell
from repro.sparse.sell import native_spmv
from repro.sparse.suitesparse import g3_circuit_like
from repro.tensordsl import materialize
from repro.tensordsl.expression import (
    OP_KINDS,
    BinExpr,
    ConstExpr,
    ConvertExpr,
    Leaf,
    UnExpr,
)
from repro.tensordsl.materialize import (
    F32_OPS,
    OPS,
    assignment_evaluator,
    compile_expr,
    native_eval,
)
from repro.tensordsl.types import Type

# The random trees of every representation that the compiler's own property
# test draws.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tensordsl"))
from test_compile_expr import DTYPES, B, N  # noqa: E402
from test_compile_expr import _Var as AnyVar  # noqa: E402
from test_compile_expr import trees as any_trees  # noqa: E402

SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, 1e-41, -2e-39, 3e38, 1.0]


class _Var:
    """A float32 leaf: the attributes an expression reads off its variable."""

    dtype, batch, shape = Type.FLOAT32, 1, (1,)


VECTORS = [Leaf(_Var()) for _ in range(3)]
SCALARS = [Leaf(_Var()) for _ in range(2)]


def _same_bits(got, want) -> bool:
    """Equal bit for bit — signed zeros told apart — except that a NaN only
    has to be a NaN (its payload is whichever operand's the FPU kept)."""
    got, want = np.asarray(got), np.ascontiguousarray(want)
    nan, bits = np.isnan(got), f"u{got.dtype.itemsize}"
    return bool(got.dtype == want.dtype and np.array_equal(nan, np.isnan(want))
                and np.array_equal(got.view(bits)[~nan], want.view(bits)[~nan]))


def _awkward(rng, size: int) -> np.ndarray:
    out = rng.standard_normal(size) * 10.0 ** rng.integers(-3, 4, size)
    special = rng.random(size) < 0.15
    out[special] = rng.choice(SPECIAL, int(special.sum()))
    return out.astype(np.float32)


@st.composite
def trees(draw, depth=0):
    kinds = ["vector", "scalar", "const"]
    if depth < 5:
        kinds += ["unary", "binary", "binary", "compare", "convert"]
    kind = draw(st.sampled_from(kinds))
    if kind == "vector":
        return draw(st.sampled_from(VECTORS))
    if kind == "scalar":
        return draw(st.sampled_from(SCALARS))
    if kind == "const":
        return ConstExpr(draw(st.sampled_from(SPECIAL) | st.floats(-1e3, 1e3)))
    if kind == "convert":  # float32 to float32: the value itself
        return ConvertExpr(draw(trees(depth=depth + 1)), Type.FLOAT32)
    if kind == "unary":
        return UnExpr(draw(st.sampled_from(["neg", "abs", "sqrt"])), draw(trees(depth=depth + 1)))
    ops = ["+", "-", "*", "/"] if kind == "binary" else ["<", "<=", ">", ">=", "==", "!="]
    return BinExpr(draw(st.sampled_from(ops)), draw(trees(depth=depth + 1)),
                   draw(trees(depth=depth + 1)))


@st.composite
def segments(draw):
    """Equal or unequal segment lengths, 0-300 elements each."""
    length = st.one_of(st.integers(0, 12), st.sampled_from([7, 8, 9, 127, 128, 129, 200, 300]))
    if draw(st.booleans()):
        return [draw(length)] * draw(st.integers(1, 6))
    return draw(st.lists(length, min_size=1, max_size=6))


def _case(rng, expr, lengths):
    """The program's operands over ``lengths``: vectors, per-segment scalars
    gathered from a larger base, and numpy's value of ``expr``."""
    offsets = np.cumsum([0] + lengths)
    total, nseg = int(offsets[-1]), len(lengths)
    values = {id(leaf.var): _awkward(rng, total) for leaf in VECTORS}
    bases = {}
    for leaf in SCALARS:
        base = _awkward(rng, nseg + 3)
        at = rng.permutation(nseg + 3)[:nseg]
        bases[id(leaf.var)] = base, at
        values[id(leaf.var)] = np.repeat(base[at], lengths)
    with np.errstate(all="ignore"):
        value = np.broadcast_to(compile_expr(expr)(lambda leaf: values[id(leaf.var)]), total)
    return offsets, values, bases, value


def _sums(value, offsets) -> np.ndarray:
    """numpy's ``.sum()`` of each segment."""
    with np.errstate(all="ignore"):
        return np.array([value[a:b].sum() for a, b in zip(offsets[:-1], offsets[1:])],
                        dtype=np.float32)


def _numpy_ran():
    raise AssertionError("the numpy fallback ran")


def _run(program, offsets, values, bases, out, out_at=None):
    vectors, scalars = {}, {}
    for i, var in enumerate(program.leaves):
        if id(var) in bases:
            scalars[i] = bases[id(var)]
        else:
            vectors[i] = values[id(var)]

    program.bind(offsets, vectors, scalars, out, out_at, _numpy_ran)()


def _native_or_skip():
    if native_eval() is None:
        pytest.skip("no native evaluator")


@settings(max_examples=300, deadline=None)
@given(expr=trees(), lengths=segments(), reduce=st.booleans(), seed=st.integers(0, 2**16))
def test_native_evaluator_equals_compile_expr_bitwise(expr, lengths, reduce, seed):
    """Property: random float32 trees of every opcode over vectors,
    per-segment scalars and constants, on equal and unequal segments of
    0-300 elements, with ±0.0 / ±inf / NaN / subnormals: the native call
    writes numpy's value element by element, or numpy's ``.sum()`` of each
    segment, by ``view(np.uint32)``."""
    _native_or_skip()
    rng = np.random.default_rng(seed)
    offsets, values, bases, value = _case(rng, expr, lengths)
    program = compile_expr(expr)
    if reduce:
        out = np.full(len(lengths) + 2, 7.0, dtype=np.float32)
        out_at = rng.permutation(out.size)[: len(lengths)]
        _run(program, offsets, values, bases, out, out_at)
        assert _same_bits(out[out_at], _sums(value, offsets))
    else:
        out = np.empty(value.size, dtype=np.float32)
        _run(program, offsets, values, bases, out)
        assert _same_bits(out, value)


def test_the_opcodes_are_a_copy_and_every_expression_op():
    """A new expression op fails here until the evaluator has it; the
    opcodes only numpy runs come after ``native.c``'s."""
    assert F32_OPS[0] == "copy" and sorted(F32_OPS[1:]) == sorted(OP_KINDS)
    assert OPS[: len(F32_OPS)] == F32_OPS and len(set(OPS)) == len(OPS)


def test_out_may_be_the_vector_it_updates():
    """``x = x + alpha * p`` over unequal segments, ``out`` the ``x``
    buffer itself: each block reads before it writes."""
    _native_or_skip()
    x, p = VECTORS[:2]
    alpha = SCALARS[0]
    expr = BinExpr("+", x, BinExpr("*", alpha, p))
    rng = np.random.default_rng(5)
    offsets, values, bases, value = _case(rng, expr, [300, 0, 1, 1100, 129])
    want = value.copy()
    _run(compile_expr(expr), offsets, values, bases, values[id(x.var)])
    assert _same_bits(values[id(x.var)], want)


def test_a_tree_deeper_than_any_solver_emits():
    """A right-leaning chain of 150 levels whose left operands are products:
    every product stays live while the rest of the chain is evaluated, so
    the program needs 150 temporaries at once."""
    _native_or_skip()
    v0, v1, v2 = VECTORS
    expr = v2
    for k in range(150):
        expr = BinExpr("+" if k % 2 else "-", BinExpr("*", v0, v1 if k % 3 else SCALARS[0]), expr)
    rng = np.random.default_rng(6)
    offsets, values, bases, value = _case(rng, expr, [3, 500, 77])
    program = compile_expr(expr)
    seg = [i for i, var in enumerate(program.leaves) if id(var) in bases]
    vecs = [i for i in range(len(program.leaves)) if i not in seg]
    assert program._schedule(vecs, seg, False)[2] >= 150  # temporaries
    for out_at in (None, np.arange(3)):
        out = np.empty(value.size if out_at is None else 3, dtype=np.float32)
        _run(program, offsets, values, bases, out, out_at)
        assert _same_bits(out, value if out_at is None else _sums(value, offsets))


def _nodes(expr):
    yield expr
    for child in (getattr(expr, name, None) for name in ("operand", "left", "right")):
        if child is not None:
            yield from _nodes(child)


DW = Leaf(type("DwVar", (_Var,), {"dtype": Type.DOUBLEWORD})())
WIDE = Leaf(type("WideVar", (_Var,), {"batch": 3})())


OUT_VARS = st.builds(AnyVar, st.sampled_from(DTYPES), st.just(False), st.sampled_from([1, B]))


@settings(max_examples=300, deadline=None)
@given(tree=any_trees() | trees(), out=st.none() | OUT_VARS, seed=st.integers(0, 2**16))
@example(tree=BinExpr("+", VECTORS[0], ConstExpr(1.0)), out=None, seed=0)
@example(tree=BinExpr("+", VECTORS[0], ConvertExpr(DW, Type.FLOAT32)), out=None, seed=0)
@example(tree=BinExpr("*", VECTORS[0], WIDE), out=None, seed=0)
@example(tree=BinExpr("<", VECTORS[0], DW), out=None, seed=0)
@example(tree=BinExpr("+", VECTORS[0], ConstExpr(1.0, Type.FLOAT64)), out=None, seed=0)
@example(tree=VECTORS[0], out=DW.var, seed=0)
def test_only_trees_with_one_rhs_bind(tree, out, seed):
    """Property over the random f32 / dw / f64, batched and unbatched trees
    of ``tests/tensordsl/test_compile_expr.py`` and the float32 trees
    above — alone, or assigned into a variable of any representation: a
    program binds exactly when every node (and the variable) has one RHS —
    to the float32 evaluator when every node is float32 too, else to the
    double-word evaluator — and then its entry writes the numpy
    interpreter's value bit for bit; any other program raises
    ``TypeError``, whatever buffers it is given."""
    with np.errstate(all="ignore"):  # constants are rounded at compile time
        program = compile_expr(tree) if out is None else assignment_evaluator(tree, out)
    nodes = [*_nodes(tree), *([] if out is None else [out])]
    native_ = all(node.batch == 1 for node in nodes)
    f32 = native_ and all(node.dtype == Type.FLOAT32 for node in nodes)
    assert (program.native, program.f32) == (native_, f32)
    rng = np.random.default_rng(seed)
    buffers = {id(var): _awkward(rng, 1 if var.shape == () else N) for var in program.leaves}
    if not native_:
        vectors = {i: buffers[id(var)] for i, var in enumerate(program.leaves)}
        with pytest.raises(TypeError, match="every node has one RHS"):
            program.bind([0, N], vectors, {}, np.empty(N, np.float32))
        return
    resolved = {}
    for i, var in enumerate(program.leaves):
        value = buffers[id(var)]
        if var.dtype == Type.DOUBLEWORD:
            value = (value, _awkward(rng, value.size) * np.float32(2.0**-30))
        elif var.dtype == Type.FLOAT64:
            value = value.astype(np.float64)
        resolved[i] = value
    vectors, scalars = {}, {}
    for i, var in enumerate(program.leaves):
        if var.shape == ():
            scalars[i] = resolved[i], np.zeros(1, np.int64)
        else:
            vectors[i] = resolved[i]
    with np.errstate(all="ignore"):
        value = program(lambda leaf: resolved[program.leaves.index(leaf.var)])
    want = [np.broadcast_to(part, N) for part in (value if isinstance(value, tuple)
                                                  else (value,))]
    got = [np.empty(N, part.dtype) for part in want]
    runner = native_eval() if f32 else materialize.native_dw_eval()

    def numpy_form():
        for g, w in zip(got, want):
            g[...] = w

    program.bind([0, N], vectors, scalars, got[0] if len(got) == 1 else tuple(got),
                 fallback=_numpy_ran if runner is not None else numpy_form)()
    for g, w in zip(got, want):
        assert _same_bits(g, w)


def test_bind_refuses_buffers_the_call_cannot_take():
    program = compile_expr(BinExpr("+", VECTORS[0], SCALARS[0]))
    v, base = np.ones(4, np.float32), np.ones(2, np.float32)
    offsets, at = np.array([0, 1, 4]), np.array([0, 1])
    program.bind(offsets, {0: v}, {1: (base, at)}, np.empty(4, np.float32))
    with pytest.raises(TypeError, match="vector must be a C-contiguous 1-D float32"):
        program.bind(offsets, {0: v.astype(np.float64)}, {1: (base, at)}, v.copy())
    with pytest.raises(TypeError, match="out must be"):
        program.bind(offsets, {0: v}, {1: (base, at)}, np.empty(8, np.float32)[::2])
    shifted = np.ones(5, np.float32)
    with pytest.raises(ValueError, match="overlaps out other than element for element"):
        program.bind(offsets, {0: shifted[:4]}, {1: (base, at)}, shifted[1:])
    with pytest.raises(ValueError, match="overlaps out other than element for element"):
        program.bind(offsets, {0: v}, {1: (base, at)}, v, np.arange(2))
    with pytest.raises(ValueError, match="indexed out of range"):
        program.bind(offsets, {0: v}, {1: (base, np.array([0, 2]))}, v)
    with pytest.raises(ValueError, match="segment offsets"):
        program.bind(np.array([0, 3, 2, 4]), {0: v}, {1: (base, np.arange(3))}, v)
    with pytest.raises(ValueError, match="every leaf"):
        program.bind(offsets, {0: v}, {}, v)


def test_the_native_kernels_are_in_use_wherever_a_compiler_is():
    """A broken toolchain fails here instead of silently losing the gain:
    the evaluator and the copy resolve, and every float32 elementwise and
    sum group of a Fig. 5-shaped CG lowers to one evaluator entry of its
    kernel's table."""
    if shutil.which("cc") is None:
        pytest.skip("no C compiler")
    assert native_eval() is not None and native_copy() is not None
    crs, dims = poisson3d(8)
    compiled = compile_solve(crs, np.ones(crs.n, np.float32), CG, grid_dims=dims,
                             num_ipus=2, tiles_per_ipu=8)
    groups = native_ops = 0
    for kernel in compiled.kernels.kernels:
        native_ops += sum(entry.kind == native.EVAL for call in kernel.calls
                          if isinstance(call, native.Table) for entry in call.entries)
        for plan in kernel.plans:
            for g in getattr(getattr(plan, "compute_set", None), "groups", ()):
                groups += isinstance(g.spec, (ElementwiseSpec, ReduceSpec)) and not g.cost_only
    assert groups > 20 and native_ops == groups


def test_the_self_check_is_fast_and_catches_a_wrong_kernel():
    """Every process runs the self-check on its first evaluator call: it
    must stay under a millisecond, and a kernel off in one element of one
    segment sum must fail it."""
    kernel = native_eval()
    if kernel is None:
        pytest.skip("no native evaluator")
    times = []
    for _ in range(10):
        start = time.perf_counter()
        assert materialize._self_check(kernel) is None
        times.append(time.perf_counter() - start)
    assert min(times) < 1e-3, f"self-check takes {min(times) * 1e3:.2f} ms"

    def one_sum_off(n, table):
        kernel(n, table)
        row = (ctypes.c_int64 * 11).from_address(table)  # kind, then the ten arguments
        if row[10]:  # a sum (out_at given): segment 0 is empty, its sum +0.0
            ctypes.c_uint32.from_address(row[9]).value ^= 1

    assert materialize._self_check(one_sum_off).startswith("self-check: sum 0 of program 0")


CG = {"solver": "cg", "tol": 1e-6}
MPIR_FIG8 = {"solver": "mpir", "precision": "dw", "tol": 1e-9, "max_outer": 12,
             "inner": {"solver": "bicgstab", "fixed_iterations": 50, "tol": 2e-7,
                       "record_history": False, "preconditioner": {"solver": "ilu0"}}}


def _solves():
    """A Fig. 5-shaped fused CG (``poisson3d:12`` on 2 x 16 tiles) and an
    ``mpir_ilu_g3``-shaped solve (the Fig. 8 config on a g3 double, 16
    tiles)."""
    crs, dims = poisson3d(12)
    b = np.random.default_rng(8).standard_normal(crs.n).astype(np.float32)
    g3 = g3_circuit_like(grid=16)
    b3 = g3.spmv(np.random.default_rng(3).standard_normal(g3.n)).astype(np.float32)
    return (solve(crs, b, CG, grid_dims=dims, num_ipus=2, tiles_per_ipu=16, backend="fused"),
            solve(g3, b3, MPIR_FIG8, num_ipus=1, tiles_per_ipu=16, backend="sim"))


#: Per kind: the module and name of its self-check, its resolver, and the
#: warning it gives when forced off.
KINDS = {
    native.EVAL: (materialize, "_self_check", native_eval,
                  "native expression evaluator unavailable, running the numpy expression "
                  "trees: forced off"),
    native.COPY: (plans, "_copy_self_check", native_copy,
                  "native indexed copy unavailable, running numpy indexing: forced off"),
    native.SPMV: (sell, "_self_check", native_spmv,
                  "native SpMV unavailable, running the slot-major numpy SpMV: forced off"),
    native.SWEEP: (sweeps, "_self_check", native_sweep,
                   "native sweep unavailable, running the numpy level loop: forced off"),
    native.DWEVAL: (materialize, "_dw_self_check", materialize.native_dw_eval,
                    "native double-word evaluator unavailable, running the numpy double-word "
                    "trees: forced off"),
    native.XSPMV: (distribute, "_xspmv_self_check", distribute.native_xspmv,
                   "native extended SpMV unavailable, running the binary64 numpy SpMV: "
                   "forced off"),
}


@pytest.fixture(scope="module")
def reference():
    return _solves()


def _launch_calls(result) -> list:
    """Per kernel of a solve's program that does anything: ``(native
    calls, numpy calls)`` one launch makes."""
    counts = []
    for kernel in result.compiled.kernels.kernels:
        if kernel.ops:
            tables = sum(isinstance(call, native.Table) for call in kernel.calls)
            counts.append((tables, len(kernel.calls) - tables))
    return counts


def test_a_kernel_launch_makes_one_native_call_per_run_of_entries(reference):
    """What was realized: every kernel of the Fig. 5-shaped CG, and every
    kernel of the ``mpir_ilu_g3``-shaped solve — its inner loop (PBiCGStab
    + ILU(0) sweeps) and its double-word outer step alike — launches as
    exactly one native call."""
    if shutil.which("cc") is None:
        pytest.skip("no C compiler")
    cg, mpir = (_launch_calls(result) for result in reference)
    assert len(cg) >= 2 and cg == [(1, 0)] * len(cg)
    assert len(mpir) >= 4 and mpir == [(1, 0)] * len(mpir)


@pytest.mark.parametrize("off", [*KINDS, "library"],
                         ids=["evaluator", "copy", "spmv", "sweep", "dw-evaluator",
                              "extended-spmv", "library"])
def test_solves_without_a_kind_are_bit_identical(monkeypatch, reference, off):
    """With one kind's self-check failing — or the loader forced to report
    no library, every kind — that kind's numpy form runs, after exactly one
    RuntimeWarning per kind saying why, its entries are out of every table,
    and both solves match the native ones bit for bit: ``x``, residual
    history, modeled cycles."""
    kinds = list(KINDS) if off == "library" else [off]
    if off == "library":
        monkeypatch.setattr(native, "load", lambda: (None, "forced off"))
    else:
        module, check = KINDS[off][:2]
        monkeypatch.setattr(module, check, lambda run: "forced off")
    for kind in kinds:
        KINDS[kind][2].cache_clear()
    try:
        with pytest.warns(RuntimeWarning) as caught:
            fallback = _solves()
    finally:
        for kind in kinds:
            KINDS[kind][2].cache_clear()
    assert sorted(str(w.message) for w in caught) == sorted(KINDS[k][3] for k in kinds)
    for want, got in zip(reference, fallback):
        assert want.failure is None
        assert want.x.tobytes() == got.x.tobytes()
        assert want.stats.residuals == got.stats.residuals
        assert want.cycles == got.cycles
        for kernel in got.compiled.kernels.kernels:
            assert not any(entry.kind in kinds for call in kernel.calls
                           if isinstance(call, native.Table) for entry in call.entries)


def test_a_bound_copy_is_the_numpy_copy():
    """Gathers, scatters, both-indexed and slice-to-slice copies between
    float32 buffers are native entries and move numpy's bits, a
    double-word copy one entry per half; a same-buffer copy that reads an
    element it writes and a float64 buffer stay numpy."""
    rng = np.random.default_rng(9)
    src = _awkward(rng, 300)
    gather, scatter = rng.permutation(300)[:120], rng.permutation(200)[:120]
    for si, di in ((gather, slice(40, 160)), (slice(7, 127), scatter), (gather, scatter),
                   (slice(100, 220), slice(3, 123))):
        want = np.zeros(200, np.float32)
        want[di] = src[si]
        op = CopyOp(src, np.zeros(200, np.float32), si, di)
        run = op.bind()
        assert isinstance(run, native.Entry) and run.kind == native.COPY
        run()
        assert op.dst.view(np.uint32).tolist() == want.view(np.uint32).tolist()
    lo = _awkward(rng, 300)
    dw = CopyOp(src, np.zeros(200, np.float32), gather, scatter, lo, np.zeros(200, np.float32))
    halves = dw.bind()
    assert [entry.kind for entry in halves.parts] == [native.COPY, native.COPY]
    halves()
    for got, half in ((dw.dst, src), (dw.dst_lo, lo)):
        want = np.zeros(200, np.float32)
        want[scatter] = half[gather]
        assert got.view(np.uint32).tolist() == want.view(np.uint32).tolist()
    buf = np.arange(10, dtype=np.float32)
    stays = [CopyOp(buf, buf, np.array([0, 1, 2]), np.array([1, 2, 3])),
             CopyOp(src.astype(np.float64), np.zeros(200), gather, scatter)]
    for op in stays:
        assert op.bind() == op.apply
    disjoint = CopyOp(buf, buf, np.array([0, 1]), np.array([5, 6])).bind()
    disjoint()
    assert buf[[5, 6]].tolist() == [0.0, 1.0]
