"""Native tables: a fused kernel's native ops run by one ``repro_run`` call.

``repro.solvers.native.fold`` packs consecutive entries — evaluator, copy,
SpMV and sweep — into one table.  The property here is that a table of
random entries over shared float32 buffers, where later entries read what
earlier ones wrote, equals the same ops run one by one through their numpy
forms, bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.passes.plans import CopyOp, native_copy
from repro.solvers import native
from repro.solvers.gauss_seidel import GaussSeidel
from repro.solvers.ilu import DILU, ILU0
from repro.solvers.sweeps import build_sweep, native_sweep
from repro.sparse.sell import DeviceSpmv, native_spmv
from repro.tensordsl.expression import BinExpr, ConstExpr, Leaf, UnExpr
from repro.tensordsl.materialize import compile_expr, native_eval
from repro.tensordsl.types import Type

#: Segments of the pool's vectors: an empty one, short ones and one past
#: numpy's 128-element pairwise block.
LENGTHS = [0, 9, 1, 131, 10]
N = sum(LENGTHS)
OFFSETS = np.cumsum([0] + LENGTHS)
HALO = 5
VECTORS = 4


class _Var:
    """A float32 leaf: the attributes an expression reads off its variable."""

    dtype, batch, shape = Type.FLOAT32, 1, (1,)


def _structures():
    """Matrices and sweep plans shared by every case (their scratch is
    reused entry after entry, as in a kernel)."""
    rng = np.random.default_rng(35)
    lengths = rng.choice([0, 1, 3, 8, 9, 130], N, p=[0.1, 0.3, 0.3, 0.15, 0.1, 0.05])
    row_ptr = np.concatenate([[0], np.cumsum(lengths)])
    cols = rng.integers(0, N + HALO, row_ptr[-1])
    vals = rng.standard_normal(cols.size).astype(np.float32) * 0.1
    diag = rng.uniform(1.0, 4.0, N).astype(np.float32)
    spmv = DeviceSpmv(row_ptr, cols, vals, diag, HALO)
    local = cols % N
    lower = build_sweep(N, row_ptr, local, vals, include=lambda r, c: c < r)
    upper = build_sweep(N, row_ptr, local, vals, include=lambda r, c: c > r, backward=True)
    gs = build_sweep(N, row_ptr, cols, vals, include=lambda r, c: np.ones(r.size, bool))
    return spmv, lower, upper, gs, diag


SPMV, LOWER, UPPER, GS, DIAG = _structures()


def _pool(seed: int) -> dict:
    """The shared buffers: vectors ``v0..v3`` with double-word lo halves,
    two per-segment scalar bases ``s0``/``s1``, a halo, ILU work and a GS
    ``[x | halo]`` scratch."""
    rng = np.random.default_rng(seed)

    def draw(size):
        out = (rng.standard_normal(size) * 10.0 ** rng.integers(-1, 2, size)).astype(np.float32)
        out[rng.random(size) < 0.05] = -0.0
        return out

    pool = {f"v{k}": draw(N) for k in range(VECTORS)}
    pool.update({f"lo{k}": draw(N) for k in range(VECTORS)})
    pool.update(s0=draw(8), s1=draw(8), halo=draw(HALO), work=draw(N), xfull=draw(N + HALO))
    return pool


# -- ops: a spec drawn once, bound to each pool ---------------------------------------------

@st.composite
def _trees(draw, scalar_base: str, depth: int = 0):
    """A float32 tree over the vectors, per-segment scalars read from
    ``scalar_base`` and constants, without ops that make a NaN."""
    kinds = ["vector", "vector", "scalar", "const"]
    if depth < 3:
        kinds += ["unary", "binary", "binary", "compare"]
    kind = draw(st.sampled_from(kinds))
    if kind == "vector":
        return ("vector", draw(st.integers(0, VECTORS - 1)))
    if kind == "scalar":
        return ("scalar", scalar_base, draw(st.lists(st.integers(0, 7), min_size=len(LENGTHS),
                                                    max_size=len(LENGTHS))))
    if kind == "const":
        return ("const", draw(st.sampled_from([0.0, -0.0, 0.5, -3.0, 1e3])))
    if kind == "unary":
        return ("unary", draw(st.sampled_from(["neg", "abs"])),
                draw(_trees(scalar_base, depth + 1)))
    ops = ["+", "-", "*"] if kind == "binary" else ["<", "<=", ">=", "==", "!="]
    return ("binary", draw(st.sampled_from(ops)), draw(_trees(scalar_base, depth + 1)),
            draw(_trees(scalar_base, depth + 1)))


def _expr(tree, pool, leaves):
    """``tree`` as an expression; ``leaves`` collects each leaf's buffer:
    a vector, or a per-segment scalar ``(base, at)``."""
    kind = tree[0]
    if kind in ("vector", "scalar"):
        leaf = Leaf(_Var())
        if kind == "vector":
            leaves[id(leaf.var)] = pool[f"v{tree[1]}"]
        else:
            leaves[id(leaf.var)] = (pool[tree[1]], np.array(tree[2]))
        return leaf
    if kind == "const":
        return ConstExpr(tree[1])
    if kind == "unary":
        return UnExpr(tree[1], _expr(tree[2], pool, leaves))
    return BinExpr(tree[1], _expr(tree[2], pool, leaves), _expr(tree[3], pool, leaves))


def _bind_expr(expr, leaves, out, out_at=None):
    """The evaluator entry of ``expr`` into ``out`` (per-segment sums at
    ``out_at``), its fallback the program's numpy interpreter with the
    scalars repeated over the segments — the numpy form the fused kernels
    run."""
    program = compile_expr(expr)
    vectors, scalars = {}, {}
    for i, var in enumerate(program.leaves):
        source = leaves[id(var)]
        (scalars if isinstance(source, tuple) else vectors)[i] = source

    def numpy_form():
        def resolve(leaf):
            source = leaves[id(leaf.var)]
            if isinstance(source, tuple):
                return np.repeat(source[0][source[1]], LENGTHS)
            return source

        value = np.broadcast_to(program(resolve), N)
        if out_at is None:
            out[...] = value
        else:
            out[out_at] = [value[a:b].sum(dtype=np.float32)
                           for a, b in zip(OFFSETS[:-1], OFFSETS[1:])]

    return program.bind(OFFSETS, vectors, scalars, out, out_at, numpy_form)


def _index(rng, size: int, kind: str, count: int):
    """A copy side of ``count`` elements out of ``size``: a slice or an
    int64 index array."""
    if kind == "slice":
        start = int(rng.integers(0, size - count + 1))
        return slice(start, start + count)
    return rng.permutation(size)[:count].astype(np.int64)


def _bind(spec, pool):
    """One op of ``spec`` over ``pool``, bound: an entry or a chain."""
    kind = spec[0]
    if kind == "axpy":  # x = x + alpha * p, out the x buffer itself
        _, x, p, base, at = spec
        leaves = {}
        X, P, alpha = Leaf(_Var()), Leaf(_Var()), Leaf(_Var())
        leaves.update({id(X.var): pool[f"v{x}"], id(P.var): pool[f"v{p}"],
                       id(alpha.var): (pool[base], np.array(at))})
        return _bind_expr(BinExpr("+", X, BinExpr("*", alpha, P)), leaves, pool[f"v{x}"])
    if kind == "assign":
        _, tree, out = spec
        leaves = {}
        return _bind_expr(_expr(tree, pool, leaves), leaves, pool[f"v{out}"])
    if kind == "sum":
        _, tree, target, out_at = spec
        leaves = {}
        return _bind_expr(_expr(tree, pool, leaves), leaves, pool[target], np.array(out_at))
    if kind == "copy":
        _, src, dst, sides, paired, seed = spec
        rng = np.random.default_rng(seed)
        count = int(rng.integers(1, N))
        si, di = (_index(rng, N, side, count) for side in sides)
        lo = (pool[f"lo{src}"], pool[f"lo{dst}"]) if paired else (None, None)
        return CopyOp(pool[f"v{src}"], pool[f"v{dst}"], si, di, *lo).bind()
    if kind == "spmv":
        _, x, y = spec
        return SPMV.bind(pool[f"v{x}"], pool["halo"], pool[f"v{y}"])
    # A solver's device body: ILU(0), DILU or a Gauss-Seidel sweep.
    _, body, rhs, out = spec
    rhs, out = pool[f"v{rhs}"], pool[f"v{out}"]
    if body == "gs":
        state = {"plan": GS, "diag": DIAG, "xfull": pool["xfull"]}
        return native.Chain(GaussSeidel._sweep(state, rhs, out, pool["halo"]))
    state = {"fwd": LOWER, "bwd": UPPER, "diag": DIAG, "work": pool["work"]}
    return native.Chain((ILU0 if body == "ilu0" else DILU)._substitute(state, rhs, out))


@st.composite
def _specs(draw):
    vector = st.integers(0, VECTORS - 1)
    kind = draw(st.sampled_from(["axpy", "assign", "sum", "copy", "spmv", "sweep"]))
    if kind == "axpy":
        return ("axpy", draw(vector), draw(vector), draw(st.sampled_from(["s0", "s1"])),
                draw(st.lists(st.integers(0, 7), min_size=len(LENGTHS), max_size=len(LENGTHS))))
    if kind == "assign":
        return ("assign", draw(_trees(draw(st.sampled_from(["s0", "s1"])))), draw(vector))
    if kind == "sum":  # into one scalar base, reading the other
        target = draw(st.sampled_from(["s0", "s1"]))
        tree = draw(_trees("s1" if target == "s0" else "s0"))
        out_at = draw(st.permutations(range(8)))[: len(LENGTHS)]
        return ("sum", tree, target, out_at)
    if kind == "copy":
        src, dst = draw(st.lists(vector, min_size=2, max_size=2, unique=True))
        sides = draw(st.tuples(*[st.sampled_from(["slice", "index"])] * 2))
        return ("copy", src, dst, sides, draw(st.booleans()), draw(st.integers(0, 2**16)))
    x, y = draw(st.lists(vector, min_size=2, max_size=2, unique=True))
    if kind == "spmv":
        return ("spmv", x, y)
    return ("sweep", draw(st.sampled_from(["ilu0", "dilu", "gs"])), x, y)


def _native_or_skip():
    if None in (native_eval(), native_copy(), native_spmv(), native_sweep()):
        pytest.skip("no native library")


@settings(max_examples=150, deadline=None)
@given(specs=st.lists(_specs(), min_size=1, max_size=8), seed=st.integers(0, 2**16))
def test_a_table_equals_its_ops_run_one_by_one_in_numpy(specs, seed):
    """Property: random sequences of evaluator (elementwise, ``.sum()`` per
    segment, ``x = x + alpha * p`` into ``x``), copy (indexed, slice,
    double-word halves), SpMV and ILU(0) / DILU / Gauss-Seidel entries over
    shared buffers — each reading what the ones before it wrote — folded
    into one table and run by one call, leave every buffer as the numpy
    forms run one by one do, by ``view(np.uint32)``."""
    _native_or_skip()
    table, numpy = _pool(seed), _pool(seed)
    ops = [_bind(spec, table) for spec in specs]
    calls = native.fold(ops)
    assert len(calls) == 1 and isinstance(calls[0], native.Table)
    assert len(calls[0].entries) == len(native.Chain(ops).parts)
    calls[0]()
    for part in native.Chain(_bind(spec, numpy) for spec in specs).parts:
        part.fallback()
    for name, got in table.items():
        assert got.view(np.uint32).tolist() == numpy[name].view(np.uint32).tolist(), name


def test_a_kind_that_does_not_resolve_splits_the_table(monkeypatch):
    """An entry whose kind has no runner runs its numpy form in its place,
    between two tables; a numpy callable splits them the same way."""
    _native_or_skip()
    pool = _pool(1)
    copy = CopyOp(pool["v0"], pool["v1"], slice(0, 5), slice(5, 10)).bind()
    spmv = SPMV.bind(pool["v1"], pool["halo"], pool["v2"])
    step = native.Chain([copy, spmv, copy])
    assert [type(c) for c in native.fold([step])] == [native.Table]
    monkeypatch.setattr(spmv, "resolve", lambda: None)
    calls = native.fold([step])
    assert [type(c) for c in calls] == [native.Table, type(spmv.fallback), native.Table]
    assert calls[1] is spmv.fallback

    def numpy_op():
        pass

    assert [type(c) for c in native.fold([copy, numpy_op, copy])] == \
        [native.Table, type(numpy_op), native.Table]


def test_an_entry_checks_its_argument_count():
    with pytest.raises(ValueError, match="takes 5 arguments"):
        native.Entry(native.COPY, (1, 2, 3), (), None, native_copy)
