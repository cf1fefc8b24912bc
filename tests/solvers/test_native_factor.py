"""The build-time native kinds: a tile's ILU(0) / DILU factorization
(``repro_factor_f32``) and a sweep's dependency levels (``repro_levels``)
against their Python loops, bit for bit."""

import ctypes
import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FactorizationError
from repro.solvers import ilu, native, solve
from repro.solvers.sweeps import build_sweep
from repro.sparse import levelset, poisson2d
from repro.sparse.levelset import dependency_levels, level_schedule


def _same_bits(a, b) -> bool:
    """Bitwise equality; two NaNs match whatever their payloads."""
    a, b = np.asarray(a, np.float32), np.asarray(b, np.float32)
    return bool(((a.view(np.uint32) == b.view(np.uint32)) | (np.isnan(a) & np.isnan(b))).all())


def _outcome(run):
    """What a factorization gives: its float32 results and flop count, or
    the error it raises (message, tile, row)."""
    try:
        with np.errstate(all="ignore"):
            return ("ok", *run())
    except FactorizationError as exc:
        return ("error", str(exc), exc.solver, exc.tile, exc.row)


def _oracle(solver, block, tile):
    def run():
        result = ilu._ORACLES[solver](*block, tile)
        unchanged = np.asarray(block[3], np.float32)
        return (result[0] if solver == "ilu0" else unchanged, result[-2], result[-1])
    return _outcome(run)


def _assert_same(got, want):
    assert got[0] == want[0], (got, want)
    if got[0] == "error":
        assert got == want
    else:
        assert _same_bits(got[1], want[1]) and _same_bits(got[2], want[2])
        assert got[3] == want[3]


@st.composite
def local_block(draw):
    """One tile's random local block ``(n, row_ptr, col_idx, values,
    diag)``: rows of 0-8 entries over ``[owned | halo]`` columns in any
    order, a column repeated within a row now and then, rows with only
    lower or only upper entries, half the blocks made structurally
    symmetric, and float32 values whose magnitudes span a few decades or
    1e-30 to 1e30, with signed zeros and subnormals."""
    n = draw(st.integers(0, 14))
    halo = draw(st.integers(0, 3))
    rows = []
    for i in range(n):
        kind = draw(st.sampled_from(["any", "lower", "upper", "empty"]))
        pool = {"any": range(n + halo), "lower": range(i), "upper": range(i + 1, n + halo),
                "empty": range(0)}[kind]
        size = draw(st.integers(0, min(8, len(pool)))) if len(pool) else 0
        cols = draw(st.permutations(list(pool)))[:size] if size else []
        if cols and draw(st.integers(0, 4)) == 0:
            cols = cols + [cols[0]]  # a repeated column: the last entry holds the dict's value
        rows.append(cols)
    if draw(st.booleans()):  # structurally symmetric, as the solvers' matrices are
        for i in range(n):
            for c in list(rows[i]):
                if c < n and i not in rows[c]:
                    rows[c].append(i)
    nnz = sum(len(r) for r in rows)
    low, high = draw(st.sampled_from([(-2, 2), (-30, 30)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    values = rng.choice([-1.0, 1.0], nnz) * 10.0 ** rng.uniform(low, high, nnz)
    values[rng.random(nnz) < 0.05] = rng.choice([0.0, -0.0, 1e-40, -3e-43, 1e-45])
    diag = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(max(low, 0), high + 1, n)
    ptr = np.concatenate([[0], np.cumsum([len(r) for r in rows])]).astype(np.int64)
    cols = np.array([c for r in rows for c in r], dtype=np.int64)
    return n, ptr, cols, values.astype(np.float32), diag.astype(np.float32)


@settings(max_examples=200, deadline=None)
@given(block=local_block(), solver=st.sampled_from(["ilu0", "dilu"]), tile=st.integers(0, 5))
def test_native_factor_equals_the_python_loop_bitwise(block, solver, tile):
    got = _outcome(lambda: ilu.factor(solver, *block, tile))
    _assert_same(got, _oracle(solver, block, tile))


def _two_by_two(off, pivots):
    return 2, np.array([0, 1, 2]), np.array([1, 0]), np.array(off, np.float32), \
        np.array(pivots, np.float32)


BAD_PIVOTS = {
    "zero first": _two_by_two((1.0, 1.0), (0.0, 1.0)),
    "zero second": _two_by_two((1.0, 1.0), (1.0, 1.0)),
    "negative zero second": _two_by_two((0.0, 0.0), (1.0, -0.0)),
    "+inf": _two_by_two((-1e30, 1e30), (1e-30, 1.0)),
    "-inf": _two_by_two((1e30, 1e30), (1e-30, 1.0)),
    "nan": _two_by_two((np.nan, 1.0), (1.0, 1.0)),
    "inf first": _two_by_two((1.0, 1.0), (np.inf, 1.0)),
}


@pytest.mark.parametrize("solver", ["ilu0", "dilu"])
@pytest.mark.parametrize("case", sorted(BAD_PIVOTS))
def test_a_bad_pivot_raises_the_same_error_from_c_and_from_the_fallback(
        monkeypatch, solver, case):
    block = BAD_PIVOTS[case]
    native_error = _outcome(lambda: ilu.factor(solver, *block, 3))
    monkeypatch.setattr(ilu, "native_factor", lambda: None)
    fallback_error = _outcome(lambda: ilu.factor(solver, *block, 3))
    assert native_error[0] == "error", native_error
    assert native_error == fallback_error == _oracle(solver, block, 3)
    assert native_error[2:] == (solver, 3, native_error[4])


def _old_levels(n, dep_rows, dep_cols, backward):
    """``_levels_directional`` as it stood in ``solvers/sweeps.py`` before
    it had a native form."""
    level_of = np.zeros(n, dtype=np.int64)
    order = np.argsort(dep_rows, kind="stable")
    dr, dc = dep_rows[order], dep_cols[order]
    ptr = np.searchsorted(dr, np.arange(n + 1))
    for i in (range(n - 1, -1, -1) if backward else range(n)):
        cols = dc[ptr[i] : ptr[i + 1]]
        if cols.size:
            level_of[i] = level_of[cols].max() + 1
    return level_of


def _old_level_schedule(row_ptr, col_idx, n):
    """``level_schedule``'s loop as it stood before it shared the levels."""
    level_of = np.zeros(n, dtype=np.int64)
    for i in range(n):
        cols = col_idx[row_ptr[i] : row_ptr[i + 1]]
        lower = cols[cols < i]
        if lower.size:
            level_of[i] = level_of[lower].max() + 1
    return level_of


@st.composite
def dependencies(draw):
    """``(n, rows, cols, backward)``: each row depends on 0-6 rows on the
    side its direction reads (repeats allowed), edges in any order."""
    n = draw(st.integers(0, 40))
    backward = draw(st.booleans())
    rows, cols = [], []
    for i in range(n):
        lo, hi = (i + 1, n) if backward else (0, i)
        if hi > lo:
            deps = draw(st.lists(st.integers(lo, hi - 1), max_size=6))
            rows += [i] * len(deps)
            cols += deps
    order = draw(st.permutations(range(len(rows))))
    return (n, np.array(rows, np.int64)[list(order)], np.array(cols, np.int64)[list(order)],
            backward)


@settings(max_examples=200, deadline=None)
@given(dependencies())
def test_levels_equal_the_old_loop_forward_and_backward(deps):
    n, rows, cols, backward = deps
    assert np.array_equal(dependency_levels(n, rows, cols, backward),
                          _old_levels(n, rows, cols, backward))


@settings(max_examples=50, deadline=None)
@given(block=local_block())
def test_level_schedule_and_sweeps_keep_their_old_levels(block):
    n, ptr, cols = block[:3]
    local = np.minimum(cols, max(n - 1, 0))  # level_schedule reads owned columns only
    want = _old_level_schedule(ptr, local, n)
    sched = level_schedule(ptr, local, n)
    assert sched.n == n and sum(lv.size for lv in sched.levels) == n
    for k, rows in enumerate(sched.levels):
        assert (want[rows] == k).all() and (np.diff(rows) > 0).all()
    fwd = build_sweep(n, ptr, cols, block[3], include=lambda r, c: (c < r) & (c < n))
    want = _old_level_schedule(ptr, np.where(cols < n, cols, n), n)  # halo columns: no deps
    for k, rows in enumerate(fwd.schedule.levels):
        assert (want[rows] == k).all()


def test_the_native_kinds_are_in_use_wherever_a_compiler_is():
    """A broken toolchain fails here instead of silently losing the gain."""
    assert shutil.which("cc") is None or (
        ilu.native_factor() is not None and levelset.native_levels() is not None)


def test_the_load_time_checks_stay_small():
    """Every process runs both self-checks on its first ILU / DILU / sweep
    build: their cases are bounded by size (a wall-clock gate would flap
    on a loaded host)."""
    blocks = ilu._check_blocks()
    assert sum(b[0] for b in blocks) <= 64 and sum(b[2].size for b in blocks) <= 256
    assert levelset.CHECK_ROWS * levelset.CHECK_DEPS <= 256
    # The two complete blocks factor without a bad pivot under both
    # solvers, so their every row reaches the comparison.
    for solver in ("ilu0", "dilu"):
        assert [_oracle(solver, block, 0)[0] for block in blocks[:2]] == ["ok", "ok"]


def test_the_load_time_checks_catch_a_wrong_kernel():
    factor, levels = ilu.native_factor(), levelset.native_levels()
    if factor is None or levels is None:
        pytest.skip("no native kernels")
    assert ilu._self_check(factor) is None and levelset._self_check(levels) is None

    def perturbed(run, kind, arg):
        """``run``, then element 0 of argument ``arg`` of a ``kind`` entry
        (a float32 or an int64 array) doubled plus one."""
        def wrong(n, table):
            run(n, table)
            row = (ctypes.c_int64 * (1 + native.ARGS[kind])).from_address(table)
            cell = (ctypes.c_float if kind == native.FACTOR else ctypes.c_int64).from_address(
                row[1 + arg])
            cell.value = cell.value * 2 + 1
        return wrong

    # repro_factor_f32's arguments: mode, n, row_ptr, cols, vals, diag, ...
    assert ilu._self_check(perturbed(factor, native.FACTOR, 5)).startswith(
        "self-check: ilu0 block 0: diag[0] is")
    assert ilu._self_check(perturbed(factor, native.FACTOR, 4)).startswith(
        "self-check: ilu0 block 0: values[0] is")
    # repro_levels's: n, backward, m, rows, cols, level, scratch.
    assert levelset._self_check(perturbed(levels, native.LEVELS, 5)).startswith(
        "self-check: forward row 0 is on level 1, the loop's 0")


def test_malformed_inputs_are_refused_before_the_native_call():
    with pytest.raises(ValueError, match="malformed block"):
        ilu.factor("ilu0", 2, np.array([0, 1]), np.array([1]), np.ones(1), np.ones(2), 0)
    with pytest.raises(ValueError, match="malformed block"):
        ilu.factor("ilu0", 1, np.array([0, 1]), np.array([-1]), np.ones(1), np.ones(1), 0)
    with pytest.raises(ValueError, match="outside"):
        dependency_levels(3, np.array([1]), np.array([3]))
    with pytest.raises(ValueError, match="outside"):
        dependency_levels(3, np.array([-1]), np.array([0]))


def _solves(config):
    crs, dims = poisson2d(10)
    b = np.random.default_rng(5).standard_normal(crs.n).astype(np.float32)
    return [solve(crs, b, config, grid_dims=dims, num_ipus=1, tiles_per_ipu=4, backend=backend)
            for backend in ("fused", "sim")]


@pytest.mark.parametrize("resolve, message", [
    ((ilu, "native_factor"),
     "native factorization unavailable, running the Python ILU(0) / DILU loops: forced off"),
    ((levelset, "native_levels"),
     "native levels unavailable, running the per-row level loop: forced off"),
])
def test_each_kind_forced_off_gives_the_same_bytes_and_one_warning(monkeypatch, resolve,
                                                                   message):
    """ILU(0), DILU and symmetric Gauss-Seidel solves, with the loader
    forced to report no library for one kind alone, run that kind's Python
    loop after exactly one RuntimeWarning and match the native solves bit
    for bit: ``x``, residual history, modeled cycles."""
    configs = [{"solver": "bicgstab", "tol": 1e-6, "preconditioner": {"solver": p}}
               for p in ("ilu0", "dilu")]
    configs.append({"solver": "cg", "tol": 1e-6,
                    "preconditioner": {"solver": "gauss_seidel", "direction": "symmetric"}})
    reference = [_solves(c) for c in configs]
    module, name = resolve
    kind = getattr(module, name)
    monkeypatch.setattr(native, "load", lambda: (None, "forced off"))
    kind.cache_clear()
    try:
        with pytest.warns(RuntimeWarning) as caught:
            fallback = [_solves(c) for c in configs]
    finally:
        kind.cache_clear()
    assert [str(w.message) for w in caught] == [message]
    for want_pair, got_pair in zip(reference, fallback):
        for want, got in zip(want_pair, got_pair):
            assert want.failure is None
            assert want.x.tobytes() == got.x.tobytes()
            assert want.stats.residuals == got.stats.residuals
            assert want.cycles == got.cycles
