"""Tests for the level-scheduled sweep engine."""

import shutil
import stat

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine import CycleModel, MK2
from repro.solvers import native, solve
from repro.solvers.sweeps import SweepPlan, build_sweep, native_sweep
from repro.sparse.sell import native_spmv
from repro.sparse import ModifiedCRS, poisson2d
from repro.sparse.suitesparse import g3_circuit_like


def local_block(crs):
    values, diag = crs.values.astype(np.float32), crs.diag.astype(np.float32)
    return crs.n, crs.row_ptr, crs.col_idx, values, diag


class TestForwardSweep:
    def test_unit_lower_solve(self):
        # L y = b with unit diagonal: y = b - L_strict y, rows in order.
        a = np.array(
            [[1.0, 0, 0, 0], [2.0, 1, 0, 0], [0, 3.0, 1, 0], [4.0, 0, 5.0, 1]],
            dtype=np.float64,
        )
        crs = ModifiedCRS.from_scipy(sp.csr_matrix(a))
        n, ptr, cols, vals, diag = local_block(crs)
        plan = build_sweep(n, ptr, cols, vals, include=lambda r, c: c < r)
        b = np.array([1.0, 2.0, 3.0, 4.0], dtype=np.float32)
        y = np.zeros(4, dtype=np.float32)
        plan.bind(y, b, diag=None)()
        expected = np.linalg.solve(np.tril(a), b.astype(np.float64))
        np.testing.assert_allclose(y, expected, rtol=1e-6, atol=1e-6)

    def test_non_unit_forward(self):
        a = np.array([[2.0, 0, 0], [1.0, 4.0, 0], [3.0, 5.0, 8.0]])
        crs = ModifiedCRS.from_scipy(sp.csr_matrix(a))
        n, ptr, cols, vals, diag = local_block(crs)
        plan = build_sweep(n, ptr, cols, vals, include=lambda r, c: c < r)
        b = np.array([2.0, 6.0, 24.0], dtype=np.float32)
        y = np.zeros(3, dtype=np.float32)
        plan.bind(y, b, diag=diag)()
        np.testing.assert_allclose(y, np.linalg.solve(a, b.astype(np.float64)), rtol=1e-6)


class TestBackwardSweep:
    def test_upper_solve(self):
        a = np.array([[2.0, 1.0, 3.0], [0, 4.0, 5.0], [0, 0, 8.0]])
        crs = ModifiedCRS.from_scipy(sp.csr_matrix(a))
        n, ptr, cols, vals, diag = local_block(crs)
        plan = build_sweep(n, ptr, cols, vals, include=lambda r, c: c > r, backward=True)
        b = np.array([6.0, 9.0, 8.0], dtype=np.float32)
        x = np.zeros(3, dtype=np.float32)
        plan.bind(x, b, diag=diag)()
        np.testing.assert_allclose(x, np.linalg.solve(a, b.astype(np.float64)), rtol=1e-6)

    def test_backward_levels_reversed(self):
        # Bidiagonal upper: row i depends on i+1 -> n levels, last row first.
        crs, _ = poisson2d(3)
        n, ptr, cols, vals, diag = local_block(crs)
        plan = build_sweep(n, ptr, cols, vals, include=lambda r, c: c > r, backward=True)
        assert plan.schedule.levels[0][-1] == n - 1  # last row has no upper deps


class TestGSLikeSweep:
    def test_matches_sequential_gauss_seidel(self):
        crs, _ = poisson2d(6)
        n, ptr, cols, vals, diag = local_block(crs)
        plan = build_sweep(n, ptr, cols, vals, include=lambda r, c: np.ones(r.size, bool))
        rng = np.random.default_rng(0)
        b = rng.standard_normal(n).astype(np.float32)
        x_plan = rng.standard_normal(n).astype(np.float32)
        x_seq = x_plan.copy()
        # Sequential reference sweep.
        for i in range(n):
            c, v = crs.row(i)
            x_seq[i] = np.float32(
                (b[i] - np.sum(v.astype(np.float32) * x_seq[c])) / np.float32(diag[i])
            )
        plan.bind(x_plan, b, diag=diag)()
        # Structurally symmetric matrix: level order == sequential result.
        np.testing.assert_allclose(x_plan, x_seq, rtol=1e-5)

    def test_halo_columns_are_constants(self):
        # Columns >= n reference the halo suffix of x_full, never updated.
        n = 2
        ptr = np.array([0, 1, 2])
        cols = np.array([2, 3])  # both rows reference halo cells
        vals = np.array([1.0, 2.0], dtype=np.float32)
        plan = build_sweep(n, ptr, cols, vals, include=lambda r, c: np.ones(r.size, bool))
        x_full = np.array([0.0, 0.0, 10.0, 20.0], dtype=np.float32)
        b = np.array([12.0, 44.0], dtype=np.float32)
        plan.bind(x_full, b, diag=np.array([2.0, 2.0], dtype=np.float32))()
        np.testing.assert_allclose(x_full[:2], [1.0, 2.0])
        np.testing.assert_allclose(x_full[2:], [10.0, 20.0])  # halo untouched
        # One level: no dependencies through halo columns.
        assert plan.schedule.num_levels == 1


class TestSweepCost:
    def test_cycles_positive_and_level_dependent(self):
        crs, _ = poisson2d(8)
        n, ptr, cols, vals, diag = local_block(crs)
        fwd = build_sweep(n, ptr, cols, vals, include=lambda r, c: c < r)
        model = CycleModel()
        c = fwd.cycles(model, MK2)
        assert c > 0
        # More levels (more barriers) on the same work costs more.
        diag_only = build_sweep(n, ptr, cols, vals, include=lambda r, c: np.zeros(r.size, bool))
        assert diag_only.schedule.num_levels == 1
        assert fwd.schedule.num_levels > 1

    def test_empty_block(self):
        plan = build_sweep(0, np.array([0]), np.array([]), np.array([]),
                           include=lambda r, c: np.ones(r.size, bool))
        x = np.zeros(0, dtype=np.float32)
        plan.bind(x, np.zeros(0, dtype=np.float32))()
        assert plan.schedule.num_levels == 0


# -- merged == per-tile, bit for bit ------------------------------------------------------

SPECIAL = [0.0, -0.0, np.inf, -np.inf]


def _mostly_normal(rng, n, special, share=0.25):
    """Inexact values (so summation order shows), some of them special."""
    out = rng.standard_normal(n).astype(np.float32)
    pick = rng.random(n) < share
    out[pick] = rng.choice(np.array(special, dtype=np.float32), int(pick.sum()))
    return out


@st.composite
def tile_block(draw):
    """One tile's random local block: ``n`` rows of 0-12 entries over its
    ``[owned | halo]`` columns, as (n, halo, row_ptr, col_idx); the values
    come from the example's seed."""
    n = draw(st.integers(1, 7))
    halo = draw(st.integers(0, 3))
    # Weighted towards the lengths where reduceat's summation order changes.
    length = st.one_of(st.integers(0, 12), st.sampled_from([0, 1, 7, 8, 9]))
    lengths = draw(st.lists(length, min_size=n, max_size=n))
    if draw(st.booleans()):
        lengths[-1] = 0  # a trailing empty row: the one case RowSegments pads
    nnz = sum(lengths)
    cols = draw(st.lists(st.integers(0, n + halo - 1), min_size=nnz, max_size=nnz))
    ptr = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)
    return n, halo, ptr, np.array(cols, dtype=np.int64)


def _same_bits(a, b):
    """Bitwise equality (signed zeros and infinities included); two NaNs
    match whatever their payloads."""
    return bool(((a.view(np.uint32) == b.view(np.uint32)) | (np.isnan(a) & np.isnan(b))).all())


@settings(max_examples=150, deadline=None)
@given(
    blocks=st.lists(tile_block(), min_size=1, max_size=6),
    backward=st.booleans(),
    with_diag=st.booleans(),
    local_only=st.booleans(),
    empty_level=st.integers(0, 3),
    seed=st.integers(0, 2**16),
)
def test_merged_plan_equals_per_tile_plans_bitwise(
    blocks, backward, with_diag, local_only, empty_level, seed
):
    """Property: ``SweepPlan.merged`` over the concatenated vectors equals
    each tile's own sweep bit for bit — different level counts per tile,
    empty levels, empty rows, a trailing empty row, rows of 0-12 entries
    (both ``reduceat`` regimes), ±0.0 / inf values, halo columns or the
    block-local default column shift."""
    rng = np.random.default_rng(seed)
    total = sum(n for n, *_ in blocks)
    plans, starts, col_maps, xs, halos, rhss, diags = [], [], [], [], [], [], []
    row0 = halo0 = 0
    for n, halo, ptr, cols in blocks:
        vals = _mostly_normal(rng, cols.size, SPECIAL, share=0.05)
        if local_only:  # the ILU shape: no halo columns, no col_maps
            include = lambda r, c, n=n: c < n
            halo = 0
        else:
            include = lambda r, c: np.ones(r.size, dtype=bool)
        plan = build_sweep(n, ptr, cols, vals, include=include, backward=backward)
        if empty_level <= plan.num_levels:
            level_ptr = np.insert(plan.level_ptr, empty_level, plan.level_ptr[empty_level])
            plan = SweepPlan(n, level_ptr, plan.rows, plan.entry_ptr, plan.cols, plan.vals)
        plans.append(plan)
        starts.append(row0)
        col_maps.append(np.concatenate([
            np.arange(row0, row0 + n), total + np.arange(halo0, halo0 + halo)]))
        xs.append(_mostly_normal(rng, n, SPECIAL))
        halos.append(rng.standard_normal(halo).astype(np.float32))
        rhss.append(_mostly_normal(rng, n, SPECIAL[:2]))  # ±0.0 - sum shows the sum's sign
        diags.append(rng.choice(np.array([1.0, -2.0, 0.5, 3.0], np.float32), n))
        row0 += n
        halo0 += halo

    merged = SweepPlan.merged(plans, starts, None if local_only else col_maps)
    assert merged.schedule is None and merged.n == total
    x_dev = np.concatenate(xs + halos)
    rhs_dev, diag_dev = np.concatenate(rhss), np.concatenate(diags)
    with np.errstate(all="ignore"):
        merged.bind(x_dev, rhs_dev, diag=diag_dev if with_diag else None)()
        for i, plan in enumerate(plans):
            x_tile = np.concatenate([xs[i], halos[i]])
            plan.bind(x_tile, rhss[i], diag=diags[i] if with_diag else None)()
            n = plan.n
            assert _same_bits(x_dev[starts[i] : starts[i] + n], x_tile[:n])
            np.testing.assert_array_equal(x_tile[n:], halos[i])  # halo untouched
    assert _same_bits(x_dev[total:], np.concatenate(halos))


def test_a_tile_last_row_sums_exactly_its_own_entries():
    """The RowSegments order argument, on the two rows where a per-level
    pad would show: a (tile, level)-last row of 8 inexact entries (a ninth
    addend moves ``reduceat`` into its unrolled regime) and one whose sum is
    ``-0.0`` (``-0.0 - (-0.0)`` is ``+0.0``, ``-0.0 - (+0.0)`` is not).  The
    per-tile run, the merged run and ``reduceat`` over the row alone agree
    bit for bit."""
    rng = np.random.default_rng(5)
    n, halo = 2, 8
    ptr = np.array([0, 1, 9])
    cols = np.concatenate([[2], np.arange(2, 10)])
    everything = lambda r, c: np.ones(r.size, dtype=bool)
    vals = [rng.standard_normal(9).astype(np.float32),
            np.concatenate([[1.0], np.full(8, -0.0)]).astype(np.float32)]
    x_halo = [rng.standard_normal(halo).astype(np.float32), np.ones(halo, np.float32)]
    rhs = [rng.standard_normal(n).astype(np.float32), np.array([1.0, -0.0], np.float32)]
    plans = [build_sweep(n, ptr, cols, v, include=everything) for v in vals]
    maps = [np.concatenate([np.arange(i * n, (i + 1) * n),
                            2 * n + np.arange(i * halo, (i + 1) * halo)])
            for i in range(2)]
    x_dev = np.concatenate([np.zeros(2 * n, np.float32)] + x_halo)
    SweepPlan.merged(plans, [0, n], maps).bind(x_dev, np.concatenate(rhs))()
    for i in range(2):
        x_tile = np.concatenate([np.zeros(n, np.float32), x_halo[i]])
        plans[i].bind(x_tile, rhs[i])()
        alone = rhs[i][1] - np.add.reduceat(vals[i][1:] * x_halo[i], [0])[0]
        assert _same_bits(x_tile[:n], x_dev[i * n : (i + 1) * n])
        assert _same_bits(x_tile[1:2], np.array([alone], np.float32))
    assert np.signbit(x_dev[3]) == np.signbit(np.float32(-0.0) - np.float32(-0.0))


# -- the native call == the numpy loop, bit for bit -----------------------------------------

#: Row lengths on both sides of every ``reduceat`` regime boundary: seven /
#: eight rest addends, 128 / 129 (the recursive split), and long rows.
EDGES = [0, 1, 7, 8, 9, 10, 127, 128, 129, 130, 137, 200, 257, 300]


@st.composite
def sweep_shape(draw):
    """Row lengths 0-300 of an ``n``-row block with ``halo`` extra columns,
    and whether its last row is empty."""
    n = draw(st.integers(1, 10))
    halo = draw(st.integers(0, 4))
    length = st.one_of(st.integers(0, 12), st.sampled_from(EDGES))
    lengths = draw(st.lists(length, min_size=n, max_size=n))
    if draw(st.booleans()):
        lengths[-1] = 0
    return n, halo, lengths


@settings(max_examples=200, deadline=None)
@given(
    shape=sweep_shape(),
    kind=st.sampled_from(["ilu_forward", "ilu_backward", "gs_forward", "gs_backward"]),
    with_diag=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_native_sweep_equals_the_numpy_loop_bitwise(shape, kind, with_diag, seed):
    """Property: a bound sweep (the native call wherever a compiler is) equals
    ``run_numpy`` by ``view(np.uint32)`` — ILU-style strictly triangular
    block-local plans both ways, include-all Gauss-Seidel plans whose rows
    read same-level rows and halo cells, empty and trailing-empty rows,
    rows of 0-300 entries, unit and non-unit diagonals, ±0.0 / ±inf / NaN.
    Two NaNs match whatever their payloads."""
    n, halo, lengths = shape
    rng = np.random.default_rng(seed)
    special = [0.0, -0.0, np.inf, -np.inf, np.nan]
    ptr = np.concatenate([[0], np.cumsum(lengths)])
    cols = rng.integers(0, n + halo, ptr[-1])
    backward = kind.endswith("backward")
    if kind.startswith("ilu"):
        include = ((lambda r, c: (c > r) & (c < n)) if backward
                   else (lambda r, c: (c < r) & (c < n)))
    else:
        include = lambda r, c: np.ones(r.size, dtype=bool)
    plan = build_sweep(n, ptr, cols, _mostly_normal(rng, cols.size, special, share=0.02),
                       include=include, backward=backward)
    x = _mostly_normal(rng, n + halo, special, share=0.1)
    rhs = _mostly_normal(rng, n, special, share=0.1)
    diag = rng.choice(np.array([1.0, -2.0, 0.5, 3.0, 1e-3, -0.0], np.float32), n)
    d = diag if with_diag else None
    x_native, x_numpy = x.copy(), x.copy()
    with np.errstate(all="ignore"):
        plan.bind(x_native, rhs, d)()
        plan.run_numpy(x_numpy, rhs, d)
    assert _same_bits(x_native, x_numpy)


def test_the_native_sweep_is_in_use_wherever_a_compiler_is():
    """A broken toolchain fails here instead of silently losing the gain."""
    assert native_sweep() is not None or shutil.which("cc") is None


def test_bind_takes_contiguous_float32_buffers_only():
    plan = build_sweep(2, np.array([0, 0, 1]), np.array([0]), np.array([2.0], np.float32),
                       include=lambda r, c: c < r)
    x, b = np.zeros(2, np.float32), np.ones(2, np.float32)
    for bad in (x.astype(np.float64), np.zeros(4, np.float32)[::2], x.tolist()):
        with pytest.raises(TypeError, match="contiguous 1-D float32"):
            plan.bind(bad, b)
    with pytest.raises(TypeError, match="sweep rhs"):
        plan.bind(x, b.astype(np.float64))
    with pytest.raises(ValueError, match="at least 2"):
        plan.bind(np.zeros(1, np.float32), b)
    plan.bind(x, b)()
    assert x.tolist() == [1.0, -1.0]


MPIR_FIG8 = {"solver": "mpir", "precision": "dw", "tol": 1e-9, "max_outer": 12,
             "inner": {"solver": "bicgstab", "fixed_iterations": 50, "tol": 2e-7,
                       "record_history": False, "preconditioner": {"solver": "ilu0"}}}


def test_a_solve_without_the_library_is_bit_identical(monkeypatch):
    """An ``mpir_ilu_g3``-shaped solve (the Fig. 8 config on a g3 double,
    16 tiles) with the loader forced to report no library runs the numpy
    loop and the slot-major SpMV — after one RuntimeWarning each saying why
    — and matches the native solve bit for bit: ``x``, residual history,
    modeled cycles."""
    crs = g3_circuit_like(grid=16)
    b = crs.spmv(np.random.default_rng(3).standard_normal(crs.n)).astype(np.float32)

    def run():
        return solve(crs, b, MPIR_FIG8, num_ipus=1, tiles_per_ipu=16, backend="sim")

    reference = run()
    monkeypatch.setattr(native, "load", lambda: (None, "forced off"))
    native_sweep.cache_clear()
    native_spmv.cache_clear()
    try:
        with pytest.warns(RuntimeWarning) as caught:
            fallback = run()
    finally:
        native_sweep.cache_clear()
        native_spmv.cache_clear()
    assert sorted(str(w.message) for w in caught) == [
        "native SpMV unavailable, running the slot-major numpy SpMV: forced off",
        "native sweep unavailable, running the numpy level loop: forced off",
    ]
    assert reference.failure is None
    assert reference.x.tobytes() == fallback.x.tobytes()
    assert reference.stats.residuals == fallback.stats.residuals
    assert reference.cycles == fallback.cycles


def test_the_loader_caches_and_needs_no_compiler_on_a_hit(tmp_path, monkeypatch):
    if shutil.which("cc") is None:
        pytest.skip("no C compiler")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    library, reason = native.load()
    assert library is not None, reason
    cache = tmp_path / "repro"
    assert stat.S_IMODE(cache.stat().st_mode) == 0o700
    assert [p.suffix for p in cache.iterdir()] == [".so"]  # no temporary left behind
    monkeypatch.setenv("PATH", str(tmp_path / "nothing"))
    assert native.load()[0] is not None  # opened from the cache


def test_the_loader_falls_back_to_a_private_directory(tmp_path, monkeypatch):
    if shutil.which("cc") is None:
        pytest.skip("no C compiler")
    blocker = tmp_path / "a-file"
    blocker.write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))  # mkdir under a file fails
    library, reason = native.load()
    assert library is not None, reason


def test_the_loader_reports_a_missing_compiler(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setenv("PATH", str(tmp_path / "nothing"))
    assert native.load() == (None, "no C compiler (cc) on PATH")
