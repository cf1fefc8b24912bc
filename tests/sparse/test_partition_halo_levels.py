"""Tests for partitioning, the Sec. IV halo-region strategy, and level sets."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sparse import (
    ModifiedCRS,
    build_halo_plan,
    build_naive_plan,
    level_schedule,
    partition_rows,
    poisson2d,
    poisson3d,
)
from repro.sparse.partition import grid_factors
from repro.sparse.suitesparse import g3_circuit_like


class TestGridFactors:
    def test_exact_products(self):
        for parts in (1, 2, 4, 6, 8, 12, 16, 64):
            for nd in (1, 2, 3):
                f = grid_factors(parts, nd)
                assert len(f) == nd and int(np.prod(f)) == parts

    def test_near_cubic(self):
        assert sorted(grid_factors(64, 3)) == [4, 4, 4]
        assert sorted(grid_factors(16, 2)) == [4, 4]


class TestPartition:
    def test_grid_partition_balanced_and_connected(self):
        m, dims = poisson2d(8)
        part = partition_rows(m, 4, grid_dims=dims)
        counts = part.counts()
        assert counts.sum() == 64
        assert counts.max() - counts.min() == 0  # 8x8 into 2x2 blocks
        # Tile 0's block is the lower-left 4x4 quadrant.
        rows = part.rows_of(0)
        assert set(rows) == {x + 8 * y for x in range(4) for y in range(4)}

    def test_graph_partition_balanced(self):
        m = g3_circuit_like(grid=20)
        part = partition_rows(m, 8)
        counts = part.counts()
        assert counts.sum() == m.n
        assert counts.max() - counts.min() <= 1

    def test_single_part(self):
        m, _ = poisson2d(4)
        part = partition_rows(m, 1)
        assert (part.owner == 0).all()

    def test_grid_dims_mismatch_rejected(self):
        m, _ = poisson2d(4)
        with pytest.raises(ValueError):
            partition_rows(m, 4, grid_dims=(5, 5))

    def test_zero_parts_rejected(self):
        m, _ = poisson2d(4)
        with pytest.raises(ValueError):
            partition_rows(m, 0)


class TestHaloPlanPoisson8x8x4:
    """The paper's Fig. 3 setting: an 8x8 mesh across four tiles."""

    @pytest.fixture
    def setting(self):
        m, dims = poisson2d(8)
        part = partition_rows(m, 4, grid_dims=dims)
        return m, part, build_halo_plan(m, part)

    def test_cell_classification(self, setting):
        m, part, plan = setting
        # Each 4x4 quadrant of a 5-point stencil mesh: 7 separator cells
        # (the two boundary edges of the quadrant), 9 interior.
        for t in range(4):
            sep = sum(r.size for r in plan.regions if r.owner == t)
            assert sep == 7
            assert plan.owned_count(t) == 16
            # Halo: 4 cells from each of the two edge neighbors (the corner
            # cell of each neighbor's shared region included) = 8.
            assert plan.halo_count(t) == 8

    def test_regions_match_fig3(self, setting):
        m, part, plan = setting
        # Per tile: one region per single neighbor (3 cells each edge, minus
        # the corner) — for a 5-point stencil the corner cell is required by
        # BOTH neighbors?  No: 5-point has no diagonal coupling, so the
        # corner cell of the quadrant is required by both edge neighbors.
        t0 = [r for r in plan.regions if r.owner == 0]
        keysets = sorted(tuple(r.receivers) for r in t0)
        assert keysets == [(1,), (1, 2), (2,)]
        sizes = {tuple(r.receivers): r.size for r in t0}
        assert sizes[(1,)] == 3 and sizes[(2,)] == 3 and sizes[(1, 2)] == 1

    def test_consistent_ordering_and_offsets(self, setting):
        m, part, plan = setting
        for r in plan.regions:
            # Region cells appear contiguously at sep_offset in the owner's
            # layout, in the same order as in every receiver's halo buffer.
            off = plan.sep_offset[r.rid]
            np.testing.assert_array_equal(
                plan.owned_order[r.owner][off : off + r.size], r.cells
            )
            for t in r.receivers:
                hoff = plan.halo_offset[(t, r.rid)]
                np.testing.assert_array_equal(
                    plan.halo_order[t][hoff : hoff + r.size], r.cells
                )

    def test_owned_layout_is_partition(self, setting):
        m, part, plan = setting
        for t in range(4):
            np.testing.assert_array_equal(
                np.sort(plan.owned_order[t]), part.rows_of(t)
            )

    def test_halo_cells_are_exactly_required_foreign_cells(self, setting):
        m, part, plan = setting
        for t in range(4):
            required = set()
            for i in part.rows_of(t):
                cols, _ = m.row(i)
                required.update(int(c) for c in cols if part.owner[c] != t)
            assert set(plan.halo_order[t].tolist()) == required

    def test_global_permutation_valid(self, setting):
        m, part, plan = setting
        perm = plan.global_permutation()
        assert np.sort(perm).tolist() == list(range(m.n))

    def test_local_index(self, setting):
        m, part, plan = setting
        for t in range(4):
            held = np.concatenate([plan.owned_order[t], plan.halo_order[t]])
            # Owned prefix then halo, whatever order the ids are asked in.
            shuffled = np.random.default_rng(t).permutation(held.size)
            assert plan.local_index(t, held[shuffled]).tolist() == shuffled.tolist()
        assert plan.local_index(0, plan.halo_order[0][:1]).tolist() == [16]


class TestBlockwiseVsNaive:
    def test_instruction_count_reduction(self):
        m, dims = poisson3d(12)
        part = partition_rows(m, 8, grid_dims=dims)
        block = build_halo_plan(m, part)
        naive = build_naive_plan(m, part)
        # Same data volume, far fewer communication instructions (one per
        # 6x6-cell face region instead of one per cell).
        assert block.total_halo_cells() == naive.total_halo_cells()
        assert block.num_copy_instructions() < naive.num_copy_instructions() / 5

    def test_same_copies_semantics(self):
        # Both plans must transport identical values (checked via engine
        # elsewhere); structurally: identical (cell -> receivers) multiset.
        m, dims = poisson2d(6)
        part = partition_rows(m, 4, grid_dims=dims)
        block = build_halo_plan(m, part)
        naive = build_naive_plan(m, part)

        def flows(plan):
            out = set()
            for r in plan.regions:
                for c in r.cells:
                    for t in r.receivers:
                        out.add((int(c), t))
            return out

        assert flows(block) == flows(naive)


class TestHaloGeneralMatrix:
    def test_irregular_matrix_plan_consistency(self):
        m = g3_circuit_like(grid=16, seed=4)
        part = partition_rows(m, 6)
        plan = build_halo_plan(m, part)
        # Every separator region's receivers actually reference its cells.
        rows = np.repeat(np.arange(m.n), m.rows_nnz())
        ref_by = {}
        for i, j in zip(rows, m.col_idx):
            ref_by.setdefault(int(j), set()).add(int(part.owner[i]))
        for r in plan.regions:
            for c in r.cells:
                assert set(r.receivers) == ref_by[int(c)] - {r.owner}


class TestLevelSchedule:
    def test_diagonal_matrix_single_level(self):
        sched = level_schedule(np.zeros(6, dtype=int).cumsum(), np.array([]), 5)
        # No off-diagonal entries: every row is level 0.
        assert sched.num_levels == 1
        assert sched.levels[0].size == 5

    def test_bidiagonal_fully_sequential(self):
        # Row i depends on i-1: n levels of one row each.
        n = 6
        row_ptr = np.arange(n + 1)
        row_ptr = np.concatenate([[0], np.arange(1, n + 1)]) - 0  # 1 dep per row except row 0
        row_ptr = np.array([0, 0, 1, 2, 3, 4, 5])
        col_idx = np.array([0, 1, 2, 3, 4])
        sched = level_schedule(row_ptr, col_idx, n)
        assert sched.num_levels == n
        assert sched.max_parallelism == 1
        assert sched.validate(row_ptr, col_idx)

    def test_poisson_levels_are_antidiagonals(self):
        # 2-D Poisson in natural order: level(i) = x + y (anti-diagonals).
        m, (nx, ny) = poisson2d(4)
        sched = level_schedule(m.row_ptr, m.col_idx, m.n)
        assert sched.num_levels == nx + ny - 1
        for lvl, rows in enumerate(sched.levels):
            for r in rows:
                assert r % nx + r // nx == lvl
        assert sched.validate(m.row_ptr, m.col_idx)

    def test_worker_partition(self):
        m, _ = poisson2d(8)
        sched = level_schedule(m.row_ptr, m.col_idx, m.n)
        # The longest anti-diagonal has 8 rows -> 6 chunks for 6 workers.
        big = max(range(sched.num_levels), key=lambda k: sched.levels[k].size)
        chunks = sched.worker_partition(big, 6)
        assert len(chunks) == 6
        assert sum(c.size for c in chunks) == sched.levels[big].size

    def test_upper_triangular_entries_ignored(self):
        # Dependencies only through the lower triangle.
        row_ptr = np.array([0, 1, 2])
        col_idx = np.array([1, 0])  # row0 -> col1 (upper), row1 -> col0 (lower)
        sched = level_schedule(row_ptr, col_idx, 2)
        assert sched.num_levels == 2
        assert sched.levels[0].tolist() == [0]

    @given(st.integers(min_value=2, max_value=12), st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_validate_property(self, n, seed):
        import scipy.sparse as sp

        rng = np.random.default_rng(seed)
        a = sp.random(n, n, density=0.4, random_state=rng, format="csr")
        a = a + sp.diags(np.ones(n))
        m = ModifiedCRS.from_scipy(a)
        sched = level_schedule(m.row_ptr, m.col_idx, n)
        assert sched.validate(m.row_ptr, m.col_idx)
        assert sum(lv.size for lv in sched.levels) == n
