"""Property-based tests of the Sec. IV halo-plan invariants.

The reordering strategy's correctness rests on structural invariants that
must hold for *any* matrix and partition — ideal hypothesis territory.
"""

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.program import DST_OFFSET, DST_TILE, SIZE
from repro.sparse import ModifiedCRS, build_halo_plan, partition_rows


def random_system(n, density, seed):
    rng = np.random.default_rng(seed)
    a = sp.random(n, n, density=density, random_state=rng, format="csr")
    a = a + a.T + sp.diags(np.full(n, float(n)))
    return ModifiedCRS.from_scipy(a)


matrix_params = st.tuples(
    st.integers(min_value=4, max_value=48),  # n
    st.floats(min_value=0.05, max_value=0.4, allow_subnormal=False),  # density
    st.integers(min_value=0, max_value=10**6),  # seed
    st.integers(min_value=1, max_value=8),  # parts
)


class TestHaloPlanInvariants:
    @given(matrix_params)
    @settings(max_examples=40, deadline=None)
    def test_invariants(self, params):
        n, density, seed, parts = params
        parts = min(parts, n)
        m = random_system(n, density, seed)
        part = partition_rows(m, parts)
        plan = build_halo_plan(m, part)

        # 1. The owned layouts partition 0..n-1 exactly.
        perm = plan.global_permutation()
        assert np.sort(perm).tolist() == list(range(n))

        # 2. Each tile's owned layout is a permutation of its partition rows.
        for t in plan.tiles():
            assert np.array_equal(np.sort(plan.owned_order[t]), part.rows_of(t))

        # 3. Regions are disjoint and their union is the separator set.
        all_cells = [c for r in plan.regions for c in r.cells.tolist()]
        assert len(all_cells) == len(set(all_cells))

        # 4. Consistent ordering: every region appears contiguously and in
        #    identical order in the owner layout and every receiver halo.
        for r in plan.regions:
            off = plan.sep_offset[r.rid]
            np.testing.assert_array_equal(
                plan.owned_order[r.owner][off : off + r.size], r.cells
            )
            for t in r.receivers:
                hoff = plan.halo_offset[(t, r.rid)]
                np.testing.assert_array_equal(
                    plan.halo_order[t][hoff : hoff + r.size], r.cells
                )

        # 5. Halo coverage: every foreign column referenced by a tile's rows
        #    appears in that tile's halo, and nothing else does.
        owner = part.owner
        for t in plan.tiles():
            required = set()
            for i in part.rows_of(t):
                cols, _ = m.row(int(i))
                required.update(int(c) for c in cols if owner[c] != t)
            assert set(plan.halo_order[t].tolist()) == required

        # 6. Receivers are exactly the tiles whose rows reference the cells.
        rows_of_entries = np.repeat(np.arange(n), m.rows_nnz())
        ref_by = {}
        for i, j in zip(rows_of_entries, m.col_idx):
            ref_by.setdefault(int(j), set()).add(int(owner[i]))
        for r in plan.regions:
            for c in r.cells:
                assert set(r.receivers) == ref_by[int(c)] - {r.owner}

    @given(matrix_params)
    @settings(max_examples=20, deadline=None)
    def test_exchange_copies_consistent(self, params):
        n, density, seed, parts = params
        parts = min(parts, n)
        m = random_system(n, density, seed)
        part = partition_rows(m, parts)
        plan = build_halo_plan(m, part)

        # The copy schedule's (offset, size) windows must tile each halo
        # buffer without gaps or overlaps.
        windows = {}
        for t, off, size in plan.copies[:, [DST_TILE, DST_OFFSET, SIZE]].tolist():
            windows.setdefault(t, []).append((off, size))
        for t, ws in windows.items():
            ws.sort()
            pos = 0
            for off, size in ws:
                assert off == pos, f"gap/overlap in tile {t}'s halo layout"
                pos += size
            assert pos == plan.halo_count(t)
