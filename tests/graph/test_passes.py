"""Tests for the pass-based graph compiler (repro.graph.passes).

Covers: golden describe() snapshots around each pass, per-pass unit
behavior, the property that any pass preserves engine numerics bit-for-bit
and never increases the compile proxy, and the exchange-coalescing
regression on a communication-heavy program.
"""

import numpy as np
import pytest
from copy_oracle import region_copies
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import (
    Codelet,
    CompiledProgram,
    ComputeSet,
    Engine,
    Exchange,
    Execute,
    Graph,
    HostCallback,
    If,
    RegionCopy,
    Repeat,
    Sequence,
    collect_stats,
    compile_program,
    default_passes,
    describe,
)
from repro.graph.passes import (
    CoalesceExchanges,
    FlattenSequences,
    FuseComputeSets,
    HoistLoopInvariants,
)
from repro.machine import IPUDevice

ALL_PASSES = [FlattenSequences, HoistLoopInvariants, CoalesceExchanges, FuseComputeSets]


def make_graph(tiles=4):
    return Graph(IPUDevice(tiles_per_ipu=tiles))


def inc_cs(var, amount=1.0, tiles=None, name="inc", category="elementwise"):
    cl = Codelet(
        name,
        run=lambda ctx: ctx["x"].__iadd__(np.float32(amount)),
        cycles=lambda ctx: 6 * len(ctx["x"]),
        category=category,
    )
    cs = ComputeSet(f"{name}_cs", category=category)
    for t in tiles if tiles is not None else var.tile_ids:
        cs.add_vertex(cl, t, {"x": var.shard(t).data})
    return cs


def copy_step(src, dst, src_tile=0, dst_tile=1, size=2, name="exchange"):
    return Exchange([RegionCopy(src, src_tile, 0, ((dst, dst_tile, 0),), size)], name=name)


def run_raw(g, root):
    """Freeze a step tree as-is (no passes) and execute it; returns the engine."""
    eng = Engine(compile_program(g, root, optimize=False))
    eng.run()
    return eng


# -- golden describe() snapshots -------------------------------------------------------


class TestGoldenSnapshots:
    def test_flatten_snapshot(self):
        g = make_graph()
        v = g.add_variable("x", (8,))
        root = Sequence([
            Sequence([Execute(inc_cs(v))]),
            Sequence([]),
            Exchange([]),
            Execute(ComputeSet("empty")),
            Sequence([Sequence([HostCallback(lambda e: None)])]),
        ])
        assert describe(root) == "\n".join([
            "Sequence[5]",
            "  Sequence[1]",
            "    Execute(inc_cs, 4 vertices on 4 tiles, category=elementwise)",
            "  Sequence[0]",
            "  Exchange(0 region copies, 0 B)",
            "  Execute(empty, 0 vertices on 0 tiles, category=auto)",
            "  Sequence[1]",
            "    Sequence[1]",
            "      HostCallback(host_callback)",
        ])
        assert describe(FlattenSequences().run(root)) == "\n".join([
            "Sequence[2]",
            "  Execute(inc_cs, 4 vertices on 4 tiles, category=elementwise)",
            "  HostCallback(host_callback)",
        ])

    def test_hoist_snapshot(self):
        g = make_graph()
        v = g.add_variable("x", (8,))
        root = Sequence([
            Repeat(1, Execute(inc_cs(v))),
            Repeat(2, Sequence([Repeat(3, Execute(inc_cs(v, 2.0)))])),
            Repeat(0, Execute(inc_cs(v))),
        ])
        assert describe(root) == "\n".join([
            "Sequence[3]",
            "  Repeat(x1)",
            "    Execute(inc_cs, 4 vertices on 4 tiles, category=elementwise)",
            "  Repeat(x2)",
            "    Sequence[1]",
            "      Repeat(x3)",
            "        Execute(inc_cs, 4 vertices on 4 tiles, category=elementwise)",
            "  Repeat(x0)",
            "    Execute(inc_cs, 4 vertices on 4 tiles, category=elementwise)",
        ])
        out = HoistLoopInvariants().run(root)
        assert describe(FlattenSequences().run(out)) == "\n".join([
            "Sequence[2]",
            "  Execute(inc_cs, 4 vertices on 4 tiles, category=elementwise)",
            "  Repeat(x6)",
            "    Execute(inc_cs, 4 vertices on 4 tiles, category=elementwise)",
        ])

    def test_coalesce_snapshot(self):
        g = make_graph()
        a = g.add_variable("a", (8,))
        b = g.add_variable("b", (8,))
        root = Sequence([
            copy_step(a, b, 0, 1),
            copy_step(a, b, 2, 3),
            Execute(inc_cs(a)),
            copy_step(a, b, 1, 2),
        ])
        assert describe(CoalesceExchanges().run(root)) == "\n".join([
            "Sequence[3]",
            "  Exchange(2 region copies, 16 B)",
            "  Execute(inc_cs, 4 vertices on 4 tiles, category=elementwise)",
            "  Exchange(1 region copies, 8 B)",
        ])

    def test_fuse_snapshot(self):
        g = make_graph()
        v = g.add_variable("x", (8,))
        root = Sequence([
            Execute(inc_cs(v, tiles=[0, 1], name="lo")),
            Execute(inc_cs(v, tiles=[2, 3], name="hi")),
        ])
        assert describe(FuseComputeSets().run(root)) == "\n".join([
            "Sequence[1]",
            "  Execute(lo_cs+hi_cs, 4 vertices on 4 tiles, category=elementwise)",
        ])


# -- per-pass unit behavior ------------------------------------------------------------


class TestFlatten:
    def test_labeled_sequence_is_a_scope_boundary(self):
        g = make_graph()
        v = g.add_variable("x", (8,))
        root = Sequence([Sequence([Execute(inc_cs(v))], label="phase")])
        out = FlattenSequences().run(root)
        assert isinstance(out.steps[0], Sequence)
        assert out.steps[0].label == "phase"

    def test_empty_if_and_repeat_dropped(self):
        g = make_graph()
        cond = g.add_single_tile("c", ())
        root = Sequence([
            If(cond, Sequence([]), Sequence([])),
            Repeat(5, Sequence([])),
        ])
        assert FlattenSequences().run(root).steps == []

    def test_dead_else_branch_pruned(self):
        g = make_graph()
        cond = g.add_single_tile("c", ())
        v = g.add_variable("x", (8,))
        root = Sequence([If(cond, Execute(inc_cs(v)), Sequence([]))])
        out = FlattenSequences().run(root)
        assert isinstance(out.steps[0], If)
        assert out.steps[0].else_body is None


class TestHoist:
    def test_shared_body_normalized_once(self):
        g = make_graph()
        v = g.add_variable("x", (8,))
        body = Sequence([Sequence([Repeat(1, Execute(inc_cs(v)))])])
        root = Sequence([Repeat(2, body), Repeat(3, body)])
        out = HoistLoopInvariants().run(root)
        # Both loops share the one normalized body object (compiled once).
        assert out.steps[0].body is out.steps[1].body

    def test_labeled_repeat_not_unwrapped(self):
        g = make_graph()
        v = g.add_variable("x", (8,))
        root = Sequence([Repeat(1, Execute(inc_cs(v)), label="sweeps")])
        out = HoistLoopInvariants().run(root)
        assert isinstance(out.steps[0], Repeat)
        assert out.steps[0].label == "sweeps"


class TestCoalesce:
    def test_name_change_breaks_group(self):
        g = make_graph()
        a = g.add_variable("a", (8,))
        b = g.add_variable("b", (8,))
        root = Sequence([
            copy_step(a, b, 0, 1, name="exchange"),
            copy_step(a, b, 2, 3, name="halo"),
        ])
        out = CoalesceExchanges().run(root)
        assert len(out.steps) == 2

    def test_raw_hazard_breaks_group(self):
        g = make_graph()
        a = g.add_variable("a", (8,))
        b = g.add_variable("b", (8,))
        # Second copy reads b@tile1, which the first copy wrote.
        root = Sequence([
            copy_step(a, b, 0, 1),
            copy_step(b, a, 1, 2),
        ])
        out = CoalesceExchanges().run(root)
        assert len(out.steps) == 2
        # Independent regions still merge.
        root2 = Sequence([copy_step(a, b, 0, 1), copy_step(a, b, 2, 3)])
        assert len(CoalesceExchanges().run(root2).steps) == 1

    def test_merged_phase_costs_fewer_cycles(self):
        def run(coalesce):
            g = make_graph()
            a = g.add_variable("a", (8,))
            b = g.add_variable("b", (8,))
            a.scatter(np.arange(8))
            root = Sequence([copy_step(a, b, 0, 1), copy_step(a, b, 2, 3)])
            if coalesce:
                root = CoalesceExchanges().run(root)
            eng = run_raw(g, root)
            return g.device.profiler.total_cycles, eng.exchanges, eng.read(b)

        c_raw, x_raw, b_raw = run(False)
        c_opt, x_opt, b_opt = run(True)
        assert x_opt == 1 < x_raw == 2
        assert c_opt < c_raw  # one sync instead of two
        np.testing.assert_array_equal(b_raw, b_opt)


class TestFuse:
    def test_overlapping_tiles_not_fused(self):
        g = make_graph()
        v = g.add_variable("x", (8,))
        root = Sequence([
            Execute(inc_cs(v, tiles=[0, 1])),
            Execute(inc_cs(v, tiles=[1, 2])),
        ])
        assert len(FuseComputeSets().run(root).steps) == 2

    def test_category_mismatch_not_fused(self):
        g = make_graph()
        v = g.add_variable("x", (8,))
        root = Sequence([
            Execute(inc_cs(v, tiles=[0], category="spmv")),
            Execute(inc_cs(v, tiles=[1], category="reduce")),
        ])
        assert len(FuseComputeSets().run(root).steps) == 2

    def test_shared_compute_set_not_fused(self):
        g = make_graph()
        v = g.add_variable("x", (8,))
        shared = inc_cs(v, tiles=[0])
        other = inc_cs(v, tiles=[1])
        root = Sequence([Execute(shared), Execute(other), Execute(shared)])
        out = FuseComputeSets().run(root)
        assert len(out.steps) == 3

    def test_fusion_saves_a_sync_bit_identically(self):
        def run(fuse):
            g = make_graph()
            v = g.add_variable("x", (8,))
            root = Sequence([
                Execute(inc_cs(v, 1.0, tiles=[0, 1], name="lo")),
                Execute(inc_cs(v, 1.0, tiles=[2, 3], name="hi")),
            ])
            if fuse:
                root = FuseComputeSets().run(root)
            eng = run_raw(g, root)
            return g.device.profiler.total_cycles, eng.supersteps, eng.read(v)

        c_raw, s_raw, v_raw = run(False)
        c_opt, s_opt, v_opt = run(True)
        assert s_opt == 1 < s_raw == 2
        assert c_opt < c_raw  # one sync + one shared compute phase
        np.testing.assert_array_equal(v_raw, v_opt)


# -- compiled program artifact ---------------------------------------------------------


class TestCompiledProgram:
    def test_compile_program_is_immutable_and_reports(self):
        g = make_graph()
        v = g.add_variable("x", (8,))
        root = Sequence([Sequence([Execute(inc_cs(v))]), Exchange([])])
        compiled = compile_program(g, root)
        assert isinstance(compiled, CompiledProgram)
        assert compiled.source is root
        assert len(root.steps) == 2  # source untouched
        assert compiled.stats.compile_proxy <= compiled.source_stats.compile_proxy
        assert compiled.report.passes_run == [p.name for p in default_passes()]
        text = compiled.report.render()
        for name in compiled.report.passes_run:
            assert name in text
        with pytest.raises(Exception):
            compiled.root = None  # frozen dataclass

    def test_engine_executes_compiled_program(self):
        g = make_graph()
        v = g.add_variable("x", (8,))
        compiled = compile_program(g, Sequence([Execute(inc_cs(v))]))
        eng = Engine(compiled)
        eng.run()
        np.testing.assert_array_equal(eng.read(v), np.ones(8))

    def test_engine_rejects_uncompiled_graph(self):
        g = make_graph()
        with pytest.raises(TypeError, match="CompiledProgram"):
            Engine(g)

    def test_optimize_false_freezes_raw_schedule(self):
        g = make_graph()
        v = g.add_variable("x", (8,))
        root = Sequence([Sequence([Execute(inc_cs(v))])])
        compiled = compile_program(g, root, optimize=False)
        assert compiled.root is root
        assert compiled.report.results == []


# -- property: passes preserve numerics, never grow the graph --------------------------


def _apply(recipe, g, x, y, conds):
    """Build the schedule described by ``recipe`` against fresh variables."""
    seq = Sequence()
    for op in recipe:
        kind = op[0]
        if kind == "inc":
            seq.add(Execute(inc_cs(x, op[1])))
        elif kind == "inc_tile":
            seq.add(Execute(inc_cs(x, op[2], tiles=[op[1]])))
        elif kind == "copy":
            seq.add(copy_step(x, y, op[1], op[2]))
        elif kind == "empty_seq":
            seq.add(Sequence([]))
        elif kind == "empty_exchange":
            seq.add(Exchange([]))
        elif kind == "repeat":
            seq.add(Repeat(op[1], _apply(op[2], g, x, y, conds)))
        elif kind == "if":
            cond = g.add_single_tile(f"c{len(conds)}", ())
            cond.scatter(float(op[1]))
            conds.append(cond)
            seq.add(If(cond, _apply(op[2], g, x, y, conds)))
        elif kind == "seq":
            seq.add(_apply(op[1], g, x, y, conds))
    return seq


def _build(recipe):
    g = make_graph()
    x = g.add_variable("x", (8,))
    y = g.add_variable("y", (8,))
    x.scatter(np.arange(8, dtype=np.float32))
    y.scatter(np.zeros(8, dtype=np.float32))
    root = _apply(recipe, g, x, y, [])
    return g, x, y, root


_leaf = st.one_of(
    st.tuples(st.just("inc"), st.sampled_from([1.0, 0.5, 2.0])),
    st.tuples(st.just("inc_tile"), st.integers(0, 3), st.sampled_from([1.0, 3.0])),
    st.tuples(st.just("copy"), st.integers(0, 3), st.integers(0, 3)),
    st.tuples(st.just("empty_seq")),
    st.tuples(st.just("empty_exchange")),
)

_recipe = st.recursive(
    st.lists(_leaf, max_size=4),
    lambda inner: st.lists(
        st.one_of(
            _leaf,
            st.tuples(st.just("repeat"), st.integers(0, 3), inner),
            st.tuples(st.just("if"), st.integers(0, 1), inner),
            st.tuples(st.just("seq"), inner),
        ),
        max_size=4,
    ),
    max_leaves=12,
)


class TestPassProperties:
    @given(_recipe, st.integers(0, len(ALL_PASSES)))
    @settings(max_examples=60, deadline=None)
    def test_passes_preserve_results_and_never_grow_graph(self, recipe, which):
        passes = (
            [ALL_PASSES[which]()] if which < len(ALL_PASSES) else default_passes()
        )
        g1, x1, y1, root1 = _build(recipe)
        run_raw(g1, root1)
        base_cycles = g1.device.profiler.total_cycles

        g2, x2, y2, root2 = _build(recipe)
        before = collect_stats(root2).compile_proxy
        compiled = compile_program(g2, root2, passes=passes)
        assert compiled.stats.compile_proxy <= before
        eng2 = Engine(compiled)
        eng2.run()
        np.testing.assert_array_equal(x1.gather(), x2.gather())
        np.testing.assert_array_equal(y1.gather(), y2.gather())
        assert g2.device.profiler.total_cycles <= base_cycles


# -- the indexed hazard checks against their quadratic oracles -------------------------


def _quadratic_coalesce(steps):
    """The all-pairs form of ``CoalesceExchanges`` the indexed one replaced,
    kept as its oracle: every incoming copy is checked against every region
    the group has written.  Returns the groups as lists of exchanges."""
    groups, group, written = [], [], []
    for s in steps:
        if group and (
            s.name != group[0].name
            or any(
                var is rc.src_var and tile == rc.src_tile
                and offset < rc.src_offset + rc.size and rc.src_offset < offset + size
                for rc in region_copies(s)
                for var, tile, offset, size in written
            )
        ):
            groups.append(group)
            group, written = [], []
        group.append(s)
        written += [(var, tile, offset, rc.size)
                    for rc in region_copies(s) for var, tile, offset in rc.dests]
    return groups + [group] if group else groups


def _all_pairs_write_overlap(array, start, stop, is_write):
    """Oracle of an exchange's copy hazard (``plans._copies_overlap``):
    every pair of ranges on one array, at least one of them written."""
    n = len(array)
    return any(
        array[i] == array[j] and (is_write[i] or is_write[j])
        and start[i] < stop[j] and start[j] < stop[i]
        for i in range(n) for j in range(i + 1, n)
    )


# Three variables of 4 tiles x 4 elements: small enough that random regions
# overlap, abut and nest all the time.
_region = st.tuples(st.integers(0, 2), st.integers(0, 3), st.integers(0, 3), st.integers(1, 4))
_copy = st.tuples(_region, st.lists(st.tuples(st.integers(0, 2), st.integers(0, 3),
                                              st.integers(0, 3)), min_size=1, max_size=2))
_exchanges = st.lists(
    st.tuples(st.sampled_from(["exchange", "exchange", "halo"]),
              st.lists(_copy, min_size=1, max_size=3)),
    min_size=1, max_size=8,
)


def _build_exchanges(recipe):
    g = make_graph()
    variables = [g.add_variable(name, (16,)) for name in "abc"]
    steps = []
    for name, copies in recipe:
        steps.append(Exchange([
            RegionCopy(
                variables[v], tile, offset,
                tuple((variables[dv], dt, min(do, 4 - min(size, 4 - offset)))
                      for dv, dt, do in dests),
                min(size, 4 - offset),
            )
            for (v, tile, offset, size), dests in copies
        ], name=name))
    return g, steps


class TestIndexedHazardChecks:
    @given(_exchanges)
    @settings(max_examples=200, deadline=None)
    def test_coalesce_groups_and_copy_order_match_the_quadratic_oracle(self, recipe):
        _, steps = _build_exchanges(recipe)
        out = CoalesceExchanges().run(Sequence(list(steps))).steps
        want = _quadratic_coalesce(steps)
        assert len(out) == len(want)
        def key(rc):
            return (id(rc.src_var), rc.src_tile, rc.src_offset, rc.size,
                    tuple((id(var), tile, offset) for var, tile, offset in rc.dests))

        for merged, group in zip(out, want):
            assert merged.name == group[0].name
            copies = [rc for s in group for rc in region_copies(s)]
            assert merged.n_copies == len(copies)
            assert [key(rc) for rc in region_copies(merged)] == [key(rc) for rc in copies]

    @given(_exchanges)
    @settings(max_examples=200, deadline=None)
    def test_exchange_plans_detect_exactly_the_all_pairs_hazards(self, recipe):
        """``vectorized`` as the list-built planner decided it: one read per
        region copy, one write per destination, all pairs per shard."""
        g, steps = _build_exchanges(recipe)
        compiled = compile_program(g, Sequence(list(steps)), optimize=False)
        for step in steps:
            ranges = []
            for rc in region_copies(step):
                ranges.append((id(rc.src_var.shard(rc.src_tile).data), rc.src_offset,
                               rc.src_offset + rc.size, False))
                ranges += [(id(var.shard(tile).data), offset, offset + rc.size, True)
                           for var, tile, offset in rc.dests]
            hazard = _all_pairs_write_overlap(*zip(*ranges))
            assert compiled.plan_for(step).vectorized == (not hazard)

    @given(st.lists(
        st.tuples(st.integers(0, 2), st.integers(0, 6), st.integers(0, 2), st.integers(0, 6),
                  st.integers(0, 3)),
        max_size=12,
    ))
    @settings(max_examples=300, deadline=None)
    def test_sorted_range_overlaps_agree_with_all_pairs(self, copies):
        """Copies ``(src shard, src start, dst shard, dst start, size)`` over
        three shards, so reads and writes share arrays: empty, nested,
        abutting (no overlap) and equal ranges included.  The read-meets-
        write test and the exchange hazard built on it (that, or two writes
        overlapping) agree with every pair checked."""
        from repro.graph.passes.coalesce import _reads_written
        from repro.graph.passes.plans import _copies_overlap
        from repro.graph.program import DST_OFFSET, SIZE, SRC_OFFSET

        rows = np.array(copies, dtype=np.int64).reshape(-1, 5)
        src, src_at, dst, dst_at, size = rows.T
        t = np.zeros((len(rows), SIZE + 1), dtype=np.int64)
        t[:, SRC_OFFSET], t[:, DST_OFFSET], t[:, SIZE] = src_at, dst_at, size
        reads, writes = (src, src_at, src_at + size), (dst, dst_at, dst_at + size)

        def meet(a, i, b, j):
            return a[0][i] == b[0][j] and a[1][i] < b[2][j] and b[1][j] < a[2][i]

        n = len(rows)
        read_meets_write = any(meet(reads, i, writes, j) for i in range(n) for j in range(n))
        writes_meet = any(meet(writes, i, writes, j) for i in range(n) for j in range(i + 1, n))
        assert _reads_written(reads, writes) == read_meets_write
        assert _copies_overlap(src, dst, t, 3) == (read_meets_write or writes_meet)
        # The same decision as the all-pairs oracle over the copies' ranges.
        is_write = np.repeat([False, True], n)
        assert _copies_overlap(src, dst, t, 3) == _all_pairs_write_overlap(
            np.concatenate([src, dst]), np.concatenate([src_at, dst_at]),
            np.concatenate([src_at + size, dst_at + size]), is_write)

    def test_a_hazard_free_run_is_checked_once_as_the_halo_grows(self, monkeypatch):
        """An in-place ring halo: tile ``t`` sends its ``R`` owned regions into
        the halo slots of tile ``t + 1`` of the *same* variable, one exchange
        per sending tile (as the sparse layer emits them).  No read of the
        run meets a write of it, so the whole run is one table check — not
        one per exchange — however many tiles send."""
        from repro.graph.passes import coalesce

        checks = []
        real = coalesce._reads_written
        monkeypatch.setattr(coalesce, "_reads_written",
                            lambda *a: checks.append(len(a[0][0])) or real(*a))
        R = 3

        def ring(tiles):
            g = make_graph(tiles)
            v = g.add_variable("v", (tiles * 2 * R,))
            steps = [
                Exchange([RegionCopy(v, t, k, ((v, (t + 1) % tiles, R + k),), 1)
                          for k in range(R)])
                for t in range(tiles)
            ]
            checks.clear()
            out = CoalesceExchanges().run(Sequence(steps))
            assert len(out.steps) == 1  # owned and halo slots never overlap
            assert out.steps[0].n_copies == tiles * R
            return list(checks)

        assert ring(4) == [4 * R]
        assert ring(16) == [16 * R]


# -- regression: coalescing on a communication-heavy program ---------------------------


class TestCoalesceRegression:
    def test_spmv_halo_exchanges_coalesce_to_one_phase(self):
        from repro.sparse import poisson3d
        from repro.sparse.distribute import DistributedMatrix
        from repro.tensordsl import TensorContext

        def run(optimize):
            crs, dims = poisson3d(8)
            ctx = TensorContext(IPUDevice(tiles_per_ipu=8))
            A = DistributedMatrix(ctx, crs, grid_dims=dims)
            xv = A.vector(data=np.arange(crs.n, dtype=np.float64))
            yv = A.vector()
            A.spmv(xv, yv)
            eng = ctx.run(optimize=optimize)
            return eng, yv.read_global(), ctx.device.profiler.total_cycles

        eng_raw, y_raw, c_raw = run(False)
        eng_opt, y_opt, c_opt = run(True)
        # One blockwise program per sending tile collapses into one phase.
        assert eng_opt.exchanges == 1
        assert eng_opt.exchanges < eng_raw.exchanges
        assert c_opt < c_raw
        np.testing.assert_array_equal(y_raw, y_opt)

    def test_solve_optimized_is_cheaper_and_bit_identical(self):
        from repro.solvers import solve
        from repro.sparse import poisson2d

        crs, dims = poisson2d(8)
        b = np.ones(64)
        cfg = '{"solver": "cg", "tol": 1e-8, "max_iterations": 40}'
        raw = solve(crs, b, cfg, tiles_per_ipu=4, grid_dims=dims, optimize=False)
        opt = solve(crs, b, cfg, tiles_per_ipu=4, grid_dims=dims, optimize=True)
        assert opt.engine.exchanges < raw.engine.exchanges
        assert opt.cycles < raw.cycles
        np.testing.assert_array_equal(opt.x, raw.x)
        assert opt.relative_residual == raw.relative_residual


# -- satellite: per-tile serialization of on-tile memcpys ------------------------------


class TestOnTileMemcpyAccounting:
    def test_same_tile_copies_serialize(self):
        g = make_graph()
        a = g.add_variable("a", (8,))
        b = g.add_variable("b", (8,))
        c = g.add_variable("c", (8,))
        p = g.device.profiler

        # One on-tile copy of 2 f32 elements: ceil(8 B / 8) = 1 cycle.
        run_raw(g, Exchange([RegionCopy(a, 0, 0, ((b, 0, 0),), 2)]))
        one = p.total_cycles
        p.reset()
        # Two copies landing on the SAME tile serialize: 2 cycles, not max=1.
        run_raw(
            g,
            Exchange([
                RegionCopy(a, 0, 0, ((b, 0, 0),), 2),
                RegionCopy(a, 0, 0, ((c, 0, 0),), 2),
            ]),
        )
        same_tile = p.total_cycles
        p.reset()
        # Two copies on DIFFERENT tiles stay parallel: max across tiles.
        run_raw(
            g,
            Exchange([
                RegionCopy(a, 0, 0, ((b, 0, 0),), 2),
                RegionCopy(a, 1, 0, ((c, 1, 0),), 2),
            ]),
        )
        two_tiles = p.total_cycles
        assert same_tile == 2 * one
        assert two_tiles == one


# -- satellite: hierarchical profiler paths --------------------------------------------


class TestProfilerScopes:
    def test_labeled_steps_open_scopes(self):
        g = make_graph()
        v = g.add_variable("x", (8,))
        root = Sequence(
            [Sequence([Repeat(2, Execute(inc_cs(v)), label="loop")], label="phase")]
        )
        run_raw(g, root)
        paths = g.device.profiler.by_path()
        assert "phase/loop" in paths
        assert "<toplevel>" not in paths

    def test_solve_reports_hierarchical_paths(self):
        from repro.solvers import solve
        from repro.sparse import poisson2d

        crs, dims = poisson2d(8)
        result = solve(crs, np.ones(64), '{"solver": "cg", "tol": 1e-6}',
                       tiles_per_ipu=4, grid_dims=dims)
        paths = result.engine.profiler.by_path()
        assert len(paths) > 1
        assert any(p.startswith("solve:cg") for p in paths)
        assert any("cg.iterate" in p for p in paths)
