"""Tests for the engine: compute sets, exchanges, control flow, determinism.

The engine only executes :class:`CompiledProgram` artifacts; raw step trees
are frozen through ``compile_program(..., optimize=False)`` first, which is
exactly what the deprecated ``Engine(graph)`` path used to paper over.
"""

import numpy as np
import pytest

from repro.graph import (
    Codelet,
    ComputeSet,
    Engine,
    Exchange,
    Execute,
    Graph,
    HostCallback,
    If,
    RegionCopy,
    Repeat,
    RepeatWhile,
    Sequence,
    collect_stats,
    compile_program,
)
from repro.machine import IPUDevice
from repro.telemetry import Tracer


@pytest.fixture
def graph():
    return Graph(IPUDevice(tiles_per_ipu=4))


def run_program(graph, step, backend="sim", tracer=None):
    """Freeze a raw step tree and execute it; returns the engine."""
    eng = Engine(compile_program(graph, step, optimize=False), backend=backend,
                 tracer=tracer)
    eng.run()
    return eng


def make_inc_cs(var, amount=1.0):
    """Compute set incrementing every shard of ``var`` in place."""
    cl = Codelet(
        "inc",
        run=lambda ctx: ctx["x"].__iadd__(np.float32(amount)),
        cycles=lambda ctx: 6 * len(ctx["x"]),
    )
    cs = ComputeSet("inc_cs")
    for t in var.tile_ids:
        cs.add_vertex(cl, t, {"x": var.shard(t).data})
    return cs


class TestExecute:
    def test_compute_set_runs_and_charges(self, graph):
        v = graph.add_variable("x", (8,))
        v.scatter(np.zeros(8))
        eng = run_program(graph, Execute(make_inc_cs(v)))
        np.testing.assert_array_equal(eng.read(v), np.ones(8))
        # 2 elements/tile * 6 cycles + sync.
        assert graph.device.profiler.total_cycles == graph.device.model.sync() + 12
        assert eng.supersteps == 1

    def test_superstep_cost_is_slowest_tile(self, graph):
        cl = Codelet("noop", run=lambda ctx: None, cycles=lambda ctx: ctx["c"])
        cs = ComputeSet("uneven")
        cs.add_vertex(cl, 0, {"c": 100})
        cs.add_vertex(cl, 1, {"c": 700})
        run_program(graph, Execute(cs))
        assert graph.device.profiler.total_cycles == graph.device.model.sync() + 700

    def test_worker_packing(self, graph):
        # 12 equal tasks on one 6-worker tile -> two rounds.
        cl = Codelet("t", run=lambda ctx: None, cycles=lambda ctx: 10)
        cs = ComputeSet("pack")
        for _ in range(12):
            cs.add_vertex(cl, 0, {})
        run_program(graph, Execute(cs))
        assert graph.device.profiler.total_cycles == graph.device.model.sync() + 20

    def test_per_worker_cycle_lists(self, graph):
        cl = Codelet("multi", run=lambda ctx: None, cycles=lambda ctx: [5, 9, 7])
        cs = ComputeSet("w")
        cs.add_vertex(cl, 0, {})
        run_program(graph, Execute(cs))
        assert graph.device.profiler.total_cycles == graph.device.model.sync() + 9

    def test_category_attribution(self, graph):
        cl = Codelet("k", run=lambda ctx: None, cycles=lambda ctx: 10, category="spmv")
        cs = ComputeSet("c")
        cs.add_vertex(cl, 0, {})
        run_program(graph, Execute(cs))
        assert graph.device.profiler.category("spmv") > 0

    def test_mixed_vertex_categories_rejected_at_compile(self, graph):
        # Category inference must not silently follow the first vertex.
        a = Codelet("a", run=lambda ctx: None, cycles=lambda ctx: 1, category="spmv")
        b = Codelet("b", run=lambda ctx: None, cycles=lambda ctx: 1, category="reduce")
        cs = ComputeSet("mixed")
        cs.add_vertex(a, 0, {})
        cs.add_vertex(b, 1, {})
        with pytest.raises(ValueError, match="mixes vertex categories"):
            compile_program(graph, Execute(cs), optimize=False)

    def test_explicit_category_wins_over_mixed_vertices(self, graph):
        a = Codelet("a", run=lambda ctx: None, cycles=lambda ctx: 1, category="spmv")
        b = Codelet("b", run=lambda ctx: None, cycles=lambda ctx: 1, category="reduce")
        cs = ComputeSet("mixed", category="transfer")
        cs.add_vertex(a, 0, {})
        cs.add_vertex(b, 1, {})
        run_program(graph, Execute(cs))
        assert graph.device.profiler.category("transfer") > 0


class TestExchange:
    def test_region_copy_moves_data(self, graph):
        a = graph.add_variable("a", (8,))
        b = graph.add_variable("b", (8,))
        a.scatter(np.arange(8))
        # Copy tile 0's shard of a (elements 0..2) into tile 3's shard of b
        # (global elements 6..8 live at local offset 0 on tile 3).
        eng = run_program(graph, Exchange([RegionCopy(a, 0, 0, ((b, 3, 0),), 2)]))
        out = eng.read(b)
        np.testing.assert_array_equal(out[6:8], [0.0, 1.0])
        assert eng.exchanges == 1
        assert graph.device.profiler.category("exchange") > 0

    def test_broadcast_copy(self, graph):
        a = graph.add_variable("a", (4,))
        r = graph.add_replicated("r", (1,))
        a.scatter([5.0, 0, 0, 0])
        copies = [RegionCopy(a, 0, 0, tuple((r, t, 0) for t in range(4)), 1)]
        run_program(graph, Exchange(copies))
        for t in range(4):
            assert r.shard(t).data[0] == 5.0

    def test_dw_copy_moves_both_words(self, graph):
        a = graph.add_variable("a", (4,), dtype="dw")
        b = graph.add_variable("b", (4,), dtype="dw")
        a.scatter(np.array([1 + 1e-9] * 4))
        copies = [RegionCopy(a, t, 0, ((b, t, 0),), 1) for t in range(4)]
        eng = run_program(graph, Exchange(copies))
        np.testing.assert_allclose(eng.read(b), 1 + 1e-9, rtol=2**-45)

    def test_local_copy_cheaper_than_remote(self, graph):
        a = graph.add_variable("a", (8,))
        b = graph.add_variable("b", (8,))
        p = graph.device.profiler

        run_program(graph, Exchange([RegionCopy(a, 0, 0, ((b, 0, 0),), 2)]))
        local = p.total_cycles
        p.reset()
        run_program(graph, Exchange([RegionCopy(a, 0, 0, ((b, 3, 0),), 2)]))
        remote = p.total_cycles
        assert local < remote


class TestControlFlow:
    def test_repeat(self, graph):
        v = graph.add_variable("x", (4,))
        eng = run_program(graph, Repeat(5, Execute(make_inc_cs(v))))
        np.testing.assert_array_equal(eng.read(v), np.full(4, 5.0))
        assert eng.loop_iterations == 5

    def test_repeat_while_counts_down(self, graph):
        # cond = x[0] stays nonzero until decremented to 0.
        cond = graph.add_single_tile("cond", ())
        cond.scatter(3.0)
        dec = Codelet("dec", run=lambda ctx: ctx["c"].__isub__(1.0), cycles=lambda ctx: 6)
        cs = ComputeSet("dec_cs")
        cs.add_vertex(dec, 0, {"c": cond.shard(0).data})
        eng = run_program(graph, RepeatWhile(cond, Execute(cs)))
        assert eng.read_scalar(cond) == 0.0
        assert eng.loop_iterations == 3

    def test_repeat_while_max_iterations(self, graph):
        cond = graph.add_single_tile("cond", ())
        cond.scatter(1.0)  # never changes -> must hit the safety net
        eng = run_program(graph, RepeatWhile(cond, Sequence([]), max_iterations=7))
        assert eng.loop_iterations == 7

    def test_repeat_while_cap_without_first_check(self, graph):
        # check_before_first=False: the cap must still hold even though the
        # condition is only consulted from the second iteration on.
        cond = graph.add_single_tile("cond", ())
        cond.scatter(1.0)
        eng = run_program(
            graph,
            RepeatWhile(cond, Sequence([]), max_iterations=5, check_before_first=False),
        )
        assert eng.loop_iterations == 5

    def test_repeat_while_no_first_check_runs_body_once(self, graph):
        # With a zero condition and check_before_first=False the body still
        # executes exactly once (do-while semantics).
        cond = graph.add_single_tile("cond", ())
        cond.scatter(0.0)
        v = graph.add_variable("x", (4,))
        eng = run_program(
            graph,
            RepeatWhile(cond, Execute(make_inc_cs(v)), max_iterations=9,
                        check_before_first=False),
        )
        assert eng.loop_iterations == 1
        np.testing.assert_array_equal(eng.read(v), np.ones(4))

    def test_if_branches(self, graph):
        cond = graph.add_single_tile("cond", ())
        v = graph.add_variable("x", (4,))
        cond.scatter(1.0)
        run_program(graph, If(cond, Execute(make_inc_cs(v)), None))
        assert v.gather()[0] == 1.0
        cond.scatter(0.0)
        run_program(graph, If(cond, Execute(make_inc_cs(v)), Execute(make_inc_cs(v, 10.0))))
        assert v.gather()[0] == 11.0

    def test_host_callback(self, graph):
        seen = []
        eng = run_program(graph, HostCallback(lambda e: seen.append(e)))
        assert seen == [eng]
        assert eng.host_callbacks == 1

    def test_unknown_step_rejected_at_compile(self, graph):
        with pytest.raises(TypeError):
            compile_program(graph, object(), optimize=False)

    def test_raw_graph_construction_rejected(self, graph):
        # The deprecated Engine(graph) + engine.run(step) path is gone.
        with pytest.raises(TypeError, match="CompiledProgram"):
            Engine(graph)

    def test_read_scalar_requires_scalar(self, graph):
        v = graph.add_variable("x", (4,))
        eng = Engine(compile_program(graph, Sequence([]), optimize=False))
        with pytest.raises(ValueError):
            eng.read_scalar(v)


class TestReadScalar:
    def test_read_scalar_sums_double_word_shards(self, graph):
        # A dw scalar shards into (hi, lo) float32 pairs; read_scalar must
        # return hi + lo, not just the hi word.
        value = 1.0 + 2.0**-30  # exactly representable as two f32 words
        s = graph.add_replicated("s", (), dtype="dw")
        s.scatter(value)
        eng = Engine(compile_program(graph, Sequence([]), optimize=False))
        got = eng.read_scalar(s)
        assert got == value
        assert got != float(np.float32(value))  # the lo word actually contributed

    def test_read_scalar_single_word(self, graph):
        s = graph.add_single_tile("s", ())
        s.scatter(2.5)
        eng = Engine(compile_program(graph, Sequence([]), optimize=False))
        assert eng.read_scalar(s) == 2.5


class TestDeterminism:
    def test_same_program_same_cycles(self):
        def run_once():
            g = Graph(IPUDevice(tiles_per_ipu=4))
            v = g.add_variable("x", (16,))
            v.scatter(np.arange(16))
            eng = run_program(g, Repeat(10, Execute(make_inc_cs(v))))
            return g.device.profiler.total_cycles, eng.read(v)

        c1, v1 = run_once()
        c2, v2 = run_once()
        assert c1 == c2
        np.testing.assert_array_equal(v1, v2)

    def test_fused_backend_matches_sim_numerics(self):
        def run_once(backend):
            g = Graph(IPUDevice(tiles_per_ipu=4))
            v = g.add_variable("x", (16,))
            v.scatter(np.arange(16))
            # ``sim`` steps every vertex under a cycle tracer.
            eng = run_program(g, Repeat(10, Execute(make_inc_cs(v))), backend=backend,
                              tracer=Tracer() if backend == "sim" else None)
            return g.device.profiler.total_cycles, eng.read(v)

        sim_cycles, sim_v = run_once("sim")
        fused_cycles, fused_v = run_once("fused")
        np.testing.assert_array_equal(sim_v, fused_v)
        assert sim_cycles > 0
        assert fused_cycles == 0  # the fused backend never touches the profiler


class TestCompilerStats:
    def test_collect_stats(self, graph):
        v = graph.add_variable("x", (8,))
        cs = make_inc_cs(v)
        body = Sequence([Execute(cs), Exchange([])])
        prog = Sequence([Repeat(3, body), HostCallback(lambda e: None)])
        stats = collect_stats(prog)
        assert stats.compute_sets == 1
        assert stats.vertices == 4
        assert stats.exchanges == 1
        assert stats.host_callbacks == 1
        assert stats.compile_proxy > 0

    def test_shared_compute_set_counted_once(self, graph):
        v = graph.add_variable("x", (8,))
        cs = make_inc_cs(v)
        prog = Sequence([Execute(cs), Execute(cs)])
        stats = collect_stats(prog)
        assert stats.compute_sets == 1
        assert stats.vertices == 4
