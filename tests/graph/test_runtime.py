"""Tests for the runtime: the one backend class, plan lowering, and the
sim/fused pair.

The contract under test is the one ``docs/runtime.md`` documents: both
names run the same compiled program, ``sim`` attaches the cycle clock, and
``fused`` is bit-identical on numerics while leaving the profiler
untouched.
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
    RegionCopy,
    Repeat,
    Sequence,
    compile_program,
)
from repro.errors import BackendCapabilityError
from repro.graph.engine import CONTROL_CYCLES as ENGINE_CONTROL_CYCLES
from repro.graph.runtime import Backend, CONTROL_CYCLES
from repro.machine import IPUDevice
from repro.telemetry import Tracer


def make_graph(tiles=4):
    return Graph(IPUDevice(tiles_per_ipu=tiles))


def inc_cs(var, amount=1.0):
    cl = Codelet(
        "inc",
        run=lambda ctx: ctx["x"].__iadd__(np.float32(amount)),
        cycles=lambda ctx: 6 * len(ctx["x"]),
    )
    cs = ComputeSet("inc_cs")
    for t in var.tile_ids:
        cs.add_vertex(cl, t, {"x": var.shard(t).data})
    return cs


class TestBackend:
    def test_names_pick_the_cycle_clock(self):
        g = make_graph()
        compiled = compile_program(g, Execute(inc_cs(g.add_variable("x", (8,)))),
                                   optimize=False)
        assert Engine(compiled, backend="sim").backend.clock is g.device.profiler
        assert Engine(compiled, backend="fused").backend.clock is None

    def test_unknown_name_lists_available(self):
        with pytest.raises(ValueError, match="fused.*sim") as err:
            Backend("turbo")
        assert isinstance(err.value, BackendCapabilityError)
        assert err.value.exit_code == 15 and err.value.backend == "turbo"

    def test_bad_spec_type(self):
        # Only the two names select a backend: anything else is an unknown one.
        with pytest.raises(BackendCapabilityError):
            Backend(42)

    def test_control_cycles_reexported(self):
        assert ENGINE_CONTROL_CYCLES == CONTROL_CYCLES


class TestAttach:
    def test_one_call_binds_every_observer_and_points_the_injector_at_the_tracer(self):
        from repro.faults import FaultInjector, FaultPlan
        from repro.telemetry import WallTracer

        g = make_graph()
        v = g.add_variable("x", (8,))
        compiled = compile_program(g, Execute(inc_cs(v)), optimize=False)
        tracer, wall = Tracer(), WallTracer()
        injector = FaultInjector(FaultPlan.parse("bitflip:p=0.1"))
        engine = Engine(compiled, tracer=tracer, injector=injector, wall_tracer=wall)
        backend = engine.backend
        assert backend.clock is g.device.profiler
        assert (backend.tracer, backend.injector, backend.wall_tracer) == (
            tracer, injector, wall)
        assert injector.tracer is tracer
        assert tracer.device is injector.device is wall.device is g.device
        # The same instance starts its next run unobserved.
        backend.attach()
        assert backend.tracer is backend.injector is backend.wall_tracer is None


class TestPlanLowering:
    def test_compiled_program_carries_plans(self):
        g = make_graph()
        v = g.add_variable("x", (8,))
        ex = Execute(inc_cs(v))
        compiled = compile_program(g, Sequence([ex]), optimize=False)
        assert ex in compiled.plans
        plan = compiled.plan_for(ex)
        assert plan.worst_tile == 12  # 2 elements/tile * 6 cycles
        assert len(plan.vertices) == 4

    def test_shared_compute_set_planned_once(self):
        g = make_graph()
        v = g.add_variable("x", (8,))
        cs = inc_cs(v)
        e1, e2 = Execute(cs), Execute(cs)
        compiled = compile_program(g, Sequence([e1, e2]), optimize=False)
        assert compiled.plan_for(e1) is compiled.plan_for(e2)

    def test_loop_body_planned_once(self):
        g = make_graph()
        v = g.add_variable("x", (8,))
        ex = Execute(inc_cs(v))
        compiled = compile_program(g, Repeat(3, ex), optimize=False)
        assert len(compiled.plans) == 1
        assert compiled.plan_for(ex).worst_tile == 12

    def test_single_region_copy_lowers_to_slices(self):
        g = make_graph()
        a = g.add_variable("a", (8,))
        b = g.add_variable("b", (8,))
        ex = Exchange([RegionCopy(a, 0, 0, ((b, 1, 0),), 2)])
        compiled = compile_program(g, ex, optimize=False)
        plan = compiled.plan_for(ex)
        assert plan.vectorized
        assert len(plan.ops) == 1
        assert plan.ops[0].src_index == slice(0, 2)
        assert plan.ops[0].dst_index == slice(0, 2)

    def test_multi_segment_copies_fuse_to_fancy_index(self):
        g = make_graph(tiles=2)
        a = g.add_variable("a", (8,))  # tile0: 0..4, tile1: 4..8
        b = g.add_variable("b", (8,))
        a.scatter(np.arange(8))
        # Two disjoint segments between the same shard pair fuse into one op.
        ex = Exchange([
            RegionCopy(a, 0, 0, ((b, 1, 0),), 1),
            RegionCopy(a, 0, 2, ((b, 1, 2),), 2),
        ])
        compiled = compile_program(g, ex, optimize=False)
        plan = compiled.plan_for(ex)
        assert plan.vectorized
        assert len(plan.ops) == 1
        np.testing.assert_array_equal(plan.ops[0].src_index, [0, 2, 3])
        eng = Engine(compiled)
        eng.run()
        out = eng.read(b)
        np.testing.assert_array_equal(out[4:8], [0.0, 0.0, 2.0, 3.0])

    def test_overlap_hazard_falls_back_to_ordered_copies(self):
        g = make_graph()
        a = g.add_variable("a", (8,))
        b = g.add_variable("b", (8,))
        c = g.add_variable("c", (8,))
        a.scatter(np.arange(8))
        # The second copy reads b@tile1, which the first copy writes: the
        # plan must keep strict program order so c sees a's data.
        ex = Exchange([
            RegionCopy(a, 0, 0, ((b, 1, 0),), 2),
            RegionCopy(b, 1, 0, ((c, 2, 0),), 2),
        ])
        compiled = compile_program(g, ex, optimize=False)
        plan = compiled.plan_for(ex)
        assert not plan.vectorized
        assert len(plan.ops) == 2
        eng = Engine(compiled)
        eng.run()
        np.testing.assert_array_equal(eng.read(c)[4:6], [0.0, 1.0])

    def test_broadcast_keeps_per_destination_ops(self):
        g = make_graph()
        a = g.add_variable("a", (4,))
        r = g.add_replicated("r", (1,))
        a.scatter([7.0, 0, 0, 0])
        ex = Exchange([RegionCopy(a, 0, 0, tuple((r, t, 0) for t in range(4)), 1)])
        compiled = compile_program(g, ex, optimize=False)
        plan = compiled.plan_for(ex)
        assert plan.vectorized
        assert len(plan.ops) == 4  # one per destination shard array
        eng = Engine(compiled)
        eng.run()
        for t in range(4):
            assert r.shard(t).data[0] == 7.0

    def test_transfers_precomputed_for_fabric(self):
        g = make_graph()
        a = g.add_variable("a", (8,))
        b = g.add_variable("b", (8,))
        ex = Exchange([RegionCopy(a, 0, 0, ((b, 0, 0), (b, 3, 0)), 2)])
        compiled = compile_program(g, ex, optimize=False)
        plan = compiled.plan_for(ex)
        # The on-tile destination stays out of the fabric transfer.
        assert len(plan.transfers) == 1
        assert plan.transfers[0].dst_tiles == (3,)
        assert plan.transfers[0].nbytes == 8
        assert plan.local_cycles == 1  # ceil(8 B / 8 B-per-cycle)


class TestFusedBackend:
    def _program(self, backend, tracer=None):
        g = make_graph()
        v = g.add_variable("x", (8,))
        a = g.add_variable("a", (8,))
        v.scatter(np.arange(8))
        root = Sequence([
            Repeat(3, Execute(inc_cs(v, 0.5))),
            Exchange([RegionCopy(v, 0, 0, ((a, 3, 0),), 2)]),
        ])
        eng = Engine(compile_program(g, root, optimize=False), backend=backend,
                     tracer=tracer)
        eng.run()
        return g, eng

    def test_numerics_bit_identical_to_sim(self):
        g_sim, eng_sim = self._program("sim", tracer=Tracer())  # stepped per vertex
        g_fused, eng_fused = self._program("fused")
        np.testing.assert_array_equal(
            eng_sim.read(g_sim.variables["x"]), eng_fused.read(g_fused.variables["x"])
        )
        np.testing.assert_array_equal(
            eng_sim.read(g_sim.variables["a"]), eng_fused.read(g_fused.variables["a"])
        )

    def test_no_cycle_accounting(self):
        g, eng = self._program("fused")
        assert g.device.profiler.total_cycles == 0
        assert eng.backend.name == "fused"
        # Engine-level counters still track control flow.
        assert eng.supersteps == 3
        assert eng.exchanges == 1
        assert eng.loop_iterations == 3

    @pytest.mark.parametrize("kind", ["execute", "exchange"])
    def test_bare_step_root_is_one_kernel_launch(self, kind):
        """No interpreter under the kernels: a program whose root is a bare
        ``Execute`` / ``Exchange`` (no enclosing block) still reaches the
        backend as the one kernel lowered for it — on ``fused`` and on an
        unobserved ``sim``, which also charges it; a cycle tracer steps it."""
        state, cycles = {}, {}
        for path, backend, tracer in (("stepped", "sim", Tracer()),
                                      ("sim", "sim", None), ("fused", "fused", None)):
            g = make_graph()
            v = g.add_variable("x", (8,))
            a = g.add_variable("a", (8,))
            v.scatter(np.arange(8))
            root = (Execute(inc_cs(v, 0.5)) if kind == "execute"
                    else Exchange([RegionCopy(v, 0, 0, ((a, 3, 0),), 2)]))
            eng = Engine(compile_program(g, root, optimize=False), backend=backend,
                         tracer=tracer)
            eng.run()
            kc = eng.kernel_counters()
            launches = 0 if tracer is not None else 1
            assert kc["kernels"] == kc["dispatches"] == launches
            assert (eng.supersteps, eng.exchanges) == (
                (1, 0) if kind == "execute" else (0, 1))
            state[path] = np.concatenate([eng.read(v), eng.read(a)])
            cycles[path] = g.device.profiler.by_category()
        np.testing.assert_array_equal(state["fused"], state["stepped"])
        np.testing.assert_array_equal(state["sim"], state["stepped"])
        assert state["stepped"].any()
        assert cycles["sim"] == cycles["stepped"] and cycles["fused"] == {}

    def test_fused_refuses_to_interpret_a_bare_step(self):
        """Per-step numerics live on ``sim`` only: a step handed to the
        kernel backend directly is reported as a lowering bug."""
        v = make_graph().add_variable("x", (8,))
        backend = Backend("fused")
        for run in (backend.run_compute_set, backend.run_exchange):
            with pytest.raises(RuntimeError, match="lowering bug"):
                run(Execute(inc_cs(v)))

    def test_sim_accounts_cycles(self):
        g, eng = self._program("sim")
        prof = g.device.profiler
        sync = g.device.model.sync()
        assert prof.category("control") == 3 * CONTROL_CYCLES
        assert prof.category("elementwise") == 3 * (sync + 12)
        assert prof.category("exchange") > 0

    def test_solve_fused_matches_sim_bit_for_bit(self):
        from repro.solvers import solve
        from repro.sparse import poisson2d

        crs, dims = poisson2d(8)
        b = np.ones(64)
        cfg = '{"solver": "cg", "tol": 1e-8, "max_iterations": 40}'
        sim = solve(crs, b, cfg, tiles_per_ipu=4, grid_dims=dims, backend="sim",
                    trace=True)
        fused = solve(crs, b, cfg, tiles_per_ipu=4, grid_dims=dims, backend="fused")
        np.testing.assert_array_equal(sim.x, fused.x)
        assert sim.stats.total_iterations == fused.stats.total_iterations
        assert sim.backend == "sim" and fused.backend == "fused"
        assert sim.cycles > 0
        assert fused.cycles == 0
