"""Tests for TensorDSL: lazy expressions, materialization, reductions, precision."""

import numpy as np
import pytest

from repro.graph import collect_stats
from repro.machine import IPUDevice
from repro.tensordsl import TensorContext, Type


@pytest.fixture
def ctx():
    return TensorContext(IPUDevice(tiles_per_ipu=4))


class TestLazyExpressions:
    def test_operators_stay_lazy(self, ctx):
        x = ctx.tensor((8,), data=np.arange(8))
        y = x * 4 + 1
        assert not y.is_materialized
        # Nothing was appended to the schedule yet.
        assert len(ctx.root.steps) == 0

    def test_materialize_fuses_into_one_step(self, ctx):
        x = ctx.tensor((8,), data=np.arange(8))
        y = ((x * 4 + 1) / 2 - 3).materialize()
        # One compute set total, despite four operators (delayed
        # materialization, Sec. III-C).
        stats = collect_stats(ctx.root)
        assert stats.compute_sets == 1
        ctx.run()
        np.testing.assert_allclose(y.value(), (np.arange(8) * 4 + 1) / 2 - 3)

    def test_eager_mode_materializes_each_op(self):
        ctx = TensorContext(IPUDevice(tiles_per_ipu=4), eager=True)
        x = ctx.tensor((8,), data=np.arange(8))
        y = (x * 4) + 1
        assert y.is_materialized
        stats = collect_stats(ctx.root)
        assert stats.compute_sets == 2  # one per operator — the ablation baseline

    def test_scalar_broadcasting(self, ctx):
        x = ctx.tensor((8,), data=np.ones(8))
        a = ctx.scalar(3.0)
        y = (x * a + a).materialize()
        ctx.run()
        np.testing.assert_allclose(y.value(), np.full(8, 6.0))

    def test_elementwise_ops(self, ctx):
        x = ctx.tensor((8,), data=np.linspace(1, 8, 8))
        y = ctx.tensor((8,), data=np.linspace(8, 1, 8))
        out = {
            "+": (x + y),
            "-": (x - y),
            "*": (x * y),
            "/": (x / y),
            "neg": (-x),
            "abs": abs(x - 5.0),
            "sqrt": x.sqrt(),
        }
        mats = {k: v.materialize() for k, v in out.items()}
        ctx.run()
        xa, ya = np.linspace(1, 8, 8), np.linspace(8, 1, 8)
        np.testing.assert_allclose(mats["+"].value(), xa + ya, rtol=1e-6)
        np.testing.assert_allclose(mats["-"].value(), xa - ya, rtol=1e-6)
        np.testing.assert_allclose(mats["*"].value(), xa * ya, rtol=1e-6)
        np.testing.assert_allclose(mats["/"].value(), xa / ya, rtol=1e-6)
        np.testing.assert_allclose(mats["neg"].value(), -xa, rtol=1e-6)
        np.testing.assert_allclose(mats["abs"].value(), np.abs(xa - 5), rtol=1e-6)
        np.testing.assert_allclose(mats["sqrt"].value(), np.sqrt(xa), rtol=1e-6)

    def test_reverse_operators(self, ctx):
        x = ctx.tensor((4,), data=np.array([1.0, 2.0, 4.0, 8.0]))
        y = (1.0 / x).materialize()
        z = (10.0 - x).materialize()
        w = (2.0 + x).materialize()
        v = (3.0 * x).materialize()
        ctx.run()
        np.testing.assert_allclose(y.value(), [1, 0.5, 0.25, 0.125])
        np.testing.assert_allclose(z.value(), [9, 8, 6, 2])
        np.testing.assert_allclose(w.value(), [3, 4, 6, 10])
        np.testing.assert_allclose(v.value(), [3, 6, 12, 24])

    def test_mismatched_mappings_rejected(self, ctx):
        x = ctx.tensor((8,))
        y = ctx.tensor((8,), tile_ids=[0, 1])  # different distribution
        with pytest.raises(ValueError):
            (x + y).materialize()

    def test_cross_context_rejected(self, ctx):
        other = TensorContext(IPUDevice(tiles_per_ipu=4))
        x = ctx.tensor((4,))
        y = other.tensor((4,))
        with pytest.raises(ValueError):
            _ = x + y


class TestAssignment:
    def test_assign_updates_in_place(self, ctx):
        x = ctx.tensor((8,), data=np.zeros(8))
        x.assign(x + 1.0)
        x.assign(x * 3.0)
        ctx.run()
        np.testing.assert_allclose(x.value(), np.full(8, 3.0))

    def test_assign_scalar_value(self, ctx):
        x = ctx.tensor((4,), data=np.arange(4))
        x.assign(7.0)
        ctx.run()
        np.testing.assert_allclose(x.value(), np.full(4, 7.0))

    def test_assign_requires_materialized_target(self, ctx):
        x = ctx.tensor((4,))
        lazy = x + 1
        with pytest.raises(ValueError):
            lazy.assign(x)


class TestReductions:
    def test_reduce_sum(self, ctx):
        x = ctx.tensor((100,), data=np.arange(100))
        s = x.reduce()
        ctx.run()
        assert s.value() == pytest.approx(4950.0)

    def test_fused_dot_product(self, ctx):
        a = ctx.tensor((64,), data=np.full(64, 2.0))
        b = ctx.tensor((64,), data=np.full(64, 3.0))
        d = a.dot(b)
        # The multiply fuses into the partial-reduce codelet: no separate
        # elementwise compute set.
        stats = collect_stats(ctx.root)
        assert stats.compute_sets == 2  # partial + combine only
        ctx.run()
        assert d.value() == pytest.approx(64 * 6.0)

    def test_norm2(self, ctx):
        x = ctx.tensor((2,), data=np.array([3.0, 4.0]), tile_ids=[0, 1])
        n = x.norm2()
        ctx.run()
        assert n.value() == pytest.approx(5.0)

    def test_reduce_result_is_replicated(self, ctx):
        x = ctx.tensor((16,), data=np.ones(16))
        s = x.reduce()
        ctx.run()
        for t in s.var.tile_ids:
            assert s.var.shard(t).data[0] == 16.0

    def test_reduce_charges_reduce_category(self, ctx):
        x = ctx.tensor((64,), data=np.ones(64))
        x.reduce()
        ctx.run()
        assert ctx.device.profiler.category("reduce") > 0
        assert ctx.device.profiler.category("exchange") > 0


class TestPrecision:
    def test_dw_expression_beats_float32(self, ctx):
        # Accumulating 1e5 well-scaled values: f32 loses ~4 digits, dw keeps ~13.
        rng = np.random.default_rng(2)
        data = rng.uniform(0.9, 1.1, 4096)
        x32 = ctx.tensor((4096,), data=data)
        xdw = ctx.tensor((4096,), dtype=Type.DOUBLEWORD, data=data)
        s32 = x32.reduce()
        sdw = xdw.reduce()
        ctx.run()
        exact = data.sum()
        assert abs(sdw.value() - exact) < abs(s32.value() - exact) / 10 + 1e-12
        assert abs(sdw.value() - exact) / exact < 1e-10

    def test_astype_roundtrip(self, ctx):
        data = np.array([np.pi, np.e, 1 + 1e-9, -2.5])
        x = ctx.tensor((4,), dtype=Type.DOUBLEWORD, data=data)
        y = x.astype(Type.FLOAT32).materialize()
        z = x.astype(Type.FLOAT64).materialize()
        ctx.run()
        np.testing.assert_allclose(y.value(), data.astype(np.float32))
        np.testing.assert_allclose(z.value(), data, rtol=2**-45)

    def test_mixed_precision_promotes(self, ctx):
        a = ctx.tensor((4,), data=np.ones(4))
        b = ctx.tensor((4,), dtype=Type.DOUBLEWORD, data=np.ones(4))
        assert (a + b).dtype == Type.DOUBLEWORD
        c = ctx.tensor((4,), dtype=Type.FLOAT64, data=np.ones(4))
        assert (b + c).dtype == Type.FLOAT64

    def test_extended_precision_profiler_bucket(self, ctx):
        x = ctx.tensor((64,), dtype=Type.DOUBLEWORD, data=np.ones(64))
        (x * 2.0).materialize()
        ctx.run()
        assert ctx.device.profiler.category("extended_precision") > 0

    def test_dw_ops_cost_more_cycles(self):
        def cycles(dtype):
            c = TensorContext(IPUDevice(tiles_per_ipu=4))
            x = c.tensor((600,), dtype=dtype, data=np.ones(600))
            (x * 2.0 + 1.0).materialize()
            c.run()
            return c.device.profiler.total_cycles

        assert cycles(Type.DOUBLEWORD) > 4 * cycles(Type.FLOAT32)
        assert cycles(Type.FLOAT64) > 4 * cycles(Type.DOUBLEWORD)


class TestControlFlow:
    def test_if_true_branch(self, ctx):
        x = ctx.tensor((4,), data=np.zeros(4))
        flag = ctx.scalar(1.0)
        ctx.If(flag, lambda: x.assign(x + 1.0), lambda: x.assign(x - 1.0))
        ctx.run()
        np.testing.assert_allclose(x.value(), np.ones(4))

    def test_if_on_comparison_expr(self, ctx):
        x = ctx.tensor((4,), data=np.zeros(4))
        a = ctx.scalar(2.0)
        ctx.If(a > 1.0, lambda: x.assign(x + 5.0))
        ctx.run()
        np.testing.assert_allclose(x.value(), np.full(4, 5.0))

    def test_while_loop(self, ctx):
        # Count down: cond = (counter > 0), decrement in body.
        counter = ctx.scalar(5.0)
        total = ctx.scalar(0.0)
        running = ctx.scalar(1.0)

        def body():
            total.assign(total + counter)
            counter.assign(counter - 1.0)
            running.assign(counter > 0.0)

        ctx.While(running, body)
        ctx.run()
        assert total.value() == pytest.approx(15.0)  # 5+4+3+2+1

    def test_repeat(self, ctx):
        x = ctx.tensor((4,), data=np.zeros(4))
        ctx.Repeat(7, lambda: x.assign(x + 2.0))
        ctx.run()
        np.testing.assert_allclose(x.value(), np.full(4, 14.0))

    def test_while_condition_must_be_scalar(self, ctx):
        v = ctx.tensor((4,))
        with pytest.raises(ValueError):
            ctx.While(v, lambda: None)


class TestPaperFig1:
    """End-to-end reproduction of the paper's Fig. 1: pi via Leibniz."""

    def test_pi_example(self, capsys):
        ctx = TensorContext(IPUDevice(tiles_per_ipu=4))
        # Create a TensorDSL tensor.
        x = ctx.tensor((10_000,), Type.FLOAT32)

        # Fill it with the Leibniz sequence using CodeDSL (tile-centric; each
        # tile fills its own shard — offsets shift the series per tile, so we
        # pass a per-tile offset via a second tensor).
        starts = sorted(x.var.mapping[:, 1].tolist())
        offsets = ctx.tensor((4,), data=np.array(starts, dtype=np.float32), tile_ids=[0, 1, 2, 3])
        from repro.codedsl import For, Select

        ctx.Execute([x, offsets], lambda xs, off: For(
            0, xs.size, 1,
            lambda i: xs.set(i, Select((i + off[0]) % 2 == 0, 1.0, -1.0) / (2 * (i + off[0]) + 1)),
        ))

        # Calculate pi from the sequence using TensorDSL.
        pi = (x.reduce() * 4).materialize()
        ctx.If(abs(pi - 3.141) < 0.001, lambda: ctx.print("We found pi!"))
        ctx.run()
        assert pi.value() == pytest.approx(np.pi, abs=1e-3)
        assert "We found pi!" in capsys.readouterr().out


class TestHostInteraction:
    def test_callback_reads_live_values(self, ctx):
        x = ctx.tensor((4,), data=np.zeros(4))
        seen = []
        ctx.Repeat(3, lambda: (
            x.assign(x + 1.0),
            ctx.callback(lambda e: seen.append(x.value()[0])),
        ))
        ctx.run()
        assert seen == [1.0, 2.0, 3.0]

    def test_value_requires_materialized(self, ctx):
        x = ctx.tensor((4,))
        with pytest.raises(ValueError):
            (x + 1).value()
