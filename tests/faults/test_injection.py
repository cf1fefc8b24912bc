"""FaultInjector behavior against the sim backend: determinism, off-plan
bit-identity, per-kind mechanics, backend gating, telemetry integration."""

import numpy as np
import pytest

from repro.bench.harness import ipu_spmv_run
from repro.errors import SRAMOverflowError
from repro.faults import FaultInjector, FaultPlan
from repro.machine import IPUDevice
from repro.sparse import poisson3d
from repro.sparse.distribute import DistributedMatrix
from repro.tensordsl import TensorContext


def _spmv_result(injector=None, tracer=None, repeats=4):
    """One traced/injected SpMV program; returns (y, cycles, engine)."""
    crs, dims = poisson3d(8)
    device = IPUDevice(num_ipus=2, tiles_per_ipu=16)
    ctx = TensorContext(device)
    A = DistributedMatrix(ctx, crs, grid_dims=dims)
    x = A.vector(data=np.random.default_rng(0).standard_normal(crs.n))
    y = A.vector()
    ctx.Repeat(repeats, lambda: A.spmv(x, y))
    engine = ctx.run(injector=injector, tracer=tracer)
    return y.read_global(), device.profiler.total_cycles, engine


class TestDeterminism:
    def test_same_plan_same_injections_tensors_cycles(self):
        plan = FaultPlan.parse("seed=11;bitflip:p=0.3,where=exchange")
        inj1, inj2 = FaultInjector(plan), FaultInjector(plan)
        y1, c1, _ = _spmv_result(injector=inj1)
        y2, c2, _ = _spmv_result(injector=inj2)
        assert [r.to_dict() for r in inj1.records] == [r.to_dict() for r in inj2.records]
        assert len(inj1.records) > 0
        assert np.array_equal(y1, y2)
        assert c1 == c2

    def test_different_seed_different_schedule(self):
        recs = []
        for seed in (11, 12):
            inj = FaultInjector(FaultPlan.parse(f"seed={seed};bitflip:p=0.3"))
            _spmv_result(injector=inj)
            recs.append([r.to_dict() for r in inj.records])
        assert recs[0] != recs[1]

    def test_no_injector_bit_identical_to_zero_p_plan(self):
        # An attached injector whose draws never fire must not perturb the
        # run: same tensors, same cycles as no injector at all.
        y0, c0, _ = _spmv_result(injector=None)
        inj = FaultInjector(FaultPlan.parse("seed=5;bitflip:p=0.0"))
        y1, c1, _ = _spmv_result(injector=inj)
        assert inj.records == []
        assert np.array_equal(y0, y1)
        assert c0 == c1


class TestKinds:
    def test_exchange_bitflip_changes_numerics_not_cycles(self):
        y0, c0, _ = _spmv_result()
        inj = FaultInjector(FaultPlan.parse("seed=11;bitflip:p=0.5,where=exchange"))
        y1, c1, _ = _spmv_result(injector=inj)
        assert any(r.kind == "bitflip" for r in inj.records)
        assert not np.array_equal(y0, y1)  # corruption reached the output
        assert c0 == c1  # bitflips are free in time

    def test_sram_bitflip_records_tile_and_shard(self):
        inj = FaultInjector(FaultPlan.parse("seed=9;bitflip:p=0.5,where=sram"))
        _spmv_result(injector=inj)
        assert inj.records
        detail = inj.records[0].to_dict()
        assert detail["where"] == "sram"
        assert "tile" in detail and "shard" in detail and "bit" in detail

    def test_link_stall_adds_exact_extra_cycles(self):
        _, c0, engine = _spmv_result()
        inj = FaultInjector(
            FaultPlan.parse("seed=2;link_stall:ipus=0-1,cycles=777,p=1.0"))
        y1, c1, _ = _spmv_result(injector=inj)
        stalls = [r for r in inj.records if r.kind == "link_stall"]
        assert stalls  # the halo exchange crosses the 0-1 IPU pair
        assert c1 - c0 == 777 * len(stalls)
        # stalls slow the clock but never touch data
        y0, _, _ = _spmv_result()
        assert np.array_equal(y0, y1)

    def test_link_stall_ignores_uncrossed_pair(self):
        _, c0, _ = _spmv_result()
        inj = FaultInjector(
            FaultPlan.parse("seed=2;link_stall:ipus=5-6,cycles=777,p=1.0"))
        _, c1, _ = _spmv_result(injector=inj)
        assert inj.records == []
        assert c0 == c1

    def test_tile_oom_raises_structured_overflow(self):
        inj = FaultInjector(FaultPlan.parse("seed=1;tile_oom:tile=3,at=2"))
        with pytest.raises(SRAMOverflowError) as exc_info:
            _spmv_result(injector=inj)
        assert exc_info.value.tile_id == 3
        assert "superstep 2" in str(exc_info.value)
        assert inj.records[-1].kind == "tile_oom"

    def test_disabled_kind_is_skipped(self):
        plan = FaultPlan.parse("seed=1;tile_oom:tile=3,at=2")
        inj = FaultInjector(plan, disabled={"tile_oom"})
        _spmv_result(injector=inj)  # completes: the OOM never fires
        assert inj.records == []


class TestBenchHarness:
    def test_ipu_spmv_run_threads_injector(self):
        crs, dims = poisson3d(8)
        kw = dict(grid_dims=dims, num_ipus=2, tiles_per_ipu=16)
        base = ipu_spmv_run(crs, **kw)
        inj = FaultInjector(
            FaultPlan.parse("seed=2;link_stall:ipus=0-1,cycles=500,p=1.0"))
        run = ipu_spmv_run(crs, injector=inj, **kw)
        stalls = [r for r in inj.records if r.kind == "link_stall"]
        assert stalls
        assert run.total_cycles - base.total_cycles == 500 * len(stalls)


class TestGatingAndTelemetry:
    def test_fused_backend_rejects_injector(self):
        crs, dims = poisson3d(8)
        device = IPUDevice(num_ipus=1, tiles_per_ipu=8)
        ctx = TensorContext(device)
        A = DistributedMatrix(ctx, crs, grid_dims=dims)
        x = A.vector(data=np.ones(crs.n))
        y = A.vector()
        A.spmv(x, y)
        inj = FaultInjector(FaultPlan.parse("bitflip:p=0.1"))
        with pytest.raises(ValueError, match="backend sim"):
            ctx.run(backend="fused", injector=inj)

    def test_faults_emit_tracer_instants(self):
        from repro.telemetry import Tracer

        tracer = Tracer()
        inj = FaultInjector(FaultPlan.parse("seed=11;bitflip:p=0.5"))
        _spmv_result(injector=inj, tracer=tracer)
        instants = [e for e in tracer.events
                    if type(e).__name__ == "InstantEvent" and e.name == "fault"]
        assert len(instants) == len(inj.records)
        assert all(e.args["kind"] == "bitflip" for e in instants)
        # fault timestamps sit on the BSP cycle timeline
        assert all(e.ts <= tracer.now() for e in instants)
