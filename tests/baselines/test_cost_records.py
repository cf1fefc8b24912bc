"""One cost record per plan, priced on first read.

A ``fused`` solve that no cycle clock or wall tracer observes reads no
plan's cost, so a cold build prices nothing: no LPT packing, no fabric
pricing, no byte/flop estimate.  A ``sim`` solve prices each plan exactly
once however many launches run, and charges what the recorded parent build
charged (``build_identity.json``'s cycles).
"""

import json
from collections import Counter
from contextlib import ExitStack, contextmanager
from unittest import mock

import numpy as np
import pytest
from test_build_identity import GOLDEN, MPIR_FIG8, _cases

from repro.graph.passes import costs, plans
from repro.machine.fabric import ExchangeFabric
from repro.solvers import ProgramCache, solve
from repro.sparse import poisson2d
from repro.sparse.suitesparse import g3_circuit_like
from repro.telemetry import WallTracer

CG = {"solver": "cg", "tol": 1e-6}


@contextmanager
def counting():
    """Count every call of the pricing functions: ``{name: mock}``; the
    ``price_*`` mocks record which plan each record was priced for."""
    with ExitStack() as stack:
        mocks = {name: stack.enter_context(mock.patch.object(
            costs, name, wraps=getattr(costs, name)))
            for name in ("lpt_makespan", "estimate_group", "copy_bytes")}
        mocks["fabric"] = stack.enter_context(mock.patch.object(
            ExchangeFabric, "run", autospec=True, side_effect=ExchangeFabric.run))
        for name in ("price_compute", "price_exchange"):
            mocks[name] = stack.enter_context(mock.patch.object(
                plans, name, wraps=getattr(plans, name)))
        yield mocks


def priced(mocks) -> Counter:
    """How often each plan (by identity) was priced."""
    return Counter(id(call.args[0]) for name in ("price_compute", "price_exchange")
                   for call in mocks[name].call_args_list)


def calls(mocks) -> dict:
    return {name: m.call_count for name, m in mocks.items()}


def _fused_cases():
    crs, dims = poisson2d(12)
    g3 = g3_circuit_like(grid=12)
    rng = np.random.default_rng(3)
    return {
        "cg": (crs, rng.standard_normal(crs.n), CG, dict(tiles_per_ipu=8, grid_dims=dims)),
        "cg_b4": (crs, rng.standard_normal((4, crs.n)), CG,
                  dict(tiles_per_ipu=8, grid_dims=dims)),
        "mpir_g3": (g3, rng.standard_normal(g3.n), MPIR_FIG8, dict(tiles_per_ipu=16)),
    }


@pytest.mark.parametrize("name", ["cg", "cg_b4", "mpir_g3"])
def test_a_cold_fused_solve_prices_nothing(name):
    crs, b, config, shape = _fused_cases()[name]
    with counting() as mocks:
        res = solve(crs, b, config, backend="fused", **shape)
    assert res.iterations > 0 and res.cycles == 0
    assert set(calls(mocks).values()) == {0}, calls(mocks)
    assert not any("cost" in vars(plan) for kernel in res.compiled.kernels.kernels
                   for plan in kernel.plans)


def test_a_cache_hit_on_fused_prices_nothing():
    crs, b, config, shape = _fused_cases()["cg"]
    cache = ProgramCache()
    with counting() as mocks:
        cold = solve(crs, b, config, backend="fused", cache=cache, **shape)
        hit = solve(crs, 2 * b, config, backend="fused", cache=cache, **shape)
    assert cache.stats()["hits"] == 1 and hit.compiled is cold.compiled
    assert set(calls(mocks).values()) == {0}, calls(mocks)


@pytest.mark.parametrize("name", ["cg_poisson3d16_2x16", "mpir_g3_12_1x16",
                                  "cg_poisson2d24_b8"])
def test_sim_prices_each_plan_once_and_charges_the_recorded_cycles(name):
    (crs, dims), config, (ipus, tiles), batch, _ = _cases()[name]
    want = json.loads(GOLDEN.read_text())[name]
    rng = np.random.default_rng(5)
    b = rng.standard_normal((batch, crs.n) if batch > 1 else crs.n)
    kwargs = dict(num_ipus=ipus, tiles_per_ipu=tiles, grid_dims=dims)
    cache = ProgramCache()
    with counting() as mocks:
        res = solve(crs, b, config, backend="sim", cache=cache, **kwargs)
        once = priced(mocks)
        again = solve(crs, b, config, backend="sim", cache=cache, **kwargs)
    assert int(res.cycles) == int(again.cycles) == want["cycles"]
    assert res.iterations == want["iterations"]
    every = {id(plan) for kernel in res.compiled.kernels.kernels for plan in kernel.plans}
    assert set(once) == every and set(once.values()) == {1}
    assert priced(mocks) == once  # the hit launches again, priced already
    assert res.engine.kernels > len(res.compiled.kernels.kernels)  # launched many times


def test_a_wall_tracer_prices_before_the_first_launch():
    """Every kernel's record exists before the first timed span opens, and
    the spans carry the records' estimates."""
    crs, b, config, shape = _fused_cases()["cg"]
    cache = ProgramCache()
    kernels = solve(crs, b, config, backend="fused", cache=cache, **shape).compiled.kernels
    assert not any("cost" in vars(p) for k in kernels.kernels for p in k.plans)
    priced_at_first_span = []
    record = WallTracer.kernel

    def spy(self, kernel, start):
        if not priced_at_first_span:
            priced_at_first_span.append(all("cost" in vars(p)
                                            for k in kernels.kernels for p in k.plans))
        record(self, kernel, start)

    wt = WallTracer()
    with mock.patch.object(WallTracer, "kernel", spy):
        res = solve(crs, b, config, backend="fused", cache=cache, wall_trace=wt, **shape)
    assert res.compiled.kernels is kernels and priced_at_first_span == [True]
    spans = [e for e in wt.events if e.args.get("kind") == "kernel"]
    by_name = {k.name: k.cost for k in kernels.kernels}
    assert spans and all(
        (e.args["est_bytes"], e.args["est_flops"])
        == (by_name[e.name].est_bytes, by_name[e.name].est_flops) for e in spans)
