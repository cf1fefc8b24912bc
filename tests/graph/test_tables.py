"""The program stays tables: a cold build makes no per-tile vertex or copy
objects.

Compute sets hold :class:`~repro.graph.codelet.VertexGroup` tables and
exchanges one int64 copy table each; a :class:`~repro.graph.codelet.Vertex`
exists only once a stepped ``sim`` run (cycle tracer or fault injector)
asks for one, and a :class:`~repro.graph.program.RegionCopy` only where a
small producer (multigrid, Schur, rectangular operators) writes one by hand.
The fig5-shape CG (``poisson3d:16`` on 2 x 16 tiles) builds and runs on
``fused`` and on untraced ``sim`` without either, and its compile report
reads as it did when both were built one per tile.  A dropped program is
freed by reference counting alone.
"""

import gc
import weakref
from collections import Counter

import numpy as np
import pytest

from repro.cli import main
from repro.graph.codelet import Vertex
from repro.graph.passes.costs import lpt_makespan
from repro.graph.passes.plans import CopyOp
from repro.graph.program import Exchange, Execute, RegionCopy
from repro.machine.fabric import Transfer
from repro.solvers import solve
from repro.sparse import poisson3d

CG = {"solver": "cg", "tol": 1e-6}
CRS, DIMS = poisson3d(16)
B = np.random.default_rng(5).standard_normal(CRS.n)
SHAPE = dict(num_ipus=2, tiles_per_ipu=16, grid_dims=DIMS)

#: ``repro compile-report --matrix poisson3d:16 --ipus 2 --tiles 16 --config
#: '{"solver": "cg", "tol": 1e-6}'`` as printed when every vertex and every
#: region copy was an object of its own.
REPORT = """\
matrix:               n=4096 nnz=27136
source schedule:      119 steps, 36 compute sets, 76 exchanges, 934 copies
optimized schedule:   57 steps, 36 compute sets, 14 exchanges, 934 copies
compile proxy:        14415 -> 14353
fused kernels:        2 kernels over 50 steps, 0 fallback vertices"""


@pytest.fixture
def built(monkeypatch):
    """Counts every construction of the per-tile and per-copy classes."""
    counts = Counter()
    for cls in (Vertex, RegionCopy, Transfer, CopyOp):
        init = cls.__init__

        def counted(self, *args, _init=init, _name=cls.__name__, **kwargs):
            counts[_name] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    return counts


def _walk(step):
    yield step
    for child in getattr(step, "steps", ()):
        yield from _walk(child)
    for attr in ("body", "then_body", "else_body"):
        if getattr(step, attr, None) is not None:
            yield from _walk(getattr(step, attr))


def _plans(res, kind):
    return [res.compiled.plan_for(s) for s in _walk(res.compiled.root) if isinstance(s, kind)]


def test_fused_makes_no_vertex_or_copy_objects(built):
    res = solve(CRS, B, CG, backend="fused", **SHAPE)
    assert res.failure is None
    # The only copy ops are the flat ones the kernels replay, a few per
    # exchange; nothing per shard, nothing per copy.
    flat = sum(len(plan.flat) for plan in _plans(res, Exchange))
    assert built == Counter(CopyOp=flat)
    assert flat < res.compiled.stats.exchanges * 4
    assert not any("ops" in vars(p) or "transfers" in vars(p) for p in _plans(res, Exchange))
    assert not any("vertices" in vars(p) for p in _plans(res, Execute))


def test_untraced_sim_prices_the_plans_without_vertices(built):
    res = solve(CRS, B, CG, backend="sim", **SHAPE)
    assert res.cycles == 424_422  # tests/baselines/build_identity.json
    exchanges = _plans(res, Exchange)
    assert built["Vertex"] == built["RegionCopy"] == 0
    assert built["CopyOp"] == sum(len(plan.flat) for plan in exchanges)
    # The fabric prices each plan once, from transfers built beside it.
    assert built["Transfer"] == sum(len(plan.transfers) for plan in exchanges)


def test_traced_vertices_reproduce_the_plan_makespans():
    res = solve(CRS, B, CG, backend="sim", trace=True, **SHAPE)
    workers = res.engine.device.spec.workers_per_tile
    plans = _plans(res, Execute)
    assert plans
    for plan in plans:
        tasks: dict = {}
        for v in plan.compute_set.vertices:  # built lazily by the stepped run
            tasks.setdefault(v.tile_id, []).extend(v.worker_cycles())
        assert list(tasks) == plan.cost.tile_ids.tolist()
        got = [lpt_makespan(t, workers) for t in tasks.values()]
        np.testing.assert_array_equal(got, plan.cost.makespans)
        assert plan.cost.worst_tile == max(got)


@pytest.mark.parametrize("backend", ["sim", "fused"])
@pytest.mark.parametrize("config", [CG, {
    "solver": "mpir", "precision": "dw", "tol": 1e-9, "max_outer": 3,
    "inner": {"solver": "bicgstab", "fixed_iterations": 5, "preconditioner": {"solver": "ilu0"}},
}], ids=["cg", "mpir_ilu0"])
def test_a_dropped_solve_is_freed_without_the_cyclic_collector(config, backend):
    """Nothing a build makes sits in a reference cycle, so dropping the
    result frees the program at once: with few objects per build the
    cyclic collector runs rarely, and programs waiting for it would add up
    in a process that builds one after another."""
    crs, dims = poisson3d(6)
    gc.collect()
    gc.disable()
    try:
        res = solve(crs, np.ones(crs.n), config, backend=backend, num_ipus=1,
                    tiles_per_ipu=8, grid_dims=dims)
        graph, device = weakref.ref(res.compiled.graph), weakref.ref(res.engine.device)
        del res
        assert graph() is None and device() is None
    finally:
        gc.enable()


def test_compile_report_reads_as_before(capsys):
    assert main(["compile-report", "--matrix", "poisson3d:16", "--ipus", "2",
                 "--tiles", "16", "--config", '{"solver": "cg", "tol": 1e-6}']) == 0
    lines = capsys.readouterr().out.splitlines()
    summary = [line for line in lines if line.split(":")[0] in
               ("matrix", "source schedule", "optimized schedule", "compile proxy",
                "fused kernels")]
    assert "\n".join(summary) == REPORT
