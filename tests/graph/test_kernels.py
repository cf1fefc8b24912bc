"""Tests for the kernel-lowering stage and the fused runtime backend.

Covers the lowering contract end to end: random expression graphs are
bit-identical between sim and fused (hypothesis), every solver family is
bit-identical — the ``sim`` side always with a cycle tracer attached, so it
steps every vertex instead of launching the same kernels — the CG inner
loop lowers to a bounded number of kernel launches (statically via
:class:`KernelSchedule` and dynamically via the engine's per-run
tallies), the session cache keys sim and fused apart and
replays fused hits bit-identically, and the untimed backend rejects the
cycle-domain observers with a typed error before anything is built.
"""

from collections import Counter
from unittest import mock

import numpy as np
import pytest
from copy_oracle import region_copies
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dw import joldes
from repro.errors import BackendCapabilityError
from repro.graph import (
    Backend,
    Engine,
    Exchange,
    Execute,
    Graph,
    If,
    RegionCopy,
    Repeat,
    RepeatWhile,
    Sequence,
    compile_program,
)
from repro.graph.passes import ExchangeOp, FusedKernel
from repro.graph.passes.costs import estimate_exchange
from repro.graph.passes.kernels import _equal_segments, _reduce_segments
from repro.machine import IPUDevice
from repro.solvers import SolverSession, compile_solve, solve
from repro.solvers.session import fingerprint_solve
from repro.sparse import poisson2d, poisson3d
from repro.sparse.distribute import DistributedMatrix
from repro.sparse.suitesparse import af_shell_like, g3_circuit_like, geo_like, hook_like
from repro.telemetry import Tracer
from repro.tensordsl import TensorContext, Type
from repro.tensordsl.tensor import Tensor

N = 24

CG = {"solver": "cg", "tol": 1e-8, "max_iterations": 60}


def stepped(backend: str) -> dict:
    """``Engine`` / ``ctx.run`` keywords: ``sim`` with a cycle tracer
    attached, so it steps every vertex (the reference the kernels are
    checked against), or ``fused`` as is."""
    return {"backend": backend, "tracer": Tracer() if backend == "sim" else None}


# -- hypothesis: random expression graphs ----------------------------------------------

leaf = st.sampled_from(
    [
        ("vector", Type.FLOAT32),
        ("vector", Type.DOUBLEWORD),
        ("vector", Type.FLOAT64),
        ("scalar", Type.FLOAT32),
        ("const", None),
    ]
)

binop = st.sampled_from(["+", "-", "*", "/"])
unop = st.sampled_from(["neg", "abs", "sqrt", None])


@st.composite
def expr_tree(draw, depth=0):
    if depth >= 3 or draw(st.booleans()) and depth > 0:
        return draw(leaf)
    return (
        "node",
        draw(binop),
        draw(expr_tree(depth=depth + 1)),
        draw(expr_tree(depth=depth + 1)),
        draw(unop),
    )


def build(tree, ctx, rng):
    """Materialize one random tree into a TensorDSL expression."""
    if tree[0] == "vector":
        data = rng.uniform(0.5, 2.0, N)  # positive: safe for / and sqrt
        return ctx.tensor((N,), dtype=tree[1], data=data)
    if tree[0] == "scalar":
        return ctx.scalar(float(rng.uniform(0.5, 2.0)))
    if tree[0] == "const":
        return float(rng.uniform(0.5, 2.0))
    _, op, lt, rt, u = tree
    le = build(lt, ctx, rng)
    re_ = build(rt, ctx, rng)
    if isinstance(le, float) and isinstance(re_, float):
        le = ctx.scalar(le)
    apply = {"+": lambda a, b: a + b, "-": lambda a, b: a - b,
             "*": lambda a, b: a * b, "/": lambda a, b: a / b}[op]
    e = apply(le, re_)
    if u == "neg":
        e = -e
    elif u == "abs":
        e = abs(e)
    elif u == "sqrt":
        e = (e * e).sqrt() if not isinstance(e, float) else e
    return e


@given(tree=expr_tree(), seed=st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_random_expressions_fused_matches_sim(tree, seed):
    """Property: any random expression graph — mixed dtypes, broadcasts,
    dw kernels, plus a trailing reduction — evaluates bit-identically
    under the fused backend (same leaves, same schedule, two backends)."""
    if tree[0] != "node":
        return
    results = {}
    for backend in ("sim", "fused"):
        rng = np.random.default_rng(seed)
        ctx = TensorContext(IPUDevice(tiles_per_ipu=4))
        e = build(tree, ctx, rng)
        if not isinstance(e, Tensor):
            return
        out = e.materialize()
        total = out.reduce("sum").materialize()
        hi = out.norm_inf().materialize()
        ctx.run(**stepped(backend))
        results[backend] = (
            np.asarray(out.value()).copy(),
            np.asarray(total.value()).copy(),
            np.asarray(hi.value()).copy(),
        )
    for got, want in zip(results["fused"], results["sim"]):
        np.testing.assert_array_equal(got, want)


# -- solver bit-identity ---------------------------------------------------------------

@pytest.mark.parametrize(
    "config",
    [
        CG,
        {"solver": "bicgstab", "tol": 1e-8, "max_iterations": 60},
        {"solver": "mpir", "tol": 1e-10, "max_iterations": 8,
         "inner": {"solver": "cg", "tol": 1e-4, "max_iterations": 30}},
        {"solver": "cg", "tol": 1e-8, "max_iterations": 60,
         "preconditioner": {"solver": "ilu0"}},
    ],
    ids=["cg", "bicgstab", "mpir", "cg+ilu0"],
)
def test_solver_fused_bit_identical_to_sim(config):
    crs, dims = poisson3d(8)
    b = np.ones(crs.n)
    sim = solve(crs, b, config, grid_dims=dims, num_ipus=2, tiles_per_ipu=4,
                backend="sim", trace=True)
    fused = solve(crs, b, config, grid_dims=dims, num_ipus=2, tiles_per_ipu=4,
                  backend="fused")
    np.testing.assert_array_equal(sim.x, fused.x)
    assert sim.relative_residual == fused.relative_residual
    assert sim.stats.total_iterations == fused.stats.total_iterations
    assert fused.kernel_counters is not None
    assert fused.kernel_counters["kernels"] > 0
    # The traced sim run stepped every vertex: it launched nothing.
    assert set(sim.kernel_counters.values()) == {0}


def test_unobserved_sim_launches_what_fused_launches():
    """Unobserved ``sim`` runs the same kernels as ``fused`` with the cycle
    clock attached, so it tallies the same launches; a traced ``sim`` run
    steps every vertex and launches none."""
    crs, dims = poisson3d(6)
    b = np.ones(crs.n)
    sim, fused, traced = (solve(crs, b, CG, grid_dims=dims, tiles_per_ipu=4,
                                backend=backend, trace=trace)
                          for backend, trace in (("sim", None), ("fused", None),
                                                 ("sim", True)))
    assert sim.kernel_counters == fused.kernel_counters
    assert sim.kernel_counters["kernels"] > 0
    assert traced.kernel_counters == dict.fromkeys(fused.kernel_counters, 0)
    assert sim.cycles == traced.cycles > 0 == fused.cycles


#: The stencil case plus the four Fig. 7 matrix families (graph-partitioned,
#: irregular halos) at tier-1 size.
SPMV_MATRICES = {
    "poisson2d": lambda: poisson2d(12),
    "g3_circuit": lambda: (g3_circuit_like(grid=14), None),
    "af_shell": lambda: (af_shell_like(nx=7, ny=7, layers=3), None),
    "geo": lambda: (geo_like(nx=6, ny=6, nz=6), None),
    "hook": lambda: (hook_like(nx=6, ny=6, nz=6), None),
}


@pytest.mark.parametrize("matrix", SPMV_MATRICES)
def test_spmv_with_halo_fused_matches_sim(matrix):
    """Repeated SpMV across IPU boundaries: the fused kernel's global
    column remap must reproduce the per-tile gather/compute path exactly,
    on the stencil and on every Fig. 7 matrix family."""
    crs, dims = SPMV_MATRICES[matrix]()
    results = {}
    for backend in ("sim", "fused"):
        device = IPUDevice(num_ipus=2, tiles_per_ipu=4)
        ctx = TensorContext(device)
        A = DistributedMatrix(ctx, crs, grid_dims=dims)
        rng = np.random.default_rng(3)
        x = A.vector(data=rng.standard_normal(crs.n))
        y = A.vector()
        ctx.Repeat(3, lambda: A.spmv(x, y))
        ctx.run(**stepped(backend))
        results[backend] = y.read_global()
    np.testing.assert_array_equal(results["fused"], results["sim"])
    assert results["sim"].any()


def test_uneven_shards_reduce_fused_matches_sim():
    """Reductions over unequal per-tile segments take the per-slice path;
    it must agree with the tile-by-tile sim reduction bit for bit."""
    n = 13  # 13 rows over 4 tiles: unequal shard sizes
    results = {}
    for backend in ("sim", "fused"):
        ctx = TensorContext(IPUDevice(tiles_per_ipu=4))
        data = np.linspace(-2.0, 2.0, n)
        t = ctx.tensor((n,), data=data)
        s = t.dot(t).materialize()
        m = t.max().materialize()
        lo = t.min().materialize()
        ctx.run(**stepped(backend))
        results[backend] = (
            np.asarray(s.value()).copy(),
            np.asarray(m.value()).copy(),
            np.asarray(lo.value()).copy(),
        )
    for got, want in zip(results["fused"], results["sim"]):
        np.testing.assert_array_equal(got, want)


def _dw_pairwise(hi, lo):
    """One segment's double-word sum in the per-tile halving order: halves
    added element by element, an odd tail carried, empty (0, 0)."""
    while hi.size > 1:
        half = hi.size // 2
        h2, l2 = joldes.add_dw_dw(hi[:half], lo[:half], hi[half : 2 * half], lo[half : 2 * half])
        if hi.size % 2:
            h2, l2 = np.concatenate([h2, hi[-1:]]), np.concatenate([l2, lo[-1:]])
        hi, lo = h2, l2
    return (hi[0], lo[0]) if hi.size else (np.float32(0), np.float32(0))


@pytest.mark.parametrize("lengths", [[0, 3, 1, 8, 5], [7, 7, 7], [6, 6], [1]])
def test_dw_segment_sums_follow_the_per_tile_halving(lengths):
    """Equal segments sum as the rows of one matrix, unequal ones one by
    one; either way each is the per-tile pairwise sum, and an empty
    segment sums to (0, 0)."""
    rng = np.random.default_rng(len(lengths))
    seg = np.array(lengths)
    offsets = np.concatenate([[0], np.cumsum(seg)])
    hi = rng.standard_normal(offsets[-1]).astype(np.float32)
    lo = (hi * rng.standard_normal(offsets[-1]) * 2.0**-26).astype(np.float32)
    got = _reduce_segments((hi, lo), Type.DOUBLEWORD, "sum", seg, offsets, _equal_segments(seg))
    want = np.array([_dw_pairwise(hi[a:b], lo[a:b]) for a, b in zip(offsets[:-1], offsets[1:])],
                    dtype=np.float32)
    for part, column in zip(got, want.T):
        assert np.asarray(part).view(np.uint32).tolist() == column.view(np.uint32).tolist()


# -- level-set sweeps: one kernel op per sweep ------------------------------------------

ILU0 = {"solver": "ilu0"}
GS = {d: {"solver": "gauss_seidel", "direction": d} for d in ("forward", "backward", "symmetric")}


def _krylov(solver, preconditioner):
    return {"solver": solver, "tol": 1e-10, "max_iterations": 8,
            "preconditioner": preconditioner}


#: The Fig. 8 solver (perfbench's ``mpir_ilu_g3`` workload, shorter bursts).
MPIR_FIG8 = {
    "solver": "mpir", "precision": "dw", "tol": 1e-9, "max_outer": 3,
    "inner": {"solver": "bicgstab", "fixed_iterations": 6, "tol": 2e-7,
              "record_history": False, "preconditioner": ILU0},
}

SWEEP_CONFIGS = {
    "bicgstab+ilu0": _krylov("bicgstab", ILU0),
    "bicgstab+dilu": _krylov("bicgstab", {"solver": "dilu"}),
    "bicgstab+gs-forward": _krylov("bicgstab", GS["forward"]),
    "bicgstab+gs-backward": _krylov("bicgstab", GS["backward"]),
    "bicgstab+gs-symmetric": _krylov("bicgstab", GS["symmetric"]),
    "cg+ilu0": _krylov("cg", ILU0),
    "cg+dilu": _krylov("cg", {"solver": "dilu"}),
    "cg+gs-symmetric": _krylov("cg", GS["symmetric"] | {"sweeps": 2}),
    "mpir(dw)+bicgstab+ilu0": MPIR_FIG8,
}

#: ``af_shell_like`` is the >= 8-entries-per-sweep-row case (27-point stencil).
SWEEP_MATRICES = {
    "poisson3d": lambda: poisson3d(6),
    "g3_circuit": lambda: (g3_circuit_like(grid=14), None),
    "af_shell": lambda: (af_shell_like(nx=7, ny=7, layers=3), None),
}


def _assert_backends_agree(crs, dims, config, tiles=4):
    b = np.random.default_rng(2).standard_normal(crs.n)
    sim, fused = (solve(crs, b, config, grid_dims=dims, tiles_per_ipu=tiles,
                        backend=backend, trace=backend == "sim")
                  for backend in ("sim", "fused"))
    np.testing.assert_array_equal(fused.x, sim.x)
    assert fused.stats.residuals == sim.stats.residuals
    assert fused.iterations == sim.iterations
    assert fused.relative_residual == sim.relative_residual
    # No step runs outside a kernel: every host dispatch is a launch.
    kc = fused.kernel_counters
    assert kc["dispatches"] == kc["kernels"] > 0
    return fused


@pytest.mark.parametrize("matrix", SWEEP_MATRICES)
@pytest.mark.parametrize("config", SWEEP_CONFIGS)
def test_sweep_preconditioners_bit_identical_across_backends(matrix, config):
    """ILU(0), DILU and Gauss-Seidel run as merged whole-device sweeps on
    ``fused`` and per tile on ``sim``: solution, residual history
    and iteration count must agree bit for bit, and no sweep may be left on
    the per-vertex hatch."""
    crs, dims = SWEEP_MATRICES[matrix]()
    fused = _assert_backends_agree(crs, dims, SWEEP_CONFIGS[config])
    assert compiled_fallbacks(fused.compiled) == {}


@pytest.mark.parametrize("direction", list(GS))
def test_multigrid_smoother_sweeps_bit_identical_across_backends(direction):
    """Gauss-Seidel as the smoother of every multigrid level: each level's
    matrix merges its own plans over its own ``[owned | halo]`` space."""
    crs, dims = poisson2d(12)
    config = {"solver": "multigrid", "grid_dims": dims, "cycles": 3,
              "coarsest_size": 16, "smoother": GS[direction]}
    fused = _assert_backends_agree(crs, dims, config)
    assert "gs" not in compiled_fallbacks(fused.compiled)


def test_headline_inner_loops_have_no_fallback_vertices():
    """Static: the Fig. 8 solver's BiCGStab loop and the Fig. 5 CG loop
    launch kernels made of whole-device ops only — no sweep, combine or
    factor vertex is dispatched per tile — and so does the rest of either
    program, MPIR's extended-precision residual SpMV included."""
    g3 = g3_circuit_like(grid=14)
    fig8 = compile_solve(g3, np.ones(g3.n), MPIR_FIG8, tiles_per_ipu=16)
    crs, dims = poisson3d(8)
    fig5 = compile_solve(crs, np.ones(crs.n), {"solver": "cg", "tol": 1e-6},
                         grid_dims=dims, tiles_per_ipu=16)
    for compiled, label in ((fig8, "bicgstab.iterate"), (fig5, "cg.iterate")):
        kernels = compiled.kernels.loop_kernels(compiled.root, label)
        assert kernels
        assert [k.fallbacks for k in kernels] == [()] * len(kernels)
    assert compiled_fallbacks(fig8) == {}
    assert compiled_fallbacks(fig5) == {}


def compiled_fallbacks(compiled) -> dict:
    """Codelet -> vertices still dispatched one by one, over all kernels."""
    total = Counter()
    for _, _, counts in compiled.kernels.fallback_rows(compiled.root):
        total.update(counts)
    return dict(total)


def test_sweep_in_a_foreign_mapping_runs_per_vertex_and_matches_sim():
    """The merged plan indexes the matrix's own vector layout.  A right-hand
    side mapped differently (same shard sizes, tiles in reverse order) fails
    the lowerer's layout check, stays on the per-vertex path, and still
    gives sim's result."""
    from repro.graph import Interval
    from repro.solvers.ilu import ILU0 as ILU0Solver
    from repro.sparse.distribute import DistVector

    crs, dims = poisson2d(10)
    results, fallbacks = {}, {}
    for backend in ("sim", "fused"):
        ctx = TensorContext(IPUDevice(tiles_per_ipu=4))
        A = DistributedMatrix(ctx, crs, grid_dims=dims)
        x = A.vector()
        mapping, offset = [], 0
        for iv in reversed(A.owned_mapping()):
            mapping.append(Interval(iv.tile_id, offset, offset + iv.size))
            offset += iv.size
        foreign = ctx.from_mapping("b_foreign", (crs.n,), Type.FLOAT32, mapping)
        rhs = np.random.default_rng(4).standard_normal(crs.n).astype(np.float32)
        foreign.write(rhs)
        ILU0Solver(A).solve_into(x, DistVector(A, foreign, x.halo))
        engine = ctx.run(**stepped(backend))
        results[backend] = x.read_global()
        fallbacks[backend] = compiled_fallbacks(engine.compiled)
    np.testing.assert_array_equal(results["fused"], results["sim"])
    assert fallbacks["fused"] == {"ilu0": len(A.tiles)}
    assert np.abs(results["sim"]).max() > 0


def test_cost_only_codelets_are_priced_but_never_dispatched():
    """``Codelet(run=None)`` charges cycles on ``sim``; no backend calls
    it, and the kernel lowerer emits no op and counts no fallback (the ILU
    factor compute set is the shipped case)."""
    from repro.graph.codelet import Codelet, ComputeSet

    g = Graph(IPUDevice(tiles_per_ipu=4))
    cs = ComputeSet("cs_factor", category="ilu_factor")
    for t in range(4):
        cs.add_vertex(Codelet(f"factor@{t}", None, 100 * (t + 1), category="ilu_factor"), t, {})
    assert all(v.codelet.cost_only for v in cs.vertices)
    step = Execute(cs)
    compiled = compile_program(g, Sequence([step]), optimize=False)
    plan = compiled.plan_for(step)
    assert plan.vertices == () and plan.worst_tile == 400
    (kernel,) = compiled.kernels.kernels
    assert kernel.ops == () and kernel.fallbacks == () and kernel.n_compute == 1
    sim = Engine(compiled, backend="sim")
    sim.run()
    assert sim.profiler.total_cycles >= 400
    fused = Engine(compiled, backend="fused")
    fused.run()
    delta = fused.kernel_counters()
    assert delta["fused_compute_sets"] == 1 and delta["fallback_vertices"] == 0


# -- kernel counts: static schedule + dynamic counters ---------------------------------

def test_cg_loop_lowers_to_bounded_kernel_count():
    """Static acceptance metric: the whole CG inner loop must lower to at
    most a handful of fused kernels per iteration — not one dispatch per
    compute set."""
    crs, dims = poisson3d(8)
    compiled = compile_solve(crs, np.ones(crs.n), CG, grid_dims=dims,
                             num_ipus=2, tiles_per_ipu=4)
    schedule = compiled.kernels
    per_iter = schedule.loop_kernel_count(compiled.root, "cg.iterate")
    assert 1 <= per_iter <= 5
    stats = schedule.stats()
    assert stats["kernels"] == schedule.n_kernels > 0
    assert stats["steps_fused"] > stats["kernels"]
    assert all(isinstance(k, FusedKernel) for k in schedule.kernels)


def test_cg_runtime_kernel_counters_bounded():
    """Dynamic twin of the static bound: the engine's tallies must report
    at most 5 launches per executed CG iteration (plus setup), and every
    launch exactly once."""
    crs, dims = poisson3d(8)
    res = solve(crs, np.ones(crs.n), CG, grid_dims=dims, num_ipus=2,
                tiles_per_ipu=4, backend="fused")
    delta = res.engine.kernel_counters()
    assert res.kernel_counters == delta
    assert delta["kernels"] <= 5 * res.iterations + 10
    assert delta["dispatches"] == delta["kernels"]
    assert delta["fused_compute_sets"] + delta["fused_exchanges"] > delta["kernels"]


def test_engine_statistics_parity_between_sim_and_fused():
    """The engine's superstep/exchange statistics must not change when
    blocks execute as fused kernels — the kernels' absorbed-step counts
    keep them in parity."""
    crs, dims = poisson3d(6)
    stats = {}
    for backend in ("sim", "fused"):
        engines = solve(crs, np.ones(crs.n), CG, grid_dims=dims, tiles_per_ipu=4,
                        backend=backend, trace=backend == "sim").engine
        stats[backend] = (engines.supersteps, engines.exchanges,
                         engines.host_callbacks, engines.loop_iterations)
    assert stats["fused"] == stats["sim"]


# -- typed capability guards -----------------------------------------------------------

def test_untimed_backend_rejects_cycle_domain_observers():
    backend = Backend("fused")
    assert backend.clock is None
    with pytest.raises(BackendCapabilityError) as tr:
        backend.attach(tracer=object())
    with pytest.raises(BackendCapabilityError) as inj:
        backend.attach(injector=object())
    for err in (tr.value, inj.value):
        assert isinstance(err, ValueError)  # legacy except-clauses keep working
        assert err.exit_code == 15
        assert err.backend == backend.name
    assert tr.value.capability == "tracer"
    assert inj.value.capability == "fault_injector"
    # The messages must name the rejecting backend and point at the
    # alternatives: sim for cycle-domain work, --wall-trace for timing.
    assert repr(backend.name) in str(tr.value)
    assert "sim" in str(tr.value) and "--wall-trace" in str(tr.value)
    assert repr(backend.name) in str(inj.value)
    assert "sim" in str(inj.value)
    # Nothing was attached by the rejected calls, and attaching no
    # cycle-domain observer is fine.  Wall tracing is the untimed
    # backend's timing story: never rejected (tests/telemetry/test_walltrace.py).
    backend.attach()
    assert backend.tracer is None and backend.injector is None


@pytest.mark.parametrize("kwargs, capability", [
    ({"backend": "fused", "trace": True}, "tracer"),
    ({"backend": "fused", "inject_faults": "seed=1;bitflip:p=0.5"}, "fault_injector"),
    ({"backend": "nope"}, None),
], ids=["trace", "inject_faults", "unknown-name"])
def test_solve_rejects_a_wrong_backend_before_building_anything(kwargs, capability):
    from repro.graph.passes import compile_program

    crs, dims = poisson3d(6)
    with mock.patch("repro.tensordsl.context.compile_program",
                    wraps=compile_program) as lowered, \
            pytest.raises(BackendCapabilityError) as err:
        solve(crs, np.ones(crs.n), CG, grid_dims=dims, tiles_per_ipu=4, **kwargs)
    assert lowered.call_count == 0  # failed at the door, not after the build
    assert err.value.backend == kwargs["backend"]
    assert err.value.capability == capability
    if capability is None:
        assert "'fused', 'sim'" in str(err.value)  # the message lists what exists


# -- session cache ---------------------------------------------------------------------

def test_fingerprint_distinguishes_sim_from_fused():
    crs, _ = poisson3d(6)
    assert (fingerprint_solve(crs, CG, backend="sim")
            != fingerprint_solve(crs, CG, backend="fused"))


def test_fused_session_cache_hit_replays_bit_identically():
    crs, dims = poisson3d(6)
    rng = np.random.default_rng(11)
    b = rng.standard_normal(crs.n)
    session = SolverSession(crs, CG, grid_dims=dims, tiles_per_ipu=4,
                            backend="fused")
    first = session.solve(b)
    hit = session.solve(b)
    assert session.stats()["hits"] == 1 and session.stats()["misses"] == 1
    np.testing.assert_array_equal(hit.x, first.x)
    assert hit.kernel_counters == first.kernel_counters
    # The cached fused replay also matches a cold sim solve bit for bit.
    sim = solve(crs, b, CG, grid_dims=dims, tiles_per_ipu=4, backend="sim", trace=True)
    np.testing.assert_array_equal(hit.x, sim.x)
    assert hit.relative_residual == sim.relative_residual


# -- schedule plumbing -----------------------------------------------------------------

def test_compiled_program_carries_kernel_schedule():
    crs, dims = poisson3d(6)
    compiled = compile_solve(crs, np.ones(crs.n), CG, grid_dims=dims,
                             tiles_per_ipu=4)
    assert compiled.kernels is not None
    assert compiled.kernels.n_kernels > 0
    # Every run launches the schedule but one a cycle tracer or a fault
    # injector observes: that one steps the plans per vertex.
    for backend in ("sim", "fused"):
        assert Engine(compiled, backend=backend)._kernel_schedule is compiled.kernels
    stepping = Engine(compiled, **stepped("sim"))
    assert stepping._kernel_schedule is None


# -- exchange lowering: one gather/scatter per buffer pair -----------------------------

def _walk_steps(step):
    """Every step of a schedule, each shared subtree once."""
    seen, stack = set(), [step]
    while stack:
        s = stack.pop()
        if id(s) in seen:
            continue
        seen.add(id(s))
        yield s
        if isinstance(s, Sequence):
            stack.extend(s.steps)
        elif isinstance(s, (Repeat, RepeatWhile)):
            stack.append(s.body)
        elif isinstance(s, If):
            stack.extend(b for b in (s.then_body, s.else_body) if b is not None)


def test_cg_iteration_issues_a_handful_of_exchange_assignments():
    """The fig5-shaped CG loop (3-D stencil, several IPUs): every absorbed
    exchange is at most two array assignments — the blockwise halo update
    one gather/scatter, each all-reduce leg one — however many shard pairs
    it spans.  Counted statically from the lowered ops, no wall clock."""
    crs, dims = poisson3d(12)
    compiled = compile_solve(crs, np.ones(crs.n), CG, grid_dims=dims,
                             num_ipus=4, tiles_per_ipu=16)
    kernels = compiled.kernels.loop_kernels(compiled.root, "cg.iterate")
    assert kernels
    per_iteration = per_pair = exchanges = 0
    for kernel in kernels:
        ops = [op for op in kernel.ops if isinstance(op, ExchangeOp)]
        assert len(ops) == kernel.n_exchange
        assert all(1 <= op.n_assign <= 2 for op in ops)
        per_iteration += sum(op.n_assign for op in ops)
        exchanges += len(ops)
    for step in _walk_steps(compiled.root):
        if isinstance(step, Exchange):
            per_pair = max(per_pair, len(compiled.plan_for(step).ops))
    assert exchanges == 7 and per_iteration <= 20
    # ... where the per-shard-pair form sim replays runs to hundreds of ops.
    assert per_pair > 100


def _copy_bytes(ops) -> int:
    """Bytes written by a tuple of CopyOps, counted row by row."""
    total = 0
    for op in ops:
        rows = np.arange(op.dst.shape[0])[op.dst_index].size
        total += rows * op.dst[:1].nbytes * (2 if op.dst_lo is not None else 1)
    return total


def test_flat_exchange_accounts_the_same_bytes_and_dispatches():
    """The flat form moves exactly the bytes of the per-pair form, and the
    dispatch statistics keep counting what the kernels replace: vertices
    plus per-shard-pair copy ops."""
    crs, dims = poisson3d(8)
    compiled = compile_solve(crs, np.ones(crs.n), CG, grid_dims=dims,
                             num_ipus=2, tiles_per_ipu=4)
    exchanges = [s for s in _walk_steps(compiled.root) if isinstance(s, Exchange)]
    assert exchanges
    for step in exchanges:
        plan = compiled.plan_for(step)
        assert plan.vectorized and len(plan.flat) <= len(plan.ops) == plan.n_ops
        assert estimate_exchange(plan) == _copy_bytes(plan.flat) == _copy_bytes(plan.ops) > 0
    # Every leaf step is absorbed by exactly one kernel of this program.
    assert compiled.kernels.stats()["dispatches_replaced"] == sum(
        len(s.compute_set.vertices) if isinstance(s, Execute)
        else len(compiled.plan_for(s).ops)
        for s in _walk_steps(compiled.root)
        if isinstance(s, (Execute, Exchange))
    )


def _reference_copy_ops(step, flat):
    """The list-built exchange lowering the array-built one replaced, kept
    as its oracle: one ``(src, dst, src_index, dst_index, src_lo, dst_lo)``
    per array pair in order of first appearance, segments in destination
    order, a slice where they abut."""
    from repro.graph.passes.plans import _flat_rows

    def row_index(ranges):
        if all(a[1] == b[0] for a, b in zip(ranges, ranges[1:])):
            return slice(ranges[0][0], ranges[-1][1])
        return np.concatenate([np.arange(r0, r1) for r0, r1 in ranges])

    groups, buffers = {}, {}
    for rc in region_copies(step):
        for dst_var, dst_tile, dst_offset in rc.dests:
            if flat:
                src, sb = _flat_rows(rc.src_var, rc.src_tile, buffers)
                dst, db = _flat_rows(dst_var, dst_tile, buffers)
            else:
                s_sh, d_sh = rc.src_var.shard(rc.src_tile), dst_var.shard(dst_tile)
                src, sb, dst, db = (s_sh.data, s_sh.lo), 0, (d_sh.data, d_sh.lo), 0
            seg = (sb + rc.src_offset, sb + rc.src_offset + rc.size,
                   db + dst_offset, db + dst_offset + rc.size)
            groups.setdefault((id(src[0]), id(dst[0])), (src, dst, []))[2].append(seg)
    out = []
    for src, dst, segments in groups.values():
        segments = sorted(segments, key=lambda seg: seg[2])
        paired = src[1] is not None and dst[1] is not None
        out.append((src[0], dst[0],
                    row_index([(s0, s1) for s0, s1, _, _ in segments]),
                    row_index([(d0, d1) for _, _, d0, d1 in segments]),
                    src[1] if paired else None, dst[1] if paired else None))
    return out


def _assert_same_ops(got, want):
    assert len(got) == len(want)
    for op, (src, dst, src_index, dst_index, src_lo, dst_lo) in zip(got, want):
        for mine, ref in ((op.src, src), (op.dst, dst), (op.src_lo, src_lo), (op.dst_lo, dst_lo)):
            # The same memory seen the same way (a replicated variable's
            # flat buffer is a fresh reshape view per lowering).
            assert mine is ref or mine.__array_interface__ == ref.__array_interface__
        for mine, ref in ((op.src_index, src_index), (op.dst_index, dst_index)):
            assert type(mine) is type(ref)
            if isinstance(ref, slice):
                assert mine == ref
            else:
                assert mine.dtype == ref.dtype
                np.testing.assert_array_equal(mine, ref)


@pytest.mark.parametrize("batch", [1, 3])
def test_exchange_ops_stay_unbuilt_on_fused_and_match_the_list_built_form(batch):
    """A ``fused`` solve replays ``flat`` and never materialises the
    per-shard ``ops`` — nor does an unobserved ``sim`` solve, which launches
    the same kernels and only prices the plans; built late — after the run
    — they are the tuple the list-based lowering built eagerly: same
    arrays, indices, order."""
    crs, dims = poisson3d(8)
    b = np.ones((batch, crs.n) if batch > 1 else crs.n)
    sim = solve(crs, b, CG, grid_dims=dims, num_ipus=2, tiles_per_ipu=8)
    sim_plans = [sim.compiled.plan_for(s) for s in _walk_steps(sim.compiled.root)
                 if isinstance(s, Exchange)]
    assert sim_plans and not any("ops" in vars(plan) for plan in sim_plans)
    res = solve(crs, b, CG, grid_dims=dims, num_ipus=2, tiles_per_ipu=8, backend="fused")
    compiled = res.compiled
    exchanges = [s for s in _walk_steps(compiled.root) if isinstance(s, Exchange)]
    plans = [compiled.plan_for(s) for s in exchanges]
    assert plans and not any("ops" in vars(plan) for plan in plans)
    for step, plan in zip(exchanges, plans):
        _assert_same_ops(plan.flat, _reference_copy_ops(step, flat=True))
        _assert_same_ops(plan.ops, _reference_copy_ops(step, flat=False))
        assert plan.ops is plan.ops and plan.n_ops == len(plan.ops)


def _run_exchange(backend, build):
    """Run one Exchange program built by ``build(graph)`` on ``backend``;
    returns the plan and every variable's (hi, lo) contents."""
    g = Graph(IPUDevice(tiles_per_ipu=4))
    step = build(g)
    compiled = compile_program(g, step, optimize=False)
    Engine(compiled, **stepped(backend)).run()
    state = {
        name: (var.flat_data.copy(),
               None if var.flat_lo is None else var.flat_lo.copy())
        for name, var in g.variables.items()
    }
    return compiled.plan_for(step), state


def _assert_same_state(got, want):
    for name, (hi, lo) in want.items():
        np.testing.assert_array_equal(got[name][0], hi)
        if lo is not None:
            np.testing.assert_array_equal(got[name][1], lo)


def test_hazard_exchange_replays_in_order_and_matches_sim():
    """A later copy reads what an earlier one wrote: no flat form, strict
    per-copy order on both backends."""
    def build(g):
        a, b, c = (g.add_variable(n, (8,)) for n in "abc")
        a.scatter(np.arange(8))
        return Exchange([
            RegionCopy(a, 0, 0, ((b, 1, 0),), 2),
            RegionCopy(b, 1, 0, ((c, 2, 0),), 2),
        ])

    plan, want = _run_exchange("sim", build)
    assert not plan.vectorized and plan.flat is plan.ops
    _, got = _run_exchange("fused", build)
    _assert_same_state(got, want)
    np.testing.assert_array_equal(got["c"][0][4:6], [0.0, 1.0])


def test_flat_exchange_moves_double_word_lo_halves():
    """dw -> dw copies (distributed and replicated endpoints) move hi and
    lo through one flat op per buffer pair; a dw -> f32 copy moves hi only."""
    def build(g):
        src = g.add_variable("src", (8,), dtype="dw")
        dst = g.add_variable("dst", (8,), dtype="dw")
        rep = g.add_replicated("rep", (2,), dtype="dw")
        f32 = g.add_variable("f32", (8,))
        src.scatter(np.arange(8) + 2.0 ** -30 * np.arange(1, 9))
        return Exchange([
            RegionCopy(src, 0, 0, ((dst, 3, 1),), 1),
            RegionCopy(src, 1, 0, ((dst, 2, 0),), 2),
            RegionCopy(src, 2, 0, tuple((rep, t, 0) for t in range(4)), 2),
            RegionCopy(src, 3, 1, ((f32, 0, 0),), 1),
        ])

    plan, want = _run_exchange("sim", build)
    assert plan.vectorized
    assert len(plan.ops) == 7 and len(plan.flat) == 3
    assert sum(op.dst_lo is not None for op in plan.flat) == 2
    assert want["dst"][1].any() and want["rep"][1].all()
    _, got = _run_exchange("fused", build)
    _assert_same_state(got, want)


def test_flat_exchange_moves_batched_rows():
    """Batched (n, B) buffers index axis 0 only: all B columns of a row
    ride along, on distributed and replicated endpoints alike."""
    def build(g):
        src = g.add_variable("src", (8,), batch=3)
        dst = g.add_variable("dst", (8,), batch=3)
        rep = g.add_replicated("rep", (2,), batch=3)
        src.scatter(np.arange(24, dtype=np.float32).reshape(3, 8) + 1)
        return Exchange([
            RegionCopy(src, 0, 0, ((dst, 2, 0),), 2),
            RegionCopy(src, 1, 1, ((dst, 3, 1),), 1),
            RegionCopy(src, 3, 0, tuple((rep, t, 0) for t in range(4)), 2),
        ])

    plan, want = _run_exchange("sim", build)
    assert plan.vectorized and len(plan.flat) == 2
    assert want["dst"][0].any() and want["rep"][0].all()
    _, got = _run_exchange("fused", build)
    _assert_same_state(got, want)
