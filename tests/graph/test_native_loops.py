"""Loops run as one native table: the control kinds and the engine's fold.

``repro_run``'s ``REPEAT`` / ``WHILE`` / ``IF`` entries run the entries
after them as a body and ``LOG`` appends a scalar to a host-owned buffer;
the engine folds an unobserved loop whose body is native into one table of
them (``repro.graph.loops``).  The engine's Python loop is the oracle: with
folding forced off, or a control kind forced off, every solve gives the
same bits, histories and engine counters, and an observed solve never
folds.
"""

import contextlib
import ctypes
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graph.engine import Engine
from repro.solvers import ProgramCache, native, solve
from repro.sparse import poisson2d, poisson3d
from repro.sparse.suitesparse import g3_circuit_like

CRS, DIMS = poisson2d(12)
B = np.random.default_rng(5).standard_normal(CRS.n).astype(np.float32)
ILU0 = {"solver": "ilu0"}
MPIR_DW = {"solver": "mpir", "precision": "dw", "tol": 1e-9, "max_outer": 3,
           "inner": {"solver": "bicgstab", "fixed_iterations": 6, "tol": 2e-7,
                     "record_history": False, "preconditioner": ILU0}}
#: The lattice's solvers: CG, PBiCGStab, Jacobi and ILU(0) preconditioning,
#: and MPIR(dw) with a fixed inner burst (``Repeat`` of ``If``).
CONFIGS = {
    "cg": {"solver": "cg", "tol": 1e-6, "max_iterations": 60},
    "bicgstab": {"solver": "bicgstab", "tol": 1e-6, "max_iterations": 60},
    "cg+jacobi": {"solver": "cg", "tol": 1e-6, "max_iterations": 60,
                  "preconditioner": {"solver": "jacobi", "sweeps": 2}},
    "bicgstab+ilu0": {"solver": "bicgstab", "tol": 1e-8, "max_iterations": 30,
                      "preconditioner": ILU0},
    "mpir(dw)": MPIR_DW,
}
SERVE_CG = {"solver": "cg", "tol": 1e-8, "max_iterations": 400}


def _native_or_skip():
    if any(native.control(kind) is None for kind in native.CONTROL):
        pytest.skip("no native control kinds")


def _runner():
    library, reason = native.load()
    if library is None:
        pytest.skip(reason)
    run = library.repro_run
    run.restype, run.argtypes = None, [ctypes.c_int64, ctypes.c_void_p]
    return run


@contextlib.contextmanager
def _launches(fold: bool = True):
    """Record every table launched — True for a folded loop's (it holds
    control entries) — with the engine's fold forced off unless ``fold``."""
    launched = []
    call = native.Table.__call__

    def record(table):
        launched.append(any(e.kind in native.CONTROL for e in table.entries))
        call(table)

    with contextlib.ExitStack() as stack:
        stack.enter_context(mock.patch.object(native.Table, "__call__", record))
        if not fold:
            stack.enter_context(mock.patch.object(Engine, "_run_native_loop",
                                                  return_value=False))
        yield launched


def _observe(res) -> dict:
    stats = [res.stats, *(res.batch_stats or [])]
    engine = res.engine
    return {
        "x": np.ascontiguousarray(res.x).tobytes(),
        "relative_residual": res.relative_residual,
        "residuals": [list(s.residuals) for s in stats],
        "iterations": [list(s.iterations) for s in stats],
        "cycles": [list(s.cycles) for s in stats],
        "failure": [s.failure for s in stats],
        "counters": engine.kernel_counters(),
        "loop_iterations": engine.loop_iterations,
        "host_callbacks": engine.host_callbacks,
        "supersteps": (engine.supersteps, engine.exchanges),
    }


# -- the control kinds ------------------------------------------------------------------------

def test_the_control_checks_are_small_and_catch_a_wrong_runner():
    """A process resolves the four kinds once, so their self-checks stay
    small — two tables of at most 40 entries, at most 30 body runs (≈0.6 ms
    on a 2-core Xeon host; sizes are asserted, not times) — and a runner that
    miscounts one loop run or drops a double word's lo half fails them."""
    run = _runner()
    assert [native._control_self_check(run, kind) for kind in native.CONTROL] == [None] * 4
    cases = native._control_cases()
    assert len(cases) == 2 and all(len(case.entries()) <= 40 for case in cases)
    for case in cases:
        native.Table(case.entries(), run)()
    assert sum(int(case.state[5:].sum()) for case in cases) <= 30

    def one_run_more(n, table):
        run(n, table)
        row = (ctypes.c_int64 * 7).from_address(table)  # the first entry: a loop
        runs = row[3] if row[0] == native.REPEAT else row[6]
        ctypes.c_int64.from_address(runs).value += 1

    def no_lo(n, table):
        at = table
        for _ in range(n):
            kind = ctypes.c_int64.from_address(at).value
            if kind in (native.WHILE, native.IF):
                ctypes.c_int64.from_address(at + 16).value = 0
            at += 8 * (1 + native.ARGS[kind])
        run(n, table)

    for kind in native.CONTROL:
        assert native._control_self_check(one_run_more, kind).startswith("self-check: case")
    assert "case 1's mem" in native._control_self_check(no_lo, native.WHILE)


def test_a_body_that_overruns_or_a_short_log_is_refused_before_launch():
    case = native._control_cases()[1]
    entries = case.entries()
    assert entries[0].kind == native.WHILE
    nbody = int(entries[0].row[5])
    native._check_bodies(entries)
    entries[0].row[5] = nbody + len(entries)
    with pytest.raises(ValueError, match="overruns"):
        native.Table(entries, None)
    entries[0].row[5] = nbody
    entries[3].row[4] = 2  # a LOG of 2 values in a loop of up to 3 runs
    assert entries[3].kind == native.LOG
    with pytest.raises(ValueError, match="holds 2 values"):
        native.Table(entries, None)


@pytest.mark.parametrize("kind", native.CONTROL)
def test_a_control_kind_forced_off_gives_the_same_bytes_with_one_warning(kind, monkeypatch):
    """A kind whose self-check fails warns once, and every loop that needs
    it runs in Python: the serve-sized CG (``WHILE`` and ``LOG``) and the
    MPIR(dw) inner burst (``REPEAT`` of ``IF``) give the same bytes."""
    _native_or_skip()
    crs, dims = poisson2d(24)
    b = np.random.default_rng(2).standard_normal(crs.n).astype(np.float32)
    g3 = g3_circuit_like(64)  # smaller g3 blocks keep per-vertex ILU(0) work in Python
    b3 = np.random.default_rng(3).standard_normal(g3.n).astype(np.float32)
    runs = [(crs, b, SERVE_CG, dict(num_tiles=16, grid_dims=dims)),
            (g3, b3, MPIR_DW, dict(num_tiles=16))]
    want = [_observe(solve(*r[:3], backend="fused", **r[3])) for r in runs]
    check = native._control_self_check
    native.control.cache_clear()
    monkeypatch.setattr(native, "_control_self_check",
                        lambda run, k: "forced off" if k == kind else check(run, k))
    got, folded = [], []
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            resolved = [native.control(k) is not None for k in native.CONTROL]
            for r in runs:
                with _launches() as launched:
                    got.append(_observe(solve(*r[:3], backend="fused", **r[3])))
                folded.append(launched.count(True))
    finally:
        native.control.cache_clear()
    messages = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
    name = {native.REPEAT: "REPEAT", native.WHILE: "WHILE", native.IF: "IF", native.LOG: "LOG"}
    assert len(messages) == 1, messages
    assert messages[0].startswith(f"native {name[kind]} entries unavailable, running the "
                                  "Python loop: forced off")
    assert resolved == [k != kind for k in native.CONTROL]
    assert got == want
    # WHILE or LOG off keeps CG in Python, REPEAT or IF the inner bursts.
    if kind in (native.WHILE, native.LOG):
        assert folded[0] == 0 and folded[1] > 0
    else:
        assert folded == [1, 0]


# -- the engine's fold ------------------------------------------------------------------------

@pytest.mark.parametrize("name", CONFIGS)
def test_folding_keeps_every_counter_and_bit(name):
    """Folded, and forced off, a solve gives the same ``x``, histories,
    failure and engine counters — ``kernel_counters()``,
    ``loop_iterations`` and ``host_callbacks`` — on a cold build and a
    cache hit; folded, its loops launch as tables with control entries."""
    _native_or_skip()
    config = CONFIGS[name]
    results = {}
    for fold in (True, False):
        cache = ProgramCache()
        with _launches(fold) as launched:
            results[fold] = [_observe(solve(CRS, B, config, grid_dims=DIMS, tiles_per_ipu=8,
                                            backend="fused", cache=cache)) for _ in range(2)]
        assert any(launched) == fold
    assert results[True] == results[False]
    assert results[True][0]["loop_iterations"] > 0


def test_a_fig5_cg_loop_is_one_native_call():
    _native_or_skip()
    crs, dims = poisson3d(12)
    with _launches() as launched:
        res = solve(crs, np.ones(crs.n, np.float32), {"solver": "cg", "tol": 1e-6},
                    grid_dims=dims, num_ipus=2, tiles_per_ipu=16, backend="fused")
    assert res.iterations > 10
    assert launched == [False, True]  # the prologue kernel, then the whole loop


def test_a_g3_inner_burst_is_one_native_call():
    """MPIR's outer loop reads ``‖b‖²`` back for each inner solve, so it
    stays in Python; each fixed inner burst (``Repeat`` of ``If``) is one
    call."""
    _native_or_skip()
    g3 = g3_circuit_like(64)
    bursts = []
    run_repeat = Engine._run_repeat

    def counted(engine, step):
        before = len(launched)
        run_repeat(engine, step)
        bursts.append(launched[before:])

    config = {**MPIR_DW, "max_outer": 12, "inner": {**MPIR_DW["inner"], "fixed_iterations": 50}}
    with _launches() as launched, mock.patch.object(Engine, "_run_repeat", counted):
        res = solve(g3, np.ones(g3.n, np.float32), config, num_tiles=16, backend="fused")
    assert res.iterations > 2
    assert len(bursts) >= res.iterations - 1 and bursts == [[True]] * len(bursts)


OBSERVED = {
    "max_wall_seconds": dict(max_wall_seconds=1e6),
    "on_progress": dict(on_progress=lambda sample: None),
    "resilience": dict(resilience=True),
    "wall_trace": dict(wall_trace=True),
    "sim": dict(backend="sim"),
}


@pytest.mark.parametrize("name", [*OBSERVED, "verbose"])
def test_an_observed_solve_keeps_the_python_loop(name, capsys):
    """A deadline, a progress hook, ``verbose``, resilience, a wall tracer
    or the cycle clock observes every iteration: the loop runs in Python
    (no table with control entries launches), with the same bits."""
    _native_or_skip()
    config = {**CONFIGS["bicgstab"], "verbose": 5} if name == "verbose" else CONFIGS["bicgstab"]
    kwargs = {"backend": "fused", **OBSERVED.get(name, {})}
    with _launches() as launched:
        res = solve(CRS, B, config, grid_dims=DIMS, tiles_per_ipu=8, **kwargs)
    assert launched and not any(launched)
    plain = solve(CRS, B, CONFIGS["bicgstab"], grid_dims=DIMS, tiles_per_ipu=8,
                  backend="fused")
    assert res.x.tobytes() == plain.x.tobytes()
    assert res.stats.residuals == plain.stats.residuals


# -- the native loops' lifetime over one cache ------------------------------------------------

#: Two structures over one RHS size, and a second shape of the first; the
#: cache holds two, so a third key evicts the least recently used.
STRUCTURES = (({"solver": "cg", "tol": 1e-6, "max_iterations": 80}, 4),
              ({"solver": "bicgstab", "tol": 1e-6, "max_iterations": 40}, 4),
              ({"solver": "cg", "tol": 1e-6, "max_iterations": 80}, 2))
LIFE_CRS, LIFE_DIMS = poisson2d(8)


def _life_solve(cache, structure: int, seed: int, x0: bool, batch: int):
    config, tiles = STRUCTURES[structure]
    rng = np.random.default_rng(seed)
    b = rng.standard_normal((batch, LIFE_CRS.n) if batch > 1 else LIFE_CRS.n)
    guess = rng.standard_normal(b.shape).astype(np.float32) if x0 else None
    return solve(LIFE_CRS, b.astype(np.float32), config, grid_dims=LIFE_DIMS,
                 tiles_per_ipu=tiles, backend="fused", x0=guess, cache=cache)


_REFERENCE: dict = {}


def _reference(*request) -> dict:
    """A fresh cache's solve of ``request``."""
    if request not in _REFERENCE:
        _REFERENCE[request] = _observe(_life_solve(ProgramCache(), *request))
    return _REFERENCE[request]


@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 3), st.booleans(),
                          st.sampled_from([1, 1, 2])), min_size=2, max_size=7))
def test_a_cache_lifetime_keeps_native_loops_bit_exact(requests):
    """Property: any sequence of misses, hits, LRU evictions and rebuilds,
    ``prepare`` with and without ``x0``, and solo and batched solves of one
    structure over one cache — its folded loops' tables kept across runs,
    evictions and rebuilds — gives each solve a fresh cache's bits."""
    _native_or_skip()
    cache = ProgramCache(capacity=2)
    for request in requests:
        with _launches() as launched:
            got = _observe(_life_solve(cache, *request))
        assert got == _reference(*request)
        assert any(launched) == (request[3] == 1)  # a batch's numpy reduce keeps it in Python
