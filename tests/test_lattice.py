"""The bit-identity lattice: one harness over every way a program can run.

Three execution paths of the same compiled program:

- ``stepped`` — ``sim`` with a cycle tracer attached, so every superstep
  runs its plan vertex by vertex and charges its own cycles (the
  per-vertex reference);
- ``sim`` — unobserved ``sim``: the fused kernels, each launch charging
  its absorbed supersteps' static cost;
- ``fused`` — the same kernels, untimed.

crossed with the paper's solver configurations plus Fig. 1's CodeDSL π
program, a cold build and a compile-cache hit, and one or three RHS
columns wherever the config can batch.  Across all three paths the
solution bits, residual history, iteration count, failure and engine
superstep / exchange counts are equal; between the two ``sim`` paths the
cycle count, profile, per-category and exclusive per-path cycles and the
cycle stamps a solver records at its host callbacks are equal too.
"""

from functools import lru_cache

import numpy as np
import pytest

from repro.codedsl import For, Select
from repro.machine import IPUDevice
from repro.solvers import ProgramCache, solve
from repro.sparse import poisson2d
from repro.telemetry import Tracer
from repro.tensordsl import TensorContext, Type

CRS, DIMS = poisson2d(12)
GS = {"solver": "gauss_seidel", "direction": "symmetric"}
ILU0 = {"solver": "ilu0"}
CONFIGS = {
    "cg": {"solver": "cg", "tol": 1e-6, "max_iterations": 60},
    "cg+jacobi": {"solver": "cg", "tol": 1e-6, "max_iterations": 60,
                  "preconditioner": {"solver": "jacobi", "sweeps": 2}},
    "bicgstab+ilu0": {"solver": "bicgstab", "tol": 1e-8, "max_iterations": 30,
                      "preconditioner": ILU0},
    "mpir(dw)+bicgstab+ilu0": {
        "solver": "mpir", "precision": "dw", "tol": 1e-9, "max_outer": 3,
        "inner": {"solver": "bicgstab", "fixed_iterations": 6, "tol": 2e-7,
                  "record_history": False, "preconditioner": ILU0}},
    "multigrid(gs)": {"solver": "multigrid", "grid_dims": DIMS, "cycles": 3,
                      "coarsest_size": 16, "smoother": GS},
}
BATCHABLE = ("cg", "cg+jacobi")
PATHS = {"stepped": ("sim", True), "sim": ("sim", None), "fused": ("fused", None)}

#: Equal on all three paths / equal between the two ``sim`` paths.
NUMERICS = ("x", "relative_residual", "residuals", "iterations", "failure", "engine")
CLOCK = ("cycles", "profile", "by_category", "by_path", "stats_cycles")


def _observe(res) -> dict:
    """Everything the lattice compares, read right away: a cache hit
    reuses (and resets) the cold solve's device."""
    prof = res.engine.device.profiler
    stats = [res.stats, *(res.batch_stats or [])]
    x = np.ascontiguousarray(res.x)
    return {
        "x": (x.dtype.str, x.shape, x.tobytes()),
        "relative_residual": res.relative_residual,
        "residuals": [list(s.residuals) for s in stats],
        "iterations": [s.total_iterations for s in stats],
        "failure": [s.failure for s in stats],
        "engine": (res.engine.supersteps, res.engine.exchanges),
        "cycles": res.cycles,
        "profile": res.profile,
        "by_category": prof.by_category(),
        "by_path": prof.by_path(inclusive=False),
        "stats_cycles": [list(s.cycles) for s in stats],
    }


@lru_cache(maxsize=None)
def _solves(config: str, batch: int) -> dict:
    """``{path: {"cold": ..., "hit": ...}}`` for one lattice row."""
    rng = np.random.default_rng(17)
    b = rng.standard_normal((batch, CRS.n) if batch > 1 else CRS.n)
    out = {}
    for path, (backend, trace) in PATHS.items():
        cache = ProgramCache()
        runs = {}
        for stage in ("cold", "hit"):
            res = solve(CRS, b, CONFIGS[config], grid_dims=DIMS, tiles_per_ipu=4,
                        backend=backend, trace=trace, cache=cache)
            runs[stage] = _observe(res)
        assert cache.stats()["hits"] == 1
        out[path] = runs
    return out


ROWS = [(c, batch, stage) for c in CONFIGS for batch in ((1, 3) if c in BATCHABLE else (1,))
        for stage in ("cold", "hit")]


@pytest.mark.parametrize("config, batch, stage", ROWS,
                         ids=[f"{c}-B{b}-{s}" for c, b, s in ROWS])
def test_solve_lattice(config, batch, stage):
    runs = _solves(config, batch)
    ref = runs["stepped"][stage]
    assert ref["cycles"] > 0 and ref["iterations"][0] > 0
    for path in ("sim", "fused"):
        got = runs[path][stage]
        for key in NUMERICS:
            assert got[key] == ref[key], f"{path} {key} differs from the stepped sim"
    for key in CLOCK:
        assert runs["sim"][stage][key] == ref[key], f"sim {key} differs from the stepped sim"
    # A hit replays its cold build exactly, clock included.
    assert runs["stepped"]["hit"] == runs["stepped"]["cold"]


def _pi(backend: str, tracer) -> dict:
    """Fig. 1 (``examples/pi_leibniz_dsl.py``) at tier-1 size: a CodeDSL
    ``For`` + ``Select`` fill — a per-vertex codelet inside any kernel —
    then a TensorDSL reduction and a host-side ``If``."""
    tiles, n = 4, 2000
    ctx = TensorContext(IPUDevice(tiles_per_ipu=tiles))
    x = ctx.tensor((n,), Type.FLOAT32)
    starts = sorted(x.var.mapping[:, 1].tolist())
    offsets = ctx.tensor((tiles,), data=np.array(starts, dtype=np.float32),
                         tile_ids=list(range(tiles)))
    ctx.Execute([x, offsets], lambda xs, off: For(
        0, xs.size, 1,
        lambda i: xs.set(i, Select((i + off[0]) % 2 == 0, 1.0, -1.0) / (2 * (i + off[0]) + 1)),
    ))
    pi = (x.reduce() * 4).materialize()
    ctx.If(abs(pi - 3.141) < 0.01, lambda: ctx.print("found pi"))
    engine = ctx.run(backend=backend, tracer=tracer)
    prof = ctx.device.profiler
    return {
        "x": np.asarray(x.value()).tobytes(),
        "pi": np.asarray(pi.value()).tobytes(),
        "engine": (engine.supersteps, engine.exchanges, engine.host_callbacks),
        "cycles": prof.total_cycles,
        "by_category": prof.by_category(),
        "by_path": prof.by_path(inclusive=False),
    }


def test_codedsl_pi_lattice():
    stepped, sim, fused = _pi("sim", Tracer()), _pi("sim", None), _pi("fused", None)
    assert abs(np.frombuffer(stepped["pi"], np.float32)[0] - np.pi) < 1e-2
    assert stepped["engine"][2] == 1  # the branch took its host print
    for key in ("x", "pi", "engine"):
        assert sim[key] == stepped[key] and fused[key] == stepped[key], key
    for key in ("cycles", "by_category", "by_path"):
        assert sim[key] == stepped[key], key
    assert stepped["cycles"] > 0 and fused["cycles"] == 0
