"""Build-identity goldens: the cold path may get cheaper, never different.

``PYTHONPATH=src python tests/baselines/test_build_identity.py --record``
regenerates ``build_identity.json`` — only ever on a parent commit (it
refuses while ``src`` differs from ``HEAD``), never to make a failing test
pass.  Six programs: the fig5-shape CG (``poisson3d:16`` on 2x16), the
Fig. 8 MPIR + PBiCGStab + ILU(0) config on ``g3:12`` (1x16) and a batched
B=8 CG on ``poisson2d:24``, recorded before the cold-start work; and three
Krylov loops on ``poisson2d:12`` (1x8) — PBiCGStab with its residual
history, PBiCGStab + Jacobi at B=4, CG + Jacobi in the ``fixed_iterations``
(``Repeat``/``If``) form at B=3 — recorded, with every program's ``tree``,
before CG and PBiCGStab built one loop for one RHS and for a batch.  For
each:

- what is built — ``fingerprint_solve`` key, ``GraphStats`` and
  ``compile_proxy``, kernel / loop-kernel counts, a digest of every tile's
  ``local`` arrays, of ``perm``, and the per-tile SRAM high-water marks;
- how it is laid out — a digest of ``compiled.describe(max_depth=64)``,
  which names every compute set in schedule order, so a reordered or
  renumbered step shows even where the cycle count would not;
- what it computes — ``SolveResult.cycles``, iterations, a digest of ``x``;
- what every kernel is priced at — ``(est_bytes, est_flops, n_assign,
  fallbacks)`` per kernel, so ``costs.estimate_exchange`` (which reads the
  flat copies) and the once-per-group compute estimates cannot drift.  A
  reduce group's flop count needs the *sum of per-tile maxima* of its leaf
  footprints, not the maximum of per-leaf sums: the two differ as soon as a
  scalar leaf meets a distributed one.
"""

import hashlib
import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from repro.graph.passes.kernels import ExchangeOp
from repro.graph.program import Exchange
from repro.solvers import fingerprint_solve, solve
from repro.sparse import poisson2d, poisson3d
from repro.sparse.suitesparse import g3_circuit_like

GOLDEN = Path(__file__).with_name("build_identity.json")

CG = {"solver": "cg", "tol": 1e-6}
JACOBI = {"solver": "jacobi"}
BICGSTAB = {"solver": "bicgstab", "tol": 1e-6}
BICGSTAB_JACOBI = {**BICGSTAB, "preconditioner": JACOBI}
CG_JACOBI_FIXED = {**CG, "fixed_iterations": 40, "preconditioner": JACOBI}
MPIR_FIG8 = {
    "solver": "mpir", "precision": "dw", "tol": 1e-9, "max_outer": 12,
    "inner": {"solver": "bicgstab", "fixed_iterations": 50, "tol": 2e-7,
              "record_history": False, "preconditioner": {"solver": "ilu0"}},
}
LOCAL_KEYS = ("rows_global", "diag", "values", "col_idx", "row_ptr", "values_lo",
              "diag_lo", "values_ext", "diag_ext", "row_of_entry")


def _cases() -> dict:
    return {
        "cg_poisson3d16_2x16": (poisson3d(16), CG, (2, 16), 1, "cg.iterate"),
        "mpir_g3_12_1x16": ((g3_circuit_like(grid=12), None), MPIR_FIG8, (1, 16), 1,
                            "mpir.refine"),
        "cg_poisson2d24_b8": (poisson2d(24), CG, (1, 16), 8, "cg.iterate"),
        "bicgstab_poisson2d12_1x8": (poisson2d(12), BICGSTAB, (1, 8), 1,
                                     "bicgstab.iterate"),
        "bicgstab_jacobi_poisson2d12_b4": (poisson2d(12), BICGSTAB_JACOBI, (1, 8), 4,
                                           "bicgstab.iterate"),
        "cg_jacobi_fixed_poisson2d12_b3": (poisson2d(12), CG_JACOBI_FIXED, (1, 8), 3,
                                           "cg.iterate"),
    }


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()[:24]


def _walk(step):
    yield step
    for attr in ("steps", "body", "then_body", "else_body"):
        child = getattr(step, attr, None)
        for c in child if isinstance(child, list) else [child]:
            if c is not None and not isinstance(c, (int, str)):
                yield from _walk(c)


def snapshot(name: str) -> dict:
    (crs, dims), config, (ipus, tiles), batch, loop = _cases()[name]
    rng = np.random.default_rng(5)
    b = rng.standard_normal((batch, crs.n) if batch > 1 else crs.n)
    kwargs = dict(num_ipus=ipus, tiles_per_ipu=tiles, grid_dims=dims)
    res = solve(crs, b, config, backend="sim", **kwargs)
    compiled, dist, device = res.compiled, res.solver.A, res.engine.device
    kernels = compiled.kernels
    exchange_ops = sum(
        len(compiled.plan_for(s).ops) for s in _walk(compiled.root) if isinstance(s, Exchange)
    )
    return {
        "key": fingerprint_solve(crs, config, backend="sim", batch=batch, **kwargs),
        "stats": vars(compiled.stats) | {"compile_proxy": compiled.compile_proxy},
        "source_stats": vars(compiled.source_stats),
        "kernels": kernels.n_kernels,
        "loop_kernels": kernels.loop_kernel_count(compiled.root, loop),
        "kernel_stats": kernels.stats(),
        "exchange_ops": exchange_ops,
        "local": _digest(*(dist.local[t][k] for t in dist.tiles for k in LOCAL_KEYS)),
        "perm": _digest(dist.perm),
        "tree": hashlib.sha256(compiled.describe(max_depth=64).encode()).hexdigest()[:24],
        "sram_peak": device.sram_report()["per_tile_peak_bytes"],
        "cycles": int(res.cycles),
        "iterations": res.iterations,
        "x": _digest(res.x),
        "kernel_costs": [
            [k.est_bytes, k.est_flops,
             [op.n_assign for op in k.ops if isinstance(op, ExchangeOp)],
             sorted(Counter(f.split("@")[0] for f in k.fallbacks).items())]
            for k in kernels.kernels
        ],
    }


@pytest.mark.parametrize("name", sorted(_cases()))
def test_build_is_identical_to_the_recorded_parent(name):
    want = json.loads(GOLDEN.read_text())[name]
    got = json.loads(json.dumps(snapshot(name)))  # tuples -> lists, like the file
    for field in want:
        assert got[field] == want[field], f"{name}: {field} drifted from the parent build"
    assert set(got) == set(want)


def test_fig5_shape_matches_the_ledger():
    """The numbers the perfbench README quotes for ``figure_cold_sim``."""
    want = json.loads(GOLDEN.read_text())["cg_poisson3d16_2x16"]
    assert (want["cycles"], want["iterations"]) == (424_422, 51)


def refuse_dirty_src() -> None:
    """``--record`` pins the parent's build, so it runs only on a clean ``src``."""
    root = Path(__file__).resolve().parents[2]
    status = subprocess.run(["git", "status", "--porcelain", "--", "src"], cwd=root,
                            capture_output=True, text=True, check=True).stdout
    if status:  # modified, staged or untracked files under src/ all count
        raise SystemExit("refusing to record: src/ differs from HEAD (record on the parent)")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit("usage: test_build_identity.py --record  (on the parent commit)")
    refuse_dirty_src()
    GOLDEN.write_text(json.dumps({n: snapshot(n) for n in sorted(_cases())}, indent=1) + "\n")
    print(f"recorded {GOLDEN}")
