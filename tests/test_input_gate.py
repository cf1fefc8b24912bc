"""One input gate: a malformed ``b``/``x0`` is a typed ``ReproError`` on
every entry point — ``solve()``, ``SolverService.submit()`` and the CLI —
never a NaN result reported as success.  So is a solver config whose
tolerance or iteration cap is out of bounds (``SolverConfigError``, exit
code 20)."""

import asyncio
import json

import numpy as np
import pytest

from repro.cli import main
from repro.errors import ReproError, SolverConfigError
from repro.serve import ServicePolicy, SolverService
from repro.solvers import solve
from repro.sparse import poisson2d

CRS, DIMS = poisson2d(8)
N = CRS.n
GOOD = np.random.default_rng(0).standard_normal(N)


def _with(value, at=3):
    b = GOOD.copy()
    b[at] = value
    return b


#: (id, b, x0, message) — every case must be refused before anything runs.
CASES = [
    ("b_nan", _with(np.nan), None, "non-finite"),
    ("b_inf", _with(np.inf), None, "non-finite"),
    ("b_non_numeric", np.array(["x"] * N), None, "real-numeric"),
    ("x0_shape_1d", GOOD, np.zeros(N + 1), "x0 shape"),
    ("x0_shape_batched", np.stack([GOOD, GOOD]), np.zeros(N), "x0 shape"),
    ("empty_batch", np.empty((0, N)), None, "at least one"),
]
IDS = [c[0] for c in CASES]


@pytest.mark.parametrize("backend", ["sim", "fused"])
@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_solve_rejects(case, backend):
    _, b, x0, needle = case
    with pytest.raises(ReproError, match=needle) as exc_info:
        solve(CRS, b, "cg", x0=x0, grid_dims=DIMS, tiles_per_ipu=4, backend=backend)
    assert exc_info.value.exit_code == 10


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_submit_rejects_without_spending_quota(case):
    _, b, x0, needle = case

    async def go():
        # One quota token, never refilled: a rejection that spent it would
        # turn the good job below into a QuotaExceededError.
        policy = ServicePolicy(quota_rate=0.0, quota_burst=1.0)
        async with SolverService(workers=1, policy=policy) as svc:
            with pytest.raises(ReproError, match=needle):
                svc.submit(CRS, b, "cg", x0=x0, grid_dims=DIMS, backend="fused")
            ok = await svc.solve(CRS, GOOD, "cg", grid_dims=DIMS, backend="fused")
            return ok, svc.accounting()

    ok, acc = asyncio.run(go())
    assert ok.result.failure is None
    assert acc["balanced"], acc
    assert acc["rejections"] == {"invalid_argument": 1}


@pytest.mark.parametrize("case", [c for c in CASES if c[2] is None],
                         ids=[c[0] for c in CASES if c[2] is None])
def test_cli_exits_10(case, tmp_path, capsys):
    _, b, _, needle = case
    rhs = tmp_path / "b.npy"
    np.save(rhs, b)
    rc = main(["solve", "--matrix", "poisson2d:8", "--config", "cg",
               "--tiles", "4", "--rhs", str(rhs)])
    assert rc == 10
    err = capsys.readouterr().err
    assert "error:" in err and needle in err


#: (id, config, message) — a tolerance or iteration cap out of bounds, at any
#: depth of the config tree; each used to finish after 0 iterations with
#: ``failure=None`` (or, for ``"abc"``, raise a raw ``TypeError``).
BAD_CONFIGS = [
    ("tol_nan", {"solver": "cg", "tol": float("nan")}, "tol must be a finite real"),
    ("tol_negative", {"solver": "cg", "tol": -1}, "tol must be a finite real"),
    ("tol_inf", {"solver": "cg", "tol": float("inf")}, "tol must be a finite real"),
    ("tol_string", {"solver": "cg", "tol": "abc"}, "tol must be a finite real"),
    ("tol_bool", {"solver": "cg", "tol": True}, "tol must be a finite real"),
    ("max_iterations_negative", {"solver": "cg", "max_iterations": -3},
     "max_iterations must be a positive int"),
    ("fixed_iterations_zero", {"solver": "bicgstab", "fixed_iterations": 0},
     "fixed_iterations must be a positive int"),
    ("max_outer_float", {"solver": "mpir", "max_outer": 4.5, "inner": "cg"},
     "max_outer must be a positive int"),
    ("inner_tol", {"solver": "mpir", "inner": {"solver": "cg", "tol": -1e-6}},
     "inner.tol must be"),
    ("nested_preconditioner_cap", {
        "solver": "mpir", "inner": {"solver": "bicgstab", "preconditioner": {
            "solver": "jacobi", "max_iterations": -1}}},
     "inner.preconditioner.max_iterations must be"),
]
CONFIG_IDS = [c[0] for c in BAD_CONFIGS]


@pytest.mark.parametrize("case", BAD_CONFIGS, ids=CONFIG_IDS)
def test_solve_rejects_bad_bounds(case):
    from repro.graph.passes import pass_invocations

    _, config, needle = case
    before = pass_invocations()
    with pytest.raises(SolverConfigError, match=needle) as exc_info:
        solve(CRS, GOOD, config, grid_dims=DIMS, tiles_per_ipu=4)
    assert exc_info.value.exit_code == 20
    assert pass_invocations() == before  # refused at the gate, nothing built


@pytest.mark.parametrize("case", BAD_CONFIGS, ids=CONFIG_IDS)
def test_submit_rejects_bad_bounds_without_spending_quota(case):
    _, config, needle = case

    async def go():
        policy = ServicePolicy(quota_rate=0.0, quota_burst=1.0)
        async with SolverService(workers=1, policy=policy) as svc:
            with pytest.raises(SolverConfigError, match=needle):
                svc.submit(CRS, GOOD, config, grid_dims=DIMS, backend="fused")
            ok = await svc.solve(CRS, GOOD, "cg", grid_dims=DIMS, backend="fused")
            return ok, svc.accounting()

    ok, acc = asyncio.run(go())
    assert ok.result.failure is None
    assert acc["balanced"], acc
    assert acc["rejections"] == {"invalid_argument": 1}


@pytest.mark.parametrize("case", BAD_CONFIGS, ids=CONFIG_IDS)
def test_cli_exits_20_on_bad_bounds(case, capsys):
    _, config, needle = case
    rc = main(["solve", "--matrix", "poisson2d:8", "--config", json.dumps(config),
               "--tiles", "4"])
    assert rc == 20
    err = capsys.readouterr().err
    assert "error:" in err and needle in err
