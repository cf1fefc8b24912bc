"""One input gate: a malformed ``b``/``x0`` is a typed ``ReproError`` on
every entry point — ``solve()``, ``SolverService.submit()`` and the CLI —
never a NaN result reported as success."""

import asyncio

import numpy as np
import pytest

from repro.cli import main
from repro.errors import ReproError
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
