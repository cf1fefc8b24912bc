"""One input gate: a malformed ``b``/``x0`` is a typed ``ReproError`` on
every entry point — ``solve()``, ``SolverService.submit()`` and the CLI —
never a NaN result reported as success.  So is a solver config that names
no known solver or whose tolerance or iteration cap is out of bounds, or a
device shape (tile and IPU counts, ``grid_dims``) that cannot hold the
matrix (``SolverConfigError``, exit code 20), a keyword ``submit()`` does
not take, a CLI matrix spec that names no matrix (``MatrixFormatError``,
exit code 19), and a block whose ILU(0) / DILU factorization meets a zero
pivot (``FactorizationError``, exit code 21)."""

import asyncio
import json
import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.io
import scipy.sparse as sp

from repro.cli import main
from repro.errors import FactorizationError, ReproError, SolverConfigError
from repro.graph.passes import compile_program
from repro.machine import IPUDevice
from repro.serve import ServicePolicy, SolverService
from repro.solvers import ProgramCache, SolverSession, compile_solve, solve
from repro.sparse import ModifiedCRS, poisson2d

CRS, DIMS = poisson2d(8)
N = CRS.n
GOOD = np.random.default_rng(0).standard_normal(N)


def _counting_lowerings():
    """Count the program lowerings of the ``with`` block: a refused call
    must count none."""
    return mock.patch("repro.tensordsl.context.compile_program", wraps=compile_program)


def test_the_lowering_count_sees_a_build():
    with _counting_lowerings() as lowered:
        solve(CRS, GOOD, "cg", grid_dims=DIMS, tiles_per_ipu=4)
    assert lowered.call_count == 1


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
#: ``failure=None`` (or, for ``"abc"``, raise a raw ``TypeError``).  And a
#: tree that names no known solver, or an MPIR without its inner solver:
#: ``submit()`` used to admit those and book them as worker faults.
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
    ("unknown_solver", {"solver": "nope"}, "unknown solver 'nope'"),
    ("no_solver_key", {"tol": 1e-6}, "solver config needs a 'solver' key"),
    ("mpir_without_inner", {"solver": "mpir", "precision": "dw"},
     "mpir config needs an 'inner' solver"),
    ("nested_unknown_solver", {"solver": "cg", "preconditioner": {"solver": "amg"}},
     "unknown solver 'amg' at preconditioner"),
]
CONFIG_IDS = [c[0] for c in BAD_CONFIGS]


@pytest.mark.parametrize("case", BAD_CONFIGS, ids=CONFIG_IDS)
def test_solve_rejects_bad_bounds(case):
    _, config, needle = case
    with _counting_lowerings() as lowered, \
            pytest.raises(SolverConfigError, match=needle) as exc_info:
        solve(CRS, GOOD, config, grid_dims=DIMS, tiles_per_ipu=4)
    assert exc_info.value.exit_code == 20
    assert lowered.call_count == 0  # refused at the gate, nothing built


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


#: (id, device-shape keywords, message) — each used to end in a raw
#: ``ValueError`` or ``TypeError`` from the device or the partitioner, or
#: (``tiles_per_ipu=None``) in a solve on the 1,472 tiles of a whole IPU.
#: ``None`` is a value only for ``num_tiles`` and ``grid_dims``.
BAD_SHAPES = [
    ("tiles_per_ipu_zero", {"tiles_per_ipu": 0}, "tiles_per_ipu must be a positive int"),
    ("tiles_per_ipu_float", {"tiles_per_ipu": 2.5}, "tiles_per_ipu must be a positive int"),
    ("num_tiles_negative", {"num_tiles": -1}, "num_tiles must be a positive int"),
    ("num_ipus_zero", {"num_ipus": 0}, "num_ipus must be a positive int"),
    ("grid_dims_wrong_size", {"grid_dims": (2, 2)}, r"holds 4 cells but the matrix has 64"),
    ("grid_dims_not_ints", {"grid_dims": "8x8"}, "grid_dims must be a tuple"),
    ("grid_dims_unsplittable", {"grid_dims": (1, 64), "tiles_per_ipu": 4},
     r"cannot be split into \(2, 2\) blocks"),
    ("num_ipus_none", {"num_ipus": None, "grid_dims": None},
     "num_ipus must be a positive int, got None"),
    ("num_ipus_none_with_grid_dims", {"num_ipus": None},
     "num_ipus must be a positive int, got None"),
    ("tiles_per_ipu_none", {"tiles_per_ipu": None},
     "tiles_per_ipu must be a positive int, got None"),
    ("num_ipus_bool", {"num_ipus": True}, "num_ipus must be a positive int, got True"),
]
SHAPE_IDS = [c[0] for c in BAD_SHAPES]


def _shape(overrides: dict) -> dict:
    return {"grid_dims": DIMS, "tiles_per_ipu": 4, **overrides}


@pytest.mark.parametrize("case", BAD_SHAPES, ids=SHAPE_IDS)
def test_solve_and_compile_solve_reject_bad_shapes(case):
    _, overrides, needle = case
    with _counting_lowerings() as lowered:
        for entry in (solve, compile_solve):
            with pytest.raises(SolverConfigError, match=needle) as exc_info:
                entry(CRS, GOOD, "cg", **_shape(overrides))
            assert exc_info.value.exit_code == 20
    assert lowered.call_count == 0  # refused at the gate, nothing built


@pytest.mark.parametrize("case", BAD_SHAPES, ids=SHAPE_IDS)
def test_a_session_refuses_a_bad_shape_when_it_is_made(case):
    _, overrides, needle = case
    with pytest.raises(SolverConfigError, match=needle) as exc_info:
        SolverSession(CRS, "cg", **_shape(overrides))
    assert exc_info.value.exit_code == 20


def test_compile_solve_takes_the_backend_like_every_shape_option():
    sim = compile_solve(CRS, GOOD, "cg", **_shape({}))
    fused = compile_solve(CRS, GOOD, "cg", backend="fused", **_shape({}))
    assert fused.stats == sim.stats  # the kernel schedule is lowered for every backend


def test_solve_takes_no_device():
    # Every program builds on a device of its own, cached or not.
    with _counting_lowerings() as lowered, pytest.raises(TypeError, match="device"):
        solve(CRS, GOOD, "cg", device=IPUDevice(num_ipus=1, tiles_per_ipu=4), **_shape({}))
    assert lowered.call_count == 0


def test_a_nine_row_grid_refuses_a_four_cell_shape():
    from repro.sparse import poisson2d

    crs, _ = poisson2d(3)
    with pytest.raises(SolverConfigError, match="holds 4 cells but the matrix has 9 rows"):
        solve(crs, np.ones(9), "cg", grid_dims=(2, 2))


@pytest.mark.parametrize("case", BAD_SHAPES, ids=SHAPE_IDS)
def test_submit_rejects_bad_shapes_without_spending_quota(case):
    _, overrides, needle = case

    async def go():
        policy = ServicePolicy(quota_rate=0.0, quota_burst=1.0)
        async with SolverService(workers=1, policy=policy) as svc:
            with pytest.raises(SolverConfigError, match=needle):
                svc.submit(CRS, GOOD, "cg", backend="fused", **_shape(overrides))
            ok = await svc.solve(CRS, GOOD, "cg", grid_dims=DIMS, backend="fused")
            return ok, svc.accounting()

    ok, acc = asyncio.run(go())
    assert ok.result.failure is None
    assert acc["balanced"], acc
    assert acc["rejections"] == {"invalid_argument": 1}


#: (id, keyword) — each used to be admitted, then fail in a worker and be
#: booked as a worker fault (``device=`` for 7 of 8 jobs sharing it).
REFUSED_KEYWORDS = [
    ("unknown", "foo", lambda: 1),
    ("cache", "cache", ProgramCache),
    ("max_wall_seconds", "max_wall_seconds", lambda: 1.0),
    ("device", "device", lambda: IPUDevice(num_ipus=1, tiles_per_ipu=4)),
]


@pytest.mark.parametrize("case", REFUSED_KEYWORDS, ids=[c[0] for c in REFUSED_KEYWORDS])
def test_submit_refuses_keywords_it_does_not_take(case):
    _, name, value = case

    async def go():
        policy = ServicePolicy(quota_rate=0.0, quota_burst=1.0)
        async with SolverService(workers=1, policy=policy) as svc:
            with _counting_lowerings() as lowered:
                with pytest.raises(ReproError, match=f"does not take {name}") as exc_info:
                    svc.submit(CRS, GOOD, "cg", backend="fused", **_shape({}),
                               **{name: value()})
                assert exc_info.value.exit_code == 10
                assert lowered.call_count == 0
            # The refusal spent no quota token: this job takes the only one.
            ok = await svc.solve(CRS, GOOD, "cg", grid_dims=DIMS, backend="fused")
            return ok, svc.accounting()

    ok, acc = asyncio.run(go())
    assert ok.result.failure is None
    assert acc["balanced"], acc
    assert acc["rejections"] == {"invalid_argument": 1}
    assert acc["worker_faults"] == 0


def test_submit_passes_observers_through_and_keeps_the_job_unbatched():
    from repro.serve import BatchPolicy

    async def go():
        policy = ServicePolicy(batch=BatchPolicy(max_batch=4, max_wait_ms=0.0))
        async with SolverService(workers=1, policy=policy) as svc:
            seen = []
            job = svc.submit(CRS, GOOD, "cg", backend="fused", wall_trace=True,
                             on_progress=seen.append, progress_every=2, **_shape({}))
            plain = svc.submit(CRS, GOOD, "cg", backend="fused", **_shape({}))
            return job, plain, await job.future, seen

    job, plain, served, seen = asyncio.run(go())
    assert job.batch_key is None and plain.batch_key is not None
    assert job.fingerprint == plain.fingerprint  # the same program
    assert served.result.wall_telemetry is not None
    assert seen and all(p.iteration % 2 == 0 for p in seen)


@pytest.mark.parametrize("command", ["solve", "compile-report", "batch", "serve"])
@pytest.mark.parametrize("flags, needle", [
    (["--tiles", "0"], "tiles_per_ipu must be a positive int, got 0"),
    (["--tiles", "-3"], "tiles_per_ipu must be a positive int, got -3"),
    (["--ipus", "0"], "num_ipus must be a positive int, got 0"),
])
def test_cli_exits_20_on_bad_device_shape(command, flags, needle, capsys):
    rc = main([command, "--matrix", "poisson2d:8", "--config", "cg", *flags])
    assert rc == 20
    err = capsys.readouterr().err
    assert err.startswith("error:") and needle in err


def test_serve_checks_its_config_before_starting_the_service(capsys):
    rc = main(["serve", "--matrix", "poisson2d:8", "--config", '{"solver": "nope"}',
               "--tiles", "4", "--jobs", "2"])
    assert rc == 20
    captured = capsys.readouterr()
    assert captured.out == ""  # no load run, no ledger
    assert captured.err.startswith("error: unknown solver 'nope'")


@pytest.mark.parametrize("spec, needle", [
    ("poisson3d:abc", "the size must be a positive integer, got 'abc'"),
    ("poisson2d:0", "the size must be a positive integer, got '0'"),
    ("poisson:-1", "the size must be a positive integer, got '-1'"),
    ("g3:0", "the size must be a positive integer, got '0'"),
    ("nosuch.mtx", "unknown matrix spec 'nosuch.mtx'"),
])
def test_cli_exits_19_on_bad_matrix_spec(spec, needle, capsys):
    rc = main(["solve", "--matrix", spec, "--config", "cg", "--tiles", "4"])
    assert rc == 19
    err = capsys.readouterr().err
    assert err.startswith("error:") and needle in err


#: Rows 0 and 1 couple as ``[[1, 1], [1, 1]]``: ILU(0) and DILU both produce
#: the pivot ``1 - 1·1/1 = 0`` at local row 1 of the one tile.  It used to
#: build and run the whole program behind a numpy divide warning and end in
#: ``failure="nan_residual"``.
ZERO_PIVOT = np.array([[1.0, 1, 0, 0], [1, 1, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]])
PIVOT_NEEDLE = "the factorization of tile 0 produced pivot 0.0 at local row 1"


def _bicgstab(pre: str) -> dict:
    return {"solver": "bicgstab", "preconditioner": {"solver": pre}}


@pytest.mark.parametrize("pre", ["ilu0", "dilu"])
def test_a_zero_pivot_is_refused_before_anything_is_lowered(pre):
    crs = ModifiedCRS.from_scipy(sp.csr_matrix(ZERO_PIVOT))
    with warnings.catch_warnings(), _counting_lowerings() as lowered:
        warnings.simplefilter("error")  # and no numpy warning on the way
        with pytest.raises(FactorizationError, match=PIVOT_NEEDLE) as exc_info:
            solve(crs, np.ones(4), _bicgstab(pre), num_tiles=1)
    err = exc_info.value
    assert (err.exit_code, err.solver, err.tile, err.row) == (21, pre, 0, 1)
    assert lowered.call_count == 0


@pytest.mark.parametrize("pre", ["ilu0", "dilu"])
def test_submit_settles_a_zero_pivot_job_with_the_error(pre):
    crs = ModifiedCRS.from_scipy(sp.csr_matrix(ZERO_PIVOT))

    async def go():
        async with SolverService(workers=1) as svc:
            job = svc.submit(crs, np.ones(4), _bicgstab(pre), num_tiles=1, backend="fused")
            with pytest.raises(FactorizationError, match=PIVOT_NEEDLE):
                await job.future
            return svc.accounting()

    acc = asyncio.run(go())
    assert acc["balanced"], acc
    assert acc["worker_faults"] == 0 and acc["failed"] == 1, acc


def test_cli_exits_21_on_a_zero_pivot(tmp_path, capsys):
    path = tmp_path / "pivot.mtx"
    scipy.io.mmwrite(path, sp.coo_matrix(ZERO_PIVOT))
    rc = main(["solve", "--matrix", str(path), "--config", json.dumps(_bicgstab("ilu0")),
               "--tiles", "1"])
    assert rc == 21
    err = capsys.readouterr().err
    assert err.startswith("error:") and PIVOT_NEEDLE in err
