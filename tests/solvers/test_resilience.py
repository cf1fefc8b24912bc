"""The resilient solve driver: failure classification, checkpoint/rollback
recovery under injected faults, and OOM graceful degradation."""

import numpy as np
import pytest

from repro.errors import SolverBreakdownError, SRAMOverflowError
from repro.solvers import ResilienceConfig, solve
from repro.sparse import poisson2d, poisson3d

# Injected bit flips legitimately push f32 arithmetic through inf/NaN before
# detection kicks in; those numpy warnings are the faults working as intended.
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


def _system(n=8):
    crs, dims = poisson3d(n)
    b = np.random.default_rng(3).standard_normal(crs.n)
    return crs, dims, b


CG = {"solver": "cg", "tol": 1e-6}


class TestFailureField:
    def test_converged_solve_has_no_failure(self):
        crs, dims, b = _system()
        r = solve(crs, b, CG, tiles_per_ipu=8, grid_dims=dims)
        assert r.failure is None
        assert "failure" not in repr(r)

    def test_max_iterations(self):
        crs, dims, b = _system()
        r = solve(crs, b, {"solver": "cg", "tol": 1e-12, "max_iterations": 3},
                  tiles_per_ipu=8, grid_dims=dims)
        assert r.failure == "max_iterations"
        assert r.stats.failure == "max_iterations"
        assert "failure='max_iterations'" in repr(r)
        assert "failure='max_iterations'" in repr(r.stats)

    @pytest.mark.parametrize("backend", ["sim", "fused"])
    @pytest.mark.parametrize("solver", ["bicgstab", "cg"])
    def test_krylov_breakdown_exits_cleanly(self, backend, solver):
        # A right-hand side at the bottom of the f32 range collapses rho to
        # ~1e-34 < the 1e-30 breakdown guard after one iteration: the guard
        # must terminate the loop (no NaN storm, no max_iterations burn) and
        # the failure must classify as "breakdown" on both backends.
        crs, _ = poisson2d(3)
        b = np.full(crs.n, 1e-17)
        r = solve(crs, b, {"solver": solver, "tol": 1e-9},
                  tiles_per_ipu=4, backend=backend)
        assert r.failure == "breakdown"
        assert r.iterations <= 2  # the guard exited, not the budget
        assert np.isfinite(r.x).all()

    def test_raise_on_failure_maps_breakdown_to_exception(self):
        crs, _ = poisson2d(3)
        b = np.full(crs.n, 1e-17)
        with pytest.raises(SolverBreakdownError):
            solve(crs, b, {"solver": "bicgstab", "tol": 1e-9}, tiles_per_ipu=4,
                  resilience="raise_on_failure=true,max_rollbacks=0")


class TestResilienceConfig:
    def test_parse_forms(self):
        assert ResilienceConfig.parse(None) is None
        assert ResilienceConfig.parse(False) is None
        assert ResilienceConfig.parse(True) == ResilienceConfig()
        assert ResilienceConfig.parse("") == ResilienceConfig()
        cfg = ResilienceConfig.parse("checkpoint_every=5,max_rollbacks=7,backoff=1.5")
        assert (cfg.checkpoint_every, cfg.max_rollbacks, cfg.backoff) == (5, 7, 1.5)
        assert ResilienceConfig.parse({"degrade_on_oom": False}).degrade_on_oom is False
        assert ResilienceConfig.parse(cfg) is cfg

    def test_parse_rejects(self):
        from repro.errors import ReproError

        for bad in ("checkpoint_every", "nonsense=1", "max_rollbacks=-1",
                    "backoff=0.5", "min_tiles=0"):
            with pytest.raises(ReproError):
                ResilienceConfig.parse(bad)


class TestCleanRunParity:
    def test_resilience_on_clean_run_is_bit_identical(self):
        crs, dims, b = _system()
        kw = dict(num_ipus=2, tiles_per_ipu=16, grid_dims=dims)
        plain = solve(crs, b, CG, **kw)
        resil = solve(crs, b, CG, resilience=True, **kw)
        assert np.array_equal(plain.x, resil.x)
        assert plain.cycles == resil.cycles
        assert resil.resilience.outcome == "clean"
        assert resil.resilience.rollbacks == 0
        assert plain.resilience is None


class TestRecovery:
    KW = dict(num_ipus=2, tiles_per_ipu=16)
    FAULTS = "seed=7;bitflip:p=0.03,where=exchange"

    def test_rollback_recovers_to_tolerance(self):
        crs, dims, b = _system()
        clean = solve(crs, b, CG, grid_dims=dims, **self.KW)
        faulty = solve(crs, b, CG, grid_dims=dims, inject_faults=self.FAULTS,
                       resilience=True, **self.KW)
        rep = faulty.resilience
        assert rep.faults_injected > 0
        assert rep.rollbacks > 0
        assert rep.outcome == "recovered"
        assert faulty.failure is None
        # recovered run meets the same tolerance as the clean one
        assert faulty.relative_residual <= 1e-5
        assert clean.relative_residual <= 1e-5

    def test_faulty_runs_replay_bit_identically(self):
        crs, dims, b = _system()
        runs = [solve(crs, b, CG, grid_dims=dims, inject_faults=self.FAULTS,
                      resilience=True, **self.KW) for _ in range(2)]
        assert np.array_equal(runs[0].x, runs[1].x)
        assert runs[0].cycles == runs[1].cycles
        assert runs[0].resilience.to_dict() == runs[1].resilience.to_dict()

    def test_rollback_records_reach_report_and_stats(self):
        crs, dims, b = _system()
        r = solve(crs, b, CG, grid_dims=dims, inject_faults=self.FAULTS,
                  resilience=True, **self.KW)
        rep = r.resilience.to_dict()
        assert rep["rollback_reasons"]
        assert set(rep["rollback_reasons"]) <= {
            "nan_residual", "divergence", "stagnation", "silent_corruption"}
        assert rep["checkpoints"] >= 1
        assert "outcome=recovered" in r.resilience.summary()


class TestDegradation:
    def test_tile_oom_without_resilience_raises(self):
        crs, dims, b = _system()
        with pytest.raises(SRAMOverflowError):
            solve(crs, b, CG, num_ipus=2, tiles_per_ipu=16, grid_dims=dims,
                  inject_faults="seed=1;tile_oom:tile=3,at=40")

    def test_tile_oom_degrades_to_fewer_tiles_and_completes(self):
        crs, dims, b = _system()
        r = solve(crs, b, CG, num_ipus=2, tiles_per_ipu=16, grid_dims=dims,
                  inject_faults="seed=1;tile_oom:tile=3,at=40", resilience=True)
        rep = r.resilience
        assert rep.outcome == "degraded"
        assert rep.restarts == 1
        assert rep.final_num_tiles == 16  # re-partitioned to half the tiles
        assert rep.faults_by_kind.get("tile_oom") == 1
        assert r.failure is None
        assert r.relative_residual <= 1e-5

    def test_restart_kernel_tallies_sum_over_every_attempt(self, monkeypatch):
        """An OOM restart runs a new engine; the solve's ``kernel_counters``
        are the first attempt's launches plus the second's."""
        from repro.graph import Engine

        crs, dims, b = _system()
        run, engines = Engine.run, []

        def run_then_oom_once(engine):
            run(engine)
            engines.append(engine)
            if len(engines) == 1:
                raise SRAMOverflowError("out of SRAM after the first attempt's launches")

        monkeypatch.setattr(Engine, "run", run_then_oom_once)
        r = solve(crs, b, CG, num_ipus=2, tiles_per_ipu=16, grid_dims=dims,
                  backend="fused", resilience=True)
        assert r.resilience.restarts == 1 and len(engines) == 2
        first, second = (e.kernel_counters() for e in engines)
        assert first["kernels"] > 0 and second["kernels"] > 0
        assert r.kernel_counters == {k: first[k] + second[k] for k in first}

    def test_degraded_restart_warm_starts_from_checkpoint(self):
        # An OOM after the solve has made progress must not discard it: the
        # rebuilt program warm-starts from the latest checkpointed iterate
        # and the report counts the carried iterations.
        crs, dims, b = _system()
        r = solve(crs, b, CG, num_ipus=2, tiles_per_ipu=16, grid_dims=dims,
                  inject_faults="seed=1;tile_oom:tile=3,at=300",
                  resilience="checkpoint_every=5")
        rep = r.resilience
        assert rep.outcome == "degraded"
        assert rep.carried_iterations > 0
        assert rep.to_dict()["carried_iterations"] == rep.carried_iterations
        assert f"carried_iterations={rep.carried_iterations}" in rep.summary()
        assert r.relative_residual <= 1e-5

    def test_oom_before_first_checkpoint_carries_nothing(self):
        # at=40 fires before any checkpoint exists; the restart is cold.
        crs, dims, b = _system()
        r = solve(crs, b, CG, num_ipus=2, tiles_per_ipu=16, grid_dims=dims,
                  inject_faults="seed=1;tile_oom:tile=3,at=40",
                  resilience="checkpoint_every=5")
        assert r.resilience.outcome == "degraded"
        assert r.resilience.carried_iterations == 0
        assert "carried_iterations" not in r.resilience.summary()

    def test_degrade_on_oom_false_raises(self):
        crs, dims, b = _system()
        with pytest.raises(SRAMOverflowError):
            solve(crs, b, CG, num_ipus=2, tiles_per_ipu=16, grid_dims=dims,
                  inject_faults="seed=1;tile_oom:tile=3,at=40",
                  resilience="degrade_on_oom=false")


class TestMpirResilience:
    def test_mpir_recovers_under_faults(self):
        crs, dims, b = _system()
        cfg = {"solver": "mpir", "tol": 1e-10, "precision": "dw",
               "inner": {"solver": "cg", "fixed_iterations": 25}}
        clean = solve(crs, b, cfg, num_ipus=2, tiles_per_ipu=16, grid_dims=dims)
        faulty = solve(crs, b, cfg, num_ipus=2, tiles_per_ipu=16, grid_dims=dims,
                       inject_faults="seed=13;bitflip:p=0.01,where=exchange",
                       resilience=True)
        assert clean.relative_residual <= 1e-9
        assert faulty.failure is None
        assert faulty.relative_residual <= 1e-9
