"""The framework error hierarchy (repro.errors) and its CLI exit codes."""

import numpy as np
import pytest

from repro.cli import main
from repro.errors import (
    BackendCapabilityError,
    DivergenceError,
    FaultSpecError,
    JobTimeoutError,
    MatrixFormatError,
    QuotaExceededError,
    ReproError,
    ServiceOverloadError,
    SolverBreakdownError,
    SolverConfigError,
    SRAMOverflowError,
)


class TestHierarchy:
    def test_all_derive_from_repro_error(self):
        for exc in (SRAMOverflowError, SolverBreakdownError, DivergenceError,
                    FaultSpecError, ServiceOverloadError, JobTimeoutError,
                    QuotaExceededError, MatrixFormatError, SolverConfigError):
            assert issubclass(exc, ReproError)

    def test_dual_inheritance_keeps_old_except_clauses_working(self):
        # SRAMOverflowError was a MemoryError before the hierarchy existed;
        # breakdown/divergence are arithmetic failures; bad specs are
        # ValueErrors.  Old call sites catch the stdlib bases.
        assert issubclass(SRAMOverflowError, MemoryError)
        assert issubclass(SolverBreakdownError, ArithmeticError)
        assert issubclass(DivergenceError, ArithmeticError)
        assert issubclass(FaultSpecError, ValueError)
        assert issubclass(MatrixFormatError, ValueError)
        assert issubclass(SolverConfigError, ValueError)
        assert issubclass(BackendCapabilityError, ValueError)
        assert issubclass(JobTimeoutError, TimeoutError)

    def test_exit_codes_distinct_and_nonzero(self):
        codes = [exc.exit_code for exc in (
            ReproError, SRAMOverflowError, SolverBreakdownError,
            DivergenceError, FaultSpecError, BackendCapabilityError,
            ServiceOverloadError, JobTimeoutError, QuotaExceededError,
            MatrixFormatError, SolverConfigError,
        )]
        assert len(set(codes)) == len(codes)
        assert all(c not in (0, 1, 2) for c in codes)

    def test_cli_docstring_lists_every_exit_code(self):
        import inspect
        import re

        import repro.cli
        import repro.errors

        doc = repro.cli.__doc__
        listed = doc[doc.index("Framework errors map to distinct exit codes"):]
        listed = {int(n) for n in re.findall(r"\b(\d+) [A-Za-z]", listed)}
        codes = {cls.exit_code for _, cls in inspect.getmembers(repro.errors, inspect.isclass)
                 if issubclass(cls, ReproError)}
        assert codes <= listed, f"exit codes missing from repro.cli: {sorted(codes - listed)}"


class TestServingErrors:
    def test_overload_message_carries_reason_and_depth(self):
        err = ServiceOverloadError(reason="queue_full", depth=8, capacity=8)
        assert err.reason == "queue_full"
        assert "queue 8/8" in str(err)

    def test_timeout_carries_partial_progress(self):
        err = JobTimeoutError(solver="cg", iteration=42, wall_seconds=1.5,
                              budget_seconds=1.0)
        assert err.iteration == 42
        assert "iteration 42" in str(err)
        assert err.stats is None  # no partial record attached here

    def test_quota_carries_backoff_hint(self):
        err = QuotaExceededError(tenant="acme", retry_after=0.25)
        assert err.tenant == "acme"
        assert "retry after 0.250s" in str(err)


class TestSRAMOverflowMessage:
    def test_structured_message(self):
        err = SRAMOverflowError(
            "allocating shard 'x@3' exceeds SRAM capacity",
            tile_id=3, requested=700_000, free=10_000, capacity=624_000,
        )
        msg = str(err)
        assert "tile 3" in msg
        assert "700000 B" in msg and "10000 B free" in msg
        assert "sram_report" in msg  # points at the diagnosis tool
        assert err.tile_id == 3 and err.requested == 700_000

    def test_real_overflow_carries_tile_detail(self):
        from repro.machine import IPUDevice

        device = IPUDevice(num_ipus=1, tiles_per_ipu=4)
        tile = device.tile(2)
        huge = np.zeros(tile.spec.sram_per_tile, dtype=np.float32)
        with pytest.raises(SRAMOverflowError) as exc_info:
            tile.alloc("huge", huge)
        err = exc_info.value
        assert err.tile_id == 2
        assert err.requested == huge.nbytes
        assert "tile 2" in str(err)


class TestCliExitCodes:
    def test_bad_fault_spec_maps_to_fault_spec_exit_code(self, capsys):
        rc = main(["faults", "seed=7;warp_core_breach:p=1"])
        assert rc == FaultSpecError.exit_code
        assert "error:" in capsys.readouterr().err

    def test_injected_oom_without_resilience_maps_to_sram_exit_code(self, capsys):
        rc = main([
            "solve", "--matrix", "poisson2d:8", "--config", "cg", "--tiles", "4",
            "--inject-faults", "seed=1;tile_oom:tile=0,at=5",
        ])
        assert rc == SRAMOverflowError.exit_code
        assert "tile 0" in capsys.readouterr().err

    def test_non_finite_matrix_file_maps_to_matrix_exit_code(self, tmp_path, capsys):
        path = tmp_path / "nan.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 3\n1 1 2.0\n1 2 nan\n2 2 3.0\n"
        )
        rc = main(["solve", "--matrix", str(path), "--config", "cg", "--tiles", "2"])
        assert rc == MatrixFormatError.exit_code == 19
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("config, needle", [
        ("{bad json", "valid JSON"),
        ('{"tol": 1e-6}', "'solver' key"),
        ('{"solver": "gmres"}', "unknown solver 'gmres'"),
    ], ids=["malformed-json", "no-solver-key", "unknown-solver"])
    def test_bad_config_maps_to_config_exit_code(self, config, needle, capsys):
        rc = main(["solve", "--matrix", "poisson2d:6", "--config", config,
                   "--tiles", "4"])
        assert rc == SolverConfigError.exit_code == 20
        err = capsys.readouterr().err
        assert err.startswith("error:") and needle in err
        assert "Traceback" not in err
