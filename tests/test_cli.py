"""CLI smoke tests."""

import json

import numpy as np
import pytest

from repro.cli import main


class TestSolveCommand:
    def test_solve_poisson_inline_config(self, capsys):
        rc = main([
            "solve", "--matrix", "poisson2d:8",
            "--config", '{"solver": "jacobi", "sweeps": 30}',
            "--tiles", "4",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "relative residual" in out
        assert "n=64" in out

    def test_solve_with_config_file_and_output(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"solver": "bicgstab", "tol": 1e-5,
                                   "preconditioner": {"solver": "ilu0"}}))
        rhs = tmp_path / "b.npy"
        np.save(rhs, np.ones(64))
        out_file = tmp_path / "x.npy"
        rc = main([
            "solve", "--matrix", "poisson2d:8", "--config", str(cfg),
            "--rhs", str(rhs), "--output", str(out_file), "--tiles", "4",
            "--profile",
        ])
        assert rc == 0
        x = np.load(out_file)
        assert x.shape == (64,)
        assert "cycle breakdown" in capsys.readouterr().out

    def test_generator_specs(self, capsys):
        rc = main([
            "solve", "--matrix", "g3:16",
            "--config", '{"solver": "jacobi", "sweeps": 5}',
            "--tiles", "4",
        ])
        assert rc == 0

    def test_unknown_matrix_rejected(self, capsys):
        assert main(["solve", "--matrix", "nonsense:3", "--config", "{}"]) == 19
        assert "unknown matrix spec 'nonsense:3'" in capsys.readouterr().err


class TestCacheCommands:
    def test_solve_repeat_reports_cache_and_identity(self, capsys):
        rc = main([
            "solve", "--matrix", "poisson2d:8",
            "--config", '{"solver": "cg", "tol": 1e-6}',
            "--tiles", "4", "--repeat", "3",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "repeat:            3 solves" in out
        assert "hits=2 misses=1" in out
        assert "bit-identical runs: yes" in out

    def test_batch_random_rhs(self, capsys):
        # Default path: one batched multi-RHS program, amortized exchanges.
        rc = main([
            "batch", "--matrix", "poisson2d:8",
            "--config", '{"solver": "cg", "tol": 1e-6}',
            "--tiles", "4", "--count", "3",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "3 right-hand sides" in out
        assert "rhs   2:" in out
        assert "3 RHS in one program" in out
        assert "amortized per RHS" in out

    def test_batch_unbatchable_config_runs_session_loop(self, capsys):
        # MPIR cannot ride the batch axis: batch falls back to one solve
        # per rhs through the compile-cache session instead of failing.
        rc = main([
            "batch", "--matrix", "poisson2d:8",
            "--config", '{"solver": "mpir", "tol": 1e-6, '
                        '"inner": {"solver": "cg", "tol": 1e-4}}',
            "--tiles", "4", "--count", "3",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "3 right-hand sides" in out
        assert "rhs   2:" in out
        assert "hits=2 misses=1" in out
        assert "in one program" not in out

    def test_batch_modes_agree_bit_identically(self, tmp_path):
        from repro.solvers import SolverSession
        from repro.sparse import poisson2d

        bs = np.random.default_rng(3).standard_normal((3, 64))
        rhs = tmp_path / "bs.npy"
        np.save(rhs, bs)
        out_b = tmp_path / "batched.npy"
        assert main(["batch", "--matrix", "poisson2d:8", "--config", "cg",
                     "--tiles", "4", "--rhs", str(rhs),
                     "--output", str(out_b)]) == 0
        crs, dims = poisson2d(8)
        session = SolverSession(crs, "cg", tiles_per_ipu=4, grid_dims=dims)
        looped = np.stack([session.solve(b).x for b in bs])
        assert np.array_equal(np.load(out_b), looped)

    def test_batch_rhs_file_and_output(self, tmp_path, capsys):
        rhs = tmp_path / "bs.npy"
        np.save(rhs, np.random.default_rng(0).standard_normal((2, 64)))
        out_file = tmp_path / "xs.npy"
        rc = main([
            "batch", "--matrix", "poisson2d:8", "--config", "cg",
            "--tiles", "4", "--rhs", str(rhs), "--output", str(out_file),
        ])
        assert rc == 0
        xs = np.load(out_file)
        assert xs.shape == (2, 64)
        # Each row solves its rhs: check against the host reference SpMV.
        from repro.sparse import poisson2d

        crs, _ = poisson2d(8)
        bs = np.load(rhs)
        for x, b in zip(xs, bs):
            assert np.linalg.norm(crs.spmv(x) - b) / np.linalg.norm(b) < 1e-4

    @pytest.mark.parametrize("command", ["solve", "batch"])
    @pytest.mark.parametrize("rhs, needle", [
        ("missing.npy", "no such file"),
        ("text.txt", "is not a .npy array"),
        ("arrays.npz", "is an archive"),
    ])
    def test_malformed_rhs_file_is_a_typed_error(self, command, rhs, needle, tmp_path,
                                                 capsys):
        (tmp_path / "text.txt").write_text("1 2 3\n")
        np.savez(tmp_path / "arrays.npz", b=np.ones(64))
        rc = main([command, "--matrix", "poisson2d:8", "--config", "cg", "--tiles", "4",
                   "--rhs", str(tmp_path / rhs)])
        assert rc == 10
        err = capsys.readouterr().err
        assert err.startswith("error: --rhs:") and needle in err

    def test_batch_rejects_wrong_rhs_shape(self, tmp_path):
        rhs = tmp_path / "bad.npy"
        np.save(rhs, np.ones((2, 7)))
        with pytest.raises(SystemExit, match="must be an"):
            main(["batch", "--matrix", "poisson2d:8", "--config", "cg",
                  "--tiles", "4", "--rhs", str(rhs)])


class TestTraceCommands:
    def _trace(self, tmp_path, capsys):
        """The ISSUE acceptance command: solve with --trace, bare config name,
        ``poisson:N`` alias."""
        path = tmp_path / "t.json"
        rc = main([
            "solve", "--matrix", "poisson:8", "--config", "cg",
            "--tiles", "4", "--trace", str(path),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert f"trace written to {path}" in out
        return path

    def test_solve_trace_writes_valid_chrome_json(self, tmp_path, capsys):
        from repro.telemetry import validate_chrome_trace

        path = self._trace(tmp_path, capsys)
        obj = json.loads(path.read_text())
        assert validate_chrome_trace(obj) == []
        spans = [e for e in obj["traceEvents"] if e.get("ph") == "X"]
        # Labeled scopes and counter tracks made it into the export.
        assert any(e["cat"] == "scope" and e["name"].startswith("solve:")
                   for e in spans)
        counters = {e["name"] for e in obj["traceEvents"] if e.get("ph") == "C"}
        assert {"residual", "imbalance"} <= counters

    def test_trace_report_renders_summary(self, tmp_path, capsys):
        path = self._trace(tmp_path, capsys)
        rc = main(["trace-report", str(path), "--check", "--top", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "valid Chrome trace" in out
        assert "hottest compute sets (top 3)" in out
        assert "convergence" in out

    def test_trace_report_rejects_garbage(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"traceEvents": [{"ph": "Q"}]}')
        with pytest.raises(SystemExit, match="invalid Chrome trace"):
            main(["trace-report", str(bad), "--check"])
        with pytest.raises(SystemExit, match="no such trace file"):
            main(["trace-report", str(tmp_path / "missing.json")])

    def test_trace_requires_sim_backend(self, tmp_path, capsys):
        trace = tmp_path / "t.json"
        rc = main([
            "solve", "--matrix", "poisson:8", "--config", "cg",
            "--tiles", "4", "--backend", "fused", "--trace", str(trace),
        ])
        # The backend, not a CLI pre-check, decides: typed error, exit 15.
        assert rc == 15
        err = capsys.readouterr().err
        assert "error:" in err and "--backend sim" in err and "--wall-trace" in err
        assert not trace.exists()


class TestFaultCommands:
    SPEC = "seed=7;bitflip:p=0.05,where=exchange"

    def test_faults_subcommand_normalizes_spec(self, capsys):
        rc = main(["faults", self.SPEC])
        assert rc == 0
        plan = json.loads(capsys.readouterr().out)
        assert plan["seed"] == 7
        assert plan["faults"] == [
            {"kind": "bitflip", "p": 0.05, "where": "exchange"}]

    def test_faults_subcommand_writes_plan_file(self, tmp_path, capsys):
        out = tmp_path / "plan.json"
        rc = main(["faults", self.SPEC, "--out", str(out)])
        assert rc == 0
        assert json.loads(out.read_text())["seed"] == 7
        assert "written to" in capsys.readouterr().out

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_solve_with_faults_and_resilience(self, tmp_path, capsys):
        report_path = tmp_path / "resilience.json"
        rc = main([
            "solve", "--matrix", "poisson3d:8",
            "--config", '{"solver": "cg", "tol": 1e-6}',
            "--ipus", "2", "--tiles", "16",
            "--inject-faults", "seed=7;bitflip:p=0.02,where=exchange",
            "--resilience", "--resilience-report", str(report_path),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "resilience:" in out and "outcome=" in out
        report = json.loads(report_path.read_text())
        assert report["faults_injected"] > 0
        assert report["outcome"] == "recovered"
        assert report["rollbacks"] > 0

    def test_resilience_accepts_overrides(self, capsys):
        rc = main([
            "solve", "--matrix", "poisson2d:8", "--config", "cg", "--tiles", "4",
            "--resilience", "checkpoint_every=5,max_rollbacks=1",
        ])
        assert rc == 0
        assert "outcome=clean" in capsys.readouterr().out

    def test_inject_faults_requires_sim_backend(self, capsys):
        rc = main([
            "solve", "--matrix", "poisson2d:8", "--config", "cg",
            "--tiles", "4", "--backend", "fused",
            "--inject-faults", "bitflip:p=0.1",
        ])
        assert rc == 15
        assert "--backend sim" in capsys.readouterr().err


class TestCompileReportCommand:
    def test_compile_report(self, capsys):
        rc = main([
            "compile-report", "--matrix", "poisson2d:8",
            "--config", '{"solver": "cg", "tol": 1e-6}',
            "--tiles", "4", "--tree",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "source schedule:" in out
        assert "optimized schedule:" in out
        assert "compile proxy:" in out
        assert "coalesce-exchanges" in out
        assert "optimized program:" in out

    def test_compile_report_names_what_is_still_on_the_hatch(self, capsys):
        """The fused-kernel section lists every kernel with per-vertex
        fallbacks (codelet x count, under its loop): the Fig. 8 solver and a
        plain CG program list nothing — MPIR's extended-precision residual
        SpMV is a whole-device op."""
        fig8 = ('{"solver": "mpir", "precision": "dw", "tol": 1e-9, "max_outer": 4, '
                '"inner": {"solver": "bicgstab", "fixed_iterations": 5, "tol": 2e-7, '
                '"record_history": false, "preconditioner": {"solver": "ilu0"}}}')
        assert main(["compile-report", "--matrix", "g3:12", "--config", fig8,
                     "--tiles", "4"]) == 0
        out = capsys.readouterr().out
        assert "0 fallback vertices" in out and "×" not in out
        assert main(["compile-report", "--matrix", "poisson2d:8", "--config",
                     '{"solver": "cg", "tol": 1e-6}', "--tiles", "4"]) == 0
        out = capsys.readouterr().out
        assert "0 fallback vertices" in out and "×" not in out

    def test_compile_report_no_opt(self, capsys):
        rc = main([
            "compile-report", "--matrix", "poisson2d:8",
            "--config", '{"solver": "jacobi", "sweeps": 5}',
            "--tiles", "4", "--no-opt",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "(no passes run)" in out or "compile report" in out


class TestObservabilityCommands:
    CG = '{"solver": "cg", "tol": 1e-6, "max_iterations": 80}'

    def _observed_solve(self, tmp_path, capsys, metrics_name="m.prom"):
        wall = tmp_path / "wall.json"
        metrics = tmp_path / metrics_name
        rc = main([
            "solve", "--matrix", "poisson2d:12", "--config", self.CG,
            "--tiles", "4", "--backend", "fused",
            "--wall-trace", str(wall), "--metrics", str(metrics),
            "--progress", "5",
        ])
        assert rc == 0
        return wall, metrics, capsys.readouterr()

    def test_solve_wall_trace_and_metrics_artifacts(self, tmp_path, capsys):
        from repro.telemetry import validate_chrome_trace

        wall, metrics, captured = self._observed_solve(tmp_path, capsys)
        assert "host wall-clock" in captured.out
        assert "wall profile" in captured.out
        assert "wall trace written to" in captured.out
        assert "metrics written to" in captured.out
        assert "[progress] iteration" in captured.err
        doc = json.loads(wall.read_text())
        assert validate_chrome_trace(doc) == []
        assert doc["metadata"]["clock"] == "wall_ns"
        assert "repro_kernel_wall_ns_total" in metrics.read_text()

    def test_trace_report_renders_wall_domain(self, tmp_path, capsys):
        wall, _, _ = self._observed_solve(tmp_path, capsys)
        rc = main(["trace-report", str(wall), "--check"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "valid Chrome trace" in out
        assert "clock domain: wall" in out
        assert "hottest kernels" in out

    def test_metrics_report_from_prometheus_text(self, tmp_path, capsys):
        _, metrics, _ = self._observed_solve(tmp_path, capsys)
        rc = main(["metrics-report", str(metrics), "--top", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "hottest kernels" in out
        assert "wall ms" in out
        assert "iterations:" in out
        assert "final relative residual:" in out

    def test_metrics_report_from_json_snapshot(self, tmp_path, capsys):
        _, metrics, _ = self._observed_solve(tmp_path, capsys,
                                             metrics_name="m.json")
        assert json.loads(metrics.read_text())
        rc = main(["metrics-report", str(metrics)])
        assert rc == 0
        assert "hottest kernels" in capsys.readouterr().out

    def test_metrics_report_rejects_missing_file(self, tmp_path):
        with pytest.raises(SystemExit, match="no such metrics file"):
            main(["metrics-report", str(tmp_path / "missing.prom")])

    @pytest.mark.parametrize("command", [["trace-report"], ["trace-report", "--check"],
                                         ["metrics-report"]])
    def test_report_commands_reject_malformed_json(self, command, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"traceEvents": [')
        assert main([command[0], str(bad), *command[1:]]) == 10
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_wall_trace_works_on_every_backend(self, tmp_path, capsys):
        for backend in ("sim", "fused"):
            wall = tmp_path / f"wall-{backend}.json"
            rc = main([
                "solve", "--matrix", "poisson2d:8", "--config", self.CG,
                "--tiles", "4", "--backend", backend,
                "--wall-trace", str(wall),
            ])
            assert rc == 0
            doc = json.loads(wall.read_text())
            assert doc["metadata"]["clock"] == "wall_ns"
        capsys.readouterr()


class TestInfoCommand:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "1472" in out and "612 kB" in out
