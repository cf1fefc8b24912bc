"""Checks of the benchmark itself (not collected by tier-1: testpaths = tests).

    python3 -m pytest perfbench/test_perfbench.py -q        # < 1 min, tiny sizes
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402  (perfbench/run.py)

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_py(*args, cwd=ROOT, timeout=170):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


def test_benchmark_json_meets_the_contract():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert run.check_benchmark(BENCH) == []
    assert BENCH["paths"] == ["perfbench"] and BENCH["command"][-1] == "perfbench/run.py"
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in BENCH["workloads"])
    assert all(set(d) == {"name", "unit", "better", "bound"} for d in BENCH["end_to_end"])
    assert all(set(d) == {"name", "unit", "better"} for d in BENCH["per_layer"])
    assert all(d["better"] in ("lower", "higher")
               for d in BENCH["end_to_end"] + BENCH["per_layer"])
    # setup_s carries the largest bound; all runs fit the driver's time cap at
    # ~16 s of wall per 10 s run (README, "Cost").
    assert max(d["bound"] for d in BENCH["end_to_end"]) == \
        next(d["bound"] for d in BENCH["end_to_end"] if d["name"] == "setup_s")
    runs = 4 + 22 * len(BENCH["workloads"])
    assert runs * (BENCH["run_seconds"] + 8) <= 3420


def test_selftest_passes_and_exact_counts_repeat():
    counts = []
    for _ in range(2):
        proc = run_py("--selftest")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip().endswith("selftest ok")
        counts.append(json.loads((HERE / "out" / "selftest.json").read_text()))
    assert counts[0] == counts[1]
    assert set(counts[0]) == {w["name"] for w in BENCH["workloads"]}
    assert counts[0]["figure_cold_sim"]["machine.modeled_cycles"] > 0
    assert counts[0]["mpir_ilu_g3"]["passes.fallback_vertices"] > 0


def test_one_run_prints_the_result_line_last():
    proc = run_py("--workload", "timestep_hit", "--seed", "3", "--seconds", "0.2",
                  "--trace", "0", "--tiny")
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    assert set(line["metrics"]) == {d["name"] for d in BENCH["end_to_end"]}
    assert all(v["value"] > 0 for v in line["metrics"].values())


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_py("--workload", "serve_steady", "--seed", "0", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _results(values, count=7.0):
    """A results.json with one workload and one run per value of op_s."""
    runs = [{"workload": "timestep_hit", "seed": i, "trace": 0,
             "metrics": {"op_s": {"value": v, "unit": "s"}}}
            for i, v in enumerate(values)]
    runs.append({"workload": "timestep_hit", "seed": 0, "trace": 1,
                 "metrics": {"solver.iterations": {"value": count,
                                                   "unit": "count"}}})
    return {"benchmark": BENCH, "runs": runs, "summary": run.summarize(runs)}


@pytest.mark.parametrize("b_values, count, verdict, code", [
    ([1.0, 1.01, 1.02], 7.0, "within bound", 0),
    ([2.0, 2.01, 2.02], 7.0, "worse", 1),
    ([0.5, 0.5, 0.51], 7.0, "better", 0),
    ([0.5, 1.0, 2.0], 7.0, "unresolved", 0),
    ([1.0, 1.01, 1.02], 8.0, "DIFFERS", 1),
])
def test_compare_verdicts(tmp_path, capsys, b_values, count, verdict, code):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(_results([1.0, 1.01, 1.02])))
    b.write_text(json.dumps(_results(b_values, count)))
    assert run.compare(str(a), str(b)) == code
    out = capsys.readouterr().out
    row = next(line for line in out.splitlines()
               if verdict in line and "timestep_hit" in line)
    assert ("op_s" in row) != (verdict == "DIFFERS")


def test_span_self_time_and_chrome_trace():
    import layers
    from repro.telemetry import validate_chrome_trace

    spans = layers.Spans()
    root = spans.add("api.solve", 0, 1000, op="op-1")
    spans.add("runtime.engine_run", 100, 700, parent=root["id"], op="op-1")
    spans.add("sparse.read_global", 700, 900, parent=root["id"], op="op-1")
    self_s = spans.self_seconds()
    assert self_s[root["id"]] == pytest.approx(200e-9)
    assert self_s[2] == pytest.approx(600e-9)
    with spans.span("api.solve", op="op-2"):
        with spans.span("session.prepare") as child:
            pass
    assert child["parent"] == 4 and child["op"] == "op-2"
    assert validate_chrome_trace(spans.chrome({"workload": "t"})) == []
    assert run.spread([1.0, 2.0, 3.0, 4.0]) == pytest.approx(2.5 / 2.5)
