#!/usr/bin/env python3
"""perfbench: the one benchmark later perf and simplicity PRs are judged by.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
        One run.  The last stdout line is one JSON object: correct, attempted,
        failed, metrics — every end-to-end metric of BENCHMARK.json with
        --trace 0, every per-layer metric with --trace 1.
    python3 perfbench/run.py [--seed N] [--seconds S] [--trace] [--sets K] [--out FILE]
        Every workload, each run in its own subprocess; prints every metric by
        name with its unit and writes perfbench/out/results.json.
    python3 perfbench/run.py compare A.json B.json
    python3 perfbench/run.py --selftest

See perfbench/README.md for the workloads, metrics and the comparison protocol.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
#: Pinned before numpy loads: one BLAS thread, one OpenMP thread, stable hashing.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
#: Per-layer metrics that are exact counts: the same code and seed repeat them.
EXACT = ("solver.iterations", "machine.modeled_cycles", "machine.supersteps",
         "machine.exchanges", "passes.compile_proxy", "passes.kernel_launches",
         "passes.dispatches", "passes.fused_compute_sets", "passes.fused_exchanges",
         "passes.fallback_vertices")


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def import_program() -> None:
    """Put this checkout's ``src`` first; refuse any other ``repro``."""
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        sys.exit(f"perfbench: no program to measure: {src / 'repro'} does not exist")
    sys.path.insert(0, str(src))
    import repro

    if src not in Path(repro.__file__).resolve().parents:
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not from {src}")


# -- one run ---------------------------------------------------------------------------


def measure(bench: dict, name: str, seed: int, seconds: float, trace: int,
            tiny: bool = False) -> dict:
    """Run one workload once, in this process; returns the full record."""
    import layers
    import workloads

    per_layer, gone = {}, []
    if trace:
        m, per_layer, gone = layers.run_traced(
            name, seed, seconds, tiny, OUT / f"{name}.trace.json")
    else:
        m = workloads.run_workload(name, seed, seconds, tiny)
    speed = m.speed.summary()

    if trace:   # per-layer numbers are raw clock readings
        per_layer["host.speed_factor"] = speed["median"]
        values = {d["name"]: per_layer.get(d["name"], 0.0) for d in bench["per_layer"]}
        unknown = sorted(set(per_layer) - set(values))
        if unknown:
            sys.exit(f"perfbench: per-layer metrics not in BENCHMARK.json: {unknown}")
        units = {d["name"]: d["unit"] for d in bench["per_layer"]}
    else:       # end-to-end timings are in reference seconds (README)
        values = {"setup_s": layers.median(m.setup_s), "op_s": layers.median(m.op_s),
                  "peak_rss_mb": m.peak_rss_mb}
        units = {d["name"]: d["unit"] for d in bench["end_to_end"]}
        if set(values) != set(units):
            sys.exit(f"perfbench: end-to-end metrics {sorted(values)} != "
                     f"BENCHMARK.json {sorted(units)}")
    correct = m.failed == 0 and m.spot_ok and m.attempted > 0 and len(m.raw_op_s) > 0
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace, "tiny": tiny,
        "correct": correct, "attempted": m.attempted, "failed": m.failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in values.items()},
        "raw": {"op_s": layers.median(m.raw_op_s), "setup_s": layers.median(m.raw_setup_s),
                "op_s_n": len(m.raw_op_s), "setup_s_n": len(m.raw_setup_s),
                "op_s_tail": layers.percentile_supported(m.raw_op_s)},
        "host_speed": speed,
        "probes_unavailable": gone,
        "info": m.info,
    }


def result_line(record: dict) -> str:
    return json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")})


def single(args, bench: dict) -> int:
    import_program()
    record = measure(bench, args.workload, args.seed, args.seconds, args.trace, args.tiny)
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}.trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n")
    for miss in record["info"].get("misses", []):
        print(f"perfbench: MISS {miss}", file=sys.stderr)
    for gone in record["probes_unavailable"]:
        print(f"perfbench: probe unavailable: {gone}", file=sys.stderr)
    if record["host_speed"]["noisy"]:
        print("perfbench: noisy host (speed factor p10..p90 band wider than 10%)",
              file=sys.stderr)
    print(result_line(record))
    return 0 if record["correct"] else 1


# -- every workload --------------------------------------------------------------------


def provenance(args) -> dict:
    import numpy

    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                                capture_output=True, text=True).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {"commit": commit, "seed": args.seed, "seconds": args.seconds,
            "sets": args.sets, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "loadavg": os.getloadavg(),
            "env": {k: os.environ.get(k) for k in PINNED_ENV},
            "started": time.strftime("%Y-%m-%dT%H:%M:%S%z")}


def run_child(name: str, seed: int, seconds: float, trace: int) -> dict:
    """One run in its own subprocess; retried (at most twice) while the host is
    noisy, keeping the attempt whose host-speed band was narrowest."""
    best = None
    for attempt in range(3):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        record = json.loads((OUT / f"{name}.trace{trace}.json").read_text()) \
            if proc.stdout.strip() else {"workload": name, "seed": seed, "trace": trace,
                                         "correct": False, "metrics": {}, "host_speed": {}}
        record["exit_code"], record["attempt"] = proc.returncode, attempt
        band = record["host_speed"].get("band", float("inf"))
        if best is None or band < best["host_speed"].get("band", float("inf")):
            best = record
        if not record["host_speed"].get("noisy"):
            break
    return best


def spread(values) -> float:
    """Distance between the quartiles as a share of the median (the driver's)."""
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def summarize(runs: list) -> dict:
    table: dict = {}
    for r in runs:
        for k, v in r["metrics"].items():
            table.setdefault(r["workload"], {}).setdefault(k, []).append(v["value"])
    return {w: {k: {"median": statistics.median(v), "spread": spread(v), "n": len(v),
                    "values": v} for k, v in ms.items()} for w, ms in table.items()}


def suite(args, bench: dict) -> int:
    import_program()
    names = [w["name"] for w in bench["workloads"]]
    units = {d["name"]: d["unit"] for d in bench["end_to_end"] + bench["per_layer"]}
    runs = []
    for k in range(args.sets):
        for name in names:
            for trace in (0, 1) if args.trace else (0,):
                r = run_child(name, args.seed + k, args.seconds, trace)
                runs.append(r)
                state = "ok" if r["correct"] else "FAILED"
                print(f"\n{name}  seed={r['seed']} trace={trace}  {state}"
                      f"{'  noisy' if r['host_speed'].get('noisy') else ''}")
                for metric, v in r["metrics"].items():
                    print(f"  {metric:38s} {v['value']:>16.6g} {v['unit']}")
                raw = r.get("raw")
                if raw:   # information only: clock seconds, sample count, supported tail
                    tail = raw["op_s_tail"]
                    print(f"  (raw op_s {raw['op_s']:.6g} s over {raw['op_s_n']} ops"
                          + (f", p{tail[0]:.1f} {tail[1]:.6g} s" if tail else "")
                          + f"; host speed factor {r['host_speed']['median']:.3f})")
    out = {"provenance": provenance(args), "benchmark": bench, "runs": runs,
           "summary": summarize(runs)}
    path = Path(args.out) if args.out else OUT / "results.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(out, indent=1, default=str) + "\n")
    if args.sets > 1:
        print(f"\nspread over {args.sets} sets (quartile distance / median):")
        for w, ms in out["summary"].items():
            for k, s in ms.items():
                if k in {d["name"] for d in bench["end_to_end"]}:
                    print(f"  {w:16s} {k:12s} median {s['median']:>12.6g} {units[k]:5s} "
                          f"spread {s['spread']:.3f}")
    print(f"\nwrote {path}")
    return 0 if all(r["correct"] for r in runs) else 1


# -- compare ---------------------------------------------------------------------------


def compare(path_a: str, path_b: str) -> int:
    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    rows, worse = [], 0
    for d in a["benchmark"]["end_to_end"]:
        for w in (x["name"] for x in a["benchmark"]["workloads"]):
            sa = a["summary"].get(w, {}).get(d["name"])
            sb = b["summary"].get(w, {}).get(d["name"])
            if not sa or not sb:
                rows.append((w, d["name"], "-", "-", "-", "missing"))
                continue
            ratio = sb["median"] / sa["median"]
            change = ratio - 1.0 if d["better"] == "lower" else 1.0 - ratio
            if max(sa["spread"], sb["spread"]) > d["bound"]:
                verdict = "unresolved"   # the runs disagree by more than the bound
            elif change > d["bound"]:
                verdict, worse = "worse", worse + 1
            elif change < -d["bound"]:
                verdict = "better"
            else:
                verdict = "within bound"
            rows.append((w, d["name"], f"{sa['median']:.6g}", f"{sb['median']:.6g}",
                         f"{ratio:.3f} of A", f"{verdict} (bound {d['bound']}, spread "
                         f"{sa['spread']:.3f}/{sb['spread']:.3f}, n {sa['n']}/{sb['n']})"))

    def exact(doc):
        return {(r["workload"], r["seed"], k): r["metrics"][k]["value"]
                for r in doc["runs"] if r.get("trace") for k in EXACT if k in r["metrics"]}

    ea, eb = exact(a), exact(b)
    for key in sorted(ea.keys() & eb.keys()):
        if ea[key] != eb[key]:
            worse += 1
            rows.append((key[0], f"{key[2]} (seed {key[1]})", f"{ea[key]:.0f}",
                         f"{eb[key]:.0f}", "exact", "DIFFERS"))
    rows.append(("", f"{len(ea.keys() & eb.keys())} exact counts compared", "", "", "", ""))
    widths = [max(len(r[i]) for r in rows) for i in range(6)]
    print("  ".join(h.ljust(n) for h, n in zip(
        ("workload", "metric", "A", "B", "B/A", "verdict"), widths)))
    for r in rows:
        print("  ".join(c.ljust(n) for c, n in zip(r, widths)))
    return 1 if worse else 0


# -- selftest --------------------------------------------------------------------------


def check_benchmark(bench: dict) -> list:
    """The contract's limits on BENCHMARK.json that this repo can check itself."""
    errors = []
    names = [d["name"] for k in ("workloads", "end_to_end", "per_layer") for d in bench[k]]
    errors += [f"bad name {n!r}" for n in names if not NAME_RE.fullmatch(n)]
    errors += [f"duplicate name {n!r}" for n in set(names) if names.count(n) > 1]
    for key, lo, hi in (("workloads", 2, 8), ("end_to_end", 1, 16), ("per_layer", 1, 128)):
        if not lo <= len(bench[key]) <= hi:
            errors.append(f"{key}: {len(bench[key])} entries, allowed {lo}..{hi}")
    setup = [d for d in bench["end_to_end"] if d["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        errors.append("end_to_end needs setup_s in s, lower is better")
    errors += [f"{d['name']}: bound {d['bound']} outside (0, 0.25]"
               for d in bench["end_to_end"] if not 0 < d["bound"] <= 0.25]
    return errors


def selftest(bench: dict) -> int:
    """Tiny sizes, in-process: every metric of BENCHMARK.json is printed and
    vice versa, outputs are correct, and the exact counts are written to
    perfbench/out/selftest.json so two selftests can be compared."""
    import_program()
    import workloads

    errors = check_benchmark(bench)
    if [w["name"] for w in bench["workloads"]] != [w.name for w in workloads.WORKLOADS]:
        errors.append("BENCHMARK.json workloads differ from perfbench/workloads.py")
    counts = {}
    for w in workloads.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            record = measure(bench, w.name, seed=0, seconds=0.2, trace=trace, tiny=True)
            line = json.loads(result_line(record))
            if set(line["metrics"]) != {d["name"] for d in bench[key]}:
                errors.append(f"{w.name} trace={trace}: printed metrics != BENCHMARK.json")
            if not record["correct"]:
                errors.append(f"{w.name} trace={trace}: {record['info'].get('misses')}")
            if trace:
                errors += [f"{w.name}: probe unavailable: {g}"
                           for g in record["probes_unavailable"]]
                counts[w.name] = {k: line["metrics"][k]["value"] for k in EXACT}
            elif any(v["value"] <= 0 for v in line["metrics"].values()):
                errors.append(f"{w.name}: an end-to-end metric is not positive")
    OUT.mkdir(exist_ok=True)
    (OUT / "selftest.json").write_text(json.dumps(counts, indent=1) + "\n")
    for e in errors:
        print(f"selftest: {e}", file=sys.stderr)
    print("selftest failed" if errors else "selftest ok")
    return 1 if errors else 0


# -- entry -----------------------------------------------------------------------------


def main(argv) -> int:
    if argv and argv[0] == "compare":
        if len(argv) != 3:
            sys.exit("usage: run.py compare A.json B.json")
        return compare(argv[1], argv[2])
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", help="run only this workload, in this process")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=None,
                   help="measured time per run (default: BENCHMARK.json run_seconds)")
    p.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                   help="1: the traced pass (per-layer metrics, Chrome trace)")
    p.add_argument("--sets", type=int, default=1, help="all-workload mode: repeat K times")
    p.add_argument("--out", help="all-workload mode: results file")
    p.add_argument("--tiny", action="store_true", help="selftest sizes")
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args(argv)

    if any(os.environ.get(k) != v for k, v in PINNED_ENV.items()):
        # The pins only take effect at interpreter start: start again with them.
        os.execve(sys.executable, [sys.executable, str(HERE / "run.py"), *argv],
                  {**os.environ, **PINNED_ENV})
    bench = load_benchmark()
    if args.seconds is None:
        args.seconds = float(bench["run_seconds"])
    if args.selftest:
        return selftest(bench)
    if args.workload:
        if args.workload not in {w["name"] for w in bench["workloads"]}:
            sys.exit(f"perfbench: unknown workload {args.workload!r}")
        return single(args, bench)
    return suite(args, bench)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
