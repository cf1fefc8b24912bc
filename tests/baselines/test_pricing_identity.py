"""Pricing-identity goldens: ``sim`` may price a superstep more cheaply, never
differently.

``pricing_identity.json`` was recorded on the commit *before* exchange plans
carried their own priced phase and expression trees were compiled once
(``PYTHONPATH=src python tests/baselines/test_pricing_identity.py --record``
regenerates it — only ever on a parent commit, and it refuses while ``src``
differs from ``HEAD``; never to make a failing test pass).  Two solves, both
on the fig5 device shape (2 IPUs x 16 tiles):

- a traced CG solve on ``poisson3d:16`` — ``SolveResult.cycles``, the
  profiler's per-category and per-path cycles, the category fractions
  (``SolveResult.profile``) and a SHA-256 of the whole Chrome trace, so
  every span's start, duration and args (exchange ``sync_cycles``,
  ``stream_cycles``, congestion, ...) is pinned;
- a fault-injected resilient CG solve on ``poisson3d:8`` with a link stall
  and exchange bit flips — cycles, the injection records (the tracer's
  ``fault`` instants: kind, superstep, cycle, flipped element and bit) and a
  digest of ``x``.

The module also pins who prices: ``ExchangeFabric.run`` runs once per
distinct exchange plan on ``sim`` and never on ``fused``.
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.machine.fabric import ExchangeFabric
from repro.solvers import ProgramCache, solve
from repro.sparse import poisson3d

GOLDEN = Path(__file__).with_name("pricing_identity.json")

CG = {"solver": "cg", "tol": 1e-6}
KW = dict(num_ipus=2, tiles_per_ipu=16, backend="sim")
FAULTS = "seed=7;bitflip:p=0.03,where=exchange;link_stall:ipus=0-1,cycles=500,p=0.2"


def _digest(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()[:32]


def _traced_cg() -> dict:
    crs, dims = poisson3d(16)
    b = np.random.default_rng(5).standard_normal(crs.n)
    res = solve(crs, b, CG, grid_dims=dims, trace=True, **KW)
    prof = res.engine.device.profiler
    trace = res.telemetry.to_chrome()
    return {
        "cycles": int(res.cycles),
        "iterations": res.iterations,
        "by_category": dict(sorted(prof.by_category().items())),
        "by_path": dict(sorted(prof.by_path().items())),
        "profile": dict(sorted(res.profile.items())),
        "events": len(trace["traceEvents"]),
        "trace": _digest(json.dumps(trace, sort_keys=True).encode()),
        "x": _digest(np.ascontiguousarray(res.x).tobytes()),
    }


def _faulty_resilient_cg() -> dict:
    crs, dims = poisson3d(8)
    b = np.random.default_rng(3).standard_normal(crs.n)
    res = solve(crs, b, CG, grid_dims=dims, inject_faults=FAULTS, resilience=True,
                trace=True, **KW)
    injections = [
        {"ts": ev.ts, **ev.args} for ev in res.telemetry.events
        if (ev.name, getattr(ev, "cat", None)) == ("fault", "fault")
    ]
    return {
        "cycles": int(res.cycles),
        "iterations": res.iterations,
        "resilience": res.resilience.to_dict(),
        "injections": injections,
        "x": _digest(np.ascontiguousarray(res.x).tobytes()),
    }


CASES = {"traced_cg_poisson3d16_2x16": _traced_cg,
         "faulty_resilient_cg_poisson3d8_2x16": _faulty_resilient_cg}


@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # flipped bits overflow
def test_pricing_is_identical_to_the_recorded_parent(name):
    want = json.loads(GOLDEN.read_text())[name]
    got = json.loads(json.dumps(CASES[name]()))  # tuples -> lists, like the file
    for field in want:
        assert got[field] == want[field], f"{name}: {field} drifted from the parent"
    assert set(got) == set(want)


def test_the_faulty_golden_exercises_both_fault_kinds():
    want = json.loads(GOLDEN.read_text())["faulty_resilient_cg_poisson3d8_2x16"]
    kinds = {rec["kind"] for rec in want["injections"]}
    assert kinds == {"bitflip", "link_stall"}


@pytest.fixture
def fabric_runs(monkeypatch):
    """Count ``ExchangeFabric.run`` calls (the fabric's one pricing entry)."""
    calls = []
    original = ExchangeFabric.run

    def counted(self, transfers):
        calls.append(1)
        return original(self, transfers)

    monkeypatch.setattr(ExchangeFabric, "run", counted)
    return calls


def test_sim_prices_each_exchange_plan_once(fabric_runs):
    crs, dims = poisson3d(16)
    b = np.random.default_rng(5).standard_normal(crs.n)
    cache = ProgramCache()
    cold = solve(crs, b, CG, grid_dims=dims, cache=cache, **KW)
    assert cold.engine.exchanges == 364  # supersteps, all priced from 14 plans
    assert cold.compiled.stats.exchanges == len(fabric_runs) == 14
    hit = solve(crs, b, CG, grid_dims=dims, cache=cache, **KW)
    assert cache.stats()["hits"] == 1
    assert len(fabric_runs) == 14  # a cache hit re-reads the priced phases
    assert hit.cycles == cold.cycles


def test_fused_never_prices(fabric_runs):
    crs, dims = poisson3d(8)
    b = np.random.default_rng(5).standard_normal(crs.n)
    res = solve(crs, b, CG, grid_dims=dims, **{**KW, "backend": "fused"})
    assert res.engine.exchanges > 0
    assert fabric_runs == []


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit("usage: test_pricing_identity.py --record  (on the parent commit)")
    from test_build_identity import refuse_dirty_src

    refuse_dirty_src()
    GOLDEN.write_text(json.dumps({n: CASES[n]() for n in sorted(CASES)}, indent=1) + "\n")
    print(f"recorded {GOLDEN}")
