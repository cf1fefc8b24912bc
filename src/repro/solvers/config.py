"""JSON solver configuration (Sec. V).

The solver hierarchy and its parameters are configured through a JSON
document, so users adapt the setup to their problem without touching code::

    {
      "solver": "mpir",
      "precision": "dw",
      "inner": {
        "solver": "bicgstab",
        "fixed_iterations": 100,
        "preconditioner": {"solver": "ilu0"}
      }
    }

Nested keys: ``preconditioner`` (for Krylov solvers) and ``inner`` (for
MPIR) recursively describe sub-solvers — any solver can precondition any
other.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.errors import SolverConfigError
from repro.solvers.base import Solver
from repro.solvers.bicgstab import PBiCGStab
from repro.solvers.cg import ConjugateGradient
from repro.solvers.gauss_seidel import GaussSeidel
from repro.solvers.identity import Identity
from repro.solvers.ilu import DILU, ILU0
from repro.solvers.jacobi import Jacobi
from repro.solvers.mpir import MPIR
from repro.solvers.multigrid import Multigrid
from repro.solvers.richardson import Richardson
from repro.solvers.schur import SchurInterface

__all__ = ["SOLVERS", "build_solver", "load_config"]

SOLVERS = {
    "bicgstab": PBiCGStab,
    "cg": ConjugateGradient,
    "gauss_seidel": GaussSeidel,
    "ilu0": ILU0,
    "dilu": DILU,
    "jacobi": Jacobi,
    "identity": Identity,
    "mpir": MPIR,
    "multigrid": Multigrid,
    "richardson": Richardson,
    "schur": SchurInterface,
}


def load_config(source) -> dict:
    """Accept a dict, a JSON string, a path to a JSON file, or a bare
    solver name (``"cg"`` is shorthand for ``{"solver": "cg"}``)."""
    if isinstance(source, dict):
        return source
    if isinstance(source, str) and source in SOLVERS:
        return {"solver": source}
    if isinstance(source, (str, Path)):
        p = Path(source)
        text = p.read_text() if p.suffix == ".json" and p.exists() else str(source)
        try:
            cfg = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SolverConfigError(
                f"solver config is neither a solver name ({sorted(SOLVERS)}), "
                f"a .json file, nor valid JSON: {exc}"
            ) from None
        if not isinstance(cfg, dict):
            raise SolverConfigError(f"solver config must be a JSON object, got {cfg!r}")
        return cfg
    raise TypeError(f"cannot interpret solver config {source!r}")


def build_solver(A, config) -> Solver:
    """Recursively instantiate the solver tree described by ``config``."""
    cfg = dict(load_config(config))
    try:
        kind = cfg.pop("solver")
    except KeyError:
        raise SolverConfigError("solver config needs a 'solver' key") from None
    if kind not in SOLVERS:
        raise SolverConfigError(f"unknown solver {kind!r}; available: {sorted(SOLVERS)}")
    cls = SOLVERS[kind]
    kwargs = {}
    for key, val in cfg.items():
        if key == "preconditioner":
            kwargs["preconditioner"] = build_solver(A, val)
        elif key == "inner":
            kwargs["inner"] = build_solver(A, val)
        else:
            kwargs[key] = val
    if kind in ("mpir", "schur") and "inner" not in kwargs:
        raise SolverConfigError(f"{kind} config needs an 'inner' solver")
    return cls(A, **kwargs)
