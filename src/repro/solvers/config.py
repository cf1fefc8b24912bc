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
import math
import numbers
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

__all__ = ["SOLVERS", "SUB_SOLVER_KEYS", "build_solver", "load_config"]

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


#: Iteration caps: each must be a positive int.
_ITERATION_CAPS = ("max_iterations", "fixed_iterations", "max_outer")
#: Keys whose value is a nested solver config.
_NESTED = ("inner", "preconditioner", "smoother")
#: The nested keys :func:`build_solver` instantiates as sub-solvers.
SUB_SOLVER_KEYS = ("preconditioner", "inner")


def load_config(source) -> dict:
    """Accept a dict, a JSON string, a path to a JSON file, or a bare
    solver name (``"cg"`` is shorthand for ``{"solver": "cg"}``).

    The config is checked here, at every level of the tree, so a bad one
    is refused before anything is built.  Each level names a known
    ``solver``, and ``mpir`` and ``schur`` also an ``inner`` one.  A
    ``tol`` must be a finite real >= 0 and every iteration cap a positive
    int: a NaN, infinite or negative tolerance or a negative cap would
    otherwise end the solve after 0 iterations and report success.  A bad
    config raises :class:`SolverConfigError` naming its key path
    (``inner.preconditioner.tol``)."""
    cfg = _parse(source)
    _check(cfg, "")
    return cfg


def _check(cfg: dict, path: str) -> None:
    at = f" at {path[:-1]}" if path else ""
    if "solver" not in cfg:
        raise SolverConfigError(f"solver config{at} needs a 'solver' key")
    kind = cfg["solver"]
    if not isinstance(kind, str) or kind not in SOLVERS:
        raise SolverConfigError(f"unknown solver {kind!r}{at}; available: {sorted(SOLVERS)}")
    if kind in ("mpir", "schur") and "inner" not in cfg:
        raise SolverConfigError(f"{kind} config{at} needs an 'inner' solver")
    for key, value in cfg.items():
        where = path + key
        if key == "tol":
            if not (isinstance(value, numbers.Real) and not isinstance(value, bool)
                    and math.isfinite(value) and value >= 0):
                raise SolverConfigError(f"{where} must be a finite real >= 0, got {value!r}")
        elif key in _ITERATION_CAPS:
            if not (isinstance(value, numbers.Integral) and not isinstance(value, bool)
                    and value > 0):
                raise SolverConfigError(f"{where} must be a positive int, got {value!r}")
        elif key in _NESTED and isinstance(value, (dict, str, Path)):
            _check(_parse(value), where + ".")


def _parse(source) -> dict:
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
    """Recursively instantiate the solver tree described by ``config``
    (checked by :func:`load_config`)."""
    cfg = dict(load_config(config))
    cls = SOLVERS[cfg.pop("solver")]
    kwargs = {key: build_solver(A, val) if key in SUB_SOLVER_KEYS else val
              for key, val in cfg.items()}
    return cls(A, **kwargs)
