"""Solver suite (Sec. V): modular, nestable, JSON-configurable.

Any solver can precondition any other.  Entry points:

- :func:`repro.solvers.solve` — one-call pipeline (matrix → solution),
- :func:`repro.solvers.build_solver` — construct a solver tree from JSON,
- the solver classes themselves for programmatic composition.
"""

from repro.solvers.api import SolveResult, compile_solve, solve
from repro.solvers.base import Solver, SolveProgress, SolveStats
from repro.solvers.bicgstab import PBiCGStab
from repro.solvers.cg import ConjugateGradient
from repro.solvers.config import SOLVERS, build_solver, load_config
from repro.solvers.gauss_seidel import GaussSeidel
from repro.solvers.identity import Identity
from repro.solvers.ilu import DILU, ILU0
from repro.solvers.jacobi import Jacobi
from repro.solvers.mpir import MPIR
from repro.solvers.multigrid import Multigrid
from repro.solvers.resilience import ResilienceConfig, ResilienceMonitor, ResilienceReport
from repro.solvers.richardson import Richardson
from repro.solvers.schur import SchurInterface
from repro.solvers.session import (
    CompiledSolve,
    ProgramCache,
    ProgramShape,
    SolverSession,
    fingerprint_matrix,
    fingerprint_solve,
)

__all__ = [
    "solve",
    "compile_solve",
    "SolveResult",
    "Solver",
    "SolveStats",
    "SolveProgress",
    "PBiCGStab",
    "ConjugateGradient",
    "GaussSeidel",
    "ILU0",
    "DILU",
    "Jacobi",
    "Identity",
    "MPIR",
    "Multigrid",
    "Richardson",
    "SchurInterface",
    "ResilienceConfig",
    "ResilienceMonitor",
    "ResilienceReport",
    "CompiledSolve",
    "ProgramCache",
    "ProgramShape",
    "SolverSession",
    "fingerprint_matrix",
    "fingerprint_solve",
    "SOLVERS",
    "build_solver",
    "load_config",
]
