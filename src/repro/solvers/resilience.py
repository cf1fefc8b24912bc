"""Detection, checkpoint/rollback, and graceful degradation for solvers.

The counterpart of :mod:`repro.faults`: where that module *injects*
failures, this one survives them.  Three pieces:

- :class:`ResilienceConfig` — the policy knobs a caller hands to
  ``solve(..., resilience=...)``: checkpoint cadence, rollback budget,
  detection thresholds, the exponential patience backoff, and the
  OOM-degradation policy.
- :class:`ResilienceMonitor` — attached to a solver before symbolic
  execution; the solver emits one host callback per iteration that feeds
  the monitor the residual track.  The monitor detects NaN/Inf residuals,
  divergence (residual blowing up past the best seen), and stagnation (no
  improvement within an exponentially widening patience window), raising
  :class:`RollbackSignal` out of the engine; it also snapshots the
  registered solver state (x, r, p, rho...) every ``checkpoint_every``
  iterations.  A rollback restores the snapshot and re-runs the program —
  the solver prologues recompute all derived state (r = b − Ax, the Krylov
  basis) from the restored x, so a restored checkpoint is simply a better
  initial guess and the restart is mathematically clean.
- :class:`ResilienceReport` — what happened, attached to
  ``SolveResult.resilience`` and summarized in the telemetry report's
  "faults & recovery" section.

See ``docs/resilience.md`` for the recovery policies and their rationale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from repro.errors import ReproError

__all__ = [
    "ResilienceConfig",
    "ResilienceMonitor",
    "ResilienceReport",
    "RollbackSignal",
    "RollbackRecord",
]


@dataclass(frozen=True)
class ResilienceConfig:
    """Policy knobs for the resilient solve driver."""

    #: Snapshot the registered solver state every this many iterations
    #: (0 disables periodic checkpoints; the iteration-0 baseline remains).
    checkpoint_every: int = 10
    #: How many rollback-and-retry attempts before giving up.
    max_rollbacks: int = 3
    #: Patience multiplier applied per rollback: after r rollbacks the
    #: stagnation window is ``stagnation_window * backoff**r`` iterations —
    #: the exponential iteration-budget backoff.
    backoff: float = 2.0
    #: Iterations without a new best residual before declaring stagnation.
    stagnation_window: int = 40
    #: Residual growth factor over the best seen that counts as divergence.
    divergence_factor: float = 1e8
    #: On SRAMOverflowError, rebuild the program re-partitioned to half the
    #: tiles (never below ``min_tiles``) instead of crashing.
    degrade_on_oom: bool = True
    min_tiles: int = 1
    #: Raise SolverBreakdownError / DivergenceError when the solve still
    #: fails after recovery, instead of reporting SolveResult.failure.
    raise_on_failure: bool = False

    def __post_init__(self):
        if self.checkpoint_every < 0:
            raise ReproError("resilience: checkpoint_every must be >= 0")
        if self.max_rollbacks < 0:
            raise ReproError("resilience: max_rollbacks must be >= 0")
        if self.backoff < 1.0:
            raise ReproError("resilience: backoff must be >= 1.0")
        if self.stagnation_window < 1:
            raise ReproError("resilience: stagnation_window must be >= 1")
        if self.divergence_factor <= 1.0:
            raise ReproError("resilience: divergence_factor must be > 1.0")
        if self.min_tiles < 1:
            raise ReproError("resilience: min_tiles must be >= 1")

    @classmethod
    def parse(cls, spec) -> "ResilienceConfig | None":
        """``None``/``False`` → disabled; ``True``/``""`` → defaults; a
        ``key=value,key=value`` string or a dict override fields."""
        if spec is None or spec is False:
            return None
        if isinstance(spec, cls):
            return spec
        if spec is True:
            return cls()
        if isinstance(spec, dict):
            return cls._from_kv(dict(spec))
        if isinstance(spec, str):
            s = spec.strip()
            if not s:
                return cls()
            kv = {}
            for pair in s.split(","):
                key, eq, val = pair.partition("=")
                if not eq:
                    raise ReproError(
                        f"resilience spec {spec!r}: expected key=value, got {pair!r}"
                    )
                kv[key.strip()] = val.strip()
            return cls._from_kv(kv)
        raise ReproError(f"cannot parse a resilience config from {spec!r}")

    @classmethod
    def _from_kv(cls, kv: dict) -> "ResilienceConfig":
        types = {f.name: f.type for f in fields(cls)}
        coerced = {}
        for key, val in kv.items():
            if key not in types:
                raise ReproError(
                    f"resilience spec: unknown key {key!r} (one of {sorted(types)})"
                )
            typ = types[key]
            if isinstance(val, str):
                if typ == "bool":
                    val = val.lower() in ("1", "true", "yes", "on")
                elif typ == "int":
                    val = int(val)
                elif typ == "float":
                    val = float(val)
            coerced[key] = val
        return cls(**coerced)

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


class RollbackSignal(Exception):
    """Raised out of a host callback when the monitor detects a failure;
    the solve driver catches it, restores the checkpoint, and retries.
    Internal control flow — never escapes ``solve()``."""

    def __init__(self, reason: str, iteration: int = 0):
        self.reason = reason
        self.iteration = iteration
        super().__init__(f"{reason} at iteration {iteration}")


@dataclass(frozen=True)
class RollbackRecord:
    """One rollback: why, where it fired, and where it resumed from."""

    reason: str
    iteration: int
    cycle: int
    restored_iteration: int

    def to_dict(self) -> dict:
        return {
            "reason": self.reason,
            "iteration": self.iteration,
            "cycle": self.cycle,
            "restored_iteration": self.restored_iteration,
        }


class ResilienceMonitor:
    """Watches one solver's residual track; owns the checkpoints."""

    def __init__(self, config: ResilienceConfig):
        self.config = config
        self.solver = None  # set by Solver.enable_resilience
        #: name -> graph Variable; registered by the solver at symbolic time.
        self.vars: dict = {}
        self._checkpoint: dict | None = None
        self.checkpoint_iteration = 0
        self.checkpoints = 0
        self.rollbacks: list[RollbackRecord] = []
        self.iterations_observed = 0
        self._best = math.inf
        self._since_best = 0

    # -- registration / snapshots ----------------------------------------------------

    def register(self, name: str, var) -> None:
        self.vars.setdefault(name, var)

    def reset(self, config: ResilienceConfig | None = None) -> None:
        """Clear all per-run state for a fresh run of the same program.

        The variable registry and the solver link survive — they were wired
        in at symbolic-execution time and stay valid for the lifetime of the
        compiled program.  A reusable solve session calls this (optionally
        swapping the policy ``config``) before every cached re-run.
        """
        if config is not None:
            self.config = config
        self._checkpoint = None
        self.checkpoint_iteration = 0
        self.checkpoints = 0
        self.rollbacks.clear()
        self.iterations_observed = 0
        self._best = math.inf
        self._since_best = 0

    @property
    def patience(self) -> int:
        """Stagnation window under the exponential backoff: widens by
        ``backoff`` per rollback so each retry gets a larger budget."""
        return int(self.config.stagnation_window
                   * (self.config.backoff ** len(self.rollbacks)))

    def take_checkpoint(self, iteration: int) -> None:
        self._checkpoint = {n: v.snapshot() for n, v in self.vars.items()}
        self.checkpoint_iteration = iteration
        self.checkpoints += 1

    def baseline(self) -> None:
        """Snapshot the pre-run state so a rollback is always possible."""
        self.take_checkpoint(0)

    def restore_state(self) -> None:
        """Write the checkpointed storage back (no bookkeeping)."""
        if self._checkpoint is None:
            return
        for name, snap in self._checkpoint.items():
            self.vars[name].restore(snap)
        if self.solver is not None:
            self.solver.post_restore()

    def best_solution(self):
        """``(x_in_original_row_order, iteration)`` of the latest checkpoint.

        Assembled straight from the snapshot arrays — the live shards are
        not touched, so this is safe to call after a partially corrupted or
        aborted run.  Returns ``(None, 0)`` when no checkpoint (or no
        solution variable) was registered.  The OOM degradation path uses
        this to warm-start the rebuilt program from the best-known iterate
        instead of discarding all converged progress.
        """
        name = "x" if "x" in self.vars else ("x_ext" if "x_ext" in self.vars else None)
        if name is None or self._checkpoint is None:
            return None, 0
        snap = self._checkpoint.get(name)
        if snap is None or self.solver is None:
            return None, 0
        data, lo = snap  # the solution vector's flat storage, halo-reordered
        flat = data.astype(np.float64)
        if lo is not None:
            flat = flat + lo.astype(np.float64)
        # Undo the Sec. IV halo reordering back to the original row order.
        perm = self.solver.A.perm
        out = np.empty_like(flat)
        out[perm] = flat
        return out, self.checkpoint_iteration

    # -- the per-iteration hook ------------------------------------------------------

    def observe(self, engine, iteration: int, rnorm2: float) -> None:
        """Called from the solver's per-iteration host callback with the
        device-tracked squared residual norm."""
        self.iterations_observed += 1
        if math.isnan(rnorm2) or math.isinf(rnorm2):
            raise RollbackSignal("nan_residual", iteration)
        if rnorm2 < self._best:
            self._best = rnorm2
            self._since_best = 0
        else:
            self._since_best += 1
            if self._best > 0 and rnorm2 > self._best * self.config.divergence_factor:
                raise RollbackSignal("divergence", iteration)
            if self._since_best >= self.patience:
                raise RollbackSignal("stagnation", iteration)
        if (self.config.checkpoint_every > 0
                and iteration - self.checkpoint_iteration >= self.config.checkpoint_every):
            self.take_checkpoint(iteration)

    # -- rollback --------------------------------------------------------------------

    def budget_left(self) -> bool:
        return len(self.rollbacks) < self.config.max_rollbacks

    def rollback(self, signal: RollbackSignal, cycle: int) -> RollbackRecord:
        """Record the failure, restore the checkpoint, reset detection."""
        rec = RollbackRecord(
            reason=signal.reason,
            iteration=signal.iteration,
            cycle=cycle,
            restored_iteration=self.checkpoint_iteration,
        )
        self.rollbacks.append(rec)
        self._best = math.inf
        self._since_best = 0
        self.restore_state()
        return rec


@dataclass
class ResilienceReport:
    """What the resilient solve driver did, end to end."""

    enabled: bool = True
    #: clean | recovered | degraded | failed
    outcome: str = "clean"
    failure: str | None = None
    faults_injected: int = 0
    faults_by_kind: dict = field(default_factory=dict)
    checkpoints: int = 0
    rollbacks: int = 0
    rollback_reasons: list = field(default_factory=list)
    #: Full program rebuilds (OOM degradation re-partitions).
    restarts: int = 0
    iterations: int = 0
    #: Iterations paid beyond the final attempt (rolled-back work).
    extra_iterations: int = 0
    #: Checkpointed iterations carried into a degraded rebuild as its warm
    #: start (0 when every restart began from the original initial guess).
    carried_iterations: int = 0
    final_num_tiles: int | None = None

    def to_dict(self) -> dict:
        return {
            "enabled": self.enabled,
            "outcome": self.outcome,
            "failure": self.failure,
            "faults_injected": self.faults_injected,
            "faults_by_kind": dict(self.faults_by_kind),
            "checkpoints": self.checkpoints,
            "rollbacks": self.rollbacks,
            "rollback_reasons": list(self.rollback_reasons),
            "restarts": self.restarts,
            "iterations": self.iterations,
            "extra_iterations": self.extra_iterations,
            "carried_iterations": self.carried_iterations,
            "final_num_tiles": self.final_num_tiles,
        }

    def summary(self) -> str:
        parts = [f"outcome={self.outcome}"]
        if self.failure:
            parts.append(f"failure={self.failure}")
        parts.append(f"faults={self.faults_injected}")
        parts.append(f"rollbacks={self.rollbacks}")
        if self.restarts:
            parts.append(f"restarts={self.restarts}")
            if self.carried_iterations:
                parts.append(f"carried_iterations={self.carried_iterations}")
        parts.append(f"extra_iterations={self.extra_iterations}")
        return " ".join(parts)
