"""``solve(max_wall_seconds=...)``: cooperative wall-clock deadlines.

The deadline rides the same per-iteration hook seam as ``on_progress``
(docs/serving.md): an exceeded budget cancels the solve mid-iteration with
a typed :class:`~repro.errors.JobTimeoutError` carrying the partial
convergence record, on every backend, standalone or through the compile
cache.
"""

import numpy as np
import pytest

from repro.errors import JobTimeoutError
from repro.solvers import ProgramCache, solve
from repro.sparse import poisson2d

CONFIG = {"solver": "cg", "tol": 1e-10, "max_iterations": 400}


def _system(grid=12, seed=3):
    crs, dims = poisson2d(grid)
    b = np.random.default_rng(seed).standard_normal(crs.n)
    return crs, dims, b


class TestDeadline:
    def test_tiny_budget_raises_typed_timeout_with_partial_stats(self):
        crs, dims, b = _system()
        with pytest.raises(JobTimeoutError) as exc_info:
            solve(crs, b, CONFIG, grid_dims=dims, max_wall_seconds=1e-9)
        err = exc_info.value
        assert err.exit_code == 17
        assert err.budget_seconds == pytest.approx(1e-9)
        assert err.wall_seconds > err.budget_seconds
        # Partial record: the solve got at most a few iterations in, and the
        # stats copy is detached (mutating it cannot touch a cached entry).
        assert err.stats is not None
        assert err.stats.total_iterations == err.iteration
        assert err.stats.total_iterations < 400

    def test_generous_budget_is_observational(self):
        crs, dims, b = _system()
        plain = solve(crs, b, CONFIG, grid_dims=dims)
        timed = solve(crs, b, CONFIG, grid_dims=dims, max_wall_seconds=600.0)
        np.testing.assert_array_equal(plain.x, timed.x)
        assert plain.stats.residuals == timed.stats.residuals
        assert plain.cycles == timed.cycles

    def test_deadline_fires_on_the_untimed_backend(self):
        crs, dims, b = _system()
        with pytest.raises(JobTimeoutError):
            solve(crs, b, CONFIG, grid_dims=dims, backend="fused",
                  max_wall_seconds=1e-9)

    def test_invalid_budget_rejected(self):
        crs, dims, b = _system()
        with pytest.raises(Exception, match="max_wall_seconds"):
            solve(crs, b, CONFIG, grid_dims=dims, max_wall_seconds=0.0)

    def test_deadline_fires_every_iteration_not_on_progress_cadence(self):
        """The budget check must not ride the throttled progress stride:
        even with ``progress_every`` far beyond the iteration count, an
        exceeded deadline still cancels the solve."""
        crs, dims, b = _system()
        with pytest.raises(JobTimeoutError) as exc_info:
            solve(crs, b, CONFIG, grid_dims=dims, max_wall_seconds=1e-9,
                  progress_every=10**9)
        assert exc_info.value.stats.total_iterations < 400

    def test_deadline_fires_without_residual_history(self):
        """``record_history=False`` loops have no record callback to
        piggyback on; the dedicated per-iteration tick still enforces the
        budget."""
        crs, dims, b = _system()
        config = dict(CONFIG, record_history=False)
        with pytest.raises(JobTimeoutError) as exc_info:
            solve(crs, b, config, grid_dims=dims, max_wall_seconds=1e-9)
        assert exc_info.value.exit_code == 17

    def test_deadline_fires_inside_nested_solver_loops(self):
        """MPIR spends its time in the inner solver's loop; the deadline
        is installed on every member of the config tree, so the inner
        iterations cancel the solve too."""
        crs, dims, b = _system()
        config = {"solver": "mpir", "tol": 1e-12,
                  "inner": {"solver": "cg", "fixed_iterations": 50,
                            "record_history": False}}
        with pytest.raises(JobTimeoutError):
            solve(crs, b, config, grid_dims=dims, max_wall_seconds=1e-9)

    def test_aborted_cached_entry_recovers_on_next_use(self):
        """A timeout mid-run leaves the cache entry in a partial state;
        the next hit's ``prepare`` restores the initial image, so the
        follow-up solve is bit-identical to an uncached one."""
        crs, dims, b = _system()
        cache = ProgramCache()
        # Warm the cache, then abort a hit mid-solve.
        warm = solve(crs, b, CONFIG, grid_dims=dims, cache=cache)
        with pytest.raises(JobTimeoutError):
            solve(crs, b, CONFIG, grid_dims=dims, cache=cache,
                  max_wall_seconds=1e-9)
        again = solve(crs, b, CONFIG, grid_dims=dims, cache=cache)
        np.testing.assert_array_equal(warm.x, again.x)
        assert warm.stats.residuals == again.stats.residuals
        assert warm.cycles == again.cycles
