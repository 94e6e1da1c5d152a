"""Tests for the iterative best-response scheme (Alg. 2)."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.best_response import (
    BatchedBestResponseIterator,
    BestResponseIterator,
    build_grid,
)
from repro.core.hjb import BatchedHJBSolver
from repro.core.parameters import MFGCPConfig


class TestBuildGrid:
    def test_covers_ou_support(self, fast_config):
        grid = build_grid(fast_config)
        ou = fast_config.ou_process()
        lo, hi = ou.stationary_interval()
        assert grid.h[0] <= max(lo, 1e-6) + 1e-9
        assert grid.h[-1] >= hi - 1e-9

    def test_q_axis_spans_content(self, fast_config):
        grid = build_grid(fast_config)
        assert grid.q[0, 0] == 0.0
        assert grid.q[0, -1] == fast_config.content_size

    def test_h_axis_positive(self, fast_config):
        assert build_grid(fast_config).h[0] > 0.0

    def test_degenerate_volatility_widened(self):
        from repro.core.parameters import ChannelParameters

        cfg = replace(
            MFGCPConfig.fast(), channel=ChannelParameters(volatility=0.0)
        )
        grid = build_grid(cfg)
        assert grid.h[-1] - grid.h[0] > 0.1


class TestSolve:
    def test_converges_on_fast_config(self, solved_equilibrium):
        assert solved_equilibrium.report.converged
        assert solved_equilibrium.report.final_policy_change < MFGCPConfig.fast().tolerance

    def test_policy_change_shrinks(self, solved_equilibrium):
        changes = [r.policy_change for r in solved_equilibrium.report.history]
        # The tail of the iteration is much smaller than the head.
        assert changes[-1] < 0.1 * max(changes)

    def test_density_path_mass(self, solved_equilibrium):
        grid = solved_equilibrium.grid
        for sheet in solved_equilibrium.density[:: max(1, grid.n_t // 5)]:
            assert grid.integrate(sheet[None])[0] == pytest.approx(1.0, abs=1e-9)

    def test_policy_bounds(self, solved_equilibrium):
        table = solved_equilibrium.policy.table
        assert np.all(table >= 0.0)
        assert np.all(table <= 1.0)

    def test_equilibrium_is_fixed_point(self, fast_config, solved_equilibrium):
        # One more best-response sweep barely moves the policy.
        hjb = BatchedHJBSolver([fast_config], solved_equilibrium.grid)
        _, policies = hjb.solve([solved_equilibrium.mean_field])
        gap = np.max(np.abs(policies[0] - solved_equilibrium.policy.table))
        assert gap < 10 * fast_config.tolerance

    def test_initial_policy_level_validated(self, fast_config):
        iterator = BestResponseIterator(fast_config)
        with pytest.raises(ValueError, match="policy level"):
            iterator.initial_policy(1.5)

    def test_custom_initial_density(self, fast_config):
        from repro.core.fpk import initial_density

        iterator = BestResponseIterator(fast_config)
        density0 = initial_density(iterator.grid, fast_config, mean_q=50.0, std_q=8.0)
        result = iterator.solve(density0=density0)
        assert result.mean_field.mean_q[0] == pytest.approx(50.0, abs=3.0)

    def test_different_bootstrap_same_equilibrium(self, fast_config):
        # Theorem 2: the fixed point is unique, so the iteration should
        # land on the same policy from different starting levels.
        res_a = BestResponseIterator(fast_config).solve(initial_policy_level=0.2)
        res_b = BestResponseIterator(fast_config).solve(initial_policy_level=0.8)
        gap = np.max(np.abs(res_a.policy.table - res_b.policy.table))
        assert gap < 0.05, f"equilibria differ by {gap}"

    def test_warm_start_from_equilibrium_converges_fast(
        self, fast_config, solved_equilibrium
    ):
        iterator = BestResponseIterator(fast_config)
        warm = iterator.solve(initial_policy=solved_equilibrium.policy.table)
        assert warm.report.converged
        # Warm-starting from the fixed point itself needs very few
        # iterations compared to the cold solve.
        assert warm.report.n_iterations <= max(
            3, solved_equilibrium.report.n_iterations // 2
        )

    def test_warm_start_validation(self, fast_config):
        iterator = BestResponseIterator(fast_config)
        with pytest.raises(ValueError, match="initial policy shape"):
            iterator.solve(initial_policy=np.zeros((2, 2)))
        bad = np.full(iterator.grid.path_shape[1:], 1.7)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            iterator.solve(initial_policy=bad)

    def test_records_history(self, solved_equilibrium):
        history = solved_equilibrium.report.history
        assert len(history) == solved_equilibrium.report.n_iterations
        assert history[0].iteration == 1
        for record in history:
            assert 0.0 <= record.mean_control <= 1.0
            assert record.mean_price <= MFGCPConfig.fast().p_hat + 1e-9


class TestResultMassExpression:
    """Per-time masses as the end-to-end benchmark computes them.

    The benchmark reads ``(eq.density * eq.grid.cell_weights()).sum(axis=(1, 2))``
    off each result, with the result's one-lane weights broadcasting
    over the time axis.
    """

    @staticmethod
    def masses(eq):
        return (eq.density * eq.grid.cell_weights()).sum(axis=(1, 2))

    def test_single_solve(self, solved_equilibrium):
        masses = self.masses(solved_equilibrium)
        assert masses.shape == (solved_equilibrium.grid.n_t + 1,)
        assert np.max(np.abs(masses - 1.0)) < 1e-9

    def test_every_lane_of_a_batch(self, fast_config):
        configs = [
            replace(fast_config, content_size=size, popularity=pop)
            for size, pop in ((40.0, 0.9), (100.0, 0.5), (150.0, 0.3))
        ]
        for eq in BatchedBestResponseIterator(configs).solve():
            masses = self.masses(eq)
            assert masses.shape == (eq.grid.n_t + 1,)
            assert np.max(np.abs(masses - 1.0)) < 1e-9
