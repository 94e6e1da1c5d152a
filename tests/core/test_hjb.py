"""Tests for the backward HJB solver (Eq. (20))."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.best_response import build_batch_grid, build_grid
from repro.core.hjb import BatchedHJBSolver
from repro.core.mean_field import MeanFieldEstimator
from repro.core.parameters import MFGCPConfig


@pytest.fixture
def setup(fast_config):
    grid = build_grid(fast_config)
    solver = BatchedHJBSolver([fast_config], grid)
    mean_field = MeanFieldEstimator(fast_config, grid).constant_guess()
    return fast_config, grid, solver, mean_field


def solve_one(solver, mean_field, terminal_value=None):
    """The value path and policy table of a one-lane solver's lane."""
    values, policies = solver.solve([mean_field], terminal_value=terminal_value)
    return values[0], policies[0]


class TestBackwardSweep:
    def test_terminal_condition_default_zero(self, setup):
        _, grid, solver, mf = setup
        value, _ = solve_one(solver, mf)
        assert np.allclose(value[grid.n_t], 0.0)

    def test_custom_terminal_value(self, setup):
        _, grid, solver, mf = setup
        terminal = np.full(grid.shape, 5.0)
        value, _ = solve_one(solver, mf, terminal_value=terminal)
        assert np.allclose(value[grid.n_t], 5.0)

    def test_terminal_shape_checked(self, setup):
        _, _, solver, mf = setup
        with pytest.raises(ValueError, match="terminal value"):
            solver.solve([mf], terminal_value=np.zeros((2, 2)))

    def test_value_stays_bounded(self, setup):
        cfg, grid, solver, mf = setup
        value, _ = solve_one(solver, mf)
        # A crude bound: |V| <= T * max |running utility| over the grid;
        # the income bound I * p_hat * Q dominates.
        bound = cfg.horizon * 4 * cfg.n_requests * cfg.p_hat * cfg.content_size
        assert np.all(np.abs(value) < bound)

    def test_value_smooth_in_q(self, setup):
        # No checkerboard oscillation: the second difference along q
        # stays moderate relative to the value scale.
        _, grid, solver, mf = setup
        value = solve_one(solver, mf)[0][0]
        second = np.abs(np.diff(value, 2, axis=1))
        assert second.max() < 0.2 * (np.abs(value).max() + 1.0)

    def test_value_decreasing_in_q(self, setup):
        # Being cached up (small remaining space) is worth more.
        _, grid, solver, mf = setup
        value = solve_one(solver, mf)[0][0]
        assert np.all(np.diff(value, axis=1) <= 1e-6)

    def test_policy_in_unit_interval(self, setup):
        _, _, solver, mf = setup
        _, table = solve_one(solver, mf)
        assert np.all(table >= 0.0)
        assert np.all(table <= 1.0)

    def test_terminal_policy_vanishes(self, setup):
        # V(T) = 0 => no value gradient => Eq. (21) clips to zero.
        _, grid, solver, mf = setup
        _, table = solve_one(solver, mf)
        assert np.allclose(table[grid.n_t], 0.0)

    def test_substeps_positive(self, setup):
        _, _, solver, _ = setup
        assert solver.substeps[0] >= 1

    def test_control_from_value_consistent(self, setup):
        _, grid, solver, mf = setup
        value, table = solve_one(solver, mf)
        recomputed = solver.control_from_value(value[0][None])[0]
        assert np.allclose(recomputed, table[0], atol=1e-9)


class TestPolicyIsGodunovConsistent:
    """The stored policy of every reporting time is, bit for bit, the
    Godunov control of that time's value sheet."""

    def test_default_grid_one_lane(self):
        config = MFGCPConfig()
        grid = build_grid(config)
        solver = BatchedHJBSolver([config], grid)
        mf = MeanFieldEstimator(config, grid).constant_guess()
        values, policies = solver.solve([mf])
        for t in range(grid.n_t + 1):
            assert np.array_equal(
                solver.control_from_value(values[:, t]), policies[:, t]
            ), t

    def test_batch_with_frozen_lanes(self):
        configs = [
            replace(MFGCPConfig.fast(), content_size=size)
            for size in (5.0, 20.0, 50.0, 150.0, 400.0)
        ]
        solver = BatchedHJBSolver(configs, build_batch_grid(configs))
        # Lanes with fewer CFL substeps than the batch maximum freeze
        # part of each interval: the frozen-lane path runs.
        assert len(set(solver.substeps.tolist())) >= 2
        mean_fields = [
            MeanFieldEstimator(cfg, build_grid(cfg)).constant_guess()
            for cfg in configs
        ]
        values, policies = solver.solve(mean_fields)
        for t in range(solver.grid.n_t + 1):
            assert np.array_equal(
                solver.control_from_value(values[:, t]), policies[:, t]
            ), t


class TestEconomicShape:
    def test_sharing_value_nonnegative(self, fast_config):
        # Enabling sharing cannot hurt the generic player's value:
        # solve with and without the sharing terms under identical
        # market paths.
        grid = build_grid(fast_config)
        mf = MeanFieldEstimator(fast_config, grid).constant_guess()
        # Give the sharing benefit a visible level.
        mf = replace(mf, sharing_benefit=np.full(grid.n_t + 1, 3.0))
        v_with = solve_one(BatchedHJBSolver([fast_config], grid), mf)[0][0]
        cfg_ns = fast_config.without_sharing()
        v_without = solve_one(BatchedHJBSolver([cfg_ns], grid), mf)[0][0]
        assert v_with.mean() > v_without.mean() - 1e-6

    def test_cost_only_objective_nonpositive_value(self, fast_config):
        # The UDCS objective (no income, no sharing) accumulates only
        # costs, so its value function is everywhere non-positive.
        cfg = replace(fast_config, include_trading=False, include_sharing=False)
        grid = build_grid(cfg)
        mf = MeanFieldEstimator(cfg, grid).constant_guess()
        value, _ = solve_one(BatchedHJBSolver([cfg], grid), mf)
        assert np.all(value <= 1e-9)

    def test_higher_price_raises_value(self, fast_config):
        grid = build_grid(fast_config)
        estimator = MeanFieldEstimator(fast_config, grid)
        mf_low = replace(
            estimator.constant_guess(), price=np.full(grid.n_t + 1, 0.3)
        )
        mf_high = replace(
            estimator.constant_guess(), price=np.full(grid.n_t + 1, 0.7)
        )
        solver = BatchedHJBSolver([fast_config], grid)
        v_low = solve_one(solver, mf_low)[0][0].mean()
        v_high = solve_one(solver, mf_high)[0][0].mean()
        assert v_high > v_low
