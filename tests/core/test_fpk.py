"""Tests for the forward FPK solver (Eq. (15))."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.best_response import build_grid
from repro.core.fpk import BatchedFPKSolver, initial_density
from repro.core.parameters import CachingParameters, ChannelParameters


@pytest.fixture
def setup(fast_config):
    grid = build_grid(fast_config)
    return fast_config, grid, BatchedFPKSolver([fast_config], grid)


def constant_policy(grid, level):
    """A one-lane policy table at a constant caching rate."""
    return np.full(grid.path_shape, level)


class TestInitialDensity:
    def test_unit_mass(self, setup):
        cfg, grid, _ = setup
        density = initial_density(grid, cfg)
        assert grid.integrate(density[None])[0] == pytest.approx(1.0)

    def test_centered_at_configured_mean(self, setup):
        cfg, grid, _ = setup
        density = initial_density(grid, cfg)
        mean_q = grid.integrate(density * grid.q_mesh())[0]
        target, _ = cfg.initial_density_moments()
        assert mean_q == pytest.approx(target, abs=2.0)

    def test_custom_moments(self, setup):
        cfg, grid, _ = setup
        density = initial_density(grid, cfg, mean_q=30.0, std_q=5.0)
        mean_q = grid.integrate(density * grid.q_mesh())[0]
        assert mean_q == pytest.approx(30.0, abs=2.0)

    def test_rejects_bad_std(self, setup):
        cfg, grid, _ = setup
        with pytest.raises(ValueError, match="std_q"):
            initial_density(grid, cfg, std_q=0.0)


class TestForwardSweep:
    def test_mass_conserved_at_every_time(self, setup):
        cfg, grid, solver = setup
        path = solver.solve(constant_policy(grid, 0.5))[0]
        for sheet in path:
            assert grid.integrate(sheet[None])[0] == pytest.approx(1.0, abs=1e-9)

    def test_density_stays_nonnegative(self, setup):
        _, grid, solver = setup
        path = solver.solve(constant_policy(grid, 1.0))[0]
        assert np.all(path >= 0.0)

    def test_caching_moves_mass_to_lower_q(self, setup):
        cfg, grid, solver = setup
        # Full caching has strongly negative drift in q.
        path = solver.solve(constant_policy(grid, 1.0))[0]
        mean_start = grid.integrate(path[0] * grid.q_mesh())[0]
        mean_end = grid.integrate(path[-1] * grid.q_mesh())[0]
        assert mean_end < mean_start - 10.0

    def test_discarding_moves_mass_to_higher_q(self, setup):
        cfg, grid, solver = setup
        # Zero caching: the discard terms dominate and q grows.
        path = solver.solve(constant_policy(grid, 0.0))[0]
        mean_start = grid.integrate(path[0] * grid.q_mesh())[0]
        mean_end = grid.integrate(path[-1] * grid.q_mesh())[0]
        assert mean_end > mean_start

    def test_mean_drift_matches_theory(self, fast_config):
        # With zero diffusion and a constant control, the mean of q
        # should move by drift * T (away from the boundaries).
        cfg = replace(
            fast_config,
            caching=CachingParameters(noise=1e-6),
            channel=ChannelParameters(volatility=0.2),
        )
        grid = build_grid(cfg)
        solver = BatchedFPKSolver([cfg], grid)
        density0 = initial_density(grid, cfg, mean_q=60.0, std_q=6.0)
        level = 0.5
        path = solver.solve(constant_policy(grid, level), density0[None])[0]
        drift = float(cfg.drift_rate(np.array(level)))
        expected = 60.0 + drift * cfg.horizon
        mean_end = grid.integrate(path[-1] * grid.q_mesh())[0]
        # First-order upwind adds numerical diffusion; allow a few MB.
        assert mean_end == pytest.approx(expected, abs=4.0)

    def test_custom_initial_density_is_normalised(self, setup):
        cfg, grid, solver = setup
        raw = np.ones(grid.shape)
        path = solver.solve(constant_policy(grid, 0.5), density0=raw)[0]
        assert grid.integrate(path[0][None])[0] == pytest.approx(1.0)

    def test_policy_shape_checked(self, setup):
        _, grid, solver = setup
        with pytest.raises(ValueError, match="policy table"):
            solver.solve(np.zeros((1, 3, *grid.shape[1:])))

    def test_substeps_positive(self, setup):
        _, _, solver = setup
        assert solver.substeps[0] >= 1

    def test_h_marginal_stays_near_stationary(self, setup):
        cfg, grid, solver = setup
        path = solver.solve(constant_policy(grid, 0.5))[0]
        mean_h_start = grid.integrate(path[0] * grid.h_mesh())[0]
        mean_h_end = grid.integrate(path[-1] * grid.h_mesh())[0]
        # The OU stationary start should stay near the long-term mean.
        assert mean_h_end == pytest.approx(mean_h_start, abs=0.3)
