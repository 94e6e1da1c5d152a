"""Tests for the mean-field estimator (Section IV-B)."""

import numpy as np
import pytest

from repro.core.best_response import build_grid
from repro.core.mean_field import MeanFieldEstimator, MeanFieldPath
from repro.core.parameters import MFGCPConfig


@pytest.fixture
def setup(fast_config):
    grid = build_grid(fast_config)
    return fast_config, grid, MeanFieldEstimator(fast_config, grid)


def uniform_density_path(grid):
    sheet = grid.normalize_sheet(np.ones(grid.shape[1:]))
    return np.tile(sheet, (grid.n_t + 1, 1, 1))


class TestEstimate:
    def test_mean_q_of_uniform_density(self, setup):
        cfg, grid, estimator = setup
        mf = estimator.estimate(
            uniform_density_path(grid), np.full(grid.path_shape[1:], 0.5)
        )
        # E[q] under the uniform law is Q/2.
        assert np.allclose(mf.mean_q, cfg.content_size / 2, rtol=0.02)

    def test_mean_control_matches_policy_level(self, setup):
        _, grid, estimator = setup
        mf = estimator.estimate(
            uniform_density_path(grid), np.full(grid.path_shape[1:], 0.37)
        )
        assert np.allclose(mf.mean_control, 0.37, rtol=1e-6)

    def test_price_follows_eq17(self, setup):
        cfg, grid, estimator = setup
        mf = estimator.estimate(
            uniform_density_path(grid), np.full(grid.path_shape[1:], 0.5)
        )
        expected = cfg.p_hat - cfg.eta1 * cfg.content_size * 0.5
        assert np.allclose(mf.price, expected, rtol=1e-6)

    def test_qualified_fraction_of_uniform(self, setup):
        cfg, grid, estimator = setup
        mf = estimator.estimate(
            uniform_density_path(grid), np.full(grid.path_shape[1:], 0.5)
        )
        # Under the uniform law the sub-threshold mass is ~alpha.
        assert np.allclose(mf.qualified_fraction, cfg.alpha, atol=0.05)
        assert np.allclose(
            mf.case3_fraction, (1 - mf.qualified_fraction) ** 2, atol=1e-9
        )

    def test_sharing_disabled_zero_benefit(self, fast_config):
        cfg = fast_config.without_sharing()
        grid = build_grid(cfg)
        estimator = MeanFieldEstimator(cfg, grid)
        mf = estimator.estimate(
            uniform_density_path(grid), np.full(grid.path_shape[1:], 0.5)
        )
        assert np.all(mf.sharing_benefit == 0.0)

    def test_transfer_is_partial_expectation_gap(self, setup):
        cfg, grid, estimator = setup
        mf = estimator.estimate(
            uniform_density_path(grid), np.full(grid.path_shape[1:], 0.5)
        )
        q = grid.q_mesh()
        weights = grid.cell_weights()
        density = uniform_density_path(grid)[0]
        low = ((q <= cfg.alpha * cfg.content_size) * q * density * weights).sum()
        high = ((q > cfg.alpha * cfg.content_size) * q * density * weights).sum()
        assert mf.mean_transfer[0] == pytest.approx(abs(low - high), rel=1e-6)

    def test_shape_validation(self, setup):
        _, grid, estimator = setup
        good = uniform_density_path(grid)
        with pytest.raises(ValueError, match="density"):
            estimator.estimate(good[:2], np.full(grid.path_shape[1:], 0.5))
        with pytest.raises(ValueError, match="policy"):
            estimator.estimate(good, np.full((2, 2), 0.5))


class TestMeanFieldPath:
    def test_context_round_trip(self, setup):
        cfg, grid, estimator = setup
        mf = estimator.estimate(
            uniform_density_path(grid), np.full(grid.path_shape[1:], 0.5)
        )
        ctx = mf.context(0)
        assert ctx.price == pytest.approx(float(mf.price[0]))
        assert ctx.q_other == pytest.approx(float(mf.mean_q[0]))
        assert ctx.n_requests == pytest.approx(cfg.n_requests)

    def test_context_index_bounds(self, setup):
        _, grid, estimator = setup
        mf = estimator.constant_guess()
        with pytest.raises(IndexError):
            mf.context(grid.n_t + 1)
        with pytest.raises(IndexError):
            mf.context(-1)

    def test_distance_zero_to_self(self, setup):
        _, _, estimator = setup
        mf = estimator.constant_guess()
        assert mf.distance(mf) == 0.0

    def test_distance_detects_changes(self, setup):
        from dataclasses import replace

        _, grid, estimator = setup
        mf = estimator.constant_guess()
        moved = replace(mf, mean_q=mf.mean_q + 5.0)
        assert mf.distance(moved) == pytest.approx(5.0)

    def test_scalar_requests_broadcast(self, setup):
        _, grid, _ = setup
        n = grid.n_t + 1
        mf = MeanFieldPath(
            grid=grid,
            n_requests=5.0,
            mean_control=np.zeros(n),
            price=np.zeros(n),
            mean_q=np.zeros(n),
            mean_transfer=np.zeros(n),
            sharing_benefit=np.zeros(n),
            qualified_fraction=np.zeros(n),
            case3_fraction=np.zeros(n),
        )
        assert mf.n_requests.shape == (n,)

    def test_wrong_length_rejected(self, setup):
        _, grid, _ = setup
        n = grid.n_t + 1
        with pytest.raises(ValueError, match="price"):
            MeanFieldPath(
                grid=grid,
                n_requests=5.0,
                mean_control=np.zeros(n),
                price=np.zeros(n - 1),
                mean_q=np.zeros(n),
                mean_transfer=np.zeros(n),
                sharing_benefit=np.zeros(n),
                qualified_fraction=np.zeros(n),
                case3_fraction=np.zeros(n),
            )

    def test_constant_guess_price_consistent(self, setup):
        cfg, _, estimator = setup
        mf = estimator.constant_guess(mean_control=0.5)
        expected = cfg.p_hat - cfg.eta1 * cfg.content_size * 0.5
        assert np.allclose(mf.price, expected)

    def test_demand_decay_enters_requests(self, fast_config):
        from dataclasses import replace as dc_replace

        cfg = dc_replace(fast_config, demand_decay=1.0)
        grid = build_grid(cfg)
        mf = MeanFieldEstimator(cfg, grid).constant_guess()
        assert mf.n_requests[0] > mf.n_requests[-1]
