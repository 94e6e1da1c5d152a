"""Tests for the optimal control (Thm. 1 / Eq. (21)) and policy lookup."""

import numpy as np
import pytest

from repro.core.grid import BatchGrid
from repro.core.policy import CachingPolicy, optimal_control


def make_grid(n_t=4, n_h=5, n_q=9):
    return BatchGrid.regular(1.0, n_t, (4.0, 6.0), n_h, 100.0, n_q)


class TestOptimalControl:
    KW = dict(content_size=100.0, w1=1.0, w4=2.0, w5=90.0, eta2=10.0, backhaul_rate=20.0)

    def test_eq21_formula_interior(self):
        dq_value = -1.0
        x = optimal_control(dq_value, **self.KW)
        expected = -(2.0 / 180.0 + 10.0 * 100.0 / (2 * 20.0 * 90.0) + 100.0 * (-1.0) / 180.0)
        assert float(x) == pytest.approx(expected)

    def test_zero_gradient_gives_zero_control(self):
        # With d_qV = 0 the linear costs make caching unprofitable.
        assert float(optimal_control(0.0, **self.KW)) == 0.0

    def test_clipped_to_unit_interval(self):
        assert float(optimal_control(-100.0, **self.KW)) == 1.0
        assert float(optimal_control(+100.0, **self.KW)) == 0.0

    def test_monotone_decreasing_in_gradient(self):
        grads = np.linspace(-3, 1, 10)
        xs = optimal_control(grads, **self.KW)
        assert np.all(np.diff(xs) <= 0)

    def test_vectorised(self):
        grads = np.full((3, 4), -1.0)
        xs = optimal_control(grads, **self.KW)
        assert xs.shape == (3, 4)

    def test_larger_w5_damps_control(self):
        kw_small = dict(self.KW)
        kw_large = dict(self.KW, w5=500.0)
        assert optimal_control(-1.0, **kw_large) < optimal_control(-1.0, **kw_small)

    def test_validation(self):
        with pytest.raises(ValueError, match="w5"):
            optimal_control(-1.0, 100.0, 1.0, 2.0, 0.0, 10.0, 20.0)
        with pytest.raises(ValueError, match="backhaul_rate"):
            optimal_control(-1.0, 100.0, 1.0, 2.0, 90.0, 10.0, 0.0)
        with pytest.raises(ValueError, match="content_size"):
            optimal_control(-1.0, 0.0, 1.0, 2.0, 90.0, 10.0, 20.0)


class TestCachingPolicy:
    def make_policy(self):
        grid = make_grid()
        # Policy increasing in q, constant in h, scaled by time index.
        table = np.empty(grid.path_shape[1:])
        for ti in range(grid.n_t + 1):
            scale = 1.0 - ti / (grid.n_t + 1)
            table[ti] = np.tile(np.linspace(0, 1, grid.n_q), (grid.n_h, 1)) * scale
        return CachingPolicy(grid=grid, table=table), grid

    def test_lookup_on_grid_points(self):
        policy, grid = self.make_policy()
        assert policy(0.0, grid.h[0], grid.q[0, 0]) == pytest.approx(0.0)
        assert policy(0.0, grid.h[2], grid.q[0, -1]) == pytest.approx(1.0)

    def test_bilinear_interpolation_midpoint(self):
        policy, grid = self.make_policy()
        mid_q = 0.5 * (grid.q[0, 0] + grid.q[0, 1])
        expected = 0.5 * (policy.table[0, 0, 0] + policy.table[0, 0, 1])
        assert policy(0.0, grid.h[0], mid_q) == pytest.approx(expected)

    def test_lookup_clamps_out_of_range(self):
        policy, grid = self.make_policy()
        assert policy(0.0, 1e9, 1e9) == pytest.approx(policy.table[0, -1, -1])
        assert policy(0.0, -1e9, -1e9) == pytest.approx(policy.table[0, 0, 0])

    def test_batch_matches_scalar(self):
        policy, grid = self.make_policy()
        hs = np.array([4.3, 5.1, 5.9])
        qs = np.array([10.0, 55.0, 99.0])
        batch = policy.batch(0.4, hs, qs)
        for i in range(3):
            assert batch[i] == pytest.approx(policy(0.4, hs[i], qs[i]))

    def test_batch_shape_mismatch(self):
        policy, _ = self.make_policy()
        with pytest.raises(ValueError, match="shape"):
            policy.batch(0.0, np.zeros(2), np.zeros(3))

    def test_profiles(self):
        policy, grid = self.make_policy()
        q_profile = policy.q_profile(0.0, grid.h[1])
        assert q_profile.shape == (grid.n_q,)
        assert np.all(np.diff(q_profile) >= 0)
        t_profile = policy.time_profile(grid.h[1], 50.0)
        assert t_profile.shape == (grid.n_t + 1,)
        assert np.all(np.diff(t_profile) <= 0)

    def test_at_time_returns_copy(self):
        policy, _ = self.make_policy()
        sheet = policy.at_time(0.0)
        sheet[:] = 99.0
        assert policy.table[0].max() <= 1.0

    def test_mean_against_uniform_density(self):
        policy, grid = self.make_policy()
        density = np.tile(
            grid.normalize(np.ones(grid.shape))[0], (grid.n_t + 1, 1, 1)
        )
        means = policy.mean_against(density)
        assert means.shape == (grid.n_t + 1,)
        # Mean of a 0..1 ramp under uniform density is ~0.5 at t=0.
        assert means[0] == pytest.approx(0.5, rel=0.05)
        assert np.all(np.diff(means) < 0)

    def test_mean_against_shape_mismatch(self):
        policy, grid = self.make_policy()
        with pytest.raises(ValueError, match="shape"):
            policy.mean_against(np.ones((2, *grid.shape[1:])))

    def test_rejects_out_of_range_table(self):
        grid = make_grid()
        table = np.full(grid.path_shape[1:], 1.5)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            CachingPolicy(grid=grid, table=table)

    def test_rejects_wrong_shape(self):
        grid = make_grid()
        with pytest.raises(ValueError, match="shape"):
            CachingPolicy(grid=grid, table=np.zeros((2, 2)))
