"""Tests for the stationary (infinite-horizon) MFG solver."""

import numpy as np
import pytest

from repro.core.parameters import MFGCPConfig
from repro.core.stationary import StationarySolver
from repro.economics.utility import MarketContext


@pytest.fixture(scope="module")
def stationary_result():
    return StationarySolver(MFGCPConfig.fast(), discount=1.0).solve()


class TestStationarySolve:
    def test_converges(self, stationary_result):
        assert stationary_result.converged
        assert stationary_result.n_iterations >= 1

    def test_density_is_invariant(self, stationary_result):
        res = stationary_result
        solver = StationarySolver(res.config, discount=1.0, grid=res.grid)
        drift_q = res.config.drift_rate(res.policy)
        dt = res.grid.dt / solver._fpk.substeps_per_interval()
        step = solver._fpk.batch.step_operator(drift_q[None], dt)
        stepped = step(res.density[None])[0]
        assert np.max(np.abs(stepped - res.density)) < 1e-5

    def test_density_unit_mass(self, stationary_result):
        res = stationary_result
        assert res.grid.integrate(res.density) == pytest.approx(1.0, abs=1e-9)

    def test_policy_feasible(self, stationary_result):
        assert np.all(stationary_result.policy >= 0.0)
        assert np.all(stationary_result.policy <= 1.0)

    def test_population_fully_cached(self, stationary_result):
        # With an infinite horizon the population caches down to near
        # zero remaining space and maintains it.
        assert stationary_result.mean_q < 10.0

    def test_maintenance_caching_at_low_q(self, stationary_result):
        # The policy at the cached boundary offsets the discard drift:
        # x ~ x_balance = (w3 xi^L - w2 Pi) / w1 (clipped).
        res = stationary_result
        drift = res.config.caching_drift()
        balance = float(
            drift.equilibrium_control(res.config.popularity, res.config.timeliness)
        )
        boundary_policy = float(res.policy[res.grid.n_h // 2, 0])
        assert boundary_policy == pytest.approx(balance, abs=0.15)

    def test_no_terminal_decay(self, stationary_result):
        # Unlike the finite-horizon policy (x* -> 0 at T), the
        # stationary policy keeps caching active somewhere.
        assert stationary_result.policy.max() > 0.05

    def test_price_consistent_with_control(self, stationary_result):
        res = stationary_result
        cfg = res.config
        expected = cfg.p_hat - cfg.eta1 * cfg.content_size * res.mean_control
        assert res.price == pytest.approx(expected, abs=1e-6)

    def test_utility_rate_positive(self, stationary_result):
        assert stationary_result.utility_rate() > 0.0


class TestDiscountEffects:
    def test_higher_discount_lowers_value(self):
        cfg = MFGCPConfig.fast()
        patient = StationarySolver(cfg, discount=1.0).solve()
        impatient = StationarySolver(cfg, discount=4.0).solve()
        # The discounted value integrates the same utility stream, so
        # heavier discounting shrinks its magnitude.
        assert np.abs(impatient.value).max() < np.abs(patient.value).max()

    def test_rejects_nonpositive_discount(self):
        with pytest.raises(ValueError, match="discount"):
            StationarySolver(MFGCPConfig.fast(), discount=0.0)


class TestInnerSolvers:
    def test_value_iteration_constant_utility(self):
        # With rho V = c the fixed point is V = c / rho; verify against
        # a market context that zeroes the q dependence as much as the
        # model allows by checking the residual equation instead.
        cfg = MFGCPConfig.fast()
        solver = StationarySolver(cfg, discount=2.0)
        ctx = MarketContext(
            n_requests=cfg.n_requests, price=0.6, q_other=50.0, sharing_benefit=0.0
        )
        value, control = solver.value_iteration(ctx)
        # Stationarity: the discounted HJB residual is ~0.
        rhs, _ = solver._hjb.batch.step_operator([ctx])(value[None])
        residual = rhs[0] - 2.0 * value
        assert np.max(np.abs(residual)) < 1e-2 * (1 + np.abs(value).max())
        assert np.all(control >= 0.0)

    def test_value_iteration_returns_the_control_of_its_value(self):
        # The returned policy is the Godunov control of the returned
        # sheet, not of the sheet one artificial-time step earlier.
        cfg = MFGCPConfig.fast()
        solver = StationarySolver(cfg, discount=2.0)
        ctx = MarketContext(
            n_requests=cfg.n_requests, price=0.6, q_other=50.0, sharing_benefit=1.0
        )
        value, control = solver.value_iteration(ctx)
        np.testing.assert_array_equal(
            control, solver._hjb.control_from_value(value)
        )
