"""Tests for the multi-population (heterogeneous EDP classes) extension."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.best_response import BestResponseIterator
from repro.core.multi_population import MultiPopulationIterator
from repro.core.parameters import ChannelParameters, MFGCPConfig


def two_class_configs(fast_config):
    """Base stations (good channels, cheap storage) vs smartphones."""
    base_station = replace(
        fast_config,
        channel=ChannelParameters(bandwidth=18.0),
        w5=70.0,
    )
    smartphone = replace(
        fast_config,
        channel=ChannelParameters(bandwidth=10.0),
        w5=140.0,
    )
    return base_station, smartphone


class TestConstruction:
    def test_weights_validated(self, fast_config):
        with pytest.raises(ValueError, match="weights"):
            MultiPopulationIterator([fast_config], [0.5])
        with pytest.raises(ValueError, match="weights"):
            MultiPopulationIterator([fast_config, fast_config], [0.5])
        with pytest.raises(ValueError, match="weights"):
            MultiPopulationIterator([fast_config, fast_config], [1.5, -0.5])

    def test_empty_classes_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            MultiPopulationIterator([], [])

    def test_market_fields_must_agree(self, fast_config):
        other = replace(fast_config, p_hat=0.9)
        with pytest.raises(ValueError, match="p_hat"):
            MultiPopulationIterator([fast_config, other], [0.5, 0.5])

    def test_non_market_fields_may_differ(self, fast_config):
        a, b = two_class_configs(fast_config)
        MultiPopulationIterator([a, b], [0.5, 0.5])  # no raise


class TestSingleClassReduction:
    def test_matches_single_population_solver(self, fast_config):
        # One class reaches Algorithm 2's equilibrium by another
        # iteration (policy damping, not Anderson mixing of the mean
        # field), so the two agree to the stopping tolerance, not bit
        # for bit.  On the fast config the gaps measure 1.6e-3 MB in
        # mean_q, 1.2e-5 in price and 1.8e-5 relative in utility; each
        # bound is five times its measured gap.
        multi = MultiPopulationIterator([fast_config], [1.0]).solve()
        single = BestResponseIterator(fast_config).solve()
        gap_q = np.max(
            np.abs(multi.market.mean_q - single.mean_field.mean_q)
        )
        gap_p = np.max(np.abs(multi.market.price - single.mean_field.price))
        assert gap_q < 5 * 1.6e-3, gap_q
        assert gap_p < 5 * 1.2e-5, gap_p
        assert multi.population_utility() == pytest.approx(
            single.accumulated_utility()["total"], rel=5 * 1.8e-5
        )


class TestTwoClassEquilibrium:
    @pytest.fixture(scope="class")
    def result(self):
        a, b = two_class_configs(MFGCPConfig.fast())
        return MultiPopulationIterator([a, b], [0.3, 0.7]).solve()

    def test_converges(self, result):
        assert result.report.converged

    def test_shared_market_price_bounds(self, result):
        cfg = result.class_results[0].config
        assert np.all(result.market.price <= cfg.p_hat + 1e-9)
        assert np.all(result.market.price >= 0.0)

    def test_market_control_is_weighted_mixture(self, result):
        mixed = (
            0.3 * result.class_results[0].mean_field.mean_control
            + 0.7 * result.class_results[1].mean_field.mean_control
        )
        # Both class results carry the shared market, so compare against
        # the per-class density/policy integrals instead.
        per_class = [
            res.policy.mean_against(res.density) for res in result.class_results
        ]
        manual = 0.3 * per_class[0] + 0.7 * per_class[1]
        assert np.allclose(result.market.mean_control, manual, atol=1e-9)

    def test_cheap_storage_class_caches_more(self, result):
        # Base stations (lower w5) run a higher average caching rate.
        per_class = [
            res.policy.mean_against(res.density) for res in result.class_results
        ]
        assert per_class[0].mean() > per_class[1].mean()

    def test_cheap_storage_class_earns_more(self, result):
        assert result.class_utility(0) > result.class_utility(1)

    def test_population_utility_weighted(self, result):
        expected = 0.3 * result.class_utility(0) + 0.7 * result.class_utility(1)
        assert result.population_utility() == pytest.approx(expected)

    def test_densities_unit_mass(self, result):
        for res in result.class_results:
            grid = res.grid
            assert grid.integrate(res.density[-1][None])[0] == pytest.approx(1.0, abs=1e-9)

    def test_bad_bootstrap_rejected(self, fast_config):
        a, b = two_class_configs(fast_config)
        with pytest.raises(ValueError, match="policy level"):
            MultiPopulationIterator([a, b], [0.5, 0.5]).solve(
                initial_policy_level=2.0
            )
