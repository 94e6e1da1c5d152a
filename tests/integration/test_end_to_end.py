"""End-to-end integration: solver <-> finite population <-> economics.

These tests tie the whole pipeline together: the solved mean-field
equilibrium must (a) be internally consistent, (b) predict the finite
population it approximates, and (c) reproduce the paper's qualitative
equilibrium shape.
"""

import numpy as np
import pytest

from repro.analysis.metrics import mean_field_gap
from repro.baselines.mfg_cp import MFGCPScheme
from repro.economics.pricing import finite_population_price
from repro.game.simulator import GameSimulator


@pytest.fixture(scope="module")
def population_report(solved_equilibrium):
    sim = GameSimulator(
        solved_equilibrium.config,
        [(MFGCPScheme(equilibrium=solved_equilibrium), 150)],
        rng=np.random.default_rng(0),
    )
    return sim.run()


class TestMeanFieldPredictsPopulation:
    def test_mean_cache_state_tracks(self, solved_equilibrium, population_report):
        gap = mean_field_gap(solved_equilibrium, population_report)
        assert gap["mean_q_rmse"] < 5.0, gap

    def test_price_tracks(self, solved_equilibrium, population_report):
        gap = mean_field_gap(solved_equilibrium, population_report)
        assert gap["price_rmse"] < 0.02, gap

    def test_utility_level_tracks(self, solved_equilibrium, population_report):
        mf_total = solved_equilibrium.accumulated_utility()["total"]
        sim_total = population_report.total_utility("MFG-CP")
        assert sim_total == pytest.approx(mf_total, rel=0.35)

    def test_empirical_density_matches_fpk_marginal(
        self, solved_equilibrium, population_report
    ):
        # Final-time histogram vs FPK marginal over q: same mode region.
        grid = solved_equilibrium.grid
        marginal = grid.marginal_q(solved_equilibrium.density[-1])
        mode_q = grid.q[0, int(np.argmax(marginal))]
        sim_mean = population_report.final_state.remaining.mean()
        assert abs(sim_mean - solved_equilibrium.mean_field.mean_q[-1]) < 6.0
        assert abs(mode_q - np.median(population_report.final_state.remaining)) < 20.0


class TestEq5Eq17Consistency:
    def test_mean_field_price_is_large_m_limit(self, solved_equilibrium):
        # At any time, plugging the population-average control into
        # Eq. (5) for a large synthetic population reproduces Eq. (17).
        mf = solved_equilibrium.mean_field
        cfg = solved_equilibrium.config
        for ti in (0, len(mf.price) // 2, -1):
            level = float(mf.mean_control[ti])
            strategies = np.full(4000, level)
            finite = finite_population_price(
                cfg.p_hat, cfg.eta1, cfg.content_size, strategies, 0
            )
            assert finite == pytest.approx(float(mf.price[ti]), abs=1e-6)


class TestEquilibriumShape:
    def test_policy_increases_with_remaining_space(self, solved_equilibrium):
        # Fig. 5's headline shape at the start of the epoch.
        res = solved_equilibrium
        profile = res.policy.q_profile(0.0, res.config.channel.mean)
        assert profile[-2] > profile[1]

    def test_policy_decays_toward_horizon(self, solved_equilibrium):
        res = solved_equilibrium
        t_profile = res.policy.time_profile(res.config.channel.mean, 50.0)
        assert t_profile[-1] <= 0.05
        assert t_profile.max() > 0.3

    def test_population_caches_up_over_epoch(self, solved_equilibrium):
        mean_q = solved_equilibrium.mean_field.mean_q
        assert mean_q[-1] < mean_q[0] - 10.0

    def test_price_depressed_by_supply_then_recovers(self, solved_equilibrium):
        price = solved_equilibrium.mean_field.price
        p_hat = solved_equilibrium.config.p_hat
        # Early heavy caching supply depresses the price well below
        # p_hat (Eq. (17)); as the control decays toward the horizon
        # the price recovers.
        assert price.min() < p_hat - 0.05
        assert price[-1] > price.min() + 0.05

    def test_utility_rate_rises_over_epoch(self, solved_equilibrium):
        paths = solved_equilibrium.population_utility_path()
        total = paths["total"]
        assert total[-1] > total[0]


class TestSharingImprovesUtility:
    def test_mfgcp_beats_no_sharing(self, solved_equilibrium):
        # The paper's core comparative claim, at the mean-field level:
        # run the no-sharing variant and compare simulated utilities
        # inside the same market.
        from repro.baselines.mfg_nosharing import MFGNoSharingScheme

        cfg = solved_equilibrium.config
        mfg = MFGNoSharingScheme()
        totals = {}
        for name, scheme in (("MFG-CP", MFGCPScheme(equilibrium=solved_equilibrium)),
                             ("MFG", mfg)):
            utilities = []
            for seed in (0, 1, 2):
                sim = GameSimulator(
                    cfg, [(scheme, 80)], rng=np.random.default_rng(seed)
                )
                utilities.append(sim.run().total_utility(name))
            totals[name] = float(np.mean(utilities))
        assert totals["MFG-CP"] > totals["MFG"], totals
