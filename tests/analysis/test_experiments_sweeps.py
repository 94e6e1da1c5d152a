"""Smoke tests for the sweep harnesses (tiny configs).

The benches exercise the full-size sweeps; these tests run the same
harness code on deliberately coarse configurations so the structure
and invariants of every experiment function stay covered by plain
``pytest tests/``.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.analysis import experiments
from repro.core.parameters import MFGCPConfig


@pytest.fixture(scope="module")
def tiny_config():
    return replace(
        MFGCPConfig.fast(), n_time_steps=25, n_h=7, n_q=17, max_iterations=15
    )


class TestHeatmapHarness:
    def test_fig67_structure(self, tiny_config):
        data = experiments.fig67_heatmap(
            content_sizes=(80.0, 100.0), config=tiny_config
        )
        assert set(data) == {80.0, 100.0}
        for q_size, series in data.items():
            assert series["density"].shape[1] == tiny_config.n_q
            assert series["mean_q"][0] == pytest.approx(
                0.7 * q_size, abs=0.05 * q_size
            )


class TestW5SweepHarness:
    def test_fig8_structure(self, tiny_config):
        data = experiments.fig8_w5_sweep(w5_values=(90.0, 180.0), config=tiny_config)
        consumed = {
            w5: series["mean_q"][0] - series["mean_q"][-1]
            for w5, series in data.items()
        }
        assert consumed[90.0] > consumed[180.0]


class TestInitialDistributionHarness:
    def test_fig10_structure(self, tiny_config):
        data = experiments.fig10_initial_distribution(
            mean_fractions=(0.5, 0.8), config=tiny_config
        )
        assert set(data) == {0.5, 0.8}
        for series in data.values():
            assert series["utility"].shape == series["time"].shape


class TestEta1Harness:
    def test_fig11_income_decays(self, tiny_config):
        data = experiments.fig11_eta1_timeseries(
            eta1_values=(2e-3,), config=tiny_config
        )
        income = data[2e-3]["trading_income"]
        assert income[-1] < income[0]


class TestComparisonHarnesses:
    def test_fig12_row_structure(self, tiny_config):
        rows = experiments.fig12_total_vs_eta1(
            eta1_values=(2e-3,),
            schemes=("MPC", "RR"),
            n_edps=10,
            config=tiny_config,
        )
        assert len(rows) == 2
        for eta1, scheme, utility, income in rows:
            assert scheme in ("MPC", "RR")
            assert np.isfinite(utility)
            assert income > 0

    def test_fig13_row_structure(self, tiny_config):
        rows = experiments.fig13_popularity_sweep(
            popularity_values=(0.3, 0.6),
            schemes=("RR",),
            n_edps=10,
            config=tiny_config,
        )
        assert [r[0] for r in rows] == [0.3, 0.6]
        # Utility grows with popularity (more requests).
        assert rows[1][2] > rows[0][2]


class TestAblationHarnesses:
    def test_damping_rows(self, tiny_config):
        rows = experiments.ablation_damping(
            damping_values=(0.5, 1.0), config=tiny_config
        )
        assert [r[0] for r in rows] == [0.5, 1.0]
        for _, converged, n_iter, final in rows:
            assert converged
            assert n_iter >= 1

    def test_grid_resolution_rows(self, tiny_config):
        rows = experiments.ablation_grid_resolution(
            resolutions=((25, 7, 17), (40, 9, 25)), config=tiny_config
        )
        assert len(rows) == 2
        assert abs(rows[0][1] - rows[1][1]) < 12.0

    def test_sharing_price_rows(self, tiny_config):
        rows = experiments.ablation_sharing_price(
            sharing_prices=(0.0, 0.3), n_edps=10, config=tiny_config
        )
        assert rows[0][3] == 0.0       # no money at p_bar = 0
        assert rows[1][3] >= 0.0

    def test_meanfield_gap_rows(self, tiny_config):
        rows = experiments.ablation_meanfield_gap(
            population_sizes=(10, 40), config=tiny_config, n_seeds=2
        )
        assert [r[0] for r in rows] == [10, 40]
        for _, q_rmse, p_rmse in rows:
            assert q_rmse >= 0.0
            assert p_rmse >= 0.0

    def test_meanfield_gap_shrinks_with_population(self):
        # Sec. III-B: the N-player population tracks the mean field
        # better as N grows.  Eight seeds per N average out the
        # sampling noise; three leave q-RMSE non-monotone for some
        # root seeds, eight hold it for every root seed 0, 4, ..., 36.
        rows = experiments.ablation_meanfield_gap(
            population_sizes=(10, 40, 160), config=MFGCPConfig.fast(), n_seeds=8
        )
        q_rmse = [row[1] for row in rows]
        p_rmse = [row[2] for row in rows]
        assert q_rmse[0] > q_rmse[1] > q_rmse[2]
        assert p_rmse[0] > p_rmse[1] > p_rmse[2]

    def test_exploitability_rows(self, tiny_config):
        rows = experiments.ablation_exploitability(
            population_sizes=(8,),
            deviation_levels=(0.0, 1.0),
            config=tiny_config,
        )
        m, gain, utility = rows[0]
        assert m == 8
        assert np.isfinite(gain)
        assert np.isfinite(utility)
