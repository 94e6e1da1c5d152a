"""Tests for the equilibrium result containers and diagnostics."""

import numpy as np
import pytest

from repro.core.equilibrium import ConvergenceReport, IterationRecord


class TestIterationRecord:
    def test_valid(self):
        rec = IterationRecord(
            iteration=1, policy_change=0.5, mean_field_change=0.1,
            mean_price=0.6, mean_control=0.4,
        )
        assert rec.iteration == 1

    def test_validation(self):
        with pytest.raises(ValueError, match="iteration"):
            IterationRecord(-1, 0.1, 0.1, 0.5, 0.5)
        with pytest.raises(ValueError, match="policy_change"):
            IterationRecord(1, -0.1, 0.1, 0.5, 0.5)


class TestConvergenceReport:
    def make(self, changes):
        history = [
            IterationRecord(i + 1, c, 0.0, 0.5, 0.5) for i, c in enumerate(changes)
        ]
        return ConvergenceReport(
            converged=True,
            n_iterations=len(changes),
            final_policy_change=changes[-1],
            history=history,
        )

    def test_contraction_ratios_geometric(self):
        report = self.make([1.0, 0.5, 0.25, 0.125])
        assert np.allclose(report.contraction_ratios, 0.5)

    def test_contraction_ratios_short_history(self):
        report = self.make([1.0])
        assert report.contraction_ratios.size == 0

    def test_describe(self):
        report = self.make([1.0, 0.1])
        text = report.describe()
        assert "converged" in text
        assert "2 iterations" in text

    def test_describe_not_converged(self):
        report = ConvergenceReport(
            converged=False, n_iterations=3, final_policy_change=0.5, history=[]
        )
        assert "NOT converged" in report.describe()


class TestEquilibriumResult:
    def test_marginal_q_path_shape(self, solved_equilibrium):
        res = solved_equilibrium
        marginal = res.marginal_q_path()
        assert marginal.shape == (res.grid.n_t + 1, res.grid.n_q)
        assert np.all(marginal >= 0.0)

    def test_mean_remaining_space_matches_density(self, solved_equilibrium):
        res = solved_equilibrium
        manual = res.grid.integrate(res.density[0] * res.grid.q_mesh())[0]
        assert res.mean_remaining_space()[0] == pytest.approx(manual, rel=1e-9)

    def test_density_at_returns_copy(self, solved_equilibrium):
        res = solved_equilibrium
        sheet = res.density_at(0.0)
        sheet[:] = 0.0
        assert res.density[0].max() > 0.0

    def test_population_utility_identity(self, solved_equilibrium):
        paths = solved_equilibrium.population_utility_path()
        manual = (
            paths["trading_income"]
            + paths["sharing_benefit"]
            - paths["placement_cost"]
            - paths["staleness_cost"]
            - paths["sharing_cost"]
        )
        assert np.allclose(paths["total"], manual, atol=1e-9)

    def test_accumulated_utility_keys(self, solved_equilibrium):
        acc = solved_equilibrium.accumulated_utility()
        assert set(acc) == {
            "trading_income",
            "sharing_benefit",
            "placement_cost",
            "staleness_cost",
            "sharing_cost",
            "total",
        }
        assert acc["placement_cost"] >= 0.0
        assert acc["staleness_cost"] >= 0.0

    def test_mean_state_trajectory_bounded(self, solved_equilibrium):
        res = solved_equilibrium
        path = res.mean_state_trajectory(70.0)
        assert path.shape == (res.grid.n_t + 1,)
        assert path[0] == 70.0
        assert np.all(path >= 0.0)
        assert np.all(path <= res.config.content_size)

    def test_state_utility_rate_path_shape(self, solved_equilibrium):
        res = solved_equilibrium
        series = res.state_utility_rate_path(70.0)
        assert series.shape == (res.grid.n_t + 1,)
        assert np.all(np.isfinite(series))

    def test_state_utility_path_terminal_zero(self, solved_equilibrium):
        res = solved_equilibrium
        series = res.state_utility_path(70.0)
        # V(T) = 0 along any trajectory.
        assert series[-1] == pytest.approx(0.0, abs=1e-9)

    def test_cached_start_beats_empty_start(self, solved_equilibrium):
        res = solved_equilibrium
        v_cached = res.state_utility_path(20.0)[0]
        v_empty = res.state_utility_path(95.0)[0]
        assert v_cached > v_empty
