"""Tests for the semi-Lagrangian solver backend."""

import numpy as np
import pytest

from repro.core.best_response import build_grid
from repro.core.grid import BatchGrid
from repro.core.mean_field import MeanFieldEstimator
from repro.core.parameters import MFGCPConfig
from repro.core.semilagrangian import (
    SLBestResponseIterator,
    SLFPKSolver,
    SLHJBSolver,
    bilinear_deposit,
    bilinear_interpolate,
)


@pytest.fixture
def grid():
    return BatchGrid.regular(1.0, 10, (4.0, 6.0), 6, 100.0, 11)


class TestBilinearInterpolate:
    def test_exact_on_grid_nodes(self, grid):
        rng = np.random.default_rng(0)
        field = rng.uniform(0, 1, grid.shape[1:])
        H, Q = np.meshgrid(grid.h, grid.q[0], indexing="ij")
        out = bilinear_interpolate(field, grid, H, Q)
        assert np.allclose(out, field)

    def test_exact_on_bilinear_function(self, grid):
        field = 2.0 * grid.h_mesh()[0] + 0.3 * grid.q_mesh()[0] + 1.0
        h_pts = np.array([4.3, 5.7])
        q_pts = np.array([12.5, 87.5])
        out = bilinear_interpolate(field, grid, h_pts, q_pts)
        assert np.allclose(out, 2.0 * h_pts + 0.3 * q_pts + 1.0)

    def test_clamps_outside_points(self, grid):
        field = grid.q_mesh()[0].astype(float)
        out = bilinear_interpolate(field, grid, np.array([5.0]), np.array([1e9]))
        assert out[0] == pytest.approx(grid.q[0, -1])

    def test_shape_checked(self, grid):
        with pytest.raises(ValueError, match="field shape"):
            bilinear_interpolate(np.zeros((2, 2)), grid, np.zeros(1), np.zeros(1))


class TestBilinearDeposit:
    def test_conserves_mass(self, grid):
        rng = np.random.default_rng(1)
        mass = rng.uniform(0, 1, 50)
        h_pts = rng.uniform(3.0, 7.0, 50)   # includes out-of-grid points
        q_pts = rng.uniform(-10.0, 110.0, 50)
        out = bilinear_deposit(mass, grid, h_pts, q_pts)
        assert out.sum() == pytest.approx(mass.sum(), rel=1e-12)

    def test_point_on_node_deposits_there(self, grid):
        out = bilinear_deposit(
            np.array([2.0]), grid, np.array([grid.h[2]]), np.array([grid.q[0, 3]])
        )
        assert out[2, 3] == pytest.approx(2.0)
        assert out.sum() == pytest.approx(2.0)

    def test_adjoint_of_interpolation(self, grid):
        # <interp(f), m> == <f, deposit(m)> for any field/mass pair.
        rng = np.random.default_rng(2)
        field = rng.uniform(0, 1, grid.shape[1:])
        mass = rng.uniform(0, 1, 30)
        h_pts = rng.uniform(4.0, 6.0, 30)
        q_pts = rng.uniform(0.0, 100.0, 30)
        lhs = float((bilinear_interpolate(field, grid, h_pts, q_pts) * mass).sum())
        rhs = float((field * bilinear_deposit(mass, grid, h_pts, q_pts)).sum())
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestSLSolvers:
    def test_hjb_zero_terminal(self, fast_config):
        grid = build_grid(fast_config)
        mf = MeanFieldEstimator(fast_config, grid).constant_guess()
        solution = SLHJBSolver(fast_config, grid).solve(mf)
        assert np.allclose(solution.value[grid.n_t], 0.0)
        assert np.all(solution.policy.table >= 0.0)
        assert np.all(solution.policy.table <= 1.0)

    def test_hjb_value_decreasing_in_q(self, fast_config):
        grid = build_grid(fast_config)
        mf = MeanFieldEstimator(fast_config, grid).constant_guess()
        value0 = SLHJBSolver(fast_config, grid).solve(mf).value[0]
        assert np.all(np.diff(value0, axis=1) <= 1e-6)

    def test_hjb_rejects_few_controls(self, fast_config):
        grid = build_grid(fast_config)
        with pytest.raises(ValueError, match="control levels"):
            SLHJBSolver(fast_config, grid, n_control_levels=1)

    def test_fpk_mass_conserved(self, fast_config):
        grid = build_grid(fast_config)
        solver = SLFPKSolver(fast_config, grid)
        path = solver.solve(np.full(grid.path_shape[1:], 0.7))
        for sheet in path[:: max(1, grid.n_t // 4)]:
            assert grid.integrate(sheet[None])[0] == pytest.approx(1.0, abs=1e-9)

    def test_fpk_caching_moves_mass_down(self, fast_config):
        grid = build_grid(fast_config)
        solver = SLFPKSolver(fast_config, grid)
        path = solver.solve(np.full(grid.path_shape[1:], 1.0))
        mean0 = grid.integrate(path[0] * grid.q_mesh())[0]
        mean1 = grid.integrate(path[-1] * grid.q_mesh())[0]
        assert mean1 < mean0 - 10.0

    def test_fpk_shape_checked(self, fast_config):
        grid = build_grid(fast_config)
        with pytest.raises(ValueError, match="policy table"):
            SLFPKSolver(fast_config, grid).solve(np.zeros((2, 2)))


class TestCrossBackendAgreement:
    @pytest.fixture(scope="class")
    def sl_result(self):
        return SLBestResponseIterator(MFGCPConfig.fast()).solve()

    def test_sl_converges(self, sl_result):
        assert sl_result.report.converged

    def test_mean_state_path_agrees_with_fd(self, sl_result, solved_equilibrium):
        gap = np.max(
            np.abs(sl_result.mean_field.mean_q - solved_equilibrium.mean_field.mean_q)
        )
        assert gap < 5.0, f"backends disagree on mean q by {gap:.2f} MB"

    def test_price_path_agrees_with_fd(self, sl_result, solved_equilibrium):
        gap = np.max(
            np.abs(sl_result.mean_field.price - solved_equilibrium.mean_field.price)
        )
        assert gap < 0.03, f"backends disagree on price by {gap:.4f}"

    def test_total_utility_agrees_with_fd(self, sl_result, solved_equilibrium):
        sl_total = sl_result.accumulated_utility()["total"]
        fd_total = solved_equilibrium.accumulated_utility()["total"]
        assert sl_total == pytest.approx(fd_total, rel=0.15)

    def test_rejects_bad_bootstrap(self):
        with pytest.raises(ValueError, match="policy level"):
            SLBestResponseIterator(MFGCPConfig.fast()).solve(
                initial_policy_level=1.5
            )
