"""Tests for the semi-Lagrangian solver backend."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.best_response import BestResponseIterator, build_grid
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
from test_fixed_point_oracle import family


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
    """The semi-Lagrangian and finite-difference equilibria agree.

    The two backends share no stencil, so their gap is a discretisation
    gap, first order in time for both: it cannot go to zero.  Each of
    the four drawn members of the fixed-point oracle's ``family()`` is
    solved on the fast 40 x 9 x 25 grid (the default grid costs the
    semi-Lagrangian solve about 10 s per member) by both backends.  The
    bounds are 1.5 times each member's measured gap, rounded up.
    """

    # Per member: max |mean_q| gap (MB), max |price| gap, and relative
    # total-utility gap, as measured: (2.021, 0.01494, 0.0229),
    # (2.589, 0.01748, 0.0591), (0.541, 0.00758, 0.0059),
    # (0.513, 0.00820, 0.0044).
    MEAN_Q_BOUNDS = (3.1, 3.9, 0.82, 0.77)
    PRICE_BOUNDS = (0.023, 0.027, 0.012, 0.013)
    UTILITY_BOUNDS = (0.035, 0.089, 0.009, 0.0066)

    @pytest.fixture(scope="class")
    def solves(self):
        members = [
            replace(cfg, n_time_steps=40, n_h=9, n_q=25) for cfg in family()
        ]
        return [
            (SLBestResponseIterator(cfg).solve(), BestResponseIterator(cfg).solve())
            for cfg in members
        ]

    def test_sl_converges(self, solves):
        assert all(sl.report.converged for sl, _ in solves)

    def test_mean_state_path_agrees_with_fd(self, solves):
        for member, (sl, fd) in enumerate(solves):
            gap = np.max(np.abs(sl.mean_field.mean_q - fd.mean_field.mean_q))
            assert gap < self.MEAN_Q_BOUNDS[member], (
                f"member {member}: backends disagree on mean q by {gap:.3f} MB"
            )

    def test_price_path_agrees_with_fd(self, solves):
        for member, (sl, fd) in enumerate(solves):
            gap = np.max(np.abs(sl.mean_field.price - fd.mean_field.price))
            assert gap < self.PRICE_BOUNDS[member], (
                f"member {member}: backends disagree on price by {gap:.5f}"
            )

    def test_total_utility_agrees_with_fd(self, solves):
        for member, (sl, fd) in enumerate(solves):
            sl_total = sl.accumulated_utility()["total"]
            fd_total = fd.accumulated_utility()["total"]
            gap = abs(sl_total / fd_total - 1.0)
            assert gap < self.UTILITY_BOUNDS[member], (
                f"member {member}: total utilities differ by {gap:.2%}"
            )

    def test_rejects_bad_bootstrap(self):
        with pytest.raises(ValueError, match="policy level"):
            SLBestResponseIterator(MFGCPConfig.fast()).solve(
                initial_policy_level=1.5
            )
