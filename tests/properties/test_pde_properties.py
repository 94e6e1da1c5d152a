"""Property-based tests for the PDE solvers (both backends)."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.best_response import build_grid
from repro.core.fpk import BatchedFPKSolver, initial_density
from repro.core.hjb import BatchedHJBSolver
from repro.core.mean_field import MeanFieldEstimator
from repro.core.parameters import MFGCPConfig
from repro.core.semilagrangian import SLFPKSolver

finite = dict(allow_nan=False, allow_infinity=False)


def tiny_config():
    """A very coarse config so property examples stay cheap."""
    return replace(
        MFGCPConfig.fast(), n_time_steps=20, n_h=7, n_q=15, max_iterations=5
    )


_CFG = tiny_config()
_GRID = build_grid(_CFG)
_FPK = BatchedFPKSolver([_CFG], _GRID)
_SL_FPK = SLFPKSolver(_CFG, _GRID)
_HJB = BatchedHJBSolver([_CFG], _GRID)
_MF = MeanFieldEstimator(_CFG, _GRID).constant_guess()


def fd_path(policy, density0):
    """The finite-difference density path under one ``(n_t + 1, n_h, n_q)`` table."""
    return _FPK.solve(policy[None], density0[None])[0]


def hjb_from(terminal):
    """The value path and policy table from an ``(n_h, n_q)`` terminal sheet."""
    values, policies = _HJB.solve([_MF], terminal_value=terminal[None])
    return values[0], policies[0]


class TestFPKProperties:
    @given(
        level=st.floats(0.0, 1.0, **finite),
        mean_frac=st.floats(0.2, 0.8, **finite),
        std_frac=st.floats(0.03, 0.2, **finite),
    )
    @settings(max_examples=25, deadline=None)
    def test_mass_and_positivity_any_constant_policy(self, level, mean_frac, std_frac):
        density0 = initial_density(
            _GRID, _CFG,
            mean_q=mean_frac * _CFG.content_size,
            std_q=std_frac * _CFG.content_size,
        )
        path = fd_path(np.full(_GRID.path_shape[1:], level), density0)
        assert np.all(path >= 0.0)
        assert _GRID.integrate(path[-1][None])[0] == pytest.approx(1.0, abs=1e-9)

    @given(level=st.floats(0.0, 1.0, **finite), seed=st.integers(0, 1000))
    @settings(max_examples=15, deadline=None)
    def test_backends_agree_on_mean_state(self, level, seed):
        rng = np.random.default_rng(seed)
        # A random but smooth-in-time policy path shared by both solvers.
        wobble = 0.2 * rng.uniform(-1, 1)
        policy = np.clip(
            level + wobble * np.sin(np.linspace(0, 3, _GRID.n_t + 1)), 0.0, 1.0
        )[:, None, None] * np.ones(_GRID.shape[1:])
        density0 = initial_density(_GRID, _CFG)
        fd = fd_path(policy, density0)
        sl_path = _SL_FPK.solve(policy, density0)
        fd_mean = _GRID.integrate(fd[-1] * _GRID.q_mesh())[0]
        sl_mean = _GRID.integrate(sl_path[-1] * _GRID.q_mesh())[0]
        assert fd_mean == pytest.approx(sl_mean, abs=6.0)

    @given(level=st.floats(0.0, 1.0, **finite))
    @settings(max_examples=15, deadline=None)
    def test_more_caching_lowers_mean_state(self, level):
        density0 = initial_density(_GRID, _CFG)
        lo = fd_path(np.full(_GRID.path_shape[1:], 0.0), density0)
        hi = fd_path(np.full(_GRID.path_shape[1:], max(level, 0.3)), density0)
        mean_lo = _GRID.integrate(lo[-1] * _GRID.q_mesh())[0]
        mean_hi = _GRID.integrate(hi[-1] * _GRID.q_mesh())[0]
        assert mean_hi <= mean_lo + 1e-6


class TestHJBProperties:
    @given(offset=st.floats(0.0, 50.0, **finite))
    @settings(max_examples=15, deadline=None)
    def test_comparison_principle_terminal_shift(self, offset):
        # V solved from terminal condition G + c dominates V from G
        # pointwise (monotone scheme + constant shift invariance).
        base, _ = hjb_from(np.zeros(_GRID.shape[1:]))
        shifted, _ = hjb_from(np.full(_GRID.shape[1:], offset))
        assert np.all(shifted[0] >= base[0] - 1e-8)
        # For a constant shift the gap is exactly the shift.
        assert np.allclose(shifted[0] - base[0], offset, atol=1e-6)

    @given(
        lo=st.floats(0.0, 40.0, **finite),
        hi=st.floats(0.0, 40.0, **finite),
        seed=st.integers(0, 100),
    )
    @settings(max_examples=15, deadline=None)
    def test_comparison_principle_random_terminals(self, lo, hi, seed):
        rng = np.random.default_rng(seed)
        g1 = rng.uniform(0.0, min(lo, hi) + 1e-6, _GRID.shape[1:])
        g2 = g1 + rng.uniform(0.0, abs(hi - lo) + 1e-6, _GRID.shape[1:])
        v1 = hjb_from(g1)[0][0]
        v2 = hjb_from(g2)[0][0]
        assert np.all(v2 >= v1 - 1e-8)

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=10, deadline=None)
    def test_policy_always_feasible(self, seed):
        rng = np.random.default_rng(seed)
        terminal = rng.uniform(0.0, 30.0, _GRID.shape[1:])
        _, table = hjb_from(terminal)
        assert np.all(table >= 0.0)
        assert np.all(table <= 1.0)
