"""Grid-refinement oracle: the equilibrium converges at the scheme's order.

Each axis of the default 100 x 15 x 45 grid is refined on its own, the
other two held at their defaults, and the full Algorithm 2 solve is
repeated on every level.  Halving a step ``N -> 2N -> 4N`` gives the
observed order of a summary ``f``

    p = log2( |f(N) - f(2N)| / |f(2N) - f(4N)| ),

which depends on nothing but the discretisation, so no other copy of
the solver is needed to judge it:

* time: explicit Euler and one policy sheet per reporting interval are
  first order, so ``p`` of both summaries sits near 1 (measured
  0.95-1.08 on ``n_t`` 50 -> 400);
* cache axis: the central diffusion and the Godunov Hamiltonian make
  the total utility second order in ``dq`` (measured 1.96 and 2.42 on
  ``n_q`` 9 -> 65, 8 -> 64 intervals);
* fading axis: at the default volatility the ``h`` dependence is weak,
  so refining ``n_h`` 5 -> 33 moves the summaries by little (measured
  at most 0.0112 MB on ``mean_q[-1]`` and 0.045 on utility per
  refinement); an inconsistent ``h`` stencil moves them by more.

The summaries are the final mean cache state ``mean_q[-1]`` and the
accumulated total utility of the generic EDP.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.best_response import BestResponseIterator
from repro.core.parameters import MFGCPConfig

TIME_LADDER = (50, 100, 200, 400)
Q_LADDER = (9, 17, 33, 65)  # 8, 16, 32, 64 intervals
H_LADDER = (5, 9, 17, 33)

TIME_ORDER_BAND = (0.85, 1.2)
Q_ORDER_BAND = (1.6, 2.8)
# About twice the largest change measured per refinement of n_h.
H_MEAN_Q_TOLERANCE = 0.025  # MB
H_UTILITY_TOLERANCE = 0.09


def summaries(**grid):
    """``(mean_q[-1], total utility)`` of the default config on a grid."""
    result = BestResponseIterator(replace(MFGCPConfig(), **grid)).solve()
    assert result.report.converged, grid
    return result.mean_field.mean_q[-1], result.accumulated_utility()["total"]


def observed_orders(values):
    """``p`` of every three consecutive levels of a halving ladder."""
    values = np.asarray(values)
    steps = np.abs(np.diff(values))
    return np.log2(steps[:-1] / steps[1:])


@pytest.fixture(scope="module")
def time_ladder():
    return np.array([summaries(n_time_steps=n) for n in TIME_LADDER])


@pytest.fixture(scope="module")
def q_ladder():
    return np.array([summaries(n_q=n) for n in Q_LADDER])


@pytest.fixture(scope="module")
def h_ladder():
    return np.array([summaries(n_h=n) for n in H_LADDER])


@pytest.mark.parametrize("summary", [0, 1], ids=["mean_q", "utility"])
def test_time_refinement_is_first_order(time_ladder, summary):
    orders = observed_orders(time_ladder[:, summary])
    low, high = TIME_ORDER_BAND
    assert np.all((orders > low) & (orders < high)), orders


def test_cache_axis_refinement_is_second_order_in_utility(q_ladder):
    orders = observed_orders(q_ladder[:, 1])
    low, high = Q_ORDER_BAND
    assert np.all((orders > low) & (orders < high)), orders


def test_fading_axis_refinement_moves_little(h_ladder):
    mean_q_moves = np.abs(np.diff(h_ladder[:, 0]))
    utility_moves = np.abs(np.diff(h_ladder[:, 1]))
    assert np.all(mean_q_moves < H_MEAN_Q_TOLERANCE), mean_q_moves
    assert np.all(utility_moves < H_UTILITY_TOLERANCE), utility_moves
