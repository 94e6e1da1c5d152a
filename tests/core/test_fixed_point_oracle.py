"""Tight fixed-point oracle for the shipped Algorithm 2 solve.

Theorem 2 makes the best-response map a contraction with one fixed
point, so any convergent iteration reaches the same equilibrium and a
shipped solve differs from it only by its stopping error.  The
reference below is the plain damped policy iteration
``x <- (1 - beta) x + beta BR(x)`` at ``beta = 0.5``, run to
``tolerance = 1e-6`` with the public batched HJB/FPK sweeps and the
mean-field estimator.  It never calls the shipped iterator, so the
shipped solve is judged by its *accuracy* against that fixed point,
not by sameness with another copy of itself.

The reference's own equilibrium summary (total utility and final peer
state) is pinned too: it does not depend on the iteration used to
reach it, only on the HJB/FPK discretisation and the estimator.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.best_response import BestResponseIterator, build_grid
from repro.core.equilibrium import ConvergenceReport, EquilibriumResult
from repro.core.fpk import BatchedFPKSolver, batched_initial_density
from repro.core.hjb import BatchedHJBSolver
from repro.core.mean_field import MeanFieldEstimator
from repro.core.parameters import MFGCPConfig
from repro.core.policy import CachingPolicy

TIGHT_TOLERANCE = 1e-6
REFERENCE_DAMPING = 0.5


def family():
    """Four default-grid configs with drawn demand, size and prices.

    ``eta1`` and ``w5`` are economic parameters, which lanes of one
    batch must share, so every member is solved as its own lane.
    """
    draws = np.random.default_rng(20240).uniform(
        low=(0.1, 60.0, 1e-3, 70.0), high=(0.9, 140.0, 4e-3, 215.0), size=(4, 4)
    )
    return [
        replace(
            MFGCPConfig(),
            popularity=round(float(pop), 3),
            content_size=round(float(size), 1),
            eta1=round(float(eta1), 6),
            w5=round(float(w5), 1),
        )
        for pop, size, eta1, w5 in draws
    ]


def tight_reference(config):
    """Plain damped policy iteration to ``TIGHT_TOLERANCE`` on one lane."""
    grid = build_grid(config)
    hjb = BatchedHJBSolver([config], grid)
    fpk = BatchedFPKSolver([config], grid)
    estimator = MeanFieldEstimator(config, grid)
    density0 = batched_initial_density(grid, [config])

    def refresh(policy):
        density = fpk.solve(policy, density0)
        return density, [estimator.estimate(density[0], policy[0])]

    policy = np.full(grid.path_shape, 0.5)
    density, fields = refresh(policy)
    for iteration in range(1, 201):
        value, best = hjb.solve(fields)
        change = float(np.max(np.abs(best - policy)))
        policy = (1.0 - REFERENCE_DAMPING) * policy + REFERENCE_DAMPING * best
        density, fields = refresh(policy)
        if change < TIGHT_TOLERANCE:
            break
    assert change < TIGHT_TOLERANCE, f"reference stalled at {change:.2e}"
    report = ConvergenceReport(
        converged=True, n_iterations=iteration, final_policy_change=change
    )
    return EquilibriumResult(
        config=config,
        grid=grid,
        value=value[0],
        policy=CachingPolicy(grid=grid, table=policy[0]),
        density=density[0],
        mean_field=fields[0],
        report=report,
    )


# Per member: (reference total utility, reference final mean peer state),
# the tight fixed point of the discretised game.
REFERENCE_SUMMARY = [
    (105.09994574674299, 66.45565188189127),
    (92.69202309513994, 41.75321559784715),
    (66.97024556577588, 39.35656941108554),
    (66.97679987659865, 41.255267873926734),
]
# Per member: the largest admissible max policy distance of the shipped
# solve to the reference.  These are the distances of the Anderson-mixed
# iteration, rounded up: a change to the iteration must land at least as
# close to the fixed point.  Damping the policy table (beta = 0.5,
# tolerance 1e-3) landed 3.0e-4 to 4.0e-4 away.
POLICY_BOUNDS = [6.2e-7, 2.7e-5, 3.5e-7, 2.8e-6]
# The mixed iteration's relative utility distances are 2e-8 to 3.5e-6;
# damping the policy table reached 2.2e-4.
UTILITY_BOUND = 1e-5


@pytest.fixture(scope="module")
def solves():
    configs = family()
    return (
        [tight_reference(cfg) for cfg in configs],
        [BestResponseIterator(cfg).solve() for cfg in configs],
    )


def total_utility(eq):
    return eq.accumulated_utility()["total"]


def test_shipped_solves_converge(solves):
    _, shipped = solves
    assert all(eq.report.converged for eq in shipped)


@pytest.mark.parametrize("member", range(4))
def test_reference_is_pinned(solves, member):
    reference = solves[0][member]
    utility, final_q = REFERENCE_SUMMARY[member]
    assert total_utility(reference) == pytest.approx(utility, rel=1e-5)
    assert reference.mean_field.mean_q[-1] == pytest.approx(final_q, rel=1e-5)


@pytest.mark.parametrize("member", range(4))
def test_shipped_solve_is_close_to_the_fixed_point(solves, member):
    reference, shipped = solves[0][member], solves[1][member]
    policy_distance = float(
        np.max(np.abs(shipped.policy.table - reference.policy.table))
    )
    utility_distance = abs(total_utility(shipped) / total_utility(reference) - 1.0)
    assert policy_distance <= POLICY_BOUNDS[member]
    assert utility_distance <= UTILITY_BOUND
