"""Numerical verification of the paper's theoretical conditions.

Section IV-D proves three results:

* **Lemma 1** — the HJB equation has a unique value function, provided
  (i) the control space is a compact subset of R and (ii) the state
  drift and the utility are bounded and Lipschitz continuous.
* **Lemma 2** — the FPK equation has a unique weak solution, provided
  the parabolic coefficients satisfy ``a_ij, b_i, c ∈ L∞``, ``d ∈ L²``
  and ``a_ij = a_ji`` (Eq. (25)).
* **Theorem 2** — the coupled fixed-point iteration is a contraction
  mapping with a unique fixed point (the MFG Nash equilibrium).

The lemmas' hypotheses are *checkable numbers* for a concrete
configuration: this module evaluates them on the state grid and
returns structured reports, so a user can confirm the equilibrium
machinery is operating inside the regime the proofs cover.  The
test-suite and the convergence diagnostics assert these reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.analysis.convergence import fixed_point_rate
from repro.core.best_response import build_grid
from repro.core.equilibrium import EquilibriumResult
from repro.core.grid import BatchGrid
from repro.core.mean_field import MeanFieldEstimator, MeanFieldPath
from repro.core.operators import central_gradient
from repro.core.parameters import MFGCPConfig


@dataclass(frozen=True)
class Lemma1Report:
    """Boundedness / Lipschitz diagnostics for the HJB hypotheses.

    Attributes
    ----------
    control_space_compact:
        Condition (i): always true — the caching rate lives in [0, 1].
    drift_bound:
        ``sup |DF(t, S, x)|`` over the grid and feasible controls.
    drift_lipschitz:
        The Lipschitz constant of the drift; Eq. (22) shows it is
        ``varsigma_h / 2`` exactly (the q drift does not depend on the
        state).
    utility_bound:
        ``sup |U|`` over the grid at feasible controls.
    utility_gradient_bound:
        ``sup |d_q U|`` over the grid (Eq. (24) is the analytic bound;
        this is its numerical evaluation).
    satisfied:
        All quantities finite — the hypotheses of Lemma 1 hold.
    """

    control_space_compact: bool
    drift_bound: float
    drift_lipschitz: float
    utility_bound: float
    utility_gradient_bound: float

    @property
    def satisfied(self) -> bool:
        values = (
            self.drift_bound,
            self.drift_lipschitz,
            self.utility_bound,
            self.utility_gradient_bound,
        )
        return self.control_space_compact and all(np.isfinite(values))


@dataclass(frozen=True)
class Lemma2Report:
    """Parabolic-coefficient diagnostics for the FPK hypotheses.

    Eq. (25): the second-order coefficient is
    ``a_11 = rho_h^2 / 2 + rho_q^2 / 2`` with all off-diagonal terms
    zero, ``c = d = 0``, and the first-order coefficients are the
    (bounded, by Lemma 1) drifts.
    """

    a_diagonal: float
    a_symmetric: bool
    a_inf_norm: float
    b_inf_norm: float
    c_inf_norm: float
    d_l2_norm: float

    @property
    def satisfied(self) -> bool:
        return (
            self.a_symmetric
            and np.isfinite(self.a_inf_norm)
            and np.isfinite(self.b_inf_norm)
            and self.c_inf_norm == 0.0
            and self.d_l2_norm == 0.0
        )


@dataclass(frozen=True)
class Theorem2Report:
    """Contraction diagnostics for the coupled fixed-point iteration."""

    converged: bool
    n_iterations: int
    empirical_contraction_rate: float
    final_policy_change: float

    @property
    def contraction_observed(self) -> bool:
        """Whether the iteration behaved as a contraction (rate < 1)."""
        return self.converged and (
            np.isnan(self.empirical_contraction_rate)
            or self.empirical_contraction_rate < 1.0
        )


def _grid_and_mean_field(
    config: MFGCPConfig,
    grid: Optional[BatchGrid],
    mean_field: Optional[MeanFieldPath],
) -> Tuple[BatchGrid, MeanFieldPath]:
    grid = grid if grid is not None else build_grid(config)
    if mean_field is None:
        mean_field = MeanFieldEstimator(config, grid).constant_guess()
    return grid, mean_field


def verify_lemma1(
    config: MFGCPConfig,
    grid: Optional[BatchGrid] = None,
    mean_field: Optional[MeanFieldPath] = None,
    n_controls: int = 5,
) -> Lemma1Report:
    """Evaluate the Lemma 1 hypotheses on a content's one-lane grid.

    Parameters
    ----------
    mean_field:
        The market paths the utility is evaluated against; defaults to
        the bootstrap estimate (any bounded path gives the same
        conclusion — the bounds are uniform).
    n_controls:
        Number of feasible control levels sampled in the suprema.
    """
    if n_controls < 2:
        raise ValueError(f"need at least 2 control samples, got {n_controls}")
    grid, mean_field = _grid_and_mean_field(config, grid, mean_field)

    # Drift bounds: DF1 over the h grid, DF2 over feasible controls.
    ch = config.channel
    df1 = 0.5 * ch.reversion * np.abs(ch.mean - grid.h)
    controls = np.linspace(0.0, 1.0, n_controls)
    df2 = np.abs(config.drift_rate(controls))
    drift_bound = float(np.sqrt(df1.max() ** 2 + df2.max() ** 2))
    drift_lipschitz = 0.5 * ch.reversion  # Eq. (22)

    # Utility bound and gradient bound over grid x controls x time.
    utility = config.utility_model()
    rate_of_h = np.asarray(ch.rate_of_fading(grid.h), dtype=float)[:, None]
    q_mesh = grid.q_mesh()[0]
    u_max = 0.0
    du_max = 0.0
    time_samples = (0, grid.n_t // 2, grid.n_t)
    for ti in time_samples:
        ctx = mean_field.context(ti)
        for x in controls:
            u = utility.total(x, q_mesh, rate_of_h, ctx)
            u_max = max(u_max, float(np.abs(u).max()))
            du = central_gradient(np.asarray(u, dtype=float), grid.dq[0], axis=1)
            du_max = max(du_max, float(np.abs(du).max()))

    return Lemma1Report(
        control_space_compact=True,
        drift_bound=drift_bound,
        drift_lipschitz=drift_lipschitz,
        utility_bound=u_max,
        utility_gradient_bound=du_max,
    )


def verify_lemma2(
    config: MFGCPConfig,
    grid: Optional[BatchGrid] = None,
) -> Lemma2Report:
    """Evaluate the Eq. (25) parabolic-coefficient conditions."""
    grid = grid if grid is not None else build_grid(config)
    a_diag = 0.5 * config.channel.volatility**2 + 0.5 * config.caching.noise**2
    lemma1 = verify_lemma1(config, grid)
    return Lemma2Report(
        a_diagonal=float(a_diag),
        a_symmetric=True,  # the off-diagonal terms are identically zero
        a_inf_norm=float(a_diag),
        b_inf_norm=lemma1.drift_bound,
        c_inf_norm=0.0,
        d_l2_norm=0.0,
    )


def verify_theorem2(result: EquilibriumResult) -> Theorem2Report:
    """Contraction diagnostics for a solved equilibrium.

    Theorem 2 argues each Alg. 2 iteration is a contraction mapping;
    the empirical geometric rate of the recorded policy changes is the
    numerical counterpart.
    """
    report = result.report
    return Theorem2Report(
        converged=report.converged,
        n_iterations=report.n_iterations,
        empirical_contraction_rate=fixed_point_rate(report),
        final_policy_change=report.final_policy_change,
    )
