"""Equilibrium result containers and convergence diagnostics.

:class:`EquilibriumResult` bundles everything the iterative scheme
produces for one content — value function, policy, mean-field density
path, market paths, iteration history — and derives the population
statistics the evaluation section plots (mean remaining space, utility
decomposition over time, accumulated totals).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro.core.grid import BatchGrid

# numpy 2.0 renamed trapz to trapezoid; support both.
_trapezoid = getattr(np, "trapezoid", None) or np.trapz
from repro.core.mean_field import MeanFieldPath
from repro.core.parameters import MFGCPConfig
from repro.core.policy import CachingPolicy


@dataclass(frozen=True)
class IterationRecord:
    """Per-iteration diagnostics of the Alg. 2 fixed-point loop."""

    iteration: int
    policy_change: float
    mean_field_change: float
    mean_price: float
    mean_control: float

    def __post_init__(self) -> None:
        if self.iteration < 0:
            raise ValueError(f"iteration must be non-negative, got {self.iteration}")
        if self.policy_change < 0:
            raise ValueError("policy_change must be non-negative")


@dataclass(frozen=True)
class ConvergenceReport:
    """Summary of the fixed-point iteration (Theorem 2 diagnostics)."""

    converged: bool
    n_iterations: int
    final_policy_change: float
    history: List[IterationRecord] = field(default_factory=list)

    @property
    def contraction_ratios(self) -> np.ndarray:
        """Successive ratios of policy changes.

        Theorem 2 argues each iteration is a contraction mapping; the
        ratios should settle below 1 when the argument holds for the
        configured parameters.
        """
        changes = np.array([r.policy_change for r in self.history])
        if changes.size < 2:
            return np.array([])
        prev = changes[:-1]
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(prev > 0, changes[1:] / prev, np.nan)
        return ratios

    def describe(self) -> str:
        """One-line human-readable summary."""
        status = "converged" if self.converged else "NOT converged"
        return (
            f"{status} after {self.n_iterations} iterations "
            f"(final policy change {self.final_policy_change:.3e})"
        )


@dataclass(frozen=True)
class EquilibriumResult:
    """The solved mean-field equilibrium for one content.

    Attributes
    ----------
    config:
        The configuration used.
    grid:
        The content's one-lane grid.
    value:
        ``V(t, h, q)`` path from the final HJB sweep.
    policy:
        The equilibrium caching policy ``x*(t, h, q)``.
    density:
        The equilibrium mean-field density path ``lambda(t, h, q)``.
    mean_field:
        Market paths (price, peer state, sharing benefit, ...).
    report:
        Fixed-point convergence diagnostics.
    """

    config: MFGCPConfig
    grid: BatchGrid
    value: np.ndarray
    policy: CachingPolicy
    density: np.ndarray
    mean_field: MeanFieldPath
    report: ConvergenceReport

    # ------------------------------------------------------------------
    # Distribution statistics (Figs. 4, 6, 7)
    # ------------------------------------------------------------------
    def marginal_q_path(self) -> np.ndarray:
        """Marginal density over ``q`` at every reporting time.

        Shape ``(n_t + 1, n_q)`` — the Fig. 4 surface / Fig. 6 heat map.
        """
        return np.stack([self.grid.marginal_q(sheet) for sheet in self.density])

    def mean_remaining_space(self) -> np.ndarray:
        """Population-average remaining space per reporting time."""
        return self.mean_field.mean_q.copy()

    def density_at(self, t: float) -> np.ndarray:
        """The density sheet nearest to time ``t``."""
        return self.density[self.grid.nearest_time_index(t)].copy()

    # ------------------------------------------------------------------
    # Utility decomposition (Figs. 8-14)
    # ------------------------------------------------------------------
    def population_utility_path(self) -> Dict[str, np.ndarray]:
        """Population-average Eq. (10) terms at every reporting time.

        Returns a dict with keys ``trading_income``, ``sharing_benefit``,
        ``placement_cost``, ``staleness_cost``, ``sharing_cost`` and
        ``total``, each of shape ``(n_t + 1,)``.
        """
        cfg = self.config
        utility = cfg.utility_model()
        rate_of_h = np.asarray(
            cfg.channel.rate_of_fading(self.grid.h), dtype=float
        )[:, None]
        q_mesh = self.grid.q_mesh()[0]
        weights = self.grid.cell_weights()[0]

        names = (
            "trading_income",
            "sharing_benefit",
            "placement_cost",
            "staleness_cost",
            "sharing_cost",
        )
        paths: Dict[str, np.ndarray] = {
            name: np.empty(self.grid.n_t + 1) for name in names
        }
        paths["total"] = np.empty(self.grid.n_t + 1)
        for ti in range(self.grid.n_t + 1):
            ctx = self.mean_field.context(ti)
            breakdown = utility.evaluate(
                self.policy.table[ti], q_mesh, rate_of_h, ctx
            )
            dens = self.density[ti]
            for name in names:
                paths[name][ti] = float(
                    (getattr(breakdown, name) * dens * weights).sum()
                )
            paths["total"][ti] = float((breakdown.total * dens * weights).sum())
        return paths

    def accumulated_utility(self) -> Dict[str, float]:
        """Time-integrated Eq. (10) terms over the horizon.

        These are the paper's "accumulative utility / trading income"
        of Fig. 12 and the bar heights of Fig. 14.
        """
        paths = self.population_utility_path()
        return {
            name: float(_trapezoid(series, self.grid.t))
            for name, series in paths.items()
        }

    def state_utility_path(self, q0: float, h0: float = None) -> np.ndarray:
        """Accumulated optimal utility from a specific starting state.

        ``V(0, h0, q0)`` measures the total; this method returns the
        *remaining* value ``V(t, h0, q_t)`` along the deterministic
        mean drift from ``q0`` — the Fig. 9 convergence curves.
        """
        h0 = self.config.channel.mean if h0 is None else float(h0)
        q = float(q0)
        series = np.empty(self.grid.n_t + 1)
        for ti, t in enumerate(self.grid.t):
            ih, iq = self.grid.locate(h0, q)
            series[ti] = float(self.value[ti, ih, iq])
            if ti < self.grid.n_t:
                x = self.policy(t, h0, q)
                drift = float(self.config.drift_rate(np.array(x)))
                q = float(
                    np.clip(q + drift * self.grid.dt, 0.0, self.config.content_size)
                )
        return series

    def state_utility_rate_path(self, q0: float, h0: float = None) -> np.ndarray:
        """Instantaneous Eq. (10) utility along the mean path from ``q0``.

        Follows the deterministic mean drift under the equilibrium
        policy from the initial state and evaluates the running utility
        at each reporting time — the Fig. 9 "utility of an EDP" curves.
        """
        cfg = self.config
        h0 = cfg.channel.mean if h0 is None else float(h0)
        utility = cfg.utility_model()
        rate = float(cfg.channel.rate_of_fading(np.array(h0)))
        q = float(q0)
        series = np.empty(self.grid.n_t + 1)
        for ti, t in enumerate(self.grid.t):
            x = self.policy(t, h0, q)
            ctx = self.mean_field.context(ti)
            series[ti] = float(utility.total(x, q, rate, ctx))
            if ti < self.grid.n_t:
                drift = float(cfg.drift_rate(np.array(x)))
                q = float(np.clip(q + drift * self.grid.dt, 0.0, cfg.content_size))
        return series

    def mean_state_trajectory(self, q0: float, h0: float = None) -> np.ndarray:
        """Deterministic mean trajectory of ``q`` from ``q0`` under x*."""
        h0 = self.config.channel.mean if h0 is None else float(h0)
        q = float(q0)
        series = np.empty(self.grid.n_t + 1)
        series[0] = q
        for ti, t in enumerate(self.grid.t[:-1]):
            x = self.policy(t, h0, q)
            drift = float(self.config.drift_rate(np.array(x)))
            q = float(np.clip(q + drift * self.grid.dt, 0.0, self.config.content_size))
            series[ti + 1] = q
        return series
