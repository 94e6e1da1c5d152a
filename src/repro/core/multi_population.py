"""Multi-population mean-field game: heterogeneous EDP classes.

The paper's system model names heterogeneous EDP hardware explicitly —
"small-cell/femtocell base stations and smartphones" — but its
mean-field reduction assumes exchangeable (symmetric) EDPs.  The
standard extension covers finitely many *classes*: within a class EDPs
are exchangeable, so each class ``c`` gets its own generic player
(HJB) and density (FPK), while the market quantities couple them:

* the Eq. (17) trading price responds to the classes' combined supply,

      p(t) = p_hat - eta1 Q * sum_c  w_c E_{lambda_c}[x_c*],

  with ``w_c`` the class population shares;
* the representative peer state and sharing statistics are the
  population-weighted mixtures of the class densities.

:class:`MultiPopulationIterator` runs the damped best-response loop
jointly: every iteration solves one HJB per class against the shared
market, then one FPK per class, then re-mixes the market.  With a
single class it targets the same equilibrium as
:class:`repro.core.best_response.BestResponseIterator` by a different
iteration — this loop damps the policy table, while Algorithm 2
Anderson-mixes the mean-field path — so the two agree to within the
convergence tolerance, not bit for bit, and take different numbers of
iterations.

Class configurations may differ in anything that does *not* change the
market definition itself: radio parameters (base stations see better
channels than phones), cost coefficients (``w4``, ``w5``, ``eta2``),
caching dynamics, initial distributions.  Market parameters
(``p_hat``, ``eta1``, ``sharing_price``, ``alpha``, ``content_size``,
horizon and demand) must agree across classes — a shared market needs
a shared definition — and are validated at construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.core.equilibrium import ConvergenceReport, EquilibriumResult, IterationRecord
from repro.core.fpk import BatchedFPKSolver, initial_density
from repro.core.grid import BatchGrid
from repro.core.hjb import BatchedHJBSolver
from repro.core.mean_field import MeanFieldEstimator, MeanFieldPath
from repro.core.parameters import MFGCPConfig
from repro.core.policy import CachingPolicy

_SHARED_MARKET_FIELDS = (
    "horizon",
    "n_time_steps",
    "content_size",
    "p_hat",
    "eta1",
    "sharing_price",
    "alpha",
    "n_edps",
    "n_requests",
    "demand_decay",
)


@dataclass(frozen=True)
class MultiPopulationResult:
    """Per-class equilibria plus the shared market paths."""

    class_results: Tuple[EquilibriumResult, ...]
    weights: np.ndarray
    market: MeanFieldPath
    report: ConvergenceReport

    @property
    def n_classes(self) -> int:
        return len(self.class_results)

    def class_utility(self, c: int) -> float:
        """Accumulated utility of class ``c``'s generic player."""
        return self.class_results[c].accumulated_utility()["total"]

    def population_utility(self) -> float:
        """Population-weighted mean accumulated utility."""
        return float(
            sum(
                w * self.class_utility(c)
                for c, w in enumerate(self.weights)
            )
        )


class MultiPopulationIterator:
    """Damped joint best response over EDP classes.

    Parameters
    ----------
    configs:
        One configuration per class; market-defining fields must agree
        (see the module docstring).
    weights:
        Population shares per class; must be positive and sum to 1.
    """

    def __init__(
        self,
        configs: Sequence[MFGCPConfig],
        weights: Sequence[float],
    ) -> None:
        if not configs:
            raise ValueError("need at least one class configuration")
        self.weights = np.asarray(weights, dtype=float)
        if self.weights.shape != (len(configs),):
            raise ValueError(
                f"{len(configs)} classes but {self.weights.shape} weights"
            )
        if np.any(self.weights <= 0) or not np.isclose(self.weights.sum(), 1.0):
            raise ValueError(
                f"weights must be positive and sum to 1, got {self.weights}"
            )
        base = configs[0]
        for c, cfg in enumerate(configs[1:], start=1):
            for name in _SHARED_MARKET_FIELDS:
                if getattr(cfg, name) != getattr(base, name):
                    raise ValueError(
                        f"class {c} disagrees with class 0 on shared market "
                        f"field {name!r}: {getattr(cfg, name)} vs "
                        f"{getattr(base, name)}"
                    )
        self.configs = list(configs)
        # A single grid shared by all classes: h bounds must cover every
        # class's OU support.
        los, his = [], []
        for cfg in self.configs:
            lo, hi = cfg.ou_process().stationary_interval()
            los.append(max(lo, 1e-6))
            his.append(hi)
        self.grid = BatchGrid.regular(
            horizon=base.horizon,
            n_time_steps=base.n_time_steps,
            h_bounds=(min(los), max(max(his), min(los) + 0.1)),
            n_h=base.n_h,
            q_max=base.content_size,
            n_q=base.n_q,
        )
        # One one-lane sweep per class: classes may differ in channel
        # and caching parameters, which one batch must share.
        self.hjb = [BatchedHJBSolver([cfg], self.grid) for cfg in self.configs]
        self.fpk = [BatchedFPKSolver([cfg], self.grid) for cfg in self.configs]
        self.estimators = [
            MeanFieldEstimator(cfg, self.grid) for cfg in self.configs
        ]

    # ------------------------------------------------------------------
    # Market mixing
    # ------------------------------------------------------------------
    def _mix_market(self, class_paths: List[MeanFieldPath]) -> MeanFieldPath:
        """Population-weighted mixture of the class mean fields.

        Mixture rules: the mean control, mean state, transfer size and
        sharer statistics are weighted averages (they are integrals
        against the mixture density); the price is re-derived from the
        mixed control via Eq. (17); the sharing benefit is recomputed
        from the mixed statistics.
        """
        from repro.economics.sharing import mean_field_sharing_benefit

        base = self.configs[0]
        w = self.weights
        mean_control = sum(w[c] * p.mean_control for c, p in enumerate(class_paths))
        mean_q = sum(w[c] * p.mean_q for c, p in enumerate(class_paths))
        mean_transfer = sum(
            w[c] * p.mean_transfer for c, p in enumerate(class_paths)
        )
        qualified = np.clip(
            sum(w[c] * p.qualified_fraction for c, p in enumerate(class_paths)),
            0.0,
            1.0,
        )
        case3 = (1.0 - qualified) ** 2
        price = base.pricing_model().mean_field(base.content_size, mean_control)
        if base.include_sharing:
            benefit = mean_field_sharing_benefit(
                base.sharing_price,
                mean_transfer,
                base.n_edps,
                case3 * base.n_edps,
                qualified * base.n_edps,
            )
        else:
            benefit = np.zeros_like(mean_q)
        return MeanFieldPath(
            grid=self.grid,
            n_requests=base.n_requests_at(self.grid.t),
            mean_control=np.asarray(mean_control, dtype=float),
            price=np.asarray(price, dtype=float),
            mean_q=np.asarray(mean_q, dtype=float),
            mean_transfer=np.asarray(mean_transfer, dtype=float),
            sharing_benefit=np.asarray(benefit, dtype=float),
            qualified_fraction=qualified,
            case3_fraction=case3,
        )

    # ------------------------------------------------------------------
    # Fixed point
    # ------------------------------------------------------------------
    def solve(self, initial_policy_level: float = 0.5) -> MultiPopulationResult:
        """Run the joint damped best-response loop to equilibrium."""
        if not 0.0 <= initial_policy_level <= 1.0:
            raise ValueError(
                f"policy level must lie in [0, 1], got {initial_policy_level}"
            )
        base = self.configs[0]
        n_classes = len(self.configs)
        densities0 = [initial_density(self.grid, cfg) for cfg in self.configs]
        policies = [
            np.full(self.grid.path_shape[1:], float(initial_policy_level))
            for _ in range(n_classes)
        ]
        density_paths = [
            self.fpk[c].solve(policies[c][None], densities0[c][None])[0]
            for c in range(n_classes)
        ]
        class_paths = [
            self.estimators[c].estimate(density_paths[c], policies[c])
            for c in range(n_classes)
        ]
        market = self._mix_market(class_paths)

        history: List[IterationRecord] = []
        converged = False
        policy_change = np.inf
        values = None
        for iteration in range(1, base.max_iterations + 1):
            sweeps = [self.hjb[c].solve([market]) for c in range(n_classes)]
            values = [value[0] for value, _ in sweeps]
            tables = [table[0] for _, table in sweeps]
            policy_change = max(
                float(np.max(np.abs(tables[c] - policies[c])))
                for c in range(n_classes)
            )
            for c in range(n_classes):
                policies[c] = (
                    (1.0 - base.damping) * policies[c]
                    + base.damping * tables[c]
                )
                density_paths[c] = self.fpk[c].solve(
                    policies[c][None], densities0[c][None]
                )[0]
                class_paths[c] = self.estimators[c].estimate(
                    density_paths[c], policies[c]
                )
            new_market = self._mix_market(class_paths)
            mf_change = market.distance(new_market)
            market = new_market
            history.append(
                IterationRecord(
                    iteration=iteration,
                    policy_change=policy_change,
                    mean_field_change=mf_change,
                    mean_price=float(market.price.mean()),
                    mean_control=float(market.mean_control.mean()),
                )
            )
            if policy_change < base.tolerance:
                converged = True
                break

        assert values is not None
        report = ConvergenceReport(
            converged=converged,
            n_iterations=len(history),
            final_policy_change=policy_change,
            history=history,
        )
        class_results = tuple(
            EquilibriumResult(
                config=self.configs[c],
                grid=self.grid,
                value=values[c],
                policy=CachingPolicy(grid=self.grid, table=policies[c]),
                density=density_paths[c],
                # Each class's generic player faces the SHARED market.
                mean_field=market,
                report=report,
            )
            for c in range(n_classes)
        )
        return MultiPopulationResult(
            class_results=class_results,
            weights=self.weights,
            market=market,
            report=report,
        )
