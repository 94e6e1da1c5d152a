"""Mean-field estimator (Section IV-B, module 1).

Given the population density path ``lambda(t, h, q)`` and the current
policy table, the estimator produces every market quantity the generic
player needs but cannot observe directly:

* the mean-field trading price ``p_k(t)`` of Eq. (17),
* the average peer cache state ``q_bar_-(t)`` of Eq. (18),
* the average transfer size ``Delta_q_bar(t)`` and the per-sharer
  average sharing benefit ``Phi^2_bar(t)``,
* the sharer / case-3 population counts ``M_k(t)`` and ``M'_k(t)``.

This replaces all EDP-to-EDP communication: the generic player solves
its HJB against these paths alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.grid import BatchGrid
from repro.core.parameters import MFGCPConfig
from repro.economics.sharing import mean_field_sharing_benefit
from repro.economics.utility import MarketContext


@dataclass(frozen=True)
class MeanFieldPath:
    """Time paths of every mean-field market quantity.

    All arrays have shape ``(n_t + 1,)`` on the reporting time grid.
    """

    grid: BatchGrid
    n_requests: np.ndarray
    mean_control: np.ndarray
    price: np.ndarray
    mean_q: np.ndarray
    mean_transfer: np.ndarray
    sharing_benefit: np.ndarray
    qualified_fraction: np.ndarray
    case3_fraction: np.ndarray

    def __post_init__(self) -> None:
        n = self.grid.n_t + 1
        requests = np.asarray(self.n_requests, dtype=float)
        if requests.ndim == 0:
            requests = np.full(n, float(requests))
        object.__setattr__(self, "n_requests", requests)
        for name in (
            "n_requests",
            "mean_control",
            "price",
            "mean_q",
            "mean_transfer",
            "sharing_benefit",
            "qualified_fraction",
            "case3_fraction",
        ):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != (n,):
                raise ValueError(f"{name} must have shape ({n},), got {arr.shape}")
            object.__setattr__(self, name, arr)

    def context(self, time_index: int) -> MarketContext:
        """The market context the generic player sees at a time index."""
        if not 0 <= time_index <= self.grid.n_t:
            raise IndexError(f"time index {time_index} out of range [0, {self.grid.n_t}]")
        return MarketContext(
            n_requests=float(self.n_requests[time_index]),
            price=float(self.price[time_index]),
            q_other=float(self.mean_q[time_index]),
            sharing_benefit=float(self.sharing_benefit[time_index]),
        )

    def distance(self, other: "MeanFieldPath") -> float:
        """Sup-norm distance between two estimates (fixed-point metric)."""
        return float(
            max(
                np.max(np.abs(self.price - other.price)),
                np.max(np.abs(self.mean_q - other.mean_q)),
                np.max(np.abs(self.sharing_benefit - other.sharing_benefit)),
            )
        )


@dataclass
class MeanFieldEstimator:
    """Computes :class:`MeanFieldPath` from density and policy paths.

    Everything an estimate needs besides the two paths (quadrature
    weights, ``q`` mesh, threshold masks, pricing model, request path)
    depends on the config and the content's one-lane grid alone and is
    built once, here, as ``(n_h, n_q)`` sheets.
    """

    config: MFGCPConfig
    grid: BatchGrid

    def __post_init__(self) -> None:
        cfg, grid = self.config, self.grid
        self._weights = grid.cell_weights()[0]
        self._q_mesh = grid.q_mesh()[0]
        threshold = cfg.alpha * cfg.content_size
        self._low_mask = (self._q_mesh <= threshold).astype(float)
        self._high_mask = 1.0 - self._low_mask
        self._pricing = cfg.pricing_model()
        self._requests = np.asarray(cfg.n_requests_at(grid.t), dtype=float)

    def estimate(
        self,
        density_path: np.ndarray,
        policy_table: np.ndarray,
        n_requests: Optional[float] = None,
    ) -> MeanFieldPath:
        """One full estimator pass (Alg. 2, line 9).

        Parameters
        ----------
        density_path:
            ``lambda(t, h, q)``, shape ``(n_t + 1, n_h, n_q)``, each
            time sheet a unit-mass density.
        policy_table:
            ``x*(t, h, q)``, same shape.
        n_requests:
            Expected request-rate path (scalar or per reporting time);
            defaults to the configured ``n_requests_at`` law.
        """
        density_path = np.asarray(density_path, dtype=float)
        policy_table = np.asarray(policy_table, dtype=float)
        expected = self.grid.path_shape[1:]
        if density_path.shape != expected:
            raise ValueError(
                f"density path shape {density_path.shape} != grid {expected}"
            )
        if policy_table.shape != expected:
            raise ValueError(
                f"policy table shape {policy_table.shape} != grid {expected}"
            )

        cfg = self.config
        weights = self._weights
        q_mesh = self._q_mesh
        low_mask = self._low_mask

        # Population-average control, Eq. (17)'s integral.
        mean_control = np.einsum("thq,thq,hq->t", density_path, policy_table, weights)
        price = self._pricing.mean_field(cfg.content_size, mean_control)

        # Average peer cache state, Eq. (18).
        mean_q = np.einsum("thq,hq,hq->t", density_path, q_mesh, weights)

        # Partial expectations below/above the alpha*Q threshold.
        partial_low = np.einsum(
            "thq,hq,hq,hq->t", density_path, q_mesh, low_mask, weights
        )
        partial_high = np.einsum(
            "thq,hq,hq,hq->t", density_path, q_mesh, self._high_mask, weights
        )
        mean_transfer = np.abs(partial_low - partial_high)

        # Sharer / case-3 fractions: a qualified sharer has q <= alpha Q;
        # a case-3 event needs both the EDP and its randomly assigned
        # peer above the threshold.
        mass_low = np.einsum("thq,hq,hq->t", density_path, low_mask, weights)
        mass_low = np.clip(mass_low, 0.0, 1.0)
        qualified_fraction = mass_low
        case3_fraction = (1.0 - mass_low) ** 2

        if cfg.include_sharing:
            benefit = mean_field_sharing_benefit(
                cfg.sharing_price,
                mean_transfer,
                cfg.n_edps,
                case3_fraction * cfg.n_edps,
                qualified_fraction * cfg.n_edps,
            )
        else:
            benefit = np.zeros_like(mean_q)

        if n_requests is None:
            # A copy: returned paths never share a mutable array.
            requests = self._requests.copy()
        else:
            requests = np.asarray(n_requests, dtype=float)
        return MeanFieldPath(
            grid=self.grid,
            n_requests=requests,
            mean_control=mean_control,
            price=np.asarray(price, dtype=float),
            mean_q=mean_q,
            mean_transfer=mean_transfer,
            sharing_benefit=np.asarray(benefit, dtype=float),
            qualified_fraction=qualified_fraction,
            case3_fraction=case3_fraction,
        )

    def constant_guess(self, mean_control: float = 0.5) -> MeanFieldPath:
        """A flat bootstrap estimate for the first Alg. 2 iteration.

        Uses the initial density's mean cache state and a constant
        population control; the first FPK pass replaces it immediately.
        """
        cfg = self.config
        n = self.grid.n_t + 1
        mean_q0, _ = cfg.initial_density_moments()
        control = np.full(n, float(np.clip(mean_control, 0.0, 1.0)))
        price = cfg.pricing_model().mean_field(cfg.content_size, control)
        zeros = np.zeros(n)
        return MeanFieldPath(
            grid=self.grid,
            n_requests=cfg.n_requests_at(self.grid.t),
            mean_control=control,
            price=np.asarray(price, dtype=float),
            mean_q=np.full(n, mean_q0),
            mean_transfer=zeros.copy(),
            sharing_benefit=zeros.copy(),
            qualified_fraction=zeros.copy(),
            case3_fraction=zeros.copy(),
        )
