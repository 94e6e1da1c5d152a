"""Stationary (infinite-horizon, discounted) mean-field equilibrium.

The paper solves a finite optimization epoch ``[0, T]`` with terminal
value ``V(T) = 0``, which makes the caching policy decay to zero near
the horizon (Figs. 5, 11).  Operators running the market continuously
care about the *stationary* regime instead: the discounted HJB

    rho V(S) = max_x [ U(x, S; market) + b(x, S) . grad V
                       + (1/2) sigma^2 : hess V ]

coupled with the stationary FPK equation (the invariant density of the
controlled diffusion) and time-constant market quantities.  This
module solves that system by

* value iteration — artificial-time marching of the discounted HJB,
  reusing the monotone Godunov step of the one-lane
  :class:`repro.core.hjb.HJBSolver`;
* power iteration — repeated conservative FPK steps until the density
  stops moving;
* a damped fixed point over the stationary market scalars (price,
  peer state, sharing benefit), mirroring Alg. 2.

The result has no terminal artifact: the equilibrium policy keeps a
strictly positive caching rate wherever the finite-horizon policy is
interior at mid-epoch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.best_response import build_grid
from repro.core.fpk import FPKSolver, initial_density
from repro.core.grid import StateGrid
from repro.core.hjb import HJBSolver
from repro.core.parameters import MFGCPConfig
from repro.economics.sharing import mean_field_sharing_benefit
from repro.economics.utility import MarketContext


@dataclass(frozen=True)
class StationaryResult:
    """The stationary mean-field equilibrium.

    Attributes
    ----------
    grid:
        The state grid.
    value:
        Stationary discounted value function ``V(h, q)``.
    policy:
        Stationary caching policy ``x*(h, q)``.
    density:
        The invariant population density.
    price, mean_q, sharing_benefit, mean_control:
        The stationary market scalars.
    converged:
        Whether the outer market fixed point met its tolerance.
    n_iterations:
        Outer iterations used.
    """

    config: MFGCPConfig
    discount: float
    grid: StateGrid
    value: np.ndarray
    policy: np.ndarray
    density: np.ndarray
    price: float
    mean_q: float
    sharing_benefit: float
    mean_control: float
    converged: bool
    n_iterations: int

    def utility_rate(self) -> float:
        """Population-average stationary Eq. (10) utility rate."""
        cfg = self.config
        utility = cfg.utility_model()
        rate_of_h = np.asarray(
            cfg.channel.rate_of_fading(self.grid.h), dtype=float
        )[:, None]
        ctx = MarketContext(
            n_requests=cfg.n_requests,
            price=self.price,
            q_other=self.mean_q,
            sharing_benefit=self.sharing_benefit,
        )
        total = utility.total(self.policy, self.grid.q_mesh(), rate_of_h, ctx)
        return float(
            (total * self.density * self.grid.cell_weights()).sum()
        )


class StationarySolver:
    """Discounted stationary MFG solver.

    Parameters
    ----------
    config:
        Model parameters (the horizon fields are ignored except as the
        artificial-time step source).
    discount:
        Discount rate ``rho > 0``; smaller values weigh the long run
        more heavily (and slow the value iteration).
    """

    def __init__(
        self,
        config: MFGCPConfig,
        discount: float = 1.0,
        grid: Optional[StateGrid] = None,
    ) -> None:
        if discount <= 0:
            raise ValueError(f"discount must be positive, got {discount}")
        self.config = config
        self.discount = float(discount)
        self.grid = grid if grid is not None else build_grid(config)
        self._hjb = HJBSolver(config, self.grid)
        self._fpk = FPKSolver(config, self.grid)
        self._dt = self.grid.dt / self._hjb.substeps_per_interval()

    # ------------------------------------------------------------------
    # Inner solves
    # ------------------------------------------------------------------
    def value_iteration(
        self,
        ctx: MarketContext,
        value0: Optional[np.ndarray] = None,
        tol: float = 1e-4,
        max_steps: int = 20000,
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Artificial-time marching of the discounted HJB to steady state.

        Returns the stationary value sheet and its Godunov policy.
        Convergence is measured by the residual ``|dV| / dt`` relative
        to the value scale.
        """
        value = (
            np.zeros(self.grid.shape) if value0 is None else value0.copy()
        )
        dt = self._dt
        # The market is fixed for the whole march, so U(x = 0) is
        # evaluated once, not once per artificial-time step.
        step_rhs = self._hjb.batch.step_operator([ctx])
        for _ in range(max_steps):
            rhs, _ = step_rhs(value[None])
            update = dt * (rhs[0] - self.discount * value)
            value = value + update
            residual = float(np.max(np.abs(update))) / dt
            if residual < tol * (1.0 + float(np.max(np.abs(value)))):
                return value, self._hjb.control_from_value(value)
        raise RuntimeError(
            f"value iteration did not converge in {max_steps} steps "
            f"(residual {residual:.3e})"
        )

    def stationary_density(
        self,
        policy: np.ndarray,
        density0: Optional[np.ndarray] = None,
        tol: float = 1e-6,
        max_steps: int = 20000,
    ) -> np.ndarray:
        """Power iteration of the conservative FPK step to its fixed point.

        Convergence is measured relative to the density scale — the
        clip-and-renormalise step can leave a tiny persistent limit
        cycle well below any physically meaningful amplitude.
        """
        density = (
            initial_density(self.grid, self.config)
            if density0 is None
            else self.grid.normalize(density0)
        )
        drift_q = self.config.drift_rate(policy)
        dt = self.grid.dt / self._fpk.substeps_per_interval()
        step = self._fpk.batch.step_operator(drift_q[None], dt)
        for _ in range(max_steps):
            new = step(density[None])[0]
            change = float(np.max(np.abs(new - density)))
            density = new
            if change < tol * (1.0 + float(density.max())):
                return density
        raise RuntimeError(
            f"stationary density iteration did not converge in {max_steps} "
            f"steps (change {change:.3e})"
        )

    # ------------------------------------------------------------------
    # Market fixed point
    # ------------------------------------------------------------------
    def _market_from(self, density: np.ndarray, policy: np.ndarray) -> MarketContext:
        cfg = self.config
        weights = self.grid.cell_weights()
        q_mesh = self.grid.q_mesh()
        mean_control = float((density * policy * weights).sum())
        mean_q = float((density * q_mesh * weights).sum())
        price = float(cfg.pricing_model().mean_field(cfg.content_size, mean_control))
        threshold = cfg.alpha * cfg.content_size
        low = (q_mesh <= threshold).astype(float)
        mass_low = float(np.clip((density * low * weights).sum(), 0.0, 1.0))
        partial_low = float((density * q_mesh * low * weights).sum())
        partial_high = float((density * q_mesh * (1 - low) * weights).sum())
        if cfg.include_sharing:
            benefit = float(
                mean_field_sharing_benefit(
                    cfg.sharing_price,
                    abs(partial_low - partial_high),
                    cfg.n_edps,
                    (1.0 - mass_low) ** 2 * cfg.n_edps,
                    mass_low * cfg.n_edps,
                )
            )
        else:
            benefit = 0.0
        return MarketContext(
            n_requests=cfg.n_requests,
            price=price,
            q_other=mean_q,
            sharing_benefit=benefit,
        )

    def solve(
        self,
        max_iterations: Optional[int] = None,
        tolerance: Optional[float] = None,
    ) -> StationaryResult:
        """Run the damped market fixed point to the stationary equilibrium."""
        cfg = self.config
        max_iterations = (
            cfg.max_iterations if max_iterations is None else int(max_iterations)
        )
        tolerance = cfg.tolerance if tolerance is None else float(tolerance)

        policy = np.full(self.grid.shape, 0.5)
        density = self.stationary_density(policy)
        ctx = self._market_from(density, policy)

        value = None
        converged = False
        policy_change = np.inf
        iteration = 0
        for iteration in range(1, max_iterations + 1):
            value, new_policy = self.value_iteration(ctx, value0=value)
            policy_change = float(np.max(np.abs(new_policy - policy)))
            policy = (1.0 - cfg.damping) * policy + cfg.damping * new_policy
            density = self.stationary_density(policy, density0=density)
            ctx = self._market_from(density, policy)
            if policy_change < tolerance:
                converged = True
                break

        assert value is not None
        return StationaryResult(
            config=cfg,
            discount=self.discount,
            grid=self.grid,
            value=value,
            policy=np.clip(policy, 0.0, 1.0),
            density=density,
            price=ctx.price,
            mean_q=ctx.q_other,
            sharing_benefit=ctx.sharing_benefit,
            mean_control=float(
                (density * policy * self.grid.cell_weights()).sum()
            ),
            converged=converged,
            n_iterations=iteration,
        )
