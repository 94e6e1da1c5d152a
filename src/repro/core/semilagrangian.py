"""Semi-Lagrangian solver backend for the coupled HJB-FPK system.

An alternative to the finite-difference solvers of
:mod:`repro.core.hjb` / :mod:`repro.core.fpk`.  Semi-Lagrangian schemes
integrate along characteristics:

* **HJB (backward).**  For each grid node and each candidate control
  ``x`` the scheme evaluates

      V(t, S) = max_x [ dt * U(x, S) + E[ V(t + dt, S + b(x) dt + noise) ] ]

  where the expectation over the Brownian increments uses the standard
  two-point quadrature ``(+sigma sqrt(dt), -sigma sqrt(dt))`` per
  dimension and bilinear interpolation of ``V(t + dt)``.  The scheme is
  monotone and **unconditionally stable** — no CFL sub-stepping — at
  the cost of a discrete control search.
* **FPK (forward).**  The adjoint operation: each cell's probability
  mass moves to its forward foot point (drift under the current policy
  plus the same two-point noise quadrature) and is deposited with
  bilinear weights, which conserves mass exactly.

The backend cross-validates the production Godunov/donor-cell solvers:
``tests/core/test_semilagrangian.py`` asserts both backends reach the
same equilibrium, and :class:`SLBestResponseIterator` exposes the same
interface as :class:`repro.core.best_response.BestResponseIterator`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.equilibrium import ConvergenceReport, EquilibriumResult, IterationRecord
from repro.core.best_response import build_grid
from repro.core.fpk import initial_density
from repro.core.grid import BatchGrid
from repro.core.mean_field import MeanFieldEstimator, MeanFieldPath
from repro.core.parameters import MFGCPConfig
from repro.core.policy import CachingPolicy


def bilinear_interpolate(
    field: np.ndarray, grid: BatchGrid, h_pts: np.ndarray, q_pts: np.ndarray
) -> np.ndarray:
    """Bilinear interpolation of a grid sheet at arbitrary points.

    Points outside the grid are clamped to the boundary (consistent
    with the reflecting state boundaries of the model).
    """
    field = np.asarray(field, dtype=float)
    if field.shape != grid.shape[1:]:
        raise ValueError(f"field shape {field.shape} != grid {grid.shape[1:]}")
    ih, iq, rh, rq = grid.interp_weights(h_pts, q_pts)
    ih1 = np.minimum(ih + 1, grid.n_h - 1)
    iq1 = np.minimum(iq + 1, grid.n_q - 1)
    top = field[ih, iq] * (1.0 - rh) + field[ih1, iq] * rh
    bot = field[ih, iq1] * (1.0 - rh) + field[ih1, iq1] * rh
    return top * (1.0 - rq) + bot * rq


def bilinear_deposit(
    mass: np.ndarray, grid: BatchGrid, h_pts: np.ndarray, q_pts: np.ndarray
) -> np.ndarray:
    """Scatter mass to grid nodes with bilinear weights (conservative).

    The adjoint of :func:`bilinear_interpolate`: total deposited mass
    equals total input mass exactly.
    """
    mass = np.asarray(mass, dtype=float).ravel()
    ih, iq, rh, rq = grid.interp_weights(
        np.asarray(h_pts).ravel(), np.asarray(q_pts).ravel()
    )
    ih1 = np.minimum(ih + 1, grid.n_h - 1)
    iq1 = np.minimum(iq + 1, grid.n_q - 1)
    out = np.zeros(grid.shape[1:])
    np.add.at(out, (ih, iq), mass * (1 - rh) * (1 - rq))
    np.add.at(out, (ih1, iq), mass * rh * (1 - rq))
    np.add.at(out, (ih, iq1), mass * (1 - rh) * rq)
    np.add.at(out, (ih1, iq1), mass * rh * rq)
    return out


class SLHJBSolver:
    """Semi-Lagrangian backward HJB solver (Eq. (20)).

    Parameters
    ----------
    n_control_levels:
        Size of the discrete control search grid over [0, 1].
    """

    def __init__(
        self, config: MFGCPConfig, grid: BatchGrid, n_control_levels: int = 17
    ) -> None:
        if n_control_levels < 2:
            raise ValueError(
                f"need at least 2 control levels, got {n_control_levels}"
            )
        self.config = config
        self.grid = grid
        self.controls = np.linspace(0.0, 1.0, n_control_levels)
        self._utility = config.utility_model()
        ch = config.channel
        self._drift_h = 0.5 * ch.reversion * (ch.mean - grid.h)[:, None]
        self._rate_of_h = np.asarray(ch.rate_of_fading(grid.h), dtype=float)[:, None]
        self._sigma_h = ch.volatility
        self._sigma_q = config.caching.noise

    def _expectation(self, value_next: np.ndarray, h_foot: np.ndarray, q_foot: np.ndarray, dt: float) -> np.ndarray:
        """Two-point-per-dimension quadrature of E[V(S_foot + noise)]."""
        grid = self.grid
        dh = self._sigma_h * np.sqrt(dt)
        dq = self._sigma_q * np.sqrt(dt)
        total = np.zeros(grid.shape[1:])
        for sh in (-1.0, 1.0):
            for sq in (-1.0, 1.0):
                total += bilinear_interpolate(
                    value_next, grid, h_foot + sh * dh, q_foot + sq * dq
                )
        return 0.25 * total

    def solve(
        self,
        mean_field: MeanFieldPath,
        terminal_value: Optional[np.ndarray] = None,
    ) -> "HJBSolutionLike":
        """Backward sweep of one content from ``V(T)`` against ``mean_field``.

        ``terminal_value`` is an ``(n_h, n_q)`` sheet (default zero);
        the returned :class:`~repro.core.hjb.HJBSolution` holds the
        ``(n_t + 1, n_h, n_q)`` value path and policy table.
        """
        from repro.core.hjb import HJBSolution

        grid = self.grid
        cfg = self.config
        dt = grid.dt
        shape = grid.shape[1:]
        h_mesh = grid.h_mesh()[0]
        q_mesh = grid.q_mesh()[0]
        h_foot = h_mesh + self._drift_h * dt

        value_path = np.empty(grid.path_shape[1:])
        policy_path = np.empty(grid.path_shape[1:])
        value = (
            np.zeros(shape)
            if terminal_value is None
            else np.asarray(terminal_value, dtype=float).copy()
        )
        if value.shape != shape:
            raise ValueError(f"terminal value shape {value.shape} != grid {shape}")
        value_path[grid.n_t] = value
        policy_path[grid.n_t] = 0.0

        for ti in range(grid.n_t - 1, -1, -1):
            ctx = mean_field.context(ti)
            best_value = np.full(shape, -np.inf)
            best_control = np.zeros(shape)
            for x in self.controls:
                drift_q = float(cfg.drift_rate(np.array(x)))
                q_foot = np.clip(q_mesh + drift_q * dt, 0.0, cfg.content_size)
                candidate = dt * self._utility.total(
                    x, q_mesh, self._rate_of_h, ctx
                ) + self._expectation(value, h_foot, q_foot, dt)
                better = candidate > best_value
                best_value = np.where(better, candidate, best_value)
                best_control = np.where(better, x, best_control)
            value = best_value
            value_path[ti] = value
            policy_path[ti] = best_control

        return HJBSolution(
            grid=grid,
            value=value_path,
            policy=CachingPolicy(grid=grid, table=policy_path),
        )


class SLFPKSolver:
    """Semi-Lagrangian forward FPK solver (Eq. (15)), mass-conserving."""

    def __init__(self, config: MFGCPConfig, grid: BatchGrid) -> None:
        self.config = config
        self.grid = grid
        ch = config.channel
        self._drift_h = 0.5 * ch.reversion * (ch.mean - grid.h)[:, None]
        self._sigma_h = ch.volatility
        self._sigma_q = config.caching.noise

    def solve(
        self,
        policy_table: np.ndarray,
        density0: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Forward sweep of one content from ``lambda(0)`` under a policy.

        ``policy_table`` is ``(n_t + 1, n_h, n_q)``; ``density0``
        defaults to :func:`~repro.core.fpk.initial_density`.  Returns
        the density path, unit mass at every reporting time.
        """
        grid = self.grid
        cfg = self.config
        policy_table = np.asarray(policy_table, dtype=float)
        if policy_table.shape != grid.path_shape[1:]:
            raise ValueError(
                f"policy table shape {policy_table.shape} != grid {grid.path_shape[1:]}"
            )
        density = (
            initial_density(grid, cfg) if density0 is None
            else grid.normalize_sheet(density0)
        )
        dt = grid.dt
        h_mesh = grid.h_mesh()[0]
        q_mesh = grid.q_mesh()[0]
        cell = grid.cell_weights()[0]
        dh = self._sigma_h * np.sqrt(dt)
        dq = self._sigma_q * np.sqrt(dt)

        path = np.empty(grid.path_shape[1:])
        path[0] = density
        for ti in range(grid.n_t):
            drift_q = cfg.drift_rate(policy_table[ti])
            h_foot = h_mesh + self._drift_h * dt
            q_foot = np.clip(q_mesh + drift_q * dt, 0.0, cfg.content_size)
            mass = density * cell
            new_mass = np.zeros(grid.shape[1:])
            for sh in (-1.0, 1.0):
                for sq in (-1.0, 1.0):
                    new_mass += bilinear_deposit(
                        0.25 * mass, grid, h_foot + sh * dh, q_foot + sq * dq
                    )
            density = grid.normalize_sheet(new_mass / cell)
            path[ti + 1] = density
        return path


class SLBestResponseIterator:
    """Algorithm 2 on the semi-Lagrangian backend.

    Mirrors :class:`repro.core.best_response.BestResponseIterator` with
    the SL solvers substituted; used for cross-validation and for
    configurations whose CFL limits would make the explicit
    finite-difference solvers expensive.
    """

    def __init__(
        self,
        config: MFGCPConfig,
        grid: Optional[BatchGrid] = None,
        n_control_levels: int = 17,
    ) -> None:
        self.config = config
        self.grid = grid if grid is not None else build_grid(config)
        self.hjb = SLHJBSolver(config, self.grid, n_control_levels)
        self.fpk = SLFPKSolver(config, self.grid)
        self.estimator = MeanFieldEstimator(config, self.grid)

    def solve(
        self,
        density0: Optional[np.ndarray] = None,
        initial_policy_level: float = 0.5,
    ) -> EquilibriumResult:
        """Run the damped fixed-point loop to an MFG equilibrium."""
        cfg = self.config
        grid = self.grid
        if density0 is None:
            density0 = initial_density(grid, cfg)
        if not 0.0 <= initial_policy_level <= 1.0:
            raise ValueError(
                f"policy level must lie in [0, 1], got {initial_policy_level}"
            )

        policy_table = np.full(grid.path_shape[1:], float(initial_policy_level))
        density_path = self.fpk.solve(policy_table, density0)
        mean_field = self.estimator.estimate(density_path, policy_table)

        history = []
        converged = False
        policy_change = np.inf
        solution = None
        for iteration in range(1, cfg.max_iterations + 1):
            solution = self.hjb.solve(mean_field)
            new_table = solution.policy.table
            policy_change = float(np.max(np.abs(new_table - policy_table)))
            policy_table = (
                (1.0 - cfg.damping) * policy_table + cfg.damping * new_table
            )
            density_path = self.fpk.solve(policy_table, density0)
            new_mean_field = self.estimator.estimate(density_path, policy_table)
            mf_change = mean_field.distance(new_mean_field)
            mean_field = new_mean_field
            history.append(
                IterationRecord(
                    iteration=iteration,
                    policy_change=policy_change,
                    mean_field_change=mf_change,
                    mean_price=float(mean_field.price.mean()),
                    mean_control=float(mean_field.mean_control.mean()),
                )
            )
            # The discrete control grid quantises the best response, so
            # convergence is declared at the control-grid resolution.
            resolution = 1.0 / (len(self.hjb.controls) - 1)
            if policy_change <= max(cfg.tolerance, 1.01 * cfg.damping * resolution):
                converged = True
                break

        assert solution is not None
        report = ConvergenceReport(
            converged=converged,
            n_iterations=len(history),
            final_policy_change=policy_change,
            history=history,
        )
        return EquilibriumResult(
            config=cfg,
            grid=grid,
            value=solution.value,
            policy=CachingPolicy(grid=grid, table=policy_table),
            density=density_path,
            mean_field=mean_field,
            report=report,
        )
