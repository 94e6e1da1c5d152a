"""Independent 2-D reference for the batched HJB/FPK sweeps.

The solver package keeps one implementation of the stencils, the
Godunov HJB step and the conservative FPK step: the batched sweeps over
``(B, n_h, n_q)`` lanes.  This module keeps the single-content
formulation they were derived from, written on plain 2-D
``(n_h, n_q)`` fields of a one-lane grid with its own stencils, as a
test-only oracle.
Nothing in it calls the batched code: a lane of a batched sweep must
equal the reference sweep of that lane alone to rounding.  The sweeps
apply the fading advection and both diffusions as one assembled sparse
operator, whose rows sum the same stencil terms in another order, so
``test_batched_solver.py`` bounds the distance at a few times the
largest one measured (about 6e-16 relative on values and densities).

The stencils, the Godunov step and the FPK step below are the
scalar solver bodies as they stood before the solvers were folded
onto the batched sweeps; keep them unchanged.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.core.fpk import initial_density
from repro.core.grid import BatchGrid
from repro.core.mean_field import MeanFieldPath
from repro.core.operators import stable_time_step
from repro.core.parameters import MFGCPConfig
from repro.core.policy import optimal_control


def _check_2d(name: str, arr: np.ndarray) -> np.ndarray:
    arr = np.asarray(arr, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got ndim={arr.ndim}")
    return arr


# ----------------------------------------------------------------------
# 2-D stencils
# ----------------------------------------------------------------------
def upwind_gradient(field: np.ndarray, spacing: float, velocity: np.ndarray, axis: int) -> np.ndarray:
    """First derivative with upwinding chosen by the drift sign.

    For positive velocity information flows from lower indices, so the
    backward difference is used; for negative velocity the forward
    difference.  Boundary rows fall back to the available one-sided
    difference.
    """
    field = _check_2d("field", field)
    if spacing <= 0:
        raise ValueError(f"spacing must be positive, got {spacing}")
    velocity = np.broadcast_to(np.asarray(velocity, dtype=float), field.shape)

    forward = np.empty_like(field)
    backward = np.empty_like(field)
    if axis == 0:
        forward[:-1, :] = (field[1:, :] - field[:-1, :]) / spacing
        forward[-1, :] = forward[-2, :]
        backward[1:, :] = (field[1:, :] - field[:-1, :]) / spacing
        backward[0, :] = backward[1, :]
    elif axis == 1:
        forward[:, :-1] = (field[:, 1:] - field[:, :-1]) / spacing
        forward[:, -1] = forward[:, -2]
        backward[:, 1:] = (field[:, 1:] - field[:, :-1]) / spacing
        backward[:, 0] = backward[:, 1]
    else:
        raise ValueError(f"axis must be 0 or 1, got {axis}")
    return np.where(velocity > 0, backward, forward)


def second_derivative(field: np.ndarray, spacing: float, axis: int) -> np.ndarray:
    """Central second derivative with reflected (Neumann) boundaries."""
    field = _check_2d("field", field)
    if spacing <= 0:
        raise ValueError(f"spacing must be positive, got {spacing}")
    lap = np.empty_like(field)
    s2 = spacing * spacing
    if axis == 0:
        lap[1:-1, :] = (field[2:, :] - 2.0 * field[1:-1, :] + field[:-2, :]) / s2
        lap[0, :] = 2.0 * (field[1, :] - field[0, :]) / s2
        lap[-1, :] = 2.0 * (field[-2, :] - field[-1, :]) / s2
    elif axis == 1:
        lap[:, 1:-1] = (field[:, 2:] - 2.0 * field[:, 1:-1] + field[:, :-2]) / s2
        lap[:, 0] = 2.0 * (field[:, 1] - field[:, 0]) / s2
        lap[:, -1] = 2.0 * (field[:, -2] - field[:, -1]) / s2
    else:
        raise ValueError(f"axis must be 0 or 1, got {axis}")
    return lap


def conservative_advection(density: np.ndarray, velocity: np.ndarray, spacing: float, axis: int) -> np.ndarray:
    """``-d(v * rho)/dx`` via donor-cell fluxes with zero-flux boundaries.

    The interface flux between cells ``i`` and ``i+1`` is
    ``F = v_f^+ rho_i + v_f^- rho_{i+1}`` with ``v_f`` the interface
    velocity average; the boundary fluxes are forced to zero so the
    scheme conserves mass exactly (sum over cells of the returned
    update is zero).
    """
    density = _check_2d("density", density)
    if spacing <= 0:
        raise ValueError(f"spacing must be positive, got {spacing}")
    velocity = np.broadcast_to(np.asarray(velocity, dtype=float), density.shape)
    if axis not in (0, 1):
        raise ValueError(f"axis must be 0 or 1, got {axis}")

    if axis == 1:
        density_t = density
        velocity_t = velocity
    else:
        density_t = density.T
        velocity_t = velocity.T

    # Interface velocities between consecutive cells along the last axis.
    v_face = 0.5 * (velocity_t[:, :-1] + velocity_t[:, 1:])
    flux = np.maximum(v_face, 0.0) * density_t[:, :-1] + np.minimum(v_face, 0.0) * density_t[:, 1:]
    # Zero-flux boundaries: pad with zeros at both ends.
    flux_full = np.zeros((density_t.shape[0], density_t.shape[1] + 1))
    flux_full[:, 1:-1] = flux
    update = -(flux_full[:, 1:] - flux_full[:, :-1]) / spacing
    return update if axis == 1 else update.T


def conservative_diffusion(density: np.ndarray, diffusivity: float, spacing: float, axis: int) -> np.ndarray:
    """``d/dx ( D d(rho)/dx )`` with zero-flux boundaries (conservative)."""
    density = _check_2d("density", density)
    if spacing <= 0:
        raise ValueError(f"spacing must be positive, got {spacing}")
    if diffusivity < 0:
        raise ValueError(f"diffusivity must be non-negative, got {diffusivity}")
    if axis not in (0, 1):
        raise ValueError(f"axis must be 0 or 1, got {axis}")

    density_t = density if axis == 1 else density.T
    grad = (density_t[:, 1:] - density_t[:, :-1]) / spacing
    flux_full = np.zeros((density_t.shape[0], density_t.shape[1] + 1))
    flux_full[:, 1:-1] = diffusivity * grad
    update = (flux_full[:, 1:] - flux_full[:, :-1]) / spacing
    return update if axis == 1 else update.T


# ----------------------------------------------------------------------
# Godunov HJB sweep
# ----------------------------------------------------------------------
class ReferenceHJB:
    """Monotone (Godunov) finite-difference sweep of Eq. (20) on one lane."""

    def __init__(self, config: MFGCPConfig, grid: BatchGrid) -> None:
        self.config = config
        self.grid = grid
        self._utility = config.utility_model()
        ch = config.channel
        self._drift_h = 0.5 * ch.reversion * (ch.mean - grid.h)[:, None]
        self._rate_of_h = np.asarray(
            ch.rate_of_fading(grid.h), dtype=float
        )[:, None]
        self._diff_h = 0.5 * ch.volatility**2
        self._diff_q = 0.5 * config.caching.noise**2

        drift = config.caching_drift()
        self._drift_const = float(
            drift.rate(0.0, config.popularity, config.timeliness)
        )
        self._w1 = drift.w1
        if self._w1 > 0:
            self._x_balance = float(np.clip(self._drift_const / self._w1, 0.0, 1.0))
        else:
            self._x_balance = 1.0 if self._drift_const >= 0 else 0.0
        self._a_lin, self._w5 = self._utility.control_gradient_constants()

    def stable_step(self) -> float:
        cfg = self.config
        max_bh = float(np.max(np.abs(self._drift_h)))
        drift0 = float(np.abs(cfg.drift_rate(np.array(0.0))))
        drift1 = float(np.abs(cfg.drift_rate(np.array(1.0))))
        max_bq = max(drift0, drift1)
        return stable_time_step(
            max_bh, max_bq, self.grid.dh, self.grid.dq[0], self._diff_h, self._diff_q
        )

    def substeps_per_interval(self) -> int:
        return max(1, int(np.ceil(self.grid.dt / self.stable_step())))

    def _one_sided_gradients_q(self, value: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Backward and forward differences in ``q`` with Neumann ghosts."""
        dq = self.grid.dq[0]
        backward = np.zeros_like(value)
        forward = np.zeros_like(value)
        backward[:, 1:] = (value[:, 1:] - value[:, :-1]) / dq
        forward[:, :-1] = (value[:, 1:] - value[:, :-1]) / dq
        # Reflecting state boundaries => zero normal derivative ghosts.
        return backward, forward

    def _branch_maximum(
        self, grad: np.ndarray, x_lo: float, x_hi: float
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Maximise the control part of the Hamiltonian on one branch.

        ``g(x) = b_q(x) grad - a x - w5 x^2`` with
        ``b_q(x) = Q (c - w1 x)``, maximised over ``x in [x_lo, x_hi]``.
        Returns the branch value and its argmax (arrays over the grid).
        """
        cfg = self.config
        q_size = cfg.content_size
        x_star = optimal_control(
            grad, q_size, self._w1, cfg.w4, cfg.w5, cfg.eta2, cfg.backhaul_rate
        )
        x = np.clip(x_star, x_lo, x_hi)
        value = q_size * (self._drift_const - self._w1 * x) * grad - self._a_lin * x - self._w5 * x**2
        return value, x

    def _godunov_q(self, value: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Monotone upwinded ``max_x [ b_q(x) d_qV - a x - w5 x^2 ]``.

        Returns the Hamiltonian contribution and the maximising control.
        """
        backward, forward = self._one_sided_gradients_q(value)
        # Upwinding for the BACKWARD-in-time equation follows the
        # forward characteristics: V(t, q) ~ V(t+dt, q + b dt), so
        # positive drift reads from larger q (forward difference).
        # Branch A: drift >= 0 (x below the balance point) -> D+ V.
        val_a, x_a = self._branch_maximum(forward, 0.0, self._x_balance)
        # Branch B: drift <= 0 (x above the balance point) -> D- V.
        val_b, x_b = self._branch_maximum(backward, self._x_balance, 1.0)
        take_a = val_a >= val_b
        return np.where(take_a, val_a, val_b), np.where(take_a, x_a, x_b)

    def _step_rhs(self, value: np.ndarray, ctx) -> Tuple[np.ndarray, np.ndarray]:
        """The bracketed operator of Eq. (20) and the maximising control."""
        grid = self.grid
        ham_q, control = self._godunov_q(value)
        # Negated velocity flips the upwind side: the backward-time
        # equation reads along forward characteristics (see _godunov_q).
        adv_h = self._drift_h * upwind_gradient(value, grid.dh, -self._drift_h, axis=0)
        diff = self._diff_h * second_derivative(
            value, grid.dh, axis=0
        ) + self._diff_q * second_derivative(value, grid.dq[0], axis=1)
        # Control-free running utility U(x=0); the control-coupled part
        # (-a x - w5 x^2) already lives inside the Godunov term.
        utility0 = self._utility.total(0.0, grid.q_mesh()[0], self._rate_of_h, ctx)
        return adv_h + ham_q + diff + utility0, control

    def control_from_value(self, value: np.ndarray) -> np.ndarray:
        return self._godunov_q(value)[1]

    def solve(
        self,
        mean_field: MeanFieldPath,
        terminal_value: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Backward sweep; returns ``(value_path, policy_path)``."""
        grid = self.grid
        value_path = np.empty(grid.path_shape[1:])
        policy_path = np.empty(grid.path_shape[1:])
        if terminal_value is None:
            value = np.zeros(grid.shape[1:])
        else:
            value = np.asarray(terminal_value, dtype=float).copy()
        value_path[grid.n_t] = value
        policy_path[grid.n_t] = self.control_from_value(value)

        n_sub = self.substeps_per_interval()
        dt_sub = grid.dt / n_sub
        for ti in range(grid.n_t - 1, -1, -1):
            ctx = mean_field.context(ti)
            for _ in range(n_sub):
                rhs, _control = self._step_rhs(value, ctx)
                value = value + dt_sub * rhs
            value_path[ti] = value
            policy_path[ti] = self.control_from_value(value)
        return value_path, policy_path


# ----------------------------------------------------------------------
# Conservative FPK sweep
# ----------------------------------------------------------------------
class ReferenceFPK:
    """Explicit conservative finite-difference sweep of Eq. (15) on one lane."""

    def __init__(self, config: MFGCPConfig, grid: BatchGrid) -> None:
        self.config = config
        self.grid = grid
        ch = config.channel
        self._drift_h = 0.5 * ch.reversion * (ch.mean - grid.h)[:, None]
        self._diff_h = 0.5 * ch.volatility**2
        self._diff_q = 0.5 * config.caching.noise**2

    def stable_step(self) -> float:
        cfg = self.config
        max_bh = float(np.max(np.abs(self._drift_h)))
        drift0 = float(np.abs(cfg.drift_rate(np.array(0.0))))
        drift1 = float(np.abs(cfg.drift_rate(np.array(1.0))))
        max_bq = max(drift0, drift1)
        return stable_time_step(
            max_bh, max_bq, self.grid.dh, self.grid.dq[0], self._diff_h, self._diff_q
        )

    def substeps_per_interval(self) -> int:
        return max(1, int(np.ceil(self.grid.dt / self.stable_step())))

    def _step(self, density: np.ndarray, drift_q: np.ndarray, dt: float) -> np.ndarray:
        """One explicit conservative step of Eq. (15)."""
        grid = self.grid
        update = (
            conservative_advection(density, self._drift_h, grid.dh, axis=0)
            + conservative_advection(density, drift_q, grid.dq[0], axis=1)
            + conservative_diffusion(density, self._diff_h, grid.dh, axis=0)
            + conservative_diffusion(density, self._diff_q, grid.dq[0], axis=1)
        )
        new = density + dt * update
        # Donor-cell + explicit diffusion can undershoot by rounding at
        # steep fronts; clip and renormalise to keep a probability law.
        new = np.maximum(new, 0.0)
        return grid.normalize_sheet(new)

    def solve(
        self, policy_table: np.ndarray, density0: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Forward sweep from ``density0``; returns the density path."""
        grid = self.grid
        if density0 is None:
            density = initial_density(grid, self.config)
        else:
            density = grid.normalize_sheet(np.asarray(density0, dtype=float))
        path = np.empty(grid.path_shape[1:])
        path[0] = density
        n_sub = self.substeps_per_interval()
        dt_sub = grid.dt / n_sub
        for ti in range(grid.n_t):
            drift_q = self.config.drift_rate(policy_table[ti])
            for _ in range(n_sub):
                density = self._step(density, drift_q, dt_sub)
            path[ti + 1] = density
        return path
