"""Finite-difference operators for the HJB/FPK solvers.

Section V-A: "we employ the finite difference method to numerically
solve the coupled HJB and FPK equations."  Two flavours are needed:

* **Non-conservative** operators for the HJB equation (Eq. (20)):
  upwind first derivatives selected by the sign of the local drift and
  central second derivatives, with one-sided (Neumann-like) closures at
  the boundary.
* **Conservative** operators for the FPK equation (Eq. (15)): the
  advection term is written as a flux divergence with donor-cell
  upwinding and *zero-flux* boundaries, and the diffusion term likewise
  as the divergence of ``D * grad(rho)`` with zero boundary flux — this
  keeps total probability mass exactly conserved, which the property
  tests assert.

The solver stencils (``batched_*``) act on a stack of fields shaped
``(B, n_h, n_q)`` — one lane per content, a single content being the
batch of one — in a single numpy call.  ``axis`` names the *spatial*
axis (0 = fading, 1 = cache); the leading batch axis is never mixed.
``spacing`` may be a scalar (shared grid step) or a per-lane array of
shape ``(B,)`` / ``(B, 1, 1)`` (each content's cache axis spans its own
``[0, Q_k]``).  Every stencil is elementwise along the batch axis, so
lane ``b`` of the output does not depend on the other lanes.

:func:`central_gradient` acts on one 2-D ``(n_h, n_q)`` field; the
reporting helpers use it to read ``d_q V`` off a solved value sheet.
"""

from __future__ import annotations

import numpy as np


def _check_2d(name: str, arr: np.ndarray) -> np.ndarray:
    arr = np.asarray(arr, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got ndim={arr.ndim}")
    return arr


def _check_batched(name: str, arr: np.ndarray) -> np.ndarray:
    arr = np.asarray(arr, dtype=float)
    if arr.ndim != 3:
        raise ValueError(
            f"{name} must be 3-D (batch, n_h, n_q), got ndim={arr.ndim}"
        )
    return arr


def _batched_spacing(spacing, n_lanes: int):
    """Validate a shared or per-lane spacing; returns a broadcastable value.

    Scalars pass through; per-lane arrays of shape ``(B,)`` or
    ``(B, 1, 1)`` are reshaped to ``(B, 1, 1)`` so they broadcast
    against ``(B, n_h, n_q)`` fields.
    """
    if isinstance(spacing, float):  # the sweeps' shared-step fast path
        if spacing <= 0:
            raise ValueError(f"spacing must be positive, got {spacing}")
        return spacing
    arr = np.asarray(spacing, dtype=float)
    if arr.ndim == 0:
        if arr <= 0:
            raise ValueError(f"spacing must be positive, got {float(arr)}")
        return float(arr)
    if arr.size != n_lanes:
        raise ValueError(
            f"per-lane spacing needs {n_lanes} entries, got shape {arr.shape}"
        )
    arr = arr.reshape(n_lanes, 1, 1)
    if (arr <= 0).any():
        raise ValueError("per-lane spacings must all be positive")
    return arr


def _to_last_axis(field: np.ndarray, axis: int) -> np.ndarray:
    """View with the requested spatial axis moved last (batch axis fixed)."""
    if axis == 0:
        return np.swapaxes(field, 1, 2)
    if axis == 1:
        return field
    raise ValueError(f"axis must be 0 or 1, got {axis}")


def central_gradient(field: np.ndarray, spacing: float, axis: int) -> np.ndarray:
    """Central first derivative with one-sided boundary closures."""
    field = _check_2d("field", field)
    if spacing <= 0:
        raise ValueError(f"spacing must be positive, got {spacing}")
    grad = np.empty_like(field)
    if axis == 0:
        grad[1:-1, :] = (field[2:, :] - field[:-2, :]) / (2.0 * spacing)
        grad[0, :] = (field[1, :] - field[0, :]) / spacing
        grad[-1, :] = (field[-1, :] - field[-2, :]) / spacing
    elif axis == 1:
        grad[:, 1:-1] = (field[:, 2:] - field[:, :-2]) / (2.0 * spacing)
        grad[:, 0] = (field[:, 1] - field[:, 0]) / spacing
        grad[:, -1] = (field[:, -1] - field[:, -2]) / spacing
    else:
        raise ValueError(f"axis must be 0 or 1, got {axis}")
    return grad


def batched_upwind_gradient(
    field: np.ndarray, spacing, velocity: np.ndarray, axis: int
) -> np.ndarray:
    """First derivative over ``(B, n_h, n_q)`` lanes, upwinded by drift sign.

    For positive velocity information flows from lower indices, so the
    backward difference is used; for negative velocity the forward
    difference.  Boundary rows fall back to the available one-sided
    difference.  ``velocity`` broadcasts against the field (per-lane
    drift tables or a shared ``(n_h, 1)`` profile alike); ``spacing``
    may be per lane.
    """
    field = _check_batched("field", field)
    spacing = _batched_spacing(spacing, field.shape[0])
    velocity = np.broadcast_to(np.asarray(velocity, dtype=float), field.shape)

    f = _to_last_axis(field, axis)
    v = _to_last_axis(velocity, axis)
    forward = np.empty_like(f)
    backward = np.empty_like(f)
    diff = (f[:, :, 1:] - f[:, :, :-1]) / spacing
    forward[:, :, :-1] = diff
    forward[:, :, -1] = forward[:, :, -2]
    backward[:, :, 1:] = diff
    backward[:, :, 0] = backward[:, :, 1]
    grad = np.where(v > 0, backward, forward)
    return _to_last_axis(grad, axis)


def batched_central_gradient(field: np.ndarray, spacing, axis: int) -> np.ndarray:
    """:func:`central_gradient` of every lane of a ``(B, n_h, n_q)`` stack."""
    field = _check_batched("field", field)
    spacing = _batched_spacing(spacing, field.shape[0])
    f = _to_last_axis(field, axis)
    grad = np.empty_like(f)
    grad[:, :, 1:-1] = (f[:, :, 2:] - f[:, :, :-2]) / (2.0 * spacing)
    grad[:, :, :1] = (f[:, :, 1:2] - f[:, :, 0:1]) / spacing
    grad[:, :, -1:] = (f[:, :, -1:] - f[:, :, -2:-1]) / spacing
    return _to_last_axis(grad, axis)


def batched_second_derivative(field: np.ndarray, spacing, axis: int) -> np.ndarray:
    """Central second derivative over ``(B, n_h, n_q)`` lanes.

    Boundaries are reflected (Neumann): the ghost node mirrors the
    first interior node.
    """
    field = _check_batched("field", field)
    spacing = _batched_spacing(spacing, field.shape[0])
    f = _to_last_axis(field, axis)
    s2 = spacing * spacing
    lap = np.empty_like(f)
    lap[:, :, 1:-1] = (f[:, :, 2:] - 2.0 * f[:, :, 1:-1] + f[:, :, :-2]) / s2
    lap[:, :, :1] = 2.0 * (f[:, :, 1:2] - f[:, :, 0:1]) / s2
    lap[:, :, -1:] = 2.0 * (f[:, :, -2:-1] - f[:, :, -1:]) / s2
    return _to_last_axis(lap, axis)


def batched_conservative_advection(
    density: np.ndarray, velocity: np.ndarray, spacing, axis: int
) -> np.ndarray:
    """``-d(v * rho)/dx`` over ``(B, n_h, n_q)`` lanes, donor-cell fluxes.

    The interface flux between cells ``i`` and ``i+1`` is
    ``F = v_f^+ rho_i + v_f^- rho_{i+1}`` with ``v_f`` the interface
    velocity average; the boundary fluxes are forced to zero, so each
    lane's update sums to zero and its total mass is conserved.
    """
    density = _check_batched("density", density)
    spacing = _batched_spacing(spacing, density.shape[0])
    velocity = np.broadcast_to(np.asarray(velocity, dtype=float), density.shape)

    d = _to_last_axis(density, axis)
    v = _to_last_axis(velocity, axis)
    v_face = 0.5 * (v[:, :, :-1] + v[:, :, 1:])
    flux = (
        np.maximum(v_face, 0.0) * d[:, :, :-1]
        + np.minimum(v_face, 0.0) * d[:, :, 1:]
    )
    flux_full = np.zeros(d.shape[:-1] + (d.shape[-1] + 1,))
    flux_full[:, :, 1:-1] = flux
    update = -(flux_full[:, :, 1:] - flux_full[:, :, :-1]) / spacing
    return _to_last_axis(update, axis)


def batched_conservative_diffusion(
    density: np.ndarray, diffusivity: float, spacing, axis: int
) -> np.ndarray:
    """``d/dx ( D d(rho)/dx )`` over ``(B, n_h, n_q)`` lanes, zero-flux boundaries."""
    density = _check_batched("density", density)
    spacing = _batched_spacing(spacing, density.shape[0])
    if diffusivity < 0:
        raise ValueError(f"diffusivity must be non-negative, got {diffusivity}")
    d = _to_last_axis(density, axis)
    grad = (d[:, :, 1:] - d[:, :, :-1]) / spacing
    flux_full = np.zeros(d.shape[:-1] + (d.shape[-1] + 1,))
    flux_full[:, :, 1:-1] = diffusivity * grad
    update = (flux_full[:, :, 1:] - flux_full[:, :, :-1]) / spacing
    return _to_last_axis(update, axis)


def stable_time_step(
    max_drift_h: float,
    max_drift_q: float,
    dh: float,
    dq: float,
    diff_h: float,
    diff_q: float,
    safety: float = 0.45,
) -> float:
    """CFL-limited explicit time step for the advection-diffusion system.

    Combines the advection limits ``dx / |b|`` and the diffusion limits
    ``dx^2 / (2 D)`` per axis; the most restrictive wins, scaled by the
    safety factor.
    """
    if dh <= 0 or dq <= 0:
        raise ValueError("grid spacings must be positive")
    if not 0.0 < safety <= 1.0:
        raise ValueError(f"safety must lie in (0, 1], got {safety}")
    limits = []
    if max_drift_h > 0:
        limits.append(dh / max_drift_h)
    if max_drift_q > 0:
        limits.append(dq / max_drift_q)
    if diff_h > 0:
        limits.append(dh * dh / (2.0 * diff_h))
    if diff_q > 0:
        limits.append(dq * dq / (2.0 * diff_q))
    if not limits:
        return np.inf
    return safety * min(limits)
