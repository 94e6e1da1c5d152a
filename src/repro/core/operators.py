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

The solver stencils act on a stack of fields shaped
``(B, n_h, n_q)`` — one lane per content, a single content being the
batch of one — in a single numpy call.  ``axis`` names the *spatial*
axis (0 = fading, 1 = cache); the leading batch axis is never mixed.
``spacing`` may be a scalar (shared grid step) or a per-lane array of
shape ``(B,)`` / ``(B, 1, 1)`` (each content's cache axis spans its own
``[0, Q_k]``).  Every stencil is elementwise along the batch axis, so
lane ``b`` of the output does not depend on the other lanes.

The two advection stencils come in two parts, so a sweep computes the
part that depends only on a velocity once per velocity field: the
upwind first derivative is :func:`upwind_sources` (which difference
each node reads) then :func:`upwind_difference`, and the donor-cell
flux divergence is :func:`donor_cell_faces` (the upwind interface
velocities) then :func:`donor_cell_divergence`.

:func:`central_gradient` acts on one 2-D ``(n_h, n_q)`` field; the
reporting helpers use it to read ``d_q V`` off a solved value sheet.
"""

from __future__ import annotations

from typing import NamedTuple

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


def _along(axis: int, start, stop) -> tuple:
    """An index tuple slicing ``[start:stop]`` along a spatial axis."""
    index = slice(start, stop)
    return (Ellipsis, index) if axis == 1 else (Ellipsis, index, slice(None))


class _Sides(NamedTuple):
    """The slices the stencils take along one spatial axis."""

    low: tuple  # [:-1], the low cell of every interface
    high: tuple  # [1:], the high cell of every interface
    inner: tuple  # [1:-1]
    low2: tuple  # [:-2]
    high2: tuple  # [2:]
    first: tuple  # [:1]
    second: tuple  # [1:2]
    penult: tuple  # [-2:-1]
    last: tuple  # [-1:]


_SIDES = {
    axis: _Sides(
        low=_along(axis, None, -1),
        high=_along(axis, 1, None),
        inner=_along(axis, 1, -1),
        low2=_along(axis, None, -2),
        high2=_along(axis, 2, None),
        first=_along(axis, None, 1),
        second=_along(axis, 1, 2),
        penult=_along(axis, -2, -1),
        last=_along(axis, -1, None),
    )
    for axis in (0, 1)
}


def _sides(axis: int) -> _Sides:
    """The slices along spatial ``axis`` (0 = fading, 1 = cache)."""
    try:
        return _SIDES[axis]
    except (KeyError, TypeError):
        raise ValueError(f"axis must be 0 or 1, got {axis}") from None


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


def upwind_sources(velocity: np.ndarray, n: int, axis: int) -> np.ndarray:
    """The interface difference each node reads, upwinded by ``velocity``.

    For positive velocity information flows from lower indices, so node
    ``i`` reads the backward difference ``i - 1``; otherwise the
    forward difference ``i``.  Boundary nodes fall back to the
    available one-sided difference.  ``velocity`` broadcasts against
    the field; the indices have the broadcast of its shape and the
    ``n`` nodes along ``axis``.  They depend on the velocity's sign
    alone, so a sweep with a fixed velocity computes them once.
    """
    _sides(axis)
    v = np.asarray(velocity, dtype=float)
    node = np.arange(n).reshape((n, 1) if axis == 0 else (n,))
    return np.clip(node - (v > 0), 0, n - 2)


def upwind_difference(
    field: np.ndarray, spacing, sources: np.ndarray, axis: int
) -> np.ndarray:
    """Upwinded first derivative of ``(B, n_h, n_q)`` lanes.

    Each node takes the interface difference :func:`upwind_sources`
    names.  Sources that vary along ``axis`` only (a velocity shared by
    the lanes and the other axis) are one gather.
    """
    field = _check_batched("field", field)
    spacing = _batched_spacing(spacing, field.shape[0])
    sides = _sides(axis)
    diff = np.subtract(field[sides.high], field[sides.low])
    diff /= spacing
    if sources.size == sources.shape[axis - 2]:
        return np.take(diff, sources.reshape(-1), axis=axis + 1)
    index = sources.reshape((1,) * (3 - sources.ndim) + sources.shape)
    return np.take_along_axis(diff, index, axis=axis + 1)


def batched_second_derivative(field: np.ndarray, spacing, axis: int) -> np.ndarray:
    """Central second derivative over ``(B, n_h, n_q)`` lanes.

    Boundaries are reflected (Neumann): the ghost node mirrors the
    first interior node.
    """
    field = _check_batched("field", field)
    spacing = _batched_spacing(spacing, field.shape[0])
    sides = _sides(axis)
    s2 = spacing * spacing
    lap = np.empty_like(field)
    inner = lap[sides.inner]
    np.multiply(2.0, field[sides.inner], out=inner)
    np.subtract(field[sides.high2], inner, out=inner)
    inner += field[sides.low2]
    inner /= s2
    lap[sides.first] = 2.0 * (field[sides.second] - field[sides.first]) / s2
    lap[sides.last] = 2.0 * (field[sides.penult] - field[sides.last]) / s2
    return lap


def _face_fluxes(shape, axis: int):
    """A face-flux array for ``(B, n_h, n_q)`` fields: ``n + 1`` faces along ``axis``.

    The two boundary faces are zero (no flux leaves the domain).
    Returns the array and the view of its ``n - 1`` interior faces,
    which the caller fills.
    """
    sides = _sides(axis)
    ax = axis + 1
    faces = np.empty(shape[:ax] + (shape[ax] + 1,) + shape[ax + 1 :])
    faces[sides.first] = 0.0
    faces[sides.last] = 0.0
    return faces, faces[sides.inner]


def _flux_divergence(fluxes: np.ndarray, axis: int) -> np.ndarray:
    """``F_{i+1/2} - F_{i-1/2}`` per node from its two faces."""
    sides = _sides(axis)
    return np.subtract(fluxes[sides.high], fluxes[sides.low])


def donor_cell_faces(velocity: np.ndarray, axis: int):
    """Upwind parts ``(v_f^+, v_f^-)`` of the interface velocities along an axis.

    ``v_f = (v_i + v_{i+1}) / 2`` between consecutive cells.
    ``velocity`` needs its full extent along ``axis`` and broadcasts
    over the rest (a shared ``(n_h, 1)`` profile or per-lane tables
    alike).  The faces depend on the velocity alone, so a sweep
    computes them once per velocity field, not once per step.
    """
    sides = _sides(axis)
    v = np.asarray(velocity, dtype=float)
    v_face = v[sides.low] + v[sides.high]
    v_face *= 0.5
    return np.maximum(v_face, 0.0), np.minimum(v_face, 0.0)


def donor_cell_divergence(density: np.ndarray, faces, spacing, axis: int) -> np.ndarray:
    """``-d(v * rho)/dx`` over ``(B, n_h, n_q)`` lanes from :func:`donor_cell_faces`.

    The interface flux between cells ``i`` and ``i+1`` is
    ``F = v_f^+ rho_i + v_f^- rho_{i+1}``; the boundary fluxes are
    zero, so each lane's update sums to zero and its total mass is
    conserved.
    """
    density = _check_batched("density", density)
    spacing = _batched_spacing(spacing, density.shape[0])
    sides = _sides(axis)
    plus, minus = faces
    fluxes, flux = _face_fluxes(density.shape, axis)
    np.multiply(plus, density[sides.low], out=flux)
    flux += minus * density[sides.high]
    update = _flux_divergence(fluxes, axis)
    np.negative(update, out=update)
    update /= spacing
    return update


def batched_conservative_diffusion(
    density: np.ndarray, diffusivity: float, spacing, axis: int
) -> np.ndarray:
    """``d/dx ( D d(rho)/dx )`` over ``(B, n_h, n_q)`` lanes, zero-flux boundaries."""
    density = _check_batched("density", density)
    spacing = _batched_spacing(spacing, density.shape[0])
    if diffusivity < 0:
        raise ValueError(f"diffusivity must be non-negative, got {diffusivity}")
    sides = _sides(axis)
    fluxes, flux = _face_fluxes(density.shape, axis)
    np.subtract(density[sides.high], density[sides.low], out=flux)
    flux /= spacing
    flux *= diffusivity
    update = _flux_divergence(fluxes, axis)
    update /= spacing
    return update


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
