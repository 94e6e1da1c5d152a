"""Finite-difference operators for the HJB/FPK solvers.

Section V-A: "we employ the finite difference method to numerically
solve the coupled HJB and FPK equations."  Two flavours are needed:

* **Non-conservative** operators for the HJB equation (Eq. (20)):
  upwind first derivatives selected by the sign of the local drift and
  central second derivatives, with reflected (Neumann) closures at
  the boundary.
* **Conservative** operators for the FPK equation (Eq. (15)): the
  advection term is written as a flux divergence with donor-cell
  upwinding and *zero-flux* boundaries, and the diffusion term likewise
  as the divergence of ``D * grad(rho)`` with zero boundary flux — this
  keeps total probability mass exactly conserved, which the property
  tests assert.

The sweeps act on a stack of fields shaped ``(B, n_h, n_q)`` — one
lane per content, a single content being the batch of one — and lane
``b`` of every output depends on lane ``b`` of the input alone.

Every term whose coefficients stay fixed during a solve (the fading
advection and both diffusions) is a tridiagonal stencil along one
axis.  Each is written as its three bands (:func:`upwind_bands`,
:func:`donor_cell_bands`, :func:`neumann_bands`,
:func:`zero_flux_bands`), and :class:`KroneckerSum` assembles a
fading-axis and a cache-axis stencil into one sparse operator that a
sweep applies with one product per step.  The cache-axis ``q``
advection follows the policy, so it stays a stencil:
:func:`donor_cell_faces` (the upwind interface velocities, once per
velocity field) then :func:`donor_cell_divergence`.

:func:`central_gradient` acts on one 2-D ``(n_h, n_q)`` field; the
reporting helpers use it to read ``d_q V`` off a solved value sheet.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse


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


def upwind_bands(velocity: np.ndarray, spacing: float) -> np.ndarray:
    """Bands of the first derivative upwinded by a 1-D ``velocity``.

    For positive velocity information flows from lower indices, so
    node ``i`` takes the backward difference; otherwise the forward
    difference.  Boundary nodes fall back to the available one-sided
    difference.  Returns the ``(3, n)`` bands: the coefficients of
    nodes ``i - 1``, ``i`` and ``i + 1`` in row ``i``.
    """
    v = np.asarray(velocity, dtype=float).reshape(-1)
    if spacing <= 0:
        raise ValueError(f"spacing must be positive, got {spacing}")
    node = np.arange(v.size)
    # Node i reads the interface difference (f[k + 1] - f[k]) / dx,
    # k = i - 1 or i; band row r holds the coefficient of node i + r - 1.
    k = np.clip(node - (v > 0), 0, v.size - 2)
    bands = np.zeros((3, v.size))
    bands[k - node + 1, node] = -1.0 / spacing
    bands[k - node + 2, node] = 1.0 / spacing
    return bands


def neumann_bands(n: int) -> np.ndarray:
    """Bands of the unit-spacing central second difference, reflected ends.

    The ghost node mirrors the first interior node, so the end rows
    read ``2 (f[1] - f[0])`` and ``2 (f[n - 2] - f[n - 1])``.
    """
    bands = np.array([np.ones(n), np.full(n, -2.0), np.ones(n)])
    bands[2, 0] = 2.0
    bands[0, -1] = 2.0
    return bands


def zero_flux_bands(n: int) -> np.ndarray:
    """Bands of the unit-spacing conservative second difference.

    ``(F_{i+1/2} - F_{i-1/2})`` with ``F_{i+1/2} = f[i + 1] - f[i]`` on
    interior faces and no flux through the two end faces, so every
    column sums to zero and the update conserves mass.
    """
    bands = np.array([np.ones(n), np.full(n, -2.0), np.ones(n)])
    bands[1, 0] = bands[1, -1] = -1.0
    return bands


def donor_cell_faces(velocity: np.ndarray):
    """Upwind parts ``(v_f^+, v_f^-)`` of the interface velocities.

    ``v_f = (v_i + v_{i+1}) / 2`` between consecutive cells along the
    last axis: the cache axis of per-lane ``(B, n_h, n_q)`` drift
    tables, or a 1-D profile.  The faces depend on the velocity alone,
    so a sweep computes them once per velocity field, not once per
    step.
    """
    v = np.asarray(velocity, dtype=float)
    v_face = v[..., :-1] + v[..., 1:]
    v_face *= 0.5
    return np.maximum(v_face, 0.0), np.minimum(v_face, 0.0)


def donor_cell_bands(faces, spacing: float) -> np.ndarray:
    """Bands of ``-d(v * rho)/dx`` from 1-D :func:`donor_cell_faces`.

    The flux through face ``i + 1/2`` is ``v_f^+ rho_i + v_f^- rho_{i+1}``
    and the two end faces carry none, so every column sums to zero.
    """
    if spacing <= 0:
        raise ValueError(f"spacing must be positive, got {spacing}")
    plus, minus = (np.asarray(f, dtype=float).reshape(-1) for f in faces)
    # Face k lies between nodes k - 1 and k; faces 0 and n are closed.
    plus = np.concatenate(([0.0], plus, [0.0]))
    minus = np.concatenate(([0.0], minus, [0.0]))
    return np.array([plus[:-1], minus[:-1] - plus[1:], -minus[1:]]) / spacing


def donor_cell_divergence(density: np.ndarray, faces, spacing) -> np.ndarray:
    """``-d(v * rho)/dq`` over ``(B, n_h, n_q)`` lanes from :func:`donor_cell_faces`.

    The cache-axis interface flux between cells ``j`` and ``j+1`` is
    ``F = v_f^+ rho_j + v_f^- rho_{j+1}``; the boundary fluxes are
    zero, so each lane's update sums to zero and its total mass is
    conserved.  ``spacing`` is shared or per lane.
    """
    density = _check_batched("density", density)
    spacing = _batched_spacing(spacing, density.shape[0])
    plus, minus = faces
    fluxes = np.empty(density.shape[:2] + (density.shape[2] + 1,))
    fluxes[..., 0] = 0.0
    fluxes[..., -1] = 0.0
    flux = fluxes[..., 1:-1]
    np.multiply(plus, density[..., :-1], out=flux)
    flux += minus * density[..., 1:]
    update = np.subtract(fluxes[..., 1:], fluxes[..., :-1])
    np.negative(update, out=update)
    update /= spacing
    return update


def _band_rows(bands: np.ndarray, n_h: int, n_q: int, axis: int):
    """CSR rows of a tridiagonal stencil along one axis of the flat grid.

    Node ``(i, j)`` sits at flat index ``i n_q + j``; the stencil acts
    along ``axis`` and as the identity along the other.  Band entries
    that would reach past either end are dropped.  Returns the
    ``data``, ``indices`` and per-row entry counts, rows in order and
    columns ascending within each row.
    """
    n, stride = (n_h, n_q) if axis == 0 else (n_q, 1)
    shape = (n_h, n_q, 3)
    offsets = np.arange(-1, 2)
    node = np.arange(n).reshape((n, 1, 1) if axis == 0 else (1, n, 1))
    keep = np.broadcast_to((node + offsets >= 0) & (node + offsets < n), shape)
    index = np.arange(n_h * n_q).reshape(n_h, n_q, 1)
    cols = np.broadcast_to(index + stride * offsets, shape)
    data = np.broadcast_to(np.expand_dims(bands.T, 1 - axis), shape)
    return data[keep], cols[keep], keep.sum(axis=2).reshape(-1)


class KroneckerSum:
    """``A_h (x) I_q + s_b I_h (x) S_q`` on ``(B, n_h, n_q)`` lanes.

    ``A_h`` is a tridiagonal stencil along the fading axis, shared by
    every lane; ``S_q`` is one along the cache axis, scaled per lane by
    ``s_b`` (each content's cache axis has its own spacing).  Both are
    assembled once, stacked into one ``(2 N, N)`` CSR matrix with
    ``N = n_h n_q``, so applying the operator to any lane subset is one
    sparse product over the ``(N, b)`` lane columns plus the per-lane
    scaling: no lane subset needs an assembly of its own, and lane
    ``b`` of the output depends on lane ``b`` of the input alone.  One
    lane is the ``(N, 1)`` case of the same product.
    """

    def __init__(self, h_bands: np.ndarray, q_bands: np.ndarray) -> None:
        h_bands = np.asarray(h_bands, dtype=float)
        q_bands = np.asarray(q_bands, dtype=float)
        n_h, n_q = h_bands.shape[1], q_bands.shape[1]
        self.size = n = n_h * n_q
        h_data, h_cols, h_counts = _band_rows(h_bands, n_h, n_q, axis=0)
        q_data, q_cols, q_counts = _band_rows(q_bands, n_h, n_q, axis=1)
        indptr = np.concatenate(([0], np.cumsum(np.concatenate((h_counts, q_counts)))))
        self.matrix = sparse.csr_matrix(
            (np.concatenate((h_data, q_data)), np.concatenate((h_cols, q_cols)), indptr),
            shape=(2 * n, n),
        )

    def add_to(
        self, out: np.ndarray, field: np.ndarray, q_scale: np.ndarray
    ) -> np.ndarray:
        """Add the operator applied to every lane of ``field`` into ``out``.

        ``out`` is a C-ordered array shaped like ``field``,
        ``(b, n_h, n_q)``; ``q_scale`` holds the lanes' cache-axis
        factors ``s_b``, an array of shape ``(b,)`` or ``(b, 1, 1)``.
        The sparse product comes back lane-fastest; adding it into a
        C-ordered ``out`` keeps every later reduction over a lane's
        cells independent of its batch.  Returns ``out``.
        """
        if out.shape != field.shape or not out.flags.c_contiguous:
            raise ValueError(
                f"out must be a C-ordered array of shape {field.shape}"
            )
        b = field.shape[0]
        n = self.size
        product = self.matrix @ field.reshape(b, n).T
        lanes = product[n:]
        lanes *= q_scale.reshape(b)
        lanes += product[:n]
        out += lanes.T.reshape(out.shape)
        return out


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
