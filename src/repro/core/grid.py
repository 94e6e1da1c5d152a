"""Discretised state space for the HJB/FPK finite-difference solvers.

The generic EDP state of the mean-field game is
``S_k(t) = (h(t), q_k(t))``; both PDEs (Eqs. (15) and (20)) act on the
rectangle ``[h_min, h_max] x [0, Q_k]`` of each content.
:class:`BatchGrid` owns the axes, spacings, meshes, and quadrature
weights every solver shares; a single content's grid is its one-lane
case.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence, Tuple, Union

import numpy as np


@dataclass(frozen=True)
class BatchGrid:
    """Tensor grid over ``(t, h, q)`` for a stack of content lanes.

    The solvers carry the content axis as a leading numpy dimension:
    spatial fields are shaped ``(B, n_h, n_q)`` and time paths
    ``(B, n_t + 1, n_h, n_q)``, one lane per content.  All lanes share
    the time and fading axes (the wireless channel is common to every
    content); each lane owns its cache axis ``[0, Q_k]`` because
    content sizes differ.

    A single content's grid is a one-lane grid.  Its results hold the
    lane's arrays without the lane axis (sheets ``(n_h, n_q)``, paths
    ``(n_t + 1, n_h, n_q)``), and the one-content lookups
    (:meth:`locate`, :meth:`interp_weights`, :meth:`marginal_q`,
    :meth:`normalize_sheet`) read its only lane.

    Every batched reduction (:meth:`integrate`, :meth:`normalize`) is
    elementwise along the lane axis, so a lane's result does not
    depend on the other lanes.

    Attributes
    ----------
    t:
        Shared time axis, shape ``(n_t + 1,)``, strictly increasing
        from 0.
    h:
        Shared fading axis, shape ``(n_h,)``.
    q:
        Per-lane cache axes, shape ``(B, n_q)``.
    """

    t: np.ndarray
    h: np.ndarray
    q: np.ndarray

    def __post_init__(self) -> None:
        t = np.asarray(self.t, dtype=float)
        h = np.asarray(self.h, dtype=float)
        q = np.asarray(self.q, dtype=float)
        for name, axis in (("t", t), ("h", h)):
            if axis.ndim != 1 or axis.shape[0] < 2:
                raise ValueError(f"axis {name} must be 1-D with >= 2 points")
        if q.ndim != 2 or q.shape[0] < 1 or q.shape[1] < 2:
            raise ValueError(
                f"q must be (n_lanes, n_q) with n_q >= 2, got shape {q.shape}"
            )
        for name, steps in (
            ("t", np.diff(t)),
            ("h", np.diff(h)),
            ("q", np.diff(q, axis=1)),
        ):
            if np.any(steps <= 0):
                raise ValueError(f"axis {name} must be strictly increasing")
            if not np.allclose(steps, steps[..., :1]):
                raise ValueError(f"axis {name} must be uniform")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "q", q)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def regular(
        cls,
        horizon: float,
        n_time_steps: int,
        h_bounds: Tuple[float, float],
        n_h: int,
        q_max: Union[float, Sequence[float]],
        n_q: int,
    ) -> "BatchGrid":
        """Uniform grid over ``[0, T] x h_bounds x [0, Q_k]``.

        ``q_max`` holds each lane's ``Q_k``; a single value makes a
        one-lane grid.
        """
        q_max = np.atleast_1d(np.asarray(q_max, dtype=float))
        if horizon <= 0:
            raise ValueError(f"horizon must be positive, got {horizon}")
        if q_max.ndim != 1 or np.any(q_max <= 0):
            raise ValueError(f"q_max must be positive, got {q_max}")
        h_lo, h_hi = h_bounds
        if h_hi <= h_lo:
            raise ValueError(f"empty h range [{h_lo}, {h_hi}]")
        return cls(
            t=np.linspace(0.0, horizon, n_time_steps + 1),
            h=np.linspace(h_lo, h_hi, n_h),
            q=np.stack([np.linspace(0.0, float(size), n_q) for size in q_max]),
        )

    def indices(self, lanes: Optional[Sequence[int]] = None) -> np.ndarray:
        """Lane indices as an int array: ``lanes``, or every lane."""
        if lanes is None:
            return np.arange(self.n_lanes)
        return np.asarray(lanes, int)

    def select(self, lanes: Sequence[int]) -> "BatchGrid":
        """A sub-batch restricted to the given lane indices."""
        return BatchGrid(t=self.t, h=self.h, q=self.q[np.asarray(lanes)])

    # ------------------------------------------------------------------
    # Shape and spacing
    # ------------------------------------------------------------------
    @property
    def n_lanes(self) -> int:
        return self.q.shape[0]

    @property
    def n_t(self) -> int:
        """Number of time steps (time axis has ``n_t + 1`` points)."""
        return self.t.shape[0] - 1

    @property
    def n_h(self) -> int:
        return self.h.shape[0]

    @property
    def n_q(self) -> int:
        return self.q.shape[1]

    @property
    def dt(self) -> float:
        return float(self.t[1] - self.t[0])

    @property
    def dh(self) -> float:
        return float(self.h[1] - self.h[0])

    @property
    def dq(self) -> np.ndarray:
        """Per-lane cache spacing, shape ``(B,)``."""
        return self.q[:, 1] - self.q[:, 0]

    @property
    def shape(self) -> Tuple[int, int, int]:
        """Batched spatial field shape ``(B, n_h, n_q)``."""
        return (self.n_lanes, self.n_h, self.n_q)

    @property
    def path_shape(self) -> Tuple[int, int, int, int]:
        """Batched time-path shape ``(B, n_t + 1, n_h, n_q)``."""
        return (self.n_lanes, self.n_t + 1, self.n_h, self.n_q)

    # ------------------------------------------------------------------
    # Meshes and quadrature
    # ------------------------------------------------------------------
    def q_mesh(self) -> np.ndarray:
        """Per-lane ``q`` broadcast over the batched spatial shape."""
        return np.broadcast_to(self.q[:, None, :], self.shape)

    def h_mesh(self) -> np.ndarray:
        """Shared ``h`` broadcast over the batched spatial shape."""
        return np.broadcast_to(self.h[None, :, None], self.shape)

    def _h_weights(self) -> np.ndarray:
        wh = np.full(self.n_h, self.dh)
        wh[0] = wh[-1] = 0.5 * self.dh
        return wh

    def cell_weights(self) -> np.ndarray:
        """Per-lane trapezoid weights over ``(h, q)``, shape ``(B, n_h, n_q)``.

        The shared ``wh`` factor multiplies each lane's own ``wq``.
        """
        dq = self.dq
        wq = np.broadcast_to(dq[:, None], (self.n_lanes, self.n_q)).copy()
        wq[:, 0] = 0.5 * dq
        wq[:, -1] = 0.5 * dq
        return self._h_weights()[None, :, None] * wq[:, None, :]

    @cached_property
    def _weights(self) -> np.ndarray:
        # Built once per grid: the FPK sweep renormalises every substep.
        return self.cell_weights()

    def integrate(self, fields: np.ndarray) -> np.ndarray:
        """Per-lane ``\\int\\int field dh dq``, shape ``(B,)``."""
        fields = np.asarray(fields, dtype=float)
        if fields.shape != self.shape:
            raise ValueError(
                f"fields shape {fields.shape} does not match batch {self.shape}"
            )
        return (fields * self._weights).sum(axis=(1, 2))

    def normalize(
        self,
        density: np.ndarray,
        telemetry=None,
        content_ids: Optional[Sequence[int]] = None,
    ) -> np.ndarray:
        """Rescale every lane to unit mass.

        A zero-mass lane raises :class:`ValueError` naming the offending
        content; with enabled telemetry a ``diag.density.zero_mass``
        event carrying ``content=<index>`` is emitted first, so a
        strict-numerics abort identifies the lane that died.
        """
        density = np.asarray(density, dtype=float)
        if np.any(density < -1e-12):
            raise ValueError("density must be non-negative")
        return self.rescale_mass(np.maximum(density, 0.0), telemetry, content_ids)

    def rescale_mass(
        self,
        density: np.ndarray,
        telemetry=None,
        content_ids: Optional[Sequence[int]] = None,
    ) -> np.ndarray:
        """Rescale every lane of a non-negative ``density`` to unit mass.

        :meth:`normalize` without its sign check and clip, for callers
        that have clipped already; a zero-mass lane raises as there.
        """
        mass = self.integrate(density)
        if np.any(mass <= 0):
            bad = int(np.flatnonzero(mass <= 0)[0])
            content = int(content_ids[bad]) if content_ids is not None else bad
            message = (
                f"content {content}: density has zero mass; cannot normalise"
            )
            if telemetry is not None and getattr(telemetry, "enabled", False):
                telemetry.diag(
                    "density.zero_mass",
                    "error",
                    value=float(mass[bad]),
                    message=message,
                    content=content,
                )
            raise ValueError(message)
        return density / mass[:, None, None]

    # ------------------------------------------------------------------
    # One-content lookups (one-lane grids)
    # ------------------------------------------------------------------
    def _lane_q(self) -> Tuple[np.ndarray, float]:
        """The cache axis and spacing of a one-lane grid."""
        if self.n_lanes != 1:
            raise ValueError(
                f"a one-content lookup needs a one-lane grid, got {self.n_lanes} lanes"
            )
        q = self.q[0]
        return q, float(q[1] - q[0])

    def _check_sheet(self, density: np.ndarray) -> np.ndarray:
        self._lane_q()
        density = np.asarray(density, dtype=float)
        if density.shape != self.shape[1:]:
            raise ValueError(
                f"density shape {density.shape} does not match grid {self.shape[1:]}"
            )
        return density

    def normalize_sheet(self, density: np.ndarray) -> np.ndarray:
        """Rescale a non-negative ``(n_h, n_q)`` sheet to unit mass.

        The trapezoid sum runs over the 2-D sheet itself.
        """
        density = self._check_sheet(density)
        if np.any(density < -1e-12):
            raise ValueError("density must be non-negative")
        density = np.maximum(density, 0.0)
        mass = float((density * self._weights[0]).sum())
        if mass <= 0:
            raise ValueError("density has zero mass; cannot normalise")
        return density / mass

    def marginal_q(self, density: np.ndarray) -> np.ndarray:
        """Marginal density over ``q`` of a sheet (integrating out ``h``)."""
        density = self._check_sheet(density)
        return (density * self._h_weights()[:, None]).sum(axis=0)

    def nearest_time_index(self, t: float) -> int:
        """Index of the reporting time closest to ``t``."""
        return int(np.argmin(np.abs(self.t - t)))

    def locate(self, h: float, q: float) -> Tuple[int, int]:
        """Nearest grid indices for a state ``(h, q)``."""
        q_axis, dq = self._lane_q()
        return (
            int(np.clip(np.rint((h - self.h[0]) / self.dh), 0, self.n_h - 1)),
            int(np.clip(np.rint((q - q_axis[0]) / dq), 0, self.n_q - 1)),
        )

    def interp_weights(self, h, q):
        """Lower-corner indices and fractional offsets for bilinear lookup.

        ``h`` and ``q`` are scalars or arrays of one shape; states off
        the grid clamp to its boundary.
        """
        q_axis, dq = self._lane_q()
        fh = np.clip((h - self.h[0]) / self.dh, 0.0, self.n_h - 1 - 1e-12)
        fq = np.clip((q - q_axis[0]) / dq, 0.0, self.n_q - 1 - 1e-12)
        ih, iq = fh.astype(int), fq.astype(int)
        return ih, iq, fh - ih, fq - iq
