"""Discretised state space for the HJB/FPK finite-difference solvers.

The generic EDP state of the mean-field game is
``S_k(t) = (h(t), q_k(t))``; both PDEs (Eqs. (15) and (20)) act on the
rectangle ``[h_min, h_max] x [0, Q_k]``.  :class:`StateGrid` owns the
axes, spacings, meshes, and quadrature weights every solver shares.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import List, Optional, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class StateGrid:
    """Tensor grid over ``(t, h, q)``.

    Grid fields are indexed ``field[h_index, q_index]`` and time paths
    ``path[t_index, h_index, q_index]``.

    Parameters
    ----------
    t:
        Time axis, shape ``(n_t + 1,)``, strictly increasing from 0.
    h:
        Fading axis, shape ``(n_h,)``.
    q:
        Remaining-space axis, shape ``(n_q,)``, spanning ``[0, Q_k]``.
    """

    t: np.ndarray
    h: np.ndarray
    q: np.ndarray

    def __post_init__(self) -> None:
        for name, axis in (("t", self.t), ("h", self.h), ("q", self.q)):
            axis = np.asarray(axis, dtype=float)
            if axis.ndim != 1 or axis.shape[0] < 2:
                raise ValueError(f"axis {name} must be 1-D with >= 2 points")
            if np.any(np.diff(axis) <= 0):
                raise ValueError(f"axis {name} must be strictly increasing")
            object.__setattr__(self, name, axis)
        if not np.allclose(np.diff(self.t), self.dt):
            raise ValueError("time axis must be uniform")
        if not np.allclose(np.diff(self.h), self.dh):
            raise ValueError("h axis must be uniform")
        if not np.allclose(np.diff(self.q), self.dq):
            raise ValueError("q axis must be uniform")

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def regular(
        cls,
        horizon: float,
        n_time_steps: int,
        h_bounds: Tuple[float, float],
        n_h: int,
        q_max: float,
        n_q: int,
    ) -> "StateGrid":
        """Uniform grid over ``[0, T] x h_bounds x [0, q_max]``."""
        if horizon <= 0:
            raise ValueError(f"horizon must be positive, got {horizon}")
        if q_max <= 0:
            raise ValueError(f"q_max must be positive, got {q_max}")
        h_lo, h_hi = h_bounds
        if h_hi <= h_lo:
            raise ValueError(f"empty h range [{h_lo}, {h_hi}]")
        return cls(
            t=np.linspace(0.0, horizon, n_time_steps + 1),
            h=np.linspace(h_lo, h_hi, n_h),
            q=np.linspace(0.0, q_max, n_q),
        )

    # ------------------------------------------------------------------
    # Shape and spacing
    # ------------------------------------------------------------------
    @property
    def n_t(self) -> int:
        """Number of time steps (time axis has ``n_t + 1`` points)."""
        return self.t.shape[0] - 1

    @property
    def n_h(self) -> int:
        return self.h.shape[0]

    @property
    def n_q(self) -> int:
        return self.q.shape[0]

    @property
    def dt(self) -> float:
        return float(self.t[1] - self.t[0])

    @property
    def dh(self) -> float:
        return float(self.h[1] - self.h[0])

    @property
    def dq(self) -> float:
        return float(self.q[1] - self.q[0])

    @property
    def shape(self) -> Tuple[int, int]:
        """Spatial field shape ``(n_h, n_q)``."""
        return (self.n_h, self.n_q)

    @property
    def path_shape(self) -> Tuple[int, int, int]:
        """Time-path shape ``(n_t + 1, n_h, n_q)``."""
        return (self.n_t + 1, self.n_h, self.n_q)

    # ------------------------------------------------------------------
    # Meshes
    # ------------------------------------------------------------------
    def h_mesh(self) -> np.ndarray:
        """``h`` broadcast over the spatial shape (column-constant)."""
        return np.broadcast_to(self.h[:, None], self.shape)

    def q_mesh(self) -> np.ndarray:
        """``q`` broadcast over the spatial shape (row-constant)."""
        return np.broadcast_to(self.q[None, :], self.shape)

    # ------------------------------------------------------------------
    # Quadrature
    # ------------------------------------------------------------------
    def cell_weights(self) -> np.ndarray:
        """Trapezoid quadrature weights over the ``(h, q)`` rectangle."""
        wh = np.full(self.n_h, self.dh)
        wh[0] = wh[-1] = 0.5 * self.dh
        wq = np.full(self.n_q, self.dq)
        wq[0] = wq[-1] = 0.5 * self.dq
        return np.outer(wh, wq)

    def integrate(self, grid_field: np.ndarray) -> float:
        """``\\int\\int field dh dq`` by the trapezoid rule."""
        grid_field = np.asarray(grid_field, dtype=float)
        if grid_field.shape != self.shape:
            raise ValueError(
                f"field shape {grid_field.shape} does not match grid {self.shape}"
            )
        return float((grid_field * self.cell_weights()).sum())

    def normalize(self, density: np.ndarray, telemetry=None) -> np.ndarray:
        """Rescale a non-negative field to unit mass.

        ``telemetry`` (a :class:`repro.obs.telemetry.SolverTelemetry`,
        duck-typed to keep this module dependency-free) receives a
        ``diag.density.zero_mass`` event before the zero-mass
        ``ValueError`` is raised, so a dying FPK sweep leaves its cause
        in the event stream.
        """
        density = np.asarray(density, dtype=float)
        if np.any(density < -1e-12):
            raise ValueError("density must be non-negative")
        density = np.maximum(density, 0.0)
        mass = self.integrate(density)
        if mass <= 0:
            if telemetry is not None and getattr(telemetry, "enabled", False):
                telemetry.diag(
                    "density.zero_mass",
                    "error",
                    value=float(mass),
                    message="density has zero mass; cannot normalise",
                )
            raise ValueError("density has zero mass; cannot normalise")
        return density / mass

    def expectation(self, density: np.ndarray, grid_field: np.ndarray) -> float:
        """``E_density[field]`` with both arguments on the grid."""
        return self.integrate(np.asarray(density) * np.asarray(grid_field))

    def marginal_q(self, density: np.ndarray) -> np.ndarray:
        """Marginal density over ``q`` (integrating out ``h``)."""
        density = np.asarray(density, dtype=float)
        if density.shape != self.shape:
            raise ValueError(
                f"density shape {density.shape} does not match grid {self.shape}"
            )
        wh = np.full(self.n_h, self.dh)
        wh[0] = wh[-1] = 0.5 * self.dh
        return (density * wh[:, None]).sum(axis=0)

    def marginal_h(self, density: np.ndarray) -> np.ndarray:
        """Marginal density over ``h`` (integrating out ``q``)."""
        density = np.asarray(density, dtype=float)
        if density.shape != self.shape:
            raise ValueError(
                f"density shape {density.shape} does not match grid {self.shape}"
            )
        wq = np.full(self.n_q, self.dq)
        wq[0] = wq[-1] = 0.5 * self.dq
        return (density * wq[None, :]).sum(axis=1)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def nearest_time_index(self, t: float) -> int:
        """Index of the reporting time closest to ``t``."""
        return int(np.argmin(np.abs(self.t - t)))

    def locate(self, h: float, q: float) -> Tuple[int, int]:
        """Nearest grid indices for a state ``(h, q)``."""
        return (
            int(np.clip(np.rint((h - self.h[0]) / self.dh), 0, self.n_h - 1)),
            int(np.clip(np.rint((q - self.q[0]) / self.dq), 0, self.n_q - 1)),
        )

    def interp_weights(self, h: float, q: float) -> Tuple[int, int, float, float]:
        """Lower-corner indices and fractional offsets for bilinear lookup."""
        fh = np.clip((h - self.h[0]) / self.dh, 0.0, self.n_h - 1 - 1e-12)
        fq = np.clip((q - self.q[0]) / self.dq, 0.0, self.n_q - 1 - 1e-12)
        ih, iq = int(fh), int(fq)
        return ih, iq, float(fh - ih), float(fq - iq)


@dataclass(frozen=True)
class BatchGrid:
    """A stack of per-content :class:`StateGrid` lanes.

    The batched solvers carry the content axis as a leading numpy
    dimension: spatial fields are shaped ``(B, n_h, n_q)`` and time
    paths ``(B, n_t + 1, n_h, n_q)``, one lane per content.  All lanes
    share the time and fading axes (the wireless channel is common to
    every content); each lane owns its cache axis ``[0, Q_k]`` because
    content sizes differ.

    Every reduction (:meth:`integrate`, :meth:`normalize`) is
    elementwise along the batch axis, so lane ``b`` behaves
    bit-identically to the same operation on :meth:`lane`\\ ``(b)``.

    Attributes
    ----------
    t:
        Shared time axis, shape ``(n_t + 1,)``.
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
        if t.ndim != 1 or t.shape[0] < 2:
            raise ValueError("axis t must be 1-D with >= 2 points")
        if h.ndim != 1 or h.shape[0] < 2:
            raise ValueError("axis h must be 1-D with >= 2 points")
        if q.ndim != 2 or q.shape[0] < 1 or q.shape[1] < 2:
            raise ValueError(
                f"q must be (n_lanes, n_q) with n_q >= 2, got shape {q.shape}"
            )
        if np.any(np.diff(q, axis=1) <= 0):
            raise ValueError("every lane's q axis must be strictly increasing")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "q", q)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_grids(cls, grids: Sequence[StateGrid]) -> "BatchGrid":
        """Stack per-content grids that share their ``t`` and ``h`` axes."""
        grids = list(grids)
        if not grids:
            raise ValueError("cannot batch zero grids")
        first = grids[0]
        for i, grid in enumerate(grids[1:], start=1):
            if not np.array_equal(grid.t, first.t):
                raise ValueError(f"lane {i} has a different time axis")
            if not np.array_equal(grid.h, first.h):
                raise ValueError(f"lane {i} has a different fading axis")
            if grid.n_q != first.n_q:
                raise ValueError(
                    f"lane {i} has n_q={grid.n_q}, lane 0 has n_q={first.n_q}"
                )
        return cls(t=first.t, h=first.h, q=np.stack([g.q for g in grids]))

    def lane(self, index: int) -> StateGrid:
        """The scalar :class:`StateGrid` of one content lane."""
        return StateGrid(t=self.t, h=self.h, q=self.q[index])

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

    def cell_weights(self) -> np.ndarray:
        """Per-lane trapezoid weights, shape ``(B, n_h, n_q)``.

        Lane ``b`` equals ``lane(b).cell_weights()`` bit-for-bit: the
        shared ``wh`` factor multiplies each lane's own ``wq``.
        """
        wh = np.full(self.n_h, self.dh)
        wh[0] = wh[-1] = 0.5 * self.dh
        dq = self.dq
        wq = np.broadcast_to(dq[:, None], (self.n_lanes, self.n_q)).copy()
        wq[:, 0] = 0.5 * dq
        wq[:, -1] = 0.5 * dq
        return wh[None, :, None] * wq[:, None, :]

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
