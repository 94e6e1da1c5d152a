"""Optimal caching strategy, Theorem 1 / Eq. (21).

The Hamiltonian of Eq. (20) is strictly concave in the control ``x``
(the quadratic placement cost dominates), so the maximiser has the
closed form

    x*(t) = clip( -( w4 / (2 w5)
                     + eta2 Q_k / (2 H_c w5)
                     + Q_k w1 d_q V(t) / (2 w5) ), 0, 1 ).

:func:`optimal_control` evaluates the formula on value-gradient grids;
:class:`CachingPolicy` wraps the solved space-time policy table with
interpolation so the finite-population simulator can query
``x*(t, h, q)`` at arbitrary states.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from repro.core.grid import BatchGrid

ArrayLike = Union[float, np.ndarray]


def optimal_control(
    dq_value: ArrayLike,
    content_size: float,
    w1: float,
    w4: float,
    w5: float,
    eta2: float,
    backhaul_rate: float,
) -> np.ndarray:
    """Eq. (21): the closed-form optimal caching rate.

    Parameters
    ----------
    dq_value:
        Value-function gradient ``d_q V(t)`` (any shape).
    content_size, w1, w4, w5, eta2, backhaul_rate:
        The model constants entering the formula; ``w5 > 0`` is required
        for the Hamiltonian to be strictly concave (Thm. 1's proof).
    """
    if w5 <= 0:
        raise ValueError(f"w5 must be positive for a concave Hamiltonian, got {w5}")
    if backhaul_rate <= 0:
        raise ValueError(f"backhaul_rate must be positive, got {backhaul_rate}")
    if content_size <= 0:
        raise ValueError(f"content_size must be positive, got {content_size}")
    dq_value = np.asarray(dq_value, dtype=float)
    raw = -(
        w4 / (2.0 * w5)
        + eta2 * content_size / (2.0 * backhaul_rate * w5)
        + content_size * w1 * dq_value / (2.0 * w5)
    )
    return np.clip(raw, 0.0, 1.0)


@dataclass(frozen=True)
class CachingPolicy:
    """A solved feedback policy ``x*(t, h, q)`` on a state grid.

    Attributes
    ----------
    grid:
        The one-lane grid the table was solved on.
    table:
        Policy values of shape ``(n_t + 1, n_h, n_q)``.
    """

    grid: BatchGrid
    table: np.ndarray

    def __post_init__(self) -> None:
        table = np.asarray(self.table, dtype=float)
        if table.shape != self.grid.path_shape[1:]:
            raise ValueError(
                f"policy table shape {table.shape} does not match "
                f"grid path shape {self.grid.path_shape[1:]}"
            )
        if np.any(table < -1e-9) or np.any(table > 1.0 + 1e-9):
            raise ValueError("policy values must lie in [0, 1]")
        object.__setattr__(self, "table", np.clip(table, 0.0, 1.0))

    def __call__(self, t: float, h: float, q: float) -> float:
        """Policy lookup: nearest in time, bilinear in ``(h, q)``."""
        ti = self.grid.nearest_time_index(t)
        ih, iq, fh, fq = self.grid.interp_weights(h, q)
        sheet = self.table[ti]
        v00 = sheet[ih, iq]
        v10 = sheet[min(ih + 1, self.grid.n_h - 1), iq]
        v01 = sheet[ih, min(iq + 1, self.grid.n_q - 1)]
        v11 = sheet[min(ih + 1, self.grid.n_h - 1), min(iq + 1, self.grid.n_q - 1)]
        top = v00 * (1.0 - fh) + v10 * fh
        bot = v01 * (1.0 - fh) + v11 * fh
        return float(top * (1.0 - fq) + bot * fq)

    def batch(self, t: float, h: np.ndarray, q: np.ndarray) -> np.ndarray:
        """Vectorised lookup for a population of EDP states at time ``t``."""
        h = np.asarray(h, dtype=float)
        q = np.asarray(q, dtype=float)
        if h.shape != q.shape:
            raise ValueError(f"h shape {h.shape} != q shape {q.shape}")
        sheet = self.table[self.grid.nearest_time_index(t)]
        ih, iq, rh, rq = self.grid.interp_weights(h, q)
        ih1 = np.minimum(ih + 1, self.grid.n_h - 1)
        iq1 = np.minimum(iq + 1, self.grid.n_q - 1)
        top = sheet[ih, iq] * (1.0 - rh) + sheet[ih1, iq] * rh
        bot = sheet[ih, iq1] * (1.0 - rh) + sheet[ih1, iq1] * rh
        return top * (1.0 - rq) + bot * rq

    def at_time(self, t: float) -> np.ndarray:
        """The policy sheet for the reporting time nearest to ``t``."""
        return self.table[self.grid.nearest_time_index(t)].copy()

    def q_profile(self, t: float, h: float) -> np.ndarray:
        """``x*(t, h, .)`` as a function of ``q`` (the Fig. 5 slice)."""
        ih, _ = self.grid.locate(h, 0.0)
        return self.table[self.grid.nearest_time_index(t), ih, :].copy()

    def time_profile(self, h: float, q: float) -> np.ndarray:
        """``x*(., h, q)`` over all reporting times (Fig. 5's other axis)."""
        ih, iq = self.grid.locate(h, q)
        return self.table[:, ih, iq].copy()

    def mean_against(self, density_path: np.ndarray) -> np.ndarray:
        """Population-average control ``E_lambda[x*]`` per time point.

        This is the integral in Eq. (17) that sets the mean-field price.
        """
        density_path = np.asarray(density_path, dtype=float)
        if density_path.shape != self.table.shape:
            raise ValueError(
                f"density path shape {density_path.shape} does not match "
                f"policy table shape {self.table.shape}"
            )
        weights = self.grid.cell_weights()[0]
        return np.einsum("thq,thq,hq->t", density_path, self.table, weights)
