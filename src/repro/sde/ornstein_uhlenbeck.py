"""Mean-reverting Ornstein-Uhlenbeck channel fading process, Eq. (1).

The paper models the channel fading coefficient between an EDP and a
requester as

    dh(t) = (1/2) * varsigma_h * (upsilon_h - h(t)) dt + rho_h dW(t),

a mean-reverting OU process with reversion rate ``varsigma_h / 2``,
long-term mean ``upsilon_h`` and volatility ``rho_h``.  Besides the
Euler-Maruyama simulation used by the game simulator, this module
exposes the exact transition law (the OU SDE is linear, so the
conditional distribution is Gaussian in closed form), which the test
suite uses to validate the numerical integrator and which the
mean-field grid uses to choose sensible ``h`` bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from repro.sde.euler_maruyama import EulerMaruyamaIntegrator, SDEPath


@dataclass
class OrnsteinUhlenbeckProcess:
    """The channel fading process of Eq. (1).

    Parameters
    ----------
    reversion:
        The changing rate ``varsigma_h`` (the effective mean-reversion
        speed is ``varsigma_h / 2`` because of the 1/2 factor in
        Eq. (1)).
    mean:
        Long-term mean ``upsilon_h``.
    volatility:
        Standard deviation coefficient ``rho_h`` of the Brownian term.
    rng:
        Random generator used for path sampling.

    Examples
    --------
    >>> ou = OrnsteinUhlenbeckProcess(reversion=2.0, mean=5.0,
    ...                               volatility=0.1,
    ...                               rng=np.random.default_rng(7))
    >>> path = ou.sample_path(h0=1.0, t1=10.0, n_steps=1000)
    >>> abs(path.terminal.item() - 5.0) < 1.0
    True
    """

    reversion: float
    mean: float
    volatility: float
    rng: np.random.Generator = field(default_factory=np.random.default_rng)

    def __post_init__(self) -> None:
        if self.reversion <= 0:
            raise ValueError(f"reversion must be positive, got {self.reversion}")
        if self.volatility < 0:
            raise ValueError(f"volatility must be non-negative, got {self.volatility}")

    @property
    def rate(self) -> float:
        """Effective mean-reversion speed ``theta = varsigma_h / 2``."""
        return 0.5 * self.reversion

    def drift(self, t: float, h: np.ndarray) -> np.ndarray:
        """Drift term ``(1/2) varsigma_h (upsilon_h - h)`` of Eq. (1)."""
        del t  # time-homogeneous
        return self.rate * (self.mean - h)

    def diffusion(self, t: float, h: np.ndarray) -> np.ndarray:
        """Constant diffusion coefficient ``rho_h``."""
        del t
        return np.full_like(np.asarray(h, dtype=float), self.volatility)

    # ------------------------------------------------------------------
    # Exact (closed-form) law
    # ------------------------------------------------------------------
    def transition_moments(self, h0: np.ndarray, dt: float) -> Tuple[np.ndarray, float]:
        """Mean and standard deviation of ``h(t + dt)`` given ``h(t) = h0``.

        The OU transition density is Gaussian:

            mean = mu + (h0 - mu) e^{-theta dt}
            var  = rho^2 (1 - e^{-2 theta dt}) / (2 theta)
        """
        if dt < 0:
            raise ValueError(f"dt must be non-negative, got {dt}")
        decay = np.exp(-self.rate * dt)
        mean = self.mean + (np.asarray(h0, dtype=float) - self.mean) * decay
        var = self.volatility**2 * (1.0 - decay**2) / (2.0 * self.rate)
        return mean, float(np.sqrt(var))

    def stationary_moments(self) -> Tuple[float, float]:
        """Mean and standard deviation of the stationary distribution."""
        std = self.volatility / np.sqrt(2.0 * self.rate)
        return self.mean, float(std)

    def stationary_interval(self, n_std: float = 4.0) -> Tuple[float, float]:
        """An interval containing nearly all stationary mass.

        Used by :func:`repro.core.best_response.build_batch_grid` to
        bound the ``h`` axis of the PDE grid.
        """
        mean, std = self.stationary_moments()
        return mean - n_std * std, mean + n_std * std

    def exact_sample(self, h0: np.ndarray, dt: float, size: Optional[int] = None) -> np.ndarray:
        """Draw from the exact transition law (no discretisation error)."""
        mean, std = self.transition_moments(h0, dt)
        shape = np.broadcast(mean).shape if size is None else (size,)
        return self.rng.normal(mean, std, size=shape)

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------
    def integrator(self) -> EulerMaruyamaIntegrator:
        """An Euler-Maruyama integrator bound to this process."""
        return EulerMaruyamaIntegrator(
            drift=self.drift, diffusion=self.diffusion, rng=self.rng
        )

    def sample_path(
        self,
        h0: float,
        t1: float,
        n_steps: int,
        n_paths: int = 1,
        t0: float = 0.0,
        increments: Optional[np.ndarray] = None,
    ) -> SDEPath:
        """Simulate ``n_paths`` trajectories of Eq. (1) on ``[t0, t1]``."""
        x0 = np.full(n_paths, float(h0))
        return self.integrator().integrate(
            x0, t0=t0, t1=t1, n_steps=n_steps, increments=increments
        )

    def autocorrelation_time(self) -> float:
        """Characteristic decorrelation time ``1 / theta`` of the process."""
        return 1.0 / self.rate
