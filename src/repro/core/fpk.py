"""Forward FPK solver for the population density, Eq. (15).

When every EDP follows the solved optimal strategy, the mean-field
density ``lambda(t, h, q)`` evolves by the Fokker-Planck-Kolmogorov
equation

    d_t lambda + d_h( b_h lambda ) + d_q( b_q(x*) lambda )
        - (1/2) rho_h^2 d_hh lambda - (1/2) rho_q^2 d_qq lambda = 0

with ``b_h = (1/2) varsigma_h (upsilon_h - h)`` and ``b_q`` the Eq. (4)
drift under the current policy.  The solver uses conservative
donor-cell advection and zero-flux diffusion so total probability mass
is preserved exactly; the reflecting boundary in ``q`` mirrors the
physical clamp of the remaining space to ``[0, Q_k]``.  The ``h``
advection and both diffusions do not depend on the policy, so they
are assembled once into one sparse operator
(:class:`~repro.core.operators.KroneckerSum`) with the same stencils;
the ``q`` advection under the interval's policy stays a donor-cell
stencil.

The sweep carries a leading content-lane axis
(:class:`BatchedFPKSolver`); a single content is the batch of one lane.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.grid import BatchGrid
from repro.core.hjb import (
    frozen_lane_plan,
    lane_cfl_steps,
    validate_shared_lane_params,
)
from repro.core.operators import (
    KroneckerSum,
    donor_cell_bands,
    donor_cell_divergence,
    donor_cell_faces,
    zero_flux_bands,
)
from repro.core.parameters import MFGCPConfig


def _normal_pdf(x: np.ndarray, loc: float, scale: float) -> np.ndarray:
    """The normal density, in ``scipy.stats.norm.pdf``'s operation order."""
    z = (x - loc) / scale
    return np.exp(-(z**2) / 2.0) / np.sqrt(2 * np.pi) / scale


def initial_density(
    grid: BatchGrid,
    config: MFGCPConfig,
    mean_q: Optional[float] = None,
    std_q: Optional[float] = None,
) -> np.ndarray:
    """The initial mean-field density ``lambda(0, h, q)``.

    The paper draws the initial cache state from a normal distribution
    (default ``N(0.7 Q, (0.1 Q)^2)``); the fading coordinate starts in
    the OU stationary law.  Both marginals are truncated to the
    one-lane ``grid`` and the product is normalised to unit mass, as an
    ``(n_h, n_q)`` sheet.
    """
    mq, sq = config.initial_density_moments()
    mean_q = mq if mean_q is None else float(mean_q)
    std_q = sq if std_q is None else float(std_q)
    if std_q <= 0:
        raise ValueError(f"std_q must be positive, got {std_q}")

    ou_mean, ou_std = config.ou_process().stationary_moments()
    if ou_std <= 0:
        # Deterministic channel: a sharp peak at the mean.
        h_density = np.zeros(grid.n_h)
        h_density[grid.locate(ou_mean, 0.0)[0]] = 1.0
    else:
        h_density = _normal_pdf(grid.h, ou_mean, ou_std)
    q_density = _normal_pdf(grid.q[0], mean_q, std_q)
    return grid.normalize_sheet(np.outer(h_density, q_density))


def batched_initial_density(
    grid: BatchGrid, configs: Sequence[MFGCPConfig]
) -> np.ndarray:
    """Per-lane :func:`initial_density`, stacked to ``(B, n_h, n_q)``.

    Each lane's marginals come from its own config (``N(0.7 Q_k,
    (0.1 Q_k)^2)`` over that lane's cache axis), so lane ``b`` is
    bit-identical to ``initial_density(grid.select([b]), configs[b])``.
    """
    if len(configs) != grid.n_lanes:
        raise ValueError(f"{len(configs)} configs for {grid.n_lanes} lanes")
    return np.stack(
        [
            initial_density(grid.select([b]), cfg)
            for b, cfg in enumerate(configs)
        ]
    )


class BatchedFPKSolver:
    """The forward conservative sweep of Eq. (15) over a batch of content lanes.

    This is the one FPK implementation; a single content is the batch
    of one lane.  The ``q`` donor-cell advection, the assembled
    control-free operator, the positivity clip and the per-substep
    renormalisation each act on every lane alone, so a lane's density
    path does not depend on the batch it rides in.
    Lanes must share the channel, caching and economic parameters
    (:func:`~repro.core.hjb.validate_shared_lane_params`): the fading
    drift and both diffusions are common to the batch.
    ``telemetry`` is only consulted on the zero-mass failure path of
    the renormalisation, which records a ``diag.density.zero_mass``
    event before raising; ``content_ids`` names the lanes in it, so a
    strict-numerics abort identifies the offending content.
    """

    def __init__(
        self,
        configs: Sequence[MFGCPConfig],
        grid: BatchGrid,
        telemetry=None,
        content_ids: Optional[Sequence[int]] = None,
    ) -> None:
        self.configs = list(configs)
        self.grid = grid
        self.telemetry = telemetry
        if len(self.configs) != grid.n_lanes:
            raise ValueError(
                f"{len(self.configs)} configs for {grid.n_lanes} grid lanes"
            )
        validate_shared_lane_params(self.configs)
        self.content_ids = (
            list(range(grid.n_lanes))
            if content_ids is None
            else [int(k) for k in content_ids]
        )
        cfg0 = self.configs[0]
        ch = cfg0.channel
        # The fading drift b_h = (1/2) varsigma_h (upsilon_h - h) and both
        # diffusivities are constant over time, so -d_h(b_h rho) +
        # (1/2) rho_h^2 d_hh rho + (1/2) rho_q^2 d_qq rho form one
        # operator, assembled once.
        drift_h = 0.5 * ch.reversion * (ch.mean - grid.h)
        diff_h = 0.5 * ch.volatility**2
        self._diff_q = 0.5 * cfg0.caching.noise**2
        self._linear = KroneckerSum(
            donor_cell_bands(donor_cell_faces(drift_h), grid.dh)
            + diff_h / grid.dh**2 * zero_flux_bands(grid.n_h),
            zero_flux_bands(grid.n_q),
        )
        # Per-lane pieces of drift_rate(x) = Q_k * (-w1 x - w2 pi + w3 xi^L),
        # precomputed in MFGCPConfig.drift_rate's operation order so the
        # batched drift matches it bit-for-bit.
        drift = cfg0.caching_drift()
        self._w1 = drift.w1
        self._w2_pop = np.array(
            [drift.w2 * cfg.popularity for cfg in self.configs]
        )
        self._w3_xi = np.array(
            [
                drift.w3 * np.power(drift.xi, cfg.timeliness)
                for cfg in self.configs
            ]
        )
        self._q_size = np.array([cfg.content_size for cfg in self.configs])
        self._all_lanes = grid.indices()
        self.stable_steps, self.substeps = lane_cfl_steps(self.configs, grid)

    def _step(
        self,
        density: np.ndarray,
        faces_q,
        dt_col,
        dq_col: np.ndarray,
        diffusion_q: np.ndarray,
        subgrid: BatchGrid,
        content_ids: Sequence[int],
    ) -> np.ndarray:
        """One explicit conservative step for every lane in the batch.

        ``faces_q`` are the donor-cell faces of the lanes' ``q`` drift;
        ``diffusion_q`` scales each lane's ``q`` diffusion,
        ``(1/2) rho_q^2 / dq^2``.
        """
        update = donor_cell_divergence(density, faces_q, dq_col)
        self._linear.add_to(update, density, diffusion_q)
        update *= dt_col
        update += density
        # Donor-cell + explicit diffusion can undershoot by rounding at
        # steep fronts; clip and renormalise to keep a probability law.
        np.maximum(update, 0.0, out=update)
        return subgrid.rescale_mass(
            update, telemetry=self.telemetry, content_ids=content_ids
        )

    def solve(
        self,
        policy_tables: np.ndarray,
        density0: Optional[np.ndarray] = None,
        lanes: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Forward sweep advancing every requested lane simultaneously.

        Parameters
        ----------
        policy_tables:
            ``x*(t, h, q)`` per lane, shape ``(b, n_t + 1, n_h, n_q)`` —
            each reporting interval uses its left-endpoint policy sheet.
        density0:
            Initial densities ``(b, n_h, n_q)``; defaults to the
            per-lane :func:`initial_density`.
        lanes:
            Lane indices into the batch (default: all).

        Returns
        -------
        numpy.ndarray
            Density paths, shape ``(b, n_t + 1, n_h, n_q)``, with unit
            mass per lane at every reporting time.
        """
        grid = self.grid
        lanes = grid.indices(lanes)
        b = lanes.size
        expected = (b, grid.n_t + 1, grid.n_h, grid.n_q)
        policy_tables = np.asarray(policy_tables, dtype=float)
        if policy_tables.shape != expected:
            raise ValueError(
                f"policy tables shape {policy_tables.shape} != batch {expected}"
            )
        full = np.array_equal(lanes, self._all_lanes)
        subgrid = grid if full else grid.select(lanes)
        ids = [self.content_ids[int(i)] for i in lanes]
        if density0 is None:
            density = batched_initial_density(
                subgrid, [self.configs[int(i)] for i in lanes]
            )
        else:
            density = subgrid.normalize(
                np.asarray(density0, dtype=float),
                telemetry=self.telemetry,
                content_ids=ids,
            )

        # Per-lane pieces of the Eq. (4) drift as (b, 1, 1) columns.
        size = self._q_size[lanes][:, None, None]
        w2_pop = self._w2_pop[lanes][:, None, None]
        w3_xi = self._w3_xi[lanes][:, None, None]
        dq_col = grid.dq[lanes][:, None, None]
        diffusion_q = self._diff_q / dq_col**2
        n_sub = self.substeps[lanes]
        dt_col = (grid.dt / n_sub)[:, None, None]

        def subset(idx):
            if idx is None:
                return dt_col, dq_col, diffusion_q, subgrid, ids
            return (
                dt_col[idx],
                dq_col[idx],
                diffusion_q[idx],
                subgrid.select(idx),
                [ids[int(i)] for i in idx],
            )

        plan = frozen_lane_plan(n_sub, subset)
        path = np.empty((b, grid.n_t + 1, grid.n_h, grid.n_q))
        path[:, 0] = density
        for ti in range(grid.n_t):
            # The interval's policy fixes the q drift, hence its faces.
            drift_q = size * (-self._w1 * policy_tables[:, ti] - w2_pop + w3_xi)
            faces_q = donor_cell_faces(drift_q)
            for idx, (sub_dt, sub_dq, sub_diff, sub_grid, sub_ids) in plan:
                if idx is None:
                    density = self._step(
                        density, faces_q, sub_dt, sub_dq, sub_diff, sub_grid, sub_ids
                    )
                else:
                    # Lanes whose own substep count is exhausted freeze.
                    density[idx] = self._step(
                        density[idx],
                        (faces_q[0][idx], faces_q[1][idx]),
                        sub_dt,
                        sub_dq,
                        sub_diff,
                        sub_grid,
                        sub_ids,
                    )
            path[:, ti + 1] = density
        return path
