"""Backward HJB solver for the generic player, Eq. (20).

The value function ``V(t, h, q)`` of the generic EDP satisfies

    max_x [ (1/2) varsigma_h (upsilon_h - h) d_h V
            + (1/2) rho_h^2 d_hh V
            + Q_k ( -w1 x - w2 Pi + w3 xi^L ) d_q V
            + (1/2) rho_q^2 d_qq V
            + U(t, x, S, lambda) ] + d_t V = 0,

with terminal condition ``V(T) = 0`` (no salvage value after the
epoch).

Discretisation.  The control enters both the ``q`` drift and the
running utility, so a naive central-difference control extraction is
nonlinearly unstable (checkerboard modes in ``d_q V`` flip the
bang-bang control and amplify).  We therefore use a **monotone Godunov
scheme** for the controlled ``q`` advection: writing the drift as
``b_q(x) = Q_k (c - w1 x)`` with ``c = -w2 Pi + w3 xi^L`` and the
control-coupled utility as ``-a x - w5 x^2``
(``a = w4 + eta2 Q_k / H_c``), the Hamiltonian is maximised separately
on the two upwind branches:

* drift >= 0 (``x <= c / w1``): forward difference ``D+ V`` (the
  backward-in-time equation reads along forward characteristics),
* drift <= 0 (``x >= c / w1``): backward difference ``D- V``,

each a clipped concave quadratic with a closed-form maximiser (the
Eq. (21) formula restricted to the branch).  The node takes the larger
branch value and its argmax as the policy.  The uncontrolled ``h``
advection uses plain sign-upwinding; diffusion is central; time
stepping is explicit Euler with CFL sub-division.  The ``h`` advection
and both diffusions do not depend on the control or the market, so
they are assembled once into one sparse operator
(:class:`~repro.core.operators.KroneckerSum`) and applied with one
product per step.

The sweep carries a leading content-lane axis
(:class:`BatchedHJBSolver`); a single content is the batch of one lane.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple, TypeVar

import numpy as np

from scipy.special import expit

from repro.core.grid import BatchGrid
from repro.core.mean_field import MeanFieldPath
from repro.core.operators import (
    KroneckerSum,
    neumann_bands,
    stable_time_step,
    upwind_bands,
)
from repro.core.parameters import MFGCPConfig
from repro.core.policy import CachingPolicy

T = TypeVar("T")


@dataclass(frozen=True)
class HJBSolution:
    """Output of one backward HJB sweep.

    Attributes
    ----------
    grid:
        The content's one-lane grid.
    value:
        ``V(t, h, q)``, shape ``(n_t + 1, n_h, n_q)``.
    policy:
        The maximising control table ``x*(t, h, q)`` extracted during
        the sweep, wrapped for interpolation.
    """

    grid: BatchGrid
    value: np.ndarray
    policy: CachingPolicy


def validate_shared_lane_params(configs: Sequence[MFGCPConfig]) -> None:
    """Check that a batch of per-content configs may share one sweep.

    The batched solvers assume the lanes differ only in the per-content
    demand fields (``content_size``, ``popularity``, ``timeliness``,
    ``n_requests``) — exactly what
    :meth:`~repro.core.solver.MFGCPSolver.per_content_config`
    specialises.  Channel, caching-drift, and economic parameters must
    be common so the fading operators and utility constants are shared.
    """
    first = configs[0]
    for i, cfg in enumerate(configs[1:], start=1):
        if cfg.channel != first.channel:
            raise ValueError(f"lane {i} has a different channel model")
        if cfg.caching != first.caching:
            raise ValueError(f"lane {i} has a different caching process")
        if cfg.economic_parameters() != first.economic_parameters():
            raise ValueError(f"lane {i} has different economic parameters")


def lane_cfl_steps(
    configs: Sequence[MFGCPConfig], grid: BatchGrid
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-lane CFL-stable explicit step and substeps per reporting interval.

    Both sweeps share the limit: the fading drift, the larger Eq. (4)
    drift magnitude of ``x = 0`` and ``x = 1``, and the two diffusions,
    each against the lane's own cache spacing.  Returns the stable
    steps, shape ``(B,)``, and the integer substep counts
    ``max(1, ceil(dt / step))``.
    """
    ch = configs[0].channel
    max_bh = float(np.max(np.abs(0.5 * ch.reversion * (ch.mean - grid.h))))
    diff_h = 0.5 * ch.volatility**2
    diff_q = 0.5 * configs[0].caching.noise**2
    steps = []
    for cfg, dq in zip(configs, grid.dq):
        drift0 = float(np.abs(cfg.drift_rate(np.array(0.0))))
        drift1 = float(np.abs(cfg.drift_rate(np.array(1.0))))
        steps.append(
            stable_time_step(
                max_bh, max(drift0, drift1), grid.dh, float(dq), diff_h, diff_q
            )
        )
    substeps = [max(1, int(np.ceil(grid.dt / step))) for step in steps]
    return np.array(steps), np.array(substeps, dtype=int)


def frozen_lane_plan(
    substeps: np.ndarray, build: Callable[[Optional[np.ndarray]], T]
) -> List[Tuple[Optional[np.ndarray], T]]:
    """Which lanes step on each CFL substep of a reporting interval.

    A lane with fewer substeps than the batch maximum freezes once its
    own substeps are done.  Entry ``s`` is ``(idx, build(idx))`` with
    ``idx`` ``None`` when every lane steps (always so on substep 0) and
    the stepping lane subset otherwise.  The subsets only shrink, so
    ``build`` runs once per distinct subset: a sweep builds each
    subset's columns, sub-grid and ids once, not once per interval and
    substep.
    """
    plan: List[Tuple[Optional[np.ndarray], T]] = []
    size = -1
    for s in range(int(substeps.max())):
        idx = np.flatnonzero(s < substeps)
        if idx.size != size:
            size = idx.size
            key = None if size == substeps.size else idx
            built = build(key)
        plan.append((key, built))
    return plan


def _balance_point(drift_const: float, w1: float) -> float:
    """The control ``x_c`` at which the ``q`` drift changes sign."""
    if w1 > 0:
        return float(np.clip(drift_const / w1, 0.0, 1.0))
    return 1.0 if drift_const >= 0 else 0.0


class _LaneColumns(NamedTuple):
    """Per-lane constants of a lane subset, each with a leading lane axis.

    The Godunov constants are ``(b, 1, 1)`` columns.  The market-free
    pieces of ``U(x = 0)`` are ``(b, 1, n_q)`` where they do not depend
    on ``h`` and ``(b, n_h, n_q)`` where the wireless rate ``R(h)``
    enters.
    """

    size: np.ndarray  # Q
    size_w1: np.ndarray  # Q w1
    raw_offset: np.ndarray  # w4 / (2 w5) + eta2 Q / (2 H_c w5)
    drift_const: np.ndarray  # c of b_q(x) = Q (c - w1 x)
    a_lin: np.ndarray  # a of U(x) = U(0) - a x - w5 x^2
    x_balance: np.ndarray  # x_c
    dq: np.ndarray
    diffusion_q: np.ndarray  # (1/2) rho_q^2 / dq^2, the q part's factor
    threshold: np.ndarray  # alpha Q
    q: np.ndarray  # the cache axis, (b, 1, n_q)
    have: np.ndarray  # p1, the case-1 probability
    lack: np.ndarray  # 1 - p1
    sold_own: np.ndarray  # p1 (Q - q)
    stale_own: np.ndarray  # (p1 (Q - q)) / R(h)
    stale_case3: np.ndarray  # q / H_c + Q / R(h)

    def select(self, lanes: np.ndarray) -> "_LaneColumns":
        """The columns of a lane subset."""
        return _LaneColumns(*(column[lanes] for column in self))


class BatchedHJBSolver:
    """The backward Godunov sweep of Eq. (20) over a batch of content lanes.

    This is the one HJB implementation; a single content is the batch
    of one lane.  Lanes share the channel, caching and economic
    parameters (:func:`validate_shared_lane_params`) and differ in
    their demand fields, so the per-lane constants — drift
    constant ``c`` and balance point ``x_c``, linear utility coefficient
    ``a``, CFL step and substep count — are computed here per config,
    together with the parts of ``U(x = 0)`` that no market moves.
    Every stencil is elementwise along the lane axis, the assembled
    control-free operator reads each lane's own column, and lanes with
    fewer CFL substeps than the batch maximum freeze once their own
    substeps are done, so a lane's result does not depend on the batch
    it rides in.
    """

    def __init__(self, configs: Sequence[MFGCPConfig], grid: BatchGrid) -> None:
        self.configs = list(configs)
        self.grid = grid
        if len(self.configs) != grid.n_lanes:
            raise ValueError(
                f"{len(self.configs)} configs for {grid.n_lanes} grid lanes"
            )
        validate_shared_lane_params(self.configs)
        cfg0 = self.configs[0]
        ch = cfg0.channel
        # Shared (channel-derived) pieces.  The fading drift
        # b_h = (1/2) varsigma_h (upsilon_h - h) is constant over time,
        # so the control-free terms b_h D_h V + (1/2) rho_h^2 d_hh V +
        # (1/2) rho_q^2 d_qq V form one operator, assembled once.
        # Negated velocity flips the upwind side: the backward-time
        # equation reads along forward characteristics (see _godunov_q).
        drift_h = 0.5 * ch.reversion * (ch.mean - grid.h)
        diff_h = 0.5 * ch.volatility**2
        diff_q = 0.5 * cfg0.caching.noise**2
        self._linear = KroneckerSum(
            drift_h * upwind_bands(-drift_h, grid.dh)
            + diff_h / grid.dh**2 * neumann_bands(grid.n_h),
            neumann_bands(grid.n_q),
        )
        self._rate_of_h = np.asarray(
            ch.rate_of_fading(grid.h), dtype=float
        )[:, None]
        if np.any(self._rate_of_h <= 0):
            raise ValueError(
                "wireless rate non-positive on the grid; widen h bounds or "
                "adjust the radio parameters"
            )
        drift = cfg0.caching_drift()
        self._w1 = drift.w1
        self._params = params = cfg0.economic_parameters()
        self._w5 = params.w5
        self._two_w5 = 2.0 * self._w5
        self._two_l = 2.0 * params.cases.smoothing
        self.stable_steps, self.substeps = lane_cfl_steps(self.configs, grid)

        # Per-lane constants: the control-free drift multiplier c of
        # b_q(x) = Q (c - w1 x), its balance point, and the linear
        # coefficient a of the control-coupled utility
        # U(x) = U(0) - a x - w5 x^2.
        drift_const = [
            float(drift.rate(0.0, cfg.popularity, cfg.timeliness))
            for cfg in self.configs
        ]
        a_lin = [
            cfg.utility_model().control_gradient_constants()[0]
            for cfg in self.configs
        ]
        q_size = np.array([cfg.content_size for cfg in self.configs])
        raw_offset = cfg0.w4 / self._two_w5 + cfg0.eta2 * q_size / (
            2.0 * cfg0.backhaul_rate * self._w5
        )

        def column(values) -> np.ndarray:
            return np.asarray(values, dtype=float)[:, None, None]

        size = column(q_size)
        q = grid.q[:, None, :]
        threshold = params.cases.alpha * size
        have = expit(self._two_l * (threshold - q))
        sold_own = have * (size - q)
        self._all_lanes = grid.indices()
        self._all = _LaneColumns(
            size=size,
            size_w1=size * self._w1,
            raw_offset=column(raw_offset),
            drift_const=column(drift_const),
            a_lin=column(a_lin),
            x_balance=column([_balance_point(c, self._w1) for c in drift_const]),
            dq=column(grid.dq),
            diffusion_q=diff_q / column(grid.dq) ** 2,
            threshold=threshold,
            q=q,
            have=have,
            lack=1.0 - have,
            sold_own=sold_own,
            stale_own=sold_own / self._rate_of_h,
            stale_case3=q / params.backhaul_rate + size / self._rate_of_h,
        )

    def _columns(self, lanes: np.ndarray) -> _LaneColumns:
        if np.array_equal(lanes, self._all_lanes):
            return self._all
        return self._all.select(lanes)

    # ------------------------------------------------------------------
    # Godunov Hamiltonian in q
    # ------------------------------------------------------------------
    def _branch_value(self, grad, x, cols: _LaneColumns) -> np.ndarray:
        """``g(x) = Q (c - w1 x) grad - a x - w5 x^2`` on one branch."""
        value = self._w1 * x
        np.subtract(cols.drift_const, value, out=value)
        value *= cols.size
        value *= grad
        term = cols.a_lin * x
        value -= term
        np.square(x, out=term)
        term *= self._w5
        value -= term
        return value

    def _godunov_q(self, value, cols: _LaneColumns):
        """Monotone upwinded ``max_x [ b_q(x) d_qV - a x - w5 x^2 ]``.

        Each branch maximises ``g(x) = b_q(x) grad - a x - w5 x^2``
        with ``b_q(x) = Q (c - w1 x)`` over its half of ``[0, 1]`` by
        the Eq. (21) closed form clipped to the branch.  Returns the
        Hamiltonian contribution and the maximising control.
        """
        b, n_h, n_q = value.shape
        # The interface differences in q, padded with the reflecting
        # boundary's zero-gradient ghosts: D+ V is grad[..., 1:] and
        # D- V is grad[..., :-1].
        grad = np.empty((b, n_h, n_q + 1))
        grad[:, :, 0] = 0.0
        grad[:, :, n_q] = 0.0
        inner = grad[:, :, 1:n_q]
        np.subtract(value[:, :, 1:], value[:, :, :-1], out=inner)
        inner /= cols.dq
        # The unclipped maximiser is affine in the gradient, so one pass
        # over the shared differences serves both branches.
        raw = np.multiply(cols.size_w1, grad)
        raw /= self._two_w5
        raw += cols.raw_offset
        np.negative(raw, out=raw)
        # Upwinding for the BACKWARD-in-time equation follows the
        # forward characteristics: V(t, q) ~ V(t+dt, q + b dt), so
        # positive drift reads from larger q (forward difference).
        # Branch A: drift >= 0 (x below the balance point) -> D+ V.
        x_a = np.clip(raw[:, :, 1:], 0.0, cols.x_balance)
        val_a = self._branch_value(grad[:, :, 1:], x_a, cols)
        # Branch B: drift <= 0 (x above the balance point) -> D- V.
        x_b = np.clip(raw[:, :, :n_q], cols.x_balance, 1.0)
        val_b = self._branch_value(grad[:, :, :n_q], x_b, cols)
        take_a = val_a >= val_b
        np.copyto(val_b, val_a, where=take_a)
        np.copyto(x_b, x_a, where=take_a)
        return val_b, x_b

    def _step_rhs(self, value, utility0, cols: _LaneColumns):
        """The bracketed operator of Eq. (20) and the maximising control."""
        rhs, control = self._godunov_q(value, cols)
        self._linear.add_to(rhs, value, cols.diffusion_q)
        rhs += utility0
        return rhs, control

    def _utility0(self, market: np.ndarray, cols: _LaneColumns) -> np.ndarray:
        """Control-free running utility ``U(x = 0)`` of each lane, Eq. (10).

        ``market`` holds one row per lane: request rate, price, peer
        state and sharing benefit.  Only the peer-dependent terms are
        evaluated here; the rest come from ``cols``.  Each term keeps
        the float operation order of
        :meth:`repro.economics.utility.UtilityModel.total` at ``x = 0``,
        so a lane is bit-identical to it.  The control-coupled part
        (``-a x - w5 x^2``) lives inside the Godunov term.
        """
        params = self._params
        n_requests, price, q_other, benefit = (
            market[:, k, None, None] for k in range(4)
        )
        peer_has = expit(self._two_l * (cols.threshold - q_other))
        p2 = cols.lack * peer_has
        p3 = cols.lack * (1.0 - peer_has)
        sold_peer = p2 * (cols.size - q_other)
        if params.include_trading:
            sold = cols.sold_own + sold_peer + p3 * cols.size
            income = n_requests * price * sold
        else:
            income = 0.0
        per_request = cols.stale_own + sold_peer / self._rate_of_h
        per_request += p3 * cols.stale_case3
        stale = params.eta2 * (n_requests * per_request)
        if params.include_sharing:
            transfer = np.maximum(cols.q - q_other, 0.0)
            share_cost = p2 * params.pricing.sharing_price * transfer
            return income + cols.have * benefit - stale - share_cost
        return income - stale

    def residual_norm(
        self,
        lane: int,
        value_path: np.ndarray,
        mean_field: MeanFieldPath,
        max_samples: int = 8,
    ) -> float:
        """Scale-free discrete residual of one lane's settled value path.

        Measures ``max_t || (V[t] - V[t+1]) / dt - L(V[t+1]; m(t)) ||_inf
        / (1 + ||L||_inf)`` at up to ``max_samples`` evenly-spaced
        reporting intervals, where ``L`` is the bracketed Eq. (20)
        operator on lane ``lane``'s own columns and ``value_path`` is
        that lane's ``(n_t + 1, n_h, n_q)`` path.  A healthy sweep
        leaves O(dt) residual (substepping + the nonlinearity of the
        Godunov Hamiltonian); NaN/Inf or an exploding value means the
        backward sweep diverged.  This is a diagnostic for the
        numerical-health probes, not a convergence criterion — it
        reuses the solver's own discretisation so the number is
        comparable across runs of the same grid.
        """
        grid = self.grid
        value_path = np.asarray(value_path, dtype=float)
        if value_path.shape != grid.path_shape[1:]:
            raise ValueError(
                f"value path shape {value_path.shape} != grid {grid.path_shape[1:]}"
            )
        cols = self._columns(grid.indices([lane]))
        n_int = grid.n_t
        n_samples = max(1, min(int(max_samples), n_int))
        indices = np.unique(
            np.linspace(0, n_int - 1, n_samples).round().astype(int)
        )
        worst = 0.0
        for ti in indices:
            ctx = mean_field.context(int(ti))
            market = np.array(
                [[ctx.n_requests, ctx.price, ctx.q_other, ctx.sharing_benefit]]
            )
            utility0 = self._utility0(market, cols)
            rhs = self._step_rhs(value_path[ti + 1][None], utility0, cols)[0][0]
            residual = (value_path[ti] - value_path[ti + 1]) / grid.dt - rhs
            scale = 1.0 + float(np.max(np.abs(rhs)))
            worst = max(worst, float(np.max(np.abs(residual))) / scale)
            if not np.isfinite(worst):
                return float("nan")
        return worst

    def control_from_value(self, values: np.ndarray) -> np.ndarray:
        """The Godunov-consistent policy sheets of every lane's value sheet."""
        return self._godunov_q(np.asarray(values, dtype=float), self._all)[1]

    def solve(
        self,
        mean_fields: Sequence[MeanFieldPath],
        lanes: Optional[np.ndarray] = None,
        terminal_value: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Backward sweep from ``V(T)`` to ``V(0)``, all requested lanes at once.

        Parameters
        ----------
        mean_fields:
            One :class:`MeanFieldPath` per requested lane, in lane
            order: the market paths (price, peer state, sharing benefit
            per reporting time) that lane faces.
        lanes:
            Lane indices into the batch (default: all lanes).  Passing
            the active subset is how the best-response iterator drops
            converged contents out of the batch.
        terminal_value:
            ``V(T)`` per lane, shape ``(b, n_h, n_q)``; defaults to
            zero (no salvage value).

        Returns
        -------
        (value_path, policy_path):
            Arrays of shape ``(b, n_t + 1, n_h, n_q)``.
        """
        grid = self.grid
        lanes = grid.indices(lanes)
        if len(mean_fields) != lanes.size:
            raise ValueError(
                f"{len(mean_fields)} mean fields for {lanes.size} lanes"
            )
        b = lanes.size
        shape = (b, grid.n_h, grid.n_q)
        if terminal_value is None:
            value = np.zeros(shape)
        else:
            value = np.asarray(terminal_value, dtype=float).copy()
            if value.shape != shape:
                raise ValueError(
                    f"terminal value shape {value.shape} != batch {shape}"
                )

        # (b, 4, n_t + 1): the market rows of every reporting time.
        markets = np.array(
            [
                [mf.n_requests, mf.price, mf.mean_q, mf.sharing_benefit]
                for mf in mean_fields
            ]
        )
        cols = self._columns(lanes)
        n_sub = self.substeps[lanes]
        dt_col = (grid.dt / n_sub)[:, None, None]  # per-lane substep

        def subset(idx):
            if idx is None:
                return cols, dt_col
            return cols.select(idx), dt_col[idx]

        plan = frozen_lane_plan(n_sub, subset)
        value_path = np.empty((b, grid.n_t + 1, grid.n_h, grid.n_q))
        policy_path = np.empty_like(value_path)
        value_path[:, grid.n_t] = value
        for ti in range(grid.n_t - 1, -1, -1):
            # U(x = 0) depends only on the interval's market, so it is
            # evaluated once per interval, not once per substep.
            utility0 = self._utility0(markets[:, :, ti], cols)
            for s, (idx, (sub_cols, sub_dt)) in enumerate(plan):
                if idx is None:
                    rhs, control = self._step_rhs(value, utility0, sub_cols)
                    rhs *= sub_dt
                    value += rhs
                else:
                    # Lanes whose own substep count is exhausted freeze;
                    # the stepping subset advances with its own dt.
                    sub = value[idx]
                    rhs, control = self._step_rhs(sub, utility0[idx], sub_cols)
                    rhs *= sub_dt
                    sub += rhs
                    value[idx] = sub
                if s == 0:
                    # Every lane steps on substep 0, from the interval's
                    # right-end sheet: its control is that sheet's
                    # Godunov-consistent policy.
                    policy_path[:, ti + 1] = control
            value_path[:, ti] = value
        policy_path[:, 0] = self._godunov_q(value, cols)[1]
        return value_path, policy_path
