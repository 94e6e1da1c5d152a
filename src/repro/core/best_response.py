"""Iterative best-response learning scheme, Algorithm 2.

The coupled HJB-FPK system is solved by fixed-point iteration:

1. initialise the policy and the mean-field estimate;
2. solve the backward HJB against the current mean field and extract
   the Eq. (21) best response;
3. stop when the best response changed by less than the preset
   threshold since the previous iteration;
4. otherwise solve the forward FPK under the new best response,
   refresh the mean-field estimator, mix the estimate into the next
   HJB input, and repeat.

Theorem 2 makes the best-response map a contraction with a unique
fixed point, so the iteration may move in whichever space converges
fastest.  It moves in mean-field space: the HJB reads only three
``(n_t + 1)`` market series, and type-II Anderson mixing of those
(:class:`_MeanFieldMixer`, with the damped step
``m <- m + beta (G(m) - m)`` as its fallback) needs about half the
iterations of damping the policy table.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.equilibrium import ConvergenceReport, EquilibriumResult, IterationRecord
from repro.core.fpk import BatchedFPKSolver, batched_initial_density
from repro.core.grid import BatchGrid
from repro.core.hjb import BatchedHJBSolver
from repro.core.mean_field import MeanFieldEstimator, MeanFieldPath
from repro.core.parameters import MFGCPConfig
from repro.core.policy import CachingPolicy
from repro.obs.diagnostics import (
    IterationContext,
    SolveDiagnostics,
    SolveEndContext,
    SolveStartContext,
)
from repro.obs.telemetry import NULL_TELEMETRY, SolverTelemetry, StrictNumericsError


def build_grid(config: MFGCPConfig) -> BatchGrid:
    """The one-lane state grid implied by a configuration."""
    return build_batch_grid([config])


def build_batch_grid(configs: Sequence[MFGCPConfig]) -> BatchGrid:
    """The state grid of a batch of configurations, one lane each.

    The fading axis covers the OU stationary support (4 standard
    deviations around the long-term mean, widened to include the mean
    itself when volatility is tiny); each lane's cache axis spans its
    own ``[0, Q_k]``.  Lanes must agree on the time and fading axes
    and on ``n_q``.
    """
    first = configs[0]
    h_bounds = _h_bounds(first)
    for i, cfg in enumerate(configs[1:], start=1):
        if (cfg.horizon, cfg.n_time_steps) != (first.horizon, first.n_time_steps):
            raise ValueError(f"lane {i} has a different time axis")
        if (_h_bounds(cfg), cfg.n_h) != (h_bounds, first.n_h):
            raise ValueError(f"lane {i} has a different fading axis")
        if cfg.n_q != first.n_q:
            raise ValueError(f"lane {i} has n_q={cfg.n_q}, lane 0 has n_q={first.n_q}")
    return BatchGrid.regular(
        horizon=first.horizon,
        n_time_steps=first.n_time_steps,
        h_bounds=h_bounds,
        n_h=first.n_h,
        q_max=[cfg.content_size for cfg in configs],
        n_q=first.n_q,
    )


def _h_bounds(config: MFGCPConfig) -> Tuple[float, float]:
    ou = config.ou_process()
    h_lo, h_hi = ou.stationary_interval()
    if h_hi - h_lo < 1e-6:
        h_lo, h_hi = ou.mean - 0.5, ou.mean + 0.5
    return max(h_lo, 1e-6), h_hi  # fading coefficients are positive magnitudes


class _LaneTelemetry:
    """Per-lane telemetry proxy tagging diagnostics with a content index.

    The batched iterator drives one :class:`SolveDiagnostics` per lane;
    every probe finding is forwarded through this proxy, which adds a
    ``content=<index>`` field to the ``diag.*`` event and prefixes a
    strict-numerics escalation with the content index — so a batched
    abort names the lane that failed, not just the check.
    """

    def __init__(self, inner: SolverTelemetry, content: int) -> None:
        self._inner = inner
        self.content = int(content)

    @property
    def enabled(self) -> bool:
        return self._inner.enabled

    @property
    def strict_numerics(self) -> bool:
        return self._inner.strict_numerics

    def diag(self, check, severity, value=None, threshold=None, message="", **fields):
        fields.setdefault("content", self.content)
        try:
            self._inner.diag(
                check,
                severity,
                value=value,
                threshold=threshold,
                message=message,
                **fields,
            )
        except StrictNumericsError as err:
            raise StrictNumericsError(
                err.check, f"content {self.content}: {err.message}", err.value
            ) from None

    def __getattr__(self, name):
        return getattr(self._inner, name)


ANDERSON_DEPTH = 3
"""Past steps a lane's Anderson mixing of its mean-field path keeps."""

_MIXED_SERIES = ("price", "mean_q", "sharing_benefit")


class _MeanFieldMixer:
    """Type-II Anderson mixing of one lane's mean-field path.

    The HJB reads only the ``price``, ``mean_q`` and ``sharing_benefit``
    series of its market, so they are the iteration's state: three
    ``(n_t + 1)`` series, each divided by its bootstrap max-abs.  With
    ``x`` the current state and ``f = G(x) - x`` the estimator's
    residual, the next state is

        x + beta f - (dX + beta dF) gamma,
        gamma = argmin || f - dF gamma ||_2,

    over the last :data:`ANDERSON_DEPTH` state and residual differences
    ``dX``, ``dF``.  The history is cleared, and the plain damped step
    ``x + beta f`` taken, when the residual's sup-norm rises or when
    the mixed state leaves the range the estimator can produce
    (``mean_q`` in ``[0, Q_k]``, price and benefit non-negative).
    Everything here is one lane's arithmetic, so a lane's bytes do not
    depend on the batch it rides in.
    """

    def __init__(self, first: MeanFieldPath, beta: float, q_max: float) -> None:
        self.beta = float(beta)
        self.q_max = float(q_max)
        maxima = [float(np.max(np.abs(getattr(first, s)))) for s in _MIXED_SERIES]
        self.scale = np.repeat([m if m > 0 else 1.0 for m in maxima], first.price.size)
        self.x = self._state(first)
        self.prev_x: Optional[np.ndarray] = None
        self.f: Optional[np.ndarray] = None
        self.dx: List[np.ndarray] = []
        self.df: List[np.ndarray] = []

    def _state(self, mean_field: MeanFieldPath) -> np.ndarray:
        return np.concatenate([getattr(mean_field, s) for s in _MIXED_SERIES]) / self.scale

    def next_input(self, estimate: MeanFieldPath) -> MeanFieldPath:
        """The next HJB input, given the estimate the current one produced."""
        x, f = self.x, self._state(estimate) - self.x
        if self.f is not None:
            if np.max(np.abs(f)) > np.max(np.abs(self.f)):
                self.dx.clear()
                self.df.clear()
            else:
                self.dx = (self.dx + [x - self.prev_x])[-ANDERSON_DEPTH:]
                self.df = (self.df + [f - self.f])[-ANDERSON_DEPTH:]
        self.prev_x, self.f = x, f
        step = x + self.beta * f
        if self.dx:
            dx = np.stack(self.dx, axis=1)
            df = np.stack(self.df, axis=1)
            gamma = np.linalg.lstsq(df, f, rcond=None)[0]
            mixed = step - (dx + self.beta * df) @ gamma
            if self._feasible(mixed):
                step = mixed
            else:
                self.dx.clear()
                self.df.clear()
        self.x = step
        price, mean_q, benefit = np.split(step * self.scale, 3)
        return replace(estimate, price=price, mean_q=mean_q, sharing_benefit=benefit)

    def _feasible(self, state: np.ndarray) -> bool:
        price, mean_q, benefit = np.split(state * self.scale, 3)
        return bool(
            np.all(price >= 0.0)
            and np.all(benefit >= 0.0)
            and np.all(mean_q >= 0.0)
            and np.all(mean_q <= self.q_max)
        )


class BatchedBestResponseIterator:
    """Algorithm 2 over a batch of contents with a convergence mask.

    This is the one fixed-point loop; a single content is the batch of
    one lane (:class:`BestResponseIterator`).  Each lane runs bootstrap
    FPK, then hjb → policy change → FPK under the best response →
    mean-field estimate → Anderson mixing of the next HJB input, with
    all active lanes advancing through one vectorized backward and
    forward sweep per iteration.  A lane whose policy change drops
    below tolerance leaves the active set at the end of its iteration
    (after its FPK/estimator refresh); frozen lanes are
    never recomputed, so their value function, density, and policy stay
    bit-identical to the state at their own convergence and a lane's
    equilibrium does not depend on the batch it rides in.

    ``content_ids`` labels lanes in telemetry and diagnostics; results
    come back as one :class:`EquilibriumResult` per lane, in input
    order.
    """

    def __init__(
        self,
        configs: Sequence[MFGCPConfig],
        content_ids: Optional[Sequence[int]] = None,
        telemetry: Optional[SolverTelemetry] = None,
    ) -> None:
        self.configs = list(configs)
        if not self.configs:
            raise ValueError("cannot batch zero configs")
        first = self.configs[0]
        for i, cfg in enumerate(self.configs[1:], start=1):
            if (
                cfg.max_iterations != first.max_iterations
                or cfg.tolerance != first.tolerance
                or cfg.damping != first.damping
            ):
                raise ValueError(
                    f"lane {i} has different iteration controls "
                    "(max_iterations/tolerance/damping must be shared)"
                )
        self.content_ids = (
            list(range(len(self.configs)))
            if content_ids is None
            else [int(k) for k in content_ids]
        )
        if len(self.content_ids) != len(self.configs):
            raise ValueError(
                f"{len(self.content_ids)} content ids for "
                f"{len(self.configs)} configs"
            )
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.grid = build_batch_grid(self.configs)
        self.hjb = BatchedHJBSolver(self.configs, self.grid)
        self.fpk = BatchedFPKSolver(
            self.configs,
            self.grid,
            telemetry=self.telemetry,
            content_ids=self.content_ids,
        )
        # Each lane's one-lane grid, shared by its estimator and results.
        self.estimators = [
            MeanFieldEstimator(cfg, self.grid.select([b]))
            for b, cfg in enumerate(self.configs)
        ]

    def solve(
        self,
        initial_policy_level: float = 0.5,
        density0: Optional[np.ndarray] = None,
        initial_policy: Optional[np.ndarray] = None,
    ) -> List[EquilibriumResult]:
        """Run the masked fixed-point loop to per-content equilibria.

        Parameters
        ----------
        initial_policy_level:
            The constant bootstrap policy ``x^0`` of every lane.
        density0:
            Initial population densities ``lambda(0)``, shape
            ``(B, n_h, n_q)``; defaults to each lane's configured
            truncated normal.
        initial_policy:
            Optional full bootstrap policy tables, shape
            ``(B, n_t + 1, n_h, n_q)`` (overrides the constant level) —
            warm-starting from a neighbouring parameter point's
            equilibrium cuts the iteration count in sweeps.
        """
        grid = self.grid
        tele = self.telemetry
        cfg0 = self.configs[0]
        n_lanes = grid.n_lanes

        if density0 is None:
            density0 = batched_initial_density(grid, self.configs)
        else:
            density0 = np.asarray(density0, dtype=float)
        if initial_policy is not None:
            policy = np.asarray(initial_policy, dtype=float).copy()
            if policy.shape != grid.path_shape:
                raise ValueError(
                    f"initial policy shape {policy.shape} != grid "
                    f"{grid.path_shape}"
                )
            if np.any(policy < -1e-9) or np.any(policy > 1 + 1e-9):
                raise ValueError("initial policy values must lie in [0, 1]")
            policy = np.clip(policy, 0.0, 1.0)
        else:
            if not 0.0 <= initial_policy_level <= 1.0:
                raise ValueError(
                    f"policy level must lie in [0, 1], got {initial_policy_level}"
                )
            policy = np.full(grid.path_shape, float(initial_policy_level))

        # Numerical-health probes: constructed only for enabled
        # telemetry, so the NULL_TELEMETRY fast path pays a single
        # boolean check per hook site below.
        lane_teles = [_LaneTelemetry(tele, k) for k in self.content_ids]
        diagnostics = (
            [SolveDiagnostics(lt) for lt in lane_teles] if tele.enabled else None
        )

        solve_span = tele.span("solve")
        solve_span.__enter__()
        tele.event(
            "solve_start",
            max_iterations=cfg0.max_iterations,
            tolerance=cfg0.tolerance,
            damping=cfg0.damping,
            grid_shape=list(grid.path_shape),
            batched=True,
            contents=list(self.content_ids),
        )
        if diagnostics is not None:
            # The probes inspect one content at a time: its lane of the
            # batched sweeps, with that lane's config and grid.
            for b, diag in enumerate(diagnostics):
                diag.solve_start(
                    SolveStartContext(
                        telemetry=lane_teles[b],
                        grid=self.estimators[b].grid,
                        config=self.configs[b],
                        fpk=self.fpk,
                        hjb=self.hjb,
                        lane=b,
                    )
                )
        with tele.span("bootstrap"):
            density_paths = self.fpk.solve(policy, density0)
            mean_fields = [
                est.estimate(density_paths[b], policy[b])
                for b, est in enumerate(self.estimators)
            ]
        # The HJB of the next iteration reads ``inputs``; the estimator's
        # own output stays in ``mean_fields``, consistent with the
        # density and policy it came from.
        inputs = list(mean_fields)
        mixers = [
            _MeanFieldMixer(mf, cfg0.damping, cfg.content_size)
            for mf, cfg in zip(mean_fields, self.configs)
        ]

        histories: List[List[IterationRecord]] = [[] for _ in range(n_lanes)]
        converged = np.zeros(n_lanes, dtype=bool)
        policy_changes = np.full(n_lanes, np.inf)
        value_paths = np.empty(grid.path_shape)
        active = np.arange(n_lanes)

        for iteration in range(1, cfg0.max_iterations + 1):
            if active.size == 0:
                break
            with tele.span("iteration"):
                with tele.span("hjb") as sp_hjb:
                    v_path, new_tables = self.hjb.solve(
                        [inputs[b] for b in active], lanes=active
                    )
                value_paths[active] = v_path
                pc = np.max(np.abs(new_tables - policy[active]), axis=(1, 2, 3))
                policy_changes[active] = pc
                policy[active] = new_tables
                with tele.span("fpk") as sp_fpk:
                    d_paths = self.fpk.solve(
                        new_tables, density0[active], lanes=active
                    )
                density_paths[active] = d_paths
                with tele.span("mean_field") as sp_mf:
                    mf_changes = np.empty(active.size)
                    for j, b in enumerate(active):
                        new_mf = self.estimators[b].estimate(
                            d_paths[j], policy[b]
                        )
                        mf_changes[j] = inputs[b].distance(new_mf)
                        mean_fields[b] = new_mf
                        inputs[b] = mixers[b].next_input(new_mf)

            for j, b in enumerate(active):
                histories[b].append(
                    IterationRecord(
                        iteration=iteration,
                        policy_change=float(pc[j]),
                        mean_field_change=float(mf_changes[j]),
                        mean_price=float(mean_fields[b].price.mean()),
                        mean_control=float(mean_fields[b].mean_control.mean()),
                    )
                )
            if tele.enabled:
                tele.inc("solver.iterations")
                tele.observe("solver.hjb_seconds", sp_hjb.duration)
                tele.observe("solver.fpk_seconds", sp_fpk.duration)
                tele.event(
                    "iteration",
                    iteration=iteration,
                    n_active=int(active.size),
                    policy_change=float(pc.max()),
                    mean_field_change=float(mf_changes.max()),
                    hjb_s=sp_hjb.duration,
                    fpk_s=sp_fpk.duration,
                    mean_field_s=sp_mf.duration,
                )
            if diagnostics is not None:
                for j, b in enumerate(active):
                    diagnostics[b].iteration(
                        IterationContext(
                            telemetry=lane_teles[b],
                            grid=self.estimators[b].grid,
                            config=self.configs[b],
                            hjb=self.hjb,
                            lane=b,
                            iteration=iteration,
                            density_path=density_paths[b],
                            value_path=value_paths[b],
                            mean_field=mean_fields[b],
                            policy_change=float(pc[j]),
                        )
                    )
            # Convergence mask: lanes below tolerance freeze after this
            # iteration's FPK/estimator refresh and drop out of the batch.
            done = pc < cfg0.tolerance
            converged[active[done]] = True
            active = active[~done]

        results: List[EquilibriumResult] = []
        for b in range(n_lanes):
            lane_grid = self.estimators[b].grid
            report = ConvergenceReport(
                converged=bool(converged[b]),
                n_iterations=len(histories[b]),
                final_policy_change=float(policy_changes[b]),
                history=histories[b],
            )
            if diagnostics is not None:
                diagnostics[b].solve_end(
                    SolveEndContext(
                        telemetry=lane_teles[b],
                        config=self.configs[b],
                        report=report,
                    )
                )
            results.append(
                EquilibriumResult(
                    config=self.configs[b],
                    grid=lane_grid,
                    value=value_paths[b],
                    policy=CachingPolicy(grid=lane_grid, table=policy[b]),
                    density=density_paths[b],
                    mean_field=mean_fields[b],
                    report=report,
                )
            )
        solve_span.__exit__(None, None, None)
        if tele.enabled:
            tele.gauge(
                "solver.final_policy_change", float(policy_changes.max())
            )
            tele.gauge(
                "solver.n_iterations",
                float(max(len(h) for h in histories)),
            )
            tele.event(
                "solve_end",
                converged=bool(converged.all()),
                n_converged=int(converged.sum()),
                n_lanes=n_lanes,
                n_iterations=max(len(h) for h in histories),
                final_policy_change=float(policy_changes.max()),
                solve_s=solve_span.duration,
            )
        return results


class BestResponseIterator:
    """Algorithm 2 bound to one configuration: a one-lane batch.

    Wraps a :class:`BatchedBestResponseIterator` over ``[config]`` and
    shares its sweeps (``hjb``, ``fpk`` and ``estimator`` are the
    batch's own objects), so a single content runs the one fixed-point
    loop and returns its single :class:`EquilibriumResult`.  ``grid`` is
    the content's one-lane :class:`~repro.core.grid.BatchGrid`.
    """

    def __init__(
        self,
        config: MFGCPConfig,
        telemetry: Optional[SolverTelemetry] = None,
    ) -> None:
        self.config = config
        self.lanes = BatchedBestResponseIterator([config], telemetry=telemetry)
        self.grid = self.lanes.grid
        self.telemetry = self.lanes.telemetry
        self.hjb = self.lanes.hjb
        self.fpk = self.lanes.fpk
        self.estimator = self.lanes.estimators[0]

    def initial_policy(self, level: float = 0.5) -> np.ndarray:
        """The bootstrap policy table ``x^0`` (constant caching rate)."""
        if not 0.0 <= level <= 1.0:
            raise ValueError(f"policy level must lie in [0, 1], got {level}")
        return np.full(self.grid.path_shape[1:], float(level))

    def solve(
        self,
        density0: Optional[np.ndarray] = None,
        initial_policy_level: float = 0.5,
        initial_policy: Optional[np.ndarray] = None,
    ) -> EquilibriumResult:
        """Run the fixed-point loop to an MFG equilibrium.

        Parameters
        ----------
        density0:
            Initial population density ``lambda(0)``; defaults to the
            configured truncated normal.
        initial_policy_level:
            The constant bootstrap policy ``x^0``.
        initial_policy:
            Optional full bootstrap policy table (overrides the
            constant level) — warm-starting from a neighbouring
            parameter point's equilibrium cuts the iteration count in
            sweeps.
        """
        return self.lanes.solve(
            initial_policy_level,
            density0=_one_lane(density0),
            initial_policy=_one_lane(initial_policy),
        )[0]


def _one_lane(array: Optional[np.ndarray]) -> Optional[np.ndarray]:
    """``array`` with a leading lane axis of length one (``None`` passes)."""
    return None if array is None else np.asarray(array, dtype=float)[None]
