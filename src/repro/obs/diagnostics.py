"""Numerical-health probes for the HJB–FPK fixed-point pipeline.

The paper's equilibrium claims rest on numerical invariants the solver
otherwise only asserts in tests: the FPK sweep must conserve unit mass
(Eq. 9 dynamics), the backward HJB sweep must satisfy its own discrete
equation, the explicit schemes must respect their CFL bound, and the
Algorithm 2 best-response iteration must contract (Theorem 2).  This
module watches those invariants *live* and reports them as structured
``diag.<check>`` telemetry events with a severity each
(``info`` / ``warning`` / ``error``), via
:meth:`repro.obs.telemetry.SolverTelemetry.diag`.

Probes implement the :class:`DiagnosticsProbe` protocol — three hooks
mirroring the solve lifecycle — and are bundled by
:class:`SolveDiagnostics`.  :class:`~repro.core.best_response.
BatchedBestResponseIterator` drives one :class:`SolveDiagnostics` per
content lane, and the contexts hand each probe the iterator's own
batched sweeps plus that lane's index and paths.  Everything is gated on
``telemetry.enabled``: with the default :data:`~repro.obs.telemetry.
NULL_TELEMETRY` the probes are never constructed and the solve pays a
single boolean check per hook site.

Two design rules keep probes safe to leave installed:

* **Deterministic values.**  Probe outputs are pure functions of solver
  state (never wall-clock or memory measurements), so ``diag.*`` events
  survive the serial-vs-``process:N`` bit-identity contract of
  :mod:`repro.runtime`.
* **Bounded cost.**  Per-iteration probes sample at most
  :data:`MAX_RESIDUAL_SAMPLES` time slices for the HJB residual and use
  vectorised reductions elsewhere, so an enabled run stays within a few
  percent of the plain enabled-telemetry wall time.

Fail-fast: constructing the telemetry with ``strict_numerics=True``
(CLI flag ``--strict-numerics``) turns any error-severity finding into
a :class:`~repro.obs.telemetry.StrictNumericsError` at the offending
iteration, after the event is emitted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, List, Optional, Protocol, Sequence

import numpy as np

from repro.obs.telemetry import SolverTelemetry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (core imports obs)
    from repro.core.equilibrium import ConvergenceReport
    from repro.core.fpk import BatchedFPKSolver
    from repro.core.grid import BatchGrid
    from repro.core.hjb import BatchedHJBSolver
    from repro.core.mean_field import MeanFieldPath
    from repro.core.parameters import MFGCPConfig

MAX_RESIDUAL_SAMPLES = 8
"""Most reporting-time slices the HJB residual probe evaluates per
iteration — bounds the enabled-mode overhead independent of ``n_t``."""


# ----------------------------------------------------------------------
# Lifecycle contexts
# ----------------------------------------------------------------------
@dataclass
class SolveStartContext:
    """State available before the first best-response iteration.

    ``fpk`` and ``hjb`` are the iterator's batched sweeps; ``lane``
    indexes this content's lane in them, and ``grid`` and ``config``
    are that lane's own.
    """

    telemetry: SolverTelemetry
    grid: "BatchGrid"
    config: "MFGCPConfig"
    fpk: "BatchedFPKSolver"
    hjb: "BatchedHJBSolver"
    lane: int


@dataclass
class IterationContext:
    """State available after one complete best-response iteration.

    ``hjb`` is the iterator's batched sweep and ``lane`` this content's
    lane in it; the paths are the lane's own ``(n_t + 1, n_h, n_q)``
    arrays.
    """

    telemetry: SolverTelemetry
    grid: "BatchGrid"
    config: "MFGCPConfig"
    hjb: "BatchedHJBSolver"
    lane: int
    iteration: int
    density_path: np.ndarray
    value_path: np.ndarray
    mean_field: "MeanFieldPath"
    policy_change: float


@dataclass
class SolveEndContext:
    """State available once the fixed-point loop has stopped."""

    telemetry: SolverTelemetry
    config: "MFGCPConfig"
    report: "ConvergenceReport"


class DiagnosticsProbe(Protocol):
    """One numerical-health check, hooked into the solve lifecycle.

    Implementations may override any subset of the hooks; each receives
    a context dataclass and reports findings through
    ``ctx.telemetry.diag(...)``.  Probes must not mutate solver state.
    """

    name: str

    def on_solve_start(self, ctx: SolveStartContext) -> None: ...

    def on_iteration(self, ctx: IterationContext) -> None: ...

    def on_solve_end(self, ctx: SolveEndContext) -> None: ...


class _BaseProbe:
    """No-op hook defaults so concrete probes override only what they use."""

    name = "probe"

    def on_solve_start(self, ctx: SolveStartContext) -> None:
        return None

    def on_iteration(self, ctx: IterationContext) -> None:
        return None

    def on_solve_end(self, ctx: SolveEndContext) -> None:
        return None


# ----------------------------------------------------------------------
# Concrete probes
# ----------------------------------------------------------------------
class MassConservationProbe(_BaseProbe):
    """FPK mass drift: ``max_t |∫∫ λ(t) dh dq − 1|``.

    The conservative donor-cell scheme renormalises every substep, so
    healthy drift sits at rounding level (~1e-15).  Drift above
    ``warn_at`` flags quadrature/boundary trouble; above ``error_at``
    the density path is no longer a probability law.
    """

    name = "fpk.mass_drift"

    def __init__(self, warn_at: float = 1e-8, error_at: float = 1e-3) -> None:
        self.warn_at = float(warn_at)
        self.error_at = float(error_at)

    def on_iteration(self, ctx: IterationContext) -> None:
        weights = ctx.grid.cell_weights()[0]
        # One vectorised contraction over the whole path: mass(t) for
        # every reporting time without a Python-level loop.
        masses = np.tensordot(ctx.density_path, weights, axes=([1, 2], [0, 1]))
        drift = float(np.max(np.abs(masses - 1.0)))
        if not np.isfinite(drift) or drift > self.error_at:
            severity = "error"
        elif drift > self.warn_at:
            severity = "warning"
        else:
            severity = "info"
        ctx.telemetry.diag(
            self.name,
            severity,
            value=drift,
            threshold=self.warn_at,
            message="FPK mass drift exceeds tolerance"
            if severity != "info"
            else "",
            iteration=ctx.iteration,
        )


class DensityHealthProbe(_BaseProbe):
    """Density positivity/finiteness guards over the whole FPK path.

    NaN/Inf anywhere, or negativity beyond the clipping tolerance, is
    an error: every downstream quantity (mean field, prices, utilities)
    is polluted from that time slice on.
    """

    name = "density.health"

    def __init__(self, negativity_tol: float = 1e-12) -> None:
        self.negativity_tol = float(negativity_tol)

    def on_iteration(self, ctx: IterationContext) -> None:
        path = ctx.density_path
        if not bool(np.isfinite(path).all()):
            ctx.telemetry.diag(
                self.name,
                "error",
                message="density path contains NaN/Inf",
                iteration=ctx.iteration,
            )
            return
        min_value = float(path.min())
        if min_value < -self.negativity_tol:
            ctx.telemetry.diag(
                self.name,
                "error",
                value=min_value,
                threshold=-self.negativity_tol,
                message="density path went negative",
                iteration=ctx.iteration,
            )
        else:
            ctx.telemetry.diag(
                self.name, "info", value=min_value, iteration=ctx.iteration
            )


class HJBResidualProbe(_BaseProbe):
    """Discrete HJB residual of the settled backward sweep.

    Evaluates ``(V[t] − V[t+1])/Δt − L(V[t+1]; m(t))`` — how far the
    stored value path is from satisfying its own one-step explicit
    update — at ≤ :data:`MAX_RESIDUAL_SAMPLES` evenly-spaced reporting
    times, normalised by the operator magnitude so the number is
    scale-free.  Healthy values are O(Δt) (substepping + nonlinearity);
    a non-finite or exploding residual means the sweep diverged.
    """

    name = "hjb.residual"

    def __init__(self, warn_at: float = 10.0) -> None:
        self.warn_at = float(warn_at)

    def on_iteration(self, ctx: IterationContext) -> None:
        residual = ctx.hjb.residual_norm(
            ctx.lane,
            ctx.value_path,
            ctx.mean_field,
            max_samples=MAX_RESIDUAL_SAMPLES,
        )
        if not np.isfinite(residual):
            severity = "error"
        elif residual > self.warn_at:
            severity = "warning"
        else:
            severity = "info"
        ctx.telemetry.diag(
            self.name,
            severity,
            value=residual,
            threshold=self.warn_at,
            message="HJB residual norm is large" if severity != "info" else "",
            iteration=ctx.iteration,
        )


class CFLMarginProbe(_BaseProbe):
    """CFL stability margin of both explicit schemes, once per solve.

    ``margin = dt_stable / dt_substep`` per solver, read off the lane's
    entries of the sweeps' ``stable_steps`` and ``substeps``.  The
    substep count is ``ceil(dt / dt_stable)``, so the margin is ≥ 1
    whenever the configuration came through the standard constructors.
    A margin below 1 (hand-built grid, edited substep count) means the
    explicit update is operating outside its stability region — an
    error.
    """

    name = "cfl.margin"

    def __init__(self, warn_below: float = 1.0) -> None:
        self.warn_below = float(warn_below)

    def on_solve_start(self, ctx: SolveStartContext) -> None:
        dt = ctx.grid.dt
        for scheme, solver in (("fpk", ctx.fpk), ("hjb", ctx.hjb)):
            dt_stable = float(solver.stable_steps[ctx.lane])
            n_sub = int(solver.substeps[ctx.lane])
            margin = float(dt_stable / (dt / n_sub))
            if not np.isfinite(margin) or margin < self.warn_below:
                severity = "error"
                message = f"{scheme} substep exceeds the CFL-stable step"
            else:
                severity = "info"
                message = ""
            ctx.telemetry.diag(
                self.name,
                severity,
                value=margin,
                threshold=self.warn_below,
                message=message,
                scheme=scheme,
                substeps=n_sub,
                dt_stable=dt_stable,
            )


class ExploitabilityTrendProbe(_BaseProbe):
    """Best-response gap trend across iterations (Theorem 2 contraction).

    The max-norm policy change of Algorithm 2 is the computable proxy
    for exploitability: it bounds how much any single EDP could gain by
    deviating from the current candidate equilibrium.  Each iteration
    emits the gap and its ratio to the previous one; at solve end the
    probe fits the empirical contraction rate (geometric mean ratio
    over the trailing half of the history) and warns when the iteration
    is not contracting and did not converge.
    """

    name = "exploitability"

    def __init__(self, contraction_warn_at: float = 1.0) -> None:
        self.contraction_warn_at = float(contraction_warn_at)
        self._history: List[float] = []

    def on_iteration(self, ctx: IterationContext) -> None:
        gap = float(ctx.policy_change)
        ratio = (
            gap / self._history[-1]
            if self._history and self._history[-1] > 0
            else None
        )
        self._history.append(gap)
        fields: dict = {"iteration": ctx.iteration}
        if ratio is not None:
            fields["ratio"] = ratio
        ctx.telemetry.diag(
            self.name,
            "error" if not np.isfinite(gap) else "info",
            value=gap,
            message="best-response gap is non-finite"
            if not np.isfinite(gap)
            else "",
            **fields,
        )

    def on_solve_end(self, ctx: SolveEndContext) -> None:
        gaps = [g for g in self._history if np.isfinite(g) and g > 0]
        if len(gaps) < 3:
            return
        tail = gaps[len(gaps) // 2 :]
        ratios = [b / a for a, b in zip(tail[:-1], tail[1:]) if a > 0]
        if not ratios:
            return
        rate = float(np.exp(np.mean(np.log(ratios))))
        diverging = rate >= self.contraction_warn_at and not ctx.report.converged
        ctx.telemetry.diag(
            "exploitability.trend",
            "warning" if diverging else "info",
            value=rate,
            threshold=self.contraction_warn_at,
            message="best-response iteration is not contracting"
            if diverging
            else "",
            n_iterations=len(self._history),
            converged=bool(ctx.report.converged),
        )


class DampingStabilityProbe(_BaseProbe):
    """Flags a damped update that is amplifying instead of contracting.

    Three consecutive policy-change ratios above ``growth_at`` indicate
    the damping factor β is too aggressive for this configuration
    (Theorem 2 requires the damped map to contract); the probe warns
    once per solve and names the configured β so the fix is obvious.
    """

    name = "damping.stability"

    def __init__(self, growth_at: float = 1.05, consecutive: int = 3) -> None:
        self.growth_at = float(growth_at)
        self.consecutive = int(consecutive)
        self._previous: Optional[float] = None
        self._streak = 0
        self._reported = False

    def on_iteration(self, ctx: IterationContext) -> None:
        gap = float(ctx.policy_change)
        if self._previous is not None and self._previous > 0 and np.isfinite(gap):
            if gap / self._previous > self.growth_at:
                self._streak += 1
            else:
                self._streak = 0
        self._previous = gap
        if self._streak >= self.consecutive and not self._reported:
            self._reported = True
            ctx.telemetry.diag(
                self.name,
                "warning",
                value=float(self._streak),
                threshold=float(self.consecutive),
                message=(
                    "policy change grew for "
                    f"{self._streak} consecutive iterations; lower the "
                    f"damping factor (currently {ctx.config.damping})"
                ),
                iteration=ctx.iteration,
                damping=float(ctx.config.damping),
            )


def default_probes() -> List[DiagnosticsProbe]:
    """The standard probe set installed by the best-response iterator."""
    return [
        CFLMarginProbe(),
        MassConservationProbe(),
        DensityHealthProbe(),
        HJBResidualProbe(),
        ExploitabilityTrendProbe(),
        DampingStabilityProbe(),
    ]


class SolveDiagnostics:
    """Drives a probe set through one solve's lifecycle.

    :meth:`~repro.core.best_response.BatchedBestResponseIterator.solve`
    constructs one per content lane per call (probes are stateful
    across iterations), and only when telemetry is enabled — the
    iterator guards every hook with ``tele.enabled`` so disabled runs
    never touch this class.

    :class:`~repro.obs.telemetry.StrictNumericsError` raised by a probe
    (strict mode) propagates; any *other* probe failure is demoted to a
    ``diag.probe_failure`` warning — a broken watchdog must not take
    down a healthy solve.
    """

    def __init__(
        self,
        telemetry: SolverTelemetry,
        probes: Optional[Sequence[DiagnosticsProbe]] = None,
    ) -> None:
        self.telemetry = telemetry
        self.probes: List[DiagnosticsProbe] = (
            list(probes) if probes is not None else default_probes()
        )

    def _dispatch(self, hook: str, ctx: Any) -> None:
        from repro.obs.telemetry import StrictNumericsError

        for probe in self.probes:
            try:
                getattr(probe, hook)(ctx)
            except StrictNumericsError:
                raise
            except Exception as err:  # pragma: no cover - defensive
                self.telemetry.diag(
                    "probe_failure",
                    "warning",
                    message=f"probe {probe.name!r} raised {type(err).__name__}: {err}",
                    probe=probe.name,
                    hook=hook,
                )

    def solve_start(self, ctx: SolveStartContext) -> None:
        self._dispatch("on_solve_start", ctx)

    def iteration(self, ctx: IterationContext) -> None:
        self._dispatch("on_iteration", ctx)

    def solve_end(self, ctx: SolveEndContext) -> None:
        self._dispatch("on_solve_end", ctx)
