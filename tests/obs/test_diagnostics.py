"""Tests for the numerical-health probes and strict-numerics fail-fast."""

import io
import json

import numpy as np
import pytest

from repro.core.best_response import BestResponseIterator
from repro.core.fpk import BatchedFPKSolver
from repro.core.best_response import build_grid
from repro.core.parameters import MFGCPConfig
from repro.obs import (
    SolveDiagnostics,
    SolverTelemetry,
    StrictNumericsError,
    default_probes,
)
from repro.obs.diagnostics import (
    DampingStabilityProbe,
    DensityHealthProbe,
    ExploitabilityTrendProbe,
    MassConservationProbe,
)


def tiny_config():
    return MFGCPConfig(
        n_time_steps=10, n_h=7, n_q=11, max_iterations=8, tolerance=1e-3
    )


def solve_with_telemetry(**tele_kwargs):
    buf = io.StringIO()
    telemetry = SolverTelemetry.to_jsonl(buf, **tele_kwargs)
    result = BestResponseIterator(tiny_config(), telemetry=telemetry).solve()
    telemetry.close()
    buf.seek(0)
    events = [json.loads(line) for line in buf if line.strip()]
    return result, events


def diag_events(events, check=None):
    out = [e for e in events if str(e.get("ev", "")).startswith("diag.")]
    if check is not None:
        out = [e for e in out if e["ev"] == f"diag.{check}"]
    return out


class TestProbesDuringSolve:
    def test_healthy_solve_emits_all_standard_checks(self):
        result, events = solve_with_telemetry()
        checks = {e["ev"] for e in diag_events(events)}
        assert checks >= {
            "diag.cfl.margin",
            "diag.fpk.mass_drift",
            "diag.density.health",
            "diag.hjb.residual",
            "diag.exploitability",
            "diag.exploitability.trend",
        }

    def test_healthy_solve_has_no_errors_or_warnings(self):
        _, events = solve_with_telemetry()
        severities = {e["severity"] for e in diag_events(events)}
        assert severities == {"info"}

    def test_mass_drift_is_rounding_level(self):
        _, events = solve_with_telemetry()
        drifts = [e["value"] for e in diag_events(events, "fpk.mass_drift")]
        assert drifts and max(drifts) < 1e-10

    def test_cfl_margin_at_least_one_for_both_schemes(self):
        _, events = solve_with_telemetry()
        margins = diag_events(events, "cfl.margin")
        assert {e["scheme"] for e in margins} == {"fpk", "hjb"}
        assert all(e["value"] >= 1.0 for e in margins)

    def test_exploitability_trend_reports_contraction(self):
        result, events = solve_with_telemetry()
        (trend,) = diag_events(events, "exploitability.trend")
        assert trend["converged"] == result.report.converged
        assert trend["value"] < 1.0  # Theorem 2: the iteration contracts

    def test_diag_counters_track_findings(self):
        _, events = solve_with_telemetry()
        metrics = [e for e in events if e.get("ev") == "metrics"][-1]["metrics"]
        n_diag = len(diag_events(events))
        assert metrics["diag.findings"]["value"] == n_diag
        assert metrics["diag.info"]["value"] == n_diag

    def test_disabled_telemetry_emits_no_diag_events(self):
        telemetry = SolverTelemetry.null()
        BestResponseIterator(tiny_config(), telemetry=telemetry).solve()
        assert len(telemetry.metrics) == 0


class TestStrictNumerics:
    def test_error_finding_raises_after_emitting(self):
        tele = SolverTelemetry.buffered(strict_numerics=True)
        with pytest.raises(StrictNumericsError) as excinfo:
            tele.diag("fpk.mass_drift", "error", value=0.5,
                      message="mass drift exceeds tolerance")
        assert excinfo.value.check == "fpk.mass_drift"
        assert "fpk.mass_drift" in str(excinfo.value)
        # The event was emitted before the raise.
        assert [e["ev"] for e in tele.sink.events] == ["diag.fpk.mass_drift"]

    def test_non_error_findings_never_raise(self):
        tele = SolverTelemetry.buffered(strict_numerics=True)
        tele.diag("fpk.mass_drift", "info", value=1e-16)
        tele.diag("hjb.residual", "warning", value=20.0)
        assert len(tele.sink.events) == 2

    def test_strict_error_pickles_across_process_boundary(self):
        import pickle

        err = StrictNumericsError("density.health", "went negative", -0.5)
        clone = pickle.loads(pickle.dumps(err))
        assert clone.check == "density.health"
        assert clone.value == -0.5

    def test_probe_error_propagates_in_strict_mode(self):
        tele = SolverTelemetry.buffered(strict_numerics=True)
        diagnostics = SolveDiagnostics(tele, probes=[DensityHealthProbe()])

        class Ctx:
            telemetry = tele
            iteration = 3
            density_path = np.full((4, 3, 3), np.nan)

        with pytest.raises(StrictNumericsError):
            diagnostics.iteration(Ctx())

    def test_broken_probe_demoted_to_warning(self):
        tele = SolverTelemetry.buffered()

        class ExplodingProbe:
            name = "exploding"

            def on_solve_start(self, ctx):
                raise RuntimeError("boom")

            def on_iteration(self, ctx):
                pass

            def on_solve_end(self, ctx):
                pass

        diagnostics = SolveDiagnostics(tele, probes=[ExplodingProbe()])
        diagnostics.solve_start(object())
        (event,) = tele.sink.events
        assert event["ev"] == "diag.probe_failure"
        assert event["severity"] == "warning"
        assert "boom" in event["message"]


class TestIndividualProbes:
    def test_invalid_severity_rejected(self):
        tele = SolverTelemetry.buffered()
        with pytest.raises(ValueError, match="severity"):
            tele.diag("x", "fatal")

    def test_mass_probe_severity_ladder(self):
        probe = MassConservationProbe(warn_at=1e-8, error_at=1e-3)
        grid = build_grid(tiny_config())
        for scale, expected in ((1.0, "info"), (1.0 + 1e-5, "warning"),
                                (1.5, "error")):
            tele = SolverTelemetry.buffered()
            density = grid.normalize_sheet(np.ones(grid.shape[1:])) * scale

            class Ctx:
                telemetry = tele
                iteration = 1
                density_path = density[None, :, :]

            Ctx.grid = grid
            probe.on_iteration(Ctx())
            assert tele.sink.events[-1]["severity"] == expected, scale

    def test_density_probe_flags_negativity(self):
        tele = SolverTelemetry.buffered()
        path = np.full((2, 3, 3), 0.1)
        path[1, 0, 0] = -1e-6

        class Ctx:
            telemetry = tele
            iteration = 2
            density_path = path

        DensityHealthProbe().on_iteration(Ctx())
        (event,) = tele.sink.events
        assert event["severity"] == "error"
        assert "negative" in event["message"]

    def test_damping_probe_warns_once_on_sustained_growth(self):
        tele = SolverTelemetry.buffered()
        probe = DampingStabilityProbe(growth_at=1.05, consecutive=3)
        config = tiny_config()

        class Ctx:
            telemetry = tele

        Ctx.config = config
        for i, gap in enumerate([1.0, 2.0, 4.0, 8.0, 16.0, 32.0]):
            ctx = Ctx()
            ctx.iteration = i
            ctx.policy_change = gap
            probe.on_iteration(ctx)
        warnings = [e for e in tele.sink.events
                    if e["ev"] == "diag.damping.stability"]
        assert len(warnings) == 1
        assert str(config.damping) in warnings[0]["message"]

    def test_exploitability_probe_skips_trend_on_short_history(self):
        tele = SolverTelemetry.buffered()
        probe = ExploitabilityTrendProbe()

        class EndCtx:
            telemetry = tele

            class report:
                converged = True

        probe.on_solve_end(EndCtx())
        assert tele.sink.events == []

    def test_default_probe_set_is_fresh_per_call(self):
        a, b = default_probes(), default_probes()
        assert {p.name for p in a} == {p.name for p in b}
        assert not any(pa is pb for pa, pb in zip(a, b))


class TestZeroMassDiagnostic:
    def test_normalize_zero_mass_emits_diag_then_raises(self):
        grid = build_grid(tiny_config())
        tele = SolverTelemetry.buffered()
        zero = np.zeros(grid.shape)
        # The established error message is part of the API: callers
        # (and their tests) match on it.
        with pytest.raises(ValueError,
                           match="density has zero mass; cannot normalise"):
            grid.normalize(zero, telemetry=tele)
        (event,) = tele.sink.events
        assert event["ev"] == "diag.density.zero_mass"
        assert event["severity"] == "error"
        assert event["value"] == 0.0

    def test_normalize_zero_mass_without_telemetry_still_raises(self):
        grid = build_grid(tiny_config())
        with pytest.raises(ValueError, match="zero mass"):
            grid.normalize(np.zeros(grid.shape))

    def test_fpk_solver_threads_telemetry_into_normalize(self):
        config = tiny_config()
        grid = build_grid(config)
        tele = SolverTelemetry.buffered()
        solver = BatchedFPKSolver([config], grid, telemetry=tele)
        with pytest.raises(ValueError, match="zero mass"):
            solver.solve(np.zeros(grid.path_shape), density0=np.zeros(grid.shape))
        assert any(e["ev"] == "diag.density.zero_mass"
                   for e in tele.sink.events)
