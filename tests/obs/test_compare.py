"""Tests for the cross-run comparator (``repro compare``)."""

import pytest

from repro.obs.compare import (
    Delta,
    SPAN_NOISE_FLOOR_S,
    compare_runs,
)
from repro.obs.report import RunSummary
from repro.obs.trend import format_change


def summary(span_totals=None, metrics=None, diagnostics=None):
    return RunSummary(
        events=[],
        span_totals=dict(span_totals or {}),
        metrics=dict(metrics or {}),
        diagnostics=list(diagnostics or []),
    )


class TestSpanComparison:
    def test_injected_20pc_regression_is_flagged(self):
        baseline = summary(span_totals={"solve/iteration/hjb": (10, 1.00)})
        candidate = summary(span_totals={"solve/iteration/hjb": (10, 1.25)})
        result = compare_runs(baseline, candidate, span_threshold=0.2)
        assert result.has_regressions
        (finding,) = result.regressions
        assert "solve/iteration/hjb" in finding
        assert "+25.0%" in finding

    def test_growth_below_threshold_is_not_a_regression(self):
        baseline = summary(span_totals={"solve": (1, 1.00)})
        candidate = summary(span_totals={"solve": (1, 1.15)})
        result = compare_runs(baseline, candidate, span_threshold=0.2)
        assert not result.has_regressions

    def test_speedup_is_never_a_regression(self):
        baseline = summary(span_totals={"solve": (1, 2.0)})
        candidate = summary(span_totals={"solve": (1, 1.0)})
        assert not compare_runs(baseline, candidate).has_regressions

    def test_noise_floor_suppresses_tiny_spans(self):
        tiny = SPAN_NOISE_FLOOR_S / 2
        baseline = summary(span_totals={"solve/mean_field": (1, tiny)})
        candidate = summary(span_totals={"solve/mean_field": (1, tiny * 10)})
        assert not compare_runs(baseline, candidate).has_regressions

    def test_new_and_vanished_spans_reported_not_regressed(self):
        baseline = summary(span_totals={"old": (1, 1.0)})
        candidate = summary(span_totals={"new": (1, 1.0)})
        result = compare_runs(baseline, candidate)
        names = {d.name: d for d in result.span_deltas}
        assert names["old"].candidate is None
        assert names["new"].baseline is None
        assert not result.has_regressions


class TestDiagComparison:
    def test_new_errors_regress(self):
        baseline = summary()
        candidate = summary(diagnostics=[
            {"ev": "diag.fpk.mass_drift", "severity": "error"},
        ])
        result = compare_runs(baseline, candidate)
        assert result.has_regressions
        assert any("error findings went 0 -> 1" in r
                   for r in result.regressions)

    def test_new_warnings_regress_but_info_does_not(self):
        baseline = summary()
        candidate = summary(diagnostics=[
            {"ev": "diag.hjb.residual", "severity": "warning"},
            {"ev": "diag.density.health", "severity": "info"},
            {"ev": "diag.density.health", "severity": "info"},
        ])
        result = compare_runs(baseline, candidate)
        assert len(result.regressions) == 1
        assert "warning" in result.regressions[0]

    def test_fixing_errors_is_not_a_regression(self):
        baseline = summary(diagnostics=[
            {"ev": "diag.fpk.mass_drift", "severity": "error"},
        ])
        candidate = summary()
        assert not compare_runs(baseline, candidate).has_regressions


class TestMetricComparison:
    def test_metric_changes_reported_but_never_regress(self):
        baseline = summary(metrics={
            "solver.iterations": {"kind": "counter", "value": 10},
        })
        candidate = summary(metrics={
            "solver.iterations": {"kind": "counter", "value": 30},
        })
        result = compare_runs(baseline, candidate)
        assert not result.has_regressions
        (delta,) = result.metric_deltas
        assert delta.rel_change == pytest.approx(2.0)

    def test_histograms_compare_by_mean(self):
        baseline = summary(metrics={
            "solver.hjb_seconds": {"kind": "histogram", "count": 5,
                                   "mean": 0.010},
        })
        candidate = summary(metrics={
            "solver.hjb_seconds": {"kind": "histogram", "count": 5,
                                   "mean": 0.030},
        })
        result = compare_runs(baseline, candidate)
        (delta,) = result.metric_deltas
        assert delta.baseline == pytest.approx(0.010)
        assert delta.candidate == pytest.approx(0.030)


class TestRendering:
    def test_render_mentions_regressions(self):
        baseline = summary(span_totals={"solve": (1, 1.0)})
        candidate = summary(span_totals={"solve": (1, 2.0)})
        text = compare_runs(baseline, candidate).render()
        assert "REGRESSIONS (1):" in text
        assert "span timings" in text

    def test_render_clean_comparison(self):
        text = compare_runs(summary(), summary()).render()
        assert "no regressions beyond thresholds" in text

    def test_delta_formatting(self):
        assert format_change(Delta("x", 1.0, 1.5).rel_change) == "+50.0%"
        assert format_change(Delta("x", 0.0, 1.0).rel_change) == "new"
        assert format_change(Delta("x", None, 1.0).rel_change) == "-"
