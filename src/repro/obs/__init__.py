"""Observability layer: metrics, span timers, and telemetry events.

The :class:`~repro.obs.telemetry.SolverTelemetry` facade is the single
object threaded through the solver pipeline (``BestResponseIterator``,
``MFGCPSolver``, ``GameSimulator``, the baselines, and the experiment
harness).  It is disabled by default (:data:`NULL_TELEMETRY`) at
near-zero cost; enable it with ``SolverTelemetry.to_jsonl(path)`` or
the CLI's ``--telemetry PATH.jsonl`` flag, then summarise the run with
``repro report PATH.jsonl``.

On top of the raw stream sit the numerical-health probes
(:mod:`repro.obs.diagnostics`, ``diag.*`` events with severities and
an optional ``--strict-numerics`` fail-fast), opt-in span resource
profiling (``profile=True`` / ``--profile``), the Chrome trace
exporter (:mod:`repro.obs.trace`, ``repro trace``), the cross-run
comparator (:mod:`repro.obs.compare`, ``repro compare``), and the
live-monitoring side channel (:mod:`repro.obs.live` +
:mod:`repro.obs.watch`, ``--live-status`` / ``repro watch``) backed by
the constant-memory quantile sketches of :mod:`repro.obs.sketch`
(``repro export-metrics`` renders Prometheus text exposition), and
the cross-run layer: the run-provenance registry
(:mod:`repro.obs.registry`, ``repro runs`` / ``repro env``) and the
trend analytics over append-only ``BENCH_*.json`` trajectories
(:mod:`repro.obs.trend`, ``repro trend``).

See ``docs/observability.md`` for the event schema and span semantics.
"""

from repro.obs.compare import ComparisonResult, Delta, compare_runs
from repro.obs.diagnostics import (
    CFLMarginProbe,
    DampingStabilityProbe,
    DensityHealthProbe,
    DiagnosticsProbe,
    ExploitabilityTrendProbe,
    HJBResidualProbe,
    MassConservationProbe,
    SolveDiagnostics,
    default_probes,
)
from repro.obs.events import (
    BufferSink,
    EVENT_SCHEMA_VERSION,
    JsonlSink,
    NULL_SINK,
    NullSink,
    read_events,
    read_events_tolerant,
)
from repro.obs.live import (
    DEFAULT_WRITE_EVERY,
    LiveStatusWriter,
    STATUS_SCHEMA_VERSION,
    read_status,
)
from repro.obs.metrics import (
    Counter,
    DEFAULT_EXACT_CAP,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.prometheus import render_prometheus
from repro.obs.registry import (
    MANIFEST_SCHEMA_VERSION,
    RunRegistry,
    build_manifest,
    compute_run_id,
    diff_manifests,
    environment_fingerprint,
    headline_metrics,
    manifest_identity,
    render_manifest,
    render_runs_table,
)
from repro.obs.report import (
    RunSummary,
    load_run,
    render_diagnostics,
    render_fault_tolerance,
    render_iteration_table,
    render_metrics,
    render_report,
    render_serving,
    render_span_tree,
)
from repro.obs.sketch import (
    DEFAULT_RELATIVE_ACCURACY,
    QuantileSketch,
    WindowedAggregator,
)
from repro.obs.spans import NULL_SPAN, NullSpan, Span, SpanNode, SpanRecorder
from repro.obs.telemetry import (
    NULL_TELEMETRY,
    SolverTelemetry,
    StrictNumericsError,
    TelemetrySnapshot,
)
from repro.obs.trace import build_chrome_trace, write_chrome_trace
from repro.obs.trend import (
    BENCH_SCHEMA_VERSION,
    BenchFormatError,
    DEFAULT_TREND_THRESHOLD,
    TrendSeries,
    append_bench_entry,
    bench_series,
    find_regressions,
    load_bench_trajectory,
    metric_direction,
    registry_series,
    render_trend,
)
from repro.obs.watch import render_status

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_EXACT_CAP",
    "QuantileSketch",
    "WindowedAggregator",
    "DEFAULT_RELATIVE_ACCURACY",
    "LiveStatusWriter",
    "read_status",
    "render_status",
    "render_prometheus",
    "DEFAULT_WRITE_EVERY",
    "STATUS_SCHEMA_VERSION",
    "Span",
    "SpanNode",
    "SpanRecorder",
    "NullSpan",
    "NULL_SPAN",
    "BufferSink",
    "JsonlSink",
    "NullSink",
    "NULL_SINK",
    "EVENT_SCHEMA_VERSION",
    "read_events",
    "read_events_tolerant",
    "SolverTelemetry",
    "StrictNumericsError",
    "TelemetrySnapshot",
    "NULL_TELEMETRY",
    "RunSummary",
    "load_run",
    "render_report",
    "render_span_tree",
    "render_iteration_table",
    "render_metrics",
    "render_diagnostics",
    "render_serving",
    "render_fault_tolerance",
    "DiagnosticsProbe",
    "SolveDiagnostics",
    "default_probes",
    "MassConservationProbe",
    "DensityHealthProbe",
    "HJBResidualProbe",
    "CFLMarginProbe",
    "ExploitabilityTrendProbe",
    "DampingStabilityProbe",
    "ComparisonResult",
    "Delta",
    "compare_runs",
    "build_chrome_trace",
    "write_chrome_trace",
    "MANIFEST_SCHEMA_VERSION",
    "RunRegistry",
    "build_manifest",
    "compute_run_id",
    "diff_manifests",
    "environment_fingerprint",
    "headline_metrics",
    "manifest_identity",
    "render_manifest",
    "render_runs_table",
    "BENCH_SCHEMA_VERSION",
    "BenchFormatError",
    "DEFAULT_TREND_THRESHOLD",
    "TrendSeries",
    "append_bench_entry",
    "bench_series",
    "find_regressions",
    "load_bench_trajectory",
    "metric_direction",
    "registry_series",
    "render_trend",
]
