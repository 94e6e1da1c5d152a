"""Cross-run comparison for telemetry streams.

``repro compare A.jsonl B.jsonl`` answers the question every
performance or correctness PR raises: *did anything regress between
these two runs?*  The comparison covers the three observable surfaces:

* **span timings** — total wall seconds per span path, with a relative
  regression threshold (default +20%) and a noise floor so
  microsecond-level spans cannot trip it;
* **metrics** — counters and gauges by name (histograms compare their
  means), reported as relative changes;
* **diagnostics** — ``diag.*`` findings per severity; *new* errors or
  warnings in the candidate run are regressions regardless of timing.

Benchmark trajectories (``BENCH_*.json``) and run-registry headlines
are judged by :mod:`repro.obs.trend` instead (``repro trend``,
``repro runs diff``).

The module is pure data transformation — comparisons are reproducible
from the files alone and never consult the clock.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.obs.report import RunSummary
from repro.obs.trend import format_change, relative_change

SPAN_NOISE_FLOOR_S = 5e-3
"""Spans whose baseline total is below this never count as regressions
— at sub-5ms totals, scheduler jitter swamps any real signal."""


@dataclass(frozen=True)
class Delta:
    """One compared quantity across the two runs."""

    name: str
    baseline: Optional[float]
    candidate: Optional[float]
    regressed: bool = False

    @property
    def rel_change(self) -> Optional[float]:
        """Relative change (candidate − baseline) / |baseline|."""
        if self.baseline is None or self.candidate is None:
            return None
        return relative_change(self.baseline, self.candidate)


@dataclass
class ComparisonResult:
    """Everything ``repro compare`` found between two runs."""

    span_deltas: List[Delta] = field(default_factory=list)
    metric_deltas: List[Delta] = field(default_factory=list)
    diag_deltas: List[Delta] = field(default_factory=list)
    regressions: List[str] = field(default_factory=list)

    @property
    def has_regressions(self) -> bool:
        return bool(self.regressions)

    def render(self) -> str:
        from repro.analysis.reporting import format_table

        sections: List[str] = []

        def table(title: str, deltas: List[Delta], unit: str) -> None:
            if not deltas:
                return
            rows = [
                (
                    d.name,
                    f"{d.baseline:.6g}" if d.baseline is not None else "-",
                    f"{d.candidate:.6g}" if d.candidate is not None else "-",
                    format_change(d.rel_change),
                    "REGRESSED" if d.regressed else "",
                )
                for d in deltas
            ]
            sections.append(
                format_table(
                    ["name", f"baseline {unit}", f"candidate {unit}", "change", ""],
                    rows,
                    title=title,
                )
            )

        table("span timings", self.span_deltas, "s")
        table("metrics", self.metric_deltas, "")
        table("diagnostics (findings)", self.diag_deltas, "count")
        if self.has_regressions:
            sections.append(
                "REGRESSIONS ({n}):\n{body}".format(
                    n=len(self.regressions),
                    body="\n".join(f"  - {r}" for r in self.regressions),
                )
            )
        else:
            sections.append("no regressions beyond thresholds")
        return "\n\n".join(sections) if sections else "(nothing to compare)"


def _metric_value(entry: Dict[str, Any]) -> Optional[float]:
    """One comparable number per metric (histograms use their mean)."""
    if entry.get("kind") == "histogram":
        return float(entry["mean"]) if entry.get("count") else None
    value = entry.get("value")
    return float(value) if isinstance(value, (int, float)) else None


def compare_runs(
    baseline: RunSummary,
    candidate: RunSummary,
    span_threshold: float = 0.2,
    metric_threshold: float = 0.2,
) -> ComparisonResult:
    """Diff two telemetry runs; see the module docstring for semantics.

    ``span_threshold`` is the relative slowdown that flags a span-path
    regression (0.2 = +20%); ``metric_threshold`` bounds which metric
    changes are *reported* (metric movement alone is not a regression —
    a counter going up is not inherently bad).
    """
    result = ComparisonResult()

    # Span timings: regression = candidate total grew past threshold on
    # a span whose baseline is above the noise floor.
    paths = sorted(set(baseline.span_totals) | set(candidate.span_totals))
    for path in paths:
        a = baseline.span_totals.get(path)
        b = candidate.span_totals.get(path)
        a_total = a[1] if a else None
        b_total = b[1] if b else None
        regressed = (
            a_total is not None
            and b_total is not None
            and a_total >= SPAN_NOISE_FLOOR_S
            and (b_total - a_total) / a_total > span_threshold
        )
        delta = Delta(path, a_total, b_total, regressed)
        result.span_deltas.append(delta)
        if regressed:
            result.regressions.append(
                f"span {path}: {a_total:.4f}s -> {b_total:.4f}s "
                f"({format_change(delta.rel_change)}, "
                f"threshold +{span_threshold:.0%})"
            )

    # Metrics: report changes beyond the threshold, never regress.
    names = sorted(set(baseline.metrics) | set(candidate.metrics))
    for name in names:
        a_val = (
            _metric_value(baseline.metrics[name]) if name in baseline.metrics else None
        )
        b_val = (
            _metric_value(candidate.metrics[name])
            if name in candidate.metrics
            else None
        )
        delta = Delta(name, a_val, b_val)
        rel = delta.rel_change
        if (
            a_val is None
            or b_val is None
            or rel is None
            or rel == float("inf")
            or abs(rel) > metric_threshold
        ):
            result.metric_deltas.append(delta)

    # Diagnostics: new errors (and newly appearing warnings) regress.
    a_counts = baseline.diag_counts()
    b_counts = candidate.diag_counts()
    for severity in ("error", "warning", "info"):
        delta = Delta(
            f"diag.{severity}",
            float(a_counts.get(severity, 0)),
            float(b_counts.get(severity, 0)),
            regressed=(
                severity in ("error", "warning")
                and b_counts.get(severity, 0) > a_counts.get(severity, 0)
            ),
        )
        result.diag_deltas.append(delta)
        if delta.regressed:
            result.regressions.append(
                f"diagnostics: {severity} findings went "
                f"{int(delta.baseline)} -> {int(delta.candidate)}"
            )
    return result
