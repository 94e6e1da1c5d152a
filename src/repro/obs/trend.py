"""Cross-run trend analytics over BENCH trajectories and the registry.

``BENCH_*.json`` files used to be overwrite-in-place snapshots — one
number, no history, no slope.  This module turns them into
**append-only trajectories**:

.. code-block:: json

    {
      "schema": 1,
      "bench": "serve",
      "entries": [
        {"git_sha": "3cc5e61…", "dirty": false,
         "recorded_at": "2026-08-07T12:00:00+00:00",
         "metrics": {"serial_requests_per_s": 4048437.5, "...": 0}}
      ]
    }

:func:`load_bench_trajectory` reads that shape and raises
:class:`BenchFormatError` on anything else (the CLI maps that to exit
2).  :func:`append_bench_entry` appends a measurement stamped with the
current git SHA/dirty flag and UTC time, using the registry's atomic
write.

``repro trend`` folds trajectories plus the run registry into
per-metric time series with sparkline/delta tables.  Regression
gating (``--fail-on-regression``) applies to *bench* series only —
each metric's direction is inferred from its name
(:func:`metric_direction`); registry series are report-only because
wall-clock headlines jitter run to run while bench numbers are
measured under controlled conditions.  ``repro runs diff`` judges its
two runs' headline metrics with the same series and direction rule.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.registry import _atomic_write_json, _git

BENCH_SCHEMA_VERSION = 1

#: Default relative-change threshold for ``repro trend`` gating.
DEFAULT_TREND_THRESHOLD = 0.05

#: Substrings marking a metric as bigger-is-better.  Checked *before*
#: the lower-is-better patterns: ``requests_per_s`` contains ``_s``
#: but must gate on drops, not growth.
HIGHER_IS_BETTER = ("per_s", "hit_ratio", "speedup", "throughput")

#: Substrings marking a metric as smaller-is-better.
LOWER_IS_BETTER = (
    "seconds", "_s", "latency", "time", "staleness", "rejection", "backhaul",
    "exploitability", "diag_error", "diag_warning",
)

SPARK_LEVELS = "▁▂▃▄▅▆▇█"


class BenchFormatError(ValueError):
    """A BENCH file that is not a trajectory document."""


def _is_metrics_dict(doc: Any) -> bool:
    return isinstance(doc, dict) and all(isinstance(k, str) for k in doc)


def _bench_name(path: str) -> str:
    name = os.path.splitext(os.path.basename(path))[0]
    return name[len("BENCH_"):] if name.startswith("BENCH_") else name


def load_bench_trajectory(path: str) -> Dict[str, Any]:
    """Read a BENCH trajectory document (``schema``/``bench``/``entries``).

    Anything unreadable or structurally wrong — including a flat
    metrics dict — raises :class:`BenchFormatError` with a one-line
    reason.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, ValueError) as err:
        raise BenchFormatError(f"cannot read benchmark file {path!r}: {err}")
    if not isinstance(doc, dict) or "entries" not in doc:
        raise BenchFormatError(
            f"benchmark file {path!r} is not a trajectory: expected "
            f'{{"schema": {BENCH_SCHEMA_VERSION}, "entries": '
            f'[{{"metrics": {{...}}}}, ...]}}'
        )
    schema = doc.get("schema")
    if not isinstance(schema, int) or schema > BENCH_SCHEMA_VERSION:
        raise BenchFormatError(
            f"benchmark file {path!r} has unsupported schema {schema!r}"
        )
    entries = doc["entries"]
    if not isinstance(entries, list) or not entries:
        raise BenchFormatError(
            f"benchmark file {path!r} needs a non-empty 'entries' list"
        )
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict) or not _is_metrics_dict(
            entry.get("metrics")
        ):
            raise BenchFormatError(
                f"benchmark file {path!r} entry {i} lacks a metrics object"
            )
    doc.setdefault("bench", _bench_name(path))
    return doc


def append_bench_entry(
    path: str, metrics: Dict[str, Any], bench: Optional[str] = None
) -> Dict[str, Any]:
    """Append one measurement to a trajectory file, atomically.

    Creates the file when missing, stamps the entry with the current
    git SHA / dirty flag / UTC timestamp, and returns the written
    document.
    """
    if os.path.exists(path):
        doc = load_bench_trajectory(path)
    else:
        doc = {
            "schema": BENCH_SCHEMA_VERSION,
            "bench": bench or _bench_name(path),
            "entries": [],
        }
    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain") if sha is not None else None
    doc["entries"].append(
        {
            "git_sha": sha,
            "dirty": bool(status) if status is not None else None,
            "recorded_at": datetime.now(timezone.utc).isoformat(
                timespec="seconds"
            ),
            "metrics": dict(metrics),
        }
    )
    _atomic_write_json(path, doc)
    return doc


# -- series + regression analysis -----------------------------------


def relative_change(baseline: float, value: float) -> Optional[float]:
    """``(value - baseline) / |baseline|``; ``inf`` when a zero baseline
    moved, ``None`` when both are zero."""
    if baseline == 0:
        return None if value == 0 else float("inf")
    return (value - baseline) / abs(baseline)


def format_change(rel: Optional[float]) -> str:
    """A relative change as ``+12.3%``, ``new`` (from zero) or ``-``."""
    if rel is None:
        return "-"
    if rel == float("inf"):
        return "new"
    return f"{rel:+.1%}"


def metric_direction(name: str) -> Optional[str]:
    """``"higher"``, ``"lower"``, or ``None`` for ungated metrics."""
    lowered = name.lower()
    if any(pattern in lowered for pattern in HIGHER_IS_BETTER):
        return "higher"
    if any(pattern in lowered for pattern in LOWER_IS_BETTER):
        return "lower"
    return None


@dataclass
class TrendSeries:
    """One metric's history from one source (a bench file or the
    registry), oldest first."""

    source: str
    metric: str
    values: List[float]
    gate: bool
    direction: Optional[str] = None
    labels: List[str] = field(default_factory=list)

    @property
    def latest(self) -> float:
        return self.values[-1]

    def delta(self) -> Optional[float]:
        """Relative change of the newest value vs the mean of the
        prior history (``None`` with fewer than two points)."""
        if len(self.values) < 2:
            return None
        baseline = sum(self.values[:-1]) / (len(self.values) - 1)
        return relative_change(baseline, self.latest)

    def regressed(self, threshold: float) -> bool:
        if not self.gate or self.direction is None:
            return False
        rel = self.delta()
        if rel is None:
            return False
        if self.direction == "higher":
            return rel < -threshold
        return rel > threshold


def bench_series(doc: Dict[str, Any], source: str) -> List[TrendSeries]:
    """Per-metric series from a trajectory document (gateable)."""
    history: Dict[str, List[float]] = {}
    for entry in doc["entries"]:
        for name, value in entry["metrics"].items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            history.setdefault(name, []).append(float(value))
    out = []
    for name in sorted(history):
        direction = metric_direction(name)
        out.append(
            TrendSeries(
                source=source,
                metric=name,
                values=history[name],
                gate=direction is not None,
                direction=direction,
            )
        )
    return out


def registry_series(manifests: List[Dict[str, Any]]) -> List[TrendSeries]:
    """Per-metric series from the run registry (report-only).

    Runs are comparable only within one ``(command, config_hash)``
    group — a config change legitimately moves every headline, so
    each group gets its own series, labelled
    ``command[config_hash]``.  Registry series never gate: wall-clock
    headlines (``requests_per_s``) jitter with machine load, and
    equilibrium headlines move whenever the config does.
    """
    groups: Dict[Tuple[str, str], List[Dict[str, Any]]] = {}
    for manifest in manifests:
        if manifest.get("status") != "ok":
            continue
        key = (
            str(manifest.get("command", "?")),
            str(manifest.get("config_hash", "?")),
        )
        groups.setdefault(key, []).append(manifest)
    out = []
    for (command, cfg_hash), group in sorted(groups.items()):
        group.sort(key=lambda m: m.get("seq") or 0)
        history: Dict[str, List[float]] = {}
        for manifest in group:
            for name, value in (manifest.get("metrics") or {}).items():
                if isinstance(value, bool) or not isinstance(
                    value, (int, float)
                ):
                    continue
                history.setdefault(name, []).append(float(value))
        source = f"{command}[{cfg_hash[:8]}]"
        for name in sorted(history):
            out.append(
                TrendSeries(
                    source=source,
                    metric=name,
                    values=history[name],
                    gate=False,
                    direction=metric_direction(name),
                )
            )
    return out


def sparkline(values: List[float]) -> str:
    """A unicode micro-chart of the series (min..max normalised)."""
    if not values:
        return ""
    lo, hi = min(values), max(values)
    if hi == lo:
        return SPARK_LEVELS[3] * len(values)
    span = hi - lo
    return "".join(
        SPARK_LEVELS[
            min(len(SPARK_LEVELS) - 1,
                int((v - lo) / span * len(SPARK_LEVELS)))
        ]
        for v in values
    )


def find_regressions(
    series_list: List[TrendSeries], threshold: float = DEFAULT_TREND_THRESHOLD
) -> List[str]:
    """Human-readable regression lines across all gateable series."""
    out = []
    for series in series_list:
        if not series.regressed(threshold):
            continue
        rel = series.delta()
        out.append(
            "{source} {metric}: {latest:.6g} vs historical mean "
            "({rel:+.1%}, {direction} is better, threshold ±{t:.0%})".format(
                source=series.source,
                metric=series.metric,
                latest=series.latest,
                rel=rel,
                direction=series.direction,
                t=threshold,
            )
        )
    return out


def render_trend(
    series_list: List[TrendSeries],
    threshold: float = DEFAULT_TREND_THRESHOLD,
) -> str:
    """The ``repro trend`` tables, grouped by source."""
    from repro.analysis.reporting import format_table

    sections = []
    by_source: Dict[str, List[TrendSeries]] = {}
    for series in series_list:
        by_source.setdefault(series.source, []).append(series)
    for source, group in by_source.items():
        rows = []
        for series in group:
            rows.append(
                (
                    series.metric,
                    len(series.values),
                    f"{series.latest:.6g}",
                    format_change(series.delta()),
                    sparkline(series.values[-16:]),
                    "REGRESSED" if series.regressed(threshold) else "",
                )
            )
        gated = any(s.gate for s in group)
        suffix = f" (gate ±{threshold:.0%})" if gated else " (report-only)"
        sections.append(
            format_table(
                ["metric", "n", "latest", "delta vs mean", "trend", ""],
                rows,
                title=f"{source}{suffix}",
            )
        )
    regressions = find_regressions(series_list, threshold)
    if regressions:
        sections.append(
            "REGRESSIONS ({n}):\n{body}".format(
                n=len(regressions),
                body="\n".join(f"  - {r}" for r in regressions),
            )
        )
    else:
        sections.append("no trend regressions beyond thresholds")
    return "\n\n".join(sections) if sections else "(no series)"
