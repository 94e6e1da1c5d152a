"""Live run status: atomic JSON snapshots for `repro watch`.

:class:`LiveStatusWriter` is the in-flight counterpart of the post-hoc
JSONL stream: as a run progresses it rewrites one small JSON file
(tmp + ``os.replace``, the checkpoint-store idiom, so a concurrent
reader never sees a torn write) with the current phase, item progress,
retry/failure tallies, throughput, windowed serving statistics with
sketch-backed latency percentiles, diagnostic counts, and per-lane
heartbeats with straggler detection.  ``repro watch STATUS.json``
renders it as a refreshing dashboard.

Determinism contract
--------------------
The status file is a **pure side channel**: it is the one place in the
observability layer allowed to read the wall clock, and nothing in it
ever feeds back into solver results, telemetry metrics, or reports.
Each actual disk write also emits a ``live.status`` telemetry event —
those are wall-clock-throttled, so their *count* varies run to run,
and :func:`repro.testing.normalized_events` strips ``live.*`` events
wholesale; the serial-vs-parallel bit-identity contract is unchanged
with live status enabled.

Heartbeats are keyed by work-item *lane labels* from the execution
plan (``content:3``, ``serve:lru:shard2``), not OS worker ids — the
same philosophy as the Chrome-trace exporter's swimlanes: lanes derive
from the plan, so the status file's worker table is meaningful for
serial and process backends alike.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from repro.obs.sketch import QuantileSketch, WindowedAggregator

STATUS_SCHEMA_VERSION = 1

DEFAULT_WRITE_EVERY = 16
"""Completed items between status-file rewrites (plus forced writes)."""

DEFAULT_REQUEST_WINDOW = 10_000
"""Requests per tumbling window for the "recent hit ratio" view."""


def _atomic_write_json(path: Path, payload: Dict[str, Any]) -> None:
    # Same tmp+replace idiom as repro.runtime.checkpoint, minus the
    # fsync (a lost status frame costs nothing; the next write wins).
    # Reimplemented locally: repro.obs must not import repro.runtime.
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
    os.replace(tmp, path)


class LiveStatusWriter:
    """Throttled atomic writer of the live run-status JSON file.

    Parameters
    ----------
    path:
        Destination of the status file.
    every:
        Completed items between rewrites; phase changes, failures, and
        :meth:`finish` always force a write.
    straggler_after_s:
        A lane with no completed item for this many seconds — while
        some *other* lane did complete one — is flagged a straggler.
    request_window:
        Tumbling-window size (in requests) for the recent hit ratio.
    max_lanes:
        Heartbeat-table cap; the least recently active lanes are
        evicted past it, keeping the file small for huge plans.
    clock:
        Wall-clock source, injectable for tests.
    """

    def __init__(
        self,
        path: Union[str, "os.PathLike[str]"],
        every: int = DEFAULT_WRITE_EVERY,
        straggler_after_s: float = 60.0,
        request_window: int = DEFAULT_REQUEST_WINDOW,
        max_lanes: int = 64,
        clock: Callable[[], float] = time.time,
    ) -> None:
        if every < 1:
            raise ValueError(f"every must be positive, got {every}")
        self.path = Path(path)
        self.every = int(every)
        self.straggler_after_s = float(straggler_after_s)
        self.max_lanes = int(max_lanes)
        self._clock = clock
        self._telemetry = None  # set by SolverTelemetry.set_live

        now = clock()
        self._started = now
        self._phase = "starting"
        self._phase_started = now
        self._phase_total: Optional[int] = None
        self._phase_done = 0
        self._done = 0
        self._total: Optional[int] = None
        self._cached = 0
        self._retried = 0
        self._failed = 0
        self._since_write = 0
        self._writes = 0
        self._state = "running"

        self._requests = 0
        self._hits = 0
        self._latency = QuantileSketch()
        self._window = WindowedAggregator(window=int(request_window), retain=8)

        # lane -> {"items": int, "last_index": int, "last_wall": float}
        self._lanes: Dict[str, Dict[str, float]] = {}

        # Current replay's stream geometry (set_stream) and the request
        # count it started from; None outside serving runs.
        self._stream: Optional[Dict[str, Any]] = None
        self._stream_base = 0

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(self, telemetry: Any) -> None:
        """Bind the run's telemetry (diag counters, live.* events)."""
        self._telemetry = telemetry

    def _emit(self, kind: str, **fields: Any) -> None:
        tele = self._telemetry
        if tele is not None and getattr(tele, "enabled", False):
            tele.event(kind, **fields)

    # ------------------------------------------------------------------
    # Progress notes (called from executors / engines / epoch loop)
    # ------------------------------------------------------------------
    def set_phase(self, phase: str, total_items: Optional[int] = None) -> None:
        """Enter a new phase (epoch, equilibria solve, replay, ...)."""
        self._phase = str(phase)
        self._phase_started = self._clock()
        self._phase_total = None if total_items is None else int(total_items)
        self._phase_done = 0
        if total_items is not None:
            self._total = (self._total or 0) + int(total_items)
        self._emit("live.phase", phase=self._phase, total_items=self._phase_total)
        self.write(force=True)

    def register_lanes(self, labels: Sequence[str]) -> None:
        """Pre-register heartbeat lanes so silent ones are visible."""
        if len(labels) > self.max_lanes:
            return  # huge plans: track only lanes that complete items
        now = self._clock()
        for label in labels:
            self._lanes.setdefault(
                str(label), {"items": 0, "last_index": -1, "last_wall": now}
            )

    def note_item(self, label: Optional[str] = None,
                  index: Optional[int] = None) -> None:
        """One work item completed; heartbeat its lane, maybe write."""
        self._done += 1
        self._phase_done += 1
        self._since_write += 1
        if label is not None:
            lane = self._lanes.setdefault(
                str(label), {"items": 0, "last_index": -1, "last_wall": 0.0}
            )
            lane["items"] += 1
            lane["last_index"] = -1 if index is None else int(index)
            lane["last_wall"] = self._clock()
            if len(self._lanes) > self.max_lanes:
                oldest = min(self._lanes, key=lambda k: self._lanes[k]["last_wall"])
                del self._lanes[oldest]
        if self._since_write >= self.every:
            self.write()

    def note_cached(self, label: Optional[str] = None) -> None:
        """Tally a checkpoint cache hit (the completion itself still
        arrives via :meth:`note_item` through the progress hook)."""
        self._cached += 1

    def note_retry(self, label: Optional[str] = None) -> None:
        self._retried += 1
        self.write(force=True)

    def note_failed(self, label: Optional[str] = None) -> None:
        self._failed += 1
        self.write(force=True)

    def set_stream(
        self,
        *,
        workload: str,
        chunk_slots: int,
        n_chunks: int,
        expected_requests: float,
    ) -> None:
        """Record a serving replay's stream geometry for the dashboard.

        The snapshot then carries a ``stream`` block whose ``progress``
        is the share of ``expected_requests`` served since this call —
        logical progress through this replay alone (a comparison runs
        several replays through one writer), wall-clock free like every
        other deterministic input to the file.
        """
        self._stream_base = self._requests
        self._stream = {
            "workload": str(workload),
            "chunk_slots": int(chunk_slots),
            "n_chunks": int(n_chunks),
            "expected_requests": float(expected_requests),
        }
        self._emit("live.stream", **self._stream)
        self.write(force=True)

    def note_requests(self, requests: int, hits: int = 0,
                      latency_s: float = 0.0) -> None:
        """Fold one completed batch of serving requests into the views.

        ``latency_s`` is the batch's *total* latency; the per-request
        mean feeds the live latency sketch and the tumbling windows
        (keyed by cumulative request ordinal — logical progress, not
        wall time).
        """
        requests = int(requests)
        if requests <= 0:
            return
        self._window.observe(
            self._requests, requests=requests, hits=hits, latency_s=latency_s
        )
        self._requests += requests
        self._hits += int(hits)
        self._latency.record(latency_s / requests)

    # ------------------------------------------------------------------
    # Snapshot assembly
    # ------------------------------------------------------------------
    def _diag_counts(self) -> Dict[str, int]:
        tele = self._telemetry
        if tele is None or not getattr(tele, "enabled", False):
            return {}
        counts = {}
        for key in ("findings", "info", "warning", "error"):
            value = tele.counter_value(f"diag.{key}")
            if value:
                counts[key] = int(value)
        return counts

    def _worker_table(self, now: float) -> Dict[str, Dict[str, Any]]:
        table: Dict[str, Dict[str, Any]] = {}
        for label in sorted(self._lanes):
            lane = self._lanes[label]
            table[label] = {
                "items": int(lane["items"]),
                "last_index": int(lane["last_index"]),
                "age_s": round(max(0.0, now - lane["last_wall"]), 3),
            }
        return table

    def _stragglers(self, now: float) -> List[str]:
        if self._state != "running" or len(self._lanes) < 2:
            return []
        ages = {
            label: now - lane["last_wall"] for label, lane in self._lanes.items()
        }
        if min(ages.values()) > self.straggler_after_s:
            return []  # everything is slow — a stall, not a straggler
        return sorted(
            label for label, age in ages.items()
            if age > self.straggler_after_s
        )

    def snapshot(self) -> Dict[str, Any]:
        """The status payload exactly as it is written to disk."""
        now = self._clock()
        elapsed = max(now - self._started, 1e-9)
        payload: Dict[str, Any] = {
            "version": STATUS_SCHEMA_VERSION,
            "state": self._state,
            "phase": self._phase,
            "started_at": self._started,
            "updated_at": now,
            "elapsed_s": round(elapsed, 3),
            "items": {
                "done": self._done,
                "total": self._total,
                "cached": self._cached,
                "retried": self._retried,
                "failed": self._failed,
            },
            "phase_items": {
                "done": self._phase_done,
                "total": self._phase_total,
            },
            "throughput": {
                "items_per_s": round(self._done / elapsed, 3),
                "requests_per_s": round(self._requests / elapsed, 1),
            },
            "diags": self._diag_counts(),
            "workers": self._worker_table(now),
            "stragglers": self._stragglers(now),
        }
        if self._stream is not None:
            expected = self._stream["expected_requests"]
            payload["stream"] = dict(
                self._stream,
                progress=(
                    round(
                        min((self._requests - self._stream_base) / expected, 1.0),
                        6,
                    )
                    if expected > 0
                    else None
                ),
            )
        if self._requests:
            recent = self._window.totals(last=2)
            payload["requests"] = {
                "total": self._requests,
                "hits": self._hits,
                "hit_ratio": round(self._hits / self._requests, 6),
                "window_hit_ratio": round(
                    self._window.ratio("hits", "requests", last=2), 6
                )
                if recent.get("requests")
                else None,
            }
            lat = self._latency
            if lat.count:
                payload["latency_s"] = {
                    "p50": lat.quantile(50),
                    "p90": lat.quantile(90),
                    "p99": lat.quantile(99),
                    "mean": lat.mean,
                    "approx": True,
                }
        return payload

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def write(self, force: bool = False) -> bool:
        """Write the status file if due (or ``force``); True if written."""
        if not force and self._since_write < self.every:
            return False
        self._since_write = 0
        payload = self.snapshot()
        _atomic_write_json(self.path, payload)
        self._writes += 1
        self._emit(
            "live.status",
            phase=self._phase,
            items_done=self._done,
            path=str(self.path),
        )
        return True

    def finish(self, state: str = "done") -> None:
        """Final forced write; ``state`` is ``done`` or ``failed``.

        The first finish wins: a ``failed`` mark set by an error
        handler survives the telemetry teardown's routine ``done``.
        """
        if state not in ("done", "failed"):
            raise ValueError(f"final state must be 'done' or 'failed', got {state!r}")
        if self._state == "running":
            self._state = state
        self.write(force=True)


def read_status(path: Union[str, "os.PathLike[str]"]) -> Dict[str, Any]:
    """Load a status snapshot (raises ``FileNotFoundError`` if absent)."""
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)
