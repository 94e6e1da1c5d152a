"""The :class:`SolverTelemetry` observer threaded through the pipeline.

One telemetry object bundles the three observability primitives —
a :class:`~repro.obs.metrics.MetricsRegistry`, a
:class:`~repro.obs.spans.SpanRecorder`, and an event sink — behind a
facade the solvers call unconditionally:

>>> tele = SolverTelemetry.null()          # disabled (the default)
>>> with tele.span("hjb"):                 # no-op singleton span
...     pass
>>> tele.event("iteration", iteration=1)   # returns immediately

Disabled telemetry (the :data:`NULL_TELEMETRY` default) costs a single
attribute check per call site, so hot numerical loops keep their seed
wall time.  Enabled telemetry records spans into the wall-time tree,
mirrors every finished span as a ``span`` event on the sink, and dumps
the metric registry as a final ``metrics`` event on ``close()``.

No wall-clock timestamps are ever attached and no solver *result*
changes in any way: the event stream is a pure side channel.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Dict, IO, List, Optional, Union

from repro.obs.events import BufferSink, JsonlSink, NULL_SINK, NullSink
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.spans import NULL_SPAN, NullSpan, Span, SpanNode, SpanRecorder

DIAG_SEVERITIES = ("info", "warning", "error")
"""Allowed severities for ``diag.*`` events, mildest first."""


class StrictNumericsError(RuntimeError):
    """Raised by :meth:`SolverTelemetry.diag` under ``strict_numerics``.

    Fail-fast escalation: an error-severity numerical-health finding
    (NaN density, mass blow-up, CFL violation, ...) aborts the run at
    the first bad iteration instead of producing a garbage equilibrium
    hours later.  The triggering event is still emitted before the
    raise, so the JSONL stream records what went wrong.
    """

    def __init__(self, check: str, message: str = "", value: Optional[float] = None):
        self.check = check
        self.message = message
        self.value = value
        super().__init__(f"strict numerics: [{check}] {message}")

    def __reduce__(self):
        # Keep the structured fields across the process-pool boundary
        # (default exception pickling would re-init with the formatted
        # string as ``check``).
        return (type(self), (self.check, self.message, self.value))


class _RecordingSpan:
    """A span that also mirrors itself onto the event sink on exit."""

    __slots__ = ("_telemetry", "_span")

    def __init__(self, telemetry: "SolverTelemetry", span: Span) -> None:
        self._telemetry = telemetry
        self._span = span

    @property
    def name(self) -> str:
        return self._span.name

    @property
    def duration(self) -> float:
        return self._span.duration

    @property
    def cpu_s(self) -> float:
        return self._span.cpu_s

    @property
    def rss_kb(self) -> float:
        return self._span.rss_kb

    def __enter__(self) -> "_RecordingSpan":
        self._span.__enter__()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        tele = self._telemetry
        path = tele.spans.current_path
        self._span.__exit__(exc_type, exc, tb)
        if tele.profile:
            tele.event(
                "span",
                path=path,
                dur_s=self._span.duration,
                cpu_s=self._span.cpu_s,
                rss_kb=round(self._span.rss_kb, 3),
                gc=self._span.gc_collections,
            )
        else:
            tele.event("span", path=path, dur_s=self._span.duration)
        return None


@dataclass
class TelemetrySnapshot:
    """Everything a buffered (per-worker) telemetry run recorded.

    Snapshots are plain data — event dicts, a metrics registry, a span
    tree — so they pickle across process boundaries.  The parent run
    folds them back in with :meth:`SolverTelemetry.absorb`, in
    work-item order, making the merged stream independent of worker
    completion order.
    """

    events: List[Dict[str, Any]] = field(default_factory=list)
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)
    spans: SpanNode = field(default_factory=lambda: SpanNode(""))


class SolverTelemetry:
    """Observer handed to solvers, simulators, and experiment drivers.

    Parameters
    ----------
    sink:
        Event destination.  ``None`` (with ``enabled`` unset) leaves
        telemetry disabled.
    enabled:
        Force-enable without a sink — spans and metrics are recorded
        in memory and can be inspected programmatically (the Table II
        timing path uses this).
    profile:
        Opt into per-span resource profiling (process CPU, RSS delta,
        GC collections); ``span`` events then carry
        ``cpu_s``/``rss_kb``/``gc`` fields.  Ignored while disabled.
    strict_numerics:
        Escalate error-severity :meth:`diag` findings into a
        :class:`StrictNumericsError` after emitting the event.
    """

    def __init__(
        self,
        sink: Optional[Union[NullSink, JsonlSink]] = None,
        enabled: Optional[bool] = None,
        profile: bool = False,
        strict_numerics: bool = False,
    ) -> None:
        self.sink = sink if sink is not None else NULL_SINK
        self.enabled = bool(self.sink.enabled) if enabled is None else bool(enabled)
        self.profile = bool(profile) and self.enabled
        self.strict_numerics = bool(strict_numerics)
        self.metrics = MetricsRegistry()
        self.spans = SpanRecorder(profile=self.profile)
        self.live = None  # Optional[repro.obs.live.LiveStatusWriter]
        self._seq = 0
        self._closed = False

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def null(cls) -> "SolverTelemetry":
        """A fresh disabled instance (see also :data:`NULL_TELEMETRY`)."""
        return cls()

    @classmethod
    def in_memory(
        cls, profile: bool = False, strict_numerics: bool = False
    ) -> "SolverTelemetry":
        """Enabled without a sink: spans/metrics recorded, no events."""
        return cls(enabled=True, profile=profile, strict_numerics=strict_numerics)

    @classmethod
    def to_jsonl(
        cls,
        target: Union[str, "os.PathLike[str]", IO[str]],
        profile: bool = False,
        strict_numerics: bool = False,
    ) -> "SolverTelemetry":
        """Enabled, streaming events to a JSON-lines file or handle."""
        return cls(
            sink=JsonlSink(target), profile=profile, strict_numerics=strict_numerics
        )

    @classmethod
    def buffered(
        cls, profile: bool = False, strict_numerics: bool = False
    ) -> "SolverTelemetry":
        """Enabled, collecting events in memory for a later merge.

        This is the per-worker observer of :mod:`repro.runtime`: the
        worker records into the buffer, :meth:`snapshot` packages it,
        and the parent telemetry replays it with :meth:`absorb`.
        """
        return cls(
            sink=BufferSink(), profile=profile, strict_numerics=strict_numerics
        )

    # ------------------------------------------------------------------
    # Live status (repro.obs.live side channel)
    # ------------------------------------------------------------------
    def set_live(self, writer) -> None:
        """Attach a :class:`~repro.obs.live.LiveStatusWriter`.

        The writer is a wall-clock side channel: executors heartbeat
        it as items complete and phases change, and it reads this
        telemetry's diag counters at write time.  Never attach one to
        the shared :data:`NULL_TELEMETRY` singleton — give the run its
        own telemetry instance (the CLI's ``--live-status`` does).
        """
        if self is NULL_TELEMETRY:
            raise ValueError(
                "refusing to attach a live-status writer to the shared "
                "NULL_TELEMETRY singleton; create a dedicated telemetry"
            )
        self.live = writer
        if writer is not None:
            writer.attach(self)

    # ------------------------------------------------------------------
    # Recording API (called from solver hot paths)
    # ------------------------------------------------------------------
    def span(self, name: str) -> Union[NullSpan, _RecordingSpan]:
        """A context-manager span; the shared no-op when disabled."""
        if not self.enabled:
            return NULL_SPAN
        return _RecordingSpan(self, self.spans.span(name))

    def event(self, kind: str, **fields: Any) -> None:
        """Emit one event dict (``ev`` + ``seq`` + the given fields)."""
        if not self.enabled:
            return
        self._seq += 1
        event: Dict[str, Any] = {"ev": kind, "seq": self._seq}
        event.update(fields)
        self.sink.emit(event)

    def inc(self, name: str, amount: float = 1.0) -> None:
        """Increment a counter (no-op when disabled)."""
        if self.enabled:
            self.metrics.counter(name).inc(amount)

    def gauge(self, name: str, value: float) -> None:
        """Write a gauge (no-op when disabled)."""
        if self.enabled:
            self.metrics.gauge(name).set(value)

    def observe(self, name: str, value: float) -> None:
        """Record a histogram observation (no-op when disabled).

        When the observation tips the histogram past its raw-sample
        cap (promoting it to constant-memory sketch storage), a
        one-time ``diag.metrics.sketch_promoted`` info finding is
        emitted — the report's diagnostics section then explains why
        that metric's percentiles carry the ``~`` marker.
        """
        if not self.enabled:
            return
        hist = self.metrics.histogram(name)
        was_exact = not hist.is_approx
        hist.record(value)
        if was_exact and hist.is_approx:
            self.diag(
                "metrics.sketch_promoted",
                "info",
                message=(
                    f"histogram {name!r} exceeded exact_cap="
                    f"{hist.exact_cap}; promoted to quantile sketch "
                    "(percentiles now ~1% relative error)"
                ),
                metric=name,
                exact_cap=hist.exact_cap,
            )

    def diag(
        self,
        check: str,
        severity: str,
        value: Optional[float] = None,
        threshold: Optional[float] = None,
        message: str = "",
        **fields: Any,
    ) -> None:
        """Emit a numerical-health finding as a ``diag.<check>`` event.

        Besides the event, findings tally into ``diag.findings`` and
        per-severity ``diag.<severity>`` counters so reports can show
        health at a glance without re-scanning the stream.  Under
        ``strict_numerics``, an ``"error"`` finding raises
        :class:`StrictNumericsError` *after* the event is emitted —
        the stream records the cause of the abort.

        Diag values must be deterministic functions of solver state
        (never wall-clock-derived), preserving the serial-vs-parallel
        bit-identity contract of :mod:`repro.runtime`.
        """
        if not self.enabled:
            return
        if severity not in DIAG_SEVERITIES:
            raise ValueError(
                f"diag severity must be one of {DIAG_SEVERITIES}, got {severity!r}"
            )
        payload: Dict[str, Any] = {"severity": severity}
        if value is not None:
            payload["value"] = value
        if threshold is not None:
            payload["threshold"] = threshold
        if message:
            payload["message"] = message
        payload.update(fields)
        self.event(f"diag.{check}", **payload)
        self.metrics.counter("diag.findings").inc()
        self.metrics.counter(f"diag.{severity}").inc()
        if severity == "error" and self.strict_numerics:
            raise StrictNumericsError(check, message or f"{check} failed", value)

    # ------------------------------------------------------------------
    # Worker-buffer merging (repro.runtime)
    # ------------------------------------------------------------------
    def snapshot(self) -> TelemetrySnapshot:
        """Package everything recorded so far for a cross-process merge."""
        return TelemetrySnapshot(
            events=list(getattr(self.sink, "events", [])),
            metrics=self.metrics,
            spans=self.spans.root,
        )

    def absorb(
        self,
        snapshot: Optional[TelemetrySnapshot],
        lane: Optional[str] = None,
    ) -> None:
        """Fold a worker snapshot into this telemetry deterministically.

        Buffered events are re-emitted through :meth:`event` (fresh
        ``seq`` numbers, original relative order); ``span`` events get
        their paths prefixed with the currently open span path, so a
        subtree recorded in a worker lands where a serial in-process
        run would have put it.  Metrics merge by name and the span
        tree grafts under the open span.  Call in work-item order —
        the merged stream is then identical for serial and parallel
        backends.

        ``lane`` tags every re-emitted event with the originating work
        item's label (e.g. ``content:3``).  The Chrome trace exporter
        uses lanes as thread rows, so a Perfetto view of a ``process:4``
        run shows per-work-item swimlanes.  Because lanes derive from
        the execution *plan* — not from which OS worker happened to run
        the item — the field is identical across backends.
        """
        if snapshot is None or not self.enabled:
            return
        prefix = self.spans.current_path
        for event in snapshot.events:
            kind = str(event.get("ev", "event"))
            if kind == "schema":  # defensive: never duplicate file headers
                continue
            fields = {k: v for k, v in event.items() if k not in ("ev", "seq")}
            if kind == "span" and prefix:
                child_path = str(fields.get("path", ""))
                fields["path"] = (
                    f"{prefix}/{child_path}" if child_path else prefix
                )
            if lane is not None and "lane" not in fields:
                fields["lane"] = lane
            self.event(kind, **fields)
        self.metrics.merge(snapshot.metrics)
        self.spans.graft(snapshot.spans)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def counter_value(self, name: str) -> float:
        """Convenience accessor for tests and reports."""
        return self.metrics.counter(name).value if name in self.metrics else 0.0

    def flush(self) -> None:
        self.sink.flush()

    def close(self) -> None:
        """Dump the metrics snapshot as a final event and close the sink."""
        if self._closed:
            return
        if self.enabled and len(self.metrics):
            self.event("metrics", metrics=self.metrics.snapshot())
        if self.live is not None:
            # Routine teardown marks "done"; an earlier finish("failed")
            # from an error handler wins (first-finish semantics).
            self.live.finish("done")
        self.sink.close()
        self._closed = True

    def __enter__(self) -> "SolverTelemetry":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


NULL_TELEMETRY = SolverTelemetry()
"""The shared disabled instance used as the default everywhere."""
