"""Chrome trace-event export for recorded telemetry streams.

Turns a JSONL event stream (``repro ... --telemetry run.jsonl``) into
the Chrome/Perfetto *Trace Event Format* — a JSON document that
``chrome://tracing`` and https://ui.perfetto.dev open directly — so a
merged serial or ``process:N`` run renders as swimlanes of nested span
blocks with diagnostics pinned as instant markers.

Timeline reconstruction
-----------------------
The telemetry contract deliberately records **no wall-clock
timestamps** (streams stay diffable across runs), so the exporter
rebuilds a timeline from what the stream does guarantee:

* ``span`` events are emitted at span *exit*, in post-order — every
  child closes before its parent, and siblings close in execution
  order;
* each event carries its full path (``epoch/solve/iteration/hjb``) and
  measured duration;
* events absorbed from runtime work items carry a ``lane`` field (the
  work-item label, e.g. ``content:3``).

Within a lane the exporter packs spans sequentially: a span's start is
its first descendant's start (or the end of the previous completed
interval when it has none), and its end covers both its own duration
and its children.  Lanes become Perfetto *threads* — one row per work
item plus a ``main`` row for the parent process — which matches how
the runtime actually schedules the work, up to worker assignment.
Durations are exact; only the absolute offsets are synthetic, which is
the best any timestamp-free stream can support.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, IO, List, Optional, Tuple, Union

MAIN_LANE = "main"


def _lane_of(event: Dict[str, Any]) -> str:
    lane = event.get("lane")
    return str(lane) if lane else MAIN_LANE


def build_chrome_trace(events: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Assemble a Trace Event Format document from telemetry events.

    Returns the ``{"traceEvents": [...]}`` dict ready to serialise.
    Spans become complete (``ph: "X"``) events with microsecond
    timestamps; ``diag.*`` events become instant (``ph: "i"``) markers
    on their lane at the reconstruction cursor.
    """
    trace_events: List[Dict[str, Any]] = []
    # Per lane: list of completed-but-unclaimed (path, start_us, end_us)
    # intervals; descendants collapse into their parent as it closes.
    pending: Dict[str, List[Tuple[str, float, float]]] = {}
    lane_order: List[str] = []

    def lane_state(lane: str) -> List[Tuple[str, float, float]]:
        if lane not in pending:
            pending[lane] = []
            lane_order.append(lane)
        return pending[lane]

    def cursor(stack: List[Tuple[str, float, float]]) -> float:
        return stack[-1][2] if stack else 0.0

    for event in events:
        kind = str(event.get("ev", ""))
        lane = _lane_of(event)
        if kind == "span":
            path = str(event.get("path", "")) or "span"
            dur_us = max(float(event.get("dur_s", 0.0)), 0.0) * 1e6
            stack = lane_state(lane)
            prefix = path + "/"
            n_children = 0
            while n_children < len(stack) and stack[-1 - n_children][0].startswith(
                prefix
            ):
                n_children += 1
            if n_children:
                children = stack[-n_children:]
                del stack[-n_children:]
                start = children[0][1]
                end = max(start + dur_us, children[-1][2])
            else:
                start = cursor(stack)
                end = start + dur_us
            stack.append((path, start, end))
            args: Dict[str, Any] = {"path": path}
            for key in ("cpu_s", "rss_kb", "gc"):
                if key in event:
                    args[key] = event[key]
            trace_events.append(
                {
                    "name": path.rsplit("/", 1)[-1],
                    "cat": "span",
                    "ph": "X",
                    "ts": round(start, 3),
                    "dur": round(max(end - start, 0.001), 3),
                    "pid": 1,
                    "tid": 0,  # patched to the lane's tid below
                    "args": args,
                    "_lane": lane,
                }
            )
        elif kind.startswith("diag."):
            stack = lane_state(lane)
            severity = str(event.get("severity", "info"))
            args = {
                k: v
                for k, v in event.items()
                if k not in ("ev", "seq", "lane") and _json_safe(v)
            }
            trace_events.append(
                {
                    "name": f"{kind} [{severity}]",
                    "cat": "diag",
                    "ph": "i",
                    "s": "t",
                    "ts": round(cursor(stack), 3),
                    "pid": 1,
                    "tid": 0,
                    "args": args,
                    "_lane": lane,
                }
            )

    # Stable lane -> tid mapping: main first, then first-appearance order.
    lanes = sorted(lane_order, key=lambda l: (l != MAIN_LANE, lane_order.index(l)))
    tids = {lane: i for i, lane in enumerate(lanes)}
    for entry in trace_events:
        entry["tid"] = tids[entry.pop("_lane")]

    metadata: List[Dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 1,
            "tid": 0,
            "args": {"name": "repro telemetry"},
        }
    ]
    for lane, tid in tids.items():
        metadata.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 1,
                "tid": tid,
                "args": {"name": lane},
            }
        )
    return {
        "traceEvents": metadata + trace_events,
        "displayTimeUnit": "ms",
    }


def _json_safe(value: Any) -> bool:
    return isinstance(value, (str, int, float, bool, list, type(None)))


def write_chrome_trace(
    events: List[Dict[str, Any]],
    target: Union[str, "os.PathLike[str]", IO[str]],
) -> Dict[str, int]:
    """Write the trace document; returns span/diag/lane counts."""
    document = build_chrome_trace(events)
    if hasattr(target, "write"):
        json.dump(document, target)  # type: ignore[arg-type]
    else:
        path = os.fspath(target)
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
    entries = document["traceEvents"]
    return {
        "spans": sum(1 for e in entries if e.get("cat") == "span"),
        "diags": sum(1 for e in entries if e.get("cat") == "diag"),
        "lanes": sum(1 for e in entries if e.get("name") == "thread_name"),
    }
