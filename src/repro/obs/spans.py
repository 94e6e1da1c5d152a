"""Nestable wall-clock span timers that aggregate into a tree.

A span measures one stage of work (``hjb``, ``fpk``, one epoch, one
content solve).  Spans nest: entering a span while another is open
attaches it as a child, so repeated stages aggregate into a wall-time
tree keyed by path (``solve/iteration/hjb``).  The recorder keeps
total seconds and call counts per path — the structure ``repro report``
renders and every future performance PR measures against.

The context managers are intentionally tiny: two ``perf_counter``
calls and two dict operations per span.  The disabled fast path lives
one layer up (:mod:`repro.obs.telemetry` hands out a shared no-op span
when telemetry is off), so solver hot loops pay a single attribute
check when observability is disabled.

Resource profiling
------------------
A recorder built with ``profile=True`` additionally charges each span
with process CPU time (``time.process_time``), resident-set-size
growth (KB, from ``/proc/self/statm`` where available), and the number
of garbage-collector collections that ran while the span was open.
Profiling is opt-in because each sample costs a syscall + a
``gc.get_stats()`` walk; the default recorder touches only
``perf_counter``.  Profiled numbers are *measurements*, never inputs —
solver results stay bit-identical with profiling on or off.
"""

from __future__ import annotations

import gc
import os
import time
from typing import Dict, Iterator, List, Optional, Tuple


def _read_rss_kb() -> float:
    """Current resident set size in KB (0.0 when unavailable)."""
    try:
        with open("/proc/self/statm", "r", encoding="ascii") as handle:
            pages = int(handle.read().split()[1])
        return pages * (os.sysconf("SC_PAGE_SIZE") / 1024.0)
    except (OSError, ValueError, IndexError):
        try:
            import resource

            # ru_maxrss is KB on Linux (bytes on macOS; close enough
            # for a fallback that only runs when /proc is missing).
            return float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        except Exception:  # pragma: no cover - exotic platforms
            return 0.0


def _gc_collections() -> int:
    """Cumulative garbage collections across all generations."""
    return sum(int(stats.get("collections", 0)) for stats in gc.get_stats())


class SpanNode:
    """Aggregated timings for one path in the span tree."""

    __slots__ = ("name", "count", "total_s", "cpu_s", "rss_kb", "gc_collections", "children")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total_s = 0.0
        self.cpu_s = 0.0          # process CPU charged (profiling only)
        self.rss_kb = 0.0         # net RSS growth in KB (profiling only)
        self.gc_collections = 0   # GC collections while open (profiling only)
        self.children: Dict[str, "SpanNode"] = {}

    def child(self, name: str) -> "SpanNode":
        node = self.children.get(name)
        if node is None:
            node = SpanNode(name)
            self.children[name] = node
        return node

    @property
    def mean_s(self) -> float:
        return self.total_s / self.count if self.count else 0.0

    def merge(self, other: "SpanNode") -> None:
        """Fold another node's counts/timings (and subtree) into this one.

        Used when a worker process ships its span tree back to the
        parent: identical paths aggregate exactly as if the spans had
        been recorded in-process.
        """
        self.count += other.count
        self.total_s += other.total_s
        self.cpu_s += other.cpu_s
        self.rss_kb += other.rss_kb
        self.gc_collections += other.gc_collections
        for name, child in other.children.items():
            self.child(name).merge(child)

    def walk(self, prefix: str = "") -> Iterator[Tuple[str, "SpanNode"]]:
        """Yield ``(path, node)`` pairs depth-first."""
        path = f"{prefix}/{self.name}" if prefix else self.name
        yield path, self
        for child in self.children.values():
            yield from child.walk(path)

    # SpanNode uses __slots__, so give pickle an explicit state tuple
    # (worker span trees cross the process boundary inside snapshots).
    def __getstate__(self):
        return (
            self.name, self.count, self.total_s, self.cpu_s,
            self.rss_kb, self.gc_collections, self.children,
        )

    def __setstate__(self, state) -> None:
        (
            self.name, self.count, self.total_s, self.cpu_s,
            self.rss_kb, self.gc_collections, self.children,
        ) = state


class Span:
    """One live measurement; use as a context manager.

    After ``__exit__`` the measured wall time is available as
    :attr:`duration` — callers that need the number (e.g. the Table II
    best-of-N timing) read it instead of re-timing.  Under a profiling
    recorder :attr:`cpu_s`, :attr:`rss_kb`, and :attr:`gc_collections`
    carry the resource deltas.
    """

    __slots__ = (
        "name", "duration", "cpu_s", "rss_kb", "gc_collections",
        "_recorder", "_start", "_cpu0", "_rss0", "_gc0", "_node",
    )

    def __init__(self, recorder: "SpanRecorder", name: str) -> None:
        self.name = name
        self.duration = 0.0
        self.cpu_s = 0.0
        self.rss_kb = 0.0
        self.gc_collections = 0
        self._recorder = recorder
        self._start = 0.0
        self._cpu0 = 0.0
        self._rss0 = 0.0
        self._gc0 = 0
        self._node: Optional[SpanNode] = None

    def __enter__(self) -> "Span":
        self._node = self._recorder._push(self.name)
        if self._recorder.profile:
            self._cpu0 = time.process_time()
            self._rss0 = _read_rss_kb()
            self._gc0 = _gc_collections()
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.duration = time.perf_counter() - self._start
        if self._recorder.profile:
            self.cpu_s = time.process_time() - self._cpu0
            self.rss_kb = _read_rss_kb() - self._rss0
            self.gc_collections = _gc_collections() - self._gc0
        self._recorder._pop(self, self._node)
        return None


class NullSpan:
    """The shared no-op span handed out when telemetry is disabled."""

    __slots__ = ()
    name = ""
    duration = 0.0
    cpu_s = 0.0
    rss_kb = 0.0
    gc_collections = 0

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


NULL_SPAN = NullSpan()


class SpanRecorder:
    """Aggregates nested spans into a wall-time tree.

    Not thread-safe: one recorder belongs to one solver call chain,
    matching how telemetry objects are threaded through the pipeline.

    Parameters
    ----------
    profile:
        When True every span also samples process CPU time, RSS, and
        GC collection counts on entry/exit and charges the deltas to
        its tree node (see the module docstring).
    """

    def __init__(self, profile: bool = False) -> None:
        self.profile = bool(profile)
        self.root = SpanNode("")
        self._stack: List[SpanNode] = [self.root]

    def span(self, name: str) -> Span:
        if "/" in name:
            raise ValueError(f"span names must not contain '/', got {name!r}")
        return Span(self, name)

    def _push(self, name: str) -> SpanNode:
        node = self._stack[-1].child(name)
        self._stack.append(node)
        return node

    def _pop(self, span: Span, node: SpanNode) -> None:
        popped = self._stack.pop()
        if popped is not node:  # pragma: no cover - misuse guard
            raise RuntimeError(
                f"span {node.name!r} exited out of order (open: {popped.name!r})"
            )
        node.count += 1
        node.total_s += span.duration
        if self.profile:
            node.cpu_s += span.cpu_s
            node.rss_kb += span.rss_kb
            node.gc_collections += span.gc_collections

    def graft(self, root: SpanNode) -> None:
        """Attach another recorder's tree under the currently open span.

        ``root`` is the (nameless) root of a worker recorder; its
        children become children of whatever span is open here — e.g.
        an equilibrium shard's ``solve/...`` subtree recorded in a
        worker grafts under the parent's live ``epoch`` span, giving
        the same ``epoch/solve`` paths a serial in-process run
        produces.
        """
        for name, child in root.children.items():
            self._stack[-1].child(name).merge(child)

    @property
    def current_path(self) -> str:
        """The '/'-joined path of open spans (empty at top level)."""
        return "/".join(n.name for n in self._stack[1:])

    def rows(self) -> List[Tuple[str, int, float]]:
        """Flat ``(path, count, total seconds)`` rows, depth-first."""
        out = []
        for child in self.root.children.values():
            out.extend(
                (path, node.count, node.total_s) for path, node in child.walk()
            )
        return out

    def render(self, min_seconds: float = 0.0) -> str:
        """An indented wall-time tree (used by reports and debugging)."""
        lines: List[str] = []

        def emit(node: SpanNode, depth: int) -> None:
            if node.count and node.total_s >= min_seconds:
                line = (
                    f"{'  ' * depth}{node.name:<{max(1, 28 - 2 * depth)}} "
                    f"{node.total_s:>9.4f}s  x{node.count}"
                    f"  (avg {node.mean_s * 1e3:.2f} ms)"
                )
                if self.profile and node.cpu_s:
                    line += f"  cpu {node.cpu_s:.4f}s"
                lines.append(line)
            for child in node.children.values():
                emit(child, depth + 1)

        for child in self.root.children.values():
            emit(child, 0)
        return "\n".join(lines)
