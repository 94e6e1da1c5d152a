"""Outside-in layer tracing for the end-to-end benchmark.

Every wrapper here sits on a public boundary of one layer of
``repro`` and times the calls that cross it; nothing under ``src/``
changes.  The layers and their boundaries:

* ``core`` -- ``hjb.solve``, ``fpk.solve`` and ``estimate`` on the
  solvers a (Batched)BestResponseIterator owns, re-bound per instance
  by :func:`wrap_iterator`;
* ``serve.stream`` -- :class:`TracedZipfStream`, a frozen-dataclass
  subclass of :class:`~repro.serve.stream.ZipfStream` overriding
  ``chunk``, ``request_rng`` and ``policy_rng``;
* ``serve.policies`` / ``serve.net.strategies`` -- :class:`TracedPolicy`
  and :class:`TracedStrategy`, delegating decision makers handed to
  ``replay()``;
* ``runtime`` -- :class:`RecordingExecutor`, an executor that runs
  plans on an inner backend and keeps the last plan and its outcomes,
  so pickled sizes can be measured after the timed region.

Fine-grained boundaries (one call per request cell) accumulate into
:class:`Counter` totals, because a span per call would cost more than
the call.  Coarse phases are kept as spans in memory and written out
with the run's result.
"""

from __future__ import annotations

import pickle
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.runtime import ExecutionPlan, Executor, ParallelExecutor
from repro.serve.net.strategies import PlacementStrategy
from repro.serve.policies import ServingPolicy
from repro.serve.stream import RequestChunk, ZipfStream

clock = time.perf_counter


class Counter:
    """Seconds spent in, and calls into, one layer boundary."""

    __slots__ = ("s", "calls")

    def __init__(self) -> None:
        self.s = 0.0
        self.calls = 0


class Timers:
    """The in-memory span store of one traced pass.

    ``counters`` maps a boundary name to its :class:`Counter`;
    ``spans`` lists coarse phases as ``(name, start, end, parent)``
    with ``parent`` the name of the enclosing span (or ``None``).
    """

    def __init__(self) -> None:
        self.counters: Dict[str, Counter] = {}
        self.spans: List[Tuple[str, float, float, Optional[str]]] = []
        self._open: List[str] = []

    def counter(self, name: str) -> Counter:
        return self.counters.setdefault(name, Counter())

    def s(self, name: str) -> float:
        counter = self.counters.get(name)
        return counter.s if counter is not None else 0.0

    def calls(self, name: str) -> int:
        counter = self.counters.get(name)
        return counter.calls if counter is not None else 0

    def wrap(self, name: str, fn):
        """``fn`` with every call timed into counter ``name``."""
        counter = self.counter(name)

        def timed(*args, **kwargs):
            t0 = clock()
            out = fn(*args, **kwargs)
            counter.s += clock() - t0
            counter.calls += 1
            return out

        return timed

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        parent = self._open[-1] if self._open else None
        self._open.append(name)
        t0 = clock()
        try:
            yield
        finally:
            self._open.pop()
            self.spans.append((name, t0, clock(), parent))

    def span_s(self, name: str) -> float:
        """Total duration of the closed spans called ``name``."""
        return sum(end - start for n, start, end, _ in self.spans if n == name)


def wrap_iterator(iterator, timers: Timers) -> None:
    """Time the HJB, FPK and mean-field calls of a best-response iterator.

    Works on both :class:`~repro.core.best_response.BestResponseIterator`
    (one ``estimator``) and the batched iterator (one estimator per
    lane): each solver method is re-bound on the instance, so the
    iterator's own loop is untouched.
    """
    iterator.hjb.solve = timers.wrap("core.hjb", iterator.hjb.solve)
    iterator.fpk.solve = timers.wrap("core.fpk", iterator.fpk.solve)
    estimators = getattr(iterator, "estimators", None) or [iterator.estimator]
    for estimator in estimators:
        estimator.estimate = timers.wrap("core.mean_field", estimator.estimate)


@dataclass(frozen=True, kw_only=True)
class TracedZipfStream(ZipfStream):
    """A :class:`ZipfStream` that times chunk generation and RNG keying.

    ``request_rng`` is called from inside ``chunk`` (via
    ``sample_slot``), so its time nests in the chunk time;
    ``policy_rng`` is called by the replay loop itself.  Non-empty
    ``(EDP, slot, content)`` cells are counted into ``serve.cells``.
    """

    timers: Timers = field(default=None, compare=False, repr=False)

    @classmethod
    def of(cls, stream: ZipfStream, timers: Timers) -> "TracedZipfStream":
        values = {f.name: getattr(stream, f.name) for f in fields(stream)}
        return cls(timers=timers, **values)

    def _timed(self, name: str, method, *args):
        counter = self.timers.counter(name)
        t0 = clock()
        out = method(*args)
        counter.s += clock() - t0
        counter.calls += 1
        return out

    def chunk(self, edp: int, index: int, chunk_slots: int) -> RequestChunk:
        out = self._timed("serve.stream.chunk", super().chunk, edp, index, chunk_slots)
        self.timers.counter("serve.cells").calls += int(np.count_nonzero(out.counts))
        return out

    def request_rng(self, edp: int, slot: int) -> np.random.Generator:
        return self._timed("serve.stream.request_rng", super().request_rng, edp, slot)

    def policy_rng(self, edp: int, slot: int) -> np.random.Generator:
        return self._timed("serve.stream.policy_rng", super().policy_rng, edp, slot)


class TracedPolicy(ServingPolicy):
    """Delegates every serving decision to ``inner`` and times it."""

    def __init__(self, inner: ServingPolicy, timers: Timers) -> None:
        self.inner = inner
        self.name = inner.name
        self._admit = timers.counter("serve.policy.admit")
        self._admitted = timers.counter("serve.policy.admitted")
        self._victim = timers.counter("serve.policy.victim")
        self._refresh = timers.counter("serve.policy.refresh_due")

    def warm(self, cache, t=0.0):
        return self.inner.warm(cache, t)

    def admit(self, slot, content, count, cache, rng):
        t0 = clock()
        out = self.inner.admit(slot, content, count, cache, rng)
        self._admit.s += clock() - t0
        self._admit.calls += 1
        if out:
            self._admitted.calls += 1
        return out

    def victim(self, slot, cache, rng):
        t0 = clock()
        out = self.inner.victim(slot, cache, rng)
        self._victim.s += clock() - t0
        self._victim.calls += 1
        return out

    def refresh_due(self, slot, content, age):
        t0 = clock()
        out = self.inner.refresh_due(slot, content, age)
        self._refresh.s += clock() - t0
        self._refresh.calls += 1
        return out


class TracedStrategy(PlacementStrategy):
    """Delegates every placement decision to ``inner`` and times it."""

    def __init__(self, inner: PlacementStrategy, timers: Timers) -> None:
        self.inner = inner
        self.name = inner.name
        self._place = timers.counter("net.strategy.should_place")
        self._victim = timers.counter("net.strategy.victim")

    def should_place(self, site, rng):
        t0 = clock()
        out = self.inner.should_place(site, rng)
        self._place.s += clock() - t0
        self._place.calls += 1
        return out

    def victim(self, slot, cache, rng):
        t0 = clock()
        out = self.inner.victim(slot, cache, rng)
        self._victim.s += clock() - t0
        self._victim.calls += 1
        return out


class RecordingExecutor(Executor):
    """Runs plans on ``inner``; keeps the last plan, its outcomes and time.

    The kept references let the runtime layer be measured after the
    timed region: the pickled size of what a process backend ships
    each way, and how long pickling it takes.
    """

    def __init__(self, inner: Executor) -> None:
        self.inner = inner
        self.last: Optional[Tuple[ExecutionPlan, list]] = None
        self.execute_s = 0.0

    @property
    def spec(self) -> str:
        return self.inner.spec

    def execute(self, plan, capture=False, profile=False,
                strict_numerics=False, progress=None):
        t0 = clock()
        outcomes = self.inner.execute(
            plan,
            capture=capture,
            profile=profile,
            strict_numerics=strict_numerics,
            progress=progress,
        )
        self.execute_s = clock() - t0
        self.last = (plan, outcomes)
        return outcomes


def runtime_metrics(recorder: Optional[RecordingExecutor]) -> Dict[str, float]:
    """Item count and pickled traffic of the recorder's last plan."""
    if recorder is None or recorder.last is None:
        return {
            "runtime.items": 0,
            "runtime.pickle_in_bytes": 0,
            "runtime.pickle_out_bytes": 0,
            "runtime.pickle_s": 0.0,
        }
    plan, outcomes = recorder.last
    t0 = clock()
    sent = [pickle.dumps(item) for item in plan]
    returned = [pickle.dumps(outcome) for outcome in outcomes]
    for blob in sent + returned:
        pickle.loads(blob)
    pickle_s = clock() - t0
    return {
        "runtime.items": len(plan),
        "runtime.pickle_in_bytes": sum(len(b) for b in sent),
        "runtime.pickle_out_bytes": sum(len(b) for b in returned),
        "runtime.pickle_s": pickle_s,
    }


def pool_start_s() -> float:
    """Wall time of a no-op 2-item plan on a 2-worker process pool."""
    plan = ExecutionPlan.map(abs, [(0,), (1,)])
    t0 = clock()
    ParallelExecutor(workers=2).run(plan)
    return clock() - t0


def core_metrics(timers: Timers, phase_s: float, solve_s: float,
                 lanes) -> Dict[str, float]:
    """Per-layer numbers of one traced solve phase of ``lanes`` equilibria.

    ``phase_s`` is the traced phase's wall time and ``solve_s`` the
    part spent inside the iterator's ``solve()``; shares are of
    ``phase_s``.  Best-response bookkeeping is ``solve_s`` minus the
    three wrapped layers, and everything in the phase outside
    ``solve()`` (iterator construction, and for an epoch its request
    sampling, config specialisation and plan overhead) is
    ``core.epoch.self_s``.
    """
    out: Dict[str, float] = {}
    inner = 0.0
    for layer in ("hjb", "fpk", "mean_field"):
        s = timers.s(f"core.{layer}")
        inner += s
        out[f"core.{layer}.s"] = s
        out[f"core.{layer}.share"] = s / phase_s
        out[f"core.{layer}.calls"] = timers.calls(f"core.{layer}")
    out["core.best_response.self_s"] = solve_s - inner
    out["core.epoch.self_s"] = phase_s - solve_s
    iterations = [eq.report.n_iterations for eq in lanes]
    out["core.iterations.max"] = max(iterations)
    out["core.iterations.mean"] = sum(iterations) / len(iterations)
    sweeps = timers.calls("core.hjb")
    out["core.active_lane_share"] = sum(iterations) / (sweeps * len(iterations))
    return out


def core_self_times(metrics: Dict[str, float]) -> Dict[str, float]:
    """Exclusive times of the core layers; they sum to the phase time."""
    return {
        "core.hjb": metrics["core.hjb.s"],
        "core.fpk": metrics["core.fpk.s"],
        "core.mean_field": metrics["core.mean_field.s"],
        "core.best_response": metrics["core.best_response.self_s"],
        "core.epoch": metrics["core.epoch.self_s"],
    }


def stream_metrics(timers: Timers, wall_s: float) -> Dict[str, float]:
    """Chunk generation and per-cell RNG keying of one traced replay."""
    out: Dict[str, float] = {}
    for layer in ("chunk", "request_rng", "policy_rng"):
        name = f"serve.stream.{layer}"
        out[f"{name}.s"] = timers.s(name)
        out[f"{name}.share"] = timers.s(name) / wall_s
        out[f"{name}.calls"] = timers.calls(name)
    out["serve.stream.seedseq_share"] = (
        timers.s("serve.stream.request_rng") + timers.s("serve.stream.policy_rng")
    ) / wall_s
    return out
