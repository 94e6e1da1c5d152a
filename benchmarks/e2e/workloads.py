"""The four end-to-end workloads: inputs, set-up, one repetition, checks.

Each workload draws its inputs from the benchmark seed in its
constructor (the program only ever receives the generated objects),
builds everything a repetition needs in :meth:`Workload.setup` (timed
as set-up), and runs one closed-loop repetition in
:meth:`Workload.rep`.  :meth:`Workload.check` lists what is wrong with
one repetition's output and :meth:`Workload.fingerprint` is compared
across repetitions, which must be bit-identical.
:meth:`Workload.trace` re-runs the workload once through the wrappers
of :mod:`layers` and returns the per-layer numbers.

Why these four (the README has the full table):

* ``solve-catalog`` -- one batched Alg. 1 epoch; the HJB/FPK sweeps do
  nearly all the work, so a solver change shows here first.
* ``solve-single`` -- the paper's per-figure solve, the same sweeps
  with no batch axis: a change that helps wide batches but costs a
  batch of one shows here.
* ``serve-stream`` -- a streamed single-cache replay where every
  serving layer carries load and both hit and miss cells occur.
* ``serve-net`` -- a miss-heavy cache-network replay on a process
  pool: the only workload where the runtime ships work to workers.
"""

from __future__ import annotations

import abc
import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from layers import (
    RecordingExecutor,
    Timers,
    TracedPolicy,
    TracedStrategy,
    TracedZipfStream,
    core_metrics,
    core_self_times,
    runtime_metrics,
    stream_metrics,
    wrap_iterator,
)
from repro.content.catalog import ContentCatalog
from repro.content.requests import RequestProcess
from repro.core.best_response import BatchedBestResponseIterator, BestResponseIterator
from repro.core.equilibrium import EquilibriumResult
from repro.core.parameters import MFGCPConfig
from repro.core.solver import MFGCPSolver
from repro.runtime import ParallelExecutor, SerialExecutor
from repro.serve import ServingEngine, ZipfStream, stream_workload
from repro.serve.net import NetworkReplayEngine, parse_topology

MASS_TOLERANCE = 1e-8

# Input sizes per scale.  "full" is what BENCHMARK.json runs; "smoke"
# is the seconds-long geometry of the self-test.
PARAMS = {
    "full": {
        "solve-catalog": dict(n_contents=64, rate_per_edp=2000.0, batch_size=64),
        "solve-single": dict(fast=False),
        "serve-stream": dict(
            n_contents=64, n_edps=512, n_slots=20, rate_per_edp=200.0,
            chunk=8, capacity=0.3, batch_size=64,
        ),
        "serve-net": dict(
            n_contents=32, n_replicas=16, n_slots=40, rate_per_edp=100.0,
            chunk=8, capacity=0.1, topology="tree:2x4", workers=2, batch_size=64,
        ),
    },
    "smoke": {
        "solve-catalog": dict(n_contents=6, rate_per_edp=2000.0, batch_size=64),
        "solve-single": dict(fast=True),
        "serve-stream": dict(
            n_contents=12, n_edps=8, n_slots=6, rate_per_edp=40.0,
            chunk=4, capacity=0.3, batch_size=64,
        ),
        "serve-net": dict(
            n_contents=16, n_replicas=2, n_slots=6, rate_per_edp=20.0,
            chunk=4, capacity=0.1, topology="tree:2x4", workers=2, batch_size=64,
        ),
    },
}


@dataclass
class TraceResult:
    """One traced pass of a workload.

    ``wall_s`` is the traced repetition's wall time and ``baseline_s``,
    when set, the untraced time it is compared with for the tracing
    overhead (otherwise the untraced median repetition).  ``self_times``
    are the exclusive times of the layers, residual layer included, so
    they sum to ``wall_s``.
    """

    wall_s: float
    metrics: Dict[str, float]
    self_times: Dict[str, float]
    problems: List[str] = field(default_factory=list)
    baseline_s: Optional[float] = None


def _digest(arrays) -> str:
    sha = hashlib.sha256()
    for array in arrays:
        sha.update(np.ascontiguousarray(array).tobytes())
    return sha.hexdigest()


def lanes_fingerprint(lanes: Sequence[EquilibriumResult]) -> str:
    """Bit-level digest of every array a list of equilibria exposes."""
    return _digest(
        array
        for eq in lanes
        for array in (
            eq.value, eq.policy.table, eq.density,
            eq.mean_field.price, eq.mean_field.mean_q,
            eq.mean_field.mean_control,
        )
    )


def solver_problems(lanes: Sequence[EquilibriumResult]) -> List[str]:
    """FPK mass conservation, policy range and finiteness, per lane."""
    problems = []
    for lane, eq in enumerate(lanes):
        mass = (eq.density * eq.grid.cell_weights()).sum(axis=(1, 2))
        drift = float(np.max(np.abs(mass - 1.0)))
        if not drift <= MASS_TOLERANCE:
            problems.append(f"lane {lane}: FPK mass drifts by {drift:.3g}")
        table = eq.policy.table
        if not (np.all(table >= 0.0) and np.all(table <= 1.0)):
            problems.append(f"lane {lane}: policy leaves [0, 1]")
        arrays = (eq.value, table, eq.density, eq.mean_field.price)
        if not all(np.all(np.isfinite(a)) for a in arrays):
            problems.append(f"lane {lane}: non-finite values")
    return problems


def summary_fingerprint(report) -> str:
    return json.dumps(report.summary(), sort_keys=True)


def traced_solve(timers: Timers, make_iterator):
    """Build a best-response iterator and solve it through the core wrappers.

    Returns ``(lanes, build_s, solve_s)``: the equilibria as a list and
    the construction and ``solve()`` times.
    """
    with timers.span("iterator"):
        iterator = make_iterator()
    wrap_iterator(iterator, timers)
    with timers.span("solve"):
        lanes = iterator.solve()
    if not isinstance(lanes, list):
        lanes = [lanes]
    return lanes, timers.span_s("iterator"), timers.span_s("solve")


class Workload(abc.ABC):
    """One benchmark workload bound to its seed-generated inputs."""

    name: str = ""
    work_unit: str = ""
    quality_name: str = ""

    def __init__(self, seed: int, scale: str = "full") -> None:
        self.seed = int(seed)
        self.params = PARAMS[scale][self.name]

    @abc.abstractmethod
    def setup(self) -> None:
        """Build what a repetition needs (timed as set-up)."""

    def warmup(self):
        """The untimed first repetition; its output is the reference."""
        return self.rep()

    @abc.abstractmethod
    def rep(self):
        """One timed repetition; returns its output."""

    @abc.abstractmethod
    def fingerprint(self, out) -> str:
        """Bit-level digest of one repetition's output."""

    @abc.abstractmethod
    def check(self, out) -> List[str]:
        """Problems found in one repetition's output (empty when sound)."""

    @abc.abstractmethod
    def work(self, out) -> int:
        """Units of work one repetition completed (``work_unit``)."""

    @abc.abstractmethod
    def quality(self, out) -> float:
        """The output-quality ratio of one repetition."""

    @abc.abstractmethod
    def trace(self, timers: Timers, reference: str,
              untraced_wall_s: float) -> TraceResult:
        """One traced pass recording into ``timers``.

        ``reference`` is the untraced repetitions' fingerprint and
        ``untraced_wall_s`` their median wall time.
        """

    def inputs(self) -> Dict[str, object]:
        """The workload's parameters and seed-drawn inputs, for the record."""
        return dict(self.params)


class SolveCatalog(Workload):
    """One batched Alg. 1 epoch over a 64-content catalog."""

    name = "solve-catalog"
    work_unit = "contents"
    quality_name = "converged_share"

    def __init__(self, seed: int, scale: str = "full") -> None:
        super().__init__(seed, scale)
        rng = np.random.default_rng(self.seed)
        n = self.params["n_contents"]
        # Stratified U(50, 150) MB: content k draws its size from the
        # k-th of n equal strata.  The seed moves every size but not the
        # catalog's size profile, which would otherwise swing the lanes
        # that fail to converge (and the epoch time) from seed to seed.
        self.sizes = 50.0 + 100.0 * (np.arange(n) + rng.uniform(0.0, 1.0, n)) / n
        self.request_seed = int(rng.integers(2**32))

    def inputs(self):
        return dict(self.params, request_seed=self.request_seed,
                    mean_size_mb=float(self.sizes.mean()))

    def setup(self) -> None:
        self.catalog = ContentCatalog.from_sizes(self.sizes)
        self.config = MFGCPConfig.fast()
        self.solver = MFGCPSolver(self.config, executor=SerialExecutor())

    def _requests(self) -> RequestProcess:
        # A fresh process per repetition: every epoch samples the same
        # request batch, so repetitions stay bit-identical.
        return RequestProcess(
            n_contents=self.params["n_contents"],
            rate_per_edp=self.params["rate_per_edp"],
            rng=np.random.default_rng(self.request_seed),
        )

    def _epoch(self, solver: MFGCPSolver):
        return solver.run_epochs(
            self.catalog, self._requests(), n_epochs=1,
            solver_batching=True, batch_size=self.params["batch_size"],
        )[0]

    def rep(self):
        return self._epoch(self.solver)

    @staticmethod
    def lanes(epoch) -> List[EquilibriumResult]:
        return [epoch.equilibria[k] for k in sorted(epoch.equilibria)]

    def fingerprint(self, epoch) -> str:
        return _digest([epoch.popularity, epoch.timeliness]) + lanes_fingerprint(
            self.lanes(epoch)
        )

    def check(self, epoch) -> List[str]:
        problems = solver_problems(self.lanes(epoch))
        if not epoch.equilibria:
            problems.append("epoch solved no contents")
        return problems

    def work(self, epoch) -> int:
        return len(epoch.equilibria)

    def quality(self, epoch) -> float:
        lanes = self.lanes(epoch)
        return sum(eq.report.converged for eq in lanes) / len(lanes)

    def trace(self, timers, reference, untraced_wall_s):
        recorder = RecordingExecutor(SerialExecutor())
        with timers.span("epoch"):
            epoch = self._epoch(MFGCPSolver(self.config, executor=recorder))
        epoch_s = timers.span_s("epoch")
        shard = sorted(epoch.equilibria)
        lanes, build_s, solve_s = traced_solve(
            timers,
            lambda: BatchedBestResponseIterator(
                [epoch.equilibria[k].config for k in shard], content_ids=shard
            ),
        )
        # The epoch's item ran construction + solve untraced; swap that
        # for the traced construction + solve measured here.
        phase_s = epoch_s - recorder.execute_s + build_s + solve_s
        problems = []
        if self.fingerprint(epoch) != reference:
            problems.append("traced epoch differs from the untraced repetitions")
        if lanes_fingerprint(lanes) != lanes_fingerprint(self.lanes(epoch)):
            problems.append("traced iterator equilibria differ from the epoch's")
        metrics = core_metrics(timers, phase_s, solve_s, lanes)
        metrics.update(runtime_metrics(recorder))
        return TraceResult(phase_s, metrics, core_self_times(metrics), problems)


class SolveSingle(Workload):
    """The paper's single-content solve on the default 100x15x45 grid."""

    name = "solve-single"
    work_unit = "contents"
    quality_name = "converged_share"

    def setup(self) -> None:
        self.config = MFGCPConfig.fast() if self.params["fast"] else MFGCPConfig()
        self.solver = MFGCPSolver(self.config)

    def rep(self):
        return self.solver.solve()

    def fingerprint(self, eq) -> str:
        return lanes_fingerprint([eq])

    def check(self, eq) -> List[str]:
        return solver_problems([eq])

    def work(self, eq) -> int:
        return 1

    def quality(self, eq) -> float:
        return float(eq.report.converged)

    def trace(self, timers, reference, untraced_wall_s):
        lanes, build_s, solve_s = traced_solve(
            timers, lambda: BestResponseIterator(self.config)
        )
        phase_s = build_s + solve_s
        problems = []
        if lanes_fingerprint(lanes) != reference:
            problems.append("traced solve differs from the untraced repetitions")
        metrics = core_metrics(timers, phase_s, solve_s, lanes)
        metrics.update(runtime_metrics(None))
        return TraceResult(phase_s, metrics, core_self_times(metrics), problems)


class _Serving(Workload):
    """Shared set-up trace of the two serving workloads.

    Their solver layer runs in set-up (the equilibria the mfg policy or
    strategy is built from), so its trace re-solves those equilibria
    from the configs the engine returned and requires them bit-equal.
    """

    work_unit = "requests"
    quality_name = "hit_ratio"

    def __init__(self, seed: int, scale: str = "full") -> None:
        super().__init__(seed, scale)
        self.stream_seed = int(np.random.default_rng(self.seed).integers(2**32))

    def inputs(self):
        return dict(self.params, stream_seed=self.stream_seed)

    def _trace_equilibria(self, timers: Timers):
        """Core metrics of the set-up solve, and problems found."""
        solved = self.engine.solve_equilibria()
        ids = sorted(solved)
        lanes, build_s, solve_s = traced_solve(
            timers,
            lambda: BatchedBestResponseIterator(
                [solved[k].config for k in ids], content_ids=ids
            ),
        )
        metrics = core_metrics(timers, build_s + solve_s, solve_s, lanes)
        problems = []
        if lanes_fingerprint(lanes) != lanes_fingerprint([solved[k] for k in ids]):
            problems.append("traced set-up equilibria differ from the engine's")
        return metrics, problems

    @staticmethod
    def _replay_layers(timers, wall, metrics, decider, decisions, engine):
        """Decision and engine metrics of a traced replay; its self times.

        ``decider`` names the policy or strategy layer whose
        ``decisions`` were timed; the engine is the residual: replay
        time outside the stream and the decisions.
        """
        metrics.update(stream_metrics(timers, wall))
        decider_s = 0.0
        for decision in decisions:
            name = f"{decider}.{decision}"
            decider_s += timers.s(name)
            metrics[f"{name}.s"] = timers.s(name)
            metrics[f"{name}.calls"] = timers.calls(name)
        metrics[f"{decider}.share"] = decider_s / wall
        chunk_s = timers.s("serve.stream.chunk")
        request_rng_s = timers.s("serve.stream.request_rng")
        policy_rng_s = timers.s("serve.stream.policy_rng")
        engine_s = wall - chunk_s - policy_rng_s - decider_s
        metrics[f"{engine}.self_s"] = engine_s
        metrics[f"{engine}.share"] = engine_s / wall
        return {
            "serve.stream.chunk": chunk_s - request_rng_s,
            "serve.stream.request_rng": request_rng_s,
            "serve.stream.policy_rng": policy_rng_s,
            decider: decider_s,
            engine: engine_s,
        }

    def _stream(self, n_edps: int) -> ZipfStream:
        p = self.params
        return ZipfStream(
            n_catalog=p["n_contents"], alpha=1.0, n_edps=n_edps,
            n_slots=p["n_slots"], dt=1.0, rate_per_edp=p["rate_per_edp"],
            seed=self.stream_seed,
        )

    def fingerprint(self, report) -> str:
        return summary_fingerprint(report)

    def quality(self, report) -> float:
        return report.hit_ratio

    def work(self, report) -> int:
        return report.requests


class ServeStream(_Serving):
    """A streamed single-cache replay under the ``mfg`` policy."""

    name = "serve-stream"

    def setup(self) -> None:
        p = self.params
        self.stream = self._stream(p["n_edps"])
        self.recorder = RecordingExecutor(SerialExecutor())
        self.engine = ServingEngine(
            stream_workload(self.stream), p["n_edps"],
            capacity_fraction=p["capacity"], stream=self.stream,
            stream_chunk=p["chunk"], solver_batching=True,
            batch_size=p["batch_size"], executor=self.recorder,
        )
        self.policy = self.engine.build_policy("mfg")

    def warmup(self):
        # Chunk size is pure memory grain: the whole-trace chunk must
        # give the same summary as the chunked repetitions.
        self.engine.stream_chunk = self.stream.n_slots
        try:
            return self.engine.replay(self.policy)
        finally:
            self.engine.stream_chunk = self.params["chunk"]

    def rep(self):
        return self.engine.replay(self.policy)

    def check(self, report) -> List[str]:
        problems = []
        if report.requests != report.hits + report.misses:
            problems.append("requests != hits + misses")
        if report.requests <= 0 or not 0 <= report.hits <= report.requests:
            problems.append(f"implausible counts: {report.hits} of {report.requests}")
        if report.n_edps != self.params["n_edps"]:
            problems.append(f"report covers {report.n_edps} EDPs")
        return problems

    def trace(self, timers, reference, untraced_wall_s):
        metrics, problems = self._trace_equilibria(timers)
        # The recorder still holds the last untraced repetition's plan.
        metrics.update(runtime_metrics(self.recorder))
        engine = self.engine
        # The untraced replay right before the traced one is the
        # overhead baseline: both run after the set-up re-solve.
        with timers.span("untraced"):
            untraced = engine.replay(self.policy)
        engine.stream = TracedZipfStream.of(self.stream, timers)
        try:
            with timers.span("replay"):
                report = engine.replay(TracedPolicy(self.policy, timers))
        finally:
            engine.stream = self.stream
        wall = timers.span_s("replay")
        for label, out in (("untraced", untraced), ("traced", report)):
            if self.fingerprint(out) != reference:
                problems.append(f"{label} replay differs from the warm-up repetition")
        problems += self.check(report)

        self_times = self._replay_layers(
            timers, wall, metrics, "serve.policy",
            ("admit", "victim", "refresh_due"), "serve.engine",
        )
        admits = timers.calls("serve.policy.admit")
        metrics["serve.policy.admit_ratio"] = (
            timers.calls("serve.policy.admitted") / admits if admits else 0.0
        )
        cells = timers.calls("serve.cells")
        metrics["serve.cells"] = cells
        metrics["serve.cell_hit_ratio"] = 1.0 - admits / cells
        metrics["serve.requests_per_cell"] = report.requests / cells
        metrics["serve.evictions_per_cell"] = timers.calls("serve.policy.victim") / cells
        metrics["serve.hit_ratio"] = report.hit_ratio
        return TraceResult(
            wall, metrics, self_times, problems,
            baseline_s=timers.span_s("untraced"),
        )


class ServeNet(_Serving):
    """A streamed cache-network replay on ``tree:2x4`` over ``process:2``."""

    name = "serve-net"

    def setup(self) -> None:
        p = self.params
        topology = parse_topology(p["topology"])
        self.stream = self._stream(p["n_replicas"] * topology.n_receivers)
        self.pool = ParallelExecutor(workers=p["workers"])
        self.engine = NetworkReplayEngine(
            stream_workload(self.stream), topology,
            n_replicas=p["n_replicas"], capacity_fraction=p["capacity"],
            stream=self.stream, stream_chunk=p["chunk"],
            solver_batching=True, batch_size=p["batch_size"], executor=self.pool,
        )
        self.strategy = self.engine.build_strategy("mfg")

    def rep(self):
        return self.engine.replay(self.strategy)

    def check(self, report) -> List[str]:
        problems = []
        if report.requests != report.cache_hits + report.source_hits:
            problems.append("requests != cache hits + source hits")
        if sum(node.hits for node in report.per_node) != report.cache_hits:
            problems.append("per-node hits do not sum to cache hits")
        if report.requests <= 0:
            problems.append("no requests replayed")
        return problems

    def trace(self, timers, reference, untraced_wall_s):
        metrics, problems = self._trace_equilibria(timers)
        engine = self.engine
        recorder = RecordingExecutor(SerialExecutor())
        engine.executor = recorder
        try:
            with timers.span("serial"):
                serial = engine.replay(self.strategy)
            metrics.update(runtime_metrics(recorder))
            engine.executor = SerialExecutor()
            engine.stream = TracedZipfStream.of(self.stream, timers)
            with timers.span("replay"):
                report = engine.replay(TracedStrategy(self.strategy, timers))
        finally:
            engine.executor = self.pool
            engine.stream = self.stream
        serial_s = timers.span_s("serial")
        wall = timers.span_s("replay")
        for label, out in (("untraced serial", serial), ("traced serial", report)):
            if self.fingerprint(out) != reference:
                problems.append(f"{label} replay differs from the process:2 replays")
        problems += self.check(report)

        self_times = self._replay_layers(
            timers, wall, metrics, "net.strategy",
            ("should_place", "victim"), "net.engine",
        )
        places = timers.calls("net.strategy.should_place")
        metrics["net.placement_walks"] = report.totals.placement_walks
        metrics["net.placements"] = report.placements
        metrics["net.place_ratio"] = report.placements / places if places else 0.0
        metrics["net.queue_rejections"] = report.queue_rejected
        metrics["net.mean_hops"] = report.mean_hops
        metrics["net.hit_ratio"] = report.hit_ratio
        metrics["runtime.serial_s"] = serial_s
        metrics["runtime.speedup"] = serial_s / untraced_wall_s
        metrics["runtime.overhead_s"] = untraced_wall_s - serial_s / self.params["workers"]
        return TraceResult(wall, metrics, self_times, problems, baseline_s=serial_s)


WORKLOADS = {w.name: w for w in (SolveCatalog, SolveSingle, ServeStream, ServeNet)}
