"""The network replay engine: hop-by-hop cache probing over a topology.

:class:`NetworkReplayEngine` routes every request from its receiver
toward the origin along the topology's precomputed route, probing each
caching node on the way; the first node holding the content serves it
(the source always can), and on the return path the pluggable
:class:`~repro.serve.net.strategies.PlacementStrategy` decides which
nodes keep a copy — each placement passing through the node's finite
:class:`~repro.serve.net.queue.AdmissionQueue` first.

Execution shape
---------------
Node caches are shared by every receiver, so a network replay cannot
shard per receiver the way :class:`~repro.serve.engine.ServingEngine`
shards per EDP.  The parallel unit is instead the **replica**: each
replica replays the whole network against its own independent request
lanes (receiver ``r`` of replica ``j`` consumes lane
``j * n_receivers + r`` of one shared
:class:`~repro.serve.stream.RequestStream`), and replicas are grouped
into :class:`~repro.runtime.ExecutionPlan` work items.  Every
``(lane, slot)`` cell owns its RNG, each replica is replayed
slot-ordered in one item, and per-item results and telemetry merge in
item order — so reports are bit-identical across ``serial`` and any
``process:N`` backend, across shard counts, and across chunk sizes.

Semantics (documented in ``docs/serving.md``)
---------------------------------------------
* A slot's batch of ``c`` requests for content ``k`` probes the route
  once; all ``c`` requests are served where the probe first hits.
* End-to-end latency per request is the round trip to the serving
  node: ``2 *`` the route's cumulative one-way edge latency.
* The placement pass walks the return path top-down (serving node
  toward receiver); a strategy "yes" becomes a queue offer, and an
  admitted write evicts strategy-chosen victims until the copy fits.
* Request timeliness draws are generated (the stream is shared with
  the single-cache engine) but staleness is not modelled on the
  network plane — copies are replaced, never refreshed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.content.workloads import Workload
from repro.core.equilibrium import EquilibriumResult
from repro.core.parameters import MFGCPConfig
from repro.core.solver import fan_out_equilibria
from repro.obs.telemetry import NULL_TELEMETRY, SolverTelemetry
from repro.runtime import ExecutionPlan, ExecutorLike, as_executor, partition_indices
from repro.serve.cache import CacheEntry, EdgeCache
from repro.serve.engine import (
    equilibrium_configs,
    equilibrium_label,
    set_live_stream,
)
from repro.serve.net.queue import AdmissionQueue
from repro.serve.net.report import (
    NetworkReplayStats,
    NetworkServingReport,
    NodeServingStats,
)
from repro.serve.net.strategies import (
    PlacementSite,
    PlacementStrategy,
    make_strategy,
)
from repro.serve.net.topology import CacheNetworkTopology, parse_topology
from repro.serve.stream import RequestStream


@dataclass(frozen=True)
class NetworkReplaySpec:
    """Everything one shard needs to replay its replicas (picklable).

    Attributes
    ----------
    topology:
        The cache network (routes and latencies precomputed).
    stream:
        The :class:`~repro.serve.stream.RequestStream`; lane
        ``j * n_receivers + r`` feeds receiver ``r`` of replica ``j``
        (``stream.n_edps`` must equal ``n_replicas * n_receivers``).
        Per-receiver demand lives in the stream
        (:class:`~repro.serve.stream.LanePopularityStream`).
    n_receivers, n_replicas:
        The lane-indexing geometry.
    sizes_mb:
        Catalog sizes per content.
    node_capacity_mb:
        Per-router cache capacity.
    queue_capacity, queue_service_rate:
        Admission-queue shape shared by every caching node.
    chunk_slots:
        Replay chunk size in slots; at most one chunk per receiver
        lane is resident at a time.  ``0`` means one chunk per replay.
        Pure memory grain — results are bit-identical across values.
    """

    topology: CacheNetworkTopology
    stream: RequestStream
    n_receivers: int
    n_replicas: int
    sizes_mb: Tuple[float, ...]
    node_capacity_mb: float
    queue_capacity: int
    queue_service_rate: float
    chunk_slots: int = 0

    def __post_init__(self) -> None:
        if self.n_receivers != self.topology.n_receivers:
            raise ValueError(
                f"spec names {self.n_receivers} receivers but the topology "
                f"has {self.topology.n_receivers}"
            )
        if self.n_replicas < 1:
            raise ValueError(f"n_replicas must be positive, got {self.n_replicas}")
        if self.stream.n_edps != self.n_replicas * self.n_receivers:
            raise ValueError(
                f"stream provides {self.stream.n_edps} lanes; "
                f"{self.n_replicas} replicas x {self.n_receivers} receivers "
                f"need {self.n_replicas * self.n_receivers}"
            )
        if len(self.sizes_mb) != self.stream.n_contents:
            raise ValueError(
                f"{len(self.sizes_mb)} sizes for {self.stream.n_contents} contents"
            )
        if self.node_capacity_mb <= 0:
            raise ValueError(
                f"node_capacity_mb must be positive, got {self.node_capacity_mb}"
            )
        if self.chunk_slots < 0:
            raise ValueError(
                f"chunk_slots must be non-negative, got {self.chunk_slots}"
            )


class _Hop(NamedTuple):
    """One caching position of a receiver's route, bound to a replica."""

    node: int
    cache: EdgeCache
    lookup: Callable[[int], Optional[CacheEntry]]
    queue: AdmissionQueue
    stats: NodeServingStats
    depth: int
    # Capacity of the caching nodes from the receiver side up to and
    # including this one (ProbCache's N, before dividing by the size).
    prefix_capacity_mb: float


class _RoutePlan(NamedTuple):
    """Everything one receiver's slot batches need, resolved once.

    ``hops[i]`` is route position ``i + 1``; the route's last position
    is the source.  A plan holds one replica's caches, queues and
    per-node stats, so each replica builds its own.
    """

    strategy: PlacementStrategy
    sizes_mb: Tuple[float, ...]
    max_depth: int
    route_latency: Tuple[float, ...]
    hops: Tuple[_Hop, ...]


def _route_plans(
    spec: NetworkReplaySpec,
    strategy: PlacementStrategy,
    caches: Dict[int, EdgeCache],
    queues: Dict[int, AdmissionQueue],
    stats: NetworkReplayStats,
) -> List[_RoutePlan]:
    """One :class:`_RoutePlan` per receiver over this replica's state."""
    topo = spec.topology
    max_depth = max(int(topo.depths[v]) for v in topo.routers)
    plans = []
    for receiver in range(spec.n_receivers):
        route = topo.routes[receiver]
        hops = []
        prefix = 0.0
        for node in route[1:-1]:
            cache = caches[node]
            # An explicit left-to-right sum, as EdgeCache.used_mb
            # keeps: builtin sum() of floats rounds differently across
            # Python versions.
            prefix += cache.capacity_mb
            hops.append(
                _Hop(
                    node,
                    cache,
                    cache.entries.get,
                    queues[node],
                    stats.per_node[node],
                    int(topo.depths[node]),
                    prefix,
                )
            )
        plans.append(
            _RoutePlan(
                strategy,
                spec.sizes_mb,
                max_depth,
                topo.route_latencies[receiver],
                tuple(hops),
            )
        )
    return plans


def _serve_receiver_slot(
    plan: _RoutePlan,
    stats: NetworkReplayStats,
    slot: int,
    t: float,
    counts: np.ndarray,
    policy_rng: np.random.Generator,
    measured: bool = True,
) -> None:
    """Serve one receiver's slot batch: probe, account, place.

    The single place network serving semantics live; every replica
    replay funnels through here.  ``measured``
    gates every stats counter (warmup slots mutate caches and queues
    but report nothing).
    """
    strategy, sizes, max_depth, route_latency, hops = plan
    should_place = strategy.should_place
    source_pos = len(hops) + 1
    # Native ints for the cell loop: numpy scalar conversions per cell
    # cost more than the bookkeeping they feed.
    slot_counts = counts.tolist()
    for k in np.flatnonzero(counts).tolist():
        count = slot_counts[k]
        # Probe hop by hop toward the origin; positions
        # 1..len(hops) are caching routers, source_pos is the source.
        serving_pos = source_pos
        entry = None
        for pos, hop in enumerate(hops, 1):
            entry = hop.lookup(k)
            if entry is not None:
                serving_pos = pos
                break
        if measured:
            stats.requests += count
            stats.hops += serving_pos * count
            stats.max_hops = max(stats.max_hops, serving_pos)
            stats.latency_s += 2.0 * route_latency[serving_pos] * count
        if entry is not None:
            entry.last_used = t
            entry.hits += count
            if measured:
                stats.cache_hits += count
                hops[serving_pos - 1].stats.hits += count
        elif measured:
            stats.source_hits += count

        # Placement pass: return path, serving node downward.
        if serving_pos <= 1:
            continue
        if measured:
            stats.placement_walks += 1
        size = sizes[k]
        downstream_index = 0
        for pos in range(serving_pos - 1, 0, -1):
            node, cache, _, queue, node_stats, depth, prefix = hops[pos - 1]
            downstream_index += 1
            site = PlacementSite(
                node,
                slot,
                k,
                serving_pos - pos,
                pos,
                serving_pos,
                downstream_index,
                pos == 1,
                depth,
                max_depth,
                prefix / size,
                cache.capacity_mb / size,
            )
            if not should_place(site, policy_rng):
                continue
            if measured:
                stats.placement_attempts += 1
            if not queue.offer(t):
                continue
            if not cache.fits(size):
                continue
            while not cache.has_room(size):
                victim = strategy.victim(slot, cache, policy_rng)
                cache.evict(victim)
                if measured:
                    node_stats.evictions += 1
            cache.store(k, size, t)
            if measured:
                node_stats.placements += 1


def _check_occupancy(
    spec: NetworkReplaySpec,
    strategy: PlacementStrategy,
    caches: Dict[int, EdgeCache],
    telemetry: SolverTelemetry,
) -> None:
    if not telemetry.enabled:
        return
    over = [
        node
        for node, cache in sorted(caches.items())
        if cache.used_mb > spec.node_capacity_mb * (1 + 1e-9)
    ]
    if over:
        # Invariant check: placement/eviction must never leave a
        # node cache over capacity; an overshoot is a strategy bug.
        telemetry.diag(
            "net.occupancy",
            "error",
            value=float(len(over)),
            threshold=float(spec.node_capacity_mb),
            message="node cache occupancy exceeds capacity",
            nodes=over,
            strategy=strategy.name,
        )


def _replay_replica_chunks(
    spec: NetworkReplaySpec,
    strategy: PlacementStrategy,
    replica: int,
    telemetry: SolverTelemetry = NULL_TELEMETRY,
) -> NetworkReplayStats:
    """Replay one full-network replica against fresh caches and queues.

    Receiver lane ``r`` consumes stream EDP ``replica * n_receivers +
    r``; at most one ``chunk_slots``-slot chunk per lane is resident at
    a time, so peak memory is independent of the replay horizon.
    Policy draws key per ``(lane, slot)``, so results are invariant to
    the chunk size.  Warmup slots (``stream.warmup_slots``) exercise
    caches and queues but touch no counters — queue counters are
    baselined at the warmup boundary and the pre-boundary portion
    subtracted at fold time.
    """
    stream = spec.stream
    topo = spec.topology
    caches: Dict[int, EdgeCache] = {
        int(v): EdgeCache(capacity_mb=spec.node_capacity_mb) for v in topo.routers
    }
    queues: Dict[int, AdmissionQueue] = {
        int(v): AdmissionQueue(
            capacity=spec.queue_capacity, service_rate=spec.queue_service_rate
        )
        for v in topo.routers
    }
    stats = NetworkReplayStats.empty(topo)
    stats.replicas = 1
    stats.elapsed_t = stream.measured_slots * stream.dt
    plans = _route_plans(spec, strategy, caches, queues, stats)
    warmup = stream.warmup_slots
    lanes = [replica * spec.n_receivers + r for r in range(spec.n_receivers)]
    chunk_slots = spec.chunk_slots or stream.n_slots

    baseline: Optional[Dict[int, Tuple[int, int, float]]] = None
    if warmup == 0:
        baseline = {int(v): (0, 0, 0.0) for v in topo.routers}
    for index in range(stream.n_chunks(chunk_slots)):
        chunks = [stream.chunk(lane, index, chunk_slots) for lane in lanes]
        for local in range(chunks[0].n_slots):
            slot = chunks[0].start_slot + local
            if baseline is None and slot == warmup:
                baseline = {
                    node: (
                        queue.accepted,
                        queue.rejected,
                        queue.backlog_integral,
                    )
                    for node, queue in queues.items()
                }
            measured = slot >= warmup
            t = (slot + 0.5) * stream.dt
            for r in range(spec.n_receivers):
                counts = chunks[r].counts[local]
                if not counts.any():
                    continue
                _serve_receiver_slot(
                    plans[r],
                    stats,
                    slot,
                    t,
                    counts,
                    stream.policy_rng(lanes[r], slot),
                    measured,
                )

    for node, queue in sorted(queues.items()):
        base_accepted, base_rejected, base_backlog = baseline[node]
        node_stats = stats.per_node[node]
        node_stats.queue_accepted += queue.accepted - base_accepted
        node_stats.queue_rejected += queue.rejected - base_rejected
        node_stats.queue_backlog_time += queue.backlog_integral - base_backlog
    _check_occupancy(spec, strategy, caches, telemetry)
    return stats


def replay_network_shard(
    spec: NetworkReplaySpec,
    strategy: PlacementStrategy,
    replica_ids: Tuple[int, ...],
    telemetry: SolverTelemetry = NULL_TELEMETRY,
) -> List[NetworkReplayStats]:
    """Replay one shard of replicas (the ExecutionPlan work item).

    Module-level and argument-complete so it pickles to pool workers;
    telemetry is the per-worker buffered observer the runtime injects.
    Returns one stats record *per replica*, never pre-merged — the
    engine folds them in global replica order, so float accumulators
    (latency, queue backlog) sum in the same order under every shard
    grouping.
    """
    with telemetry.span("replay_network_shard"):
        results = [
            _replay_replica_chunks(spec, strategy, int(replica), telemetry=telemetry)
            for replica in replica_ids
        ]
    if telemetry.enabled:
        requests = sum(s.requests for s in results)
        cache_hits = sum(s.cache_hits for s in results)
        telemetry.inc("net.requests", float(requests))
        telemetry.inc("net.cache_hits", float(cache_hits))
        telemetry.inc(
            "net.source_hits", float(sum(s.source_hits for s in results))
        )
        telemetry.inc(
            "net.placements",
            float(
                sum(
                    node.placements
                    for s in results
                    for node in s.per_node.values()
                )
            ),
        )
        telemetry.inc(
            "net.queue_rejections",
            float(
                sum(
                    node.queue_rejected
                    for s in results
                    for node in s.per_node.values()
                )
            ),
        )
        for stats in results:
            if stats.requests:
                telemetry.observe(
                    "net.replica_hit_ratio", stats.cache_hits / stats.requests
                )
                telemetry.observe(
                    "net.replica_mean_hops", stats.hops / stats.requests
                )
        telemetry.event(
            "net_shard",
            strategy=strategy.name,
            topology=spec.topology.name,
            replicas=len(replica_ids),
            requests=requests,
            cache_hits=cache_hits,
            source_hits=sum(s.source_hits for s in results),
        )
    return results


class NetworkReplayEngine:
    """Replay a request stream through a cache network under on-path strategies.

    Parameters
    ----------
    workload:
        A :class:`repro.content.workloads.Workload`: catalog sizes and
        the timeliness law the equilibria use.
    topology:
        A :class:`CacheNetworkTopology` or a grammar spec
        (``"tree:2x4"``, ``"path:6"``, ``"ring:8"``, ``"mesh:12x3"``).
    stream:
        The :class:`~repro.serve.stream.RequestStream` replayed; it
        must provide ``n_replicas * n_receivers`` lanes and fixes the
        trace geometry (slots, ``dt``, rate, seed, popularity).
        Per-receiver demand — e.g. from a trace with a ``receiver``
        column via :func:`repro.content.trace.trace_receiver_popularity`
        — goes in as a :class:`~repro.serve.stream.LanePopularityStream`.
        Read at every replay, so it may be swapped between replays for
        a stream of the same geometry.
    config:
        MFG-CP model constants (horizon, equilibrium solves); defaults
        to the fast preset so ``mfg`` replays stay cheap.
    capacity_fraction / node_capacity_mb:
        Per-router cache size, as a fraction of the catalog volume or
        absolute (absolute wins when both are given).  The network's
        total cache budget is ``node_capacity_mb * len(routers)`` —
        strategies compared by one engine always share it.
    n_replicas:
        Independent full-network replays averaged into one report;
        also the parallel grain (replicas shard across workers).
    shards:
        Work-item count (defaults to ``min(n_replicas, 8)``); pure
        parallel grain, never affects results.
    topology_seed:
        Seed for MESH placement geometry.
    queue_capacity, queue_service_rate:
        Admission-queue shape per node; the rate defaults to each
        node's fair share of the network's total request rate.
    executor, telemetry:
        A :mod:`repro.runtime` backend (spec string or object) and the
        run's observer.
    solver_batching / batch_size:
        Solve the mfg strategy's equilibria through the batched tensor
        pipeline (bit-identical to per-content solves).
    stream_chunk:
        Replay chunk size in slots (0 = whole replay in one chunk per
        lane).  Pure memory grain — never affects results.
    """

    def __init__(
        self,
        workload: Workload,
        topology: Union[str, CacheNetworkTopology],
        *,
        stream: RequestStream,
        config: Optional[MFGCPConfig] = None,
        capacity_fraction: float = 0.1,
        node_capacity_mb: Optional[float] = None,
        n_replicas: int = 2,
        shards: Optional[int] = None,
        topology_seed: int = 0,
        queue_capacity: int = 8,
        queue_service_rate: Optional[float] = None,
        executor: ExecutorLike = None,
        telemetry: SolverTelemetry = NULL_TELEMETRY,
        solver_batching: bool = False,
        batch_size: int = 32,
        stream_chunk: int = 0,
    ) -> None:
        if n_replicas < 1:
            raise ValueError(f"n_replicas must be positive, got {n_replicas}")
        if solver_batching and batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        if not 0.0 < capacity_fraction <= 1.0 and node_capacity_mb is None:
            raise ValueError(
                f"capacity_fraction must lie in (0, 1], got {capacity_fraction}"
            )
        if stream_chunk < 0:
            raise ValueError(
                f"stream_chunk must be non-negative, got {stream_chunk}"
            )
        self.workload = workload
        self.config = config if config is not None else MFGCPConfig.fast()
        self.topology = (
            topology
            if isinstance(topology, CacheNetworkTopology)
            else parse_topology(topology, seed=int(topology_seed))
        )
        self.n_replicas = int(n_replicas)
        self.shards = (
            min(self.n_replicas, 8) if shards is None else int(shards)
        )
        if self.shards < 1:
            raise ValueError(f"shards must be positive, got {shards}")
        self.executor = as_executor(executor)
        self.telemetry = telemetry
        self.solver_batching = bool(solver_batching)
        self.batch_size = int(batch_size)

        catalog = workload.catalog
        if len(catalog) == 0:
            raise ValueError("workload catalog has no contents")
        self.sizes_mb = tuple(float(c.size_mb) for c in catalog)
        self.update_periods = tuple(float(c.update_period) for c in catalog)
        total = sum(self.sizes_mb)
        self.node_capacity_mb = (
            float(node_capacity_mb)
            if node_capacity_mb is not None
            else capacity_fraction * total
        )
        if self.node_capacity_mb < min(self.sizes_mb):
            raise ValueError(
                f"node capacity {self.node_capacity_mb:.1f} MB holds no "
                f"content (smallest is {min(self.sizes_mb):.1f} MB)"
            )
        n_receivers = self.topology.n_receivers
        if stream.n_edps != self.n_replicas * n_receivers:
            raise ValueError(
                f"stream provides {stream.n_edps} lanes; "
                f"{self.n_replicas} replicas x {n_receivers} receivers "
                f"need {self.n_replicas * n_receivers}"
            )
        if stream.n_contents != len(catalog):
            raise ValueError(
                f"stream serves {stream.n_contents} contents but the "
                f"workload catalog holds {len(catalog)}"
            )
        self.stream = stream
        self.stream_chunk = int(stream_chunk)
        self.queue_capacity = int(queue_capacity)
        self.queue_service_rate = (
            float(queue_service_rate)
            if queue_service_rate is not None
            # Fair share of the network's total request rate per node:
            # admission keeps up on average, bursts still reject.
            else max(
                float(stream.rate_per_edp) * n_receivers
                / len(self.topology.routers),
                1e-9,
            )
        )
        self._equilibria: Optional[Dict[int, EquilibriumResult]] = None

    # ------------------------------------------------------------------
    # Equilibria (the mfg strategy's input)
    # ------------------------------------------------------------------
    def solve_equilibria(self) -> Dict[int, EquilibriumResult]:
        """Per-content equilibria on this engine's executor (cached).

        Uses the exact helpers :class:`~repro.serve.engine.ServingEngine`
        uses, so a network replay and a single-cache replay of the same
        workload read the same equilibrium.  Contents a skip/degrade
        fault policy dropped are missing from the map.
        """
        if self._equilibria is None:
            width = self.batch_size if self.solver_batching else 1
            with self.telemetry.span("net_solve_equilibria"):
                self._equilibria, _ = fan_out_equilibria(
                    equilibrium_configs(self.config, self.workload, self.stream),
                    self.executor,
                    self.telemetry,
                    label=equilibrium_label("net_eq", width),
                    scope="net",
                    width=width,
                    phase="net_eq:solve",
                )
        return self._equilibria

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------
    def build_strategy(self, name: str) -> PlacementStrategy:
        """Instantiate a strategy by name (solving equilibria for mfg)."""
        key = str(name).strip().lower()
        kwargs = {}
        if key == "mfg":
            kwargs = dict(
                equilibria=self.solve_equilibria(),
                sizes_mb=self.sizes_mb,
                update_periods=self.update_periods,
                slot_times=self.stream.slot_times(),
                horizon=self.stream.horizon,
            )
        return make_strategy(key, **kwargs)

    def spec(self) -> NetworkReplaySpec:
        """The picklable replay recipe shards receive."""
        return NetworkReplaySpec(
            topology=self.topology,
            stream=self.stream,
            n_receivers=self.topology.n_receivers,
            n_replicas=self.n_replicas,
            sizes_mb=self.sizes_mb,
            node_capacity_mb=self.node_capacity_mb,
            queue_capacity=self.queue_capacity,
            queue_service_rate=self.queue_service_rate,
            chunk_slots=self.stream_chunk,
        )

    def replay(
        self, strategy: Union[str, PlacementStrategy]
    ) -> NetworkServingReport:
        """Replay all replicas under one placement strategy."""
        strategy_obj = (
            strategy
            if isinstance(strategy, PlacementStrategy)
            else self.build_strategy(strategy)
        )
        spec = self.spec()
        shards = partition_indices(self.n_replicas, self.shards)
        plan = ExecutionPlan.map(
            replay_network_shard,
            [(spec, strategy_obj, shard) for shard in shards],
            labels=[
                f"net:{strategy_obj.name}:shard{i}" for i in range(len(shards))
            ],
            accepts_telemetry=True,
        )
        live = self.telemetry.live
        if live is not None:
            live.set_phase(
                f"serve-net:{strategy_obj.name}", total_items=len(plan)
            )
            set_live_stream(live, self.stream, self.stream_chunk)

        def _shard_progress(outcome) -> None:
            # Fold each landed shard's counters into the live windowed
            # views (recent hit ratio, latency sketch).  Pure side
            # channel — the report below recomputes everything from
            # the ordered outcomes.
            if live is None or outcome.result is None:
                return
            for stats in outcome.result:
                live.note_requests(
                    stats.requests,
                    hits=stats.cache_hits,
                    latency_s=stats.latency_s,
                )

        with self.telemetry.span(f"net_replay_{strategy_obj.name}"):
            outcomes = self.executor.run(
                plan,
                telemetry=self.telemetry,
                progress=_shard_progress if live is not None else None,
            )
        lost = [i for i, shard in enumerate(outcomes) if shard is None]
        if lost and self.telemetry.enabled:
            # A skip/degrade fault policy dropped whole shards; report
            # the hole rather than silently under-counting replicas.
            self.telemetry.diag(
                "net.shard_dropped",
                "warning",
                value=float(len(lost)),
                message=(
                    f"{len(lost)} of {len(outcomes)} network shards were "
                    "dropped by the fault policy"
                ),
                strategy=strategy_obj.name,
                shards=lost,
            )
        # Fold per-replica stats in global replica order (item order
        # preserves it): float sums are then grouping-independent.
        totals = NetworkReplayStats.empty(self.topology)
        for shard_stats in outcomes:
            if shard_stats is None:
                continue
            for replica_stats in shard_stats:
                totals.merge(replica_stats)
        report = NetworkServingReport(
            strategy=strategy_obj.name,
            topology=self.topology.name,
            n_slots=int(self.stream.n_slots),
            dt=float(self.stream.dt),
            seed=int(self.stream.seed),
            n_replicas=self.n_replicas,
            node_capacity_mb=self.node_capacity_mb,
            per_node=tuple(
                totals.per_node[node] for node in sorted(totals.per_node)
            ),
            totals=totals,
        )
        if self.telemetry.enabled:
            self.telemetry.gauge(
                f"net.{strategy_obj.name}.hit_ratio", report.hit_ratio
            )
            self.telemetry.event(
                "network_report",
                strategy=report.strategy,
                topology=report.topology,
                requests=report.requests,
                hit_ratio=report.hit_ratio,
                source_share=report.source_share,
                mean_hops=report.mean_hops,
                mean_latency_s=report.mean_latency_s,
                rejection_rate=report.rejection_rate,
            )
        return report

    def compare(
        self, strategies: Sequence[Union[str, PlacementStrategy]]
    ) -> List[NetworkServingReport]:
        """Replay identical request streams under several strategies.

        Equilibria are solved up front when ``mfg`` is among the
        strategies; every replay consumes identical per-receiver
        request streams (same root seed), so reports are directly
        comparable request for request at equal total cache budget.
        """
        if not strategies:
            raise ValueError("no strategies to compare")
        if any(
            isinstance(s, str) and s.strip().lower() == "mfg"
            for s in strategies
        ):
            self.solve_equilibria()
        return [self.replay(strategy) for strategy in strategies]
