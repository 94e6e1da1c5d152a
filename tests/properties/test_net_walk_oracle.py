"""The network replay's placement walk against the loop it replaced.

The engine serves each receiver slot through per-replica route plans
and builds :class:`~repro.serve.net.strategies.PlacementSite` as a
positional named tuple.  The oracle below is the walk as it was before
that change:

* a frozen-dataclass site, built by keyword for every candidate;
* the route-prefix capacity re-summed for every site;
* every cache, queue and per-node stats record found by dict lookup on
  every hop, and numpy scalars converted cell by cell.

The one deliberate difference is how the oracle sums the prefix
capacity: left to right, as builtin ``sum()`` does for floats up to
Python 3.11.  Python 3.12 made ``sum()`` compensated, so the engine
now sums with an explicit loop and the oracle matches it on every
version.

Both are replayed over random topologies, strategies, stream shapes,
warmup lengths, chunk sizes and non-uniform content sizes.  Every
replica's :class:`NetworkReplayStats` (``per_node`` and the queue
counters included) and every node's final cache contents must match
exactly.
"""

from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Tuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.cache import EdgeCache
from repro.serve.net import engine as net_engine
from repro.serve.net.engine import NetworkReplaySpec, replay_network_shard
from repro.serve.net.queue import AdmissionQueue
from repro.serve.net.report import NetworkReplayStats
from repro.serve.net.strategies import (
    STRATEGY_NAMES,
    MFGNetworkStrategy,
    PlacementStrategy,
    make_strategy,
)
from repro.serve.net.topology import parse_topology
from repro.serve.stream import ZipfStream

TOPOLOGY_SPECS = [
    "path:3", "path:5", "tree:2x2", "tree:2x3", "tree:3x2",
    "ring:4", "ring:6", "mesh:7", "mesh:8x2",
]


@dataclass(frozen=True)
class OracleSite:
    """The placement site as a frozen dataclass (the replaced form)."""

    node: int
    slot: int
    content: int
    hops_from_server: int
    hops_to_receiver: int
    path_len: int
    downstream_index: int
    is_edge: bool
    depth: int
    max_depth: int
    path_capacity: float
    node_capacity: float


def _left_to_right_sum(values) -> float:
    total = 0.0
    for value in values:
        total += value
    return total


def oracle_serve_receiver_slot(
    spec: NetworkReplaySpec,
    strategy: PlacementStrategy,
    caches: Dict[int, EdgeCache],
    queues: Dict[int, AdmissionQueue],
    stats: NetworkReplayStats,
    receiver: int,
    slot: int,
    t: float,
    counts: np.ndarray,
    policy_rng: np.random.Generator,
    max_depth: int,
    measured: bool = True,
) -> None:
    topo = spec.topology
    sizes = spec.sizes_mb
    route = topo.routes[receiver]
    route_latency = topo.route_latencies[receiver]
    for k in np.nonzero(counts)[0]:
        k = int(k)
        count = int(counts[k])
        serving_pos = len(route) - 1
        entry = None
        for pos in range(1, len(route) - 1):
            entry = caches[route[pos]].lookup(k)
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
                stats.per_node[route[serving_pos]].hits += count
        elif measured:
            stats.source_hits += count

        if serving_pos <= 1:
            continue
        if measured:
            stats.placement_walks += 1
        size = sizes[k]
        downstream_index = 0
        for pos in range(serving_pos - 1, 0, -1):
            node = route[pos]
            cache = caches[node]
            downstream_index += 1
            site = OracleSite(
                node=node,
                slot=slot,
                content=k,
                hops_from_server=serving_pos - pos,
                hops_to_receiver=pos,
                path_len=serving_pos,
                downstream_index=downstream_index,
                is_edge=(pos == 1),
                depth=int(topo.depths[node]),
                max_depth=max_depth,
                path_capacity=_left_to_right_sum(
                    caches[route[p]].capacity_mb for p in range(1, pos + 1)
                )
                / size,
                node_capacity=cache.capacity_mb / size,
            )
            if not strategy.should_place(site, policy_rng):
                continue
            if measured:
                stats.placement_attempts += 1
            node_stats = stats.per_node[node]
            if not queues[node].offer(t):
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


def oracle_replay_replica_chunks(
    spec: NetworkReplaySpec, strategy: PlacementStrategy, replica: int
) -> Tuple[NetworkReplayStats, Dict[int, EdgeCache]]:
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
    max_depth = max(int(topo.depths[v]) for v in topo.routers)
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
                oracle_serve_receiver_slot(
                    spec,
                    strategy,
                    caches,
                    queues,
                    stats,
                    r,
                    slot,
                    t,
                    counts,
                    stream.policy_rng(lanes[r], slot),
                    max_depth,
                    measured=measured,
                )

    for node, queue in sorted(queues.items()):
        base_accepted, base_rejected, base_backlog = baseline[node]
        node_stats = stats.per_node[node]
        node_stats.queue_accepted += queue.accepted - base_accepted
        node_stats.queue_rejected += queue.rejected - base_rejected
        node_stats.queue_backlog_time += queue.backlog_integral - base_backlog
    return stats, caches


def cache_contents(caches: Dict[int, EdgeCache]) -> Dict[int, List[tuple]]:
    """Every node's entries, in insertion order (eviction ties use it)."""
    return {
        node: [
            (e.content, e.size_mb, e.fetched_at, e.last_used, e.hits)
            for e in cache
        ]
        for node, cache in sorted(caches.items())
    }


@st.composite
def replay_cases(draw):
    topology = parse_topology(
        draw(st.sampled_from(TOPOLOGY_SPECS)),
        seed=draw(st.integers(0, 2**8)),
    )
    n_contents = draw(st.integers(2, 8))
    sizes = tuple(
        draw(
            st.lists(
                st.floats(0.3, 4.0, allow_nan=False, allow_infinity=False),
                min_size=n_contents,
                max_size=n_contents,
            )
        )
    )
    n_slots = draw(st.integers(3, 12))
    warmup = draw(st.one_of(st.just(0), st.integers(1, n_slots - 1)))
    n_replicas = draw(st.integers(1, 3))
    stream = ZipfStream(
        n_edps=n_replicas * topology.n_receivers,
        n_slots=n_slots,
        dt=1.0,
        rate_per_edp=draw(st.floats(1.0, 12.0)),
        seed=draw(st.integers(0, 2**16)),
        warmup_slots=warmup,
        n_catalog=n_contents,
        alpha=draw(st.floats(0.5, 1.5)),
    )
    spec = NetworkReplaySpec(
        topology=topology,
        stream=stream,
        n_receivers=topology.n_receivers,
        n_replicas=n_replicas,
        sizes_mb=sizes,
        # From "holds nothing big" to "holds several copies".
        node_capacity_mb=draw(st.floats(0.5, 3.0)) * max(sizes),
        queue_capacity=draw(st.integers(1, 4)),
        queue_service_rate=draw(st.floats(0.2, 5.0)),
        chunk_slots=draw(st.integers(0, n_slots + 1)),
    )
    table_rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    tables = dict(
        rate=table_rng.random((n_slots, n_contents)),
        score=table_rng.random((n_slots, n_contents)),
    )
    return spec, tables


def build_strategy(name: str, tables) -> PlacementStrategy:
    if name == "mfg":
        return MFGNetworkStrategy(**tables)
    return make_strategy(name)


@pytest.mark.parametrize("strategy_name", STRATEGY_NAMES)
@given(case=replay_cases())
@settings(max_examples=25, deadline=None)
def test_route_plan_walk_matches_oracle(strategy_name, case):
    spec, tables = case
    strategy = build_strategy(strategy_name, tables)
    replicas = tuple(range(spec.n_replicas))

    final_caches: List[Dict[int, EdgeCache]] = []

    def keep_caches(spec, strategy, caches, telemetry):
        final_caches.append(caches)

    # One shard replays every replica in turn: state leaking from one
    # replica's route plans into the next shows up as a mismatch.
    with mock.patch.object(net_engine, "_check_occupancy", keep_caches):
        results = replay_network_shard(spec, strategy, replicas)

    assert len(results) == len(final_caches) == spec.n_replicas
    for replica, stats, caches in zip(replicas, results, final_caches):
        want_stats, want_caches = oracle_replay_replica_chunks(
            spec, strategy, replica
        )
        assert asdict(stats) == asdict(want_stats), f"replica {replica}"
        assert cache_contents(caches) == cache_contents(want_caches), (
            f"replica {replica}"
        )
