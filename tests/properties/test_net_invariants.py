"""Property-based tests for the cache-network replay subsystem.

Three contracts from the serving spec, checked over randomised
topologies, seeds, and shard layouts:

* **Termination** — every request is served at a source or an
  intermediate cache within ``topology.diameter`` hops; routes are
  receiver-to-source chains whose interior is all caching routers.
* **LCD places once** — leave-copy-down admits at exactly one node per
  placement walk, for any path length and for whole replays.
* **Bit-identity** — replaying the same spec serially, with any shard
  count, or on a process pool yields byte-identical report summaries.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.content.workloads import zipf_workload
from repro.runtime import ParallelExecutor
from repro.serve import workload_stream
from repro.serve.net import NetworkReplayEngine, parse_topology
from repro.serve.net.strategies import LCDStrategy, PlacementSite

# Small spec space: every draw must replay in well under a second.
TOPOLOGY_SPECS = [
    "path:4", "path:6", "tree:2x2", "tree:2x3", "tree:3x2",
    "ring:3", "ring:5", "mesh:7", "mesh:8x2",
]

topology_specs = st.sampled_from(TOPOLOGY_SPECS)


def small_engine(spec, seed, topology_seed=0, **kw):
    workload = zipf_workload(n_contents=4, alpha=1.0,
                             rate_per_edp=15.0, seed=seed)
    topology = parse_topology(spec, seed=topology_seed)
    kw.setdefault("n_replicas", 2)
    kw.setdefault("capacity_fraction", 0.4)
    stream = workload_stream(
        workload,
        n_edps=kw["n_replicas"] * topology.n_receivers,
        n_slots=25,
        dt=1 / 25,
        seed=seed,
    )
    return NetworkReplayEngine(workload, topology, stream=stream, **kw)


class TestRouteTermination:
    @given(spec=topology_specs, topology_seed=st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_routes_end_at_a_source_within_diameter(self, spec, topology_seed):
        topo = parse_topology(spec, seed=topology_seed)
        for receiver, route in zip(topo.receivers, topo.routes):
            assert route[0] == receiver
            assert route[-1] in topo.sources
            assert all(topo.is_router(v) for v in route[1:-1])
            assert len(route) - 1 <= topo.diameter
            # The route walks actual edges of the graph.
            for u, v in zip(route, route[1:]):
                assert v in topo.neighbors(u)

    @given(
        spec=topology_specs,
        seed=st.integers(0, 2**16),
        topology_seed=st.integers(0, 2**8),
    )
    @settings(max_examples=15, deadline=None)
    def test_every_request_served_within_diameter(
        self, spec, seed, topology_seed
    ):
        engine = small_engine(spec, seed, topology_seed, n_replicas=1)
        report = engine.replay("lce")
        assert report.cache_hits + report.source_hits == report.requests
        assert report.totals.max_hops <= engine.topology.diameter
        if report.requests:
            assert 0 < report.mean_hops <= engine.topology.diameter


class TestLCDPlacesOnce:
    @given(
        path_len=st.integers(2, 8),
        depth=st.integers(0, 5),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=100, deadline=None)
    def test_exactly_one_site_admitted_per_walk(self, path_len, depth, seed):
        """Walking any return path, LCD says yes exactly once."""
        rng = np.random.default_rng(seed)
        strategy = LCDStrategy()
        admitted = 0
        for downstream_index in range(1, path_len):
            site = PlacementSite(
                node=downstream_index, slot=0, content=0,
                hops_from_server=downstream_index,
                hops_to_receiver=path_len - downstream_index,
                path_len=path_len, downstream_index=downstream_index,
                is_edge=(downstream_index == path_len - 1),
                depth=depth, max_depth=max(depth, 1),
                path_capacity=4.0, node_capacity=2.0,
            )
            admitted += bool(strategy.should_place(site, rng))
        assert admitted == 1

    @given(spec=topology_specs, seed=st.integers(0, 2**16))
    @settings(max_examples=15, deadline=None)
    def test_one_attempt_per_walk_in_full_replays(self, spec, seed):
        engine = small_engine(spec, seed, n_replicas=1)
        report = engine.replay("lcd")
        totals = report.totals
        # LCD turns each placement walk into exactly one admission
        # attempt.  Same-slot requests for one content are served as a
        # coalesced batch: hit/source counters grow by the batch size
        # while each batch starts at most one walk, so walks are
        # bounded by served batches, not by individual misses.
        assert totals.placement_attempts == totals.placement_walks
        assert totals.placement_walks <= totals.cache_hits + totals.source_hits
        if totals.source_hits and all(
            len(route) > 2 for route in engine.topology.routes
        ):
            assert totals.placement_walks >= 1


class TestBitIdentity:
    @given(
        spec=topology_specs,
        seed=st.integers(0, 2**16),
        shards=st.integers(2, 4),
    )
    @settings(max_examples=12, deadline=None)
    def test_shard_count_never_changes_reports(self, spec, seed, shards):
        baseline = small_engine(spec, seed, shards=1).replay("lcd")
        sharded = small_engine(spec, seed, shards=shards).replay("lcd")
        assert sharded.summary() == baseline.summary()

    @given(
        spec=st.sampled_from(["path:4", "tree:2x2", "ring:3"]),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=3, deadline=None)
    def test_process_pool_matches_serial(self, spec, seed):
        serial = small_engine(spec, seed, shards=2).replay("lce")
        parallel = small_engine(
            spec, seed, shards=2, executor=ParallelExecutor(workers=2)
        ).replay("lce")
        assert parallel.summary() == serial.summary()
