"""Network replay engine: routing semantics, determinism, MFG acceptance.

The determinism tests mirror ``tests/serve/test_engine.py``: replay the
same traces serial vs a 2-worker process pool and across shard counts,
requiring bit-identical reports and identical normalised telemetry.
"""

import io
import json
import math

import numpy as np
import pytest

from repro.content.workloads import zipf_workload
from repro.obs.telemetry import SolverTelemetry
from repro.runtime import ParallelExecutor, SerialExecutor
from repro.serve import LanePopularityStream, workload_stream
from repro.serve.net import (
    NetworkReplayEngine,
    NetworkReplaySpec,
    parse_topology,
)
from repro.serve.net.engine import replay_network_shard
from repro.serve.net.strategies import LCEStrategy
from repro.serve.stream import ZipfStream

BACKENDS = {"serial": SerialExecutor, "process": lambda: ParallelExecutor(workers=2)}


def net_engine(workload, topology, n_replicas=2, seed=0, n_slots=25, **kw):
    """An engine replaying the canned workload over a unit horizon."""
    topology = parse_topology(topology) if isinstance(topology, str) else topology
    stream = workload_stream(
        workload,
        n_edps=n_replicas * topology.n_receivers,
        n_slots=n_slots,
        dt=1.0 / n_slots,
        seed=seed,
    )
    return NetworkReplayEngine(
        workload, topology, n_replicas=n_replicas, stream=stream, **kw
    )


def normalised_events(buffer):
    """Telemetry events with sequence numbers and timings stripped."""
    events = []
    buffer.seek(0)
    for line in buffer:
        if not line.strip():
            continue
        event = json.loads(line)
        if event.get("ev") == "metrics":
            continue
        event.pop("seq", None)
        for key in [k for k in event if k.endswith("_s")]:
            event.pop(key)
        events.append(event)
    return events


@pytest.fixture(scope="module")
def net_workload():
    return zipf_workload(n_contents=6, alpha=1.0, rate_per_edp=50.0, seed=0)


@pytest.fixture(scope="module")
def path_engine(net_workload):
    return net_engine(
        net_workload, "path:6", n_replicas=3, capacity_fraction=0.2, seed=0
    )


class TestSpec:
    def test_engine_spec_is_consistent(self, path_engine):
        spec = path_engine.spec()
        assert spec.stream.n_edps == spec.n_replicas * spec.n_receivers
        assert spec.node_capacity_mb == path_engine.node_capacity_mb

    def test_stream_geometry_mismatch_raises(self, path_engine):
        spec = path_engine.spec()
        with pytest.raises(ValueError, match="lanes"):
            NetworkReplaySpec(
                topology=spec.topology,
                stream=spec.stream,
                n_receivers=spec.n_receivers,
                n_replicas=spec.n_replicas + 1,
                sizes_mb=spec.sizes_mb,
                node_capacity_mb=spec.node_capacity_mb,
                queue_capacity=spec.queue_capacity,
                queue_service_rate=spec.queue_service_rate,
            )

    def test_receiver_popularity_shape_checked(self, path_engine):
        stream = path_engine.stream
        with pytest.raises(ValueError, match="lane_shares"):
            LanePopularityStream(
                shares=stream.shares,
                lane_shares=np.ones((2, stream.n_contents + 1)),
                n_edps=stream.n_edps,
                n_slots=stream.n_slots,
                dt=stream.dt,
                rate_per_edp=stream.rate_per_edp,
            )

    def test_tiny_node_capacity_rejected(self, net_workload):
        with pytest.raises(ValueError, match="holds no content"):
            net_engine(net_workload, "path:4", capacity_fraction=0.01)


class TestPrefixCapacity:
    def test_sites_sum_route_capacity_left_to_right(self):
        """ProbCache's ``N`` adds node capacities one at a time.

        At 0.1 MB per node the running float sum and a compensated sum
        (``math.fsum``; builtin ``sum()`` from Python 3.12) first
        disagree at the sixth node, so an eight-router path tells the
        two apart.
        """
        capacity, size = 0.1, 0.05
        topology = parse_topology("path:10")
        n_routers = len(topology.routers)
        assert n_routers == 8

        class Recording(LCEStrategy):
            def __init__(self):
                self.seen = {}

            def should_place(self, site, rng):
                self.seen.setdefault(site.hops_to_receiver, site.path_capacity)
                return False

        spec = NetworkReplaySpec(
            topology=topology,
            stream=ZipfStream(
                n_edps=1, n_slots=2, dt=1.0, rate_per_edp=5.0, n_catalog=2
            ),
            n_receivers=1,
            n_replicas=1,
            sizes_mb=(size, size),
            node_capacity_mb=capacity,
            queue_capacity=4,
            queue_service_rate=1.0,
        )
        strategy = Recording()
        replay_network_shard(spec, strategy, (0,))
        assert sorted(strategy.seen) == list(range(1, n_routers + 1))

        running = 0.0
        for hops in range(1, n_routers + 1):
            running += capacity
            assert strategy.seen[hops] == running / size
        compensated = [
            math.fsum([capacity] * hops) / size
            for hops in range(1, n_routers + 1)
        ]
        assert [strategy.seen[h] for h in range(1, n_routers + 1)] != compensated


class TestReplaySemantics:
    @pytest.fixture(scope="class")
    def reports(self, path_engine):
        return {
            r.strategy: r
            for r in path_engine.compare(["lce", "lcd", "probcache", "edge"])
        }

    def test_every_request_served_exactly_once(self, reports):
        for report in reports.values():
            assert report.requests > 0
            assert report.cache_hits + report.source_hits == report.requests
            shares = sum(
                report.node_hit_share(s.node) for s in report.per_node
            )
            assert shares + report.source_share == pytest.approx(1.0)

    def test_same_requests_under_every_strategy(self, reports):
        """Strategy draws must not perturb the shared request streams."""
        totals = {name: r.requests for name, r in reports.items()}
        assert len(set(totals.values())) == 1, totals

    def test_hops_bounded_by_route(self, path_engine, reports):
        longest = max(len(r) - 1 for r in path_engine.topology.routes)
        for report in reports.values():
            assert 0 < report.mean_hops <= longest
            assert report.totals.max_hops <= longest

    def test_latency_consistent_with_hops(self, reports):
        # Fewer mean hops must mean cheaper mean latency on a path
        # (per-hop latencies are fixed and identical for every route).
        ordered = sorted(reports.values(), key=lambda r: r.mean_hops)
        latencies = [r.mean_latency_s for r in ordered]
        assert latencies == sorted(latencies)

    def test_edge_only_places_at_edge(self, path_engine, reports):
        report = reports["edge"]
        edge_node = path_engine.topology.routes[0][1]
        for stats in report.per_node:
            if stats.node != edge_node:
                assert stats.placements == 0

    def test_lce_places_most(self, reports):
        assert reports["lce"].placements >= reports["lcd"].placements
        assert reports["lce"].placements >= reports["edge"].placements

    def test_replay_reproducible(self, path_engine, reports):
        again = path_engine.replay("lcd")
        assert again.summary() == reports["lcd"].summary()


class TestReceiverPopularity:
    def test_degenerate_demand_caches_trivially(self, net_workload):
        topo = parse_topology("ring:4")
        focused = np.zeros((topo.n_receivers, len(net_workload.catalog)))
        focused[:, 0] = 1.0
        base = net_engine(
            net_workload, topo, n_replicas=2, capacity_fraction=0.2, seed=3
        )
        stream = base.stream
        single = NetworkReplayEngine(
            net_workload, topo, n_replicas=2, capacity_fraction=0.2,
            stream=LanePopularityStream(
                shares=stream.shares,
                lane_shares=focused,
                n_edps=stream.n_edps,
                n_slots=stream.n_slots,
                dt=stream.dt,
                rate_per_edp=stream.rate_per_edp,
                seed=stream.seed,
                timeliness=stream.timeliness,
            ),
        ).replay("lce")
        # Everyone asking for one cacheable content must beat the
        # Zipf mix at the same budget.
        assert single.hit_ratio > base.replay("lce").hit_ratio


class TestDeterminism:
    @pytest.fixture(scope="class")
    def runs(self, net_workload):
        out = {}
        for name, factory in BACKENDS.items():
            buffer = io.StringIO()
            telemetry = SolverTelemetry.to_jsonl(buffer)
            engine = net_engine(
                net_workload, "tree:2x2", n_replicas=4, shards=2,
                capacity_fraction=0.2, seed=5,
                executor=factory(), telemetry=telemetry,
            )
            reports = engine.compare(["lce", "probcache"])
            telemetry.close()
            out[name] = (
                [r.summary() for r in reports],
                normalised_events(buffer),
            )
        return out

    def test_reports_bit_identical(self, runs):
        serial, _ = runs["serial"]
        parallel, _ = runs["process"]
        assert serial == parallel

    def test_telemetry_streams_identical(self, runs):
        _, serial_events = runs["serial"]
        _, parallel_events = runs["process"]
        assert serial_events == parallel_events
        kinds = {e["ev"] for e in serial_events}
        assert "net_shard" in kinds
        assert "network_report" in kinds

    @pytest.mark.parametrize("shards", [1, 3, 4])
    def test_shard_count_never_changes_results(
        self, net_workload, shards, runs
    ):
        engine = net_engine(
            net_workload, "tree:2x2", n_replicas=4, shards=shards,
            capacity_fraction=0.2, seed=5,
        )
        reports = [r.summary() for r in engine.compare(["lce", "probcache"])]
        assert reports == runs["serial"][0]


class TestMFGAcceptance:
    @pytest.fixture(scope="class")
    def acceptance(self):
        """The ISSUE acceptance run: 15-router binary tree, Zipf(1)."""
        workload = zipf_workload(n_contents=12, alpha=1.0,
                                 rate_per_edp=60.0, seed=0)
        engine = net_engine(
            workload, "tree:2x4", n_replicas=4, capacity_fraction=0.1, seed=0
        )
        return engine, {
            r.strategy: r for r in engine.compare(["lce", "mfg"])
        }

    def test_mfg_beats_lce_at_equal_budget(self, acceptance):
        _, reports = acceptance
        assert reports["mfg"].hit_ratio > reports["lce"].hit_ratio
        # Equal total budget by construction: one engine, one
        # node_capacity_mb shared by both strategies.
        assert (
            reports["mfg"].node_capacity_mb
            == reports["lce"].node_capacity_mb
        )

    def test_mfg_concentrates_placement_near_receivers(self, acceptance):
        engine, reports = acceptance
        report = reports["mfg"]
        depths = {s.node: s.depth for s in report.per_node}
        max_depth = max(depths.values())
        deep = sum(
            s.placements for s in report.per_node
            if s.depth == max_depth
        )
        shallow = sum(
            s.placements for s in report.per_node if s.depth == 1
        )
        # Depth-scaled admission: leaf routers place more than the root
        # level even though there are 8 of them vs 1.
        assert deep > shallow

    def test_equilibria_cached(self, acceptance):
        engine, _ = acceptance
        assert engine.solve_equilibria() is engine.solve_equilibria()
