"""Tests for the serving engine: replay semantics and determinism.

The backend-determinism tests mirror ``tests/runtime/test_determinism``:
replay the same trace under the serial and a 2-worker process backend
and require bit-identical reports plus identical normalised telemetry
streams.
"""

import io
import json
import re

import numpy as np
import pytest

from repro.content.workloads import video_marketplace, zipf_workload
from repro.obs.telemetry import SolverTelemetry
from repro.runtime import (
    FaultPolicy,
    ParallelExecutor,
    ResumableExecutor,
    SerialExecutor,
)
from repro.serve import ReplaySpec, ServingEngine, replay_shard, workload_stream
from repro.testing import clear_faults, install_faults

BACKENDS = {"serial": SerialExecutor, "process": lambda: ParallelExecutor(workers=2)}


def canned(workload, n_edps, n_slots=12, seed=9, **kw):
    """The canned scenario as the ``fixed`` stream over a unit horizon."""
    return workload_stream(
        workload, n_edps=n_edps, n_slots=n_slots, dt=1.0 / n_slots, seed=seed, **kw
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


class TestReplaySpec:
    def test_engine_spec_is_consistent(self, engine):
        spec = engine.spec()
        assert spec.price.shape == (engine.stream.n_slots, len(engine.sizes_mb))
        assert all(m > h for m, h in zip(spec.miss_latency_s, spec.hit_latency_s))

    def test_rejects_mismatched_catalog(self, engine):
        spec = engine.spec()
        with pytest.raises(ValueError, match="sizes_mb"):
            ReplaySpec(
                stream=spec.stream,
                sizes_mb=spec.sizes_mb[:-1],
                update_periods=spec.update_periods,
                capacity_mb=spec.capacity_mb,
                l_max=spec.l_max,
                hit_latency_s=spec.hit_latency_s,
                miss_latency_s=spec.miss_latency_s,
                price=spec.price,
                eta2=spec.eta2,
                backhaul_rate=spec.backhaul_rate,
            )

    def test_rejects_bad_price_shape(self, engine):
        spec = engine.spec()
        with pytest.raises(ValueError, match="price"):
            ReplaySpec(
                stream=spec.stream,
                sizes_mb=spec.sizes_mb,
                update_periods=spec.update_periods,
                capacity_mb=spec.capacity_mb,
                l_max=spec.l_max,
                hit_latency_s=spec.hit_latency_s,
                miss_latency_s=spec.miss_latency_s,
                price=spec.price[:-1],
                eta2=spec.eta2,
                backhaul_rate=spec.backhaul_rate,
            )


class TestReplayInvariants:
    @pytest.fixture(scope="class")
    def reports(self, engine):
        return {r.policy: r for r in engine.compare(["mfg", "lru", "random"])}

    def test_hits_plus_misses_cover_requests(self, reports):
        for report in reports.values():
            assert report.requests > 0
            assert report.hits + report.misses == report.requests
            for stats in report.per_edp:
                assert stats.hits + stats.misses == stats.requests

    def test_same_requests_under_every_policy(self, reports):
        """Policy draws must not perturb the shared request trace."""
        totals = {name: r.requests for name, r in reports.items()}
        assert len(set(totals.values())) == 1, totals
        per_edp = {
            name: [s.requests for s in r.per_edp] for name, r in reports.items()
        }
        assert per_edp["mfg"] == per_edp["lru"] == per_edp["random"]

    def test_replay_reproducible(self, engine, reports):
        again = engine.replay("lru")
        assert again.summary() == reports["lru"].summary()


class TestBackendDeterminism:
    @pytest.fixture(scope="class")
    def runs(self, workload):
        out = {}
        for name, factory in BACKENDS.items():
            buffer = io.StringIO()
            telemetry = SolverTelemetry.to_jsonl(buffer)
            engine = ServingEngine(
                workload,
                n_edps=6,
                stream=canned(workload, 6),
                shards=3,
                executor=factory(),
                telemetry=telemetry,
            )
            reports = engine.compare(["mfg", "lfu"])
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
        assert "serve_shard" in kinds
        assert "serving_report" in kinds

    def test_shard_count_never_changes_results(self, workload):
        summaries = []
        for shards in (1, 2, 5):
            engine = ServingEngine(
                workload, n_edps=5, stream=canned(workload, 5, 10, seed=4),
                shards=shards,
            )
            summaries.append(engine.replay("lru").summary())
        assert summaries[0] == summaries[1] == summaries[2]

    def test_shard_function_matches_engine(self, engine):
        """replay_shard is the same computation the engine runs."""
        report = engine.replay("lfu")
        spec = engine.spec()
        policy = engine.build_policy("lfu")
        stats = replay_shard(spec, policy, tuple(range(engine.n_edps)))
        assert [s.requests for s in stats] == [
            s.requests for s in report.per_edp
        ]
        assert [s.hits for s in stats] == [s.hits for s in report.per_edp]


class TestPolicyQuality:
    """Policy ordering at a contended scale (16 EDPs, 8 contents).

    Sparse replays barely exercise eviction or refresh, so the
    acceptance-criteria comparisons run at the density where cache
    pressure is real (~30k requests).
    """

    @pytest.fixture(scope="class")
    def contended(self):
        workload = video_marketplace(n_contents=8, seed=11)
        stream = canned(workload, 16, 20, seed=0, rate_per_edp=100.0)
        engine = ServingEngine(workload, n_edps=16, stream=stream)
        return {
            r.policy: r for r in engine.compare(["mfg", "lfu", "random"])
        }

    def test_mfg_beats_random_replacement(self, contended):
        assert contended["mfg"].hit_ratio > contended["random"].hit_ratio

    def test_mfg_keeps_copies_fresh(self, contended):
        """The refresh schedule holds staleness violations down."""
        assert (
            contended["mfg"].staleness_violation_rate
            < contended["lfu"].staleness_violation_rate
        )
        assert contended["mfg"].refreshes > 0


class TestEngineValidation:
    def test_rejects_empty_population(self, workload):
        with pytest.raises(ValueError, match="EDP"):
            ServingEngine(workload, n_edps=0, stream=canned(workload, 2))

    def test_rejects_bad_capacity_fraction(self, workload):
        with pytest.raises(ValueError, match="capacity_fraction"):
            ServingEngine(
                workload, n_edps=2, stream=canned(workload, 2),
                capacity_fraction=0.0,
            )

    def test_rejects_tiny_capacity(self, workload):
        with pytest.raises(ValueError, match="holds no content"):
            ServingEngine(
                workload, n_edps=2, stream=canned(workload, 2), capacity_mb=1e-6
            )

    def test_rejects_bad_shards(self, workload):
        with pytest.raises(ValueError, match="shards"):
            ServingEngine(workload, n_edps=2, stream=canned(workload, 2), shards=0)

    def test_rejects_unknown_policy(self, engine):
        with pytest.raises(ValueError, match="unknown serving policy"):
            engine.replay("fifo")


class TestDroppedEquilibria:
    """A skip fault policy drops equilibrium items; the engine carries on."""

    @pytest.mark.parametrize(
        "batching, dropped", [(False, [1]), (True, [2, 3])],
        ids=["per-content", "batched"],
    )
    def test_dropped_contents_are_omitted_and_named(self, batching, dropped):
        workload = zipf_workload(n_contents=4)
        buffer = io.StringIO()
        engine = ServingEngine(
            workload, n_edps=2, stream=canned(workload, 2),
            executor=ResumableExecutor(
                SerialExecutor(),
                policy=FaultPolicy(max_retries=0, on_exhaust="skip"),
            ),
            telemetry=SolverTelemetry.to_jsonl(buffer),
            solver_batching=batching, batch_size=2,
        )
        install_faults("raise:item=1,times=-1")
        try:
            solved = engine.solve_equilibria()
        finally:
            clear_faults()
        assert sorted(solved) == sorted(set(range(4)) - set(dropped))
        warnings = [
            event for event in normalised_events(buffer)
            if event["ev"] == "diag.serve.content_dropped"
        ]
        assert [w["contents"] for w in warnings] == [dropped]
        with pytest.raises(ValueError, match=re.escape(f"contents {dropped}")):
            engine.replay("mfg")


class TestLiveStatusIntegration:
    """Replay feeds the live status file's serving views exactly."""

    def test_status_totals_match_report(self, workload, tmp_path):
        from repro.obs import LiveStatusWriter, read_status

        tele = SolverTelemetry.to_jsonl(io.StringIO())
        tele.set_live(LiveStatusWriter(tmp_path / "status.json", every=1))
        engine = ServingEngine(
            workload, n_edps=6, stream=canned(workload, 6), shards=3,
            telemetry=tele,
        )
        report = engine.replay("lru")
        tele.close()
        status = read_status(tmp_path / "status.json")
        assert status["state"] == "done"
        assert status["requests"]["total"] == report.requests
        assert status["requests"]["hits"] == report.hits
        # hit_ratio is rounded to 6 decimals in the status file.
        assert status["requests"]["hit_ratio"] == pytest.approx(
            report.hit_ratio, abs=1e-6
        )
        # The latency sketch approximates the per-shard batch means:
        # its mean must land near the report's mean request latency.
        assert status["latency_s"]["approx"] is True
        assert status["latency_s"]["mean"] == pytest.approx(
            report.mean_latency_s, rel=0.25
        )
        assert status["phase"].startswith("serve:replay:lru")
