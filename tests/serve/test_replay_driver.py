"""The replay driver both serving planes share.

``ServingEngine`` and ``NetworkReplayEngine`` run their per-shard work
items through one driver: a shard plan with per-plane labels, a live
phase, a replay span, a side channel folding landed shards into the
live status, and a warning naming the shards a skip/degrade fault
policy dropped.  Every test here runs on both planes and pins the
names each plane emits.
"""

import io
import json

import pytest

from repro.content.workloads import zipf_workload
from repro.obs.telemetry import SolverTelemetry
from repro.runtime import FaultPolicy, ResumableExecutor, SerialExecutor
from repro.serve import ServingEngine, replay_shard, workload_stream
from repro.serve.net import NetworkReplayEngine, parse_topology
from repro.serve.net.engine import replay_network_shard
from repro.testing import clear_faults, install_faults


def _serve_engine(workload, **kw):
    stream = workload_stream(workload, n_edps=6, n_slots=8, dt=1 / 8, seed=5)
    return ServingEngine(workload, 6, stream=stream, shards=3, **kw)


def _net_engine(workload, **kw):
    topology = parse_topology("tree:2x2")
    stream = workload_stream(
        workload, n_edps=3 * topology.n_receivers, n_slots=8, dt=1 / 8, seed=5
    )
    return NetworkReplayEngine(
        workload, topology, stream=stream, n_replicas=3, shards=3,
        capacity_fraction=0.4, **kw
    )


# Per plane: engine factory, work item and builder, two baseline names,
# the units of replay shards 0 and 2, and the names the driver emits.
PLANES = {
    "serve": dict(
        make=_serve_engine,
        work_item=replay_shard,
        build=ServingEngine.build_policy,
        name="lru",
        other="random",
        survivors=[(0, 1), (4, 5)],
        label="serve:lru:shard{}",
        span="serve_replay_lru",
        phase="serve:replay:lru",
        diag="diag.serve.shard_dropped",
        field="policy",
        report_event="serving_report",
        hits="hits",
    ),
    "net": dict(
        make=_net_engine,
        work_item=replay_network_shard,
        build=NetworkReplayEngine.build_strategy,
        name="lce",
        other="lcd",
        survivors=[(0,), (2,)],
        label="net:lce:shard{}",
        span="net_replay_lce",
        phase="serve-net:lce",
        diag="diag.net.shard_dropped",
        field="strategy",
        report_event="network_report",
        hits="cache_hits",
    ),
}


@pytest.fixture(scope="module")
def workload():
    return zipf_workload(n_contents=4, alpha=1.0, rate_per_edp=30.0, seed=2)


@pytest.fixture(params=sorted(PLANES))
def plane(request):
    return PLANES[request.param]


def _events(buffer):
    buffer.seek(0)
    return [json.loads(line) for line in buffer if line.strip()]


class TestDroppedShards:
    """A skip fault policy drops replay shard 1 of 3; the report keeps the rest."""

    @pytest.fixture
    def dropped_run(self, plane, workload):
        buffer = io.StringIO()
        engine = plane["make"](
            workload,
            executor=ResumableExecutor(
                SerialExecutor(),
                policy=FaultPolicy(max_retries=0, on_exhaust="skip"),
            ),
            telemetry=SolverTelemetry.to_jsonl(buffer),
        )
        # The rule selects the shard by its plan label, so the label
        # format is pinned too: a renamed label would drop nothing.
        install_faults(f"raise:label={plane['label'].format(1)},times=-1")
        try:
            report = engine.replay(plane["name"])
        finally:
            clear_faults()
        return engine, report, _events(buffer)

    def test_report_is_built_from_surviving_shards(self, plane, dropped_run):
        engine, report, _ = dropped_run
        decider = plane["build"](engine, plane["name"])
        survivors = [
            stats
            for units in plane["survivors"]
            for stats in plane["work_item"](engine.spec(), decider, units)
        ]
        assert report.requests == sum(s.requests for s in survivors) > 0
        full = plane["make"](engine.workload).replay(plane["name"])
        assert report.requests < full.requests

    def test_dropped_shards_are_named(self, plane, dropped_run):
        _, _, events = dropped_run
        warnings = [e for e in events if e["ev"] == plane["diag"]]
        assert len(warnings) == 1
        warning = warnings[0]
        assert warning["severity"] == "warning"
        assert warning["shards"] == [1]
        assert warning[plane["field"]] == plane["name"]
        assert warning["message"].startswith("1 of 3 ")

    def test_names_of_the_replay(self, plane, dropped_run):
        _, report, events = dropped_run
        spans = [e["path"] for e in events if e["ev"] == "span"]
        assert plane["span"] in spans
        assert f"{plane['span']}/{plane['work_item'].__name__}" in spans
        lanes = {e["lane"] for e in events if "lane" in e}
        assert lanes == {plane["label"].format(0), plane["label"].format(2)}
        reports = [e for e in events if e["ev"] == plane["report_event"]]
        assert [r[plane["field"]] for r in reports] == [plane["name"]]
        assert reports[0]["requests"] == report.requests


class TestLivePhase:
    def test_phase_and_totals(self, plane, workload, tmp_path):
        from repro.obs import LiveStatusWriter, read_status

        telemetry = SolverTelemetry.to_jsonl(io.StringIO())
        telemetry.set_live(LiveStatusWriter(tmp_path / "status.json", every=1))
        engine = plane["make"](workload, telemetry=telemetry)
        report = engine.replay(plane["name"])
        telemetry.close()
        status = read_status(tmp_path / "status.json")
        assert status["state"] == "done"
        assert status["phase"].startswith(plane["phase"])
        assert status["requests"]["total"] == report.requests
        assert status["requests"]["hits"] == getattr(report, plane["hits"])
        assert status["stream"]["workload"] == type(engine.stream).__name__


class TestCompare:
    def test_empty_list_rejected(self, plane, workload):
        with pytest.raises(ValueError, match="to compare"):
            plane["make"](workload).compare([])

    def test_one_report_per_name_in_order(self, plane, workload):
        engine = plane["make"](workload)
        reports = engine.compare([plane["name"], plane["other"]])
        assert [getattr(r, plane["field"]) for r in reports] == [
            plane["name"], plane["other"]
        ]
        assert reports[0].requests == reports[1].requests
