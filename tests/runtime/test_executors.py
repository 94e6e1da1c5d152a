"""Tests for the serial and process-pool execution backends."""

import io
import json

import numpy as np
import pytest

from repro.obs.telemetry import SolverTelemetry
from repro.runtime import ExecutionPlan, ParallelExecutor, SerialExecutor

BACKENDS = [SerialExecutor(), ParallelExecutor(workers=2)]
IDS = ["serial", "process:2"]


def square(x):
    return x * x


def draw_normal(offset, rng=None):
    return offset + float(rng.standard_normal())


def fail_on(x, bad):
    if x == bad:
        raise ValueError(f"bad item {x}")
    return x


def record_work(tag, telemetry=None):
    with telemetry.span("work"):
        telemetry.inc("items.done")
        telemetry.event("worked", tag=tag)
    return tag


class TestOrdering:
    @pytest.mark.parametrize("executor", BACKENDS, ids=IDS)
    def test_results_in_item_order(self, executor):
        plan = ExecutionPlan.map(square, [(i,) for i in range(7)])
        assert executor.run(plan) == [i * i for i in range(7)]

    @pytest.mark.parametrize("executor", BACKENDS, ids=IDS)
    def test_outcome_indices_match(self, executor):
        plan = ExecutionPlan.map(square, [(i,) for i in range(5)])
        outcomes = executor.execute(plan)
        assert [o.index for o in outcomes] == list(range(5))


class TestFailure:
    @pytest.mark.parametrize("executor", BACKENDS, ids=IDS)
    def test_failing_item_raises_its_own_exception(self, executor):
        plan = ExecutionPlan.map(fail_on, [(i, 2) for i in range(4)])
        with pytest.raises(ValueError, match="bad item 2") as excinfo:
            executor.run(plan)
        # A plain backend does not wrap the error (no ItemFailedError).
        assert type(excinfo.value) is ValueError


class TestDeterminism:
    def test_rng_streams_match_across_backends(self):
        results = {}
        for name, executor in zip(IDS, BACKENDS):
            plan = ExecutionPlan.map(
                draw_normal, [(10 * i,) for i in range(6)], seed=99
            )
            results[name] = executor.run(plan)
        assert results["serial"] == results["process:2"]

    def test_empty_plan(self):
        for executor in BACKENDS:
            assert executor.run(ExecutionPlan([])) == []

    def test_single_item_skips_pool(self):
        plan = ExecutionPlan.map(square, [(3,)])
        assert ParallelExecutor(workers=4).run(plan) == [9]


class TestTelemetryMerge:
    def _run(self, executor):
        buffer = io.StringIO()
        telemetry = SolverTelemetry.to_jsonl(buffer)
        plan = ExecutionPlan.map(
            record_work,
            [(f"item{i}",) for i in range(4)],
            accepts_telemetry=True,
        )
        results = executor.run(plan, telemetry=telemetry)
        telemetry.close()
        buffer.seek(0)
        events = [json.loads(line) for line in buffer if line.strip()]
        return results, events, telemetry

    @pytest.mark.parametrize("executor", BACKENDS, ids=IDS)
    def test_events_absorbed_in_item_order(self, executor):
        results, events, _ = self._run(executor)
        assert results == [f"item{i}" for i in range(4)]
        tags = [e["tag"] for e in events if e["ev"] == "worked"]
        assert tags == [f"item{i}" for i in range(4)]

    @pytest.mark.parametrize("executor", BACKENDS, ids=IDS)
    def test_metrics_and_spans_merged(self, executor):
        _, events, telemetry = self._run(executor)
        assert telemetry.metrics.counter("items.done").value == 4
        work = telemetry.spans.root.children["work"]
        assert work.count == 4
        span_paths = [e["path"] for e in events if e["ev"] == "span"]
        assert span_paths == ["work"] * 4

    def test_merged_streams_identical_across_backends(self):
        streams = {}
        for name, executor in zip(IDS, BACKENDS):
            _, events, _ = self._run(executor)
            for event in events:
                event.pop("seq", None)
                for key in [k for k in event if k.endswith("_s") or k == "dur_s"]:
                    event.pop(key)
            streams[name] = [e for e in events if e["ev"] != "metrics"]
        assert streams["serial"] == streams["process:2"]

    def test_span_paths_prefixed_under_open_span(self):
        telemetry = SolverTelemetry.in_memory()
        plan = ExecutionPlan.map(
            record_work, [("a",)], accepts_telemetry=True
        )
        with telemetry.span("outer"):
            SerialExecutor().run(plan, telemetry=telemetry)
        outer = telemetry.spans.root.children["outer"]
        assert outer.children["work"].count == 1
