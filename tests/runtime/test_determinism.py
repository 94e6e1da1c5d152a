"""Serial vs process-pool determinism regression tests.

The ``repro.runtime`` contract: switching backends never changes the
numbers.  These tests run the real fan-out sites — the Alg. 1 epoch
loop and the seed-replicated scheme summaries — under the serial and a
2-worker process backend and require bit-identical results, plus
identical merged telemetry event streams (modulo sequence numbers and
wall-clock timings).
"""

import io
import json

import numpy as np
import pytest

from repro.analysis.experiments import run_scheme_summary
from repro.content.catalog import ContentCatalog
from repro.content.requests import RequestProcess
from repro.content.timeliness import TimelinessModel
from repro.core.parameters import MFGCPConfig
from repro.core.solver import MFGCPSolver
from repro.obs.telemetry import SolverTelemetry
from repro.runtime import ParallelExecutor, SerialExecutor

BACKENDS = {"serial": SerialExecutor, "process": lambda: ParallelExecutor(workers=2)}


def tiny_config():
    """A deliberately small grid: many contents, fast solves."""
    return MFGCPConfig(
        n_time_steps=25, n_h=7, n_q=17, max_iterations=15, tolerance=1e-3
    )


def run_epoch(executor, telemetry=None, **run_kwargs):
    n_contents = 4
    catalog = ContentCatalog.uniform(n_contents, size_mb=100.0)
    requests = RequestProcess(
        n_contents=n_contents,
        rate_per_edp=60.0,
        timeliness_model=TimelinessModel(l_max=3.0),
        rng=np.random.default_rng(1),
    )
    solver = MFGCPSolver(tiny_config(), telemetry=telemetry, executor=executor)
    return solver.run_epochs(catalog, requests, n_epochs=2, **run_kwargs)


MEASURED_KEYS = ("rss_kb", "gc")
"""Profiling fields that are measurements, not functions of solver
state — stripped (like timings) before cross-backend comparison."""


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
        for key in MEASURED_KEYS:
            event.pop(key, None)
        events.append(event)
    return events


class TestEpochLoopDeterminism:
    @pytest.fixture(scope="class")
    def runs(self):
        out = {}
        for name, factory in BACKENDS.items():
            buffer = io.StringIO()
            telemetry = SolverTelemetry.to_jsonl(buffer)
            results = run_epoch(factory(), telemetry=telemetry)
            telemetry.close()
            out[name] = (results, normalised_events(buffer))
        return out

    def test_enough_contents_to_matter(self, runs):
        results, _ = runs["serial"]
        assert all(len(r.active_contents) >= 4 for r in results)

    def test_equilibria_bit_identical(self, runs):
        serial, _ = runs["serial"]
        parallel, _ = runs["process"]
        assert len(serial) == len(parallel)
        for a, b in zip(serial, parallel):
            assert a.active_contents == b.active_contents
            assert np.array_equal(a.popularity, b.popularity)
            assert np.array_equal(a.timeliness, b.timeliness)
            for k in a.equilibria:
                ea, eb = a.equilibria[k], b.equilibria[k]
                assert np.array_equal(ea.policy.table, eb.policy.table), k
                assert np.array_equal(ea.density, eb.density), k
                assert np.array_equal(ea.value, eb.value), k
                assert np.array_equal(ea.mean_field.price, eb.mean_field.price), k

    def test_telemetry_streams_identical(self, runs):
        _, serial_events = runs["serial"]
        _, parallel_events = runs["process"]
        assert serial_events == parallel_events
        kinds = {e["ev"] for e in serial_events}
        assert "content_solve" in kinds
        assert "epoch" in kinds
        assert "iteration" in kinds


class TestBatchedSolverEquivalence:
    """The per-content-vs-batched equivalence guard.

    Every solve runs the batched sweeps; the per-content path ("scalar"
    below) solves each content as a one-lane batch.  A lane's result
    must not depend on the batch it rides in, so the guard demands
    *bit-identical* equilibria — not just tolerance agreement — across
    (a) the per-content path, (b) the batched path on the serial
    backend, and (c) the batched path on a 2-worker process pool.
    Should a future change break exact identity for a legitimate
    numerical reason, loosen this to the documented determinism
    tolerance (``assert_allclose`` with rtol 1e-12) — never silently.
    """

    VARIANTS = {
        "scalar": ("serial", {}),
        "batched": ("serial", dict(solver_batching=True, batch_size=3)),
        "batched-process": (
            "process",
            dict(solver_batching=True, batch_size=3),
        ),
    }

    @pytest.fixture(scope="class")
    def runs(self):
        out = {}
        for name, (backend, kwargs) in self.VARIANTS.items():
            out[name] = run_epoch(BACKENDS[backend](), **kwargs)
        return out

    @pytest.mark.parametrize("variant", ["batched", "batched-process"])
    def test_equilibria_bit_identical_to_scalar(self, runs, variant):
        for a, b in zip(runs["scalar"], runs[variant]):
            assert a.active_contents == b.active_contents
            assert set(a.equilibria) == set(b.equilibria)
            for k in a.equilibria:
                ea, eb = a.equilibria[k], b.equilibria[k]
                assert np.array_equal(ea.value, eb.value), k
                assert np.array_equal(ea.policy.table, eb.policy.table), k
                assert np.array_equal(ea.density, eb.density), k
                assert np.array_equal(ea.mean_field.price, eb.mean_field.price), k
                assert ea.report.n_iterations == eb.report.n_iterations, k
                assert ea.report.converged == eb.report.converged, k

    def test_convergence_histories_identical(self, runs):
        # Masked lanes must replay the scalar iteration trace exactly.
        for a, b in zip(runs["scalar"], runs["batched"]):
            for k in a.equilibria:
                ha = a.equilibria[k].report.history
                hb = b.equilibria[k].report.history
                assert [r.policy_change for r in ha] == [
                    r.policy_change for r in hb
                ], k
                assert [r.mean_field_change for r in ha] == [
                    r.mean_field_change for r in hb
                ], k


class TestProfiledRunDeterminism:
    """Backend bit-identity must survive ``profile=True``.

    Profiling adds measured fields (CPU, RSS, GC) to span events; the
    structural content — span paths, call counts, diag findings,
    histogram counts — must stay identical between serial and a
    4-worker process pool.
    """

    @pytest.fixture(scope="class")
    def profiled(self):
        backends = {
            "serial": SerialExecutor,
            "process": lambda: ParallelExecutor(workers=4),
        }
        out = {}
        for name, factory in backends.items():
            buffer = io.StringIO()
            telemetry = SolverTelemetry.to_jsonl(buffer, profile=True)
            results = run_epoch(factory(), telemetry=telemetry)
            metrics = telemetry.metrics.snapshot()
            telemetry.close()
            out[name] = (results, normalised_events(buffer), metrics)
        return out

    def test_profiled_events_identical(self, profiled):
        _, serial_events, _ = profiled["serial"]
        _, parallel_events, _ = profiled["process"]
        assert serial_events == parallel_events

    def test_profiling_fields_present(self, profiled):
        # The profiled stream must actually carry the resource fields
        # (on the raw events, before normalisation strips them).
        buffer = io.StringIO()
        telemetry = SolverTelemetry.to_jsonl(buffer, profile=True)
        run_epoch(SerialExecutor(), telemetry=telemetry)
        telemetry.close()
        buffer.seek(0)
        span_events = [
            json.loads(line)
            for line in buffer
            if '"ev":"span"' in line
        ]
        assert span_events
        assert all("cpu_s" in e and "rss_kb" in e and "gc" in e
                   for e in span_events)

    def test_span_tree_structure_identical(self, profiled):
        trees = {}
        for name in ("serial", "process"):
            _, events, _ = profiled[name]
            spans = {}
            for event in events:
                if event.get("ev") == "span":
                    path = event["path"]
                    spans[path] = spans.get(path, 0) + 1
            trees[name] = spans
        assert trees["serial"] == trees["process"]
        assert any("solve" in path for path in trees["serial"])

    def test_histograms_identical(self, profiled):
        _, _, serial_metrics = profiled["serial"]
        _, _, parallel_metrics = profiled["process"]
        for name, entry in serial_metrics.items():
            if entry.get("kind") != "histogram":
                continue
            assert entry["count"] == parallel_metrics[name]["count"], name

    def test_equilibria_bit_identical_under_profiling(self, profiled):
        serial, _, _ = profiled["serial"]
        parallel, _, _ = profiled["process"]
        for a, b in zip(serial, parallel):
            for k in a.equilibria:
                assert np.array_equal(
                    a.equilibria[k].policy.table, b.equilibria[k].policy.table
                ), k


class TestSchemeSummaryDeterminism:
    @pytest.mark.parametrize("scheme", ["MFG-CP", "MPC", "RR"])
    def test_summaries_bit_identical(self, scheme):
        cfg = tiny_config()
        summaries = {}
        for name, factory in BACKENDS.items():
            summaries[name] = run_scheme_summary(
                scheme, cfg, n_edps=8, seeds=(7, 8, 9), executor=factory()
            )
        assert summaries["serial"] == summaries["process"]

    def test_telemetry_streams_identical(self):
        cfg = tiny_config()
        streams = {}
        for name, factory in BACKENDS.items():
            buffer = io.StringIO()
            telemetry = SolverTelemetry.to_jsonl(buffer)
            run_scheme_summary(
                "MFG-CP",
                cfg,
                n_edps=8,
                seeds=(7, 8, 9),
                telemetry=telemetry,
                executor=factory(),
            )
            telemetry.close()
            streams[name] = normalised_events(buffer)
        assert streams["serial"] == streams["process"]


class TestLiveStatusDeterminism:
    """Backend bit-identity must survive ``--live-status``.

    The live writer reads the wall clock and throttles its writes, so
    its event *counts* differ run to run — but it is a pure side
    channel: with ``live.*`` events stripped (exactly what
    :func:`repro.testing.normalized_events` does) the serial and
    process streams must still compare equal, and the results must
    stay bit-identical.
    """

    @pytest.fixture(scope="class")
    def live_runs(self, tmp_path_factory):
        from repro.obs import LiveStatusWriter, read_status
        from repro.testing import normalized_events

        out = {}
        for name, factory in BACKENDS.items():
            root = tmp_path_factory.mktemp(f"live-{name}")
            buffer = io.StringIO()
            telemetry = SolverTelemetry.to_jsonl(buffer)
            telemetry.set_live(
                LiveStatusWriter(root / "status.json", every=1)
            )
            results = run_epoch(factory(), telemetry=telemetry)
            telemetry.close()
            out[name] = (
                results,
                normalized_events(buffer),
                read_status(root / "status.json"),
            )
        return out

    def test_results_bit_identical(self, live_runs):
        serial, _, _ = live_runs["serial"]
        parallel, _, _ = live_runs["process"]
        for a, b in zip(serial, parallel):
            assert a.active_contents == b.active_contents
            for k in a.equilibria:
                assert np.array_equal(
                    a.equilibria[k].policy.table, b.equilibria[k].policy.table
                ), k

    def test_normalized_streams_identical(self, live_runs):
        _, serial_events, _ = live_runs["serial"]
        _, parallel_events, _ = live_runs["process"]
        assert serial_events == parallel_events
        # live.* must be gone from the normalised view...
        assert not any(
            str(e.get("ev", "")).startswith("live.") for e in serial_events
        )

    def test_raw_streams_contain_live_events(self, live_runs):
        # ...but the raw runs did carry them (the side channel works).
        _, _, status = live_runs["serial"]
        assert status["state"] == "done"
        assert status["items"]["done"] > 0

    def test_status_files_agree_on_progress(self, live_runs):
        _, _, serial_status = live_runs["serial"]
        _, _, parallel_status = live_runs["process"]
        assert serial_status["items"]["done"] == parallel_status["items"]["done"]
        assert serial_status["items"]["total"] == parallel_status["items"]["total"]
        assert serial_status["phase"] == parallel_status["phase"]
