"""Tests for the resumable executor: checkpoint/resume, retry, degrade.

The functions under test must pickle into pool workers, so every work
fn lives at module scope and records its executions by appending to a
log file (append writes of one short line are atomic on POSIX).
"""

import io
import json
import os
import pickle

import pytest

from repro.obs.telemetry import SolverTelemetry, StrictNumericsError
from repro.runtime import (
    CheckpointStore,
    ExecutionPlan,
    FaultPolicy,
    ItemFailedError,
    ParallelExecutor,
    ResumableExecutor,
    SerialExecutor,
    item_key,
)
from repro.testing import clear_faults, install_faults


@pytest.fixture(autouse=True)
def no_leaked_faults():
    clear_faults()
    yield
    clear_faults()


def record(x, log_dir, rng=None):
    """Work fn: logs its execution, returns a deterministic value."""
    with open(os.path.join(log_dir, "executions.log"), "a") as handle:
        handle.write(f"{x}\n")
    noise = float(rng.standard_normal()) if rng is not None else 0.0
    return x * 10 + noise


def make_plan(log_dir, n=5, seed=None):
    return ExecutionPlan.map(
        record,
        [(i, str(log_dir)) for i in range(n)],
        labels=[f"it:{i}" for i in range(n)],
        seed=seed,
    )


def executions(log_dir):
    path = os.path.join(str(log_dir), "executions.log")
    if not os.path.exists(path):
        return []
    with open(path) as handle:
        return [line.strip() for line in handle if line.strip()]


def jsonl_telemetry():
    buffer = io.StringIO()
    return SolverTelemetry.to_jsonl(buffer), buffer


def events_of(buffer, kind):
    buffer.seek(0)
    return [
        event
        for line in buffer
        if line.strip()
        for event in [json.loads(line)]
        if event.get("ev") == kind
    ]


class TestResume:
    def test_kill_then_resume_runs_only_the_remainder(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        install_faults("raise:item=3,times=-1")
        with pytest.raises(ItemFailedError, match="it:3"):
            ResumableExecutor("serial", store=store).execute(make_plan(tmp_path))
        # Items 0-2 completed and were checkpointed; 3 died, 4 never ran.
        assert executions(tmp_path) == ["0", "1", "2"]
        assert len(store) == 3

        clear_faults()
        telemetry, buffer = jsonl_telemetry()
        resumed = ResumableExecutor(
            "serial", store=store, telemetry=telemetry
        ).execute(make_plan(tmp_path))
        telemetry.close()
        assert [o.result for o in resumed] == [0, 10, 20, 30, 40]
        # Exactly the two missing items executed on resume.
        assert executions(tmp_path) == ["0", "1", "2", "3", "4"]
        assert len(events_of(buffer, "item.cached")) == 3

    def test_resumed_results_match_uninterrupted_bitwise(self, tmp_path):
        clean_dir, resumed_dir = tmp_path / "clean", tmp_path / "resumed"
        clean_dir.mkdir(), resumed_dir.mkdir()
        clean = ResumableExecutor("serial").execute(
            make_plan(clean_dir, seed=42)
        )

        store = CheckpointStore(tmp_path / "ckpt")
        install_faults("raise:item=2,times=-1")
        with pytest.raises(ItemFailedError):
            ResumableExecutor("serial", store=store).execute(
                make_plan(resumed_dir, seed=42)
            )
        clear_faults()
        resumed = ResumableExecutor("serial", store=store).execute(
            make_plan(resumed_dir, seed=42)
        )
        assert pickle.dumps([o.result for o in clean]) == pickle.dumps(
            [o.result for o in resumed]
        )

    def test_fully_cached_rerun_executes_nothing(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        executor = ResumableExecutor("serial", store=store)
        executor.execute(make_plan(tmp_path))
        assert len(executions(tmp_path)) == 5

        telemetry, buffer = jsonl_telemetry()
        again = ResumableExecutor(
            "serial", store=store, telemetry=telemetry
        ).execute(make_plan(tmp_path))
        telemetry.close()
        assert len(executions(tmp_path)) == 5  # nothing re-ran
        assert [o.result for o in again] == [0, 10, 20, 30, 40]
        assert len(events_of(buffer, "item.cached")) == 5

    def test_changed_inputs_miss_the_cache(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        ResumableExecutor("serial", store=store).execute(
            make_plan(tmp_path, seed=1)
        )
        # A different seed changes every item key: full recompute.
        ResumableExecutor("serial", store=store).execute(
            make_plan(tmp_path, seed=2)
        )
        assert len(executions(tmp_path)) == 10


class TestRetry:
    def test_transient_fault_is_retried_to_success(self, tmp_path):
        install_faults("raise:item=1")  # fails attempt 0 only
        telemetry, buffer = jsonl_telemetry()
        outcomes = ResumableExecutor(
            "serial",
            policy=FaultPolicy(max_retries=2),
            telemetry=telemetry,
        ).execute(make_plan(tmp_path))
        telemetry.close()
        assert [o.result for o in outcomes] == [0, 10, 20, 30, 40]
        retries = events_of(buffer, "item.retry")
        assert len(retries) == 1
        assert retries[0]["label"] == "it:1"
        assert retries[0]["attempt"] == 0

    def test_retried_run_matches_clean_run_bitwise(self, tmp_path):
        clean_dir, faulty_dir = tmp_path / "clean", tmp_path / "faulty"
        clean_dir.mkdir(), faulty_dir.mkdir()
        clean = ResumableExecutor("serial").execute(make_plan(clean_dir, seed=9))
        install_faults("raise:item=0;raise:item=3")
        retried = ResumableExecutor(
            "serial", policy=FaultPolicy(max_retries=1)
        ).execute(make_plan(faulty_dir, seed=9))
        assert pickle.dumps([o.result for o in clean]) == pickle.dumps(
            [o.result for o in retried]
        )

    def test_backoff_schedule_is_deterministic(self, tmp_path):
        sleeps = []
        install_faults("raise:item=0,times=3")
        policy = FaultPolicy(
            max_retries=3, backoff_base=0.25, backoff_factor=2.0, backoff_max=10.0
        )
        outcomes = ResumableExecutor(
            "serial", policy=policy, sleep=sleeps.append
        ).execute(make_plan(tmp_path, n=1))
        assert outcomes[0].result == 0
        assert sleeps == [0.25, 0.5, 1.0]

    def test_exhausted_fail_raises_item_failed(self, tmp_path):
        install_faults("raise:item=0,times=-1")
        with pytest.raises(ItemFailedError) as excinfo:
            ResumableExecutor(
                "serial", policy=FaultPolicy(max_retries=2)
            ).execute(make_plan(tmp_path, n=1))
        assert excinfo.value.attempts == 3
        assert excinfo.value.label == "it:0"

    def test_strict_numerics_is_never_retried(self, tmp_path):
        install_faults("raise:item=0,exc=strict,times=-1")
        with pytest.raises(StrictNumericsError):
            ResumableExecutor(
                "serial", policy=FaultPolicy(max_retries=5)
            ).execute(make_plan(tmp_path, n=1))
        # Zero retries burned: the item never re-executed.
        assert executions(tmp_path) == []


class TestExhaustionModes:
    def test_skip_records_none_and_carries_on(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        install_faults("raise:item=2,times=-1")
        telemetry, buffer = jsonl_telemetry()
        outcomes = ResumableExecutor(
            "serial",
            store=store,
            policy=FaultPolicy(on_exhaust="skip"),
            telemetry=telemetry,
        ).execute(make_plan(tmp_path))
        telemetry.close()
        assert [o.result for o in outcomes] == [0, 10, None, 30, 40]
        # Skipped items are never checkpointed: a rerun tries again.
        assert len(store) == 4
        failed = events_of(buffer, "item.failed")
        assert len(failed) == 1
        assert failed[0]["action"] == "skip"

    def test_degrade_substitutes_the_fallback(self, tmp_path):
        install_faults("raise:item=2,times=-1")
        outcomes = ResumableExecutor(
            "serial",
            policy=FaultPolicy(on_exhaust="degrade", fallback=-99),
        ).execute(make_plan(tmp_path))
        assert [o.result for o in outcomes] == [0, 10, -99, 30, 40]


class TestParallel:
    def test_parallel_matches_serial_bitwise(self, tmp_path):
        serial_dir, parallel_dir = tmp_path / "s", tmp_path / "p"
        serial_dir.mkdir(), parallel_dir.mkdir()
        install_faults("raise:item=1")
        policy = FaultPolicy(max_retries=2)
        serial = ResumableExecutor("serial", policy=policy).execute(
            make_plan(serial_dir, seed=3)
        )
        parallel = ResumableExecutor(
            ParallelExecutor(workers=2),
            store=CheckpointStore(tmp_path / "ckpt"),
            policy=policy,
        ).execute(make_plan(parallel_dir, seed=3))
        assert pickle.dumps([o.result for o in serial]) == pickle.dumps(
            [o.result for o in parallel]
        )

    def test_parallel_kill_then_resume(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        install_faults("raise:item=2,times=-1")
        with pytest.raises(ItemFailedError):
            ResumableExecutor(ParallelExecutor(workers=2), store=store).execute(
                make_plan(tmp_path, seed=11)
            )
        clear_faults()
        resumed = ResumableExecutor(
            ParallelExecutor(workers=2), store=store
        ).execute(make_plan(tmp_path, seed=11))
        clean_dir = tmp_path / "clean-ref"
        clean_dir.mkdir()
        clean = ResumableExecutor("serial").execute(
            make_plan(clean_dir, seed=11)
        )
        assert pickle.dumps([o.result for o in resumed]) == pickle.dumps(
            [o.result for o in clean]
        )

    def test_fatal_failure_drains_running_siblings_into_store(self, tmp_path):
        # Item 0 dies instantly; item 1 is mid-flight on the other
        # worker.  The abort path must let item 1 land in the store so
        # a resume only recomputes item 0.
        store = CheckpointStore(tmp_path / "ckpt")
        install_faults("raise:item=0,times=-1;slow:item=1,seconds=0.2")
        with pytest.raises(ItemFailedError, match="it:0"):
            ResumableExecutor(ParallelExecutor(workers=2), store=store).execute(
                make_plan(tmp_path, n=2, seed=4)
            )
        assert len(store) == 1
        clear_faults()
        resumed = ResumableExecutor(
            ParallelExecutor(workers=2), store=store
        ).execute(make_plan(tmp_path, n=2, seed=4))
        # Each item executed exactly once across both runs.
        assert sorted(executions(tmp_path)) == ["0", "1"]
        clean_dir = tmp_path / "clean-ref"
        clean_dir.mkdir()
        clean = ResumableExecutor("serial").execute(
            make_plan(clean_dir, n=2, seed=4)
        )
        assert pickle.dumps([o.result for o in resumed]) == pickle.dumps(
            [o.result for o in clean]
        )


PROGRESS_BACKENDS = {
    "serial": lambda store: SerialExecutor(),
    "process:2": lambda store: ParallelExecutor(workers=2),
    "resumable[serial]": lambda store: ResumableExecutor("serial", store=store),
    "resumable[process:2]": lambda store: ResumableExecutor(
        ParallelExecutor(workers=2), store=store
    ),
}


class TestProgress:
    @pytest.mark.parametrize("backend", list(PROGRESS_BACKENDS))
    def test_fires_once_per_item(self, tmp_path, backend):
        executor = PROGRESS_BACKENDS[backend](CheckpointStore(tmp_path / "ckpt"))
        seen = []
        executor.execute(
            make_plan(tmp_path), progress=lambda outcome: seen.append(outcome.index)
        )
        assert sorted(seen) == list(range(5))

    @pytest.mark.parametrize("inner", ["serial", "process:2"])
    def test_resumed_run_reports_cached_items_too(self, tmp_path, inner):
        store = CheckpointStore(tmp_path / "ckpt")
        install_faults("raise:item=3,times=-1")
        with pytest.raises(ItemFailedError):
            ResumableExecutor(inner, store=store).execute(make_plan(tmp_path))
        clear_faults()
        assert len(store) >= 1
        seen = []
        ResumableExecutor(inner, store=store).execute(
            make_plan(tmp_path), progress=lambda outcome: seen.append(outcome.index)
        )
        assert sorted(seen) == list(range(5))


class TestCorruptCheckpoints:
    def test_flipped_byte_recomputes_only_that_item(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        baseline = ResumableExecutor("serial", store=store).execute(
            make_plan(tmp_path, seed=5)
        )
        assert len(executions(tmp_path)) == 5
        store.corrupt(item_key(make_plan(tmp_path, seed=5)[1]))

        telemetry, buffer = jsonl_telemetry()
        resumed = ResumableExecutor(
            "serial", store=store, telemetry=telemetry
        ).execute(make_plan(tmp_path, seed=5))
        telemetry.close()
        # Only the damaged item re-executed; results are unchanged.
        assert len(executions(tmp_path)) == 6
        assert pickle.dumps([o.result for o in baseline]) == pickle.dumps(
            [o.result for o in resumed]
        )
        diags = events_of(buffer, "diag.checkpoint.corrupt")
        assert len(diags) == 1
        assert diags[0]["severity"] == "warning"
        assert diags[0]["action"] == "recompute"

    def test_truncated_object_recomputes_only_that_item(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        ResumableExecutor("serial", store=store).execute(
            make_plan(tmp_path, seed=5)
        )
        store.truncate(item_key(make_plan(tmp_path, seed=5)[0]))
        ResumableExecutor("serial", store=store).execute(
            make_plan(tmp_path, seed=5)
        )
        assert len(executions(tmp_path)) == 6

    def test_mixed_schema_versions_recompute_only_affected(self, tmp_path):
        from repro.runtime import CHECKPOINT_SCHEMA_VERSION

        store = CheckpointStore(tmp_path / "ckpt")
        ResumableExecutor("serial", store=store).execute(
            make_plan(tmp_path, seed=5)
        )
        key = item_key(make_plan(tmp_path, seed=5)[3])
        with open(store.object_path(key), "rb") as handle:
            wrapper = pickle.load(handle)
        wrapper["schema"] = CHECKPOINT_SCHEMA_VERSION + 1
        with open(store.object_path(key), "wb") as handle:
            pickle.dump(wrapper, handle)
        ResumableExecutor("serial", store=store).execute(
            make_plan(tmp_path, seed=5)
        )
        assert len(executions(tmp_path)) == 6

    def test_corrupt_fault_rule_damages_the_saved_object(self, tmp_path):
        install_faults("corrupt:item=0")
        store = CheckpointStore(tmp_path / "ckpt")
        ResumableExecutor("serial", store=store).execute(make_plan(tmp_path))
        clear_faults()
        # The rerun detects the damage and recomputes exactly item 0.
        ResumableExecutor("serial", store=store).execute(make_plan(tmp_path))
        assert len(executions(tmp_path)) == 6

    def test_capture_mismatch_recomputes(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        # First run without telemetry capture: snapshots are None.
        ResumableExecutor("serial", store=store).execute(
            make_plan(tmp_path), capture=False
        )
        telemetry, buffer = jsonl_telemetry()
        ResumableExecutor(
            "serial", store=store, telemetry=telemetry
        ).execute(make_plan(tmp_path), capture=True)
        telemetry.close()
        # A capture-less checkpoint cannot serve a capturing run.
        assert len(executions(tmp_path)) == 10
        retries = events_of(buffer, "item.retry")
        assert retries and "telemetry" in retries[0]["reason"]


class TestWrapperContract:
    def test_refuses_nested_wrappers(self):
        with pytest.raises(ValueError, match="nest"):
            ResumableExecutor(ResumableExecutor("serial"))

    def test_spec_names_the_inner_backend(self):
        assert ResumableExecutor("serial").spec == "resumable[serial]"
        assert (
            ResumableExecutor(ParallelExecutor(workers=3)).spec
            == "resumable[process:3]"
        )
