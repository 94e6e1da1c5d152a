"""Tests for the content-addressed checkpoint store."""

import os
import pickle
from dataclasses import replace

import numpy as np
import pytest

from repro.runtime import (
    CHECKPOINT_SCHEMA_VERSION,
    CheckpointCorruptError,
    CheckpointError,
    CheckpointStore,
    ExecutionPlan,
    WorkItem,
    execute_item,
    item_key,
)


def double(x):
    return 2 * x


def make_item(index=0, args=(21,), label="it", seed=None, **kwargs):
    return WorkItem(
        index=index, fn=double, args=args, label=label, seed=seed, **kwargs
    )


class TestItemKey:
    def test_stable_across_calls(self):
        assert item_key(make_item()) == item_key(make_item())

    def test_stable_across_plan_rebuilds(self):
        plan_a = ExecutionPlan.map(double, [(1,), (2,)], seed=7)
        plan_b = ExecutionPlan.map(double, [(1,), (2,)], seed=7)
        assert [item_key(i) for i in plan_a] == [item_key(i) for i in plan_b]

    @pytest.mark.parametrize(
        "variant",
        [
            dict(args=(22,)),
            dict(index=1),
            dict(label="other"),
            dict(seed=np.random.SeedSequence(5)),
        ],
    )
    def test_any_input_change_changes_key(self, variant):
        base = make_item()
        assert item_key(base) != item_key(make_item(**variant))

    def test_seed_lineage_matters(self):
        a = make_item(seed=np.random.SeedSequence(5))
        b = make_item(seed=np.random.SeedSequence(6))
        assert item_key(a) != item_key(b)

    def test_unpicklable_item_is_checkpoint_error(self):
        item = WorkItem(index=0, fn=double, args=(lambda: None,))
        with pytest.raises(CheckpointError, match="not picklable"):
            item_key(item)


class TestBatchedItemKeys:
    """Equilibrium items hash their sorted content-index tuple.

    Every equilibrium item is a :func:`solve_equilibrium_shard` call
    whose first argument is the shard's content ids, so items of
    different contents, or of runs sharded at different widths, never
    share a key: ``--resume`` across a width change recomputes instead
    of replaying the wrong cached object.
    """

    def _batched_item(self, content_ids, index=0):
        from repro.core.parameters import MFGCPConfig
        from repro.core.solver import solve_equilibrium_shard

        shard = tuple(sorted(content_ids))
        configs = tuple(MFGCPConfig.fast() for _ in shard)
        return WorkItem(
            index=index,
            fn=solve_equilibrium_shard,
            args=(shard, configs),
            label=f"batch:{shard[0]}-{shard[-1]}",
            accepts_telemetry=True,
        )

    def test_batched_key_is_stable(self):
        assert item_key(self._batched_item([2, 0, 1])) == item_key(
            self._batched_item([0, 1, 2])
        )

    def test_one_lane_key_hashes_the_content_id(self):
        # Same config, position and label: only the content id differs.
        first = self._batched_item([0])
        other = self._batched_item([1])
        assert item_key(first) != item_key(replace(other, label=first.label))

    def test_width_change_recomputes_bit_identically(self, tmp_path):
        # Checkpointed at width 1, resumed at width 4: no shard is
        # served from the store, and the recomputed equilibria match.
        from repro.core.parameters import MFGCPConfig
        from repro.core.solver import fan_out_equilibria
        from repro.obs.telemetry import SolverTelemetry
        from repro.runtime import ResumableExecutor, SerialExecutor

        base = MFGCPConfig.fast()
        configs = {k: replace(base, content_size=60.0 + 20.0 * k) for k in range(4)}

        def solve(width):
            telemetry = SolverTelemetry.buffered()
            executor = ResumableExecutor(
                SerialExecutor(), store=CheckpointStore(tmp_path),
                telemetry=telemetry,
            )
            solved, dropped = fan_out_equilibria(
                configs, executor, telemetry,
                label=lambda shard: f"batch:{shard[0]}-{shard[-1]}",
                scope="epoch", width=width,
            )
            assert dropped == []
            events = telemetry.sink.events
            return solved, sum(e["ev"] == "item.cached" for e in events)

        narrow, _ = solve(1)
        assert solve(1)[1] == 4  # the store does serve a same-width rerun
        wide, cached = solve(4)
        assert cached == 0
        for k in configs:
            for attr in ("value", "density"):
                assert np.array_equal(
                    getattr(wide[k], attr), getattr(narrow[k], attr)
                )
            assert np.array_equal(wide[k].policy.table, narrow[k].policy.table)

    def test_different_shards_have_different_keys(self):
        assert item_key(self._batched_item([0, 1])) != item_key(
            self._batched_item([0, 1, 2])
        )
        assert item_key(self._batched_item([0, 1])) != item_key(
            self._batched_item([2, 3], index=1)
        )


class TestStoreRoundtrip:
    def test_save_load_roundtrip(self, tmp_path):
        store = CheckpointStore(tmp_path)
        item = make_item()
        key = item_key(item)
        outcome = execute_item(item)
        store.save(key, outcome, label=item.label)
        loaded = store.load(key)
        assert loaded.index == outcome.index
        assert loaded.result == 42
        assert store.contains(key)
        assert len(store) == 1

    def test_manifest_records_label(self, tmp_path):
        store = CheckpointStore(tmp_path)
        key = item_key(make_item())
        store.save(key, execute_item(make_item()), label="it")
        reopened = CheckpointStore(tmp_path)
        manifest = reopened.validate_manifest()
        assert manifest["items"][key]["label"] == "it"
        assert manifest["schema"] == CHECKPOINT_SCHEMA_VERSION

    def test_atomic_writes_leave_no_temp_files(self, tmp_path):
        store = CheckpointStore(tmp_path)
        for index in range(4):
            item = make_item(index=index)
            store.save(item_key(item), execute_item(item), label=item.label)
        stray = [
            name
            for base, _, names in os.walk(tmp_path)
            for name in names
            if name.startswith(".tmp-ckpt-")
        ]
        assert stray == []

    def test_discard_forgets(self, tmp_path):
        store = CheckpointStore(tmp_path)
        key = item_key(make_item())
        store.save(key, execute_item(make_item()))
        store.discard(key)
        assert not store.contains(key)
        assert not os.path.exists(store.object_path(key))

    def test_reset_empties_the_store(self, tmp_path):
        store = CheckpointStore(tmp_path)
        key = item_key(make_item())
        store.save(key, execute_item(make_item()))
        store.reset()
        assert len(store) == 0
        assert not store.contains(key)

    def test_missing_object_file_is_not_contained(self, tmp_path):
        # A manifest entry whose object file vanished must read as a
        # miss, not a hit that later explodes.
        store = CheckpointStore(tmp_path)
        key = item_key(make_item())
        store.save(key, execute_item(make_item()))
        os.unlink(store.object_path(key))
        assert not store.contains(key)


class TestCorruption:
    @pytest.fixture()
    def saved(self, tmp_path):
        store = CheckpointStore(tmp_path)
        item = make_item()
        key = item_key(item)
        store.save(key, execute_item(item), label=item.label)
        return store, key

    def test_flipped_byte_detected(self, saved):
        store, key = saved
        store.corrupt(key)
        with pytest.raises(CheckpointCorruptError):
            store.load(key)

    def test_flipped_payload_byte_fails_integrity_hash(self, saved):
        store, key = saved
        # Flip a byte in the middle, squarely inside the payload bytes.
        store.corrupt(key, position=len(open(store.object_path(key), "rb").read()) // 2)
        with pytest.raises(CheckpointCorruptError):
            store.load(key)

    def test_truncated_file_detected(self, saved):
        store, key = saved
        store.truncate(key)
        with pytest.raises(CheckpointCorruptError):
            store.load(key)

    def test_empty_file_detected(self, saved):
        store, key = saved
        store.truncate(key, keep=0)
        with pytest.raises(CheckpointCorruptError):
            store.load(key)

    def test_schema_version_mismatch_detected(self, saved):
        store, key = saved
        wrapper = pickle.load(open(store.object_path(key), "rb"))
        wrapper["schema"] = CHECKPOINT_SCHEMA_VERSION + 1
        with open(store.object_path(key), "wb") as handle:
            pickle.dump(wrapper, handle)
        with pytest.raises(CheckpointCorruptError, match="schema"):
            store.load(key)

    def test_renamed_object_detected(self, saved):
        # A file copied under another item's key records the wrong key
        # inside its wrapper — content addressing catches the swap.
        store, key = saved
        other = item_key(make_item(index=1))
        os.rename(store.object_path(key), store.object_path(other))
        store._manifest["items"][other] = store._manifest["items"][key]
        with pytest.raises(CheckpointCorruptError, match="records key"):
            store.load(other)

    def test_wrapper_without_payload_detected(self, saved):
        store, key = saved
        wrapper = pickle.load(open(store.object_path(key), "rb"))
        del wrapper["payload"]
        with open(store.object_path(key), "wb") as handle:
            pickle.dump(wrapper, handle)
        with pytest.raises(CheckpointCorruptError, match="payload"):
            store.load(key)

    def test_batched_checkpoint_corruption_detected(self, tmp_path):
        # The corruption matrix must also cover the batched work-item
        # shape: an outcome holding a *list* of equilibria keyed by the
        # shard's sorted content tuple.  A flipped byte and a truncation
        # must both surface as CheckpointCorruptError, and the intact
        # sibling object must still load.
        from dataclasses import replace

        from repro.core.parameters import MFGCPConfig
        from repro.core.solver import solve_equilibrium_shard

        cfg = replace(
            MFGCPConfig.fast(), n_time_steps=10, n_h=5, n_q=9, max_iterations=3
        )
        shard = (0, 1)
        item = WorkItem(
            index=0,
            fn=solve_equilibrium_shard,
            args=(shard, (cfg, replace(cfg, content_size=8.0))),
            label="batch:0-1",
            accepts_telemetry=True,
        )
        sibling = WorkItem(
            index=1,
            fn=solve_equilibrium_shard,
            args=((2, 3), (cfg, cfg)),
            label="batch:2-3",
            accepts_telemetry=True,
        )
        store = CheckpointStore(tmp_path)
        keys = []
        for it in (item, sibling):
            key = item_key(it)
            outcome = execute_item(it)
            assert isinstance(outcome.result, list) and len(outcome.result) == 2
            store.save(key, outcome, label=it.label)
            keys.append(key)

        store.corrupt(keys[0])
        with pytest.raises(CheckpointCorruptError):
            store.load(keys[0])
        loaded = store.load(keys[1])
        assert [r.config.content_size for r in loaded.result] == [
            cfg.content_size,
            cfg.content_size,
        ]

        store.truncate(keys[1])
        with pytest.raises(CheckpointCorruptError):
            store.load(keys[1])

    def test_non_outcome_payload_detected(self, saved):
        store, key = saved
        payload = pickle.dumps({"not": "an outcome"}, protocol=4)
        import hashlib

        wrapper = {
            "schema": CHECKPOINT_SCHEMA_VERSION,
            "key": key,
            "sha256": hashlib.sha256(payload).hexdigest(),
            "payload": payload,
        }
        with open(store.object_path(key), "wb") as handle:
            pickle.dump(wrapper, handle)
        with pytest.raises(CheckpointCorruptError, match="ItemOutcome"):
            store.load(key)


class TestManifestValidation:
    def test_missing_manifest_refuses_resume(self, tmp_path):
        store = CheckpointStore(tmp_path)
        with pytest.raises(CheckpointError, match="nothing to resume"):
            store.validate_manifest()

    def test_garbage_manifest_rejected(self, tmp_path):
        store = CheckpointStore(tmp_path)
        with open(store.manifest_path, "w", encoding="utf-8") as handle:
            handle.write("not json at all {")
        with pytest.raises(CheckpointError, match="unreadable"):
            store.validate_manifest()

    def test_structurally_wrong_manifest_rejected(self, tmp_path):
        store = CheckpointStore(tmp_path)
        with open(store.manifest_path, "w", encoding="utf-8") as handle:
            handle.write('["a", "list"]')
        with pytest.raises(CheckpointError, match="malformed"):
            store.validate_manifest()

    def test_wrong_schema_manifest_rejected(self, tmp_path):
        import json

        store = CheckpointStore(tmp_path)
        with open(store.manifest_path, "w", encoding="utf-8") as handle:
            json.dump({"schema": 999, "items": {}}, handle)
        with pytest.raises(CheckpointError, match="schema"):
            store.validate_manifest()

    def test_open_without_create_requires_store(self, tmp_path):
        with pytest.raises(CheckpointError, match="no checkpoint store"):
            CheckpointStore(tmp_path / "nowhere", create=False)
