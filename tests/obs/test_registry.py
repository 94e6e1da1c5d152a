"""Unit tests for the run-provenance registry (repro.obs.registry)."""

import json
import os

import pytest

from repro.obs.registry import (
    MANIFEST_SCHEMA_VERSION,
    RunRegistry,
    build_manifest,
    compute_run_id,
    config_hash,
    diff_manifests,
    environment_fingerprint,
    headline_metrics,
    manifest_identity,
    render_diff,
    render_manifest,
    render_runs_table,
)
from repro.obs.trend import find_regressions


def make_manifest(status="ok", eta1=0.002, **overrides):
    manifest = build_manifest(
        command="solve",
        argv=["solve", "--fast"],
        config={"model": {"eta1": eta1, "n_q": 13}},
        status=status,
        exit_code=0 if status == "ok" else 1,
        started_at="2026-08-07T12:00:00+00:00",
        wall_s=1.5,
        seeds={"n_plans": 1, "total_items": 4, "total_seeded": 4,
               "plans": [], "truncated": False},
        artifacts={"telemetry": "run.jsonl"},
        metrics={"exploitability": 1e-3, "requests_per_s": 123.0},
    )
    manifest.update(overrides)
    return manifest


class TestEnvironmentFingerprint:
    def test_has_all_fields_and_never_raises(self):
        env = environment_fingerprint()
        for key in ("python", "implementation", "platform", "machine",
                    "numpy", "scipy", "git_sha", "git_dirty"):
            assert key in env
        assert isinstance(env["python"], str)
        assert env["numpy"]  # numpy is a hard dependency

    def test_json_serialisable(self):
        json.dumps(environment_fingerprint())


class TestRunId:
    def test_deterministic(self):
        a = compute_run_id("solve", ["solve", "--fast"], {"eta1": 0.002})
        b = compute_run_id("solve", ["solve", "--fast"], {"eta1": 0.002})
        assert a == b
        assert len(a) == 12

    def test_sensitive_to_every_component(self):
        base = compute_run_id("solve", ["solve"], {"eta1": 0.002})
        assert compute_run_id("serve", ["solve"], {"eta1": 0.002}) != base
        assert compute_run_id("solve", ["solve", "-x"], {"eta1": 0.002}) != base
        assert compute_run_id("solve", ["solve"], {"eta1": 0.004}) != base

    def test_config_hash_ignores_key_order(self):
        assert config_hash({"a": 1, "b": 2}) == config_hash({"b": 2, "a": 1})


class TestHeadlineMetrics:
    def test_serving_counters(self):
        snap = {
            "serve.requests": {"kind": "counter", "value": 1000.0},
            "serve.hits": {"kind": "counter", "value": 900.0},
            "diag.findings": {"kind": "counter", "value": 5.0},
            "diag.info": {"kind": "counter", "value": 5.0},
        }
        out = headline_metrics(snap, wall_s=2.0)
        assert out["requests"] == 1000.0
        assert out["hit_ratio"] == pytest.approx(0.9)
        assert out["requests_per_s"] == pytest.approx(500.0)
        assert out["diag_findings"] == 5.0

    def test_network_counters_and_solver_gauges(self):
        snap = {
            "net.requests": {"kind": "counter", "value": 50.0},
            "net.cache_hits": {"kind": "counter", "value": 20.0},
            "solver.final_policy_change": {"kind": "gauge", "value": 1e-4},
            "solver.n_iterations": {"kind": "gauge", "value": 7.0},
        }
        out = headline_metrics(snap, wall_s=None)
        assert out["hit_ratio"] == pytest.approx(0.4)
        assert "requests_per_s" not in out
        assert out["exploitability"] == pytest.approx(1e-4)
        assert out["n_iterations"] == 7.0

    def test_malformed_entries_are_ignored(self):
        snap = {"serve.requests": {"kind": "counter"},
                "net.requests": "garbage"}
        assert headline_metrics(snap, wall_s=1.0) == {}


class TestRegistryStore:
    def test_append_load_roundtrip_orders_by_seq(self, tmp_path):
        registry = RunRegistry(str(tmp_path))
        for eta1 in (0.002, 0.004, 0.006):
            registry.append(make_manifest(eta1=eta1))
        manifests, warnings = registry.load_all()
        assert warnings == []
        assert [m["seq"] for m in manifests] == [1, 2, 3]
        assert manifests[0]["schema"] == MANIFEST_SCHEMA_VERSION
        assert manifests[2]["config"]["model"]["eta1"] == 0.006

    def test_append_is_atomic_no_tmp_leftovers(self, tmp_path):
        registry = RunRegistry(str(tmp_path))
        registry.append(make_manifest())
        assert not [n for n in os.listdir(tmp_path) if n.endswith(".tmp")]

    def test_find_by_seq_and_prefix(self, tmp_path):
        registry = RunRegistry(str(tmp_path))
        registry.append(make_manifest(eta1=0.002))
        registry.append(make_manifest(eta1=0.004))
        by_seq = registry.find("2")
        assert by_seq["config"]["model"]["eta1"] == 0.004
        by_prefix = registry.find(by_seq["run_id"][:6])
        assert by_prefix["seq"] == 2
        assert registry.find("99") is None
        assert registry.find("zzzz") is None

    def test_find_prefix_prefers_newest(self, tmp_path):
        registry = RunRegistry(str(tmp_path))
        registry.append(make_manifest())
        registry.append(make_manifest())  # identical run id, seq 2
        found = registry.find(make_manifest()["run_id"][:8])
        assert found["seq"] == 2

    def test_env_var_sets_default_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_REGISTRY_DIR", str(tmp_path / "via-env"))
        assert RunRegistry().root == str(tmp_path / "via-env")
        assert RunRegistry(str(tmp_path / "flag")).root == str(tmp_path / "flag")

    def test_missing_root_is_empty_not_an_error(self, tmp_path):
        manifests, warnings = RunRegistry(str(tmp_path / "nope")).load_all()
        assert manifests == [] and warnings == []


class TestCorruptionMatrix:
    """A broken manifest file warns and is skipped — never a crash."""

    @pytest.mark.parametrize("payload", [
        b"",                             # empty file
        b'{"schema": 1, "run_id"',       # truncated JSON
        b"\x00\xffgarbage bytes",        # binary garbage
        b"[1, 2, 3]",                    # valid JSON, wrong shape
        b'{"no_run_id": true}',          # object missing identity
        b'{"schema": 99, "run_id": "x"}',  # future schema
    ])
    def test_bad_file_warns_and_skips(self, tmp_path, payload):
        registry = RunRegistry(str(tmp_path))
        registry.append(make_manifest())
        (tmp_path / "000002-broken.json").write_bytes(payload)
        manifests, warnings = registry.load_all()
        assert len(manifests) == 1
        assert len(warnings) == 1
        assert "skipping" in warnings[0]

    def test_non_json_files_are_ignored_silently(self, tmp_path):
        registry = RunRegistry(str(tmp_path))
        (tmp_path / "README.txt").write_text("not a manifest")
        manifests, warnings = registry.load_all()
        assert manifests == [] and warnings == []

    def test_append_continues_after_corruption(self, tmp_path):
        registry = RunRegistry(str(tmp_path))
        registry.append(make_manifest())
        (tmp_path / "000005-broken.json").write_bytes(b"garbage")
        path = registry.append(make_manifest())
        # Seq counting survives the garbage file (its name parses).
        assert os.path.basename(path).startswith("000006-")


class TestGC:
    def test_keeps_newest_n(self, tmp_path):
        registry = RunRegistry(str(tmp_path))
        for _ in range(5):
            registry.append(make_manifest())
        removed = registry.gc(keep=2)
        assert len(removed) == 3
        manifests, _ = registry.load_all()
        assert [m["seq"] for m in manifests] == [4, 5]

    def test_never_deletes_newest_failing_run(self, tmp_path):
        registry = RunRegistry(str(tmp_path))
        registry.append(make_manifest(status="ok"))
        registry.append(make_manifest(status="failed"))
        for _ in range(3):
            registry.append(make_manifest(status="ok"))
        registry.gc(keep=1)
        manifests, _ = registry.load_all()
        assert [m["seq"] for m in manifests] == [2, 5]
        assert manifests[0]["status"] == "failed"

    def test_keep_zero_retains_only_newest_failure(self, tmp_path):
        registry = RunRegistry(str(tmp_path))
        registry.append(make_manifest(status="failed"))
        registry.append(make_manifest(status="ok"))
        registry.gc(keep=0)
        manifests, _ = registry.load_all()
        assert [m["seq"] for m in manifests] == [1]

    def test_negative_keep_raises(self, tmp_path):
        with pytest.raises(ValueError):
            RunRegistry(str(tmp_path)).gc(keep=-1)


class TestIdentityAndDiff:
    def test_identity_strips_only_measured_fields(self, tmp_path):
        registry = RunRegistry(str(tmp_path))
        registry.append(make_manifest())
        registry.append(make_manifest())
        manifests, _ = registry.load_all()
        a, b = manifests
        assert a != b  # seq and path differ
        assert manifest_identity(a) == manifest_identity(b)
        assert "requests_per_s" not in manifest_identity(a)["metrics"]

    def test_diff_flags_exactly_the_changed_key(self):
        a = make_manifest(eta1=0.002)
        b = make_manifest(eta1=0.004)
        config_changes, series = diff_manifests(a, b)
        assert [key for key, _, _ in config_changes] == ["model.eta1"]
        assert config_changes[0][1:] == (0.002, 0.004)
        text = render_diff(a, b, config_changes, series, 0.2)
        assert "config changes (1):" in text
        assert "model.eta1" in text
        assert "headline metrics (gate ±20%)" in text

    def test_diff_identical_configs_is_empty(self):
        a, b = make_manifest(), make_manifest()
        config_changes, _ = diff_manifests(a, b)
        assert config_changes == []

    @pytest.mark.parametrize("metric, before, after, regressed", [
        pytest.param("requests_per_s", 100.0, 200.0, False,
                     id="throughput-doubles"),
        pytest.param("requests_per_s", 100.0, 50.0, True,
                     id="throughput-halves"),
        pytest.param("hit_ratio", 0.84, 0.30, True, id="hit-ratio-drops"),
        pytest.param("exploitability", 1e-3, 5e-3, True,
                     id="exploitability-grows"),
        pytest.param("diag_error", 0.0, 2.0, True, id="new-errors"),
        pytest.param("diag_warning", 1.0, 3.0, True, id="more-warnings"),
        pytest.param("diag_error", None, 2.0, False, id="one-sided"),
    ])
    def test_diff_metrics_follow_trend_direction(
        self, metric, before, after, regressed
    ):
        def side(value):
            return make_manifest(
                metrics={} if value is None else {metric: value}
            )

        a, b = side(before), side(after)
        config_changes, series = diff_manifests(a, b)
        found = find_regressions(series, threshold=0.2)
        assert bool(found) == regressed
        assert all(metric in line for line in found)
        assert metric in render_diff(a, b, config_changes, series, 0.2)


class TestRendering:
    def test_runs_table_lists_newest_first(self, tmp_path):
        registry = RunRegistry(str(tmp_path))
        registry.append(make_manifest())
        registry.append(make_manifest())
        manifests, _ = registry.load_all()
        text = render_runs_table(manifests)
        assert "run registry (2 manifest(s))" in text
        lines = [l for l in text.splitlines() if l.startswith(("1", "2"))]
        assert lines[0].startswith("2")

    def test_manifest_report_shows_provenance(self):
        manifest = make_manifest()
        manifest["seq"] = 7
        text = render_manifest(manifest)
        assert "repro solve --fast" in text
        assert manifest["run_id"] in text
        assert manifest["config_hash"] in text
        assert "headline metrics" in text
        assert "exploitability" in text
