"""End-to-end tests for the run registry CLI surface.

Covers the provenance loop the registry exists for: run a command,
find its manifest, show it, diff it against a tweaked re-run, trend
it, and prune it — plus the side-channel contract (recording a
manifest must not perturb the normalized telemetry stream).
"""

import json
import os

import pytest

from repro.cli import main
from repro.obs.registry import RunRegistry, build_manifest, manifest_identity
from repro.testing import normalized_events


@pytest.fixture
def registry_dir(tmp_path, monkeypatch):
    """Point the registry at a per-test directory (the autouse conftest
    fixture already isolates it; this returns the actual path)."""
    root = tmp_path / "runs"
    monkeypatch.setenv("REPRO_REGISTRY_DIR", str(root))
    return root


def run_solve(*extra):
    assert main(["solve", "--fast", *extra]) == 0


class TestManifestRecording:
    def test_solve_records_manifest(self, registry_dir, capsys):
        run_solve()
        err = capsys.readouterr().err
        assert "run manifest" in err and "recorded ->" in err
        manifests, warnings = RunRegistry(str(registry_dir)).load_all()
        assert warnings == []
        (manifest,) = manifests
        assert manifest["command"] == "solve"
        assert manifest["argv"] == ["solve", "--fast"]
        assert manifest["status"] == "ok"
        assert manifest["exit_code"] == 0
        assert manifest["config"]["model"]["n_q"]
        assert "exploitability" in manifest["metrics"]
        assert manifest["environment"]["python"]

    def test_identical_runs_differ_only_in_measured_fields(self, registry_dir):
        run_solve()
        run_solve()
        manifests, _ = RunRegistry(str(registry_dir)).load_all()
        a, b = manifests
        assert a["run_id"] == b["run_id"]
        assert (a["seq"], b["seq"]) == (1, 2)
        assert manifest_identity(a) == manifest_identity(b)

    def test_no_registry_flag_skips_recording(self, registry_dir):
        run_solve("--no-registry")
        assert not registry_dir.exists()

    def test_env_var_disables_recording(self, registry_dir, monkeypatch):
        monkeypatch.setenv("REPRO_REGISTRY", "0")
        run_solve()
        assert not registry_dir.exists()

    def test_non_run_commands_record_nothing(self, registry_dir, tmp_path):
        missing = str(tmp_path / "nope.jsonl")
        assert main(["report", missing]) != 0  # report is not registry-wrapped
        assert not registry_dir.exists()


class TestRunsCLI:
    def test_list_show_roundtrip(self, registry_dir, capsys):
        run_solve()
        capsys.readouterr()
        assert main(["runs", "list"]) == 0
        out = capsys.readouterr().out
        assert "run registry (1 manifest(s))" in out
        assert "solve" in out and "ok" in out

        assert main(["runs", "show", "1"]) == 0
        out = capsys.readouterr().out
        assert "command      : repro solve --fast" in out
        assert "config hash" in out
        assert "exploitability" in out

    def test_show_json_parses(self, registry_dir, capsys):
        run_solve()
        capsys.readouterr()
        assert main(["runs", "show", "1", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["command"] == "solve"

    def test_show_by_run_id_prefix(self, registry_dir, capsys):
        run_solve()
        manifests, _ = RunRegistry(str(registry_dir)).load_all()
        prefix = manifests[0]["run_id"][:6]
        capsys.readouterr()
        assert main(["runs", "show", prefix]) == 0
        assert prefix in capsys.readouterr().out

    def test_show_unknown_ref_exits_2(self, registry_dir, capsys):
        assert main(["runs", "show", "42"]) == 2
        assert "no run matching" in capsys.readouterr().err

    def test_list_empty_registry(self, registry_dir, capsys):
        assert main(["runs", "list"]) == 0
        assert "no run manifests recorded" in capsys.readouterr().out

    def test_diff_flags_exactly_the_injected_change(self, registry_dir, capsys):
        run_solve()
        run_solve("--eta1", "0.004")
        capsys.readouterr()
        assert main(["runs", "diff", "1", "2"]) == 0
        out = capsys.readouterr().out
        assert "config changes (1):" in out
        assert "model.eta1" in out

    def test_diff_identical_runs_has_no_config_changes(self, registry_dir, capsys):
        run_solve()
        run_solve()
        capsys.readouterr()
        assert main(["runs", "diff", "1", "2", "--fail-on-regression"]) == 0
        assert "config changes (0):" in capsys.readouterr().out

    def test_diff_throughput_gain_passes_gate(self, registry_dir, capsys):
        registry = RunRegistry(str(registry_dir))
        for requests_per_s in (100.0, 200.0):
            registry.append(build_manifest(
                command="serve", argv=["serve"], config={}, status="ok",
                exit_code=0, started_at="2026-08-07T12:00:00+00:00",
                wall_s=1.0, metrics={"requests_per_s": requests_per_s},
            ))
        rc = main(["runs", "diff", "1", "2", "--fail-on-regression"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "+100.0%" in out
        assert "no trend regressions beyond thresholds" in out

    def test_corrupt_manifest_warns_but_list_succeeds(self, registry_dir, capsys):
        run_solve()
        (registry_dir / "000002-broken.json").write_bytes(b"\x00garbage")
        capsys.readouterr()
        assert main(["runs", "list"]) == 0
        captured = capsys.readouterr()
        assert "warning: skipping" in captured.err
        assert "run registry (1 manifest(s))" in captured.out

    def test_gc_keeps_newest_and_latest_failure(self, registry_dir, capsys):
        run_solve()
        manifests, _ = RunRegistry(str(registry_dir)).load_all()
        failed = dict(manifests[0], status="failed")
        failed.pop("seq"), failed.pop("path")
        RunRegistry(str(registry_dir)).append(failed)
        run_solve()
        run_solve()
        capsys.readouterr()
        assert main(["runs", "gc", "--keep", "1"]) == 0
        assert "removed 2 manifest(s), kept 2" in capsys.readouterr().out
        kept, _ = RunRegistry(str(registry_dir)).load_all()
        assert [(m["seq"], m["status"]) for m in kept] == [
            (2, "failed"), (4, "ok"),
        ]

    def test_gc_negative_keep_exits_2(self, registry_dir, capsys):
        assert main(["runs", "gc", "--keep", "-1"]) == 2
        assert "error" in capsys.readouterr().err


class TestEnvCommand:
    def test_prints_fingerprint_json(self, capsys):
        assert main(["env"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert {"python", "numpy", "git_sha", "git_dirty"} <= set(doc)


def write_trajectory(path, values, metric="serial_requests_per_s"):
    doc = {
        "schema": 1,
        "bench": "serve",
        "entries": [
            {"git_sha": None, "dirty": None, "recorded_at": None,
             "metrics": {metric: v}}
            for v in values
        ],
    }
    path.write_text(json.dumps(doc))
    return str(path)


class TestTrendCLI:
    def test_flat_history_passes_gate(self, tmp_path, capsys):
        bench = write_trajectory(tmp_path / "BENCH_serve.json",
                                 [100.0, 100.0, 100.0])
        rc = main(["trend", "--bench", bench, "--no-registry",
                   "--fail-on-regression"])
        assert rc == 0
        assert "no trend regressions" in capsys.readouterr().out

    def test_throughput_drop_fails_gate(self, tmp_path, capsys):
        bench = write_trajectory(tmp_path / "BENCH_serve.json",
                                 [100.0, 100.0, 90.0])
        rc = main(["trend", "--bench", bench, "--no-registry",
                   "--fail-on-regression"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "REGRESSIONS (1):" in out
        assert "serial_requests_per_s" in out

    def test_drop_reported_but_not_fatal_without_gate_flag(self, tmp_path, capsys):
        bench = write_trajectory(tmp_path / "BENCH_serve.json",
                                 [100.0, 90.0])
        assert main(["trend", "--bench", bench, "--no-registry"]) == 0
        assert "REGRESSED" in capsys.readouterr().out

    def test_malformed_bench_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "BENCH_bad.json"
        bad.write_text("[]")
        rc = main(["trend", "--bench", str(bad), "--no-registry"])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_timing_regression_fails_gate(self, tmp_path, capsys):
        bench = write_trajectory(tmp_path / "BENCH_table2.json", [1.0, 2.0],
                                 metric="solve_seconds")
        rc = main(["trend", "--bench", bench, "--no-registry",
                   "--fail-on-regression"])
        assert rc == 1
        assert "solve_seconds" in capsys.readouterr().out

    def test_newest_entry_is_the_candidate(self, tmp_path, capsys):
        # An old spike does not gate; only the newest entry is judged.
        recovered = write_trajectory(tmp_path / "BENCH_a.json",
                                     [1.0, 3.0, 1.0], metric="serial_s")
        assert main(["trend", "--bench", recovered, "--no-registry",
                     "--fail-on-regression"]) == 0
        capsys.readouterr()
        spiked = write_trajectory(tmp_path / "BENCH_b.json",
                                  [1.0, 1.0, 2.0], metric="serial_s")
        assert main(["trend", "--bench", spiked, "--no-registry",
                     "--fail-on-regression"]) == 1
        assert "REGRESSED" in capsys.readouterr().out

    def test_bad_json_bench_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "BENCH_bad.json"
        bad.write_text("not json")
        assert main(["trend", "--bench", str(bad), "--no-registry"]) == 2
        assert "error" in capsys.readouterr().err

    def test_flat_snapshot_among_good_benches_exits_2(self, tmp_path, capsys):
        good = write_trajectory(tmp_path / "BENCH_a.json", [1.0])
        flat = tmp_path / "BENCH_b.json"
        flat.write_text(json.dumps({"serial_s": 1.0, "hit_ratio": 0.9}))
        rc = main(["trend", "--bench", good, "--bench", str(flat),
                   "--no-registry"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "not a trajectory" in err and '"entries"' in err

    def test_registry_runs_feed_trend(self, registry_dir, tmp_path,
                                      monkeypatch, capsys):
        run_solve()
        run_solve()
        monkeypatch.chdir(tmp_path)  # keep the glob away from committed BENCHes
        capsys.readouterr()
        assert main(["trend"]) == 0
        out = capsys.readouterr().out
        assert "solve[" in out
        assert "exploitability" in out
        assert "(report-only)" in out

    def test_metric_filter(self, tmp_path, capsys):
        bench = write_trajectory(tmp_path / "BENCH_serve.json", [1.0, 2.0])
        assert main(["trend", "--bench", bench, "--no-registry",
                     "--metric", "no_such_metric"]) == 0
        assert "no trend series found" in capsys.readouterr().out


class TestSideChannelContract:
    def test_normalized_stream_identical_serial_vs_process(
        self, registry_dir, tmp_path
    ):
        serial = tmp_path / "serial.jsonl"
        parallel = tmp_path / "process.jsonl"
        assert main(["solve", "--fast", "--telemetry", str(serial)]) == 0
        assert main(["solve", "--fast", "--telemetry", str(parallel),
                     "--backend", "process", "--workers", "2"]) == 0
        assert normalized_events(str(serial)) == normalized_events(str(parallel))
        # ... and both runs recorded manifests while staying identical.
        manifests, _ = RunRegistry(str(registry_dir)).load_all()
        assert len(manifests) == 2
