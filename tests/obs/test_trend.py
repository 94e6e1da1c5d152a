"""Unit tests for BENCH trajectories and trend analytics (repro.obs.trend)."""

import json
from pathlib import Path

import pytest

from repro.obs.trend import (
    BENCH_SCHEMA_VERSION,
    BenchFormatError,
    TrendSeries,
    append_bench_entry,
    bench_series,
    find_regressions,
    load_bench_trajectory,
    metric_direction,
    registry_series,
    render_trend,
    sparkline,
)

REPO_ROOT = Path(__file__).resolve().parents[2]

COMMITTED_BENCH_FILES = ("BENCH_serve.json", "BENCH_net.json", "BENCH_batch.json")


def write_trajectory(path, metric_values, metric="serial_requests_per_s",
                     **extra_metrics):
    doc = {
        "schema": BENCH_SCHEMA_VERSION,
        "bench": "serve",
        "entries": [
            {"git_sha": None, "dirty": None, "recorded_at": None,
             "metrics": {metric: v, **extra_metrics}}
            for v in metric_values
        ],
    }
    path.write_text(json.dumps(doc))
    return str(path)


class TestLoader:
    @pytest.mark.parametrize("name", COMMITTED_BENCH_FILES)
    def test_committed_bench_files_round_trip(self, name):
        path = REPO_ROOT / name
        doc = load_bench_trajectory(str(path))
        assert doc["schema"] == BENCH_SCHEMA_VERSION
        assert doc["bench"] == name[len("BENCH_"):-len(".json")]
        assert doc["entries"], f"{name} should carry at least one entry"
        metrics = doc["entries"][-1]["metrics"]
        assert metrics and all(isinstance(k, str) for k in metrics)
        # And the loaded document survives the loader unchanged.
        assert load_bench_trajectory(str(path)) == doc

    @pytest.mark.parametrize("payload", [
        "",                                  # unreadable
        "not json",                          # unreadable
        "[1, 2]",                            # not an object
        "{}",                                # empty: no entries
        '{"serial_s": 1.5, "speedup": 4.0}',  # flat snapshot, not a trajectory
        '{"schema": 99, "entries": [{}]}',   # future schema
        '{"schema": 1, "entries": []}',      # empty trajectory
        '{"schema": 1, "entries": [42]}',    # entry not an object
        '{"schema": 1, "entries": [{"metrics": 3}]}',  # metrics not a dict
    ])
    def test_malformed_raises_bench_format_error(self, tmp_path, payload):
        path = tmp_path / "BENCH_bad.json"
        path.write_text(payload)
        with pytest.raises(BenchFormatError):
            load_bench_trajectory(str(path))

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(BenchFormatError):
            load_bench_trajectory(str(tmp_path / "nope.json"))


class TestAppend:
    def test_creates_then_appends(self, tmp_path):
        path = str(tmp_path / "BENCH_x.json")
        doc = append_bench_entry(path, {"serial_s": 1.0}, bench="x")
        assert len(doc["entries"]) == 1
        doc = append_bench_entry(path, {"serial_s": 1.1})
        assert len(doc["entries"]) == 2
        on_disk = load_bench_trajectory(path)
        assert on_disk == doc
        assert [e["metrics"]["serial_s"] for e in on_disk["entries"]] == [1.0, 1.1]
        assert on_disk["entries"][-1]["recorded_at"] is not None

    def test_append_rejects_flat_snapshot(self, tmp_path):
        path = tmp_path / "BENCH_old.json"
        path.write_text(json.dumps({"serial_s": 2.0}))
        with pytest.raises(BenchFormatError, match='"entries"'):
            append_bench_entry(str(path), {"serial_s": 1.9})
        assert json.loads(path.read_text()) == {"serial_s": 2.0}


class TestDirections:
    def test_per_s_wins_over_the_s_suffix(self):
        # "serial_requests_per_s" contains "_s" but must gate on drops.
        assert metric_direction("serial_requests_per_s") == "higher"
        assert metric_direction("hit_ratio") == "higher"
        assert metric_direction("speedup") == "higher"

    def test_lower_is_better_names(self):
        assert metric_direction("serial_s") == "lower"
        assert metric_direction("scalar_s_per_content") == "lower"
        assert metric_direction("mean_staleness") == "lower"
        assert metric_direction("rejection_rate") == "lower"
        assert metric_direction("diag_error") == "lower"
        assert metric_direction("diag_warning") == "lower"

    def test_unclassified_never_gate(self):
        assert metric_direction("n_contents") is None
        assert metric_direction("requests") is None
        assert metric_direction("diag_info") is None


class TestRegression:
    def test_throughput_drop_regresses(self, tmp_path):
        path = write_trajectory(tmp_path / "BENCH_serve.json",
                                [100.0, 100.0, 90.0])
        series = bench_series(load_bench_trajectory(path), "BENCH_serve.json")
        assert find_regressions(series, threshold=0.05)
        assert not find_regressions(series, threshold=0.2)

    def test_flat_history_passes(self, tmp_path):
        path = write_trajectory(tmp_path / "BENCH_serve.json",
                                [100.0, 100.0, 100.0])
        series = bench_series(load_bench_trajectory(path), "BENCH_serve.json")
        assert find_regressions(series, threshold=0.05) == []

    def test_bools_are_not_compared_as_numbers(self, tmp_path):
        path = write_trajectory(tmp_path / "BENCH_serve.json",
                                [100.0, 100.0], converged=True)
        series = bench_series(load_bench_trajectory(path), "BENCH_serve.json")
        # Bools are ints in Python but never become series.
        assert [s.metric for s in series] == ["serial_requests_per_s"]

    def test_lower_is_better_increase_regresses(self, tmp_path):
        path = write_trajectory(tmp_path / "BENCH_b.json",
                                [1.0, 1.0, 1.2], metric="serial_s")
        series = bench_series(load_bench_trajectory(path), "b")
        assert find_regressions(series, threshold=0.05)

    def test_timing_leaf_regression_flagged(self, tmp_path):
        path = write_trajectory(tmp_path / "BENCH_table2.json",
                                [1.0, 1.5], metric="solve_seconds", rows=5)
        series = bench_series(load_bench_trajectory(path), "BENCH_table2.json")
        (line,) = find_regressions(series, threshold=0.2)
        assert "solve_seconds" in line

    def test_improvement_never_flags(self, tmp_path):
        path = write_trajectory(tmp_path / "BENCH_b.json",
                                [100.0, 100.0, 150.0])
        series = bench_series(load_bench_trajectory(path), "b")
        assert find_regressions(series, threshold=0.05) == []

    def test_single_entry_cannot_gate(self, tmp_path):
        path = write_trajectory(tmp_path / "BENCH_b.json", [100.0])
        series = bench_series(load_bench_trajectory(path), "b")
        assert series[0].delta() is None
        assert find_regressions(series, threshold=0.0) == []

    def test_ungated_metric_never_regresses(self):
        series = TrendSeries(source="s", metric="n_contents",
                             values=[10.0, 1.0], gate=False)
        assert not series.regressed(0.05)


class TestRegistrySeries:
    def manifest(self, seq, command="solve", cfg="aaaa1111bbbb",
                 status="ok", **metrics):
        return {"seq": seq, "command": command, "config_hash": cfg,
                "status": status, "metrics": metrics}

    def test_groups_by_command_and_config_hash(self):
        manifests = [
            self.manifest(1, exploitability=1e-3),
            self.manifest(2, exploitability=2e-3),
            self.manifest(3, cfg="cccc2222dddd", exploitability=5e-3),
        ]
        series = registry_series(manifests)
        by_source = {s.source: s for s in series}
        assert set(by_source) == {"solve[aaaa1111]", "solve[cccc2222]"}
        assert by_source["solve[aaaa1111]"].values == [1e-3, 2e-3]

    def test_registry_series_never_gate(self):
        manifests = [self.manifest(i, requests_per_s=v)
                     for i, v in enumerate([100.0, 100.0, 10.0], start=1)]
        series = registry_series(manifests)
        assert all(not s.gate for s in series)
        assert find_regressions(series, threshold=0.05) == []

    def test_failed_runs_are_excluded(self):
        manifests = [
            self.manifest(1, exploitability=1e-3),
            self.manifest(2, status="failed", exploitability=9.0),
        ]
        (series,) = registry_series(manifests)
        assert series.values == [1e-3]


class TestRendering:
    def test_sparkline_shape(self):
        assert sparkline([]) == ""
        assert sparkline([1.0, 1.0, 1.0]) == "▄▄▄"
        line = sparkline([0.0, 0.5, 1.0])
        assert len(line) == 3
        assert line[0] == "▁" and line[-1] == "█"

    def test_render_marks_regression(self, tmp_path):
        path = write_trajectory(tmp_path / "BENCH_serve.json",
                                [100.0, 100.0, 90.0])
        series = bench_series(load_bench_trajectory(path), "BENCH_serve.json")
        text = render_trend(series, threshold=0.05)
        assert "REGRESSED" in text
        assert "REGRESSIONS (1):" in text
        assert "gate ±5%" in text

    def test_render_clean_history(self, tmp_path):
        path = write_trajectory(tmp_path / "BENCH_serve.json",
                                [100.0, 101.0])
        series = bench_series(load_bench_trajectory(path), "BENCH_serve.json")
        text = render_trend(series, threshold=0.05)
        assert "no trend regressions beyond thresholds" in text
