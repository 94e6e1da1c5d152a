"""Tests for the ``repro serve`` CLI subcommand."""

import re

import pytest

from repro.cli import build_parser, main

FAST = ["--requests", "400", "--edps", "4", "--contents", "3", "--slots", "8",
        "--capacity-fraction", "0.5"]


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.policy == "mfg"
        assert args.requests == 100_000
        assert args.edps == 16
        assert args.contents == 12
        assert args.workload == "video_marketplace"
        assert args.slots == 25
        assert args.capacity_fraction == 0.3
        assert args.seed == 7
        assert args.shards is None
        assert args.out is None

    def test_rejects_unknown_workload(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--workload", "iot"])


class TestServeCommand:
    def test_single_policy_table(self, capsys):
        assert main(["serve", "--policy", "lru"] + FAST) == 0
        out = capsys.readouterr().out
        assert "Serving comparison" in out
        assert "hit_ratio" in out
        assert "lru" in out

    def test_all_policies_compared(self, capsys):
        assert main(["serve", "--policy", "all"] + FAST) == 0
        out = capsys.readouterr().out
        for name in ("mfg", "lru", "lfu", "random", "most-popular"):
            assert name in out

    def test_policy_comma_list(self, capsys):
        assert main(["serve", "--policy", "lru,random"] + FAST) == 0
        out = capsys.readouterr().out
        assert "lru" in out
        assert "random" in out
        assert "mfg" not in out

    def test_empty_policy_is_error(self, capsys):
        assert main(["serve", "--policy", ","] + FAST) == 2
        assert "no serving policy" in capsys.readouterr().err

    def test_unknown_policy_is_error(self, capsys):
        assert main(["serve", "--policy", "fifo"] + FAST) == 2
        assert "unknown serving policy" in capsys.readouterr().err

    def test_undersized_capacity_is_error(self, capsys):
        argv = ["serve", "--policy", "lru", "--capacity-fraction", "0.01",
                "--contents", "3"]
        assert main(argv) == 2
        assert "holds no content" in capsys.readouterr().err

    def test_out_writes_artifacts(self, tmp_path, capsys):
        out_dir = tmp_path / "artifacts"
        argv = ["serve", "--policy", "lru,random", "--out", str(out_dir)] + FAST
        assert main(argv) == 0
        assert "wrote" in capsys.readouterr().out
        assert (out_dir / "serving_comparison.csv").exists()
        assert (out_dir / "serving_summary.json").exists()
        assert (out_dir / "per_edp_lru.csv").exists()

    def test_telemetry_records_serving_events(self, tmp_path, capsys):
        out_file = tmp_path / "serve.jsonl"
        argv = ["serve", "--policy", "lfu", "--telemetry", str(out_file)] + FAST
        assert main(argv) == 0
        from repro.obs import read_events

        shards = read_events(out_file, kind="serve_shard")
        assert shards, "replay should emit per-shard events"
        reports = read_events(out_file, kind="serving_report")
        assert len(reports) == 1
        assert reports[0]["policy"] == "lfu"
        assert reports[0]["requests"] > 0

    def test_backend_matches_serial_output(self, capsys):
        argv = ["serve", "--policy", "lru,lfu"] + FAST
        assert main(argv) == 0
        serial_out = capsys.readouterr().out
        assert main(argv + ["--backend", "process:2"]) == 0
        parallel_out = capsys.readouterr().out
        assert serial_out == parallel_out

    def test_warmup_slots_apply_to_canned_scenarios(self, capsys):
        """Without --stream the canned scenario honours --warmup-slots."""

        def requests(extra):
            assert main(["serve", "--policy", "lru"] + FAST + extra) == 0
            out = capsys.readouterr().out
            return int(re.search(r"(\d+) requests\)", out).group(1))

        assert requests(["--warmup-slots", "4"]) < requests(["--warmup-slots", "0"])

    def test_stream_chunk_never_changes_canned_output(self, capsys):
        argv = ["serve", "--policy", "mfg,lfu"] + FAST
        assert main(argv) == 0
        default_out = capsys.readouterr().out
        assert main(argv + ["--stream-chunk", "3"]) == 0
        assert capsys.readouterr().out == default_out
