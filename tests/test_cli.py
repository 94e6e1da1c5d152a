"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])

    def test_solve_flags(self):
        args = build_parser().parse_args(
            ["solve", "--fast", "--eta1", "0.003", "--no-sharing"]
        )
        assert args.fast
        assert args.eta1 == 0.003
        assert args.no_sharing


class TestSolveCommand:
    def test_prints_equilibrium(self, capsys):
        assert main(["solve", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "converged" in out
        assert "Equilibrium market paths" in out
        assert "Utility decomposition" in out

    def test_overrides_apply(self, capsys):
        assert main(["solve", "--fast", "--content-size", "60"]) == 0
        out = capsys.readouterr().out
        assert "converged" in out


class TestSimulateCommand:
    def test_comparison_rows(self, capsys):
        assert main(["simulate", "--fast", "--schemes", "RR,MPC", "--edps", "15"]) == 0
        out = capsys.readouterr().out
        assert "RR" in out
        assert "MPC" in out
        assert "Finite-population comparison" in out

    def test_empty_schemes_is_error(self, capsys):
        assert main(["simulate", "--fast", "--schemes", ","]) == 2


class TestExperimentCommand:
    def test_fig3(self, capsys):
        assert main(["experiment", "fig3"]) == 0
        assert "OU channel evolution" in capsys.readouterr().out

    def test_fig5(self, capsys):
        assert main(["experiment", "fig5"]) == 0
        assert "policy evolution" in capsys.readouterr().out

    def test_fig8(self, capsys):
        assert main(["experiment", "fig8"]) == 0
        assert "w5 sweep" in capsys.readouterr().out

    def test_fig4(self, capsys):
        assert main(["experiment", "fig4"]) == 0
        assert "mean-field evolution" in capsys.readouterr().out

    def test_fig9(self, capsys):
        assert main(["experiment", "fig9"]) == 0
        assert "convergence" in capsys.readouterr().out

    def test_fig10(self, capsys):
        assert main(["experiment", "fig10"]) == 0
        assert "initial distribution" in capsys.readouterr().out

    def test_fig11(self, capsys):
        assert main(["experiment", "fig11"]) == 0
        out = capsys.readouterr().out
        assert "eta1 sweep" in out
        assert "income(T)" in out


class TestTelemetryFlag:
    def test_solve_writes_jsonl(self, tmp_path, capsys):
        out_file = tmp_path / "run.jsonl"
        assert main(["solve", "--fast", "--telemetry", str(out_file)]) == 0
        out = capsys.readouterr().out
        assert "converged" in out
        assert f"telemetry written to {out_file}" in out

        from repro.obs import read_events

        iterations = read_events(out_file, kind="iteration")
        assert iterations, "solve should emit per-iteration events"
        assert {"policy_change", "hjb_s", "fpk_s"} <= set(iterations[0])
        assert read_events(out_file, kind="solve_end")

    def test_solve_without_flag_writes_nothing(self, tmp_path, capsys):
        assert main(["solve", "--fast"]) == 0
        assert "telemetry written" not in capsys.readouterr().out
        assert list(tmp_path.iterdir()) == []

    def test_simulate_accepts_flag(self, tmp_path, capsys):
        out_file = tmp_path / "sim.jsonl"
        assert main([
            "simulate", "--fast", "--schemes", "RR", "--edps", "5",
            "--telemetry", str(out_file),
        ]) == 0
        from repro.obs import read_events

        assert read_events(out_file, kind="sim_end")


class TestRuntimeFlags:
    def test_parser_accepts_backend_and_workers(self):
        args = build_parser().parse_args(
            ["experiment", "fig14", "--backend", "process:2", "--workers", "3"]
        )
        assert args.backend == "process:2"
        assert args.workers == 3

    def test_backend_defaults_to_serial(self):
        args = build_parser().parse_args(["solve", "--fast"])
        assert args.backend == "serial"
        assert args.workers is None

    def test_simulate_with_process_backend(self, capsys):
        assert main([
            "simulate", "--fast", "--schemes", "RR,MPC", "--edps", "10",
            "--seeds", "2", "--backend", "process:2",
        ]) == 0
        out = capsys.readouterr().out
        assert "Finite-population comparison" in out

    def test_backend_matches_serial_output(self, capsys):
        argv = ["simulate", "--fast", "--schemes", "MPC", "--edps", "8",
                "--seeds", "2"]
        assert main(argv) == 0
        serial_out = capsys.readouterr().out
        assert main(argv + ["--backend", "process:2"]) == 0
        parallel_out = capsys.readouterr().out
        assert serial_out == parallel_out

    def test_rejects_bad_backend_spec(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["solve", "--fast", "--backend", "threads"])
        assert excinfo.value.code == 2
        assert "unknown executor spec" in capsys.readouterr().err


class TestFaultToleranceFlags:
    """Exit-code contract of the fault-tolerance layer.

    0 = success, 1 = a work item exhausted its retries, 2 = usage or
    configuration error (bad spec, bad store), 3 = strict-numerics
    abort.  Usage errors detected while building the executor raise
    ``SystemExit`` (matching the bad-backend convention); runtime
    failures are returned.
    """

    @staticmethod
    def exit_code(argv):
        try:
            return main(argv)
        except SystemExit as err:
            return err.code

    @pytest.fixture(autouse=True)
    def no_leaked_faults(self):
        from repro.testing import clear_faults

        clear_faults()
        yield
        clear_faults()

    def test_parser_accepts_fault_flags(self):
        args = build_parser().parse_args([
            "experiment", "fig8", "--checkpoint-dir", "ckpt", "--resume",
            "--max-retries", "2", "--inject-faults", "raise:item=0",
        ])
        assert args.checkpoint_dir == "ckpt"
        assert args.resume
        assert args.max_retries == 2
        assert args.inject_faults == "raise:item=0"

    @pytest.mark.parametrize(
        "argv,code",
        [
            # --resume without a store to resume from.
            (["experiment", "fig8", "--resume"], 2),
            # Malformed fault specs never start the run.
            (["experiment", "fig8", "--inject-faults", "explode:item=0"], 2),
            (["experiment", "fig8", "--inject-faults", "raise:item=two"], 2),
            (["experiment", "fig8", "--inject-faults", ""], 2),
            # Negative retry budgets are config errors.
            (["experiment", "fig8", "--max-retries", "-1"], 2),
            # A permanent fault on the first item exhausts immediately.
            (["experiment", "fig8", "--inject-faults",
              "raise:item=0,times=-1"], 1),
            # Injected strict-numerics faults keep the exit-3 contract.
            (["experiment", "fig8", "--strict-numerics", "--inject-faults",
              "raise:item=0,exc=strict"], 3),
        ],
    )
    def test_exit_codes(self, argv, code, capsys):
        assert self.exit_code(argv) == code
        if code != 0:
            assert "error" in capsys.readouterr().err

    def test_resume_from_missing_manifest_is_exit_2(self, tmp_path, capsys):
        empty = tmp_path / "empty-store"
        assert self.exit_code([
            "experiment", "fig8", "--checkpoint-dir", str(empty), "--resume",
        ]) == 2
        assert "nothing to resume" in capsys.readouterr().err

    def test_resume_from_garbage_manifest_is_exit_2(self, tmp_path, capsys):
        store_dir = tmp_path / "store"
        (store_dir / "objects").mkdir(parents=True)
        (store_dir / "manifest.json").write_text("not json {")
        assert self.exit_code([
            "experiment", "fig8", "--checkpoint-dir", str(store_dir),
            "--resume",
        ]) == 2
        assert "unreadable" in capsys.readouterr().err

    def test_retry_rescues_a_transient_fault(self, capsys):
        assert self.exit_code([
            "experiment", "fig8", "--max-retries", "2",
            "--inject-faults", "raise:item=1",
        ]) == 0
        assert "w5 sweep" in capsys.readouterr().out

    def test_kill_resume_round_trip_matches_clean_run(self, tmp_path, capsys):
        import json

        clean_t = tmp_path / "clean.jsonl"
        resume_t = tmp_path / "resumed.jsonl"
        ckpt = tmp_path / "ckpt"

        assert main(["experiment", "fig8", "--telemetry", str(clean_t)]) == 0
        clean_out = capsys.readouterr().out

        # Kill the sweep partway: permanent fault on item 2.
        assert self.exit_code([
            "experiment", "fig8", "--telemetry", str(tmp_path / "dead.jsonl"),
            "--checkpoint-dir", str(ckpt),
            "--inject-faults", "raise:item=2,times=-1",
        ]) == 1
        capsys.readouterr()
        assert len(list((ckpt / "objects").iterdir())) >= 1

        # Resume: completed items replay from disk, the rest execute.
        assert main([
            "experiment", "fig8", "--telemetry", str(resume_t),
            "--checkpoint-dir", str(ckpt), "--resume",
        ]) == 0
        resume_out = capsys.readouterr().out

        # The printed result table is identical to the clean run's.
        strip = lambda s: s.replace(str(clean_t), "T").replace(str(resume_t), "T")
        assert strip(clean_out) == strip(resume_out)

        # So is the merged telemetry, modulo bookkeeping and timings.
        from repro.testing import normalized_events

        assert normalized_events(str(clean_t)) == normalized_events(str(resume_t))

        # The resumed stream records the checkpoint cache hits.
        cached = [
            json.loads(line)
            for line in resume_t.read_text().splitlines()
            if '"item.cached"' in line
        ]
        assert cached

    def test_report_renders_fault_section(self, tmp_path, capsys):
        run = tmp_path / "run.jsonl"
        assert self.exit_code([
            "experiment", "fig8", "--telemetry", str(run),
            "--max-retries", "2", "--inject-faults", "raise:item=1",
        ]) == 0
        capsys.readouterr()
        assert main(["report", str(run)]) == 0
        out = capsys.readouterr().out
        assert "fault tolerance:" in out
        assert "1 retry attempt(s)" in out


class TestReportCommand:
    def test_report_summarises_a_solve_run(self, tmp_path, capsys):
        out_file = tmp_path / "run.jsonl"
        assert main(["solve", "--fast", "--telemetry", str(out_file)]) == 0
        capsys.readouterr()

        assert main(["report", str(out_file)]) == 0
        out = capsys.readouterr().out
        # The three report sections with their expected rows.
        assert "span tree" in out
        assert "hjb" in out and "fpk" in out
        assert "iteration convergence" in out
        assert "policy delta" in out
        assert "converged after" in out
        assert "metrics" in out
        assert "solver.iterations" in out

    def test_report_matches_solve_convergence(self, tmp_path, capsys):
        out_file = tmp_path / "run.jsonl"
        assert main(["solve", "--fast", "--telemetry", str(out_file)]) == 0
        solve_out = capsys.readouterr().out
        assert main(["report", str(out_file)]) == 0
        report_out = capsys.readouterr().out
        # "converged after N iterations" agrees between live solve and replay.
        live = [l for l in solve_out.splitlines() if "converged after" in l][0]
        replay = [l for l in report_out.splitlines() if "converged after" in l][0]
        assert live.split("(")[0].strip() in replay

    def test_report_missing_file_is_error(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "nope.jsonl")]) == 2
        assert "cannot read telemetry run" in capsys.readouterr().err

    def test_report_rejects_garbage(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("this is not json\n")
        assert main(["report", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1  # one-line error, no traceback

    def test_report_empty_file_is_error(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["report", str(empty)]) == 2
        assert "no events" in capsys.readouterr().err

    def test_report_survives_truncated_final_line(self, tmp_path, capsys):
        out_file = tmp_path / "run.jsonl"
        assert main(["solve", "--fast", "--telemetry", str(out_file)]) == 0
        capsys.readouterr()
        # Simulate a run killed mid-write.
        with open(out_file, "a", encoding="utf-8") as handle:
            handle.write('{"ev": "iteration", "iter')
        assert main(["report", str(out_file)]) == 0
        out = capsys.readouterr().out
        assert "1 malformed line(s) skipped" in out
        assert "converged after" in out

    def test_report_includes_numerical_health(self, tmp_path, capsys):
        out_file = tmp_path / "run.jsonl"
        assert main(["solve", "--fast", "--telemetry", str(out_file)]) == 0
        capsys.readouterr()
        assert main(["report", str(out_file)]) == 0
        out = capsys.readouterr().out
        assert "numerical health" in out
        assert "fpk.mass_drift" in out
        assert "cfl.margin" in out


class TestCompareCommand:
    @pytest.fixture()
    def two_runs(self, tmp_path, capsys):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert main(["solve", "--fast", "--telemetry", str(a)]) == 0
        assert main(["solve", "--fast", "--telemetry", str(b)]) == 0
        capsys.readouterr()
        return a, b

    def test_identical_runs_have_no_regressions(self, two_runs, capsys):
        a, _ = two_runs
        assert main(["compare", str(a), str(a)]) == 0
        out = capsys.readouterr().out
        assert "span timings" in out
        assert "no regressions beyond thresholds" in out

    def test_injected_span_regression_flagged(self, two_runs, capsys):
        import json

        a, b = two_runs
        # Candidate = baseline with every span duration inflated 50%,
        # so the +20% threshold must fire regardless of machine speed.
        lines = []
        for line in a.read_text().splitlines():
            event = json.loads(line)
            if event.get("ev") == "span":
                event["dur_s"] = event["dur_s"] * 1.5
            lines.append(json.dumps(event))
        b.write_text("\n".join(lines) + "\n")

        assert main(["compare", str(a), str(b)]) == 0  # report-only default
        assert "REGRESSIONS" in capsys.readouterr().out
        assert main(["compare", str(a), str(b), "--fail-on-regression"]) == 1

    def test_missing_input_is_exit_2(self, tmp_path, two_runs, capsys):
        a, _ = two_runs
        assert main(["compare", str(a), str(tmp_path / "nope.jsonl")]) == 2
        assert "cannot read telemetry run" in capsys.readouterr().err

    def test_bench_flag_is_rejected(self, two_runs, capsys):
        # BENCH trajectories are judged by `repro trend`, not `compare`.
        a, b = two_runs
        with pytest.raises(SystemExit) as exc:
            main(["compare", "--bench", str(a), str(b)])
        assert exc.value.code == 2
        assert "--bench" in capsys.readouterr().err


class TestStrictNumerics:
    def test_healthy_solve_passes_strict_mode(self, capsys):
        assert main(["solve", "--fast", "--strict-numerics"]) == 0
        assert "converged" in capsys.readouterr().out

    def test_profile_adds_resource_fields(self, tmp_path, capsys):
        import json

        out_file = tmp_path / "run.jsonl"
        assert main(["solve", "--fast", "--telemetry", str(out_file),
                     "--profile"]) == 0
        spans = [
            json.loads(line)
            for line in out_file.read_text().splitlines()
            if '"ev":"span"' in line
        ]
        assert spans and all("cpu_s" in e for e in spans)


class TestTraceCommand:
    def test_writes_csv_roundtrip(self, tmp_path, capsys):
        out_file = tmp_path / "trace.csv"
        assert main(["trace", "--videos", "40", "--out", str(out_file)]) == 0
        assert "wrote 40 records" in capsys.readouterr().out

        from repro.content.trace import load_trace_csv, trace_to_popularity

        records = load_trace_csv(out_file, category_column="category_id")
        assert len(records) == 40
        labels, shares = trace_to_popularity(records)
        assert shares.sum() == pytest.approx(1.0)

    def test_exports_chrome_trace(self, tmp_path, capsys):
        import json

        run = tmp_path / "run.jsonl"
        assert main(["solve", "--fast", "--telemetry", str(run)]) == 0
        capsys.readouterr()
        out = tmp_path / "run.trace.json"
        assert main(["trace", str(run), str(out)]) == 0
        assert "perfetto" in capsys.readouterr().out.lower()
        doc = json.loads(out.read_text())
        assert any(e.get("ph") == "X" for e in doc["traceEvents"])
        assert any(e.get("name") == "thread_name" for e in doc["traceEvents"])

    def test_export_requires_output_path(self, tmp_path, capsys):
        run = tmp_path / "run.jsonl"
        run.write_text('{"ev": "span", "path": "solve", "dur_s": 1.0}\n')
        assert main(["trace", str(run)]) == 2

    def test_export_missing_run_is_exit_2(self, tmp_path, capsys):
        assert main(["trace", str(tmp_path / "nope.jsonl"),
                     str(tmp_path / "out.json")]) == 2

    def test_no_mode_selected_is_exit_2(self, capsys):
        assert main(["trace"]) == 2
        assert "error" in capsys.readouterr().err


class TestExportCommand:
    def test_writes_artifacts(self, tmp_path, capsys):
        out_dir = tmp_path / "artifacts"
        assert main(["export", "--fast", "--out", str(out_dir)]) == 0
        out = capsys.readouterr().out
        assert "converged" in out
        assert (out_dir / "market_paths.csv").exists()
        assert (out_dir / "summary.json").exists()


class TestRemovedCommands:
    def test_stationary_is_not_a_command(self):
        with pytest.raises(SystemExit) as exc:
            main(["stationary", "--fast"])
        assert exc.value.code == 2


class TestVerifyCommand:
    def test_conditions_hold(self, capsys):
        assert main(["verify", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "Lemma 1 satisfied" in out
        assert "Theorem 2: contraction observed" in out


class TestLiveStatusFlag:
    def test_solve_writes_status_file(self, tmp_path, capsys):
        status = tmp_path / "status.json"
        assert main(["solve", "--fast", "--live-status", str(status)]) == 0
        import json

        payload = json.loads(status.read_text())
        assert payload["state"] == "done"
        assert payload["version"] >= 1

    def test_live_events_land_in_telemetry(self, tmp_path):
        status = tmp_path / "status.json"
        run = tmp_path / "run.jsonl"
        assert main([
            "serve", "--policy", "lru", "--requests", "2000",
            "--edps", "4", "--contents", "6", "--slots", "5",
            "--telemetry", str(run), "--live-status", str(status),
            "--live-every", "1",
        ]) == 0
        from repro.obs import read_events

        phases = read_events(run, kind="live.phase")
        assert any(e["phase"].startswith("serve:replay") for e in phases)
        assert read_events(run, kind="live.status")
        import json

        payload = json.loads(status.read_text())
        assert payload["state"] == "done"
        assert payload["requests"]["total"] > 0
        assert 0.0 <= payload["requests"]["hit_ratio"] <= 1.0
        assert payload["items"]["done"] >= 1

    def test_live_status_does_not_change_results(self, tmp_path, capsys):
        assert main(["solve", "--fast"]) == 0
        plain = capsys.readouterr().out
        status = tmp_path / "status.json"
        assert main(["solve", "--fast", "--live-status", str(status)]) == 0
        with_live = capsys.readouterr().out
        assert plain == with_live


class TestWatchCommand:
    def _write_status(self, tmp_path, state="done"):
        from repro.obs import LiveStatusWriter

        writer = LiveStatusWriter(tmp_path / "status.json")
        writer.note_item("w:0")
        writer.finish(state)
        return tmp_path / "status.json"

    def test_watch_once_renders_frame(self, tmp_path, capsys):
        path = self._write_status(tmp_path)
        assert main(["watch", str(path), "--once"]) == 0
        out = capsys.readouterr().out
        assert "repro run status — DONE" in out
        assert "items" in out

    def test_watch_once_missing_file_is_error(self, tmp_path, capsys):
        assert main(["watch", str(tmp_path / "nope.json"), "--once"]) == 2
        assert "not found" in capsys.readouterr().err

    def test_watch_loop_exits_when_run_finishes(self, tmp_path, capsys):
        path = self._write_status(tmp_path, state="failed")
        assert main(["watch", str(path), "--interval", "0.01"]) == 0
        assert "FAILED" in capsys.readouterr().out

    def test_watch_rejects_garbage(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["watch", str(bad), "--once"]) == 2


class TestExportMetricsCommand:
    def _run_file(self, tmp_path, capsys):
        run = tmp_path / "run.jsonl"
        assert main(["solve", "--fast", "--telemetry", str(run)]) == 0
        capsys.readouterr()
        return run

    def test_prometheus_to_stdout(self, tmp_path, capsys):
        run = self._run_file(tmp_path, capsys)
        assert main(["export-metrics", str(run), "--format", "prometheus"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_events_total counter" in out
        assert "repro_solver_iterations" in out
        assert 'quantile="0.99"' in out

    def test_prometheus_to_file(self, tmp_path, capsys):
        run = self._run_file(tmp_path, capsys)
        out_file = tmp_path / "metrics.prom"
        assert main([
            "export-metrics", str(run), "--out", str(out_file),
        ]) == 0
        assert out_file.read_text().startswith("# ")
        assert "wrote Prometheus exposition to" in capsys.readouterr().out

    def test_missing_run_is_error(self, tmp_path, capsys):
        assert main(["export-metrics", str(tmp_path / "nope.jsonl")]) == 2

    def test_report_shows_sketch_markers_after_promotion(
        self, tmp_path, capsys, monkeypatch
    ):
        import repro.obs.metrics as metrics_mod

        monkeypatch.setattr(metrics_mod, "DEFAULT_EXACT_CAP", 4)
        run = self._run_file(tmp_path, capsys)
        assert main(["report", str(run)]) == 0
        out = capsys.readouterr().out
        assert "p50=~" in out  # promoted histogram carries the marker
        assert "span tree" in out
