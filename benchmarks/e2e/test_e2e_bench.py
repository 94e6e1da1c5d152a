"""Self-test of the end-to-end benchmark at smoke scale.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``; it sits
outside the tier-1 test paths and takes well under a minute.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

HERE = Path(__file__).resolve().parent
RUN = HERE / "run.py"
BENCH = run.load_benchmark()
NAMES = [w["name"] for w in BENCH["workloads"]]


def cli(*args, cwd=run.ROOT):
    return subprocess.run(
        [sys.executable, str(RUN), *args],
        capture_output=True, text=True, timeout=170, cwd=cwd,
    )


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """An untraced and a traced smoke run of every workload: (line, records)."""
    out = {}
    for trace in (0, 1):
        path = tmp_path_factory.mktemp("e2e") / f"trace{trace}.json"
        proc = cli("--scale", "smoke", "--seconds", "0.3",
                   "--trace", str(trace), "--out", str(path))
        assert proc.returncode == 0, proc.stderr
        line = json.loads(proc.stdout.splitlines()[-1])
        out[trace] = (line, json.loads(path.read_text())["workloads"])
    return out


def test_every_metric_is_reported_for_every_workload(runs):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        line, records = runs[trace]
        assert line["correct"] and line["failed"] == 0
        assert line["attempted"] >= 2 * len(NAMES)
        assert list(line["metrics"]) == NAMES
        for name in NAMES:
            metrics = line["metrics"][name]
            assert list(metrics) == [m["name"] for m in BENCH[key]]
            for metric in BENCH[key]:
                assert metrics[metric["name"]]["unit"] == metric["unit"]
                assert isinstance(metrics[metric["name"]]["value"], (int, float))
            if key == "end_to_end":
                assert all(m["value"] > 0 for m in metrics.values()), name


def test_per_layer_units_follow_the_names():
    for metric in BENCH["per_layer"]:
        assert metric["unit"] == run.unit_of(metric["name"]), metric["name"]


def test_single_workload_line_is_flat():
    proc = cli("--workload", "solve-single", "--scale", "smoke",
               "--seed", "1", "--seconds", "0.2", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert list(line["metrics"]) == [m["name"] for m in BENCH["end_to_end"]]


def test_traced_outputs_equal_untraced(runs):
    _, records = runs[1]
    for name in NAMES:
        # The traced pass compares its outputs with the untraced
        # repetitions' and reports any difference as a problem.
        assert records[name]["problems"] == [], name
        assert records[name]["failed"] == 0


def test_shares_and_self_times_account_for_the_traced_wall(runs):
    _, records = runs[1]
    for name in NAMES:
        layers, self_times = records[name]["layers"], records[name]["self_times"]
        for metric, value in layers.items():
            if metric.endswith("share") and metric != "trace.overhead_share":
                assert 0.0 <= value <= 1.0, (name, metric, value)
        assert all(s >= 0.0 for s in self_times.values()), (name, self_times)
        wall = layers["trace.wall_s"]
        assert sum(self_times.values()) == pytest.approx(wall, rel=0.01), name


def test_broken_check_counts_as_failed(monkeypatch):
    monkeypatch.setattr(
        workloads.SolveSingle, "check", lambda self, out: ["deliberately broken"]
    )
    record = run.run_workload("solve-single", 0, 0.05, scale="smoke")
    assert record["failed_share"] > 0
    assert record["failed"] == record["attempted"]
    assert run.result_object([record], BENCH)["correct"] is False


def _results(throughput, samples):
    e2e = {m["name"]: 1.0 for m in BENCH["end_to_end"]}
    e2e["throughput_per_s"] = throughput
    return {"workloads": {"serve-stream": {
        "e2e": e2e, "samples": {"throughput_per_s": samples},
    }}}


def test_compare_marks_each_metric(tmp_path):
    bound = next(m["bound"] for m in BENCH["end_to_end"]
                 if m["name"] == "throughput_per_s")
    dropped = 1000.0 * (1.0 - bound - 0.05)
    base, drop, noisy = (tmp_path / f"{n}.json" for n in ("base", "drop", "noisy"))
    base.write_text(json.dumps(_results(1000.0, [1000.0] * 5)))
    drop.write_text(json.dumps(_results(dropped, [dropped] * 5)))
    noisy.write_text(json.dumps(_results(800.0, [500.0, 700.0, 800.0, 900.0, 1200.0])))

    same = cli("--compare", str(base), str(base))
    assert same.returncode == 0, same.stdout + same.stderr
    assert "worse" not in same.stdout

    worse = cli("--compare", str(base), str(drop))
    assert worse.returncode == 1
    row = next(l for l in worse.stdout.splitlines() if l.startswith("serve-stream"))
    assert f"{dropped / 1000.0 - 1.0:+.1%}      worse" in row

    unresolved = cli("--compare", str(base), str(noisy))
    assert unresolved.returncode == 0
    assert "unresolved" in unresolved.stdout


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "solve-single",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
