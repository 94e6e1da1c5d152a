"""Chunk-granular resume: kill a streaming replay mid-run, resume, compare.

The acceptance contract for streamed fault tolerance: a ``process:4``
streaming replay killed mid-shard by the deterministic fault harness
must, after ``--resume``, produce a report, export artifacts, and
normalised telemetry byte-identical to an uninterrupted run.  The
fault fires on a *chunk* label (``serve:<policy>:edp<i>:chunk<j>``),
so the resumed run exercises both layers of state: completed shards
replay from the checkpoint store, and the interrupted shard
fast-forwards its finished chunks from the stream-state files.
"""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.runtime.checkpoint import stream_state_dir as _stream_state_dir
from repro.testing import normalized_events


def exit_code(argv):
    try:
        return main(argv)
    except SystemExit as err:
        return int(err.code or 0)


SERVE_ARGS = [
    "serve",
    "--policy", "lru,lfu",
    "--requests", "9000",
    "--edps", "8",
    "--contents", "8",
    "--slots", "12",
    "--seed", "7",
    "--stream", "zipf",
    "--stream-chunk", "3",
    "--shards", "4",
    "--backend", "process:4",
    "--no-registry",
]


def test_kill_and_resume_matches_uninterrupted_run(tmp_path, capsys):
    clean_t = tmp_path / "clean.jsonl"
    resume_t = tmp_path / "resumed.jsonl"
    ckpt = tmp_path / "ckpt"
    out_clean = tmp_path / "out_clean"
    out_resume = tmp_path / "out_resume"

    assert main(
        SERVE_ARGS + ["--telemetry", str(clean_t), "--out", str(out_clean)]
    ) == 0
    clean_out = capsys.readouterr().out

    # Kill mid-run: a permanent fault on one EDP's third chunk. The
    # glob matches chunk labels only — shard item labels
    # (serve:lru:shard0) never collide with serve:lru:edp*.
    assert exit_code(
        SERVE_ARGS + [
            "--telemetry", str(tmp_path / "dead.jsonl"),
            "--checkpoint-dir", str(ckpt),
            "--inject-faults", "raise:label=serve:lru:edp2:chunk2,times=-1",
        ]
    ) == 1
    capsys.readouterr()

    # The interrupted run left chunk-granular stream state behind:
    # completed chunks of the in-flight shard are on disk, keyed per
    # (spec, policy, EDP).
    state_files = list(Path(_stream_state_dir(ckpt)).glob("*.pkl"))
    assert state_files, "expected stream-state files from the killed run"

    # Resume without faults: finished shards come from the checkpoint
    # store, the interrupted shard fast-forwards its saved chunks.
    assert main(
        SERVE_ARGS + [
            "--telemetry", str(resume_t),
            "--checkpoint-dir", str(ckpt), "--resume",
            "--out", str(out_resume),
        ]
    ) == 0
    resume_out = capsys.readouterr().out

    # Identical stdout table (modulo the artifact/telemetry paths printed).
    def strip(text):
        for token in (str(out_clean), str(out_resume)):
            text = text.replace(token, "O")
        for token in (str(clean_t), str(resume_t)):
            text = text.replace(token, "T")
        return text

    assert strip(clean_out) == strip(resume_out)

    # Byte-identical export artifacts.
    for name in ("serving_comparison.csv", "serving_summary.json"):
        assert (out_clean / name).read_bytes() == (out_resume / name).read_bytes()

    # Identical normalised telemetry (bookkeeping + timings stripped).
    assert normalized_events(str(clean_t)) == normalized_events(str(resume_t))

    # The resumed stream recorded a mid-EDP chunk fast-forward.
    resumed_events = [
        json.loads(line)
        for line in resume_t.read_text().splitlines()
        if '"stream.resumed"' in line
    ]
    assert resumed_events
    assert all(ev["chunk"] >= 1 for ev in resumed_events)

    # Stream state is consumed on completion.
    assert not list(Path(_stream_state_dir(ckpt)).glob("*.pkl"))


def test_stream_state_is_reset_without_resume(tmp_path, capsys):
    ckpt = tmp_path / "ckpt"
    assert exit_code(
        SERVE_ARGS + [
            "--checkpoint-dir", str(ckpt),
            "--inject-faults", "raise:label=serve:lru:edp2:chunk2,times=-1",
        ]
    ) == 1
    capsys.readouterr()
    assert list(Path(_stream_state_dir(ckpt)).glob("*.pkl"))

    # Re-running WITHOUT --resume resets the store, including the
    # stream-state directory, then completes from scratch.
    assert main(SERVE_ARGS + ["--checkpoint-dir", str(ckpt)]) == 0
    capsys.readouterr()
    assert not list(Path(_stream_state_dir(ckpt)).glob("*.pkl"))


def test_item_rule_selects_plan_items_not_chunks(capsys):
    """``item=N`` names plan item N only, never chunk N of an EDP replay.

    Chunk checkpoints match fault rules by label alone: on the serial
    backend ``raise:item=1`` must fail replay shard 1, not the first
    EDP's chunk 1 inside shard 0.
    """
    argv = [
        "serve", "--policy", "lru", "--edps", "4", "--shards", "2",
        "--requests", "2000", "--no-registry",
        "--inject-faults", "raise:item=1",
    ]
    assert exit_code(argv) == 1
    err = capsys.readouterr().err
    assert "serve:lru:shard1" in err
    assert ":chunk" not in err
