"""Command-line interface for the MFG-CP reproduction.

Subcommands
-----------
``solve``
    Solve a single-content mean-field equilibrium and print the
    convergence report, market paths, and utility decomposition.
``simulate``
    Run the finite-population game for one or more schemes and print
    the comparison rows.
``experiment``
    Regenerate a paper figure/table by name (``fig3`` ... ``fig14``,
    ``table2``) through the experiment harness.
``report``
    Summarise a telemetry JSONL run: span tree, iteration table,
    numerical health, and top metrics (see ``docs/observability.md``).
``compare``
    Diff two telemetry runs (span timings, metrics, diagnostics) with
    relative-regression thresholds; ``--fail-on-regression`` turns
    findings into exit 1.  BENCH trajectories are judged by ``trend``.
``trace``
    Two modes: ``repro trace RUN.jsonl OUT.json`` exports a telemetry
    run as a Chrome trace-event file (open in chrome://tracing or
    Perfetto); ``repro trace --videos N --out CSV`` generates the
    legacy synthetic YouTube-trending trace CSV.
``serve``
    Replay a synthetic request trace against a population of EDP edge
    caches and report serving metrics (hit ratio, staleness-violation
    rate, latency, backhaul, trading revenue) per policy — the MFG
    equilibrium adapter alongside LRU/LFU/random/most-popular (see
    ``docs/serving.md``).
``serve-net``
    Replay a Zipf request trace through a hierarchical *cache network*
    (``--topology path:6 | tree:2x4 | ring:8 | mesh:12x3``): misses
    route hop by hop toward the origin and an on-path placement
    strategy (``lce``/``lcd``/``probcache``/``edge``/``mfg``) decides
    which nodes keep a copy, behind finite per-node admission queues
    (see docs/serving.md "Cache networks").
``env``
    Print the environment fingerprint (python/numpy/scipy versions,
    platform, git SHA + dirty flag) as JSON — the same facts every
    run manifest records.
``runs``
    Inspect the run-provenance registry: every ``solve`` /
    ``simulate`` / ``experiment`` / ``serve`` / ``serve-net`` run
    appends a RunManifest (config snapshot + hash, argv, environment,
    seed lineage, wall time, exit status, headline metrics) under
    ``.repro/runs/``.  ``runs list|show|diff|gc`` query and prune it;
    opt out per run with ``--no-registry`` or globally with
    ``REPRO_REGISTRY=0`` (see ``docs/observability.md``).
``trend``
    Fold append-only ``BENCH_*.json`` trajectories and the run
    registry into per-metric time series with sparkline/delta tables;
    ``--fail-on-regression`` gates on trajectory slope.
``verify``
    Evaluate the Lemma 1/2 hypotheses and the Theorem 2 contraction
    diagnostics for a configuration.

``solve``, ``simulate``, ``experiment`` and ``serve`` accept
``--telemetry PATH.jsonl`` to stream solver events (per-iteration
residuals, stage timings, step counters) to a JSON-lines file,
``--profile`` to add per-span resource fields (CPU, RSS, GC),
``--strict-numerics`` to abort on error-severity ``diag.*`` findings
(exit 3), plus ``--backend serial|process[:N]`` / ``--workers N`` to
pick the execution backend for the embarrassingly-parallel fan-outs
(results are bit-identical across backends; see ``docs/runtime.md``).

Fault tolerance (``docs/runtime.md``): ``--checkpoint-dir DIR``
persists every completed work item so an interrupted sweep can be
rerun with ``--resume`` (only the missing items execute; results and
merged telemetry match an uninterrupted run), ``--max-retries N``
retries failing items on a deterministic backoff schedule, and
``--inject-faults SPEC`` activates the :mod:`repro.testing.faults`
harness for debugging.  Exit codes: 1 — a work item failed after
exhausting its retries; 2 — usage errors, malformed specs, or a
missing/corrupt checkpoint manifest under ``--resume``; 3 —
``--strict-numerics`` abort.

Examples
--------
    python -m repro.cli solve --fast
    python -m repro.cli solve --fast --telemetry run.jsonl --strict-numerics
    python -m repro.cli report run.jsonl
    python -m repro.cli compare baseline.jsonl candidate.jsonl
    python -m repro.cli trace run.jsonl run.trace.json
    python -m repro.cli simulate --schemes MFG-CP,MFG --edps 60
    python -m repro.cli experiment fig14 --backend process:4
    python -m repro.cli trace --videos 500 --out /tmp/trace.csv
    python -m repro.cli serve --policy all --requests 20000 --edps 16
    python -m repro.cli serve --policy mfg --requests 1000000 --backend process:4
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from dataclasses import replace
from functools import partial
from typing import List, Optional, Sequence

import numpy as np

from repro.analysis import experiments
from repro.analysis.reporting import format_table
from repro.content.trace import SyntheticYouTubeTrace
from repro.core.parameters import MFGCPConfig
from repro.core.solver import MFGCPSolver
from repro.core import theory
from repro.obs.compare import compare_runs
from repro.obs.events import read_events_tolerant
from repro.obs.report import load_run, render_report
from repro.obs.trace import write_chrome_trace
from repro.obs.telemetry import (
    NULL_TELEMETRY,
    SolverTelemetry,
    StrictNumericsError,
)
from repro.runtime import (
    CheckpointError,
    CheckpointStore,
    Executor,
    FaultPolicy,
    ItemFailedError,
    ResumableExecutor,
    make_executor,
)
from repro.testing.faults import FaultSpecError, clear_faults, install_faults

EXPERIMENT_NAMES = (
    "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
    "fig11", "fig12", "fig13", "fig14", "table2",
)

#: Subcommands that execute a run: an aborted one exits 1 or 3, and
#: each records a manifest in the provenance registry (see
#: :mod:`repro.obs.registry`).
RUN_COMMANDS = ("solve", "simulate", "experiment", "serve", "serve-net")

#: CLI argument names that shape *how* a run executes, not *what* it
#: computes — excluded from the manifest's config snapshot so backend
#: or observability flags never perturb the run identity.
_NON_CONFIG_ARGS = frozenset({
    "command", "backend", "workers", "checkpoint_dir", "resume",
    "max_retries", "inject_faults", "telemetry", "profile",
    "strict_numerics", "live_status", "live_every", "no_registry",
    "registry_dir", "out",
})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MFG-CP: joint mobile edge caching and pricing (ICDE 2024 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--fast", action="store_true",
                       help="coarse grid (quick demo) instead of paper default")
        p.add_argument("--content-size", type=float, default=None,
                       help="content size Q_k in MB")
        p.add_argument("--eta1", type=float, default=None,
                       help="supply-to-money conversion eta1")
        p.add_argument("--popularity", type=float, default=None,
                       help="content popularity Pi_k in [0, 1]")
        p.add_argument("--no-sharing", action="store_true",
                       help="disable peer sharing (the MFG baseline model)")

    def add_telemetry_arg(p: argparse.ArgumentParser) -> None:
        p.add_argument("--telemetry", metavar="PATH.jsonl", default=None,
                       help="stream solver telemetry events to a JSONL file "
                            "(summarise later with 'repro report')")
        p.add_argument("--profile", action="store_true",
                       help="add per-span resource profiling (process CPU, "
                            "RSS delta, GC collections) to the telemetry; "
                            "implies nothing when --telemetry is absent")
        p.add_argument("--strict-numerics", action="store_true",
                       help="abort (exit 3) on any error-severity diag.* "
                            "numerical-health finding; enables in-memory "
                            "telemetry when --telemetry is not given")
        p.add_argument("--live-status", metavar="STATUS.json", default=None,
                       help="write an atomic live run-status JSON snapshot "
                            "as work completes (phase, progress, throughput, "
                            "windowed serving stats, worker heartbeats); "
                            "follow it with 'repro watch STATUS.json'")
        p.add_argument("--live-every", type=int, default=None, metavar="N",
                       help="completed items between live-status rewrites "
                            "(default 16; phase changes always write)")
        p.add_argument("--no-registry", action="store_true",
                       help="skip recording this run's manifest in the "
                            "provenance registry (also: REPRO_REGISTRY=0)")
        p.add_argument("--registry-dir", default=None, metavar="DIR",
                       help="run-manifest registry root (default: "
                            "$REPRO_REGISTRY_DIR or .repro/runs)")

    def add_runtime_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--backend", default="serial",
                       help="execution backend for fan-out work: 'serial' "
                            "(default) or 'process[:N]' for an N-worker "
                            "process pool")
        p.add_argument("--workers", type=int, default=None,
                       help="worker count for the process backend "
                            "(overrides a count embedded in --backend)")
        p.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                       help="persist every completed work item into DIR so "
                            "an interrupted run can be resumed; without "
                            "--resume an existing store is reset first")
        p.add_argument("--resume", action="store_true",
                       help="skip work items already completed in "
                            "--checkpoint-dir (exit 2 when the store's "
                            "manifest is missing or malformed)")
        p.add_argument("--max-retries", type=int, default=0, metavar="N",
                       help="retry a failing work item up to N times on a "
                            "deterministic exponential-backoff schedule "
                            "before giving up (exit 1)")
        p.add_argument("--inject-faults", default=None, metavar="SPEC",
                       help="debug: activate the deterministic fault harness "
                            "(e.g. 'raise:item=2' or 'kill:label=content:*'; "
                            "see repro.testing.faults)")

    def add_stream_args(p: argparse.ArgumentParser, zipf_alpha: bool = True) -> None:
        p.add_argument("--stream", default=None, metavar="KIND",
                       choices=("zipf", "shuffled-zipf", "diurnal",
                                "flash-crowd", "trace"),
                       help="replay a synthetic workload generator instead "
                            "of the canned scenario: zipf, shuffled-zipf, "
                            "diurnal, flash-crowd, or trace (see "
                            "docs/serving.md)")
        p.add_argument("--stream-chunk", type=int, default=8, metavar="SLOTS",
                       help="slots per replay chunk (0 = the whole replay "
                            "as one chunk; default 8; pure memory grain, "
                            "never affects results)")
        p.add_argument("--warmup-slots", type=int, default=0, metavar="N",
                       help="icarus-style warmup: the first N slots populate "
                            "caches but are excluded from every reported "
                            "counter")
        p.add_argument("--trace-file", default=None, metavar="CSV",
                       help="trending-trace CSV backing '--stream trace'")
        if zipf_alpha:
            p.add_argument("--zipf-alpha", type=float, default=1.0,
                           help="Zipf exponent of the --stream generator")

    p_solve = sub.add_parser("solve", help="solve one mean-field equilibrium")
    add_config_args(p_solve)
    add_telemetry_arg(p_solve)
    add_runtime_args(p_solve)

    p_sim = sub.add_parser("simulate", help="finite-population scheme comparison")
    add_config_args(p_sim)
    add_telemetry_arg(p_sim)
    add_runtime_args(p_sim)
    p_sim.add_argument("--schemes", default="MFG-CP,MFG,UDCS,MPC,RR",
                       help="comma-separated scheme names")
    p_sim.add_argument("--edps", type=int, default=60, help="population size M")
    p_sim.add_argument("--seed", type=int, default=7)
    p_sim.add_argument("--seeds", type=int, default=1, metavar="N",
                       help="replicate seeds per scheme (seed, seed+1, ...)")

    p_exp = sub.add_parser("experiment", help="regenerate a paper figure/table")
    p_exp.add_argument("name", choices=EXPERIMENT_NAMES)
    add_telemetry_arg(p_exp)
    add_runtime_args(p_exp)

    p_report = sub.add_parser(
        "report", help="summarise a telemetry JSONL run"
    )
    p_report.add_argument("path", help="telemetry JSONL file to summarise")

    p_cmp = sub.add_parser(
        "compare",
        help="diff two telemetry runs (BENCH trajectories: use 'trend')",
    )
    p_cmp.add_argument("baseline", help="baseline telemetry run (JSONL)")
    p_cmp.add_argument("candidate", help="candidate run to compare against it")
    p_cmp.add_argument("--span-threshold", type=float, default=0.2,
                       help="relative span-time growth that counts as a "
                            "regression (default 0.2 = +20%%)")
    p_cmp.add_argument("--metric-threshold", type=float, default=0.2,
                       help="relative metric change worth reporting "
                            "(default 0.2)")
    p_cmp.add_argument("--fail-on-regression", action="store_true",
                       help="exit 1 when any regression is flagged (default "
                            "is report-only, exit 0)")

    p_trace = sub.add_parser(
        "trace",
        help="export a telemetry run as a Chrome trace, or generate a "
             "synthetic trending trace CSV",
    )
    p_trace.add_argument("run", nargs="?", default=None,
                         help="telemetry JSONL run to export (Chrome trace "
                              "mode; also pass OUT.json)")
    p_trace.add_argument("out_json", nargs="?", default=None,
                         help="output Chrome trace-event JSON path")
    p_trace.add_argument("--videos", type=int, default=1000)
    p_trace.add_argument("--seed", type=int, default=0)
    p_trace.add_argument("--out", default=None,
                         help="output CSV path (synthetic-trace mode)")

    p_serve = sub.add_parser(
        "serve", help="replay a request trace against EDP edge caches"
    )
    p_serve.add_argument("--policy", default="mfg",
                         help="serving policy: one of mfg/lru/lfu/random/"
                              "most-popular, a comma list, or 'all' for the "
                              "full comparison table")
    p_serve.add_argument("--requests", type=float, default=100_000,
                         help="target total request volume across all EDPs "
                              "(sets the per-EDP arrival rate)")
    p_serve.add_argument("--edps", type=int, default=16,
                         help="population size M")
    p_serve.add_argument("--contents", type=int, default=12,
                         help="catalog size K")
    p_serve.add_argument("--workload", default="video_marketplace",
                         choices=("video_marketplace", "traffic_information",
                                  "news_cycle"),
                         help="canned workload scenario")
    p_serve.add_argument("--slots", type=int, default=25,
                         help="trace slots over the epoch")
    p_serve.add_argument("--capacity-fraction", type=float, default=0.3,
                         help="edge storage as a fraction of catalog volume")
    p_serve.add_argument("--seed", type=int, default=7,
                         help="root seed for every per-EDP request stream")
    p_serve.add_argument("--shards", type=int, default=None,
                         help="replay shard count (default min(edps, 8); "
                              "never affects results)")
    p_serve.add_argument("--out", default=None,
                         help="directory for CSV/JSON export of the reports")
    p_serve.add_argument("--solver-batching", action="store_true",
                         help="solve the mfg policy's equilibria through the "
                              "batched tensor pipeline (one work item per "
                              "content shard; bit-identical results)")
    p_serve.add_argument("--batch-size", type=int, default=32, metavar="B",
                         help="max contents per batched shard "
                              "(with --solver-batching; default 32)")
    add_stream_args(p_serve)
    add_telemetry_arg(p_serve)
    add_runtime_args(p_serve)

    p_net = sub.add_parser(
        "serve-net",
        help="replay a request trace through a hierarchical cache network",
    )
    p_net.add_argument("--topology", default="tree:2x4",
                       help="network spec: path:N, tree:KxD (K-ary, depth D),"
                            " ring:N, or mesh:N[xK] (default tree:2x4, the "
                            "15-router binary tree)")
    p_net.add_argument("--strategy", default="all",
                       help="placement strategy: one of lce/lcd/probcache/"
                            "edge/mfg, a comma list, or 'all' for the full "
                            "comparison table")
    p_net.add_argument("--contents", type=int, default=12,
                       help="Zipf catalog size K")
    p_net.add_argument("--alpha", type=float, default=1.0,
                       help="Zipf exponent of the workload")
    p_net.add_argument("--rate", type=float, default=60.0,
                       help="request rate per receiver per time unit")
    p_net.add_argument("--slots", type=int, default=25,
                       help="trace slots over the epoch")
    p_net.add_argument("--replicas", type=int, default=4,
                       help="independent full-network replays averaged into "
                            "one report (also the parallel grain)")
    p_net.add_argument("--capacity-fraction", type=float, default=0.1,
                       help="per-node cache as a fraction of catalog volume")
    p_net.add_argument("--node-capacity", type=float, default=None,
                       metavar="MB",
                       help="absolute per-node cache size in MB (overrides "
                            "--capacity-fraction)")
    p_net.add_argument("--queue-capacity", type=int, default=8,
                       help="admission-queue depth per caching node")
    p_net.add_argument("--queue-rate", type=float, default=None,
                       help="admission-queue service rate (default: each "
                            "node's fair share of the total request rate)")
    p_net.add_argument("--seed", type=int, default=0,
                       help="root seed for every request stream")
    p_net.add_argument("--topology-seed", type=int, default=0,
                       help="seed for mesh placement geometry")
    p_net.add_argument("--shards", type=int, default=None,
                       help="replay shard count (default min(replicas, 8); "
                            "never affects results)")
    p_net.add_argument("--per-node", action="store_true",
                       help="also print the per-node breakdown table for "
                            "each strategy")
    p_net.add_argument("--out", default=None,
                       help="directory for CSV/JSON export of the reports")
    p_net.add_argument("--solver-batching", action="store_true",
                       help="solve the mfg strategy's equilibria through the "
                            "batched tensor pipeline (bit-identical results)")
    p_net.add_argument("--batch-size", type=int, default=32, metavar="B",
                       help="max contents per batched shard "
                            "(with --solver-batching; default 32)")
    add_stream_args(p_net, zipf_alpha=False)
    add_telemetry_arg(p_net)
    add_runtime_args(p_net)

    sub.add_parser(
        "env",
        help="print the environment fingerprint (python/numpy/platform/"
             "git) as JSON",
    )

    p_runs = sub.add_parser(
        "runs", help="inspect the run-provenance registry (.repro/runs)"
    )
    p_runs.add_argument("--registry-dir", default=None, metavar="DIR",
                        help="registry root (default: $REPRO_REGISTRY_DIR "
                             "or .repro/runs)")
    runs_sub = p_runs.add_subparsers(dest="runs_command", required=True)
    r_list = runs_sub.add_parser("list", help="list recorded runs, newest first")
    r_list.add_argument("--command", dest="filter_command", default=None,
                        help="only show runs of this subcommand")
    r_list.add_argument("--limit", type=int, default=None, metavar="N",
                        help="show at most the N newest runs")
    r_show = runs_sub.add_parser("show", help="show one run's manifest")
    r_show.add_argument("ref", help="seq number or run-id prefix (newest wins)")
    r_show.add_argument("--json", action="store_true",
                        help="print the raw manifest JSON")
    r_diff = runs_sub.add_parser(
        "diff", help="diff two runs' config and headline metrics"
    )
    r_diff.add_argument("baseline", help="seq number or run-id prefix")
    r_diff.add_argument("candidate", help="seq number or run-id prefix")
    r_diff.add_argument("--threshold", type=float, default=0.2,
                        help="relative headline-metric change that counts "
                             "as a regression (default 0.2; config diffs "
                             "are always exact)")
    r_diff.add_argument("--fail-on-regression", action="store_true",
                        help="exit 1 when any directional headline metric "
                             "got worse by more than the threshold")
    r_gc = runs_sub.add_parser("gc", help="prune oldest manifests")
    r_gc.add_argument("--keep", type=int, required=True, metavar="N",
                      help="retain the N newest manifests (the newest "
                           "non-ok run is always kept)")

    p_trend = sub.add_parser(
        "trend",
        help="per-metric time series across BENCH trajectories and the "
             "run registry",
    )
    p_trend.add_argument("--bench", action="append", default=None,
                         metavar="PATH",
                         help="BENCH trajectory file (repeatable; default: "
                              "every BENCH_*.json in the current directory)")
    p_trend.add_argument("--registry-dir", default=None, metavar="DIR",
                         help="registry root (default: $REPRO_REGISTRY_DIR "
                              "or .repro/runs)")
    p_trend.add_argument("--no-registry", action="store_true",
                         help="skip the (report-only) registry series")
    p_trend.add_argument("--metric", default=None,
                         help="substring filter on metric names")
    p_trend.add_argument("--threshold", type=float, default=0.05,
                         help="relative drift vs the historical mean that "
                              "counts as a regression (default 0.05 = 5%%)")
    p_trend.add_argument("--fail-on-regression", action="store_true",
                         help="exit 1 when any gateable bench series "
                              "regressed (registry series never gate)")

    p_watch = sub.add_parser(
        "watch", help="render a live run-status file as a dashboard"
    )
    p_watch.add_argument("status", metavar="STATUS.json",
                         help="status file written by --live-status")
    p_watch.add_argument("--once", action="store_true",
                         help="print one frame and exit (scripting/CI); "
                              "exit 0 when the file parses, 2 otherwise")
    p_watch.add_argument("--interval", type=float, default=2.0,
                         help="refresh interval in seconds (default 2)")

    p_prom = sub.add_parser(
        "export-metrics",
        help="export a telemetry run's metrics as Prometheus text exposition",
    )
    p_prom.add_argument("run", metavar="RUN.jsonl",
                        help="telemetry JSONL run (finished or in-flight)")
    p_prom.add_argument("--format", default="prometheus",
                        choices=("prometheus",),
                        help="exposition format (only 'prometheus' for now)")
    p_prom.add_argument("--out", default=None,
                        help="write to a file instead of stdout")

    p_verify = sub.add_parser("verify", help="check Lemma 1/2 and Theorem 2 numerically")
    add_config_args(p_verify)

    p_export = sub.add_parser(
        "export", help="solve an equilibrium and dump CSV/JSON artifacts"
    )
    add_config_args(p_export)
    p_export.add_argument("--out", required=True, help="output directory")
    return parser


def _config_from_args(args: argparse.Namespace) -> MFGCPConfig:
    config = MFGCPConfig.fast() if args.fast else MFGCPConfig.paper_default()
    overrides = {}
    if args.content_size is not None:
        overrides["content_size"] = args.content_size
    if args.eta1 is not None:
        overrides["eta1"] = args.eta1
    if args.popularity is not None:
        overrides["popularity"] = args.popularity
    if args.no_sharing:
        overrides["include_sharing"] = False
    return replace(config, **overrides) if overrides else config


def _registry_enabled(args: argparse.Namespace) -> bool:
    """Whether this run should record a manifest.

    Precedence: ``--no-registry`` beats everything; otherwise the
    ``REPRO_REGISTRY`` environment switch (``0``/``false``/``no``/
    ``off`` disables); on by default.
    """
    if getattr(args, "no_registry", False):
        return False
    flag = os.environ.get("REPRO_REGISTRY", "").strip().lower()
    return flag not in ("0", "false", "no", "off")


def _config_snapshot(args: argparse.Namespace) -> dict:
    """The manifest's config snapshot: what the run *computed on*.

    Execution-shaping flags (backend, telemetry, registry, output
    paths) are excluded — two runs that differ only in worker count
    or observability are the same run.  For config-bearing commands
    the raw override flags collapse into the one resolved ``model``
    dict, so a ``--eta1`` change surfaces as exactly one config key.
    """
    snapshot = {
        key: value
        for key, value in sorted(vars(args).items())
        if not key.startswith("_") and key not in _NON_CONFIG_ARGS
    }
    if hasattr(args, "fast"):
        import dataclasses

        for key in ("fast", "content_size", "eta1", "popularity",
                    "no_sharing"):
            snapshot.pop(key, None)
        snapshot["model"] = dataclasses.asdict(_config_from_args(args))
    return snapshot


def _artifacts_from_args(args: argparse.Namespace) -> dict:
    """Paths this run wrote, worth finding again from the manifest."""
    artifacts = {}
    for key in ("telemetry", "live_status", "out", "checkpoint_dir"):
        value = getattr(args, key, None)
        if value:
            artifacts[key] = str(value)
    return artifacts


def _record_manifest(
    args: argparse.Namespace,
    raw_argv: List[str],
    collector,
    status: str,
    exit_code: Optional[int],
    started_at: str,
    wall_s: float,
) -> None:
    from repro.obs.registry import RunRegistry, build_manifest, headline_metrics

    telemetry = getattr(args, "_run_telemetry", None)
    metrics = {}
    if telemetry is not None and telemetry.enabled:
        metrics = headline_metrics(
            telemetry.metrics.snapshot(), wall_s if wall_s > 0 else None
        )
    manifest = build_manifest(
        command=args.command,
        argv=raw_argv,
        config=_config_snapshot(args),
        status=status,
        exit_code=exit_code,
        started_at=started_at,
        wall_s=wall_s,
        seeds=collector.summary(),
        artifacts=_artifacts_from_args(args),
        metrics=metrics,
    )
    path = RunRegistry(getattr(args, "registry_dir", None)).append(manifest)
    # Stderr, deliberately: run stdout is diffed byte-for-byte in the
    # determinism smoke jobs, and the manifest path varies per run.
    print(f"run manifest {manifest['run_id']} recorded -> {path}",
          file=sys.stderr)


def _with_run_manifest(handler, raw_argv: List[str]):
    """Wrap a run handler so it records a RunManifest on every exit.

    A pure side channel around the handler: the run's results, stdout,
    and telemetry stream are untouched (the normalized stream stays
    bit-identical serial vs ``process:N``).  Registry failures warn on
    stderr and never change the run's exit code.
    """

    def wrapped(args: argparse.Namespace) -> int:
        import time
        from datetime import datetime, timezone

        from repro.runtime import runinfo

        args._registry_active = True
        collector = runinfo.activate()
        started_at = datetime.now(timezone.utc).isoformat(timespec="seconds")
        t0 = time.perf_counter()
        status: str = "crashed"
        exit_code: Optional[int] = None
        try:
            code = handler(args)
            exit_code = code
            status = "ok" if code == 0 else "failed"
            return code
        except SystemExit as err:
            exit_code = err.code if isinstance(err.code, int) else 1
            status = "failed"
            raise
        finally:
            runinfo.deactivate()
            try:
                _record_manifest(
                    args, raw_argv, collector, status, exit_code,
                    started_at, time.perf_counter() - t0,
                )
            except Exception as err:
                print(f"warning: run manifest not recorded: {err}",
                      file=sys.stderr)

    return wrapped


def _telemetry_from_args(args: argparse.Namespace) -> SolverTelemetry:
    """The observer implied by ``--telemetry`` / ``--profile`` /
    ``--strict-numerics`` / ``--live-status``.

    ``--strict-numerics`` without ``--telemetry`` still needs enabled
    telemetry (the probes live behind it), so it gets an in-memory
    observer: fail-fast works, nothing is written.  ``--live-status``
    likewise upgrades the null default to an in-memory observer — the
    status writer needs an owner, and the shared NULL_TELEMETRY
    singleton must never carry one.  An active run-manifest recorder
    (see :func:`main`) upgrades too: the manifest's headline metrics
    are read from the metrics registry after the run, and the shared
    singleton must stay untouched.

    The chosen observer is stashed on ``args`` so the manifest
    recorder can read its final metrics, and an aborted run can close
    it, without re-deriving it.
    """
    path = getattr(args, "telemetry", None)
    profile = bool(getattr(args, "profile", False))
    strict = bool(getattr(args, "strict_numerics", False))
    live_path = getattr(args, "live_status", None)
    if path is None:
        if strict or live_path is not None or getattr(
            args, "_registry_active", False
        ):
            telemetry = SolverTelemetry.in_memory(
                profile=profile, strict_numerics=strict
            )
        else:
            return NULL_TELEMETRY
    else:
        telemetry = SolverTelemetry.to_jsonl(
            path, profile=profile, strict_numerics=strict
        )
    if live_path is not None:
        from repro.obs.live import DEFAULT_WRITE_EVERY, LiveStatusWriter

        every = getattr(args, "live_every", None)
        telemetry.set_live(
            LiveStatusWriter(
                live_path, every=every if every else DEFAULT_WRITE_EVERY
            )
        )
    args._run_telemetry = telemetry
    return telemetry


def _executor_from_args(
    args: argparse.Namespace, telemetry: SolverTelemetry = NULL_TELEMETRY
) -> Executor:
    """The execution backend implied by ``--backend`` / ``--workers``,
    wrapped in a :class:`~repro.runtime.ResumableExecutor` when any of
    the fault-tolerance flags (``--checkpoint-dir`` / ``--resume`` /
    ``--max-retries`` / ``--inject-faults``) ask for one.

    All configuration mistakes here — an unknown backend, ``--resume``
    without a store, a missing or malformed checkpoint manifest, a
    negative retry budget — are usage errors: one-line message on
    stderr, exit code 2.
    """
    try:
        base = make_executor(
            getattr(args, "backend", "serial"),
            workers=getattr(args, "workers", None),
        )
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        raise SystemExit(2)

    checkpoint_dir = getattr(args, "checkpoint_dir", None)
    resume = bool(getattr(args, "resume", False))
    max_retries = int(getattr(args, "max_retries", 0) or 0)
    injecting = getattr(args, "inject_faults", None) is not None
    if resume and checkpoint_dir is None:
        print("error: --resume requires --checkpoint-dir", file=sys.stderr)
        raise SystemExit(2)
    if checkpoint_dir is None and max_retries == 0 and not injecting:
        return base

    store = None
    if checkpoint_dir is not None:
        try:
            store = CheckpointStore(checkpoint_dir)
            if resume:
                # A resume against nothing (or against garbage) is a
                # mistake worth stopping for, not silently recomputing.
                store.validate_manifest()
            else:
                store.reset()
        except CheckpointError as err:
            print(f"error: {err}", file=sys.stderr)
            raise SystemExit(2)
    try:
        policy = FaultPolicy(max_retries=max_retries)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        raise SystemExit(2)
    return ResumableExecutor(
        base, store=store, policy=policy, telemetry=telemetry
    )


def _close_telemetry(args: argparse.Namespace, telemetry: SolverTelemetry) -> None:
    telemetry.close()
    if telemetry.enabled and getattr(args, "telemetry", None) is not None:
        print(f"telemetry written to {args.telemetry}")


def _exit_on_run_failure(handler):
    """Wrap a run handler so an aborted run still finishes cleanly.

    ``--strict-numerics`` killing the run exits 3; a work item that
    exhausted its retries exits 1.  Either way the live status is
    marked failed and the telemetry file is closed properly — the
    triggering ``diag.*`` event or the ``item.retry`` /
    ``item.failed`` bookkeeping is already in the stream, so ``repro
    report`` shows the full story — before the error goes to stderr.
    """

    def wrapped(args: argparse.Namespace) -> int:
        try:
            return handler(args)
        except StrictNumericsError as err:
            failure, code = err, 3
        except ItemFailedError as err:
            failure, code = err, 1
        telemetry = getattr(args, "_run_telemetry", None)
        if telemetry is None:
            telemetry = NULL_TELEMETRY
        if telemetry.live is not None:
            telemetry.live.finish("failed")
        _close_telemetry(args, telemetry)
        print(f"error: {failure}", file=sys.stderr)
        return code

    return wrapped


def _cmd_solve(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    telemetry = _telemetry_from_args(args)
    executor = _executor_from_args(args, telemetry)
    result = MFGCPSolver(config, telemetry=telemetry, executor=executor).solve()
    _close_telemetry(args, telemetry)
    print(result.report.describe())
    t = result.grid.t
    stride = max(1, len(t) // 8)
    print(format_table(
        ["t", "price", "E[x*]", "mean q (MB)"],
        [
            (f"{t[i]:.2f}", result.mean_field.price[i],
             result.mean_field.mean_control[i], result.mean_field.mean_q[i])
            for i in range(0, len(t), stride)
        ],
        title="Equilibrium market paths",
    ))
    print(format_table(
        ["term", "accumulated"],
        sorted(result.accumulated_utility().items()),
        title="Utility decomposition (Eq. 10 over the horizon)",
    ))
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    names = [s.strip() for s in args.schemes.split(",") if s.strip()]
    if not names:
        print("error: no schemes given", file=sys.stderr)
        return 2
    telemetry = _telemetry_from_args(args)
    executor = _executor_from_args(args, telemetry)
    seeds = tuple(args.seed + i for i in range(max(1, args.seeds)))
    rows = []
    for name in names:
        summary = experiments.run_scheme_summary(
            name, config, args.edps, seeds=seeds, telemetry=telemetry,
            executor=executor,
        )
        rows.append(
            (name, summary["total"], summary["trading_income"],
             summary["staleness_cost"])
        )
    _close_telemetry(args, telemetry)
    rows.sort(key=lambda r: -r[1])
    print(format_table(
        ["scheme", "utility", "trading income", "staleness cost"],
        rows,
        title=f"Finite-population comparison (M={args.edps})",
    ))
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    telemetry = _telemetry_from_args(args)
    executor = _executor_from_args(args, telemetry)
    with telemetry.span(f"experiment_{args.name}"):
        code = _run_experiment(args, telemetry, executor)
    _close_telemetry(args, telemetry)
    return code


def _run_experiment(
    args: argparse.Namespace,
    telemetry: SolverTelemetry,
    executor: Executor,
) -> int:
    name = args.name
    if name == "fig3":
        data = experiments.fig3_channel_evolution()
        data.pop("time")
        rows = [
            (label, path[-1], float(np.std(path[len(path) // 2:])))
            for label, path in sorted(data.items())
        ]
        print(format_table(["series", "final value", "tail std"], rows,
                           title="Fig. 3 - OU channel evolution"))
        return 0
    if name in ("fig4", "fig5", "fig9"):
        result = experiments.solve_equilibrium(telemetry=telemetry)
        if name == "fig4":
            data = experiments.fig4_meanfield_evolution(result=result)
            rows = [
                (f"{data['time'][i]:.2f}", data["mean_q"][i])
                for i in range(0, len(data["time"]), max(1, len(data["time"]) // 8))
            ]
            print(format_table(["t", "mean remaining q (MB)"], rows,
                               title="Fig. 4 - mean-field evolution"))
        elif name == "fig5":
            data = experiments.fig5_policy_evolution(result=result)
            rows = list(zip(
                [f"{q:.0f}" for q in data["q"]],
                data["policy_q_profile_t0"],
                data["policy_q_profile_mid"],
            ))
            print(format_table(["q (MB)", "x*(t=0)", "x*(t=T/2)"], rows,
                               title="Fig. 5 - policy evolution"))
        else:
            data = experiments.fig9_convergence(result=result)
            rows = [
                (f"{q0:g}", series["caching_state"][-1], series["utility"][-1])
                for q0, series in sorted(data.items())
            ]
            print(format_table(["q(0)", "final q", "final utility"], rows,
                               title="Fig. 9 - convergence"))
        return 0
    if name in ("fig6", "fig7"):
        std = 0.1 if name == "fig6" else 0.05
        data = experiments.fig67_heatmap(
            initial_std_fraction=std, executor=executor, telemetry=telemetry
        )
        rows = [
            (f"{qk:.0f}", series["mean_q"][0], series["mean_q"][-1])
            for qk, series in sorted(data.items())
        ]
        print(format_table(["Q_k", "mean q(0)", "mean q(T)"], rows,
                           title=f"{name} - heat map sweep (std {std})"))
        return 0
    if name == "fig8":
        data = experiments.fig8_w5_sweep(executor=executor, telemetry=telemetry)
        rows = [
            (f"{w5:.0f}", series["mean_q"][-1],
             float(series["accumulated_staleness"][0]))
            for w5, series in sorted(data.items())
        ]
        print(format_table(["w5", "mean q(T)", "staleness"], rows,
                           title="Fig. 8 - w5 sweep"))
        return 0
    if name == "fig10":
        data = experiments.fig10_initial_distribution(
            executor=executor, telemetry=telemetry
        )
        rows = [
            (f"{mean:g}", series["utility"][-1],
             float(series["sharing_benefit"].mean()))
            for mean, series in sorted(data.items())
        ]
        print(format_table(["lambda(0) mean", "U(T)", "avg sharing benefit"],
                           rows, title="Fig. 10 - initial distribution"))
        return 0
    if name == "fig11":
        data = experiments.fig11_eta1_timeseries(
            executor=executor, telemetry=telemetry
        )
        rows = [
            (f"{eta1:g}", series["utility"][-1], series["trading_income"][0],
             series["trading_income"][-1])
            for eta1, series in sorted(data.items())
        ]
        print(format_table(["eta1", "U(T)", "income(0)", "income(T)"], rows,
                           title="Fig. 11 - eta1 sweep"))
        return 0
    if name == "fig12":
        rows = experiments.fig12_total_vs_eta1(
            executor=executor, telemetry=telemetry
        )
        print(format_table(
            ["eta1", "scheme", "utility", "income"],
            [(f"{e:g}", s, u, i) for e, s, u, i in rows],
            title="Fig. 12 - total utility vs eta1",
        ))
        return 0
    if name == "fig13":
        rows = experiments.fig13_popularity_sweep(
            executor=executor, telemetry=telemetry
        )
        print(format_table(
            ["popularity", "scheme", "utility", "staleness", "mean control"],
            [(f"{p:g}", s, u, c, m) for p, s, u, c, m in rows],
            title="Fig. 13 - popularity sweep",
        ))
        return 0
    if name == "fig14":
        rows = experiments.fig14_scheme_comparison(
            executor=executor, telemetry=telemetry
        )
        print(format_table(
            ["scheme", "utility", "income", "staleness"], rows,
            title="Fig. 14 - scheme comparison",
        ))
        return 0
    # table2
    rows = experiments.table2_computation_time(
        telemetry=telemetry if telemetry.enabled else None,
        executor=executor,
    )
    print(format_table(
        ["scheme", "M", "seconds"],
        [(s, m, sec) for s, m, sec in rows],
        title="Table II - computation time",
    ))
    return 0


def _load_run_checked(path: str):
    """``load_run`` with the CLI's one-line error contract.

    Missing file, unreadable file, or a file with zero parseable
    events (empty, or pure garbage after tolerant skipping) print a
    single-line error — never a traceback — and return ``None``; the
    caller turns that into exit code 2.
    """
    try:
        summary = load_run(path)
    except (OSError, ValueError) as err:
        print(f"error: cannot read telemetry run {path!r}: {err}",
              file=sys.stderr)
        return None
    if summary.n_events == 0:
        detail = (
            f"{summary.n_skipped} malformed line(s), no valid events"
            if summary.n_skipped
            else "file is empty"
        )
        print(f"error: telemetry run {path!r} has no events ({detail})",
              file=sys.stderr)
        return None
    return summary


def _print_pipe_safe(text: str) -> None:
    """Print report-style output that is routinely piped into
    `head`/`less`; exit quietly when the reader closes the pipe early.
    Re-points stdout at /dev/null so the interpreter's exit-time flush
    does not raise a second BrokenPipeError."""
    try:
        print(text)
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _cmd_report(args: argparse.Namespace) -> int:
    summary = _load_run_checked(args.path)
    if summary is None:
        return 2
    _print_pipe_safe(render_report(summary))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    baseline = _load_run_checked(args.baseline)
    candidate = _load_run_checked(args.candidate)
    if baseline is None or candidate is None:
        return 2
    result = compare_runs(
        baseline,
        candidate,
        span_threshold=args.span_threshold,
        metric_threshold=args.metric_threshold,
    )
    print(result.render())
    if args.fail_on_regression and result.has_regressions:
        return 1
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    if args.run is not None:
        # Chrome trace-export mode: repro trace RUN.jsonl OUT.json
        if args.out_json is None:
            print("error: trace export needs both RUN.jsonl and OUT.json",
                  file=sys.stderr)
            return 2
        try:
            events, n_skipped = read_events_tolerant(args.run)
        except OSError as err:
            print(f"error: cannot read telemetry run {args.run!r}: {err}",
                  file=sys.stderr)
            return 2
        if not events:
            print(f"error: telemetry run {args.run!r} has no events",
                  file=sys.stderr)
            return 2
        stats = write_chrome_trace(events, args.out_json)
        suffix = f", {n_skipped} malformed line(s) skipped" if n_skipped else ""
        print(
            f"wrote {stats['spans']} span(s), {stats['diags']} diag marker(s) "
            f"across {stats['lanes']} lane(s) to {args.out_json}{suffix}"
        )
        print("open in chrome://tracing or https://ui.perfetto.dev")
        return 0

    if args.out is None:
        print("error: pass RUN.jsonl OUT.json to export a Chrome trace, or "
              "--out CSV for the synthetic trending trace", file=sys.stderr)
        return 2
    trace = SyntheticYouTubeTrace(
        n_videos=args.videos, rng=np.random.default_rng(args.seed)
    )
    records = trace.generate()
    with open(args.out, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ["video_id", "category_id", "tags", "views", "likes",
             "comment_count", "description"]
        )
        for rec in records:
            writer.writerow(
                [rec.video_id, rec.category, "|".join(rec.tags), rec.views,
                 rec.likes, rec.comment_count, rec.description]
            )
    print(f"wrote {len(records)} records to {args.out}")
    return 0


def _cmd_env(args: argparse.Namespace) -> int:
    import json

    from repro.obs.registry import environment_fingerprint

    print(json.dumps(environment_fingerprint(), indent=2, sort_keys=True))
    return 0


def _cmd_runs(args: argparse.Namespace) -> int:
    from repro.obs.registry import (
        RunRegistry,
        diff_manifests,
        render_diff,
        render_manifest,
        render_runs_table,
    )
    from repro.obs.trend import find_regressions

    registry = RunRegistry(args.registry_dir)
    manifests, warnings = registry.load_all()
    for warning in warnings:
        print(f"warning: {warning}", file=sys.stderr)

    if args.runs_command == "list":
        if args.filter_command:
            manifests = [
                m for m in manifests
                if m.get("command") == args.filter_command
            ]
        if args.limit:
            manifests = manifests[-args.limit:]
        if not manifests:
            print(f"no run manifests recorded under {registry.root}")
            return 0
        _print_pipe_safe(render_runs_table(manifests))
        return 0

    if args.runs_command == "show":
        manifest = registry.find(args.ref)
        if manifest is None:
            print(f"error: no run matching {args.ref!r} in {registry.root}",
                  file=sys.stderr)
            return 2
        if args.json:
            import json

            print(json.dumps(manifest, indent=2, sort_keys=True))
        else:
            _print_pipe_safe(render_manifest(manifest))
        return 0

    if args.runs_command == "diff":
        baseline = registry.find(args.baseline)
        candidate = registry.find(args.candidate)
        for ref, manifest in ((args.baseline, baseline),
                              (args.candidate, candidate)):
            if manifest is None:
                print(f"error: no run matching {ref!r} in {registry.root}",
                      file=sys.stderr)
                return 2
        config_changes, series = diff_manifests(baseline, candidate)
        _print_pipe_safe(render_diff(
            baseline, candidate, config_changes, series, args.threshold
        ))
        if args.fail_on_regression and find_regressions(series, args.threshold):
            return 1
        return 0

    # gc
    try:
        removed = registry.gc(args.keep)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    print(f"removed {len(removed)} manifest(s), "
          f"kept {len(manifests) - len(removed)}")
    return 0


def _cmd_trend(args: argparse.Namespace) -> int:
    import glob

    from repro.obs.registry import RunRegistry
    from repro.obs.trend import (
        BenchFormatError,
        bench_series,
        find_regressions,
        load_bench_trajectory,
        registry_series,
        render_trend,
    )

    paths = args.bench if args.bench else sorted(glob.glob("BENCH_*.json"))
    series = []
    for path in paths:
        try:
            doc = load_bench_trajectory(path)
        except BenchFormatError as err:
            print(f"error: {err}", file=sys.stderr)
            return 2
        series.extend(bench_series(doc, source=os.path.basename(path)))
    if not args.no_registry:
        registry = RunRegistry(args.registry_dir)
        manifests, warnings = registry.load_all()
        for warning in warnings:
            print(f"warning: {warning}", file=sys.stderr)
        series.extend(registry_series(manifests))
    if args.metric:
        series = [s for s in series if args.metric in s.metric]
    if not series:
        print("no trend series found (no BENCH_*.json trajectories or "
              "recorded runs)")
        return 0
    _print_pipe_safe(render_trend(series, threshold=args.threshold))
    if args.fail_on_regression and find_regressions(series, args.threshold):
        return 1
    return 0


def _cmd_watch(args: argparse.Namespace) -> int:
    import json
    import time as _time

    from repro.obs.live import read_status
    from repro.obs.watch import CLEAR_SCREEN, render_status

    class _NotAStatusFile(Exception):
        pass

    def _read():
        try:
            return read_status(args.status)
        except FileNotFoundError:
            return None
        except (OSError, json.JSONDecodeError) as err:
            # Torn writes cannot happen (atomic replace); a parse error
            # means the file is not a status file at all.
            print(f"error: cannot read status file {args.status!r}: {err}",
                  file=sys.stderr)
            raise _NotAStatusFile from err

    try:
        if args.once:
            status = _read()
            if status is None:
                print(f"error: status file {args.status!r} not found",
                      file=sys.stderr)
                return 2
            print(render_status(status))
            return 0

        interval = max(0.1, float(args.interval))
        while True:
            status = _read()
            if status is None:
                print(f"waiting for {args.status} ...")
            else:
                print(CLEAR_SCREEN + render_status(status))
                if status.get("state") != "running":
                    return 0
            _time.sleep(interval)
    except _NotAStatusFile:
        return 2
    except KeyboardInterrupt:
        print()
        return 0


def _cmd_export_metrics(args: argparse.Namespace) -> int:
    from repro.obs.prometheus import render_prometheus

    summary = _load_run_checked(args.run)
    if summary is None:
        return 2
    text = render_prometheus(summary)
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote Prometheus exposition to {args.out}")
    else:
        print(text, end="")
    return 0


def _replay_comparison(
    args: argparse.Namespace,
    spec: str,
    all_names: Sequence[str],
    noun: str,
    config: MFGCPConfig,
    n_edps: int,
    rate_per_edp: float,
    alpha: float,
    canned_workload,
    make_engine,
):
    """The set-up ``serve`` and ``serve-net`` share, then the comparison.

    Parses the ``--policy`` / ``--strategy`` list ``spec`` (``all``
    names every one), builds the request stream (a ``--stream``
    generator, or the canned workload through the fixed stream), the
    observer and the executor, then ``make_engine(workload, stream=...,
    ...)`` with the options both planes take, and compares the names.
    Returns ``(engine, reports)``, or exit code 2 after printing a
    malformed-input error.
    """
    from repro.serve.stream import make_stream, stream_workload, workload_stream

    spec = spec.strip().lower()
    names = list(all_names) if spec == "all" else [
        s.strip() for s in spec.split(",") if s.strip()
    ]
    if not names:
        print(f"error: no {noun} given", file=sys.stderr)
        return 2
    geometry = dict(
        n_edps=n_edps,
        n_slots=args.slots,
        dt=config.horizon / args.slots,
        rate_per_edp=rate_per_edp,
        seed=args.seed,
        warmup_slots=args.warmup_slots,
    )
    try:
        if args.stream:
            # A workload generator replaces the canned scenario.
            stream = make_stream(
                args.stream,
                n_contents=args.contents,
                alpha=alpha,
                trace_path=args.trace_file,
                **geometry,
            )
            workload = stream_workload(stream)
        else:
            workload = canned_workload()
            stream = workload_stream(workload, **geometry)
    except (OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    telemetry = _telemetry_from_args(args)
    executor = _executor_from_args(args, telemetry)
    try:
        engine = make_engine(
            workload,
            stream=stream,
            config=config,
            capacity_fraction=args.capacity_fraction,
            shards=args.shards,
            executor=executor,
            telemetry=telemetry,
            solver_batching=args.solver_batching,
            batch_size=args.batch_size,
            stream_chunk=args.stream_chunk,
        )
        reports = engine.compare(names)
    except ValueError as err:
        _close_telemetry(args, telemetry)
        print(f"error: {err}", file=sys.stderr)
        return 2
    _close_telemetry(args, telemetry)
    return engine, reports


def _cmd_serve(args: argparse.Namespace) -> int:
    # Imported lazily: the serve stack is only needed by this command.
    from repro.content import workloads
    from repro.serve import POLICY_NAMES, ServingEngine, REPORT_HEADERS
    from repro.serve.report import comparison_rows, export_serving_reports

    def canned_workload():
        if args.workload == "video_marketplace":
            return workloads.video_marketplace(
                n_contents=args.contents, seed=args.seed
            )
        if args.workload == "traffic_information":
            return workloads.traffic_information(
                n_roads=args.contents, seed=args.seed
            )
        return workloads.news_cycle(n_contents=args.contents, seed=args.seed)[0]

    stream_state_dir = None
    if getattr(args, "checkpoint_dir", None):
        from repro.runtime.checkpoint import stream_state_dir as _state_dir

        stream_state_dir = _state_dir(args.checkpoint_dir)
    config = MFGCPConfig.fast()
    outcome = _replay_comparison(
        args, args.policy, POLICY_NAMES, "serving policy", config,
        n_edps=args.edps,
        rate_per_edp=args.requests / (config.horizon * args.edps),
        alpha=args.zipf_alpha,
        canned_workload=canned_workload,
        make_engine=partial(
            ServingEngine, n_edps=args.edps, stream_state_dir=stream_state_dir
        ),
    )
    if isinstance(outcome, int):
        return outcome
    _, reports = outcome
    workload_label = f"stream:{args.stream}" if args.stream else args.workload
    print(format_table(
        list(REPORT_HEADERS),
        comparison_rows(reports),
        title=(
            f"Serving comparison ({workload_label}, M={args.edps}, "
            f"{reports[0].requests} requests)"
        ),
    ))
    if args.out is not None:
        for path in export_serving_reports(reports, args.out):
            print(f"  wrote {path}")
    return 0


def _cmd_serve_net(args: argparse.Namespace) -> int:
    # Imported lazily: the network serve stack is only needed here.
    from repro.content.workloads import zipf_workload
    from repro.serve.net import (
        NET_REPORT_HEADERS,
        PER_NODE_HEADERS,
        STRATEGY_NAMES,
        NetworkReplayEngine,
        export_network_reports,
        network_comparison_rows,
        parse_topology,
    )

    try:
        topology = parse_topology(args.topology, seed=args.topology_seed)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    outcome = _replay_comparison(
        args, args.strategy, STRATEGY_NAMES, "placement strategy",
        MFGCPConfig.fast(),
        n_edps=args.replicas * topology.n_receivers,
        rate_per_edp=args.rate,
        alpha=args.alpha,
        canned_workload=lambda: zipf_workload(
            n_contents=args.contents,
            alpha=args.alpha,
            rate_per_edp=args.rate,
            seed=args.seed,
        ),
        make_engine=partial(
            NetworkReplayEngine,
            topology=topology,
            node_capacity_mb=args.node_capacity,
            n_replicas=args.replicas,
            queue_capacity=args.queue_capacity,
            queue_service_rate=args.queue_rate,
        ),
    )
    if isinstance(outcome, int):
        return outcome
    engine, reports = outcome
    print(format_table(
        list(NET_REPORT_HEADERS),
        network_comparison_rows(reports),
        title=(
            f"Cache-network comparison ({topology.describe()}, "
            f"{engine.node_capacity_mb:.0f} MB/node, "
            f"{reports[0].requests} requests)"
        ),
    ))
    if args.per_node:
        for report in reports:
            print(format_table(
                list(PER_NODE_HEADERS),
                report.per_node_rows(),
                title=f"Per-node breakdown — {report.strategy}",
            ))
    if args.out is not None:
        for path in export_network_reports(reports, args.out):
            print(f"  wrote {path}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    lemma1 = theory.verify_lemma1(config)
    lemma2 = theory.verify_lemma2(config)
    result = MFGCPSolver(config).solve()
    thm2 = theory.verify_theorem2(result)
    print(format_table(
        ["condition", "value"],
        [
            ("Lemma 1: control space compact", str(lemma1.control_space_compact)),
            ("Lemma 1: drift bound", lemma1.drift_bound),
            ("Lemma 1: drift Lipschitz const", lemma1.drift_lipschitz),
            ("Lemma 1: |U| bound", lemma1.utility_bound),
            ("Lemma 1: |d_q U| bound", lemma1.utility_gradient_bound),
            ("Lemma 1 satisfied", str(lemma1.satisfied)),
            ("Lemma 2: a_11", lemma2.a_diagonal),
            ("Lemma 2 satisfied", str(lemma2.satisfied)),
            ("Theorem 2: converged", str(thm2.converged)),
            ("Theorem 2: contraction rate", thm2.empirical_contraction_rate),
            ("Theorem 2: contraction observed", str(thm2.contraction_observed)),
        ],
        title="Theoretical conditions (Section IV-D), evaluated numerically",
    ))
    return 0 if (lemma1.satisfied and lemma2.satisfied and thm2.contraction_observed) else 1


def _cmd_export(args: argparse.Namespace) -> int:
    from repro.analysis.export import export_equilibrium

    config = _config_from_args(args)
    result = MFGCPSolver(config).solve()
    written = export_equilibrium(result, args.out)
    print(f"{result.report.describe()}")
    for path in written:
        print(f"  wrote {path}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    raw_argv = [str(a) for a in (sys.argv[1:] if argv is None else argv)]
    args = build_parser().parse_args(argv)
    handlers = {
        "solve": _cmd_solve,
        "simulate": _cmd_simulate,
        "experiment": _cmd_experiment,
        "report": _cmd_report,
        "compare": _cmd_compare,
        "trace": _cmd_trace,
        "serve": _cmd_serve,
        "serve-net": _cmd_serve_net,
        "env": _cmd_env,
        "runs": _cmd_runs,
        "trend": _cmd_trend,
        "watch": _cmd_watch,
        "export-metrics": _cmd_export_metrics,
        "verify": _cmd_verify,
        "export": _cmd_export,
    }
    handler = handlers[args.command]
    if args.command in RUN_COMMANDS:
        handler = _exit_on_run_failure(handler)
        if _registry_enabled(args):
            handler = _with_run_manifest(handler, raw_argv)
    spec = getattr(args, "inject_faults", None)
    if spec is None:
        return handler(args)
    try:
        install_faults(spec)
    except FaultSpecError as err:
        print(f"error: invalid --inject-faults spec: {err}", file=sys.stderr)
        return 2
    try:
        return handler(args)
    finally:
        # Faults are process-global (they ride an env var so pool
        # workers inherit them); clear so back-to-back main() calls in
        # one process — the test suite — never leak a fault plan.
        clear_faults()


if __name__ == "__main__":
    raise SystemExit(main())
