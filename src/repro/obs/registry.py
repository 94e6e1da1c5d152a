"""Run provenance registry: schema-versioned manifests for every run.

Telemetry answers *what happened inside* a run; this module answers
*which run was that* — after the fact, across weeks of runs.  Every
CLI run (``solve``, ``simulate``, ``experiment``, ``serve``,
``serve-net``) appends one **RunManifest** to an append-only store
under ``.repro/runs/``: a deterministic run id, the full config
snapshot and its hash, the CLI argv, an environment fingerprint
(python/numpy/platform, git SHA + dirty flag), the SeedSequence
lineage of every execution plan, wall time, exit status, artifact
paths, and headline metrics pulled from the telemetry stream.

Manifests are written with the checkpoint store's atomic discipline
(write to a temp file, ``fsync``, ``os.replace``) so a crash can
never leave a torn file, and the writer is a pure *side channel* —
exactly like the ``--live-status`` writer, it reads the finished
telemetry but never emits events into it, so the normalized stream
stays bit-identical serial vs ``process:N`` with the registry on.

On top of the store: ``repro runs list|show|diff|gc`` (diff judges
headline metrics with :mod:`repro.obs.trend`'s direction rule) and
``repro trend``.  Opt out per run with ``--no-registry``,
per environment with ``REPRO_REGISTRY=0``; relocate the store with
``--registry-dir`` or ``REPRO_REGISTRY_DIR``.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
from typing import Any, Dict, List, Optional, Sequence, Tuple

MANIFEST_SCHEMA_VERSION = 1

DEFAULT_REGISTRY_DIR = os.path.join(".repro", "runs")

#: Environment override for the registry root directory.
REGISTRY_DIR_ENV = "REPRO_REGISTRY_DIR"

#: Set to ``0``/``false``/``no``/``off`` to disable manifest writing.
REGISTRY_ENABLE_ENV = "REPRO_REGISTRY"

#: Manifest fields measured per run — two otherwise-identical runs
#: differ only here (:func:`manifest_identity` strips them).
MEASURED_MANIFEST_FIELDS = ("seq", "started_at", "wall_s", "path")

#: Headline-metric keys derived from wall time, measured per run.
MEASURED_METRIC_KEYS = ("requests_per_s",)

_RUN_ID_HEX = 12


def _git(*argv: str) -> Optional[str]:
    """Output of one git command, or ``None`` outside a work tree."""
    try:
        out = subprocess.run(
            ("git",) + argv,
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip()


def environment_fingerprint() -> Dict[str, Any]:
    """The machine/toolchain/code facts a manifest pins a run to.

    Everything is best-effort: outside a git work tree the git fields
    are ``None``, without scipy its version is ``None`` — the
    fingerprint never raises.
    """
    try:
        import numpy

        numpy_version: Optional[str] = numpy.__version__
    except Exception:  # pragma: no cover - numpy is a hard dep
        numpy_version = None
    try:
        import scipy

        scipy_version: Optional[str] = scipy.__version__
    except Exception:
        scipy_version = None
    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain") if sha is not None else None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "numpy": numpy_version,
        "scipy": scipy_version,
        "git_sha": sha,
        "git_dirty": bool(status) if status is not None else None,
    }


def _canonical(doc: Any) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), default=str)


def compute_run_id(command: str, argv: Sequence[str], config: Any) -> str:
    """Deterministic run id: identical invocations share one id.

    The id hashes *what was asked for* (command, argv, config
    snapshot), never what was measured — rerunning the same command
    yields the same id, and the per-append ``seq`` distinguishes the
    attempts.
    """
    payload = _canonical({"command": command, "argv": list(argv), "config": config})
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:_RUN_ID_HEX]


def config_hash(config: Any) -> str:
    """Short content hash of a config snapshot."""
    return hashlib.sha256(_canonical(config).encode("utf-8")).hexdigest()[:_RUN_ID_HEX]


def headline_metrics(
    metrics_snapshot: Dict[str, Dict[str, Any]], wall_s: Optional[float] = None
) -> Dict[str, float]:
    """Fold a metrics-registry snapshot into the manifest headlines.

    Pulls the handful of numbers regressions are judged by: request
    volume and hit ratio (single-cache ``serve.*`` or network
    ``net.*``), the final best-response policy change (the
    exploitability proxy), iteration count, and ``diag.*`` severity
    tallies.  ``requests_per_s`` is derived from ``wall_s`` and is the
    one *measured* headline (see :data:`MEASURED_METRIC_KEYS`).
    """

    def value(name: str) -> Optional[float]:
        entry = metrics_snapshot.get(name)
        if isinstance(entry, dict) and isinstance(entry.get("value"), (int, float)):
            return float(entry["value"])
        return None

    out: Dict[str, float] = {}
    for requests_name, hits_name in (
        ("serve.requests", "serve.hits"),
        ("net.requests", "net.cache_hits"),
    ):
        requests = value(requests_name)
        hits = value(hits_name)
        if requests:
            out["requests"] = requests
            if hits is not None:
                out["hit_ratio"] = hits / requests
            if wall_s:
                out["requests_per_s"] = requests / wall_s
            break
    exploitability = value("solver.final_policy_change")
    if exploitability is not None:
        out["exploitability"] = exploitability
    n_iterations = value("solver.n_iterations")
    if n_iterations is not None:
        out["n_iterations"] = n_iterations
    for severity in ("findings", "info", "warning", "error"):
        count = value(f"diag.{severity}")
        if count is not None:
            out[f"diag_{severity}"] = count
    return out


def _atomic_write_json(path: str, doc: Any) -> None:
    """Checkpoint-discipline JSON write: temp file, fsync, replace."""
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, indent=2, sort_keys=True, default=str)
            handle.write("\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def build_manifest(
    *,
    command: str,
    argv: Sequence[str],
    config: Any,
    status: str,
    exit_code: Optional[int],
    started_at: str,
    wall_s: float,
    seeds: Optional[Dict[str, Any]] = None,
    artifacts: Optional[Dict[str, str]] = None,
    metrics: Optional[Dict[str, float]] = None,
) -> Dict[str, Any]:
    """Assemble one schema-versioned RunManifest document."""
    return {
        "schema": MANIFEST_SCHEMA_VERSION,
        "run_id": compute_run_id(command, argv, config),
        "command": command,
        "argv": list(argv),
        "status": status,
        "exit_code": exit_code,
        "started_at": started_at,
        "wall_s": wall_s,
        "config": config,
        "config_hash": config_hash(config),
        "environment": environment_fingerprint(),
        "seeds": seeds or {},
        "artifacts": artifacts or {},
        "metrics": metrics or {},
    }


def manifest_identity(manifest: Dict[str, Any]) -> Dict[str, Any]:
    """A manifest minus its measured fields.

    Two runs of the same command on the same code are *identical*
    exactly when their identities compare equal — this is the
    determinism contract ``tests/test_cli_registry.py`` pins.
    """
    identity = {
        k: v for k, v in manifest.items() if k not in MEASURED_MANIFEST_FIELDS
    }
    metrics = identity.get("metrics")
    if isinstance(metrics, dict):
        identity["metrics"] = {
            k: v for k, v in metrics.items() if k not in MEASURED_METRIC_KEYS
        }
    return identity


class RunRegistry:
    """The append-only manifest store under ``.repro/runs/``.

    Filenames are ``{seq:06d}-{run_id}.json``: ``seq`` is a
    monotonically increasing append counter (ordering), ``run_id`` the
    deterministic invocation hash (identity).  Reading is tolerant —
    a truncated or garbage file yields a warning string, never an
    exception, so one corrupt manifest cannot brick ``repro runs``.
    """

    def __init__(self, root: Optional[str] = None) -> None:
        if root is None:
            root = os.environ.get(REGISTRY_DIR_ENV) or DEFAULT_REGISTRY_DIR
        self.root = root

    # -- writing ----------------------------------------------------

    def append(self, manifest: Dict[str, Any]) -> str:
        """Atomically add a manifest; returns the path written."""
        os.makedirs(self.root, exist_ok=True)
        seq = self._next_seq()
        manifest = dict(manifest)
        manifest["seq"] = seq
        path = os.path.join(
            self.root, f"{seq:06d}-{manifest.get('run_id', 'unknown')}.json"
        )
        _atomic_write_json(path, manifest)
        return path

    def _next_seq(self) -> int:
        highest = 0
        try:
            names = os.listdir(self.root)
        except OSError:
            names = []
        for name in names:
            head = name.split("-", 1)[0]
            if head.isdigit():
                highest = max(highest, int(head))
        return highest + 1

    # -- reading ----------------------------------------------------

    def load_all(self) -> Tuple[List[Dict[str, Any]], List[str]]:
        """All readable manifests (by ``seq``), plus skip warnings."""
        manifests: List[Dict[str, Any]] = []
        warnings: List[str] = []
        try:
            names = sorted(os.listdir(self.root))
        except OSError:
            return [], []
        for name in names:
            if not name.endswith(".json"):
                continue
            path = os.path.join(self.root, name)
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    doc = json.load(handle)
            except (OSError, ValueError) as err:
                warnings.append(f"skipping unreadable manifest {path!r}: {err}")
                continue
            if not isinstance(doc, dict) or "run_id" not in doc:
                warnings.append(
                    f"skipping malformed manifest {path!r}: not a manifest object"
                )
                continue
            schema = doc.get("schema")
            if not isinstance(schema, int) or schema > MANIFEST_SCHEMA_VERSION:
                warnings.append(
                    f"skipping manifest {path!r}: unsupported schema {schema!r}"
                )
                continue
            doc.setdefault("seq", self._seq_of(name))
            doc["path"] = path
            manifests.append(doc)
        manifests.sort(key=lambda m: (m.get("seq") or 0, m.get("path", "")))
        return manifests, warnings

    @staticmethod
    def _seq_of(name: str) -> Optional[int]:
        head = name.split("-", 1)[0]
        return int(head) if head.isdigit() else None

    def find(self, ref: str) -> Optional[Dict[str, Any]]:
        """Resolve a run reference: a ``seq`` number or run-id prefix.

        Run ids repeat across re-runs of the same invocation, so a
        prefix match returns the *newest* matching manifest.
        """
        manifests, _ = self.load_all()
        ref = ref.strip()
        if ref.isdigit():
            seq = int(ref)
            for manifest in manifests:
                if manifest.get("seq") == seq:
                    return manifest
            return None
        for manifest in reversed(manifests):
            run_id = str(manifest.get("run_id", ""))
            if run_id.startswith(ref):
                return manifest
        return None

    # -- pruning ----------------------------------------------------

    def gc(self, keep: int) -> List[str]:
        """Prune oldest manifests, keeping the newest ``keep``.

        The newest manifest whose status is not ``"ok"`` is always
        retained even when it falls outside the keep window — the
        evidence of the latest failure must survive a routine gc.
        Each removal is a single ``os.remove`` (atomic per file), so
        an interrupted gc leaves a smaller-but-valid registry.
        """
        if keep < 0:
            raise ValueError(f"gc keep must be >= 0, got {keep}")
        manifests, _ = self.load_all()
        kept = set()
        if keep:
            kept.update(m["path"] for m in manifests[-keep:])
        for manifest in reversed(manifests):
            if manifest.get("status") != "ok":
                kept.add(manifest["path"])
                break
        removed = []
        for manifest in manifests:
            path = manifest["path"]
            if path in kept:
                continue
            try:
                os.remove(path)
            except OSError:
                continue
            removed.append(path)
        return removed


def diff_manifests(baseline: Dict[str, Any], candidate: Dict[str, Any]):
    """What changed between two runs: config exactly, metrics by trend.

    Returns ``(config_changes, series)`` where ``config_changes`` is a
    list of ``(dotted_key, baseline_value, candidate_value)`` tuples
    (every leaf compared exactly — a config is identity, not a
    measurement) and ``series`` holds one two-point
    :class:`~repro.obs.trend.TrendSeries` per headline metric, gated
    by :func:`~repro.obs.trend.metric_direction`.  A metric only one
    side recorded yields a one-point series that never gates.
    """
    from repro.obs.trend import bench_series

    a_flat = _flatten_leaves(baseline.get("config"))
    b_flat = _flatten_leaves(candidate.get("config"))
    config_changes = [
        (key, a_flat.get(key), b_flat.get(key))
        for key in sorted(set(a_flat) | set(b_flat))
        if a_flat.get(key) != b_flat.get(key)
    ]
    entries = [{"metrics": m.get("metrics") or {}} for m in (baseline, candidate)]
    return config_changes, bench_series({"entries": entries}, "headline metrics")


def _flatten_leaves(doc: Any, prefix: str = "") -> Dict[str, Any]:
    """Dot-path every leaf (any JSON type, not just numbers)."""
    flat: Dict[str, Any] = {}
    if isinstance(doc, dict):
        for key, value in doc.items():
            flat.update(_flatten_leaves(value, f"{prefix}{key}."))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            flat.update(_flatten_leaves(value, f"{prefix}{i}."))
    else:
        flat[prefix[:-1]] = doc
    return flat


# -- rendering ------------------------------------------------------


def render_runs_table(manifests: List[Dict[str, Any]]) -> str:
    """The ``repro runs list`` table, newest first."""
    from repro.analysis.reporting import format_table

    rows = []
    for manifest in reversed(manifests):
        metrics = manifest.get("metrics") or {}
        headline = ""
        if "hit_ratio" in metrics:
            headline = f"hit_ratio={metrics['hit_ratio']:.4f}"
        elif "exploitability" in metrics:
            headline = f"exploitability={metrics['exploitability']:.3g}"
        env = manifest.get("environment") or {}
        sha = env.get("git_sha")
        rows.append(
            (
                manifest.get("seq", "?"),
                str(manifest.get("run_id", ""))[:12],
                manifest.get("command", "?"),
                manifest.get("status", "?"),
                f"{manifest.get('wall_s', 0.0):.2f}",
                (sha[:9] + ("+" if env.get("git_dirty") else "")) if sha else "-",
                str(manifest.get("started_at", ""))[:19],
                headline,
            )
        )
    return format_table(
        ["seq", "run id", "command", "status", "wall s", "git", "started (UTC)",
         "headline"],
        rows,
        title=f"run registry ({len(manifests)} manifest(s))",
    )


def render_manifest(manifest: Dict[str, Any]) -> str:
    """The ``repro runs show`` report for one manifest."""
    from repro.analysis.reporting import format_table

    env = manifest.get("environment") or {}
    seeds = manifest.get("seeds") or {}
    lines = [
        f"run {manifest.get('seq', '?')} · {manifest.get('run_id', '?')}",
        f"  command      : repro {' '.join(manifest.get('argv') or [])}",
        f"  status       : {manifest.get('status', '?')} "
        f"(exit {manifest.get('exit_code')})",
        f"  started (UTC): {manifest.get('started_at', '?')}",
        f"  wall time    : {manifest.get('wall_s', 0.0):.3f} s",
        f"  config hash  : {manifest.get('config_hash', '?')}",
        "  environment  : python {python} · numpy {numpy} · {platform}".format(
            python=env.get("python", "?"),
            numpy=env.get("numpy", "?"),
            platform=env.get("platform", "?"),
        ),
        "  git          : {sha}{dirty}".format(
            sha=env.get("git_sha") or "(not a work tree)",
            dirty=" (dirty)" if env.get("git_dirty") else "",
        ),
    ]
    if seeds.get("n_plans"):
        lines.append(
            "  seed lineage : {plans} plan(s), {items} item(s), "
            "{seeded} seeded".format(
                plans=seeds.get("n_plans"),
                items=seeds.get("total_items"),
                seeded=seeds.get("total_seeded"),
            )
        )
        for detail in seeds.get("plans") or []:
            if "entropy" not in detail:
                continue
            lines.append(
                "    entropy {entropy} spawn {first}..{last} "
                "({n} item(s): {labels}...)".format(
                    entropy=detail["entropy"],
                    first=detail.get("spawn_key_first"),
                    last=detail.get("spawn_key_last"),
                    n=detail.get("n_items"),
                    labels=", ".join(detail.get("labels") or []),
                )
            )
    artifacts = manifest.get("artifacts") or {}
    for name, path in sorted(artifacts.items()):
        lines.append(f"  artifact     : {name} = {path}")
    metrics = manifest.get("metrics") or {}
    if metrics:
        lines.append("")
        lines.append(
            format_table(
                ["metric", "value"],
                [(name, f"{value:.6g}") for name, value in sorted(metrics.items())],
                title="headline metrics",
            )
        )
    return "\n".join(lines)


def render_diff(
    baseline: Dict[str, Any],
    candidate: Dict[str, Any],
    config_changes,
    series,
    threshold: float,
) -> str:
    """The ``repro runs diff`` report: config changes, then the
    headline series through :func:`~repro.obs.trend.render_trend`."""
    from repro.obs.trend import render_trend

    lines = [
        "run diff: {a_seq} · {a_id} ({a_cmd})  vs  "
        "{b_seq} · {b_id} ({b_cmd})".format(
            a_seq=baseline.get("seq", "?"),
            a_id=str(baseline.get("run_id", ""))[:12],
            a_cmd=baseline.get("command", "?"),
            b_seq=candidate.get("seq", "?"),
            b_id=str(candidate.get("run_id", ""))[:12],
            b_cmd=candidate.get("command", "?"),
        ),
        "",
        f"config changes ({len(config_changes)}):",
    ]
    if config_changes:
        for key, a_val, b_val in config_changes:
            lines.append(f"  {key}: {a_val!r} -> {b_val!r}")
    else:
        lines.append("  (none — identical config hashes)" if
                     baseline.get("config_hash") == candidate.get("config_hash")
                     else "  (none)")
    lines.append("")
    lines.append(render_trend(series, threshold=threshold))
    return "\n".join(lines)
