"""End-to-end benchmark of the repro stack: run, trace or compare.

Run every workload, or one, and print each end-to-end metric with its
unit; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``::

    python3 benchmarks/e2e/run.py --seed 0
    python3 benchmarks/e2e/run.py --workload serve-stream --seed 3 --seconds 15
    python3 benchmarks/e2e/run.py --seed 0 --trace --out trace.json
    python3 benchmarks/e2e/run.py --compare before.json after.json

Each workload runs in its own subprocess (a fresh ``ru_maxrss``, BLAS
pinned to one thread): set-up is repeated and its median kept, one
untimed warm-up repetition follows, then repetitions run back to back
(a closed loop, one in flight) until ``--seconds`` have been measured.
Every repetition's output is checked; a failed check or an exception
counts as a failed repetition.  ``--trace`` measures half the time
untraced, then makes one traced pass whose per-layer numbers replace
the end-to-end ones in the JSON line.  Metric names, units, directions
and bounds come from ``BENCHMARK.json`` at the repository root;
``--compare`` applies those bounds to two ``--out`` files.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
import traceback
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 170.0
# Layer metrics counted in whole units that no suffix rule names.
COUNT_METRICS = frozenset({
    "core.iterations.max", "core.iterations.mean", "serve.cells",
    "net.placement_walks", "net.placements", "net.queue_rejections",
    "net.mean_hops", "runtime.items",
})


class BenchError(Exception):
    """A run that cannot produce a result."""


def load_benchmark() -> dict:
    path = ROOT / "BENCHMARK.json"
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, ValueError) as err:
        raise BenchError(f"cannot read {path}: {err}") from None


def unit_of(name: str) -> str:
    """The unit of a per-layer metric, from its name."""
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith(".calls") or name in COUNT_METRICS:
        return "count"
    return "1"


def spread(values) -> float:
    """Interquartile range as a share of the median (0 below 2 samples)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = quantiles(values, n=4)
    return (q3 - q1) / median(values)


def peak_rss_mb() -> float:
    import resource

    peak = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak / (1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0)


class Ledger:
    """Attempted and failed repetitions, with what went wrong."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def run(self, label, fn, check):
        """Time ``fn()``; returns ``(output, seconds)`` or ``(None, None)``.

        ``check(output)`` runs outside the timed region and returns the
        problems found; any problem, or an exception, fails the attempt.
        """
        self.attempted += 1
        try:
            t0 = time.perf_counter()
            out = fn()
            seconds = time.perf_counter() - t0
            problems = check(out)
        except Exception:
            self.failed += 1
            self.problems.append(f"{label} raised:\n{traceback.format_exc()}")
            return None, None
        if problems:
            self.failed += 1
            self.problems += [f"{label}: {p}" for p in problems]
        return out, seconds


def fresh_import_s() -> float:
    """Start-up and import time of one more fresh interpreter."""
    started = time.monotonic()
    probe = subprocess.run(
        [sys.executable, "-c", "import time, workloads; print(time.monotonic())"],
        capture_output=True, text=True, check=True, cwd=HERE,
    )
    return float(probe.stdout) - started


def run_workload(name, seed, seconds, trace=False, scale="full", started=None):
    """Run one workload in this process and return its result record.

    ``started`` is the ``time.monotonic()`` reading taken just before
    this interpreter was launched; set-up time then counts start-up and
    imports, repeated in fresh interpreters like the rest of set-up.
    """
    # Imported here so the parent process never loads numpy or repro.
    from layers import Timers, pool_start_s
    from workloads import WORKLOADS

    repeats = 1 if trace else SETUP_REPEATS
    imports = [0.0] * repeats
    if started is not None:
        imports[0] = time.monotonic() - started
        imports[1:] = [fresh_import_s() for _ in imports[1:]]
    wl = WORKLOADS[name](seed, scale)
    setups = []
    for import_s in imports:
        t0 = time.perf_counter()
        wl.setup()
        setups.append(import_s + time.perf_counter() - t0)

    ledger = Ledger()
    state = {"reference": None}

    def check(out):
        problems = wl.check(out)
        fp = wl.fingerprint(out)
        if state["reference"] is None:
            state["reference"] = fp
        elif fp != state["reference"]:
            problems.append("output differs from the warm-up repetition")
        return problems

    ledger.run("warm-up", wl.warmup, check)
    budget = seconds / 2.0 if trace else seconds
    times, works, last = [], [], None
    t_start = time.perf_counter()
    while time.perf_counter() - t_start < budget or ledger.attempted < 2:
        out, dt = ledger.run(f"rep {len(times) + 1}", wl.rep, check)
        if out is not None:
            times.append(dt)
            works.append(wl.work(out))
            last = out
    if last is None:
        raise BenchError(f"{name}: every repetition raised")

    record = {
        "workload": name, "seed": seed, "scale": scale, "trace": bool(trace),
        "inputs": wl.inputs(), "work_unit": wl.work_unit,
        "work_per_rep": works[-1], "reps": len(times),
        "samples": {
            "setup_s": setups,
            "wall_s": times,
            "throughput_per_s": [w / t for w, t in zip(works, times)],
        },
    }
    if trace:
        untraced_s = median(times)
        timers = Timers()
        # Without a traced pass there are no layer numbers to report, so
        # an exception here ends the run instead of counting as a failure.
        result = wl.trace(timers, state["reference"], untraced_s)
        ledger.attempted += 1
        if result.problems:
            ledger.failed += 1
            ledger.problems += [f"traced pass: {p}" for p in result.problems]
        layers = dict(result.metrics)
        layers["runtime.pool_start_s"] = pool_start_s()
        layers["trace.wall_s"] = result.wall_s
        layers["trace.overhead_share"] = (
            result.wall_s / (result.baseline_s or untraced_s) - 1.0
        )
        record["layers"] = layers
        record["self_times"] = result.self_times
        origin = min((start for _, start, _, _ in timers.spans), default=0.0)
        record["spans"] = [
            {"name": n, "start_s": start - origin, "end_s": end - origin, "parent": parent}
            for n, start, end, parent in timers.spans
        ]
        record["counters"] = {
            n: {"s": c.s, "calls": c.calls} for n, c in sorted(timers.counters.items())
        }
    else:
        record["e2e"] = {
            "setup_s": median(setups),
            "wall_s": median(times),
            "throughput_per_s": median(record["samples"]["throughput_per_s"]),
            "peak_rss_mb": peak_rss_mb(),
            "quality_ratio": wl.quality(last),
        }
        record["quality_name"] = wl.quality_name
    record.update(
        attempted=ledger.attempted, failed=ledger.failed,
        failed_share=ledger.failed / ledger.attempted, problems=ledger.problems,
    )
    return record


def report_lines(record, bench):
    """Human-readable lines: every metric by name with its unit."""
    head = (
        f"{record['workload']}  seed={record['seed']}  scale={record['scale']}  "
        f"reps={record['reps']} (+1 warm-up)  "
        f"{record['work_per_rep']} {record['work_unit']}/rep"
    )
    lines = [head]
    if record["trace"]:
        for name in sorted(record["layers"]):
            lines.append(f"  {name:36s} {record['layers'][name]:.6g} {unit_of(name)}")
    else:
        notes = {
            "wall_s": f"median of {record['reps']} reps",
            "throughput_per_s": f"{record['work_unit']} per second",
            "quality_ratio": record["quality_name"],
        }
        for metric in bench["end_to_end"]:
            name = metric["name"]
            note = f"  ({notes[name]})" if name in notes else ""
            lines.append(
                f"  {name:36s} {record['e2e'][name]:.6g} {metric['unit']}{note}"
            )
    lines.append(
        f"  {'failed_share':36s} {record['failed_share']:.6g} 1"
        f"  ({record['failed']} of {record['attempted']} repetitions)"
    )
    lines += [f"  ! {p}" for p in record["problems"]]
    return lines


def result_object(records, bench):
    """The contract JSON line for one or more workload records."""
    def metrics_of(record):
        key = "per_layer" if record["trace"] else "end_to_end"
        values = record["layers"] if record["trace"] else record["e2e"]
        out = {}
        for metric in bench[key]:
            value = values.get(metric["name"])
            if value is None:
                # Layers a workload does not run read 0 calls and a 0
                # share; every per-layer time is measured everywhere.
                if metric["unit"] == "s":
                    raise BenchError(
                        f"{record['workload']} did not measure {metric['name']}"
                    )
                value = 0
            out[metric["name"]] = {"value": value, "unit": metric["unit"]}
        return out

    result = {
        "correct": all(r["failed"] == 0 for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
    }
    if len(records) == 1:
        result["metrics"] = metrics_of(records[0])
    else:
        result["metrics"] = {r["workload"]: metrics_of(r) for r in records}
    return result


def spawn(name, args):
    """Run one workload in a fresh subprocess; returns (lines, record)."""
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cmd = [
        sys.executable, str(HERE / "run.py"), "--child",
        "--workload", name, "--seed", str(args.seed),
        "--seconds", repr(args.seconds), "--trace", str(int(args.trace)),
        "--scale", args.scale, "--started", repr(time.monotonic()),
    ]
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
        start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{name}: no result within {CHILD_TIMEOUT_S:.0f} s") from None
    lines = stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{name}: workload process exited with {proc.returncode}")
    return lines[:-1], json.loads(lines[-1])


def judge(metric, before, after):
    """``(relative change, verdict)`` of one metric between two records."""
    name, bound = metric["name"], metric["bound"]
    old, new = before["e2e"][name], after["e2e"][name]
    change = (new - old) / old
    worse_by = change if metric["better"] == "lower" else -change
    noise = max(
        spread(before["samples"].get(name, [])),
        spread(after["samples"].get(name, [])),
    )
    if noise > bound:
        return change, "unresolved"
    if worse_by > bound:
        return change, "worse"
    if worse_by < -bound:
        return change, "better"
    return change, "within"


def compare(path_a, path_b, bench) -> int:
    """Print one row per workload; 1 when any metric got worse."""
    docs = []
    for path in (path_a, path_b):
        try:
            with open(path) as handle:
                docs.append(json.load(handle)["workloads"])
        except (OSError, ValueError, KeyError) as err:
            raise BenchError(f"cannot read results from {path}: {err}") from None
    before, after = docs
    metrics = bench["end_to_end"]
    print(f"{'workload':14s} " + " ".join(f"{m['name']:>24s}" for m in metrics))
    worse = False
    for name, old in before.items():
        new = after.get(name)
        if new is None or "e2e" not in old or "e2e" not in new:
            print(f"{name:14s} (not in both files as an untraced run)")
            continue
        cells = []
        for metric in metrics:
            change, verdict = judge(metric, old, new)
            worse |= verdict == "worse"
            cells.append(f"{change:+.1%} {verdict:>10s}")
        print(f"{name:14s} " + " ".join(f"{c:>24s}" for c in cells))
    return 1 if worse else 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="measured time per workload")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="report per-layer metrics")
    parser.add_argument("--out", help="write every record as JSON here")
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--started", type=float, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        bench = load_benchmark()
        if args.compare:
            return compare(*args.compare, bench)
        if not (ROOT / "src" / "repro" / "__init__.py").is_file():
            raise BenchError(f"no repro sources under {ROOT / 'src'}")
        names = [w["name"] for w in bench["workloads"]]
        if args.workload is not None and args.workload not in names:
            raise BenchError(f"unknown workload {args.workload!r}; expected one of {names}")
        if args.seconds is None:
            args.seconds = float(bench["run_seconds"])
        if args.child:
            record = run_workload(
                args.workload, args.seed, args.seconds, bool(args.trace),
                args.scale, args.started,
            )
            print("\n".join(report_lines(record, bench)))
            print(json.dumps(record))
            return 0
        records = []
        for name in [args.workload] if args.workload else names:
            lines, record = spawn(name, args)
            print("\n".join(lines), flush=True)
            records.append(record)
        if args.out:
            with open(args.out, "w") as handle:
                json.dump({
                    "seed": args.seed, "scale": args.scale,
                    "seconds": args.seconds, "trace": bool(args.trace),
                    "workloads": {r["workload"]: r for r in records},
                }, handle, indent=1)
        print(json.dumps(result_object(records, bench)))
        return 0
    except BenchError as err:
        print(f"run.py: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
