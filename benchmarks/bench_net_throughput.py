"""Cache-network replay throughput (requests/second).

Replays Zipf(1) demand (the canned Zipf workload through the ``fixed``
stream) over a 15-router binary tree under the equilibrium-driven
``mfg`` placement strategy and reports sustained
network-replay throughput.  Equilibrium solves happen outside the
timed region — the bench measures the hop-by-hop request loop (probe,
serve, placement walk, admission queues), not the solver.  The serial
and a 2-worker process backend are both timed and must produce
bit-identical aggregate reports (the ``repro.runtime`` determinism
contract on the network plane).

Run as a module to record the numbers as JSON for CI trending::

    PYTHONPATH=src python benchmarks/bench_net_throughput.py BENCH_net.json
"""

import sys
import time

from repro.content.workloads import zipf_workload
from repro.runtime import ParallelExecutor, SerialExecutor
from repro.serve import workload_stream
from repro.serve.net import NetworkReplayEngine, parse_topology

try:
    from conftest import run_once
except ImportError:  # running as a plain script, outside pytest
    run_once = None

TOPOLOGY = "tree:2x4"
N_CONTENTS = 12
N_REPLICAS = 4
N_SLOTS = 25
RATE_PER_RECEIVER = 400.0


def timed_replay(engine, strategy="mfg"):
    """One full replay under pre-solved equilibria; returns (report, secs)."""
    t0 = time.perf_counter()
    report = engine.replay(strategy)
    return report, time.perf_counter() - t0


def build(executor=None):
    workload = zipf_workload(
        n_contents=N_CONTENTS, alpha=1.0,
        rate_per_edp=RATE_PER_RECEIVER, seed=0,
    )
    topology = parse_topology(TOPOLOGY)
    stream = workload_stream(
        workload,
        n_edps=N_REPLICAS * topology.n_receivers,
        n_slots=N_SLOTS,
        dt=1.0 / N_SLOTS,
        rate_per_edp=RATE_PER_RECEIVER,
        seed=0,
    )
    engine = NetworkReplayEngine(
        workload,
        topology,
        stream=stream,
        n_replicas=N_REPLICAS,
        capacity_fraction=0.1,
        executor=executor,
    )
    engine.solve_equilibria()  # outside the timed region
    return engine


def measure():
    """Throughput on both backends plus the determinism check."""
    serial_engine = build(SerialExecutor())
    serial_report, serial_s = timed_replay(serial_engine)

    process_engine = build(ParallelExecutor(workers=2))
    process_report, process_s = timed_replay(process_engine)

    assert serial_report.summary() == process_report.summary(), (
        "serial and process:2 network replays must be bit-identical"
    )
    requests = serial_report.requests
    return {
        "requests": requests,
        "topology": TOPOLOGY,
        "n_contents": N_CONTENTS,
        "n_replicas": N_REPLICAS,
        "strategy": "mfg",
        "mfg_hit_ratio": serial_report.hit_ratio,
        "mean_hops": serial_report.mean_hops,
        "mfg_rejection_rate": serial_report.rejection_rate,
        "serial_s": serial_s,
        "serial_requests_per_s": requests / serial_s,
        "process2_s": process_s,
        "process2_requests_per_s": requests / process_s,
    }


def test_net_throughput(benchmark):
    engine = build(SerialExecutor())
    report, _ = run_once(benchmark, timed_replay, engine)
    rps = report.requests / benchmark.stats.stats.mean
    print(
        f"\nNetwork replay throughput — {report.requests} requests, "
        f"{TOPOLOGY}, mfg strategy: {rps:,.0f} req/s (serial)"
    )
    assert report.requests > 10_000
    assert rps > 5_000, f"network replay unexpectedly slow: {rps:,.0f} req/s"


if __name__ == "__main__":
    from repro.obs.trend import append_bench_entry

    out_path = sys.argv[1] if len(sys.argv) > 1 else "BENCH_net.json"
    record = measure()
    doc = append_bench_entry(out_path, record, bench="net")
    print(
        f"{record['requests']} requests: "
        f"serial {record['serial_requests_per_s']:,.0f} req/s, "
        f"process:2 {record['process2_requests_per_s']:,.0f} req/s"
    )
    print(f"appended entry {len(doc['entries'])} to {out_path}")
