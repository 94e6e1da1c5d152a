"""Serving-engine replay throughput (requests/second).

Two measurements, one trend record:

* **Canned-scenario replay** — a contended video-marketplace trace
  (~100k requests over 8 EDPs, replayed through the ``fixed`` stream)
  under the equilibrium-driven ``mfg`` policy.  Equilibrium solves
  happen outside the timed region — the bench measures the request
  loop, not the solver.
* **Zipf replay (headline)** — the chunked bounded-memory pipeline at
  acceptance scale: 10^7+ requests across 10^3+ EDPs, replayed
  serially and on a 2-worker process backend, with process-lifetime
  peak RSS recorded alongside the throughput (``peak_rss_mb``).  The
  request volume is ~100x the canned-scenario bench; peak memory must
  not follow it.

Both measurements time the serial and 2-worker process backends and
assert bit-identical aggregate reports (the ``repro.runtime``
determinism contract on the serving plane).

Run as a module to record the numbers as JSON for CI trending::

    PYTHONPATH=src python benchmarks/bench_serve_throughput.py BENCH_serve.json
"""

import resource
import sys
import time

from repro.content.workloads import video_marketplace
from repro.core.parameters import MFGCPConfig
from repro.runtime import ParallelExecutor, SerialExecutor
from repro.serve import ServingEngine, ZipfStream, stream_workload, workload_stream

try:
    from conftest import run_once
except ImportError:  # running as a plain script, outside pytest
    run_once = None

N_EDPS = 8
N_CONTENTS = 8
N_SLOTS = 20
TOTAL_REQUESTS = 100_000

# Streaming headline: >= 10^7 requests over >= 10^3 EDPs (the
# bounded-memory acceptance scale).  1024 EDPs x 20 slots x 500 req/slot
# ~= 10.24M expected requests, replayed 8 slots per chunk.
STREAM_N_EDPS = 1024
STREAM_N_CONTENTS = 16
STREAM_N_SLOTS = 20
STREAM_RATE_PER_EDP = 500.0
STREAM_CHUNK_SLOTS = 8


def timed_replay(engine, policy="mfg"):
    """One full replay under pre-solved equilibria; returns (report, secs)."""
    t0 = time.perf_counter()
    report = engine.replay(policy)
    return report, time.perf_counter() - t0


def build(executor=None):
    workload = video_marketplace(n_contents=N_CONTENTS, seed=11)
    config = MFGCPConfig.fast()
    stream = workload_stream(
        workload,
        n_edps=N_EDPS,
        n_slots=N_SLOTS,
        dt=config.horizon / N_SLOTS,
        rate_per_edp=TOTAL_REQUESTS / (config.horizon * N_EDPS),
        seed=0,
    )
    engine = ServingEngine(
        workload,
        N_EDPS,
        stream=stream,
        config=config,
        stream_chunk=STREAM_CHUNK_SLOTS,
        executor=executor,
    )
    engine.solve_equilibria()  # outside the timed region
    return engine


def build_stream(executor=None, n_edps=STREAM_N_EDPS, n_slots=STREAM_N_SLOTS,
                 rate_per_edp=STREAM_RATE_PER_EDP):
    stream = ZipfStream(
        n_catalog=STREAM_N_CONTENTS,
        n_edps=n_edps,
        n_slots=n_slots,
        dt=1.0,
        rate_per_edp=rate_per_edp,
        seed=0,
    )
    return ServingEngine(
        stream_workload(stream),
        n_edps,
        capacity_fraction=0.3,
        stream=stream,
        stream_chunk=STREAM_CHUNK_SLOTS,
        executor=executor,
    )


def peak_rss_mb():
    """Process-lifetime resident high-water mark, in MB.

    ``ru_maxrss`` is kilobytes on Linux, bytes on macOS.
    """
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":
        peak /= 1024
    return peak / 1024


def measure():
    """Throughput on both backends plus the determinism check."""
    serial_engine = build(SerialExecutor())
    serial_report, serial_s = timed_replay(serial_engine)

    process_engine = build(ParallelExecutor(workers=2))
    process_report, process_s = timed_replay(process_engine)

    assert serial_report.summary() == process_report.summary(), (
        "serial and process:2 replays must be bit-identical"
    )
    requests = serial_report.requests
    return {
        "requests": requests,
        "n_edps": N_EDPS,
        "n_contents": N_CONTENTS,
        "n_slots": N_SLOTS,
        "policy": "mfg",
        "mfg_hit_ratio": serial_report.hit_ratio,
        "serial_s": serial_s,
        "serial_requests_per_s": requests / serial_s,
        "process2_s": process_s,
        "process2_requests_per_s": requests / process_s,
    }


def measure_stream():
    """Headline streaming replay: 10^7+ requests, 10^3+ EDPs, flat RSS."""
    serial_report, serial_s = timed_replay(build_stream(SerialExecutor()), "lru")
    process_report, process_s = timed_replay(
        build_stream(ParallelExecutor(workers=2)), "lru"
    )
    assert serial_report.summary() == process_report.summary(), (
        "serial and process:2 streaming replays must be bit-identical"
    )
    requests = serial_report.requests
    assert requests >= 10_000_000, f"headline below 10^7 requests: {requests}"
    assert STREAM_N_EDPS >= 1_000
    return {
        "stream_requests": requests,
        "stream_n_edps": STREAM_N_EDPS,
        "stream_chunk_slots": STREAM_CHUNK_SLOTS,
        "stream_hit_ratio": serial_report.hit_ratio,
        "stream_serial_s": serial_s,
        "stream_serial_requests_per_s": requests / serial_s,
        "stream_process2_s": process_s,
        "stream_process2_requests_per_s": requests / process_s,
        "peak_rss_mb": peak_rss_mb(),
    }


def test_serve_throughput(benchmark):
    engine = build(SerialExecutor())
    report, _ = run_once(benchmark, timed_replay, engine)
    rps = report.requests / benchmark.stats.stats.mean
    print(
        f"\nServing throughput — {report.requests} requests, "
        f"{N_EDPS} EDPs, mfg policy: {rps:,.0f} req/s (serial)"
    )
    assert report.requests > 10_000
    assert rps > 10_000, f"replay unexpectedly slow: {rps:,.0f} req/s"


def test_stream_throughput(benchmark):
    # A scaled-down streamed replay for the pytest-benchmark path; the
    # full 10^7-request headline runs in the __main__ trend recording.
    engine = build_stream(SerialExecutor(), n_edps=64, rate_per_edp=100.0)
    report, _ = run_once(benchmark, timed_replay, engine, "lru")
    rps = report.requests / benchmark.stats.stats.mean
    print(
        f"\nStreaming throughput — {report.requests} requests, "
        f"64 EDPs, lru policy: {rps:,.0f} req/s (serial, chunked)"
    )
    assert report.requests > 100_000
    assert rps > 50_000, f"streamed replay unexpectedly slow: {rps:,.0f} req/s"


if __name__ == "__main__":
    from repro.obs.trend import append_bench_entry

    out_path = sys.argv[1] if len(sys.argv) > 1 else "BENCH_serve.json"
    record = measure()
    record.update(measure_stream())
    doc = append_bench_entry(out_path, record, bench="serve")
    print(
        f"{record['requests']} requests: "
        f"serial {record['serial_requests_per_s']:,.0f} req/s, "
        f"process:2 {record['process2_requests_per_s']:,.0f} req/s"
    )
    print(
        f"{record['stream_requests']} streamed requests over "
        f"{record['stream_n_edps']} EDPs: "
        f"serial {record['stream_serial_requests_per_s']:,.0f} req/s, "
        f"process:2 {record['stream_process2_requests_per_s']:,.0f} req/s, "
        f"peak RSS {record['peak_rss_mb']:.0f} MB"
    )
    print(f"appended entry {len(doc['entries'])} to {out_path}")
