"""Flat-memory acceptance test for the streaming replay pipeline.

Replays over 10^6 requests through the chunked streaming engine in a
subprocess and asserts that peak RSS (``resource.getrusage``
high-water mark) is independent of the request count: a 10x longer
replay at the same chunk size may not grow peak memory beyond a small
slack factor.  Subprocess isolation matters — ``ru_maxrss`` is a
process-lifetime maximum, so the measurement must not share a process
with the rest of the suite.

Marked ``slow``; CI runs it in the stream-smoke job.
"""

import subprocess
import sys

import pytest

# Replays `n_slots` argv[1] slots at a fixed per-slot request volume and
# fixed chunk size, then prints "<requests> <ru_maxrss_kb>".  Request
# volume scales with the slot count while per-chunk memory stays
# constant, which is exactly the bounded-memory claim under test.
_REPLAY_SCRIPT = r"""
import resource
import sys

from repro.serve.engine import ServingEngine
from repro.serve.stream import ZipfStream, stream_workload

n_slots = int(sys.argv[1])
stream = ZipfStream(
    n_catalog=16,
    n_edps=8,
    n_slots=n_slots,
    dt=1.0,
    rate_per_edp=250.0,
    seed=3,
)
engine = ServingEngine(
    stream_workload(stream),
    8,
    capacity_fraction=0.3,
    stream=stream,
    stream_chunk=8,
)
report = engine.replay("lru")
peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(report.requests, peak_kb)
"""


def _measure(n_slots: int):
    proc = subprocess.run(
        [sys.executable, "-c", _REPLAY_SCRIPT, str(n_slots)],
        capture_output=True,
        text=True,
        check=True,
    )
    requests, peak_kb = proc.stdout.split()
    return int(requests), int(peak_kb)


@pytest.mark.slow
def test_peak_rss_independent_of_request_count():
    pytest.importorskip("resource")
    small_requests, small_peak = _measure(50)
    large_requests, large_peak = _measure(500)

    # The large replay really is the headline scale: 10^6+ requests.
    assert small_requests >= 90_000
    assert large_requests >= 1_000_000
    assert large_requests > 9 * small_requests

    # 10x the requests, (almost) none of the memory growth: interpreter
    # noise and allocator slack aside, peak RSS must not scale with the
    # replay length.
    assert large_peak < small_peak * 1.35, (
        f"peak RSS grew with request count: {small_peak} KB at "
        f"{small_requests} requests vs {large_peak} KB at "
        f"{large_requests} requests"
    )


@pytest.mark.slow
def test_materialized_replay_for_scale_reference():
    """The streamed path handles a horizon whose materialised chunk
    would be ~10x larger per EDP; sanity-check the chunked replay's
    request accounting against the stream's own expectation."""
    from repro.serve.stream import ZipfStream

    stream = ZipfStream(
        n_catalog=16, n_edps=8, n_slots=500, dt=1.0, rate_per_edp=250.0, seed=3
    )
    expected = stream.expected_measured_requests()
    requests, _ = _measure(500)
    assert requests == pytest.approx(expected, rel=0.01)
