"""Shared fixtures for the benchmark suite.

Each bench regenerates one figure or table of the paper's evaluation
section (see DESIGN.md §4) and prints the same rows/series the paper
reports.  Benches that only need the default single-content
equilibrium share one session-scoped solve.

Telemetry
---------
Run the suite with ``--telemetry-dir DIR`` to let benches that request
the ``bench_telemetry`` fixture stream per-stage timings to
``DIR/<bench-name>.jsonl`` — machine-readable span trees and iteration
events next to the printed output (summarise with
``python -m repro.cli report DIR/<bench-name>.jsonl``).  Without the
flag the fixture is the shared null observer and costs nothing.

BENCH trajectory format
-----------------------
The committed ``BENCH_*.json`` files are **append-only trajectories**,
not overwrite-in-place snapshots.  Each file is a JSON object::

    {
      "schema": 1,
      "bench": "serve",                  # short bench name
      "entries": [                       # oldest first
        {
          "git_sha": "3cc5e61...",        # HEAD when recorded (null if
          "dirty": false,                #   recorded outside a work tree)
          "recorded_at": "2026-08-07T12:00:00+00:00",
          "metrics": {"serial_requests_per_s": 4048437.5, "...": 0}
        }
      ]
    }

Bench ``__main__`` blocks append one entry per invocation through
:func:`append_bench_record` (a thin wrapper over
``repro.obs.trend.append_bench_entry``).  ``repro trend`` folds the
entries into per-metric time series and gates the newest entry
against the history; a file in any other shape (a flat metrics dict
included) exits 2.  See ``docs/observability.md`` ("Run registry & trends").
"""

import os

import pytest

from repro.analysis import experiments
from repro.obs import NULL_TELEMETRY, SolverTelemetry
from repro.runtime import make_executor


def pytest_addoption(parser):
    parser.addoption(
        "--telemetry-dir",
        default=None,
        help="write per-bench telemetry JSONL files into this directory",
    )
    parser.addoption(
        "--runtime-backend",
        default="serial",
        help="execution backend for benches that fan work out "
             "('serial' or 'process[:N]'; results are bit-identical)",
    )
    parser.addoption(
        "--batch-sizes",
        default="64,256",
        help="comma list of batched-solver shard widths for the "
             "batch-size axis of bench_runtime_scaling "
             "(the full-catalog single-shard width is always included)",
    )


@pytest.fixture(scope="session")
def equilibrium():
    """The default-config equilibrium shared by Figs. 4, 5 and 9."""
    return experiments.solve_equilibrium()


@pytest.fixture
def bench_executor(request):
    """The executor implied by ``--runtime-backend`` (serial by default)."""
    return make_executor(request.config.getoption("--runtime-backend"))


@pytest.fixture
def batch_sizes(request):
    """The batched-solver shard widths from ``--batch-sizes``."""
    spec = request.config.getoption("--batch-sizes")
    sizes = sorted({int(part) for part in spec.split(",") if part.strip()})
    if not sizes or any(size <= 0 for size in sizes):
        raise pytest.UsageError(
            f"--batch-sizes needs positive integers, got {spec!r}"
        )
    return sizes


@pytest.fixture
def bench_telemetry(request):
    """A per-bench telemetry observer (null unless --telemetry-dir given)."""
    directory = request.config.getoption("--telemetry-dir")
    if directory is None:
        yield NULL_TELEMETRY
        return
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{request.node.name}.jsonl")
    telemetry = SolverTelemetry.to_jsonl(path)
    yield telemetry
    telemetry.close()


def run_once(benchmark, fn, *args, **kwargs):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


def append_bench_record(path, metrics, bench=None):
    """Append one measurement to an append-only BENCH trajectory.

    See the module docstring for the file format.  Returns the full
    trajectory document after the append (atomic tmp+fsync+replace).
    """
    from repro.obs.trend import append_bench_entry

    return append_bench_entry(path, metrics, bench=bench)
