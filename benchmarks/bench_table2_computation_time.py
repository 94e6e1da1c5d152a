"""Table II — computation time (seconds) vs number of EDPs.

Paper claims reproduced here:
* MFG-CP's per-epoch computation time is essentially flat in ``M`` —
  the mean-field solve replaces all per-EDP interactions;
* RR's and MPC's decision loops grow linearly with ``M``, so their
  advantage at small populations erodes as the system scales (the
  paper's crossover: RR overtakes MFG-CP's cost around M ~ 100 on its
  testbed; the flat-vs-linear shape is the reproduction target).

``test_batched_epoch_computation_time`` extends the table with the
solver-side axis the paper's O(K psi) remark leaves implicit: the
K-content equilibrium solve itself, one work item per content (each a
one-lane batch) vs one batched tensor sweep over the whole catalog.
Both run the same batched solver, so the comparison measures the item
grain; the recorded ``scalar_*`` keys keep their names for trend
continuity and time the per-content items.  ``epoch_s_w{1,16,64}``
time the same epoch at shard widths 1, 16 and 64, the per-width
series of the solver's own cost.  Run as a module to record that
comparison as JSON for CI trending::

    PYTHONPATH=src python benchmarks/bench_table2_computation_time.py BENCH_batch.json
"""

import sys
import time

import numpy as np

from repro.analysis import experiments
from repro.analysis.reporting import print_table
from repro.content.catalog import ContentCatalog
from repro.content.requests import RequestProcess
from repro.content.timeliness import TimelinessModel
from repro.core.parameters import MFGCPConfig
from repro.core.solver import MFGCPSolver
from repro.runtime import SerialExecutor

try:
    from conftest import run_once
except ImportError:  # running as a plain script, outside pytest
    run_once = None

BATCH_CATALOG = 64
"""Catalog size for the per-content vs batched wall-clock comparison —
small enough to keep the committed baseline cheap to regenerate,
large enough that the batched sweep's advantage is unambiguous."""

EPOCH_WIDTHS = (1, 16, BATCH_CATALOG)
"""Shard widths of the ``epoch_s`` series: per-content items, four
shards, one shard."""


def test_table2_computation_time(benchmark, bench_telemetry, bench_executor):
    sizes = (50, 100, 200, 300)
    rows = run_once(
        benchmark,
        experiments.table2_computation_time,
        population_sizes=sizes,
        telemetry=bench_telemetry if bench_telemetry.enabled else None,
        executor=bench_executor,
    )

    print("\nTable II — computation time (seconds)")
    by_scheme = {}
    for scheme, m, seconds in rows:
        by_scheme.setdefault(scheme, {})[m] = seconds
    print_table(
        ["Methods \\ Number"] + [str(m) for m in sizes],
        [
            (scheme, *(by_scheme[scheme][m] for m in sizes))
            for scheme in ("MFG-CP", "RR", "MPC")
        ],
    )

    # MFG-CP: flat in M (within noise).
    mfg = np.array([by_scheme["MFG-CP"][m] for m in sizes])
    assert mfg.max() < 2.5 * mfg.min(), f"MFG-CP should be ~flat in M: {mfg}"

    # RR and MPC: cost grows with the population.
    for scheme in ("RR", "MPC"):
        series = np.array([by_scheme[scheme][m] for m in sizes])
        assert series[-1] > 2.0 * series[0], f"{scheme} should scale with M: {series}"

    # Scaling comparison: RR's M=300/M=50 growth factor dwarfs MFG-CP's.
    rr_growth = by_scheme["RR"][300] / by_scheme["RR"][50]
    mfg_growth = by_scheme["MFG-CP"][300] / by_scheme["MFG-CP"][50]
    print(f"  growth factors M=50 -> 300: RR x{rr_growth:.1f}, MFG-CP x{mfg_growth:.1f}")
    assert rr_growth > 2.0 * mfg_growth


def _equilibria_fingerprint(results):
    """Every array an epoch result exposes, for bit-level comparison."""
    out = {}
    for res in results:
        for k, eq in res.equilibria.items():
            out[f"epoch{res.epoch}/content{k}/value"] = eq.value
            out[f"epoch{res.epoch}/content{k}/policy"] = eq.policy.table
            out[f"epoch{res.epoch}/content{k}/density"] = eq.density
            out[f"epoch{res.epoch}/content{k}/price"] = eq.mean_field.price
    return out


def _mfgcp_epoch(width=1):
    """One MFG-CP epoch over a ``BATCH_CATALOG``-content catalog.

    Inputs are rebuilt per call so the per-content and batched runs consume
    identical catalogs and request traces; returns ``(results, secs)``.
    The request rate keeps the whole catalog in the active set so the
    comparison covers every content.
    """
    rng = np.random.default_rng(0)
    catalog = ContentCatalog.from_sizes(rng.uniform(50.0, 150.0, BATCH_CATALOG))
    config = MFGCPConfig(
        n_time_steps=20, n_h=5, n_q=13, max_iterations=10, tolerance=1e-3
    )
    requests = RequestProcess(
        n_contents=BATCH_CATALOG,
        rate_per_edp=5_000.0 / config.horizon,
        timeliness_model=TimelinessModel(l_max=3.0),
        rng=np.random.default_rng(1),
    )
    solver = MFGCPSolver(config, executor=SerialExecutor())
    t0 = time.perf_counter()
    results = solver.run_epochs(
        catalog,
        requests,
        n_epochs=1,
        solver_batching=width > 1,
        batch_size=width,
    )
    return results, time.perf_counter() - t0


def measure_batched():
    """Epoch wall-clock per shard width, with the bit-identity check."""
    runs = {width: _mfgcp_epoch(width) for width in EPOCH_WIDTHS}
    scalar_results, scalar_s = runs[1]
    batched_s = runs[BATCH_CATALOG][1]

    scalar_fp = _equilibria_fingerprint(scalar_results)
    for width, (results, _) in runs.items():
        fp = _equilibria_fingerprint(results)
        assert scalar_fp.keys() == fp.keys()
        for key in scalar_fp:
            assert np.array_equal(scalar_fp[key], fp[key]), (
                f"{key} differs between per-content items and "
                f"{width}-wide shards"
            )

    n_active = len(scalar_results[0].active_contents)
    assert n_active == BATCH_CATALOG, (
        f"expected the whole catalog active, got {n_active}"
    )
    record = {
        "n_contents": BATCH_CATALOG,
        "n_active": n_active,
        "batch_size": BATCH_CATALOG,
        "n_shards": 1,
        "scalar_s": scalar_s,
        "scalar_s_per_content": scalar_s / n_active,
        "batched_s": batched_s,
        "speedup": scalar_s / batched_s if batched_s > 0 else float("inf"),
    }
    for width, (_, seconds) in runs.items():
        record[f"epoch_s_w{width}"] = seconds
    return record


def test_batched_epoch_computation_time(benchmark):
    record = run_once(benchmark, measure_batched)

    print(
        f"\nMFG-CP epoch solver — {record['n_contents']} contents, "
        "per-content items vs batched (wall-clock seconds)"
    )
    print_table(
        ["Solver", "seconds", "s / content"],
        [
            (
                "per-content items",
                record["scalar_s"],
                record["scalar_s_per_content"],
            ),
            (
                "batched (4 shards)",
                record["epoch_s_w16"],
                record["epoch_s_w16"] / record["n_contents"],
            ),
            (
                "batched (1 shard)",
                record["batched_s"],
                record["batched_s"] / record["n_contents"],
            ),
        ],
    )
    print(f"  batched speedup: x{record['speedup']:.1f}")

    # The 5x acceptance floor lives in bench_runtime_scaling (256
    # contents); this smaller catalog just has to show a clear win.
    assert record["speedup"] > 2.0, (
        f"batched epoch should clearly beat per-content items, "
        f"got x{record['speedup']:.1f}"
    )


if __name__ == "__main__":
    from repro.obs.trend import append_bench_entry

    out_path = sys.argv[1] if len(sys.argv) > 1 else "BENCH_batch.json"
    record = measure_batched()
    doc = append_bench_entry(out_path, record, bench="batch")
    widths = ", ".join(
        f"width {w} {record[f'epoch_s_w{w}']:.2f}s" for w in EPOCH_WIDTHS
    )
    print(f"{record['n_contents']} contents: {widths} (x{record['speedup']:.1f})")
    print(f"appended entry {len(doc['entries'])} to {out_path}")
