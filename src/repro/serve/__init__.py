"""Request-level serving engine over EDP edge caches.

The :mod:`repro.serve` package replays a workload's request trace
against a population of EDP caches under pluggable serving policies —
classical baselines (LRU, LFU, random replacement, static
most-popular) and :class:`MFGPolicyAdapter`, which drives admission,
eviction, and refresh from the solved mean-field equilibrium.  Replays
shard per EDP through :mod:`repro.runtime` and report bit-identical
aggregates (and merged telemetry) on every backend.

Entry points: :class:`ServingEngine` in code, ``repro serve`` on the
command line, :func:`export_serving_reports` for CSV/JSON artifacts.
The :mod:`repro.serve.net` subpackage replays the same traces through
hierarchical cache *networks* (PATH/TREE/RING/MESH topologies with
on-path placement strategies) behind ``repro serve-net``.

Every replay reads its requests from the chunked :class:`RequestStream`
protocol of :mod:`repro.serve.stream`: bounded-memory generation with
per-``(EDP, slot)`` RNG keying, five workload generators (``--stream``
on the CLI), canned scenarios through :func:`workload_stream`, and
chunk-granular resume (see ``docs/serving.md``).
"""

from repro.serve.cache import CacheEntry, EdgeCache
from repro.serve.engine import (
    ReplaySpec,
    ServingEngine,
    replay_shard,
    stream_state_key,
)
from repro.serve.policies import (
    LFUPolicy,
    LRUPolicy,
    MFGPolicyAdapter,
    MostPopularPolicy,
    POLICY_NAMES,
    RandomEvictionPolicy,
    ServingPolicy,
    make_policy,
)
from repro.serve.report import (
    EDPServingStats,
    REPORT_HEADERS,
    ServingReport,
    comparison_rows,
    export_serving_reports,
)
from repro.serve.stream import (
    DiurnalStream,
    FixedPopularityStream,
    FlashCrowdStream,
    LanePopularityStream,
    RequestChunk,
    RequestStream,
    STREAM_WORKLOADS,
    ShuffledZipfStream,
    TraceStream,
    ZipfStream,
    concat_chunks,
    make_stream,
    stream_workload,
    workload_stream,
)

__all__ = [
    "CacheEntry",
    "DiurnalStream",
    "EdgeCache",
    "EDPServingStats",
    "FixedPopularityStream",
    "FlashCrowdStream",
    "LFUPolicy",
    "LanePopularityStream",
    "LRUPolicy",
    "MFGPolicyAdapter",
    "MostPopularPolicy",
    "POLICY_NAMES",
    "REPORT_HEADERS",
    "RandomEvictionPolicy",
    "ReplaySpec",
    "RequestChunk",
    "RequestStream",
    "STREAM_WORKLOADS",
    "ServingEngine",
    "ServingPolicy",
    "ServingReport",
    "ShuffledZipfStream",
    "TraceStream",
    "ZipfStream",
    "comparison_rows",
    "concat_chunks",
    "export_serving_reports",
    "make_policy",
    "make_stream",
    "replay_shard",
    "stream_state_key",
    "stream_workload",
    "workload_stream",
]
