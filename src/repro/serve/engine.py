"""The request-level serving engine: sharded, chunked trace replay.

:class:`ServingEngine` replays a :class:`~repro.serve.stream.RequestStream`
(a synthetic generator, or a :mod:`repro.content.workloads` scenario
through :func:`~repro.serve.stream.workload_stream`) against a
population of EDP edge caches under a pluggable
:class:`~repro.serve.policies.ServingPolicy`, and reports the serving
outcomes the paper's evaluation never measures directly: hit ratio,
staleness-violation rate, mean retrieval latency, backhaul volume, and
per-request trading revenue.

Execution shape
---------------
Replay is embarrassingly parallel per EDP: every EDP owns its cache
and its counters, and every ``(EDP, slot)`` cell of the stream owns its
RNG.  The engine groups EDPs into shards and submits one
:class:`~repro.runtime.ExecutionPlan` work item per shard; each shard
replays its EDPs one bounded-memory chunk at a time.  Results and
merged telemetry are bit-identical across ``serial`` and any
``process:N`` backend, across shard counts, and across chunk sizes.

The driver around the work item is :class:`ReplayEngine`, shared with
the network plane's :class:`~repro.serve.net.engine.NetworkReplayEngine`:
constructor checks, the equilibrium fan-out, the shard plan, live
progress, the dropped-shard warning and ``compare``.  Each plane adds
its work item, its replay recipe, its policy or strategy builder and
its report fold, and names what it emits as class data.

Serving semantics (documented in ``docs/serving.md``)
-----------------------------------------------------
* A request for a cached content is a **hit**: served at the edge
  wireless rate; the copy's age is checked against the request's
  timeliness tolerance ``(L_max - L) / L_max * update_period`` and a
  **staleness violation** is counted when the copy is older.
* A request for an uncached content is a **miss**: served from the
  cloud over the backhaul (fresh, slower, backhaul bytes counted).
  The policy then decides once per missed batch whether to admit the
  content, evicting victims of its choice until the copy fits.
* Every served request earns the slot's trading price times the
  content size (Eq. (6) with the mean-field price path when an
  equilibrium is available, the flat ``p_hat`` otherwise); backhaul
  cost ``eta2 / H_c`` per byte is charged against it in the report.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.content.workloads import Workload
from repro.core.equilibrium import EquilibriumResult
from repro.core.parameters import MFGCPConfig
from repro.core.solver import fan_out_equilibria
from repro.obs.telemetry import NULL_TELEMETRY, SolverTelemetry
from repro.runtime import ExecutionPlan, ExecutorLike, as_executor, partition_indices
from repro.runtime.checkpoint import atomic_write_bytes
from repro.serve.cache import EdgeCache
from repro.serve.policies import ServingPolicy, make_policy
from repro.serve.report import EDPServingStats, ServingReport
from repro.serve.stream import RequestStream
from repro.testing.faults import active_fault_plan


@dataclass(frozen=True)
class ReplaySpec:
    """Everything one shard needs to replay its EDPs (picklable).

    Attributes
    ----------
    stream:
        The :class:`~repro.serve.stream.RequestStream` every EDP's
        requests, policy draws and trace geometry come from.
    sizes_mb, update_periods:
        Catalog geometry per content.
    capacity_mb:
        Per-EDP edge storage.
    l_max:
        Upper bound of the timeliness requirement range (fixes the
        staleness tolerance map).
    hit_latency_s, miss_latency_s:
        Per-content retrieval latencies: edge wireless serve vs
        cloud-then-edge serve (from :class:`repro.network.rate.RateModel`
        and the backhaul rate ``H_c``).
    price:
        Trading price per slot and content, shape
        ``(n_slots, n_contents)``.
    eta2, backhaul_rate:
        Backhaul cost constants carried into the report.
    chunk_slots:
        Replay chunk size in slots; ``0`` replays the whole trace as
        one chunk.  Pure memory/progress grain — results are
        bit-identical across every value.
    stream_state_root:
        Optional directory for chunk-granular resume state (one small
        file per (policy, EDP)); ``None`` disables mid-item resume.
    """

    stream: RequestStream
    sizes_mb: Tuple[float, ...]
    update_periods: Tuple[float, ...]
    capacity_mb: float
    l_max: float
    hit_latency_s: Tuple[float, ...]
    miss_latency_s: Tuple[float, ...]
    price: np.ndarray
    eta2: float
    backhaul_rate: float
    chunk_slots: int = 0
    stream_state_root: Optional[str] = None

    def __post_init__(self) -> None:
        k = self.stream.n_contents
        for name in ("sizes_mb", "update_periods", "hit_latency_s", "miss_latency_s"):
            if len(getattr(self, name)) != k:
                raise ValueError(
                    f"{name} has {len(getattr(self, name))} entries for {k} contents"
                )
        price = np.asarray(self.price, dtype=float)
        if price.shape != (self.stream.n_slots, k):
            raise ValueError(
                f"price path shape {price.shape} does not match "
                f"({self.stream.n_slots}, {k})"
            )
        if self.capacity_mb <= 0:
            raise ValueError(f"capacity_mb must be positive, got {self.capacity_mb}")
        if self.l_max <= 0:
            raise ValueError(f"l_max must be positive, got {self.l_max}")
        if self.chunk_slots < 0:
            raise ValueError(
                f"chunk_slots must be non-negative, got {self.chunk_slots}"
            )


# ----------------------------------------------------------------------
# Chunk-granular stream state (mid-item checkpoint/resume)
# ----------------------------------------------------------------------

_STREAM_STATE_SCHEMA = 1


def stream_state_key(spec: ReplaySpec, policy: ServingPolicy) -> str:
    """Content-addressed fingerprint of one replay's inputs.

    Everything that changes a replay's outcome is hashed — the stream
    recipe, chunking, catalog geometry, latencies, the price path, and
    the policy itself (its tables included) — so state written by a
    different configuration can never be fast-forwarded over.  The
    state *root path* is deliberately excluded: moving a checkpoint
    directory must not invalidate its contents.
    """
    payload = pickle.dumps(
        (
            _STREAM_STATE_SCHEMA,
            spec.stream,
            int(spec.chunk_slots),
            spec.sizes_mb,
            spec.update_periods,
            float(spec.capacity_mb),
            float(spec.l_max),
            spec.hit_latency_s,
            spec.miss_latency_s,
            np.asarray(spec.price, dtype=float).tobytes(),
            float(spec.eta2),
            float(spec.backhaul_rate),
            policy,
        ),
        protocol=4,
    )
    return hashlib.sha256(payload).hexdigest()


def _stream_state_path(root: str, key: str, edp: int) -> str:
    return os.path.join(root, f"{key[:32]}-edp{int(edp)}.pkl")


def _save_stream_state(
    path: str,
    key: str,
    edp: int,
    next_chunk: int,
    stats: EDPServingStats,
    cache: EdgeCache,
) -> None:
    """Persist one EDP's replay position atomically.

    Cache entries are stored in insertion order (the order an
    :class:`~repro.serve.cache.EdgeCache` iterates), so the rebuilt
    cache is indistinguishable from the live one — LRU/LFU tie-breaks
    and eviction scans see identical state.
    """
    payload = pickle.dumps(
        {
            "schema": _STREAM_STATE_SCHEMA,
            "key": key,
            "edp": int(edp),
            "next_chunk": int(next_chunk),
            "stats": (
                stats.requests,
                stats.hits,
                stats.staleness_violations,
                stats.refreshes,
                stats.backhaul_mb,
                stats.revenue,
                stats.latency_s,
            ),
            "entries": [
                (e.content, e.size_mb, e.fetched_at, e.last_used, e.hits)
                for e in cache
            ],
        },
        protocol=4,
    )
    wrapper = {
        "sha256": hashlib.sha256(payload).hexdigest(),
        "payload": payload,
    }
    atomic_write_bytes(path, pickle.dumps(wrapper, protocol=4))


def _load_stream_state(path: str, key: str, edp: int) -> Optional[dict]:
    """Load one EDP's saved replay position, or ``None``.

    Any integrity failure — unreadable pickle, digest mismatch, a key
    or schema from different inputs — degrades to ``None``: the EDP is
    simply replayed from chunk 0, which is always correct.
    """
    try:
        with open(path, "rb") as handle:
            wrapper = pickle.load(handle)
        payload = wrapper["payload"]
        if hashlib.sha256(payload).hexdigest() != wrapper["sha256"]:
            return None
        state = pickle.loads(payload)
        if (
            state.get("schema") != _STREAM_STATE_SCHEMA
            or state.get("key") != key
            or state.get("edp") != int(edp)
        ):
            return None
        if not isinstance(state.get("next_chunk"), int):
            return None
        return state
    except Exception:
        return None


def _replay_edp_chunks(
    spec: ReplaySpec,
    policy: ServingPolicy,
    edp: int,
    telemetry: SolverTelemetry = NULL_TELEMETRY,
    state_key: Optional[str] = None,
) -> EDPServingStats:
    """Replay one EDP's trace against a fresh cache, chunk by chunk.

    The single place serving semantics live; every backend, shard
    layout and chunk size funnels through here.  Request blocks come
    from the spec's :class:`~repro.serve.stream.RequestStream` one
    :class:`~repro.serve.stream.RequestChunk` at a time, policy draws
    come from per-slot generators, and every per-slot accumulation
    happens in (slot, content) cell order — which is why results are
    bit-identical across chunk sizes, shard counts, and backends: one
    chunk spanning all slots matches any chunking exactly.

    Warmup phase: slots below ``stream.warmup_slots`` mutate the cache
    and consume policy draws normally but touch no counters (icarus's
    warmup/measured split).  The ``policy.warm`` preload's backhaul is
    counted only when there is no warmup phase.

    With ``state_key`` set (and a ``stream_state_root`` on the spec),
    the replay position is persisted after every chunk and restored on
    re-entry, so a killed work item resumes mid-EDP instead of
    recomputing from slot 0; per-slot RNG keying means no generator
    state needs saving.  The chunk loop also consults the active fault
    plan under the label ``serve:<policy>:edp<e>:chunk<c>`` (matched by
    label only), letting the test harness kill a replay between
    specific chunks.
    """
    stream = spec.stream
    chunk_slots = spec.chunk_slots if spec.chunk_slots > 0 else stream.n_slots
    warmup = stream.warmup_slots
    dt = stream.dt

    sizes = spec.sizes_mb
    hit_lat = spec.hit_latency_s
    miss_lat = spec.miss_latency_s
    periods = spec.update_periods
    l_max = spec.l_max
    # Revenue table: price * size per (slot, content), so a whole
    # slot's revenue is one dot product with its request counts.
    revenue_tbl = np.asarray(spec.price, dtype=float) * np.asarray(
        sizes, dtype=float
    )[None, :]

    cache = EdgeCache(capacity_mb=spec.capacity_mb)
    stats = EDPServingStats(edp=edp)
    start_chunk = 0
    state_path = None
    if state_key is not None and spec.stream_state_root:
        state_path = _stream_state_path(spec.stream_state_root, state_key, edp)
        state = _load_stream_state(state_path, state_key, edp)
        if state is not None and state["next_chunk"] > 0:
            start_chunk = int(state["next_chunk"])
            (
                stats.requests,
                stats.hits,
                stats.staleness_violations,
                stats.refreshes,
                stats.backhaul_mb,
                stats.revenue,
                stats.latency_s,
            ) = state["stats"]
            for content, size_mb, fetched_at, last_used, hits in state["entries"]:
                entry = cache.store(int(content), float(size_mb), float(fetched_at))
                entry.last_used = float(last_used)
                entry.hits = int(hits)
            if telemetry.enabled:
                telemetry.event(
                    "stream.resumed",
                    policy=policy.name,
                    edp=int(edp),
                    chunk=start_chunk,
                )
    if start_chunk == 0:
        warm_mb = policy.warm(cache, 0.0)
        if warmup == 0:
            stats.backhaul_mb += warm_mb

    lookup = cache.entries.get
    faults = active_fault_plan()
    n_chunks = stream.n_chunks(chunk_slots)
    for chunk_index in range(start_chunk, n_chunks):
        if faults is not None:
            # No item index: chunk checks match rules by label only,
            # so an ``item=N`` rule never fires on chunk N.
            faults.before_item(
                None, f"serve:{policy.name}:edp{edp}:chunk{chunk_index}"
            )
        chunk = stream.chunk(edp, chunk_index, chunk_slots)
        offsets = chunk.offsets()
        n_contents = chunk.n_contents
        for local_slot in range(chunk.n_slots):
            slot = chunk.start_slot + local_slot
            measured = slot >= warmup
            t = (slot + 0.5) * dt
            counts = chunk.counts[local_slot]
            nonzero = np.flatnonzero(counts)
            if nonzero.size == 0:
                continue
            policy_rng = stream.policy_rng(edp, slot)
            if measured:
                stats.requests += int(counts.sum())
                stats.revenue += float(counts @ revenue_tbl[slot])
            # Native ints for the cell loop: numpy scalar conversions
            # per cell cost more than the bookkeeping they feed.
            slot_counts = counts.tolist()
            for k in nonzero.tolist():
                c = slot_counts[k]
                entry = lookup(k)
                if entry is None:
                    # Miss: served from the cloud, fresh.  One admission
                    # decision per missed batch; victims leave until the
                    # new copy fits.
                    if cache.fits(sizes[k]) and policy.admit(
                        slot, k, c, cache, policy_rng
                    ):
                        while not cache.has_room(sizes[k]):
                            cache.evict(policy.victim(slot, cache, policy_rng))
                        entry = cache.store(k, sizes[k], t)
                        entry.hits += c - 1
                        if measured:
                            stats.backhaul_mb += sizes[k]
                            stats.hits += c - 1
                            stats.latency_s += miss_lat[k] + (c - 1) * hit_lat[k]
                    elif measured:
                        stats.backhaul_mb += c * sizes[k]
                        stats.latency_s += c * miss_lat[k]
                else:
                    # Hit: served at the edge; check freshness first.
                    age = t - entry.fetched_at
                    if age > 0.0 and policy.refresh_due(slot, k, age):
                        if measured:
                            stats.backhaul_mb += sizes[k]
                            stats.refreshes += 1
                        entry.fetched_at = t
                        age = 0.0
                    if age > 0.0 and measured:
                        cell = local_slot * n_contents + k
                        tol = (
                            (l_max - chunk.timeliness[offsets[cell]:offsets[cell + 1]])
                            / l_max
                            * periods[k]
                        )
                        stats.staleness_violations += int(
                            np.count_nonzero(age > tol)
                        )
                    entry.last_used = t
                    entry.hits += c
                    if measured:
                        stats.hits += c
                        stats.latency_s += c * hit_lat[k]
        if state_path is not None:
            _save_stream_state(
                state_path, state_key, edp, chunk_index + 1, stats, cache
            )
    if telemetry.enabled and cache.used_mb > spec.capacity_mb * (1 + 1e-9):
        # Invariant check: admission/eviction must never leave the
        # cache over capacity; an overshoot means a policy bug.
        telemetry.diag(
            "serve.occupancy",
            "error",
            value=float(cache.used_mb),
            threshold=float(spec.capacity_mb),
            message="edge cache occupancy exceeds capacity",
            edp=int(edp),
            policy=policy.name,
        )
    return stats


def replay_shard(
    spec: ReplaySpec,
    policy: ServingPolicy,
    edp_ids: Tuple[int, ...],
    telemetry: SolverTelemetry = NULL_TELEMETRY,
) -> List[EDPServingStats]:
    """Replay one shard of EDPs (the ExecutionPlan work item).

    Module-level and argument-complete, so it pickles to pool workers;
    telemetry is the per-worker buffered observer the runtime injects.
    Stream state files of fully replayed EDPs are removed once the
    whole shard lands (the item-level checkpoint takes over from
    there).
    """
    with telemetry.span("replay_shard"):
        state_key = None
        if spec.stream_state_root:
            os.makedirs(spec.stream_state_root, exist_ok=True)
            state_key = stream_state_key(spec, policy)
        results = [
            _replay_edp_chunks(
                spec, policy, int(edp),
                telemetry=telemetry, state_key=state_key,
            )
            for edp in edp_ids
        ]
        if state_key is not None:
            for edp in edp_ids:
                try:
                    os.unlink(
                        _stream_state_path(
                            spec.stream_state_root, state_key, int(edp)
                        )
                    )
                except FileNotFoundError:
                    pass
    if telemetry.enabled:
        # Staleness anomaly: an EDP serving most of its hits stale means
        # the refresh schedule is mis-tuned for this workload.
        stale_edps = [
            int(stats.edp)
            for stats in results
            if stats.requests > 0
            and stats.staleness_violations / stats.requests > 0.5
        ]
        if stale_edps:
            telemetry.diag(
                "serve.staleness",
                "warning",
                value=float(len(stale_edps)),
                threshold=0.5,
                message=(
                    f"{len(stale_edps)} EDPs exceed a 50% staleness-violation "
                    "rate"
                ),
                policy=policy.name,
                edps=stale_edps,
            )
        for stats in results:
            telemetry.inc("serve.requests", float(stats.requests))
            telemetry.inc("serve.hits", float(stats.hits))
            telemetry.inc("serve.misses", float(stats.misses))
            telemetry.inc("serve.staleness_violations",
                          float(stats.staleness_violations))
            telemetry.inc("serve.refreshes", float(stats.refreshes))
            telemetry.inc("serve.backhaul_mb", stats.backhaul_mb)
            telemetry.observe("serve.edp_hit_ratio", stats.hit_ratio)
            telemetry.observe("serve.edp_mean_latency_s", stats.mean_latency_s)
        telemetry.event(
            "serve_shard",
            policy=policy.name,
            edps=len(results),
            requests=sum(s.requests for s in results),
            hits=sum(s.hits for s in results),
        )
    return results


class ReplayEngine:
    """The replay driver both serving planes share.

    A plane extends it with its per-shard work item and the names it
    emits, both as class data (below), plus :meth:`spec` (the picklable
    recipe each shard receives), ``_build`` (a policy or strategy from
    its name) and ``_report`` (the surviving shards' results, in item
    order, folded into the plane's report).  Everything else lives here
    once: the constructor checks both planes make, the equilibrium
    fan-out, the shard plan, live progress, the dropped-shard warning
    and :meth:`compare`.
    """

    # Prefix of the emitted names: plan labels <scope>:<name>:shard<i>,
    # spans <scope>_replay_<name> and <scope>_solve_equilibria, the
    # <scope>.shard_dropped diag and equilibrium items <scope>_eq:...
    scope: str
    live_phase: str  # the live status phase; "{}" takes the name
    decider_type: type  # the policy or strategy base class
    decider_field: str  # the diag field naming a policy or strategy
    deciders: str  # their plural, for errors
    shard_noun: str  # what the dropped-shard warning calls a shard
    work_item: Callable[..., list]  # module-level, so it pickles
    units_attr: str  # the attribute counting the units shards split
    hits_attr: str  # the per-unit stats counter the live hit ratio reads

    def __init__(
        self,
        workload: Workload,
        stream: RequestStream,
        n_units: int,
        *,
        config: Optional[MFGCPConfig],
        shards: Optional[int],
        executor: ExecutorLike,
        telemetry: SolverTelemetry,
        solver_batching: bool,
        batch_size: int,
        stream_chunk: int,
    ) -> None:
        if stream_chunk < 0:
            raise ValueError(
                f"stream_chunk must be non-negative, got {stream_chunk}"
            )
        if solver_batching and batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        self.solver_batching = bool(solver_batching)
        self.batch_size = int(batch_size)
        self.workload = workload
        self.config = config if config is not None else MFGCPConfig.fast()
        self.executor = as_executor(executor)
        self.telemetry = telemetry
        self.shards = min(n_units, 8) if shards is None else int(shards)
        if self.shards < 1:
            raise ValueError(f"shards must be positive, got {shards}")

        catalog = workload.catalog
        if len(catalog) == 0:
            raise ValueError("workload catalog has no contents")
        if stream.n_contents != len(catalog):
            raise ValueError(
                f"stream catalog of {stream.n_contents} contents does not "
                f"match the workload's {len(catalog)}"
            )
        self.sizes_mb = tuple(float(c.size_mb) for c in catalog)
        self.update_periods = tuple(float(c.update_period) for c in catalog)
        self.stream = stream
        self.stream_chunk = int(stream_chunk)
        self._equilibria: Optional[Dict[int, EquilibriumResult]] = None

    def _capacity(
        self, fraction: float, absolute: Optional[float], noun: str
    ) -> float:
        """Cache size per node: absolute when given, else a catalog share."""
        if not 0.0 < fraction <= 1.0 and absolute is None:
            raise ValueError(
                f"capacity_fraction must lie in (0, 1], got {fraction}"
            )
        capacity = (
            float(absolute) if absolute is not None
            else fraction * sum(self.sizes_mb)
        )
        if capacity < min(self.sizes_mb):
            raise ValueError(
                f"{noun} {capacity:.1f} MB holds no content "
                f"(smallest is {min(self.sizes_mb):.1f} MB)"
            )
        return capacity

    # ------------------------------------------------------------------
    # Equilibria (the mfg policy's and strategy's input)
    # ------------------------------------------------------------------
    def solve_equilibria(self) -> Dict[int, EquilibriumResult]:
        """Per-content equilibria on this engine's executor (cached).

        Each content gets the engine config specialised to its
        popularity share, size, and expected per-lane request rate —
        the same per-content independence the Alg. 1 epoch loop
        exploits, fanned out through
        :func:`~repro.core.solver.fan_out_equilibria` — so both planes
        solve identical equilibria for identical workloads.  Contents a
        skip/degrade fault policy dropped are missing from the map.
        """
        if self._equilibria is None:
            model = self.workload.timeliness_model
            timeliness = float(min(model.mean(), model.l_max))
            width = self.batch_size if self.solver_batching else 1
            prefix = f"{self.scope}_eq"
            label = (
                (lambda shard: f"{prefix}:content{shard[0]}") if width == 1
                else (lambda shard: f"{prefix}:batch{shard[0]}-{shard[-1]}")
            )
            with self.telemetry.span(f"{self.scope}_solve_equilibria"):
                configs = {
                    k: replace(
                        self.config,
                        popularity=float(np.clip(p, 0.0, 1.0)),
                        content_size=float(self.workload.catalog[k].size_mb),
                        n_requests=float(self.stream.rate_per_edp) * float(p),
                        timeliness=timeliness,
                    )
                    for k, p in enumerate(self.stream.popularity)
                }
                self._equilibria, _ = fan_out_equilibria(
                    configs,
                    self.executor,
                    self.telemetry,
                    label=label,
                    scope=self.scope,
                    width=width,
                    phase=f"{prefix}:solve",
                )
        return self._equilibria

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------
    def replay(self, decider):
        """Replay the stream under one policy or strategy (object or name)."""
        if not isinstance(decider, self.decider_type):
            decider = self._build(decider)
        name = decider.name
        spec = self.spec()
        shards = partition_indices(getattr(self, self.units_attr), self.shards)
        plan = ExecutionPlan.map(
            self.work_item,
            [(spec, decider, shard) for shard in shards],
            labels=[f"{self.scope}:{name}:shard{i}" for i in range(len(shards))],
            accepts_telemetry=True,
        )
        live = self.telemetry.live
        progress = None
        if live is not None:
            live.set_phase(self.live_phase.format(name), total_items=len(plan))
            # Expected volume counts measured slots only: replays fold
            # no warmup request into the counters progress reads.
            chunk = self.stream_chunk or self.stream.n_slots
            live.set_stream(
                workload=type(self.stream).__name__,
                chunk_slots=chunk,
                n_chunks=self.stream.n_chunks(chunk),
                expected_requests=self.stream.expected_measured_requests(),
            )

            def progress(outcome) -> None:
                # Fold each landed shard's counters into the live
                # windowed views (recent hit ratio, latency sketch).
                # Pure side channel — the report is recomputed from
                # the ordered outcomes.
                for stats in outcome.result or ():
                    live.note_requests(
                        stats.requests,
                        hits=getattr(stats, self.hits_attr),
                        latency_s=stats.latency_s,
                    )

        with self.telemetry.span(f"{self.scope}_replay_{name}"):
            outcomes = self.executor.run(
                plan, telemetry=self.telemetry, progress=progress
            )
        lost = [i for i, shard in enumerate(outcomes) if shard is None]
        if lost and self.telemetry.enabled:
            # A skip/degrade fault policy dropped whole shards; report
            # the hole rather than silently under-counting.
            self.telemetry.diag(
                f"{self.scope}.shard_dropped",
                "warning",
                value=float(len(lost)),
                message=(
                    f"{len(lost)} of {len(outcomes)} {self.shard_noun} "
                    "shards were dropped by the fault policy"
                ),
                **{self.decider_field: name},
                shards=lost,
            )
        return self._report(name, [s for s in outcomes if s is not None])

    def compare(self, deciders: Sequence) -> list:
        """Replay the same stream under several policies or strategies.

        Equilibria are solved up front when ``mfg`` is among them, so
        every report shares one equilibrium; every replay consumes
        identical per-lane request streams (same root seed), making
        the reports comparable request for request.
        """
        if not deciders:
            raise ValueError(f"no {self.deciders} to compare")
        if any(
            isinstance(d, str) and d.strip().lower() == "mfg" for d in deciders
        ):
            self.solve_equilibria()
        return [self.replay(decider) for decider in deciders]


class ServingEngine(ReplayEngine):
    """Replay a request stream against a population of EDP edge caches.

    Parameters
    ----------
    workload:
        A :class:`repro.content.workloads.Workload`: catalog geometry
        (sizes, update periods) and the timeliness law the equilibria
        and staleness checks use.
    n_edps:
        Population size ``M``; must equal ``stream.n_edps``.
    stream:
        The :class:`~repro.serve.stream.RequestStream` replayed: every
        request, every policy draw, and the trace geometry (slots,
        ``dt``, seed, rate, popularity) come from it.  Canned scenarios
        replay through :func:`~repro.serve.stream.workload_stream`.
        Read at every replay, so it may be swapped between replays for
        a stream of the same geometry.
    config:
        MFG-CP model constants (latency, pricing, equilibrium solves);
        defaults to the fast preset so ``mfg`` replays stay cheap.
    capacity_fraction / capacity_mb:
        Per-EDP edge storage, as a fraction of the catalog volume or
        absolute (absolute wins when both are given).
    shards:
        Replay shard count (defaults to ``min(n_edps, 8)``); pure
        parallel grain, never affects results.
    executor:
        A :mod:`repro.runtime` backend, spec string, or ``None``.
    telemetry:
        The run's observer (shared with equilibrium solves).
    solver_batching / batch_size:
        Solve the mfg policy's equilibria through the batched tensor
        pipeline — one work item per shard of at most ``batch_size``
        contents instead of one per content.  Results are
        bit-identical to the per-content path.
    stream_chunk:
        Replay chunk size in slots (``0`` = the whole trace as one
        chunk).  Pure memory grain — never affects results.
    stream_state_dir:
        Optional directory for chunk-granular resume state; pair it
        with a checkpointing executor so an interrupted replay resumes
        mid-shard *and* mid-EDP.
    """

    scope = "serve"
    live_phase = "serve:replay:{}"
    decider_type = ServingPolicy
    decider_field = "policy"
    deciders = "policies"
    shard_noun = "replay"
    work_item = staticmethod(replay_shard)
    units_attr = "n_edps"
    hits_attr = "hits"

    def __init__(
        self,
        workload: Workload,
        n_edps: int,
        *,
        stream: RequestStream,
        config: Optional[MFGCPConfig] = None,
        capacity_fraction: float = 0.3,
        capacity_mb: Optional[float] = None,
        shards: Optional[int] = None,
        executor: ExecutorLike = None,
        telemetry: SolverTelemetry = NULL_TELEMETRY,
        solver_batching: bool = False,
        batch_size: int = 32,
        stream_chunk: int = 0,
        stream_state_dir: Optional[str] = None,
    ) -> None:
        if n_edps < 1:
            raise ValueError(f"need at least one EDP, got {n_edps}")
        if stream.n_edps != int(n_edps):
            raise ValueError(
                f"stream covers {stream.n_edps} EDPs but the engine was "
                f"asked for {n_edps}"
            )
        super().__init__(
            workload, stream, int(n_edps), config=config, shards=shards,
            executor=executor, telemetry=telemetry,
            solver_batching=solver_batching, batch_size=batch_size,
            stream_chunk=stream_chunk,
        )
        self.n_edps = int(n_edps)
        self.capacity_mb = self._capacity(capacity_fraction, capacity_mb, "capacity")
        self.stream_state_dir = (
            None if stream_state_dir is None else os.fspath(stream_state_dir)
        )

    def build_policy(self, name: str) -> ServingPolicy:
        """Instantiate a policy by name (solving equilibria for mfg)."""
        key = str(name).strip().lower()
        kwargs = {}
        if key == "mfg":
            kwargs = dict(
                equilibria=self.solve_equilibria(),
                update_periods=self.update_periods,
                slot_times=self.stream.slot_times(),
                horizon=self.stream.horizon,
            )
        return make_policy(
            key,
            sizes_mb=self.sizes_mb,
            popularity=self.stream.popularity,
            **kwargs,
        )

    _build = build_policy

    def _price_path(self) -> np.ndarray:
        """Trading price per (slot, content).

        The mean-field price path (Eq. (17)) of each solved
        equilibrium when available, the flat ``p_hat`` otherwise.
        Shared by every policy of a comparison, so revenue differences
        come from serving outcomes, not from different markets.
        """
        n_slots, k = self.stream.n_slots, self.stream.n_contents
        slot_times = self.stream.slot_times()
        price = np.full((n_slots, k), float(self.config.p_hat))
        for idx, eq in (self._equilibria or {}).items():
            t_eq = slot_times / self.stream.horizon * eq.config.horizon
            price[:, idx] = np.interp(t_eq, eq.grid.t, eq.mean_field.price)
        return price

    def spec(self) -> ReplaySpec:
        """The picklable replay recipe shards receive."""
        edge_rate = float(
            self.config.channel.rate_of_fading(
                np.asarray(self.config.channel.mean)
            )
        )
        if edge_rate <= 0:
            raise ValueError("edge wireless rate must be positive")
        hit_latency = tuple(size / edge_rate for size in self.sizes_mb)
        miss_latency = tuple(
            size / self.config.backhaul_rate + lat
            for size, lat in zip(self.sizes_mb, hit_latency)
        )
        return ReplaySpec(
            stream=self.stream,
            sizes_mb=self.sizes_mb,
            update_periods=self.update_periods,
            capacity_mb=self.capacity_mb,
            l_max=float(self.workload.timeliness_model.l_max),
            hit_latency_s=hit_latency,
            miss_latency_s=miss_latency,
            price=self._price_path(),
            eta2=float(self.config.eta2),
            backhaul_rate=float(self.config.backhaul_rate),
            chunk_slots=self.stream_chunk,
            stream_state_root=self.stream_state_dir,
        )

    def _report(
        self, policy: str, shards: List[List[EDPServingStats]]
    ) -> ServingReport:
        report = ServingReport(
            policy=policy,
            n_slots=int(self.stream.n_slots),
            dt=float(self.stream.dt),
            seed=int(self.stream.seed),
            eta2=float(self.config.eta2),
            backhaul_rate=float(self.config.backhaul_rate),
            per_edp=tuple(stats for shard in shards for stats in shard),
        )
        if self.telemetry.enabled:
            self.telemetry.gauge(f"serve.{policy}.hit_ratio", report.hit_ratio)
            self.telemetry.event(
                "serving_report",
                policy=report.policy,
                requests=report.requests,
                hit_ratio=report.hit_ratio,
                staleness_violation_rate=report.staleness_violation_rate,
                backhaul_mb=report.backhaul_mb,
            )
        return report
