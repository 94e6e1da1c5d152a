"""Chunked streaming request generation: the serving engines' only input.

Every replay — single-cache or cache-network, canned scenario or
synthetic generator — reads its requests and its trace geometry from
one **streaming iterator protocol** built for scale:

* A :class:`RequestStream` is a frozen, picklable recipe that yields
  fixed-size :class:`RequestChunk` blocks of requests per EDP.
* Randomness is keyed per ``(EDP, slot)`` through
  ``np.random.SeedSequence(seed, spawn_key=(edp, slot, domain))`` —
  every chunk is **reconstructible in isolation** (no generator state
  to carry), so replays are bit-identical across chunk sizes, shard
  counts and execution backends, and an interrupted replay resumes at
  any chunk boundary without re-sampling the past.
* Generation is vectorised: one Poisson draw per slot over the whole
  catalog and one timeliness draw per slot over the whole request
  batch, instead of per-content python loops.

Workload generators (mirroring icarus's workload catalog, each with
the warmup+measured phase split via ``warmup_slots``):

=================  ====================================================
:class:`ZipfStream`          static ``rank^-alpha`` demand
:class:`ShuffledZipfStream`  Zipf weights under a seed-deterministic
                             rank permutation
:class:`DiurnalStream`       Zipf demand whose *rate* cycles through
                             per-phase multipliers (day/night periods)
:class:`FlashCrowdStream`    Zipf demand with a popularity spike on one
                             content over a slot window
:class:`TraceStream`         demand share loaded from a trace file
                             (:func:`repro.content.trace.load_trace_csv`
                             semantics, malformed rows skipped+counted)
=================  ====================================================

Canned :mod:`repro.content.workloads` scenarios replay through
:class:`FixedPopularityStream` (:func:`workload_stream` builds it), and
per-receiver demand through :class:`LanePopularityStream`.  Every slot
draws Poisson counts per content split by popularity, each request
carrying a Def. 2 timeliness requirement.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.content.catalog import Content, ContentCatalog
from repro.content.timeliness import TimelinessModel
from repro.content.trace import load_trace_csv, trace_to_popularity
from repro.content.workloads import Workload
from repro.content.requests import RequestProcess

STREAM_WORKLOADS = ("zipf", "shuffled-zipf", "diurnal", "flash-crowd", "trace")
"""CLI names of the streaming workload generators."""

# spawn_key domains: requests and policy decisions draw from separate
# per-(EDP, slot) streams so the request trace is identical under every
# policy, and policy draws never cross a slot boundary (which is what
# makes chunk grouping irrelevant to results).
_REQUEST_DOMAIN = 0
_POLICY_DOMAIN = 1


@dataclass(frozen=True)
class RequestChunk:
    """A fixed-size block of one EDP's request trace.

    Attributes
    ----------
    edp:
        The EDP whose trace this block belongs to.
    start_slot:
        First slot covered; the block spans
        ``[start_slot, start_slot + n_slots)``.
    dt:
        Slot length (requests in a slot share its midpoint time).
    counts:
        Per-slot request counts, shape ``(n_slots, n_contents)``.
    timeliness:
        Per-request Def. 2 requirements, flattened in ``(slot,
        content)`` row-major order with each ``(slot, content)`` cell's
        requests contiguous; total length ``counts.sum()``.
    """

    edp: int
    start_slot: int
    dt: float
    counts: np.ndarray
    timeliness: np.ndarray

    def __post_init__(self) -> None:
        counts = np.asarray(self.counts)
        if counts.ndim != 2:
            raise ValueError(
                f"counts must be (n_slots, n_contents), got shape {counts.shape}"
            )
        if np.any(counts < 0):
            raise ValueError("request counts must be non-negative")
        if self.start_slot < 0:
            raise ValueError(f"start_slot must be non-negative, got {self.start_slot}")
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if len(self.timeliness) != int(counts.sum()):
            raise ValueError(
                f"{len(self.timeliness)} timeliness draws for "
                f"{int(counts.sum())} requests"
            )

    @property
    def n_slots(self) -> int:
        return int(self.counts.shape[0])

    @property
    def n_contents(self) -> int:
        return int(self.counts.shape[1])

    @property
    def n_requests(self) -> int:
        return int(self.counts.sum())

    def offsets(self) -> np.ndarray:
        """Start offset of every ``(slot, content)`` cell's requests.

        Shape ``(n_slots * n_contents + 1,)``; cell ``(s, k)``'s
        requirements are
        ``timeliness[offsets[s * K + k] : offsets[s * K + k + 1]]``.
        """
        flat = np.asarray(self.counts, dtype=np.int64).reshape(-1)
        out = np.empty(flat.size + 1, dtype=np.int64)
        out[0] = 0
        np.cumsum(flat, out=out[1:])
        return out

    def timeliness_for(self, local_slot: int, content: int) -> np.ndarray:
        """Requirements attached to cell ``(local_slot, content)``."""
        offs = self.offsets()
        cell = local_slot * self.n_contents + content
        return self.timeliness[offs[cell]:offs[cell + 1]]


def concat_chunks(chunks: Sequence[RequestChunk]) -> RequestChunk:
    """Fuse consecutive chunks of one EDP into a single block."""
    if not chunks:
        raise ValueError("no chunks to concatenate")
    edp = chunks[0].edp
    expected = chunks[0].start_slot
    for chunk in chunks:
        if chunk.edp != edp:
            raise ValueError("chunks belong to different EDPs")
        if chunk.start_slot != expected:
            raise ValueError(
                f"chunks are not consecutive: expected start slot "
                f"{expected}, got {chunk.start_slot}"
            )
        expected += chunk.n_slots
    return RequestChunk(
        edp=edp,
        start_slot=chunks[0].start_slot,
        dt=chunks[0].dt,
        counts=np.concatenate([c.counts for c in chunks], axis=0),
        timeliness=np.concatenate([c.timeliness for c in chunks]),
    )


@dataclass(frozen=True, kw_only=True)
class RequestStream(abc.ABC):
    """A picklable, chunk-addressable recipe for every EDP's requests.

    Subclasses fix the demand shape by implementing
    :meth:`base_weights` (static per-content demand weights) and
    optionally overriding :meth:`rate_multiplier` /
    :meth:`weights_at` for time-varying workloads, or
    :meth:`lane_weights` for demand that differs per EDP.

    Attributes
    ----------
    n_edps, n_slots, dt:
        Population size and trace geometry (horizon ``n_slots * dt``).
    rate_per_edp:
        Expected requests one EDP receives per unit time (before any
        per-slot rate multiplier).
    seed:
        Root entropy; every ``(EDP, slot)`` RNG derives from it by
        ``spawn_key``, never by sequential state.
    timeliness:
        Law of the per-request Def. 2 requirements.
    warmup_slots:
        Slots of the icarus-style warmup phase: replay engines serve
        them normally (caches warm up) but exclude them from every
        reported counter.  The measured phase is
        ``[warmup_slots, n_slots)``.
    """

    n_edps: int
    n_slots: int
    dt: float
    rate_per_edp: float
    seed: int = 0
    timeliness: TimelinessModel = field(default_factory=TimelinessModel)
    warmup_slots: int = 0

    def __post_init__(self) -> None:
        if self.n_edps < 1:
            raise ValueError(f"need at least one EDP, got {self.n_edps}")
        if self.n_slots < 1:
            raise ValueError(f"n_slots must be positive, got {self.n_slots}")
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.rate_per_edp < 0:
            raise ValueError(
                f"rate_per_edp must be non-negative, got {self.rate_per_edp}"
            )
        if not 0 <= self.warmup_slots < self.n_slots:
            raise ValueError(
                f"warmup_slots must lie in [0, n_slots), got "
                f"{self.warmup_slots} of {self.n_slots}"
            )

    # ------------------------------------------------------------------
    # Demand shape (subclass API)
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def base_weights(self) -> np.ndarray:
        """Static per-content demand weights (positive, unnormalised)."""

    def weights_at(self, slot: int) -> np.ndarray:
        """Demand weights in force during ``slot`` (default: static)."""
        del slot
        return self.base_weights()

    def rate_multiplier(self, slot: int) -> float:
        """Per-slot scaling of ``rate_per_edp`` (default: constant 1)."""
        del slot
        return 1.0

    def lane_weights(self, edp: int, slot: int) -> np.ndarray:
        """Demand weights EDP ``edp`` draws from (default: shared by all)."""
        del edp
        return self.weights_at(slot)

    # ------------------------------------------------------------------
    # Derived geometry
    # ------------------------------------------------------------------
    @property
    def n_contents(self) -> int:
        return int(len(self.base_weights()))

    @property
    def popularity(self) -> Tuple[float, ...]:
        """The normalised static demand profile (what policies see)."""
        w = np.asarray(self.base_weights(), dtype=float)
        return tuple((w / w.sum()).tolist())

    @property
    def horizon(self) -> float:
        return self.n_slots * self.dt

    @property
    def measured_slots(self) -> int:
        return self.n_slots - self.warmup_slots

    def slot_times(self) -> np.ndarray:
        """Midpoint time of every slot."""
        return (np.arange(self.n_slots) + 0.5) * self.dt

    def intensities(self, slot: int, edp: int = 0) -> np.ndarray:
        """Per-content Poisson intensities of one EDP in one slot."""
        w = np.asarray(self.lane_weights(edp, slot), dtype=float)
        total = w.sum()
        if total <= 0:
            raise ValueError(f"slot {slot} demand weights have no mass")
        return (
            self.rate_per_edp * self.rate_multiplier(slot) * self.dt * w / total
        )

    def expected_measured_requests(self) -> float:
        """Mean request volume a replay reports (warmup slots excluded)."""
        per_edp = sum(
            self.rate_per_edp * self.rate_multiplier(s) * self.dt
            for s in range(self.warmup_slots, self.n_slots)
        )
        return per_edp * self.n_edps

    # ------------------------------------------------------------------
    # RNG keying
    # ------------------------------------------------------------------
    def _rng(self, edp: int, slot: int, domain: int) -> np.random.Generator:
        if not 0 <= edp < self.n_edps:
            raise IndexError(f"EDP index {edp} out of range [0, {self.n_edps})")
        if not 0 <= slot < self.n_slots:
            raise IndexError(f"slot {slot} out of range [0, {self.n_slots})")
        return np.random.default_rng(
            np.random.SeedSequence(self.seed, spawn_key=(edp, slot, domain))
        )

    def request_rng(self, edp: int, slot: int) -> np.random.Generator:
        """The generator behind cell ``(edp, slot)``'s request draws."""
        return self._rng(edp, slot, _REQUEST_DOMAIN)

    def policy_rng(self, edp: int, slot: int) -> np.random.Generator:
        """The generator serving policies draw from during ``slot``.

        Per-slot (not per-EDP-sequential) on purpose: policy draws
        never cross slot boundaries, so replay chunking cannot shift
        them and chunk-granular resume needs no RNG state.
        """
        return self._rng(edp, slot, _POLICY_DOMAIN)

    # ------------------------------------------------------------------
    # Chunked generation
    # ------------------------------------------------------------------
    def n_chunks(self, chunk_slots: int) -> int:
        if chunk_slots < 1:
            raise ValueError(f"chunk_slots must be positive, got {chunk_slots}")
        return -(-self.n_slots // chunk_slots)

    def sample_slot(self, edp: int, slot: int) -> Tuple[np.ndarray, np.ndarray]:
        """One slot's ``(counts, flat timeliness)`` for one EDP.

        One vectorised Poisson draw over the catalog, then one
        vectorised timeliness draw over the slot's whole request batch
        (iid, so a single sliced draw equals per-content draws in law);
        the flat array groups cell ``(slot, k)``'s requests
        contiguously in content order.
        """
        rng = self.request_rng(edp, slot)
        counts = rng.poisson(self.intensities(slot, edp)).astype(np.int64)
        total = int(counts.sum())
        return counts, self.timeliness.sample(total, rng)

    def chunk(self, edp: int, index: int, chunk_slots: int) -> RequestChunk:
        """Regenerate chunk ``index`` of EDP ``edp`` in isolation.

        Chunk ``index`` covers slots ``[index * chunk_slots,
        min((index + 1) * chunk_slots, n_slots))``.  Because every slot
        owns its RNG, this needs nothing but the recipe — no prior
        chunks, no generator state.
        """
        n_chunks = self.n_chunks(chunk_slots)
        if not 0 <= index < n_chunks:
            raise IndexError(f"chunk {index} out of range [0, {n_chunks})")
        start = index * chunk_slots
        stop = min(start + chunk_slots, self.n_slots)
        rows: List[np.ndarray] = []
        draws: List[np.ndarray] = []
        for slot in range(start, stop):
            counts, tl = self.sample_slot(edp, slot)
            rows.append(counts)
            draws.append(tl)
        return RequestChunk(
            edp=edp,
            start_slot=start,
            dt=self.dt,
            counts=np.stack(rows, axis=0),
            timeliness=(
                np.concatenate(draws) if draws else np.empty(0, dtype=float)
            ),
        )

    def iter_chunks(
        self, edp: int, chunk_slots: int, start_chunk: int = 0
    ) -> Iterator[RequestChunk]:
        """The EDP's trace as consecutive fixed-size chunks.

        ``start_chunk`` fast-forwards without generating the skipped
        chunks — the entry point for chunk-granular resume.
        """
        for index in range(start_chunk, self.n_chunks(chunk_slots)):
            yield self.chunk(edp, index, chunk_slots)

    def materialize(self, edp: int) -> RequestChunk:
        """The EDP's whole trace as one block (the equivalence oracle).

        Bit-identical to concatenating :meth:`iter_chunks` at any
        chunk size — the property suite holds this contract.
        """
        return self.chunk(edp, 0, self.n_slots)


@dataclass(frozen=True, kw_only=True)
class FixedPopularityStream(RequestStream):
    """A stream with an explicit static demand-share vector."""

    shares: Tuple[float, ...]

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.shares:
            raise ValueError("shares must name at least one content")
        if any(s < 0 for s in self.shares) or sum(self.shares) <= 0:
            raise ValueError("shares must be non-negative with positive mass")

    def base_weights(self) -> np.ndarray:
        return np.asarray(self.shares, dtype=float)


@dataclass(frozen=True, kw_only=True)
class LanePopularityStream(FixedPopularityStream):
    """Fixed demand whose shares differ per lane (e.g. per receiver).

    ``shares`` stays the global profile policies and equilibria see;
    lane ``e`` draws its requests from row ``e % len(lane_shares)``.
    Under the network engine's lane numbering (``replica * n_receivers
    + r``) a matrix with one row per receiver — such as
    :func:`repro.content.trace.trace_receiver_popularity` returns —
    gives every replica of receiver ``r`` the demand of row ``r``.
    Rows need not be normalised; any row-like matrix is stored as
    nested tuples.
    """

    lane_shares: Tuple[Tuple[float, ...], ...]

    def __post_init__(self) -> None:
        super().__post_init__()
        matrix = np.asarray(self.lane_shares, dtype=float)
        if (
            matrix.ndim != 2
            or matrix.shape[0] < 1
            or matrix.shape[1] != len(self.shares)
        ):
            raise ValueError(
                f"lane_shares shape {matrix.shape} needs one or more rows "
                f"of {len(self.shares)} contents"
            )
        if np.any(matrix < 0) or np.any(matrix.sum(axis=1) <= 0):
            raise ValueError(
                "lane_shares rows must be non-negative with positive mass"
            )
        object.__setattr__(
            self, "lane_shares", tuple(tuple(row) for row in matrix.tolist())
        )

    def lane_weights(self, edp: int, slot: int) -> np.ndarray:
        del slot
        return np.asarray(
            self.lane_shares[edp % len(self.lane_shares)], dtype=float
        )


def _zipf_weights(n_contents: int, alpha: float) -> np.ndarray:
    if n_contents < 1:
        raise ValueError(f"catalog must hold at least one content, got {n_contents}")
    if alpha <= 0:
        raise ValueError(f"Zipf exponent must be positive, got {alpha}")
    ranks = np.arange(1, n_contents + 1, dtype=float)
    return ranks ** (-float(alpha))


@dataclass(frozen=True, kw_only=True)
class ZipfStream(RequestStream):
    """Static ``rank^-alpha`` demand; rank 1 is content 0."""

    n_catalog: int
    alpha: float = 1.0

    def __post_init__(self) -> None:
        super().__post_init__()
        _zipf_weights(self.n_catalog, self.alpha)  # validates

    def base_weights(self) -> np.ndarray:
        return _zipf_weights(self.n_catalog, self.alpha)


@dataclass(frozen=True, kw_only=True)
class ShuffledZipfStream(RequestStream):
    """Zipf demand under a seed-deterministic rank permutation.

    The permutation derives from ``SeedSequence(seed,
    spawn_key=(PERM,))`` — a pure function of the stream seed,
    independent of every request draw, so two streams with equal seeds
    shuffle identically and replays stay chunk-reconstructible.
    """

    n_catalog: int
    alpha: float = 1.0

    _PERM_DOMAIN = 2

    def __post_init__(self) -> None:
        super().__post_init__()
        _zipf_weights(self.n_catalog, self.alpha)  # validates

    def permutation(self) -> np.ndarray:
        """content index -> rank position (deterministic per seed)."""
        rng = np.random.default_rng(
            np.random.SeedSequence(self.seed, spawn_key=(self._PERM_DOMAIN,))
        )
        return rng.permutation(self.n_catalog)

    def base_weights(self) -> np.ndarray:
        return _zipf_weights(self.n_catalog, self.alpha)[self.permutation()]


@dataclass(frozen=True, kw_only=True)
class DiurnalStream(RequestStream):
    """Zipf demand whose arrival rate cycles through diurnal phases.

    A period of ``period_slots`` slots is split into
    ``len(phase_multipliers)`` equal phases; during phase ``p`` the
    arrival rate is ``rate_per_edp * phase_multipliers[p]``.  Slot
    ``s`` belongs to phase ``(s % period_slots) * n_phases //
    period_slots`` — boundaries land exactly on slot indices
    ``period_slots * p / n_phases`` (integer division), which the unit
    suite pins.
    """

    n_catalog: int
    alpha: float = 1.0
    period_slots: int = 24
    phase_multipliers: Tuple[float, ...] = (0.25, 1.0, 1.75, 1.0)

    def __post_init__(self) -> None:
        super().__post_init__()
        _zipf_weights(self.n_catalog, self.alpha)  # validates
        if self.period_slots < 1:
            raise ValueError(
                f"period_slots must be positive, got {self.period_slots}"
            )
        if not self.phase_multipliers:
            raise ValueError("need at least one phase multiplier")
        if len(self.phase_multipliers) > self.period_slots:
            raise ValueError(
                f"{len(self.phase_multipliers)} phases cannot split "
                f"{self.period_slots} slots"
            )
        if any(m < 0 for m in self.phase_multipliers):
            raise ValueError("phase multipliers must be non-negative")

    def base_weights(self) -> np.ndarray:
        return _zipf_weights(self.n_catalog, self.alpha)

    def phase_of(self, slot: int) -> int:
        """The diurnal phase slot ``slot`` falls in."""
        n_phases = len(self.phase_multipliers)
        return ((slot % self.period_slots) * n_phases) // self.period_slots

    def rate_multiplier(self, slot: int) -> float:
        return float(self.phase_multipliers[self.phase_of(slot)])


@dataclass(frozen=True, kw_only=True)
class FlashCrowdStream(RequestStream):
    """Zipf demand with a flash-crowd spike on one content.

    During the spike window ``[spike_slot, spike_slot +
    spike_duration)`` the spiking content's demand weight is multiplied
    by ``spike_factor`` (shares renormalise, so other contents dilute)
    and the overall arrival rate by ``rate_boost`` — the breaking-news
    shape the paper's popularity update (Eq. 3) models across epochs,
    here at request granularity.
    """

    n_catalog: int
    alpha: float = 1.0
    spike_content: int = 0
    spike_slot: int = 0
    spike_duration: int = 1
    spike_factor: float = 8.0
    rate_boost: float = 2.0

    def __post_init__(self) -> None:
        super().__post_init__()
        _zipf_weights(self.n_catalog, self.alpha)  # validates
        if not 0 <= self.spike_content < self.n_catalog:
            raise ValueError(
                f"spike_content {self.spike_content} outside catalog "
                f"[0, {self.n_catalog})"
            )
        if not 0 <= self.spike_slot < self.n_slots:
            raise ValueError(
                f"spike_slot {self.spike_slot} outside [0, {self.n_slots})"
            )
        if self.spike_duration < 1:
            raise ValueError(
                f"spike_duration must be positive, got {self.spike_duration}"
            )
        if self.spike_factor < 1.0 or self.rate_boost <= 0:
            raise ValueError(
                "spike_factor must be >= 1 and rate_boost positive"
            )

    def base_weights(self) -> np.ndarray:
        return _zipf_weights(self.n_catalog, self.alpha)

    def in_spike(self, slot: int) -> bool:
        return self.spike_slot <= slot < self.spike_slot + self.spike_duration

    def weights_at(self, slot: int) -> np.ndarray:
        weights = self.base_weights()
        if self.in_spike(slot):
            weights = weights.copy()
            weights[self.spike_content] *= self.spike_factor
        return weights

    def rate_multiplier(self, slot: int) -> float:
        return float(self.rate_boost) if self.in_spike(slot) else 1.0


@dataclass(frozen=True, kw_only=True)
class TraceStream(FixedPopularityStream):
    """Demand share streamed from a trace file.

    ``shares`` comes from :func:`repro.content.trace.trace_to_popularity`
    over the loaded records; malformed data rows are skipped and
    counted exactly as :func:`load_trace_csv` does (the counts ride
    along for observability).
    """

    labels: Tuple[str, ...] = ()
    skipped_rows: int = 0
    skipped_receivers: int = 0

    @classmethod
    def from_csv(
        cls,
        path: Union[str, Path],
        *,
        n_contents: Optional[int] = None,
        **stream_kwargs,
    ) -> "TraceStream":
        """Build the stream from a trending-trace CSV.

        Loads with :func:`load_trace_csv` (malformed rows skipped, not
        fatal), aggregates demand with :func:`trace_to_popularity`, and
        carries the skip counts on the stream.
        """
        result = load_trace_csv(Path(path))
        labels, shares = trace_to_popularity(result, n_contents=n_contents)
        return cls(
            shares=tuple(float(s) for s in shares),
            labels=tuple(labels),
            skipped_rows=result.skipped_rows,
            skipped_receivers=result.skipped_receivers,
            **stream_kwargs,
        )


def stream_workload(
    stream: RequestStream,
    *,
    content_size_mb: float = 50.0,
    update_period: float = 1.0,
    names: Optional[Sequence[str]] = None,
) -> Workload:
    """A :class:`~repro.content.workloads.Workload` wrapping a stream.

    Serving engines take catalog geometry (sizes, update periods)
    from a workload; this builds the matching one — uniform sizes, the
    stream's own demand profile and timeliness law — for generators
    that have no canned scenario behind them.
    """
    if names is None and isinstance(stream, TraceStream) and stream.labels:
        names = stream.labels
    if names is None:
        names = [f"content-{k}" for k in range(stream.n_contents)]
    if len(names) != stream.n_contents:
        raise ValueError(
            f"got {len(names)} names for {stream.n_contents} contents"
        )
    catalog = ContentCatalog(
        contents=[
            Content(
                content_id=k,
                size_mb=float(content_size_mb),
                name=str(names[k]),
                update_period=float(update_period),
            )
            for k in range(stream.n_contents)
        ]
    )
    return Workload(
        name=f"stream-{type(stream).__name__.lower()}",
        catalog=catalog,
        popularity=np.asarray(stream.popularity, dtype=float),
        timeliness_model=stream.timeliness,
        requests=RequestProcess(
            n_contents=stream.n_contents,
            rate_per_edp=stream.rate_per_edp,
            timeliness_model=stream.timeliness,
        ),
    )


def make_stream(
    kind: str,
    *,
    n_edps: int,
    n_slots: int,
    dt: float,
    rate_per_edp: float,
    seed: int = 0,
    n_contents: int = 12,
    alpha: float = 1.0,
    warmup_slots: int = 0,
    timeliness: Optional[TimelinessModel] = None,
    trace_path: Optional[Union[str, Path]] = None,
    spike_content: int = 0,
    spike_slot: Optional[int] = None,
    spike_factor: float = 8.0,
    shares: Optional[Sequence[float]] = None,
) -> RequestStream:
    """Build a workload generator from its CLI name.

    ``"trace"`` requires ``trace_path``; ``"fixed"`` (not listed in
    :data:`STREAM_WORKLOADS` — it is the programmatic bridge for canned
    scenario workloads) requires ``shares``.
    """
    key = str(kind).strip().lower()
    common = dict(
        n_edps=int(n_edps),
        n_slots=int(n_slots),
        dt=float(dt),
        rate_per_edp=float(rate_per_edp),
        seed=int(seed),
        warmup_slots=int(warmup_slots),
    )
    if timeliness is not None:
        common["timeliness"] = timeliness
    if key == "zipf":
        return ZipfStream(n_catalog=n_contents, alpha=alpha, **common)
    if key in ("shuffled-zipf", "shuffled"):
        return ShuffledZipfStream(n_catalog=n_contents, alpha=alpha, **common)
    if key == "diurnal":
        return DiurnalStream(n_catalog=n_contents, alpha=alpha, **common)
    if key in ("flash-crowd", "flash"):
        return FlashCrowdStream(
            n_catalog=n_contents,
            alpha=alpha,
            spike_content=int(spike_content),
            spike_slot=(
                int(spike_slot) if spike_slot is not None else int(n_slots) // 4
            ),
            spike_factor=float(spike_factor),
            **common,
        )
    if key == "trace":
        if trace_path is None:
            raise ValueError("the 'trace' workload needs a trace file path")
        return TraceStream.from_csv(
            trace_path, n_contents=n_contents, **common
        )
    if key == "fixed":
        if shares is None:
            raise ValueError("the 'fixed' workload needs explicit shares")
        return FixedPopularityStream(
            shares=tuple(float(s) for s in shares), **common
        )
    raise ValueError(
        f"unknown streaming workload {kind!r}; expected one of "
        f"{STREAM_WORKLOADS}"
    )


def workload_stream(
    workload: Workload,
    *,
    n_edps: int,
    n_slots: int,
    dt: float,
    rate_per_edp: Optional[float] = None,
    seed: int = 0,
    warmup_slots: int = 0,
) -> RequestStream:
    """The ``fixed`` stream that replays a canned workload scenario.

    The inverse of :func:`stream_workload`: the workload's popularity
    becomes the stream's shares and its timeliness law the stream's.
    ``rate_per_edp`` defaults to the workload's own request rate.
    """
    return make_stream(
        "fixed",
        shares=workload.popularity,
        timeliness=workload.timeliness_model,
        n_edps=n_edps,
        n_slots=n_slots,
        dt=dt,
        rate_per_edp=(
            workload.requests.rate_per_edp if rate_per_edp is None
            else rate_per_edp
        ),
        seed=seed,
        warmup_slots=warmup_slots,
    )
