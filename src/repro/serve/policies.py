"""Serving policies: admission, eviction, and refresh decisions.

A :class:`ServingPolicy` answers the three questions the replay engine
asks on the request path:

* ``admit(slot, content, count, cache, rng)`` — cache this missed
  content (requested ``count`` times in the slot)?
* ``victim(slot, cache, rng)`` — which cached content makes room?
* ``refresh_due(slot, content, age)`` — re-fetch a stale cached copy
  before serving?

Classical eviction policies (LRU, LFU, random replacement) and a
static most-popular placement mirror the paper's comparison schemes on
the serving plane.  :class:`MFGPolicyAdapter` closes the loop with the
reproduction: it drives admission probabilities from the solved
equilibrium :class:`~repro.core.policy.CachingPolicy` (caching rate
``x*``), ranks eviction victims by the equilibrium's predicted
population occupancy, and refreshes on a schedule that tightens as the
equilibrium caches more aggressively.

Policies are stateless across EDPs — all mutable serving state lives
in the per-EDP :class:`~repro.serve.cache.EdgeCache` — so one policy
instance serves a whole shard and pickles cleanly to pool workers.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.equilibrium import EquilibriumResult
from repro.serve.cache import EdgeCache

POLICY_NAMES = ("mfg", "lru", "lfu", "random", "most-popular")


class ServingPolicy(abc.ABC):
    """Decision strategy consulted by the replay engine."""

    name: str = "policy"

    def warm(self, cache: EdgeCache, t: float = 0.0) -> float:
        """Optional static preload before the replay; returns MB fetched.

        The default cold start loads nothing.  Static placements
        (most-popular) fill the cache here and then refuse admission.
        """
        del cache, t
        return 0.0

    def admit(
        self,
        slot: int,
        content: int,
        count: int,
        cache: EdgeCache,
        rng: np.random.Generator,
    ) -> bool:
        """Whether a missed ``content`` (``count`` requests) should be cached."""
        del slot, content, count, cache, rng
        return True

    @abc.abstractmethod
    def victim(
        self, slot: int, cache: EdgeCache, rng: np.random.Generator
    ) -> int:
        """The cached content to evict when room is needed.

        Only called with a non-empty cache.  Must be deterministic
        given the cache state and the RNG stream.
        """

    def refresh_due(self, slot: int, content: int, age: float) -> bool:
        """Whether a cached copy of this ``age`` should be re-fetched."""
        del slot, content, age
        return False


class LRUPolicy(ServingPolicy):
    """Evict the least-recently-used copy; admit everything."""

    name = "lru"

    def victim(self, slot, cache, rng):
        del slot, rng
        return min(cache, key=lambda e: (e.last_used, e.content)).content


class LFUPolicy(ServingPolicy):
    """Evict the least-frequently-used copy; admit everything."""

    name = "lfu"

    def victim(self, slot, cache, rng):
        del slot, rng
        return min(cache, key=lambda e: (e.hits, e.last_used, e.content)).content


class RandomEvictionPolicy(ServingPolicy):
    """Evict a uniformly random copy (the RR scheme's serving analogue)."""

    name = "random"

    def victim(self, slot, cache, rng):
        del slot
        keys = list(cache.entries)
        return int(keys[int(rng.integers(len(keys)))])


@dataclass
class MostPopularPolicy(ServingPolicy):
    """Static placement of the most popular contents that fit.

    The serving analogue of
    :class:`repro.baselines.most_popular.MostPopularScheme`: the cache
    is filled once, by descending popularity, and never changes — no
    admission on misses, no eviction, no refresh.
    """

    sizes_mb: Sequence[float]
    popularity: Sequence[float]

    name = "most-popular"

    def __post_init__(self) -> None:
        if len(self.sizes_mb) != len(self.popularity):
            raise ValueError(
                f"{len(self.sizes_mb)} sizes for {len(self.popularity)} "
                f"popularity values"
            )

    def placement(self, capacity_mb: float) -> Sequence[int]:
        """Contents preloaded into a cache of the given capacity."""
        order = np.argsort(-np.asarray(self.popularity, dtype=float), kind="stable")
        chosen, used = [], 0.0
        for k in order:
            size = float(self.sizes_mb[int(k)])
            if used + size <= capacity_mb + 1e-9:
                chosen.append(int(k))
                used += size
        return chosen

    def warm(self, cache: EdgeCache, t: float = 0.0) -> float:
        loaded = 0.0
        for k in self.placement(cache.capacity_mb):
            loaded += cache.store(k, float(self.sizes_mb[k]), t).size_mb
        return loaded

    def admit(self, slot, content, count, cache, rng):
        del slot, content, count, cache, rng
        return False

    def victim(self, slot, cache, rng):
        raise RuntimeError("most-popular is a static placement; nothing to evict")


def lowest_score_victim(row: Sequence[float], cache: EdgeCache) -> int:
    """The equilibrium eviction rule shared by both serving planes.

    Evicts the copy whose content scores lowest in ``row`` (one slot's
    scores, indexed by content); ties on the score go to the
    least-recently-used copy, then to the lower content index.  That is
    ``min(cache, key=lambda e: (row[e.content], e.last_used,
    e.content))``, computed as one scan for the lowest score and a
    tie-break among the (usually single) copies that reach it.
    """
    entries = cache.entries
    scores = list(map(row.__getitem__, entries))
    low = min(scores)
    if scores.count(low) == 1:
        return list(entries)[scores.index(low)]  # keys are content indices
    ties = [e for e, score in zip(entries.values(), scores) if score == low]
    return min(ties, key=lambda e: (e.last_used, e.content)).content


class DecisionRows:
    """Python row lists of a policy's ``(n_slots, n_contents)`` tables.

    Decisions index ``self._<table>_rows[slot][content]``: plain list
    indexing of Python floats is several times cheaper than a 2-D numpy
    scalar lookup, and the values are the same doubles.  The rows are
    derived state, so they are left out of pickles (pool work items,
    resume keys) and rebuilt on load.
    """

    _row_tables: Tuple[str, ...] = ()

    def _build_rows(self) -> None:
        for name in self._row_tables:
            setattr(self, f"_{name}_rows", getattr(self, name).tolist())

    def __getstate__(self):
        derived = {f"_{name}_rows" for name in self._row_tables}
        return {k: v for k, v in self.__dict__.items() if k not in derived}

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        self._build_rows()


@dataclass
class MFGPolicyAdapter(DecisionRows, ServingPolicy):
    """Serve from the solved MFG-CP equilibrium.

    The adapter distils each content's equilibrium into two slot-indexed
    tables:

    * ``rate`` — the representative agent's caching rate
      ``x*(t, h̄, q̄(t))`` read from the solved
      :class:`~repro.core.policy.CachingPolicy` along the mean-field
      trajectory.  A missed *singleton* request is admitted with this
      probability (the equilibrium caching *rate* becomes an admission
      *probability* at request granularity); a missed *burst* of
      ``count > 1`` requests is always admitted, because its
      ``count - 1`` immediate edge hits dominate ``count`` cloud
      serves no matter what the equilibrium's retention preference is.
    * ``score`` — the equilibrium's predicted population occupancy
      ``1 - q̄_k(t) / Q_k``.  Eviction drops the lowest-scored copy, so
      the cache tracks what the equilibrium says the population holds.

    Refresh schedule: a cached copy is re-fetched before serving once
    its age exceeds ``(1 - rate) * update_period`` — the harder the
    equilibrium caches, the fresher it keeps its copies, which is how
    the HJB's staleness cost (Eq. (9), weight ``eta2``) surfaces on the
    serving plane.

    Singleton admission is additionally *score-guarded*: a lone
    request that would force an eviction is only admitted when its
    content's occupancy score beats the weakest cached copy's — the
    equilibrium never displaces a copy it values more than a newcomer
    with no immediate reuse.

    Attributes
    ----------
    rate: ``(n_slots, n_contents)`` admission probabilities in [0, 1].
    score: ``(n_slots, n_contents)`` eviction priorities (higher = keep).
    update_periods: per-content cloud refresh periods (time units).
    sizes_mb: per-content sizes (decides when admission needs room).
    """

    rate: np.ndarray
    score: np.ndarray
    update_periods: Sequence[float]
    sizes_mb: Sequence[float]

    name = "mfg"
    _row_tables = ("rate", "score", "refresh_slack")

    def __post_init__(self) -> None:
        self.rate = np.asarray(self.rate, dtype=float)
        self.score = np.asarray(self.score, dtype=float)
        if self.rate.ndim != 2 or self.rate.shape != self.score.shape:
            raise ValueError(
                f"rate {self.rate.shape} and score {self.score.shape} must be "
                f"matching (n_slots, n_contents) tables"
            )
        if self.rate.shape[1] != len(self.update_periods):
            raise ValueError(
                f"{self.rate.shape[1]} contents in tables, "
                f"{len(self.update_periods)} update periods"
            )
        if self.rate.shape[1] != len(self.sizes_mb):
            raise ValueError(
                f"{self.rate.shape[1]} contents in tables, "
                f"{len(self.sizes_mb)} sizes"
            )
        if np.any(self.rate < -1e-9) or np.any(self.rate > 1.0 + 1e-9):
            raise ValueError("admission rates must lie in [0, 1]")
        self.rate = np.clip(self.rate, 0.0, 1.0)
        # Precomputed refresh-slack table (1 - rate) * update_period:
        # the whole refresh schedule becomes one lookup on the request
        # hot path instead of per-request arithmetic.
        self.refresh_slack = (1.0 - self.rate) * np.asarray(
            self.update_periods, dtype=float
        )[None, :]
        self._build_rows()

    @classmethod
    def from_equilibria(
        cls,
        equilibria: Mapping[int, EquilibriumResult],
        sizes_mb: Sequence[float],
        update_periods: Sequence[float],
        slot_times: Sequence[float],
        horizon: Optional[float] = None,
    ) -> "MFGPolicyAdapter":
        """Distil per-content equilibria into replay tables.

        Parameters
        ----------
        equilibria:
            Solved equilibrium per content index (all contents needed).
        sizes_mb, update_periods:
            Catalog geometry, indexed like the equilibria.
        slot_times:
            Replay slot midpoints.
        horizon:
            Replay horizon; slot times are mapped proportionally onto
            each equilibrium's own epoch ``[0, T]``.  Defaults to the
            last slot's end implied by uniform midpoint slots: half a
            slot past the last midpoint (``2 * t[0]`` for one slot).
        """
        slot_times = np.asarray(slot_times, dtype=float)
        if slot_times.ndim != 1 or slot_times.size < 1:
            raise ValueError("slot_times must be a non-empty vector")
        n_contents = len(sizes_mb)
        if len(update_periods) != n_contents:
            raise ValueError(
                f"{len(update_periods)} update periods for {n_contents} contents"
            )
        missing = [k for k in range(n_contents) if k not in equilibria]
        if missing:
            raise ValueError(
                f"no solved equilibrium for contents {missing}; solve every "
                f"catalog content before building the adapter"
            )
        if horizon is None:
            if slot_times.size > 1:
                horizon = float(
                    slot_times[-1] + 0.5 * (slot_times[-1] - slot_times[-2])
                )
            else:
                horizon = float(2.0 * slot_times[0])
        if horizon <= 0:
            raise ValueError(f"horizon must be positive, got {horizon}")

        rate = np.empty((slot_times.size, n_contents))
        score = np.empty_like(rate)
        for k in range(n_contents):
            eq = equilibria[k]
            t_eq = slot_times / horizon * eq.config.horizon
            mean_q = np.interp(t_eq, eq.grid.t, eq.mean_field.mean_q)
            h_mean = float(eq.config.channel.mean)
            rate[:, k] = [
                eq.policy(float(t), h_mean, float(q))
                for t, q in zip(t_eq, mean_q)
            ]
            score[:, k] = 1.0 - mean_q / float(eq.config.content_size)
        return cls(
            rate=rate,
            score=score,
            update_periods=tuple(float(u) for u in update_periods),
            sizes_mb=tuple(float(s) for s in sizes_mb),
        )

    def admit(self, slot, content, count, cache, rng):
        if count > 1:
            # A burst pays for its own admission: count-1 immediate
            # edge hits beat count cloud serves.
            return True
        if not rng.random() < self._rate_rows[slot][content]:
            return False
        if cache.has_room(float(self.sizes_mb[content])):
            return True
        row = self._score_rows[slot]
        return row[content] > min(map(row.__getitem__, cache.entries))

    def victim(self, slot, cache, rng):
        del rng
        return lowest_score_victim(self._score_rows[slot], cache)

    def refresh_due(self, slot, content, age):
        return age > self._refresh_slack_rows[slot][content]


def make_policy(
    name: str,
    *,
    sizes_mb: Sequence[float],
    popularity: Sequence[float],
    equilibria: Optional[Mapping[int, EquilibriumResult]] = None,
    update_periods: Optional[Sequence[float]] = None,
    slot_times: Optional[Sequence[float]] = None,
    horizon: Optional[float] = None,
) -> ServingPolicy:
    """Build a serving policy from its CLI name.

    ``"mfg"`` additionally requires solved ``equilibria``,
    ``update_periods`` and the replay ``slot_times`` (the engine
    supplies all three).
    """
    key = str(name).strip().lower()
    if key == "lru":
        return LRUPolicy()
    if key == "lfu":
        return LFUPolicy()
    if key in ("random", "rr"):
        return RandomEvictionPolicy()
    if key in ("most-popular", "mpc"):
        return MostPopularPolicy(sizes_mb=tuple(sizes_mb), popularity=tuple(popularity))
    if key == "mfg":
        if equilibria is None or update_periods is None or slot_times is None:
            raise ValueError(
                "the 'mfg' policy needs solved equilibria, update periods, "
                "and replay slot times"
            )
        return MFGPolicyAdapter.from_equilibria(
            equilibria, sizes_mb, update_periods, slot_times, horizon=horizon
        )
    raise ValueError(
        f"unknown serving policy {name!r}; expected one of {POLICY_NAMES}"
    )
