"""On-path placement strategies for cache-network replays.

When a request misses at a caching node it travels on toward the
origin; once served (at a deeper cache or at the source), the content
flows back down the same path and every caching node it passes asks
its :class:`PlacementStrategy` whether to keep a copy.  The classical
strategies answered that question long before mean-field games did:

* **LCE** (Leave Copy Everywhere) — cache at every node on the return
  path.
* **LCD** (Leave Copy Down) — cache at exactly one node: the first
  caching node downstream of wherever the content was served, so a
  copy migrates one level toward the receiver per request.
* **ProbCache** (Psaras et al.) — cache probabilistically, weighting
  nodes near the receiver by the remaining path's cache capacity:
  ``p = N / (t_tw * c_v) * (x / L)^L`` with ``N`` the total capacity
  (in copies) of the remaining downstream path, ``c_v`` this node's
  capacity, ``x`` hops travelled from the serving point, and ``L``
  the serving-point-to-receiver path length.
* **edge** — cache only at the last caching node before the receiver
  (the degenerate "edge-only" placement the paper's isolated-EDP
  model corresponds to).

:class:`MFGNetworkStrategy` is the reproduction's entry in that
lineup: the solved per-content equilibrium caching rate ``x*(t)``
becomes a per-node admission probability scaled by node depth
(``depth / max_depth`` — full equilibrium rate at the request edge,
proportionally less toward the origin), and eviction ranks copies by
the equilibrium's predicted population occupancy instead of recency.
Deeper-is-greedier concentrates the Zipf head near receivers while
keeping upstream caches available for the tail, which is what lets
the adapter beat LCE at equal total cache budget.

Strategies are stateless across nodes and replicas — all mutable
state lives in the per-node caches and queues — so one instance
serves a whole replay and pickles cleanly to pool workers.  Random
draws come from the *receiver's* policy stream, never the request
stream, so request traces are identical under every strategy.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Optional, Sequence

import numpy as np

from repro.core.equilibrium import EquilibriumResult
from repro.serve.cache import EdgeCache
from repro.serve.policies import (
    MFGPolicyAdapter,
    DecisionRows,
    lowest_score_victim,
)

STRATEGY_NAMES = ("lce", "lcd", "probcache", "edge", "mfg")

# ProbCache's "time window" constant from the original paper; the cache
# capacity sum N is measured in copies of the content being placed.
PROBCACHE_T_TW = 10.0


class PlacementSite(NamedTuple):
    """One caching node's view of a return-path placement decision.

    Attributes
    ----------
    node:
        The caching node's id.
    slot:
        Replay slot index.
    content:
        Catalog index of the content flowing back.
    hops_from_server:
        Hops travelled from the serving point to this node (>= 1).
    hops_to_receiver:
        Hops left to the receiver (>= 1; the receiver holds no cache).
    path_len:
        Serving-point-to-receiver hop count.
    downstream_index:
        1-based position among the *caching* nodes of the return path
        (1 = first caching node below the serving point).
    is_edge:
        Whether this is the last caching node before the receiver.
    depth:
        The node's hop distance from the nearest source.
    max_depth:
        The deepest caching node's depth in the topology.
    path_capacity:
        Total capacity (in copies of this content) of the caching
        nodes from here down to the receiver, inclusive.
    node_capacity:
        This node's capacity in copies of this content.
    """

    node: int
    slot: int
    content: int
    hops_from_server: int
    hops_to_receiver: int
    path_len: int
    downstream_index: int
    is_edge: bool
    depth: int
    max_depth: int
    path_capacity: float
    node_capacity: float


class PlacementStrategy(abc.ABC):
    """Decides where a travelling content leaves copies."""

    name: str = "strategy"

    @abc.abstractmethod
    def should_place(
        self, site: PlacementSite, rng: np.random.Generator
    ) -> bool:
        """Whether to cache the content at this return-path node."""

    def victim(
        self, slot: int, cache: EdgeCache, rng: np.random.Generator
    ) -> int:
        """The cached content evicted to make room (default LRU).

        Only called with a non-empty cache; must be deterministic
        given cache state and the RNG stream.
        """
        del slot, rng
        return min(cache, key=lambda e: (e.last_used, e.content)).content


class LCEStrategy(PlacementStrategy):
    """Leave Copy Everywhere: place at every return-path cache."""

    name = "lce"

    def should_place(self, site, rng):
        del site, rng
        return True


class LCDStrategy(PlacementStrategy):
    """Leave Copy Down: place at exactly one node per serve.

    Only the first caching node downstream of the serving point keeps
    a copy, so content migrates one level toward the receiver each
    time it is requested — the classical self-filtering hierarchy.
    """

    name = "lcd"

    def should_place(self, site, rng):
        del rng
        return site.downstream_index == 1


class EdgeOnlyStrategy(PlacementStrategy):
    """Cache only at the last node before the receiver.

    The network analogue of the paper's isolated-EDP serving model:
    all placement happens at the request edge, upstream caches stay
    empty.
    """

    name = "edge"

    def should_place(self, site, rng):
        del rng
        return site.is_edge


class ProbCacheStrategy(PlacementStrategy):
    """Probabilistic on-path caching (Psaras et al., the icarus form).

    ``p = path_capacity / (t_tw * node_capacity) * (x / L)^L`` — the
    deeper into the return path the content has travelled (larger
    ``x``), the likelier a copy sticks, weighted by how much cache
    space the remaining downstream path offers.
    """

    name = "probcache"

    def __init__(self, t_tw: float = PROBCACHE_T_TW) -> None:
        if t_tw <= 0:
            raise ValueError(f"t_tw must be positive, got {t_tw}")
        self.t_tw = float(t_tw)

    def should_place(self, site, rng):
        if site.node_capacity <= 0:
            return False
        x, length = site.hops_from_server, max(site.path_len, 1)
        p = (
            site.path_capacity
            / (self.t_tw * site.node_capacity)
            * (x / length) ** length
        )
        return bool(rng.random() < min(p, 1.0))


@dataclass
class MFGNetworkStrategy(DecisionRows, PlacementStrategy):
    """Equilibrium-driven on-path placement.

    Attributes
    ----------
    rate:
        ``(n_slots, n_contents)`` equilibrium caching rates in [0, 1]
        (the :class:`~repro.serve.policies.MFGPolicyAdapter` table).
    score:
        ``(n_slots, n_contents)`` eviction priorities (higher = keep),
        the equilibrium's predicted population occupancy.
    """

    rate: np.ndarray
    score: np.ndarray

    name = "mfg"
    _row_tables = ("rate", "score")

    def __post_init__(self) -> None:
        self.rate = np.asarray(self.rate, dtype=float)
        self.score = np.asarray(self.score, dtype=float)
        if self.rate.ndim != 2 or self.rate.shape != self.score.shape:
            raise ValueError(
                f"rate {self.rate.shape} and score {self.score.shape} must be "
                f"matching (n_slots, n_contents) tables"
            )
        if np.any(self.rate < -1e-9) or np.any(self.rate > 1.0 + 1e-9):
            raise ValueError("admission rates must lie in [0, 1]")
        self.rate = np.clip(self.rate, 0.0, 1.0)
        self._build_rows()

    @classmethod
    def from_equilibria(
        cls,
        equilibria: Mapping[int, EquilibriumResult],
        sizes_mb: Sequence[float],
        update_periods: Sequence[float],
        slot_times: Sequence[float],
        horizon: Optional[float] = None,
    ) -> "MFGNetworkStrategy":
        """Distil solved per-content equilibria into placement tables.

        Reuses :meth:`MFGPolicyAdapter.from_equilibria` — the network
        strategy consumes exactly the tables the single-cache adapter
        does, so both planes read the same equilibrium.
        """
        adapter = MFGPolicyAdapter.from_equilibria(
            equilibria, sizes_mb, update_periods, slot_times, horizon=horizon
        )
        return cls(rate=adapter.rate, score=adapter.score)

    def admission_probability(self, site: PlacementSite) -> float:
        """Depth-scaled admission probability at this site.

        The request edge (``depth == max_depth``) admits at the full
        equilibrium caching rate; each level toward the origin scales
        it down proportionally, keeping upstream caches selective.
        """
        depth_scale = (
            site.depth / site.max_depth if site.max_depth > 0 else 1.0
        )
        return self._rate_rows[site.slot][site.content] * depth_scale

    def should_place(self, site, rng):
        # admission_probability inlined: this runs once per candidate
        # node of every placement walk.
        depth_scale = (
            site.depth / site.max_depth if site.max_depth > 0 else 1.0
        )
        return rng.random() < (
            self._rate_rows[site.slot][site.content] * depth_scale
        )

    def victim(self, slot, cache, rng):
        del rng
        return lowest_score_victim(self._score_rows[slot], cache)


def make_strategy(
    name: str,
    *,
    equilibria: Optional[Mapping[int, EquilibriumResult]] = None,
    sizes_mb: Optional[Sequence[float]] = None,
    update_periods: Optional[Sequence[float]] = None,
    slot_times: Optional[Sequence[float]] = None,
    horizon: Optional[float] = None,
) -> PlacementStrategy:
    """Build a placement strategy from its CLI name.

    ``"mfg"`` additionally requires the solved ``equilibria`` plus the
    catalog geometry and replay slot times (the engine supplies them).
    """
    key = str(name).strip().lower()
    if key == "lce":
        return LCEStrategy()
    if key == "lcd":
        return LCDStrategy()
    if key in ("edge", "edge-only"):
        return EdgeOnlyStrategy()
    if key == "probcache":
        return ProbCacheStrategy()
    if key == "mfg":
        if (
            equilibria is None
            or sizes_mb is None
            or update_periods is None
            or slot_times is None
        ):
            raise ValueError(
                "the 'mfg' strategy needs solved equilibria, catalog sizes, "
                "update periods, and replay slot times"
            )
        return MFGNetworkStrategy.from_equilibria(
            equilibria, sizes_mb, update_periods, slot_times, horizon=horizon
        )
    raise ValueError(
        f"unknown placement strategy {name!r}; expected one of {STRATEGY_NAMES}"
    )
