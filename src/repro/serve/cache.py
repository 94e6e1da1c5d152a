"""Edge cache mechanics: capacity accounting, lookup, eviction.

An :class:`EdgeCache` models one EDP's content store at whole-content
granularity (the classical simulator abstraction; cf. the icarus line
of cache simulators).  The cache knows *mechanics* only — what is
stored, how full it is, when each copy was fetched and last used.
*Decisions* (admit? evict whom? refresh when?) belong to the policies
in :mod:`repro.serve.policies`; the split keeps every policy honest
against identical bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional


@dataclass
class CacheEntry:
    """One cached content copy.

    Attributes
    ----------
    content:
        Catalog index ``k``.
    size_mb:
        Bytes held (whole-content granularity).
    fetched_at:
        Time of the last backhaul fetch/refresh; the copy's age at a
        serve is ``t - fetched_at`` and drives staleness accounting.
    last_used:
        Last serve time (LRU's signal).
    hits:
        Serves from this copy since admission (LFU's signal).
    """

    content: int
    size_mb: float
    fetched_at: float
    last_used: float
    hits: int = 0

    def age(self, t: float) -> float:
        """Seconds since the copy was last fetched."""
        return max(0.0, t - self.fetched_at)


@dataclass
class EdgeCache:
    """One EDP's content store with strict capacity accounting.

    Attributes
    ----------
    capacity_mb:
        Total edge storage in MB.
    entries:
        Cached copies by content index, in admission order (python
        dicts preserve insertion order, which policies exploit for
        deterministic tie-breaking).
    """

    capacity_mb: float
    entries: Dict[int, CacheEntry] = field(default_factory=dict)
    # Running occupancy; ``None`` once an eviction has invalidated it.
    _used_mb: Optional[float] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.capacity_mb <= 0:
            raise ValueError(f"capacity_mb must be positive, got {self.capacity_mb}")

    @property
    def used_mb(self) -> float:
        """Bytes currently held.

        Always the left-to-right float sum of the entry sizes in
        insertion order.  ``store`` extends the running total by one
        term, which keeps that order; ``evict`` drops the total and the
        next read re-adds the survivors from the first.  Subtracting
        the evicted size instead would round differently.
        """
        used = self._used_mb
        if used is None:
            used = 0.0
            for entry in self.entries.values():
                used += entry.size_mb
            self._used_mb = used
        return used

    @property
    def free_mb(self) -> float:
        return self.capacity_mb - self.used_mb

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, content: int) -> bool:
        return content in self.entries

    def __iter__(self) -> Iterator[CacheEntry]:
        return iter(self.entries.values())

    def lookup(self, content: int) -> Optional[CacheEntry]:
        """The cached copy of ``content``, or ``None`` on a miss."""
        return self.entries.get(content)

    def has_room(self, size_mb: float) -> bool:
        """Whether ``size_mb`` fits without eviction."""
        return size_mb <= self.capacity_mb - self.used_mb + 1e-9

    def fits(self, size_mb: float) -> bool:
        """Whether ``size_mb`` could ever fit (capacity bound)."""
        return size_mb <= self.capacity_mb + 1e-9

    def store(self, content: int, size_mb: float, t: float) -> CacheEntry:
        """Admit a fresh copy; the caller must have made room first."""
        if size_mb <= 0:
            raise ValueError(f"size_mb must be positive, got {size_mb}")
        if content in self.entries:
            raise ValueError(f"content {content} is already cached")
        if not self.has_room(size_mb):
            raise ValueError(
                f"no room for {size_mb} MB (free {self.free_mb:.1f} MB); "
                f"evict first"
            )
        entry = CacheEntry(
            content=content, size_mb=size_mb, fetched_at=t, last_used=t
        )
        self._used_mb = self.used_mb + size_mb
        self.entries[content] = entry
        return entry

    def evict(self, content: int) -> CacheEntry:
        """Drop a cached copy; returns the evicted entry."""
        entry = self.entries.pop(content, None)
        if entry is None:
            raise KeyError(f"content {content} is not cached")
        self._used_mb = None
        return entry
