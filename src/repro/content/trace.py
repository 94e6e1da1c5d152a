"""YouTube-trending-style workload trace: synthetic generator + loader.

The paper's evaluation derives per-category request counts from the
Kaggle "Trending YouTube Video Statistics" dataset.  That dataset is
not available offline, so this module provides a drop-in substitute:

* :class:`SyntheticYouTubeTrace` generates records with the same schema
  (video id, category, tags, views, likes, comment count, publish
  time) whose per-category view totals follow a Zipf law with
  log-normal per-video noise — i.e. exactly the popularity prior the
  paper itself assumes (Def. 1), so everything downstream of the trace
  behaves identically.
* :func:`load_trace_csv` reads the real Kaggle CSV when present, with
  the same output type, so users with the dataset can swap it in.
* :func:`trace_to_popularity` converts either trace into the
  per-category request share consumed by
  :class:`repro.content.popularity.PopularityTracker`.

The substitution is recorded in DESIGN.md §3.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

# Category labels mirroring the YouTube trending category taxonomy; the
# paper selects K = 20 categories.
DEFAULT_CATEGORIES: Tuple[str, ...] = (
    "Film & Animation", "Autos & Vehicles", "Music", "Pets & Animals",
    "Sports", "Travel & Events", "Gaming", "People & Blogs",
    "Comedy", "Entertainment", "News & Politics", "Howto & Style",
    "Education", "Science & Technology", "Nonprofits & Activism",
    "Movies", "Shows", "Trailers", "Documentary", "Shorts",
)

_TAG_POOL: Tuple[str, ...] = (
    "viral", "trending", "new", "official", "live", "review", "tutorial",
    "highlights", "music video", "vlog", "funny", "breaking", "4k",
    "interview", "reaction", "episode", "gameplay", "news", "howto",
)


@dataclass(frozen=True)
class TraceRecord:
    """One trace row (matches the Kaggle schema fields the paper cites).

    ``receiver`` is an optional network attachment point: traces that
    carry a ``receiver`` column can drive multi-receiver cache-network
    replays (:mod:`repro.serve.net`), with each record's demand
    credited to that receiver's request stream.  ``None`` means the
    record is not pinned to any receiver.
    """

    video_id: str
    category: str
    tags: Tuple[str, ...]
    views: int
    likes: int
    comment_count: int
    publish_time: float
    description: str = ""
    receiver: Optional[int] = None

    def __post_init__(self) -> None:
        if self.views < 0 or self.likes < 0 or self.comment_count < 0:
            raise ValueError("views, likes and comment_count must be non-negative")
        if self.receiver is not None and self.receiver < 0:
            raise ValueError(f"receiver id must be non-negative, got {self.receiver}")


@dataclass
class SyntheticYouTubeTrace:
    """Synthetic stand-in for the Kaggle YouTube trending dataset.

    Per-category view totals follow ``Zipf(zipf_exponent)`` over a
    random permutation of the categories (so the "most popular" label
    varies by seed, as in the real data), and per-video views are the
    category share times a log-normal multiplicative factor.  Likes and
    comments are drawn as thinned binomials of views, mirroring the
    heavy correlation in the real dataset.

    Parameters
    ----------
    n_videos:
        Number of trace records to generate.
    categories:
        Category labels; defaults to a 20-category YouTube-like taxonomy
        (the paper's ``K = 20``).
    zipf_exponent:
        Steepness of category demand.
    total_views:
        Approximate sum of views across the trace.
    """

    n_videos: int = 2000
    categories: Sequence[str] = DEFAULT_CATEGORIES
    zipf_exponent: float = 0.8
    total_views: float = 5e7
    view_noise_sigma: float = 0.6
    rng: np.random.Generator = field(default_factory=np.random.default_rng)

    def __post_init__(self) -> None:
        if self.n_videos < 1:
            raise ValueError(f"n_videos must be positive, got {self.n_videos}")
        if len(self.categories) < 1:
            raise ValueError("need at least one category")
        if self.zipf_exponent <= 0:
            raise ValueError(f"zipf_exponent must be positive, got {self.zipf_exponent}")
        if self.total_views <= 0:
            raise ValueError(f"total_views must be positive, got {self.total_views}")

    def category_shares(self) -> Dict[str, float]:
        """Zipf demand share per category (random rank assignment)."""
        k = len(self.categories)
        ranks = np.arange(1, k + 1, dtype=float)
        weights = ranks ** (-self.zipf_exponent)
        weights /= weights.sum()
        order = self.rng.permutation(k)
        return {self.categories[int(i)]: float(weights[r]) for r, i in enumerate(order)}

    def generate(self) -> List[TraceRecord]:
        """Generate the full synthetic trace."""
        shares = self.category_shares()
        labels = list(shares)
        probs = np.array([shares[c] for c in labels])
        assignments = self.rng.choice(len(labels), size=self.n_videos, p=probs)
        mean_views = self.total_views / self.n_videos

        records: List[TraceRecord] = []
        for idx, cat_idx in enumerate(assignments):
            category = labels[int(cat_idx)]
            # Per-video views: category share times log-normal noise,
            # normalised so the trace total is ~total_views.
            base = mean_views * probs[int(cat_idx)] * len(labels)
            noise = self.rng.lognormal(mean=0.0, sigma=self.view_noise_sigma)
            views = max(1, int(base * noise))
            likes = int(self.rng.binomial(views, 0.03))
            comments = int(self.rng.binomial(views, 0.004))
            n_tags = int(self.rng.integers(1, 6))
            tags = tuple(self.rng.choice(_TAG_POOL, size=n_tags, replace=False))
            records.append(
                TraceRecord(
                    video_id=f"vid{idx:06d}",
                    category=category,
                    tags=tags,
                    views=views,
                    likes=likes,
                    comment_count=comments,
                    publish_time=float(self.rng.uniform(0.0, 30.0)),
                    description=f"synthetic record for {category}",
                )
            )
        return records


class TraceLoadResult(List[TraceRecord]):
    """The records parsed from a trace CSV, plus skip counts.

    A plain list of :class:`TraceRecord` (all existing callers keep
    working) carrying ``skipped_rows`` — how many data rows were
    dropped as malformed (short rows, missing category, non-numeric
    view counts) — and ``skipped_receivers``, the subset of those
    dropped specifically for a malformed ``receiver`` id (non-integer
    or negative) when the trace carries a receiver column.
    """

    def __init__(
        self,
        records: Iterable[TraceRecord] = (),
        skipped_rows: int = 0,
        skipped_receivers: int = 0,
    ) -> None:
        super().__init__(records)
        self.skipped_rows = int(skipped_rows)
        self.skipped_receivers = int(skipped_receivers)


def _optional_count(value: object) -> int:
    """A best-effort non-negative int from an optional CSV cell."""
    try:
        return max(0, int(float(value)))  # type: ignore[arg-type]
    except (TypeError, ValueError):
        return 0


def load_trace_csv(
    path: Path,
    category_column: str = "category_id",
    views_column: str = "views",
    receiver_column: str = "receiver",
) -> TraceLoadResult:
    """Load a real Kaggle trending CSV into :class:`TraceRecord` rows.

    Only the columns the paper actually uses are required; missing
    optional columns default to zero/empty.  Real trending dumps are
    messy mid-file — short rows, missing categories, non-numeric view
    counts — so malformed *data* rows are skipped rather than aborting
    the load; the returned :class:`TraceLoadResult` counts them in
    ``skipped_rows``.  A missing header or required column still
    raises, since no row could ever parse.

    When the trace carries a ``receiver_column`` (optional; absent in
    the real Kaggle dumps), each row's receiver id is parsed into
    :attr:`TraceRecord.receiver` for cache-network replays.  An empty
    cell means "unpinned" (``receiver=None``); a malformed id
    (non-integer or negative) drops the row and is counted in both
    ``skipped_rows`` and ``skipped_receivers``.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"trace file not found: {path}")
    records: List[TraceRecord] = []
    skipped = 0
    skipped_receivers = 0
    with path.open(newline="", encoding="utf-8", errors="replace") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None or category_column not in reader.fieldnames:
            raise ValueError(
                f"trace file {path} lacks required column {category_column!r}"
            )
        has_receiver = receiver_column in reader.fieldnames
        for row_idx, row in enumerate(reader):
            category = row.get(category_column)
            if category is None or not str(category).strip():
                skipped += 1  # short row: DictReader pads with None
                continue
            try:
                views = int(float(row.get(views_column) or 0))
            except (TypeError, ValueError):
                skipped += 1
                continue
            receiver: Optional[int] = None
            if has_receiver:
                raw = str(row.get(receiver_column) or "").strip()
                if raw:
                    try:
                        receiver = int(raw)
                        if receiver < 0:
                            raise ValueError(raw)
                    except ValueError:
                        skipped += 1
                        skipped_receivers += 1
                        continue
            tags_raw = row.get("tags", "") or ""
            tags = tuple(t.strip(' "') for t in tags_raw.split("|") if t.strip(' "'))
            records.append(
                TraceRecord(
                    video_id=str(row.get("video_id") or f"row{row_idx}"),
                    category=str(category),
                    tags=tags,
                    views=max(0, views),
                    likes=_optional_count(row.get("likes", 0)),
                    comment_count=_optional_count(row.get("comment_count", 0)),
                    publish_time=0.0,
                    description=str(row.get("description", "") or ""),
                    receiver=receiver,
                )
            )
    return TraceLoadResult(
        records, skipped_rows=skipped, skipped_receivers=skipped_receivers
    )


def trace_receiver_popularity(
    records: Iterable[TraceRecord],
    n_receivers: int,
    n_contents: Optional[int] = None,
) -> Tuple[List[str], np.ndarray]:
    """Per-receiver demand shares from a receiver-annotated trace.

    Returns the global category labels (most viewed first, as in
    :func:`trace_to_popularity`) and an ``(n_receivers, n_contents)``
    matrix whose row ``r`` is receiver ``r``'s normalised demand over
    those categories — the ``lane_shares`` of a
    :class:`repro.serve.stream.LanePopularityStream`, which gives every
    replica of receiver ``r`` row ``r``'s demand in a network replay.
    Records with ``receiver=None`` (or a
    receiver id outside ``range(n_receivers)``) spread their views
    uniformly across all receivers, so unpinned demand still counts.
    Receivers with no demand at all fall back to the global share.
    """
    if n_receivers < 1:
        raise ValueError(f"n_receivers must be positive, got {n_receivers}")
    records = list(records)
    labels, global_share = trace_to_popularity(records, n_contents=n_contents)
    index = {name: i for i, name in enumerate(labels)}
    totals = np.zeros((n_receivers, len(labels)))
    for rec in records:
        col = index.get(rec.category)
        if col is None:
            continue
        if rec.receiver is not None and 0 <= rec.receiver < n_receivers:
            totals[rec.receiver, col] += float(rec.views)
        else:
            totals[:, col] += float(rec.views) / n_receivers
    matrix = np.empty_like(totals)
    for r in range(n_receivers):
        mass = totals[r].sum()
        matrix[r] = totals[r] / mass if mass > 0 else global_share
    return labels, matrix


def trace_windows(
    records: Iterable[TraceRecord],
    n_windows: int,
    n_contents: Optional[int] = None,
) -> List[Tuple[List[str], np.ndarray]]:
    """Split a trace into publish-time windows of drifting demand.

    The synthetic trace stamps every record with a publish time; this
    helper buckets records into ``n_windows`` equal time windows and
    returns each window's per-category demand share on a *common*
    category axis (the globally most-viewed categories, so window
    vectors are directly comparable).  Feeding consecutive windows into
    :class:`repro.content.popularity.PopularityTracker` drives the
    Alg. 1 epoch loop with realistic popularity drift.

    Windows with no records inherit a uniform share (no information).
    """
    if n_windows < 1:
        raise ValueError(f"n_windows must be positive, got {n_windows}")
    records = list(records)
    if not records:
        raise ValueError("trace contains no records")
    labels, _ = trace_to_popularity(records, n_contents=n_contents)
    index = {name: i for i, name in enumerate(labels)}

    t_lo = min(r.publish_time for r in records)
    t_hi = max(r.publish_time for r in records)
    span = max(t_hi - t_lo, 1e-12)

    windows: List[Tuple[List[str], np.ndarray]] = []
    totals = [np.zeros(len(labels)) for _ in range(n_windows)]
    for rec in records:
        w = min(int((rec.publish_time - t_lo) / span * n_windows), n_windows - 1)
        if rec.category in index:
            totals[w][index[rec.category]] += float(rec.views)
    for w in range(n_windows):
        mass = totals[w].sum()
        if mass > 0:
            share = totals[w] / mass
        else:
            share = np.full(len(labels), 1.0 / len(labels))
        windows.append((list(labels), share))
    return windows


def trace_to_popularity(
    records: Iterable[TraceRecord],
    n_contents: Optional[int] = None,
) -> Tuple[List[str], np.ndarray]:
    """Aggregate a trace into a per-category request share.

    Returns the category labels (most viewed first, truncated to
    ``n_contents`` when given) and the matching normalised popularity
    vector.  This is the paper's workflow: "The number of requests for
    each category is obtained from real-world YouTube Data."
    """
    totals: Dict[str, float] = {}
    for rec in records:
        totals[rec.category] = totals.get(rec.category, 0.0) + float(rec.views)
    if not totals:
        raise ValueError("trace contains no records")
    ordered = sorted(totals.items(), key=lambda item: -item[1])
    if n_contents is not None:
        if n_contents < 1:
            raise ValueError(f"n_contents must be positive, got {n_contents}")
        ordered = ordered[:n_contents]
    labels = [name for name, _ in ordered]
    shares = np.array([v for _, v in ordered], dtype=float)
    total = shares.sum()
    if total <= 0:
        raise ValueError("trace has zero total views; cannot normalise")
    return labels, shares / total
