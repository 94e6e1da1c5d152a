"""Execution plans: ordered lists of independent work items.

The paper's Algorithm 1 solves an *independent* HJB-FPK equilibrium
per content, the figure sweeps solve independent parameter variants,
and the comparison experiments replicate independent seeds — the same
embarrassingly-parallel shape everywhere.  An :class:`ExecutionPlan`
captures that shape once: an ordered sequence of :class:`WorkItem`
records, each a picklable call ``fn(*args, **kwargs)`` that owns
everything it needs (configs, seeds, pre-solved equilibria) and shares
no mutable state with its siblings.

Ordering is part of the contract.  Item ``index`` fixes the order in
which results are returned and telemetry snapshots are merged, so a
plan produces bit-identical output under the serial backend and any
process-pool backend regardless of worker completion order.

Randomness is derived per item: give :meth:`ExecutionPlan.map` a root
seed and each item receives an independent child stream spawned with
:class:`numpy.random.SeedSequence` — the same streams in the same
order on every backend.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.obs.telemetry import NULL_TELEMETRY, SolverTelemetry, TelemetrySnapshot

SeedLike = Union[int, np.random.SeedSequence]


@dataclass(frozen=True)
class WorkItem:
    """One independent unit of work inside a plan.

    Attributes
    ----------
    index:
        Position in the plan; fixes result and telemetry merge order.
    fn:
        A picklable callable (module-level function).  Bound methods
        holding live solver state do not survive the process boundary —
        pass configs and let the worker rebuild its objects.
    args, kwargs:
        Call arguments; must be picklable for process backends.
    label:
        Human-readable tag (``"content:3"``, ``"RR:seed8"``) used in
        telemetry events and error messages.
    seed:
        Optional per-item :class:`~numpy.random.SeedSequence`; when
        set, the executor injects ``rng=np.random.default_rng(seed)``.
        Spawn these from one root (``ExecutionPlan.map(seed=...)``) so
        the streams are reproducible and backend-independent.
    accepts_telemetry:
        When True the executor injects a ``telemetry=`` keyword — a
        buffered per-worker observer if the run captures telemetry,
        :data:`~repro.obs.telemetry.NULL_TELEMETRY` otherwise.
    """

    index: int
    fn: Callable[..., Any]
    args: Tuple[Any, ...] = ()
    kwargs: Dict[str, Any] = field(default_factory=dict)
    label: str = ""
    seed: Optional[np.random.SeedSequence] = None
    accepts_telemetry: bool = False

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError(f"item index must be non-negative, got {self.index}")
        if not callable(self.fn):
            raise TypeError(f"item fn must be callable, got {self.fn!r}")


@dataclass(frozen=True)
class ItemOutcome:
    """What executing one work item produced.

    ``telemetry`` is the worker's buffered snapshot (``None`` when the
    run did not capture telemetry); the parent absorbs snapshots in
    item order.
    """

    index: int
    result: Any
    telemetry: Optional[TelemetrySnapshot] = None


class ExecutionPlan:
    """An ordered collection of independent work items.

    Construct directly from :class:`WorkItem` records or via
    :meth:`map`, which builds one item per argument tuple.
    """

    def __init__(self, items: Sequence[WorkItem]) -> None:
        items = list(items)
        for position, item in enumerate(items):
            if item.index != position:
                raise ValueError(
                    f"plan items must be indexed 0..{len(items) - 1} in order; "
                    f"position {position} has index {item.index}"
                )
        self._items: List[WorkItem] = items

    @classmethod
    def map(
        cls,
        fn: Callable[..., Any],
        argtuples: Sequence[Tuple[Any, ...]],
        labels: Optional[Sequence[str]] = None,
        seed: Optional[SeedLike] = None,
        accepts_telemetry: bool = False,
    ) -> "ExecutionPlan":
        """One item per argument tuple, all calling ``fn``.

        Parameters
        ----------
        fn:
            Module-level callable applied to every tuple.
        argtuples:
            Positional arguments per item.
        labels:
            Optional per-item labels (defaults to ``fn.__name__[i]``).
        seed:
            Optional root seed; when given, ``len(argtuples)``
            independent child streams are spawned with
            ``np.random.SeedSequence.spawn`` and each item's executor
            injects ``rng=np.random.default_rng(child)``.  Serial and
            parallel backends see exactly the same streams.
        accepts_telemetry:
            Whether ``fn`` takes a ``telemetry=`` keyword.
        """
        argtuples = list(argtuples)
        if labels is not None and len(labels) != len(argtuples):
            raise ValueError(
                f"got {len(labels)} labels for {len(argtuples)} items"
            )
        seeds: List[Optional[np.random.SeedSequence]]
        if seed is None:
            seeds = [None] * len(argtuples)
        else:
            root = (
                seed
                if isinstance(seed, np.random.SeedSequence)
                else np.random.SeedSequence(int(seed))
            )
            seeds = list(root.spawn(len(argtuples)))
        name = getattr(fn, "__name__", "item")
        return cls(
            [
                WorkItem(
                    index=i,
                    fn=fn,
                    args=tuple(args),
                    label=(labels[i] if labels is not None else f"{name}[{i}]"),
                    seed=seeds[i],
                    accepts_telemetry=accepts_telemetry,
                )
                for i, args in enumerate(argtuples)
            ]
        )

    @property
    def items(self) -> List[WorkItem]:
        return list(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[WorkItem]:
        return iter(self._items)

    def __getitem__(self, index: int) -> WorkItem:
        return self._items[index]


def partition_indices(n: int, n_groups: int) -> List[Tuple[int, ...]]:
    """Contiguous, near-even index groups for sharded fan-out.

    The standard way to turn ``n`` independent units (EDPs, seeds,
    contents) into at most ``n_groups`` work items: groups are
    contiguous, sizes differ by at most one, and empty groups are
    dropped (``n_groups > n`` collapses to one unit per group).
    Grouping is a pure parallel grain — callers must keep per-unit
    state self-contained so results never depend on it.

    For the batched solver path the units are *contents*, never grid
    cells: a batched plan shards the catalog's active content set, and
    each shard becomes one work item whose solver advances all of the
    shard's contents through shared ``(B, n_h, n_q)`` sweeps.  Use
    :func:`partition_batches` when the grain is a maximum batch size
    rather than a group count.
    """
    if n < 0:
        raise ValueError(f"cannot partition a negative unit count, got {n}")
    if n_groups < 1:
        raise ValueError(f"need at least one group, got {n_groups}")
    if n == 0:
        # Zero units partition into zero groups — callers fanning out
        # over an empty plan get an empty shard list, not an error.
        return []
    n_groups = min(n_groups, n)
    bounds = np.linspace(0, n, n_groups + 1).astype(int)
    return [
        tuple(range(bounds[g], bounds[g + 1]))
        for g in range(n_groups)
        if bounds[g + 1] > bounds[g]
    ]


def partition_batches(n: int, batch_size: int) -> List[Tuple[int, ...]]:
    """Contiguous index shards of at most ``batch_size`` units each.

    The batched-solver companion to :func:`partition_indices`: instead
    of a target group *count* the caller fixes the per-shard *width*
    (the solver's lane count ``B``, bounding the ``B * n_h * n_q``
    working set), and the shard count follows as ``ceil(n /
    batch_size)``.  Like :func:`partition_indices` the units are
    contents, shards are contiguous, and ``n == 0`` yields an empty
    shard list.
    """
    if n < 0:
        raise ValueError(f"cannot partition a negative unit count, got {n}")
    if batch_size <= 0:
        raise ValueError(f"batch_size must be positive, got {batch_size}")
    return [
        tuple(range(start, min(start + batch_size, n)))
        for start in range(0, n, batch_size)
    ]


def _apply_fault_injection(item: WorkItem, attempt: int) -> None:
    """Consult the deterministic fault harness, if one is active.

    :mod:`repro.testing.faults` installs plans in-process (tests) or
    via an environment variable (the CLI's ``--inject-faults``, which
    pool workers inherit).  The common case — no plan installed — is a
    cached ``None`` lookup, so production runs pay one function call
    per work item.
    """
    from repro.testing.faults import active_fault_plan

    plan = active_fault_plan()
    if plan is not None:
        plan.before_item(item.index, item.label, attempt)


def execute_item(
    item: WorkItem,
    capture: bool = False,
    profile: bool = False,
    strict_numerics: bool = False,
    attempt: int = 0,
) -> ItemOutcome:
    """Run one work item, optionally under a buffered telemetry.

    This is the single entry point every backend funnels through, via
    :func:`~repro.runtime.executors.dispatch` — in the parent process
    with one worker, inside pool workers otherwise — so both observe
    identical semantics: per-item RNG injection, per-item buffered
    telemetry, one :class:`ItemOutcome` back.  ``profile`` and
    ``strict_numerics`` mirror the parent telemetry's settings onto the
    per-item buffered observer, so worker spans carry resource fields
    and error-severity diagnostics fail fast inside workers too.

    ``attempt`` is the 0-based retry attempt number, threaded in when
    :class:`~repro.runtime.resumable.ResumableExecutor` retries, so
    the fault harness can distinguish transient (first-attempt-only)
    from permanent failures; plain executors always run attempt 0.
    """
    _apply_fault_injection(item, attempt)
    telemetry = (
        SolverTelemetry.buffered(profile=profile, strict_numerics=strict_numerics)
        if capture
        else None
    )
    kwargs = dict(item.kwargs)
    if item.seed is not None:
        kwargs["rng"] = np.random.default_rng(item.seed)
    if item.accepts_telemetry:
        kwargs["telemetry"] = telemetry if telemetry is not None else NULL_TELEMETRY
    result = item.fn(*item.args, **kwargs)
    snapshot = telemetry.snapshot() if telemetry is not None else None
    return ItemOutcome(index=item.index, result=result, telemetry=snapshot)
