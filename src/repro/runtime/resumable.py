"""Fault-tolerant execution: resume, retry, and graceful degradation.

:class:`ResumableExecutor` wraps any plan backend with three layers of
fault tolerance, none of which changes the numbers a healthy run
produces:

* **Checkpoint/resume** — with a
  :class:`~repro.runtime.checkpoint.CheckpointStore`, every completed
  item's outcome (result *and* telemetry snapshot) is persisted as it
  finishes; a rerun of the same plan loads completed items from disk
  and executes only the remainder.  Because the stored snapshot is
  replayed through the ordinary item-order merge, the resumed run's
  results and merged telemetry are identical to an uninterrupted run
  (modulo the ``item.*`` bookkeeping events and timing fields — see
  :func:`repro.testing.normalized_events`).
* **Per-item retry** — a :class:`FaultPolicy` retries failing items on
  a deterministic exponential-backoff schedule (jitter-free on
  purpose: reruns wait exactly the same amount).  Failed attempts are
  discarded wholesale — the successful attempt's telemetry is the only
  one merged, so a retried run stays bit-identical to a clean one.
* **Exhaustion handling** — ``on_exhaust`` picks what happens when
  retries run out: ``fail`` re-raises (wrapped as
  :class:`ItemFailedError`), ``skip`` records a ``None`` result and
  carries on, ``degrade`` substitutes the policy's ``fallback`` value.

Items run through the same :func:`~repro.runtime.executors.dispatch`
loop as the plain backends, with the checkpoint commit as its
success hook and retry/exhaustion as its failure hook; only the
cache pre-pass, the bookkeeping and the store live here.

Bookkeeping is surfaced as ``item.cached`` / ``item.retry`` /
``item.failed`` telemetry events plus ``runtime.items_*`` counters,
rendered by ``repro report`` (see ``docs/observability.md``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple, Type

from repro.obs.telemetry import (
    NULL_TELEMETRY,
    SolverTelemetry,
    StrictNumericsError,
)
from repro.runtime.checkpoint import (
    CheckpointCorruptError,
    CheckpointStore,
    item_key,
)
from repro.runtime.executors import (
    Executor,
    ExecutorLike,
    ProgressCallback,
    as_executor,
    dispatch,
)
from repro.runtime.plan import ExecutionPlan, ItemOutcome, WorkItem

ON_EXHAUST_MODES = ("fail", "skip", "degrade")


class ItemFailedError(RuntimeError):
    """A work item that kept failing after its retry budget ran out."""

    def __init__(self, label: str, index: int, attempts: int, cause: str = ""):
        self.label = label
        self.index = index
        self.attempts = attempts
        self.cause = cause
        detail = f" ({cause})" if cause else ""
        super().__init__(
            f"work item {label or index!r} failed after {attempts} attempt(s)"
            f"{detail}"
        )

    def __reduce__(self):
        return (type(self), (self.label, self.index, self.attempts, self.cause))


@dataclass(frozen=True)
class FaultPolicy:
    """How the resumable executor treats a failing work item.

    Parameters
    ----------
    max_retries:
        Extra attempts after the first failure (0 = fail fast).
    retry_on:
        Exception classes worth retrying.  :class:`StrictNumericsError`
        is *never* retried regardless — fail-fast is its purpose, and a
        deterministic numerical blow-up cannot succeed on attempt two.
    backoff_base, backoff_factor, backoff_max:
        Deterministic (jitter-free) exponential schedule: the wait
        before retry ``a`` is ``min(base * factor**a, max)`` seconds.
        The default base of 0 makes retries immediate, which is what
        in-process transient faults (and tests) want; set a positive
        base when items contend for an external resource.
    on_exhaust:
        ``fail`` (raise :class:`ItemFailedError`), ``skip`` (record a
        ``None`` result), or ``degrade`` (record :attr:`fallback`).
        Skipped/degraded items are never checkpointed, so a later
        rerun tries them again.
    fallback:
        The stand-in result for ``on_exhaust="degrade"``.
    """

    max_retries: int = 0
    retry_on: Tuple[Type[BaseException], ...] = (Exception,)
    backoff_base: float = 0.0
    backoff_factor: float = 2.0
    backoff_max: float = 60.0
    on_exhaust: str = "fail"
    fallback: Any = None

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.backoff_base < 0:
            raise ValueError(f"backoff_base must be >= 0, got {self.backoff_base}")
        if self.backoff_factor < 1.0:
            raise ValueError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        if self.on_exhaust not in ON_EXHAUST_MODES:
            raise ValueError(
                f"on_exhaust must be one of {ON_EXHAUST_MODES}, "
                f"got {self.on_exhaust!r}"
            )

    def delay(self, attempt: int) -> float:
        """Seconds to wait before retry number ``attempt`` (0-based)."""
        if self.backoff_base <= 0.0:
            return 0.0
        return float(
            min(self.backoff_base * self.backoff_factor**attempt, self.backoff_max)
        )

    def should_retry(self, exc: BaseException, attempt: int) -> bool:
        """Whether attempt number ``attempt`` (0-based) gets a retry."""
        if isinstance(exc, StrictNumericsError):
            return False
        return attempt < self.max_retries and isinstance(exc, self.retry_on)


@dataclass
class _ItemNotes:
    """Per-item bookkeeping gathered during execution.

    Events are buffered here and flushed in item order, so the
    bookkeeping stream never depends on worker completion order.
    """

    events: List[Tuple[str, Dict[str, Any]]] = field(default_factory=list)
    diags: List[Tuple[str, str, Dict[str, Any]]] = field(default_factory=list)


class ResumableExecutor(Executor):
    """Wrap a backend with checkpoint/resume and per-item retry.

    Parameters
    ----------
    inner:
        The wrapped backend — an :class:`~repro.runtime.Executor`, a
        spec string (``"process:4"``), or ``None`` for serial.  Its
        worker count picks the dispatch path: more than one fans out
        over a process pool (with incremental checkpointing and
        parent-side retry resubmission); one runs items in order
        in-process.
    store:
        Optional :class:`CheckpointStore`; without one, only the
        retry layer is active.
    policy:
        The :class:`FaultPolicy`; defaults to fail-fast, no retries.
    telemetry:
        Observer for the ``item.*`` bookkeeping events.  Pass the same
        object the plan's results are merged into (the CLI does) so
        retries and cache hits appear in the run's JSONL stream.
    sleep:
        Injection point for the backoff wait (tests pass a recorder).
    """

    def __init__(
        self,
        inner: ExecutorLike = None,
        store: Optional[CheckpointStore] = None,
        policy: Optional[FaultPolicy] = None,
        telemetry: Optional[SolverTelemetry] = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.inner = as_executor(inner)
        if isinstance(self.inner, ResumableExecutor):
            raise ValueError("refusing to nest ResumableExecutor wrappers")
        self.workers = self.inner.workers
        self.store = store
        self.policy = policy if policy is not None else FaultPolicy()
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self._sleep = sleep

    @property
    def spec(self) -> str:
        return f"resumable[{self.inner.spec}]"

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------
    _COUNTERS = {
        "item.cached": "runtime.items_cached",
        "item.retry": "runtime.item_retries",
        "item.failed": "runtime.items_failed",
    }

    def _flush_notes(self, notes: Dict[int, _ItemNotes]) -> None:
        """Emit buffered bookkeeping in item order, then forget it."""
        tele = self.telemetry
        for index in sorted(notes):
            note = notes[index]
            for check, severity, fields in note.diags:
                tele.diag(check, severity, **fields)
            for kind, fields in note.events:
                tele.event(kind, **fields)
                tele.inc(self._COUNTERS.get(kind, f"runtime.{kind}"))
        notes.clear()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def execute(
        self,
        plan: ExecutionPlan,
        capture: bool = False,
        profile: bool = False,
        strict_numerics: bool = False,
        progress: Optional[ProgressCallback] = None,
    ) -> List[ItemOutcome]:
        outcomes: Dict[int, ItemOutcome] = {}
        notes: Dict[int, _ItemNotes] = {}
        keys: Dict[int, Optional[str]] = {}
        pending: List[WorkItem] = []
        live = getattr(self.telemetry, "live", None)

        for item in plan:
            key = item_key(item) if self.store is not None else None
            keys[item.index] = key
            cached = self._load_cached(item, key, capture, notes)
            if cached is not None:
                outcomes[item.index] = cached
                if live is not None:
                    live.note_cached(item.label)
                if progress is not None:
                    progress(cached)
            else:
                pending.append(item)

        def landed(item: WorkItem, outcome: ItemOutcome) -> None:
            self._commit(item, keys[item.index], outcome)
            outcomes[item.index] = outcome
            if progress is not None:
                progress(outcome)

        def failed(item: WorkItem, attempt: int, exc: Exception) -> Optional[int]:
            if self.policy.should_retry(exc, attempt):
                self._note_retry(item, attempt, exc, notes)
                delay = self.policy.delay(attempt)
                if delay > 0:
                    self._sleep(delay)
                return attempt + 1
            outcomes[item.index] = self._exhausted(item, attempt + 1, exc, notes)
            return None

        try:
            dispatch(
                pending, self.workers, landed, failed,
                capture, profile, strict_numerics,
            )
        finally:
            # Flush even when an exhausted item aborts the run: the
            # dying run's stream then records what was cached/retried.
            self._flush_notes(notes)
        return [outcomes[item.index] for item in plan]

    # -- cache ---------------------------------------------------------
    def _load_cached(
        self,
        item: WorkItem,
        key: Optional[str],
        capture: bool,
        notes: Dict[int, _ItemNotes],
    ) -> Optional[ItemOutcome]:
        if self.store is None or key is None or not self.store.contains(key):
            return None
        note = notes.setdefault(item.index, _ItemNotes())
        try:
            cached = self.store.load(key)
        except CheckpointCorruptError as err:
            self.store.discard(key)
            note.diags.append(
                (
                    "checkpoint.corrupt",
                    "warning",
                    dict(
                        message=str(err),
                        label=item.label,
                        index=item.index,
                        action="recompute",
                    ),
                )
            )
            return None
        if capture and cached.telemetry is None:
            # The checkpoint predates telemetry capture; reusing it
            # would leave a hole in the merged stream.  Recompute.
            note.events.append(
                (
                    "item.retry",
                    dict(
                        label=item.label,
                        index=item.index,
                        attempt=0,
                        reason="checkpoint lacks telemetry snapshot",
                    ),
                )
            )
            self.store.discard(key)
            return None
        note.events.append(
            ("item.cached", dict(label=item.label, index=item.index))
        )
        return cached

    # -- completion ----------------------------------------------------
    def _commit(
        self, item: WorkItem, key: Optional[str], outcome: ItemOutcome
    ) -> None:
        if self.store is None or key is None:
            return
        self.store.save(key, outcome, label=item.label)
        self._maybe_corrupt(item, key)

    def _maybe_corrupt(self, item: WorkItem, key: str) -> None:
        """Apply a ``corrupt`` fault rule to the just-saved object."""
        try:
            from repro.testing.faults import active_fault_plan
        except ImportError:  # pragma: no cover - testing pkg always ships
            return
        fault_plan = active_fault_plan()
        if fault_plan is not None and fault_plan.corrupts(item.index, item.label):
            self.store.corrupt(key)

    def _exhausted(
        self,
        item: WorkItem,
        attempts: int,
        exc: BaseException,
        notes: Dict[int, _ItemNotes],
    ) -> ItemOutcome:
        """Retries ran out: fail, skip, or degrade per the policy."""
        live = getattr(self.telemetry, "live", None)
        if live is not None:
            live.note_failed(item.label)
        note = notes.setdefault(item.index, _ItemNotes())
        note.events.append(
            (
                "item.failed",
                dict(
                    label=item.label,
                    index=item.index,
                    attempts=attempts,
                    error=type(exc).__name__,
                    message=str(exc),
                    action=self.policy.on_exhaust,
                ),
            )
        )
        if self.policy.on_exhaust == "skip":
            return ItemOutcome(index=item.index, result=None, telemetry=None)
        if self.policy.on_exhaust == "degrade":
            return ItemOutcome(
                index=item.index, result=self.policy.fallback, telemetry=None
            )
        if isinstance(exc, StrictNumericsError):
            raise exc  # preserve the CLI's exit-3 contract
        raise ItemFailedError(
            item.label, item.index, attempts, cause=f"{type(exc).__name__}: {exc}"
        ) from exc

    def _note_retry(
        self,
        item: WorkItem,
        attempt: int,
        exc: BaseException,
        notes: Dict[int, _ItemNotes],
    ) -> None:
        notes.setdefault(item.index, _ItemNotes()).events.append(
            (
                "item.retry",
                dict(
                    label=item.label,
                    index=item.index,
                    attempt=attempt,
                    delay_s=self.policy.delay(attempt),
                    error=type(exc).__name__,
                    message=str(exc),
                ),
            )
        )
        live = getattr(self.telemetry, "live", None)
        if live is not None:
            live.note_retry(item.label)
