"""Pluggable execution backends for :class:`~repro.runtime.plan.ExecutionPlan`.

Every backend runs its items through one loop, :func:`dispatch`:

* with one worker, or at most one item, items run in-process, in plan
  order, each to success or a settled failure before the next starts;
* otherwise each item is submitted on its own to one
  :class:`concurrent.futures.ProcessPoolExecutor` and handled as it
  lands.

Two backends ship: :class:`SerialExecutor` (one worker; the default
everywhere) and :class:`ParallelExecutor` (a process pool with a
configurable worker count).  Results and telemetry are merged in
*item* order, so output is bit-identical across backends.  The
resumable wrapper (:mod:`repro.runtime.resumable`) drives the same
loop with checkpoint and retry hooks.

Pick a backend with :func:`make_executor`, which parses the CLI-style
specs ``"serial"``, ``"process"``, and ``"process:4"``.

No fan-out site outside this module touches ``concurrent.futures`` or
``multiprocessing`` directly — the solver, the experiment harness,
the replication module, and the benchmarks all submit plans through
this API.
"""

from __future__ import annotations

import abc
import os
from functools import partial
from typing import Any, Callable, List, Optional, Sequence, Union

from repro.obs.telemetry import NULL_TELEMETRY, SolverTelemetry
from repro.runtime.plan import ExecutionPlan, ItemOutcome, WorkItem, execute_item
from repro.runtime.runinfo import note_plan

ProgressCallback = Callable[[ItemOutcome], None]
"""Invoked once per completed work item, as completions happen.

Purely a live-observability hook (heartbeats, status files): callbacks
may fire in completion order on parallel backends and must never
influence results — outcomes still merge in item order regardless.
"""


def _default_workers() -> int:
    return max(1, os.cpu_count() or 1)


def dispatch(
    items: Sequence[WorkItem],
    workers: int,
    landed: Callable[[WorkItem, ItemOutcome], None],
    failed: Callable[[WorkItem, int, Exception], Optional[int]],
    capture: bool = False,
    profile: bool = False,
    strict_numerics: bool = False,
) -> None:
    """Run every item, reporting each success and each failed attempt.

    ``landed(item, outcome)`` is called once per success, in completion
    order.  ``failed(item, attempt, exc)`` is called once per failed
    attempt (``attempt`` is 0-based); it returns the next attempt
    number to run, returns ``None`` to settle the item without an
    outcome, or raises to abort the run.

    With one worker, or at most one item, items run in-process in plan
    order, each to success or a settled failure before the next starts.
    Otherwise every item is submitted on its own to one process pool.
    When a hook raises there, queued items are cancelled and the ones
    already running are let finish: their successes still reach
    ``landed`` (a checkpointing hook keeps them) before the error
    propagates, and their failures are ignored.
    """
    run = partial(
        execute_item,
        capture=capture,
        profile=profile,
        strict_numerics=strict_numerics,
    )
    if workers <= 1 or len(items) <= 1:
        # Nothing to overlap; skip the pool spin-up entirely.
        for item in items:
            attempt: Optional[int] = 0
            while attempt is not None:
                try:
                    outcome = run(item, attempt=attempt)
                except Exception as exc:
                    attempt = failed(item, attempt, exc)
                else:
                    landed(item, outcome)
                    attempt = None
        return

    from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait

    with ProcessPoolExecutor(max_workers=min(workers, len(items))) as pool:
        in_flight = {pool.submit(run, item, attempt=0): (item, 0) for item in items}
        try:
            while in_flight:
                done, _ = wait(in_flight, return_when=FIRST_COMPLETED)
                for future in done:
                    item, attempt = in_flight.pop(future)
                    exc = future.exception()
                    if exc is None:
                        landed(item, future.result())
                        continue
                    retry = failed(item, attempt, exc)
                    if retry is not None:
                        future = pool.submit(run, item, attempt=retry)
                        in_flight[future] = (item, retry)
        except Exception:
            # Siblings already on a worker may be seconds from
            # finishing: let them land so --resume keeps their work.
            running = [future for future in in_flight if not future.cancel()]
            wait(running)
            for future in running:
                if future.exception() is None:
                    landed(in_flight[future][0], future.result())
            raise
        except BaseException:
            # KeyboardInterrupt and friends: get out fast.
            for future in in_flight:
                future.cancel()
            raise


def live_progress(
    plan: ExecutionPlan,
    telemetry: SolverTelemetry,
    progress: Optional[ProgressCallback] = None,
) -> Optional[ProgressCallback]:
    """Compose a caller callback with the telemetry's live-status hook.

    Registers the plan's labels as heartbeat lanes and returns a
    callback that notes each completion on the attached
    :class:`~repro.obs.live.LiveStatusWriter` (None when there is
    neither a live writer nor a caller callback).
    """
    live = getattr(telemetry, "live", None)
    if live is None:
        return progress
    live.register_lanes([item.label for item in plan])

    def _callback(outcome: ItemOutcome) -> None:
        if progress is not None:
            progress(outcome)
        live.note_item(plan[outcome.index].label, index=outcome.index)

    return _callback


class Executor(abc.ABC):
    """A strategy for running every item of an execution plan.

    A backend names itself with :attr:`spec` and sets :attr:`workers`,
    the process count :func:`dispatch` may fan out over (1 runs items
    in-process).
    """

    workers: int = 1

    @property
    @abc.abstractmethod
    def spec(self) -> str:
        """The ``make_executor`` spec string that reproduces this backend."""

    def execute(
        self,
        plan: ExecutionPlan,
        capture: bool = False,
        profile: bool = False,
        strict_numerics: bool = False,
        progress: Optional[ProgressCallback] = None,
    ) -> List[ItemOutcome]:
        """Run every item; outcomes returned in item order.

        ``capture`` turns on per-item buffered telemetry (the caller
        absorbs the snapshots); ``profile`` and ``strict_numerics``
        configure that buffered observer to match the parent's.
        ``progress`` is called once per completed item as completions
        happen (completion order on parallel backends) — a live-status
        hook that must never affect results.  The first failure to
        land raises that item's own exception.
        """
        outcomes: List[ItemOutcome] = []

        def landed(item: WorkItem, outcome: ItemOutcome) -> None:
            outcomes.append(outcome)
            if progress is not None:
                progress(outcome)

        def failed(item: WorkItem, attempt: int, exc: Exception) -> Optional[int]:
            raise exc

        dispatch(
            plan.items, self.workers, landed, failed,
            capture, profile, strict_numerics,
        )
        outcomes.sort(key=lambda outcome: outcome.index)
        return outcomes

    def run(
        self,
        plan: ExecutionPlan,
        telemetry: Optional[SolverTelemetry] = None,
        progress: Optional[ProgressCallback] = None,
    ) -> List[Any]:
        """Run a plan and return the results in item order.

        When an enabled ``telemetry`` is given, each item records into
        a buffered per-worker observer and the snapshots are absorbed
        here, in item order — the merged stream does not depend on the
        backend or on worker completion order.  Absorbed events are
        tagged with the item's label as their ``lane`` (the Chrome
        trace exporter's thread rows).

        When the telemetry carries a live-status writer, item
        completions additionally heartbeat the status file (composed
        with any caller-supplied ``progress``).
        """
        # Lineage side channel for the run-manifest registry: a pure
        # parent-process observer, no-op outside an activated CLI run.
        note_plan(plan)
        tele = telemetry if telemetry is not None else NULL_TELEMETRY
        outcomes = self.execute(
            plan,
            capture=tele.enabled,
            profile=tele.profile,
            strict_numerics=tele.strict_numerics,
            progress=live_progress(plan, tele, progress),
        )
        results = []
        for outcome in outcomes:
            tele.absorb(outcome.telemetry, lane=plan[outcome.index].label)
            results.append(outcome.result)
        return results

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.spec!r})"


class SerialExecutor(Executor):
    """Run items one after another in the calling process."""

    @property
    def spec(self) -> str:
        return "serial"


class ParallelExecutor(Executor):
    """Fan items out over a process pool.

    Parameters
    ----------
    workers:
        Pool size; defaults to ``os.cpu_count()``.

    Work items must be picklable: module-level functions closing over
    configs and seeds, never bound methods holding live trackers or
    open telemetry sinks.  Determinism is preserved because every item
    owns its RNG stream (spawned per item) and outcomes are re-ordered
    by item index before results or telemetry reach the caller.
    """

    def __init__(self, workers: Optional[int] = None) -> None:
        self.workers = _default_workers() if workers is None else int(workers)
        if self.workers < 1:
            raise ValueError(f"workers must be positive, got {workers}")

    @property
    def spec(self) -> str:
        return f"process:{self.workers}"


ExecutorLike = Union[Executor, str, None]


def make_executor(spec: str = "serial", workers: Optional[int] = None) -> Executor:
    """Build an executor from a CLI-style spec string.

    Accepted specs: ``"serial"``, ``"process"`` (one worker per CPU),
    ``"process:N"`` (N workers).  An explicit ``workers`` argument
    overrides a count embedded in the spec — this is how the CLI's
    ``--workers`` flag composes with ``--backend``.
    """
    text = str(spec).strip().lower()
    if text in ("", "serial"):
        return SerialExecutor()
    if text == "process" or text.startswith("process:"):
        embedded: Optional[int] = None
        if ":" in text:
            _, _, count = text.partition(":")
            try:
                embedded = int(count)
            except ValueError:
                raise ValueError(
                    f"invalid worker count in executor spec {spec!r}"
                ) from None
        n = workers if workers is not None else embedded
        return ParallelExecutor(workers=n)
    raise ValueError(
        f"unknown executor spec {spec!r}; expected 'serial', 'process', "
        f"or 'process:N'"
    )


def as_executor(executor: ExecutorLike) -> Executor:
    """Normalise ``None`` / spec string / executor to an executor.

    The convenience every fan-out site uses so an ``executor``
    parameter accepts ``None`` (serial), ``"process:4"``, or a
    ready-made instance.
    """
    if executor is None:
        return SerialExecutor()
    if isinstance(executor, Executor):
        return executor
    return make_executor(executor)
