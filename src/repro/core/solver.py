"""MFG-CP framework driver, Algorithm 1.

:class:`MFGCPSolver` runs the full joint caching-and-pricing framework:
for each optimization epoch it records the requesters' demands, selects
the content set ``K'`` that needs caching, refreshes popularity
(Def. 1 / Eq. (3)) and timeliness (Def. 2), and invokes the iterative
best-response scheme (Alg. 2) per content to obtain the equilibrium
caching strategy and pricing policy.

:func:`fan_out_equilibria` is the one routine that solves independent
equilibria through the runtime: the epoch loop, both serving engines
and the figure sweeps submit their solves through it, and every work
item is a :func:`solve_equilibrium_shard` call.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.content.catalog import ContentCatalog
from repro.content.popularity import PopularityTracker, ZipfPopularity
from repro.content.requests import RequestProcess
from repro.content.timeliness import TimelinessModel, TimelinessTracker
from repro.core.best_response import BatchedBestResponseIterator, BestResponseIterator
from repro.core.equilibrium import EquilibriumResult
from repro.core.knapsack import capacity_constrained_placement
from repro.core.parameters import MFGCPConfig
from repro.obs.telemetry import NULL_TELEMETRY, SolverTelemetry
from repro.runtime import Executor, ExecutionPlan, as_executor, partition_batches


def solve_equilibrium_shard(
    content_ids: Sequence[int],
    configs: Sequence[MFGCPConfig],
    telemetry: SolverTelemetry = NULL_TELEMETRY,
) -> List[EquilibriumResult]:
    """The work-item body of every equilibrium fan-out.

    Solves one shard of contents through the batched Alg. 2 sweeps; a
    per-content solve is the one-lane shard.  Module-level so it
    pickles to process-pool workers.  ``content_ids`` is the shard's
    *sorted* content-index tuple: it tags each lane's diagnostics, and
    as the first positional argument it enters the checkpoint
    :func:`~repro.runtime.checkpoint.item_key`, so runs sharded at
    different widths never share a cached object.  Returns one
    equilibrium per content, in ``content_ids`` order.
    """
    return BatchedBestResponseIterator(
        configs, content_ids=content_ids, telemetry=telemetry
    ).solve()


def fan_out_equilibria(
    configs: Mapping[int, MFGCPConfig],
    executor: Executor,
    telemetry: Optional[SolverTelemetry] = None,
    *,
    label: Callable[[Tuple[int, ...]], str],
    scope: str,
    width: int = 1,
    phase: Optional[str] = None,
    **fields,
) -> Tuple[Dict[int, EquilibriumResult], List[int]]:
    """Solve independent equilibria as one execution plan.

    ``configs`` maps content id to config in the caller's order.  The
    ids shard into contiguous groups of at most ``width`` (each group
    sorted, so the item key hashes a canonical tuple); every shard is
    one :func:`solve_equilibrium_shard` item labelled ``label(shard)``,
    run through :meth:`~repro.runtime.Executor.run` on ``executor``.
    ``phase`` names the live-status phase, when one is wanted.

    Returns the surviving equilibria by content id, in plan order, and
    the ids of the contents whose shard a skip/degrade fault policy
    dropped.  Those contents are omitted and reported once, as a
    ``{scope}.content_dropped`` warning carrying ``fields``.
    """
    tele = telemetry if telemetry is not None else NULL_TELEMETRY
    ids = list(configs)
    shards = [
        tuple(sorted(ids[i] for i in group))
        for group in partition_batches(len(ids), width)
    ]
    plan = ExecutionPlan.map(
        solve_equilibrium_shard,
        [(shard, tuple(configs[k] for k in shard)) for shard in shards],
        labels=[label(shard) for shard in shards],
        accepts_telemetry=True,
    )
    if phase is not None and tele.live is not None:
        tele.live.set_phase(phase, total_items=len(plan))
    solved: Dict[int, EquilibriumResult] = {}
    dropped: List[int] = []
    for shard, results in zip(shards, executor.run(plan, telemetry=tele)):
        if results is None:
            # The fault policy exhausted this item's retries; the caller
            # carries on with the survivors (graceful degradation).
            dropped.extend(shard)
        else:
            solved.update(zip(shard, results))
    if dropped and tele.enabled:
        tele.diag(
            f"{scope}.content_dropped",
            "warning",
            value=float(len(dropped)),
            message=(
                f"{len(dropped)} of {len(ids)} content solves were dropped "
                "by the fault policy after exhausting retries"
            ),
            contents=dropped,
            **fields,
        )
    return solved, dropped


@dataclass(frozen=True)
class EpochResult:
    """One optimization epoch of Alg. 1.

    Attributes
    ----------
    epoch:
        Epoch index ``sigma``.
    active_contents:
        The content set ``K'`` actually optimised this epoch.
    equilibria:
        Per-content equilibrium results.
    popularity:
        The popularity vector used this epoch.
    timeliness:
        The timeliness vector used this epoch.
    """

    epoch: int
    active_contents: List[int]
    equilibria: Dict[int, EquilibriumResult]
    popularity: np.ndarray
    timeliness: np.ndarray

    def total_utility(self) -> float:
        """Accumulated utility summed over the optimised contents."""
        return sum(
            res.accumulated_utility()["total"] for res in self.equilibria.values()
        )

    def desired_occupancy(self) -> Dict[int, float]:
        """Cache MB each content's equilibrium strategy would occupy.

        The occupancy is the equilibrium cached amount
        ``Q_k - E[q_k(T)]`` (at least 1 MB so the knapsack item is
        well-posed).
        """
        return {
            k: max(res.config.content_size - float(res.mean_field.mean_q[-1]), 1.0)
            for k, res in self.equilibria.items()
        }

    def content_values(self) -> Dict[int, float]:
        """Per-content utility used as the knapsack value."""
        return {
            k: max(res.accumulated_utility()["total"], 0.0)
            for k, res in self.equilibria.items()
        }

    def capacity_allocation(self, capacity: float) -> Dict[int, float]:
        """Section IV-C remark: the final capacity-feasible placement.

        When the summed equilibrium occupancies exceed a per-EDP cache
        capacity, the fractional knapsack scales them; otherwise the
        equilibrium allocation passes through unchanged.
        """
        return capacity_constrained_placement(
            self.desired_occupancy(), self.content_values(), capacity
        )


class MFGCPSolver:
    """Top-level entry point for the MFG-CP framework.

    For single-content studies (most of the paper's figures) call
    :meth:`solve`; for the full multi-content Alg. 1 loop driven by a
    request trace call :meth:`run_epochs`.

    Parameters
    ----------
    executor:
        Backend for the per-content fan-out of :meth:`run_epochs`
        (the solves decouple through the mean field, so they run
        embarrassingly parallel).  Accepts an
        :class:`~repro.runtime.Executor`, a spec string such as
        ``"process:4"``, or ``None`` for the serial default.  Results
        are bit-identical across backends.
    """

    def __init__(
        self,
        config: MFGCPConfig,
        telemetry: Optional[SolverTelemetry] = None,
        executor: Optional["Executor | str"] = None,
    ) -> None:
        self.config = config
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.executor: Executor = as_executor(executor)

    # ------------------------------------------------------------------
    # Single-content solve (the generic-player problem)
    # ------------------------------------------------------------------
    def solve(
        self,
        density0: Optional[np.ndarray] = None,
        initial_policy_level: float = 0.5,
    ) -> EquilibriumResult:
        """Solve the mean-field equilibrium for the configured content."""
        iterator = BestResponseIterator(self.config, telemetry=self.telemetry)
        return iterator.solve(
            density0=density0, initial_policy_level=initial_policy_level
        )

    # ------------------------------------------------------------------
    # Multi-content Alg. 1 loop
    # ------------------------------------------------------------------
    def per_content_config(
        self,
        content_size: float,
        popularity: float,
        timeliness: float,
        n_requests: float,
    ) -> MFGCPConfig:
        """The base config specialised for one content's demand."""
        return replace(
            self.config,
            content_size=float(content_size),
            popularity=float(np.clip(popularity, 0.0, 1.0)),
            timeliness=float(timeliness),
            n_requests=float(n_requests),
        )

    def run_epochs(
        self,
        catalog: ContentCatalog,
        request_process: RequestProcess,
        n_epochs: int = 1,
        popularity_tracker: Optional[PopularityTracker] = None,
        timeliness_tracker: Optional[TimelinessTracker] = None,
        max_active_contents: Optional[int] = None,
        solver_batching: bool = False,
        batch_size: int = 32,
    ) -> List[EpochResult]:
        """Algorithm 1: epoch loop over the content catalog.

        Each epoch records one batch of requests per content (lines
        4-5), refreshes popularity and timeliness (line 8), and solves
        the per-content equilibrium (line 9).  Contents with no
        requests are skipped, matching the ``K'`` selection rule.

        Parameters
        ----------
        max_active_contents:
            Optional cap on ``|K'|`` (most popular first) — the paper
            notes the Zipf law keeps the effective content set small.
        solver_batching:
            Shard the active set into work items of at most
            ``batch_size`` contents, each advancing all its lanes
            through shared ``(B, n_h, n_q)`` HJB/FPK sweeps; without
            it every content is a one-lane shard.  Equilibria are
            bit-identical either way; only the work-item grain (and
            hence the telemetry lane labels and checkpoint item keys)
            changes.
        batch_size:
            Maximum lane count per batched shard — bounds the
            ``B * n_h * n_q`` working set.  Ignored unless
            ``solver_batching`` is set.
        """
        if n_epochs < 1:
            raise ValueError(f"n_epochs must be positive, got {n_epochs}")
        if solver_batching and batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        if max_active_contents is not None and max_active_contents < 1:
            raise ValueError(
                f"max_active_contents must be positive, got {max_active_contents}"
            )
        n_contents = len(catalog)
        if request_process.n_contents != n_contents:
            raise ValueError(
                f"request process covers {request_process.n_contents} contents, "
                f"catalog has {n_contents}"
            )
        if popularity_tracker is None:
            popularity_tracker = PopularityTracker(
                prior=ZipfPopularity(n_contents=n_contents)
            )
        if timeliness_tracker is None:
            timeliness_tracker = TimelinessTracker(
                model=request_process.timeliness_model, n_contents=n_contents
            )

        tele = self.telemetry
        results: List[EpochResult] = []
        for epoch in range(n_epochs):
            with tele.span("epoch") as epoch_span:
                # Lines 4-5: record the epoch's requests and pick K'.
                with tele.span("requests"):
                    batch = request_process.sample(
                        popularity_tracker.current, self.config.horizon
                    )
                    popularity = popularity_tracker.observe(batch.counts)
                    for k in range(n_contents):
                        timeliness_tracker.observe(k, batch.timeliness[k])
                    timeliness = timeliness_tracker.current

                active = [k for k in range(n_contents) if batch.counts[k] > 0]
                active.sort(key=lambda k: -popularity[k])
                if max_active_contents is not None:
                    active = active[:max_active_contents]

                # Lines 6-10: per-content mean-field best response.
                # The equilibria decouple through the mean field, so
                # the solves fan out as one execution plan: shards of
                # at most ``batch_size`` contents, or one-lane shards.
                configs = {
                    k: self.per_content_config(
                        content_size=catalog[k].size_mb,
                        popularity=popularity[k],
                        timeliness=timeliness[k],
                        n_requests=float(batch.counts[k]) / self.config.horizon,
                    )
                    for k in active
                }
                equilibria, _ = fan_out_equilibria(
                    configs,
                    self.executor,
                    tele,
                    label=(
                        (lambda shard: f"batch:{shard[0]}-{shard[-1]}")
                        if solver_batching
                        else (lambda shard: f"content:{shard[0]}")
                    ),
                    scope="epoch",
                    width=batch_size if solver_batching else 1,
                    phase=f"epoch:{epoch}",
                    epoch=epoch,
                )
                unconverged: List[int] = []
                for k, result in equilibria.items():
                    if not result.report.converged:
                        unconverged.append(k)
                    if tele.enabled:
                        tele.inc("epochs.content_solves")
                        tele.event(
                            "content_solve",
                            epoch=epoch,
                            content=k,
                            popularity=float(popularity[k]),
                            n_iterations=result.report.n_iterations,
                            converged=result.report.converged,
                        )
                if unconverged and tele.enabled:
                    tele.diag(
                        "epoch.unconverged",
                        "warning",
                        value=float(len(unconverged)),
                        message=(
                            f"{len(unconverged)} of {len(active)} content "
                            "solves hit max_iterations without converging"
                        ),
                        epoch=epoch,
                        contents=unconverged,
                    )

            if tele.enabled:
                tele.inc("epochs.completed")
                tele.event(
                    "epoch",
                    epoch=epoch,
                    n_active=len(active),
                    epoch_s=epoch_span.duration,
                )
            results.append(
                EpochResult(
                    epoch=epoch,
                    active_contents=active,
                    equilibria=equilibria,
                    popularity=popularity.copy(),
                    timeliness=timeliness.copy(),
                )
            )
        return results
