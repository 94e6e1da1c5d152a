"""Monte-Carlo replication with confidence intervals.

Scheme comparisons in the finite game are stochastic (initial states,
SDE noise, peer matching).  This module runs an experiment across
seeds and reports Student-t confidence intervals, so comparisons like
Fig. 14's can be stated with uncertainty rather than single draws.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.parameters import MFGCPConfig
from repro.runtime import ExecutionPlan, ExecutorLike, as_executor


@dataclass(frozen=True)
class ReplicatedStatistic:
    """Mean and confidence interval of one replicated scalar."""

    name: str
    mean: float
    std: float
    n: int
    ci_low: float
    ci_high: float
    confidence: float

    @property
    def half_width(self) -> float:
        """Half the confidence-interval width."""
        return 0.5 * (self.ci_high - self.ci_low)

    def overlaps(self, other: "ReplicatedStatistic") -> bool:
        """Whether the two intervals overlap (no significant gap)."""
        return self.ci_low <= other.ci_high and other.ci_low <= self.ci_high

    def describe(self) -> str:
        return (
            f"{self.name}: {self.mean:.3f} +/- {self.half_width:.3f} "
            f"({int(self.confidence * 100)}% CI, n={self.n})"
        )


def summarise(
    name: str, samples: Sequence[float], confidence: float = 0.95
) -> ReplicatedStatistic:
    """Student-t confidence interval for a sample of replications."""
    # Imported here: scipy.stats is slow to import and nothing on the
    # solver or serving path needs it.
    from scipy import stats

    values = np.asarray(list(samples), dtype=float)
    if values.size < 2:
        raise ValueError(
            f"need at least 2 replications for a CI, got {values.size}"
        )
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must lie in (0, 1), got {confidence}")
    mean = float(values.mean())
    std = float(values.std(ddof=1))
    sem = std / np.sqrt(values.size)
    t_crit = float(stats.t.ppf(0.5 + confidence / 2.0, df=values.size - 1))
    half = t_crit * sem
    return ReplicatedStatistic(
        name=name,
        mean=mean,
        std=std,
        n=int(values.size),
        ci_low=mean - half,
        ci_high=mean + half,
        confidence=confidence,
    )


def replicate(
    experiment: Callable[[int], Mapping[str, float]],
    seeds: Sequence[int],
    confidence: float = 0.95,
    executor: ExecutorLike = None,
) -> Dict[str, ReplicatedStatistic]:
    """Run an experiment across seeds and summarise every output.

    Parameters
    ----------
    experiment:
        Callable taking a seed and returning named scalar outputs; the
        output keys must be identical across seeds.  Must be picklable
        (a module-level function, not a lambda) to run on a process
        backend.
    seeds:
        Replication seeds (at least 2).
    executor:
        Backend for the per-seed fan-out; the replicates are
        independent, so results are identical on every backend.
    """
    if len(seeds) < 2:
        raise ValueError(f"need at least 2 seeds, got {len(seeds)}")
    plan = ExecutionPlan.map(
        experiment,
        [(int(seed),) for seed in seeds],
        labels=[f"seed{seed}" for seed in seeds],
    )
    collected: Dict[str, List[float]] = {}
    keys: Optional[Tuple[str, ...]] = None
    for seed, outputs in zip(seeds, as_executor(executor).run(plan)):
        outputs = dict(outputs)
        if keys is None:
            keys = tuple(sorted(outputs))
            for key in keys:
                collected[key] = []
        elif tuple(sorted(outputs)) != keys:
            raise ValueError(
                f"seed {seed} returned keys {sorted(outputs)}, expected {list(keys)}"
            )
        for key, value in outputs.items():
            collected[key].append(float(value))
    return {
        key: summarise(key, values, confidence) for key, values in collected.items()
    }


def replicate_scheme_utility(
    scheme_name: str,
    config: MFGCPConfig,
    n_edps: int,
    seeds: Sequence[int],
    confidence: float = 0.95,
    executor: ExecutorLike = None,
) -> ReplicatedStatistic:
    """CI for a scheme's mean accumulated utility (one solve, N sims).

    The model-based schemes' equilibrium is solved once in the parent
    and injected into each per-seed work item, so the fan-out over
    ``executor`` repeats only the cheap finite-population simulation.
    """
    from repro.analysis.experiments import (
        prepare_scheme_equilibrium,
        simulate_scheme_seed,
    )

    if len(seeds) < 2:
        raise ValueError(f"need at least 2 seeds, got {len(seeds)}")
    equilibrium = prepare_scheme_equilibrium(scheme_name, config)
    plan = ExecutionPlan.map(
        simulate_scheme_seed,
        [
            (scheme_name, config, n_edps, int(seed), equilibrium)
            for seed in seeds
        ],
        labels=[f"{scheme_name}:seed{seed}" for seed in seeds],
    )
    summaries = as_executor(executor).run(plan)
    totals = [summary["total"] for summary in summaries]
    return summarise(f"{scheme_name} utility", totals, confidence)
