"""MFG-CP core: the paper's primary contribution (Sections III-IV).

The coupled backward HJB / forward FPK system, the mean-field
estimator, the iterative best-response learning scheme (Alg. 2), the
epoch-level framework driver (Alg. 1), and the capacity-constrained
knapsack extension.
"""

from repro.core.parameters import MFGCPConfig, PaperParameters, ChannelParameters, CachingParameters
from repro.core.grid import BatchGrid
from repro.core.policy import CachingPolicy, optimal_control
from repro.core.hjb import BatchedHJBSolver, HJBSolution
from repro.core.fpk import BatchedFPKSolver, batched_initial_density, initial_density
from repro.core.mean_field import MeanFieldEstimator, MeanFieldPath
from repro.core.best_response import (
    BatchedBestResponseIterator,
    BestResponseIterator,
    IterationRecord,
)
from repro.core.solver import MFGCPSolver
from repro.core.equilibrium import EquilibriumResult, ConvergenceReport
from repro.core.knapsack import KnapsackItem, solve_fractional_knapsack, solve_01_knapsack, capacity_constrained_placement
from repro.core.semilagrangian import (
    SLBestResponseIterator,
    SLFPKSolver,
    SLHJBSolver,
)
from repro.core.multi_population import (
    MultiPopulationIterator,
    MultiPopulationResult,
)
from repro.core.theory import (
    Lemma1Report,
    Lemma2Report,
    Theorem2Report,
    verify_lemma1,
    verify_lemma2,
    verify_theorem2,
)

__all__ = [
    "MFGCPConfig",
    "PaperParameters",
    "ChannelParameters",
    "CachingParameters",
    "BatchGrid",
    "CachingPolicy",
    "optimal_control",
    "HJBSolution",
    "BatchedHJBSolver",
    "initial_density",
    "BatchedFPKSolver",
    "batched_initial_density",
    "MeanFieldEstimator",
    "MeanFieldPath",
    "BestResponseIterator",
    "BatchedBestResponseIterator",
    "IterationRecord",
    "MFGCPSolver",
    "EquilibriumResult",
    "ConvergenceReport",
    "KnapsackItem",
    "solve_fractional_knapsack",
    "solve_01_knapsack",
    "capacity_constrained_placement",
    "Lemma1Report",
    "Lemma2Report",
    "Theorem2Report",
    "verify_lemma1",
    "verify_lemma2",
    "verify_theorem2",
    "SLBestResponseIterator",
    "SLFPKSolver",
    "SLHJBSolver",
    "MultiPopulationIterator",
    "MultiPopulationResult",
]
