"""MFG-CP: joint mobile edge caching and pricing via mean-field games.

A from-scratch Python reproduction of "Joint Mobile Edge Caching and
Pricing: A Mean-Field Game Approach" (ICDE 2024).  The package
implements the full system: the stochastic channel and caching-state
substrates, the wireless network and economic models, the coupled
HJB-FPK mean-field solver with iterative best-response learning, the
finite-population stochastic differential game simulator, the four
comparison baselines, and a request-level serving engine
(:mod:`repro.serve`) that replays traces against EDP edge caches.

Quickstart
----------
>>> from repro import MFGCPConfig, MFGCPSolver
>>> result = MFGCPSolver(MFGCPConfig.fast()).solve()
>>> result.report.converged
True
"""

from repro.core.parameters import (
    CachingParameters,
    ChannelParameters,
    MFGCPConfig,
    PaperParameters,
)
from repro.core.grid import BatchGrid
from repro.core.solver import EpochResult, MFGCPSolver
from repro.core.best_response import (
    BatchedBestResponseIterator,
    BestResponseIterator,
    build_grid,
)
from repro.core.equilibrium import ConvergenceReport, EquilibriumResult, IterationRecord
from repro.core.policy import CachingPolicy, optimal_control
from repro.core.hjb import BatchedHJBSolver, HJBSolution
from repro.core.fpk import BatchedFPKSolver, initial_density
from repro.core.mean_field import MeanFieldEstimator, MeanFieldPath
from repro.core.knapsack import (
    KnapsackItem,
    capacity_constrained_placement,
    solve_01_knapsack,
    solve_fractional_knapsack,
)

from repro.sde.ornstein_uhlenbeck import OrnsteinUhlenbeckProcess
from repro.sde.caching_state import CachingDrift, CachingStateProcess
from repro.sde.brownian import BrownianMotion
from repro.sde.euler_maruyama import EulerMaruyamaIntegrator, SDEPath

from repro.network.topology import NetworkTopology, PlacementConfig
from repro.network.channel import ChannelModel
from repro.network.rate import RateModel
from repro.network.interference import calibrate_channel, mean_interference
from repro.core.theory import (
    Lemma1Report,
    Lemma2Report,
    Theorem2Report,
    verify_lemma1,
    verify_lemma2,
    verify_theorem2,
)
from repro.core.semilagrangian import (
    SLBestResponseIterator,
    SLFPKSolver,
    SLHJBSolver,
)
from repro.core.multi_population import (
    MultiPopulationIterator,
    MultiPopulationResult,
)

from repro.content.catalog import Content, ContentCatalog
from repro.content.popularity import PopularityTracker, ZipfPopularity
from repro.content.timeliness import TimelinessModel, TimelinessTracker
from repro.content.requests import RequestBatch, RequestProcess
from repro.content.trace import (
    SyntheticYouTubeTrace,
    TraceLoadResult,
    TraceRecord,
    load_trace_csv,
    trace_to_popularity,
)

from repro.economics.utility import (
    EconomicParameters,
    MarketContext,
    UtilityBreakdown,
    UtilityModel,
)
from repro.economics.pricing import PricingModel
from repro.economics.cases import CaseProbabilities

from repro.game.simulator import GameSimulator, SimulationReport
from repro.game.multi_content import MultiContentGameSimulator, MultiContentReport
from repro.game.state import PopulationState
from repro.game.nash import ConstantScheme, DeviationProbe, exploitability

from repro.obs import (
    BufferSink,
    Counter,
    Gauge,
    Histogram,
    JsonlSink,
    MetricsRegistry,
    NULL_TELEMETRY,
    NullSink,
    SolverTelemetry,
    SpanRecorder,
    TelemetrySnapshot,
    load_run,
    read_events,
    render_report,
)

from repro.runtime import (
    ExecutionPlan,
    Executor,
    ItemOutcome,
    ParallelExecutor,
    SerialExecutor,
    WorkItem,
    as_executor,
    make_executor,
    partition_batches,
    partition_indices,
)

from repro.serve import (
    EdgeCache,
    MFGPolicyAdapter,
    ServingEngine,
    ServingPolicy,
    ServingReport,
)

from repro.baselines.base import CachingScheme, SchemeDecision
from repro.baselines.mfg_cp import MFGCPScheme
from repro.baselines.mfg_nosharing import MFGNoSharingScheme
from repro.baselines.most_popular import MostPopularScheme
from repro.baselines.random_replacement import RandomReplacementScheme
from repro.baselines.udcs import UDCSScheme

__version__ = "1.0.0"

__all__ = [
    # core
    "MFGCPConfig",
    "PaperParameters",
    "ChannelParameters",
    "CachingParameters",
    "MFGCPSolver",
    "EpochResult",
    "BatchGrid",
    "BatchedBestResponseIterator",
    "BestResponseIterator",
    "build_grid",
    "EquilibriumResult",
    "ConvergenceReport",
    "IterationRecord",
    "CachingPolicy",
    "optimal_control",
    "BatchedHJBSolver",
    "HJBSolution",
    "BatchedFPKSolver",
    "initial_density",
    "MeanFieldEstimator",
    "MeanFieldPath",
    "KnapsackItem",
    "solve_fractional_knapsack",
    "solve_01_knapsack",
    "capacity_constrained_placement",
    # sde
    "OrnsteinUhlenbeckProcess",
    "CachingStateProcess",
    "CachingDrift",
    "BrownianMotion",
    "EulerMaruyamaIntegrator",
    "SDEPath",
    # network
    "NetworkTopology",
    "PlacementConfig",
    "ChannelModel",
    "RateModel",
    "calibrate_channel",
    "mean_interference",
    # theory
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
    # content
    "Content",
    "ContentCatalog",
    "ZipfPopularity",
    "PopularityTracker",
    "TimelinessModel",
    "TimelinessTracker",
    "RequestProcess",
    "RequestBatch",
    "SyntheticYouTubeTrace",
    "TraceRecord",
    "TraceLoadResult",
    "load_trace_csv",
    "trace_to_popularity",
    # economics
    "EconomicParameters",
    "MarketContext",
    "UtilityModel",
    "UtilityBreakdown",
    "PricingModel",
    "CaseProbabilities",
    # game
    "GameSimulator",
    "SimulationReport",
    "MultiContentGameSimulator",
    "MultiContentReport",
    "PopulationState",
    "ConstantScheme",
    "DeviationProbe",
    "exploitability",
    # observability
    "SolverTelemetry",
    "NULL_TELEMETRY",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "SpanRecorder",
    "JsonlSink",
    "NullSink",
    "BufferSink",
    "TelemetrySnapshot",
    "read_events",
    "load_run",
    "render_report",
    # runtime
    "ExecutionPlan",
    "WorkItem",
    "ItemOutcome",
    "Executor",
    "SerialExecutor",
    "ParallelExecutor",
    "partition_batches",
    "partition_indices",
    "as_executor",
    "make_executor",
    # serving
    "ServingEngine",
    "ServingPolicy",
    "ServingReport",
    "MFGPolicyAdapter",
    "EdgeCache",
    # baselines
    "CachingScheme",
    "SchemeDecision",
    "MFGCPScheme",
    "MFGNoSharingScheme",
    "MostPopularScheme",
    "RandomReplacementScheme",
    "UDCSScheme",
    "__version__",
]
