"""Experiment harness: one function per paper figure/table.

Each function reproduces the workload behind one element of the
paper's evaluation section (Figs. 3-14, Table II) and returns plain
data structures (dicts of numpy arrays / row lists).  The benchmark
suite wraps these functions with pytest-benchmark and prints the
series/rows; the examples reuse them directly.

Keeping the experiment logic here — rather than inside the benches —
makes every figure reproducible from library code alone:

>>> from repro.analysis import experiments
>>> rows = experiments.fig14_scheme_comparison()  # doctest: +SKIP
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.baselines.base import CachingScheme
from repro.baselines.mfg_cp import MFGCPScheme
from repro.baselines.mfg_nosharing import MFGNoSharingScheme
from repro.baselines.most_popular import MostPopularScheme
from repro.baselines.random_replacement import RandomReplacementScheme
from repro.baselines.udcs import UDCSScheme
from repro.core.best_response import BestResponseIterator
from repro.core.equilibrium import EquilibriumResult
from repro.core.parameters import MFGCPConfig
from repro.core.solver import fan_out_equilibria
from repro.game.simulator import GameSimulator, SimulationReport
from repro.obs.telemetry import NULL_TELEMETRY, SolverTelemetry
from repro.runtime import ExecutionPlan, ExecutorLike, as_executor
from repro.sde.ornstein_uhlenbeck import OrnsteinUhlenbeckProcess

SCHEME_ORDER = ("MFG-CP", "MFG", "UDCS", "MPC", "RR")


def default_config(fast: bool = True) -> MFGCPConfig:
    """The configuration experiments run on (coarse grid by default)."""
    return MFGCPConfig.fast() if fast else MFGCPConfig.paper_default()


def make_scheme(
    name: str, equilibrium: Optional[EquilibriumResult] = None
) -> CachingScheme:
    """Instantiate a scheme by its paper name.

    Parameters
    ----------
    equilibrium:
        Optional pre-solved equilibrium injected into the model-based
        schemes (``MFG-CP``, ``MFG``, ``UDCS``), so a fan-out over
        seeds pays the mean-field solve once in the parent instead of
        once per worker.  Rejected for the model-free baselines.
    """
    factory = {
        "MFG-CP": MFGCPScheme,
        "MFG": MFGNoSharingScheme,
        "UDCS": UDCSScheme,
        "MPC": MostPopularScheme,
        "RR": RandomReplacementScheme,
    }
    if name not in factory:
        raise KeyError(f"unknown scheme {name!r}; choose from {sorted(factory)}")
    if equilibrium is not None:
        if not issubclass(factory[name], MFGCPScheme):
            raise TypeError(
                f"scheme {name!r} does not take a pre-solved equilibrium"
            )
        return factory[name](equilibrium=equilibrium)
    return factory[name]()


def prepare_scheme_equilibrium(
    name: str,
    config: MFGCPConfig,
    telemetry: SolverTelemetry = NULL_TELEMETRY,
) -> Optional[EquilibriumResult]:
    """Solve a model-based scheme's equilibrium once, in the parent.

    Returns ``None`` for the model-free baselines (their ``prepare``
    is cheap and — for RR — seeds from the simulation RNG, so it must
    run inside each work item).  The solve is deterministic, so
    injecting the shared result into every seed's worker is
    bit-identical to letting each worker solve it locally.
    """
    scheme = make_scheme(name)
    if not isinstance(scheme, MFGCPScheme):
        return None
    if telemetry.enabled:
        scheme.bind_telemetry(telemetry)
    scheme.prepare(config, np.random.default_rng(0))
    return scheme.equilibrium


def simulate_scheme_seed(
    name: str,
    config: MFGCPConfig,
    n_edps: int,
    seed: int,
    equilibrium: Optional[EquilibriumResult] = None,
    telemetry: SolverTelemetry = NULL_TELEMETRY,
) -> Dict[str, float]:
    """One self-contained seed replicate of a named scheme.

    This is the work-item body behind :func:`run_scheme_summary` (and
    the replication module): it owns everything it needs — scheme
    instance, RNG, optional pre-solved equilibrium — so it produces
    the same numbers whether it runs in-process or in a pool worker.
    """
    scheme = make_scheme(name, equilibrium=equilibrium)
    sim = GameSimulator(
        config,
        [(scheme, n_edps)],
        rng=np.random.default_rng(seed),
        telemetry=telemetry,
    )
    report = sim.run()
    summary = report.scheme_summary(name)
    summary["mean_control"] = float(report.series["mean_control"].mean())
    return summary


def sweep_equilibria(
    configs: Sequence[MFGCPConfig],
    labels: Sequence[str],
    executor: ExecutorLike = None,
    telemetry: Optional[SolverTelemetry] = None,
) -> List[Optional[EquilibriumResult]]:
    """Solve independent configuration variants through an executor.

    The shared engine behind the Figs. 6-11 parameter sweeps: each
    variant is one one-lane work item labelled by ``labels``, so a
    sweep parallelises with ``executor="process:4"`` while staying
    bit-identical to the serial default.  A variant lost to a
    skip/degrade fault policy comes back as ``None``.
    """
    solved, _ = fan_out_equilibria(
        dict(enumerate(configs)),
        as_executor(executor),
        telemetry,
        label=lambda shard: labels[shard[0]],
        scope="sweep",
    )
    return [solved.get(i) for i in range(len(configs))]


# ----------------------------------------------------------------------
# Fig. 3 — channel evolution under the OU law
# ----------------------------------------------------------------------
def fig3_channel_evolution(
    long_term_means: Sequence[float] = (2.0, 5.0, 8.0),
    volatilities: Sequence[float] = (0.1, 0.5, 1.0),
    h0: float = 1.0,
    horizon: float = 10.0,
    n_steps: int = 1000,
    seed: int = 3,
) -> Dict[str, np.ndarray]:
    """Sample OU paths for the Fig. 3 mean/volatility sweeps.

    Returns a dict mapping series labels (``mean=5.0, vol=0.5``) to
    sample paths, plus the shared ``time`` axis.  The paper's claims:
    every path reverts to its long-term mean; larger rho_h gives a
    noisier trajectory.
    """
    out: Dict[str, np.ndarray] = {}
    times = None
    for mean in long_term_means:
        for vol in volatilities:
            ou = OrnsteinUhlenbeckProcess(
                reversion=4.0,
                mean=mean,
                volatility=vol,
                rng=np.random.default_rng(seed),
            )
            path = ou.sample_path(h0=h0, t1=horizon, n_steps=n_steps)
            out[f"mean={mean}, vol={vol}"] = path.values[:, 0]
            times = path.times
    assert times is not None
    out["time"] = times
    return out


# ----------------------------------------------------------------------
# Figs. 4-5 — mean-field density and policy at equilibrium
# ----------------------------------------------------------------------
def solve_equilibrium(
    config: Optional[MFGCPConfig] = None,
    telemetry: Optional[SolverTelemetry] = None,
) -> EquilibriumResult:
    """Solve the single-content equilibrium used by Figs. 4-11."""
    cfg = default_config() if config is None else config
    return BestResponseIterator(cfg, telemetry=telemetry).solve()


def fig4_meanfield_evolution(
    config: Optional[MFGCPConfig] = None,
    result: Optional[EquilibriumResult] = None,
) -> Dict[str, np.ndarray]:
    """The Fig. 4 surface: marginal density over q at each time."""
    res = solve_equilibrium(config) if result is None else result
    return {
        "time": res.grid.t,
        "q": res.grid.q[0],
        "density": res.marginal_q_path(),
        "mean_q": res.mean_remaining_space(),
    }


def fig5_policy_evolution(
    config: Optional[MFGCPConfig] = None,
    caching_states: Sequence[float] = (10.0, 20.0, 30.0, 40.0, 50.0),
    result: Optional[EquilibriumResult] = None,
) -> Dict[str, np.ndarray]:
    """The Fig. 5 surface: x*(t, q) plus the fixed-q time profiles."""
    res = solve_equilibrium(config) if result is None else result
    h_mid = float(res.config.channel.mean)
    profiles = {
        f"q={q0:g}": res.policy.time_profile(h_mid, q0) for q0 in caching_states
    }
    return {
        "time": res.grid.t,
        "q": res.grid.q[0],
        "policy_q_profile_t0": res.policy.q_profile(0.0, h_mid),
        "policy_q_profile_mid": res.policy.q_profile(
            0.5 * res.config.horizon, h_mid
        ),
        **profiles,
    }


# ----------------------------------------------------------------------
# Figs. 6-7 — heat maps over content size and initial dispersion
# ----------------------------------------------------------------------
def fig67_heatmap(
    content_sizes: Sequence[float] = (60.0, 80.0, 100.0, 120.0),
    initial_std_fraction: float = 0.1,
    config: Optional[MFGCPConfig] = None,
    executor: ExecutorLike = None,
    telemetry: Optional[SolverTelemetry] = None,
) -> Dict[float, Dict[str, np.ndarray]]:
    """Per-``Q_k`` marginal density paths (Fig. 6: std 0.1; Fig. 7: 0.05)."""
    base = default_config() if config is None else config
    base = replace(base, initial_std_fraction=initial_std_fraction)
    configs = [base.with_content_size(q_size) for q_size in content_sizes]
    results = sweep_equilibria(
        configs,
        executor=executor,
        telemetry=telemetry,
        labels=[f"Q={q_size:g}" for q_size in content_sizes],
    )
    out: Dict[float, Dict[str, np.ndarray]] = {}
    for q_size, res in zip(content_sizes, results):
        if res is None:  # variant lost to a skip/degrade fault policy
            continue
        out[float(q_size)] = {
            "time": res.grid.t,
            "q": res.grid.q[0],
            "density": res.marginal_q_path(),
            "mean_q": res.mean_remaining_space(),
        }
    return out


# ----------------------------------------------------------------------
# Fig. 8 — placement-cost coefficient sweep
# ----------------------------------------------------------------------
def fig8_w5_sweep(
    w5_values: Sequence[float] = (90.0, 130.0, 170.0, 215.0),
    config: Optional[MFGCPConfig] = None,
    executor: ExecutorLike = None,
    telemetry: Optional[SolverTelemetry] = None,
) -> Dict[float, Dict[str, np.ndarray]]:
    """Mean cache state and staleness cost per ``w5`` value.

    The paper sweeps ``w5 in [0.65, 1.55] * base``; we sweep the same
    relative range around the calibrated base.  Expected shape: larger
    ``w5`` suppresses caching (remaining space falls more slowly) and
    raises the staleness cost.
    """
    base = default_config() if config is None else config
    configs = [replace(base, w5=float(w5)) for w5 in w5_values]
    results = sweep_equilibria(
        configs,
        executor=executor,
        telemetry=telemetry,
        labels=[f"w5={w5:g}" for w5 in w5_values],
    )
    out: Dict[float, Dict[str, np.ndarray]] = {}
    for w5, res in zip(w5_values, results):
        if res is None:  # variant lost to a skip/degrade fault policy
            continue
        paths = res.population_utility_path()
        out[float(w5)] = {
            "time": res.grid.t,
            "mean_q": res.mean_remaining_space(),
            "staleness_cost": paths["staleness_cost"],
            "accumulated_staleness": np.array(
                [res.accumulated_utility()["staleness_cost"]]
            ),
        }
    return out


# ----------------------------------------------------------------------
# Fig. 9 — convergence from different initial caching states
# ----------------------------------------------------------------------
def fig9_convergence(
    initial_states: Sequence[float] = (30.0, 50.0, 70.0, 90.0),
    config: Optional[MFGCPConfig] = None,
    result: Optional[EquilibriumResult] = None,
) -> Dict[float, Dict[str, np.ndarray]]:
    """Cache-state and utility trajectories from each ``q_k(0)``.

    Expected shape (paper): the largest initial remaining space has the
    lowest utility at first; every trajectory stabilises.
    """
    res = solve_equilibrium(config) if result is None else result
    out: Dict[float, Dict[str, np.ndarray]] = {}
    for q0 in initial_states:
        out[float(q0)] = {
            "time": res.grid.t,
            "caching_state": res.mean_state_trajectory(q0),
            "utility": res.state_utility_rate_path(q0),
        }
    return out


# ----------------------------------------------------------------------
# Fig. 10 — initial-distribution sweep
# ----------------------------------------------------------------------
def fig10_initial_distribution(
    mean_fractions: Sequence[float] = (0.5, 0.6, 0.7, 0.8),
    config: Optional[MFGCPConfig] = None,
    executor: ExecutorLike = None,
    telemetry: Optional[SolverTelemetry] = None,
) -> Dict[float, Dict[str, np.ndarray]]:
    """Utility and average sharing benefit per initial mean."""
    base = default_config() if config is None else config
    configs = [
        replace(base, initial_mean_fraction=float(mean)) for mean in mean_fractions
    ]
    results = sweep_equilibria(
        configs,
        executor=executor,
        telemetry=telemetry,
        labels=[f"mean={mean:g}" for mean in mean_fractions],
    )
    out: Dict[float, Dict[str, np.ndarray]] = {}
    for mean, res in zip(mean_fractions, results):
        if res is None:  # variant lost to a skip/degrade fault policy
            continue
        paths = res.population_utility_path()
        out[float(mean)] = {
            "time": res.grid.t,
            "utility": paths["total"],
            "sharing_benefit": res.mean_field.sharing_benefit,
        }
    return out


# ----------------------------------------------------------------------
# Fig. 11 — eta1 sweep over time
# ----------------------------------------------------------------------
def fig11_eta1_timeseries(
    eta1_values: Sequence[float] = (1e-3, 2e-3, 3e-3, 4e-3),
    config: Optional[MFGCPConfig] = None,
    executor: ExecutorLike = None,
    telemetry: Optional[SolverTelemetry] = None,
) -> Dict[float, Dict[str, np.ndarray]]:
    """Utility and trading income over time per ``eta1``.

    Expected shape: utility rises over time while trading income
    decays; a larger ``eta1`` lowers both.
    """
    base = default_config() if config is None else config
    # Requesters leave the market once served; this demand saturation
    # is what drives the paper's within-epoch trading-income decline.
    base = replace(base, demand_decay=1.0)
    configs = [replace(base, eta1=float(eta1)) for eta1 in eta1_values]
    results = sweep_equilibria(
        configs,
        executor=executor,
        telemetry=telemetry,
        labels=[f"eta1={eta1:g}" for eta1 in eta1_values],
    )
    out: Dict[float, Dict[str, np.ndarray]] = {}
    for eta1, res in zip(eta1_values, results):
        if res is None:  # variant lost to a skip/degrade fault policy
            continue
        paths = res.population_utility_path()
        out[float(eta1)] = {
            "time": res.grid.t,
            "utility": paths["total"],
            "trading_income": paths["trading_income"],
            "price": res.mean_field.price,
        }
    return out


# ----------------------------------------------------------------------
# Figs. 12-14 + Table II — finite-population scheme comparisons
# ----------------------------------------------------------------------
def run_scheme(
    name: str,
    config: MFGCPConfig,
    n_edps: int,
    seed: int = 7,
    telemetry: Optional[SolverTelemetry] = None,
) -> SimulationReport:
    """One homogeneous-population run of a named scheme."""
    scheme = make_scheme(name)
    sim = GameSimulator(
        config,
        [(scheme, n_edps)],
        rng=np.random.default_rng(seed),
        telemetry=telemetry,
    )
    return sim.run()


def run_scheme_summary(
    name: str,
    config: MFGCPConfig,
    n_edps: int,
    seeds: Sequence[int] = (7, 8, 9),
    telemetry: Optional[SolverTelemetry] = None,
    executor: ExecutorLike = None,
) -> Dict[str, float]:
    """Seed-averaged accumulated Eq. (10) terms for one scheme.

    The model-based schemes' mean-field equilibrium is solved once in
    the parent and injected into every replicate; each seed then runs
    as an independent work item (fresh scheme instance, own RNG) so
    the per-seed simulations fan out through ``executor`` with
    bit-identical results on every backend.  The summaries are
    averaged to suppress simulation noise in the comparison figures.
    """
    seeds = tuple(int(seed) for seed in seeds)
    if not seeds:
        raise ValueError("need at least one seed")
    equilibrium = prepare_scheme_equilibrium(
        name, config, telemetry=telemetry if telemetry is not None else NULL_TELEMETRY
    )
    plan = ExecutionPlan.map(
        simulate_scheme_seed,
        [(name, config, n_edps, seed, equilibrium) for seed in seeds],
        labels=[f"{name}:seed{seed}" for seed in seeds],
        accepts_telemetry=True,
    )
    summaries = as_executor(executor).run(plan, telemetry=telemetry)
    # A fault policy running in skip/degrade mode hands back None for
    # exhausted replicates; average over the survivors rather than
    # crashing a whole sweep on one lost seed.
    survivors = [summary for summary in summaries if summary is not None]
    if not survivors:
        raise RuntimeError(
            f"every seed replicate of scheme {name!r} failed or was skipped"
        )
    totals: Dict[str, float] = {}
    for summary in survivors:
        for key, value in summary.items():
            totals[key] = totals.get(key, 0.0) + value
    return {key: value / len(survivors) for key, value in totals.items()}


def fig12_total_vs_eta1(
    eta1_values: Sequence[float] = (1e-3, 2e-3, 3e-3, 4e-3),
    schemes: Sequence[str] = SCHEME_ORDER,
    n_edps: int = 60,
    config: Optional[MFGCPConfig] = None,
    seed: int = 7,
    n_seeds: int = 3,
    executor: ExecutorLike = None,
    telemetry: Optional[SolverTelemetry] = None,
) -> List[Tuple[float, str, float, float]]:
    """Rows ``(eta1, scheme, total utility, total trading income)``.

    Each ``(eta1, scheme)`` cell averages ``n_seeds`` replicate
    simulations over seeds ``seed, seed+1, ...``.

    Expected shape: utility decreases in ``eta1`` for every scheme;
    MFG-CP has the highest utility; MFG has the higher trading income.
    """
    base = default_config() if config is None else config
    seeds = tuple(seed + i for i in range(n_seeds))
    rows: List[Tuple[float, str, float, float]] = []
    for eta1 in eta1_values:
        cfg = replace(base, eta1=float(eta1))
        for name in schemes:
            summary = run_scheme_summary(
                name, cfg, n_edps, seeds=seeds, telemetry=telemetry,
                executor=executor,
            )
            rows.append(
                (float(eta1), name, summary["total"], summary["trading_income"])
            )
    return rows


def fig13_popularity_sweep(
    popularity_values: Sequence[float] = (0.3, 0.4, 0.5, 0.6, 0.7),
    schemes: Sequence[str] = SCHEME_ORDER,
    n_edps: int = 60,
    config: Optional[MFGCPConfig] = None,
    seed: int = 7,
    n_seeds: int = 3,
    executor: ExecutorLike = None,
    telemetry: Optional[SolverTelemetry] = None,
) -> List[Tuple[float, str, float, float, float]]:
    """Rows ``(popularity, scheme, utility, staleness cost, mean control)``.

    Each ``(popularity, scheme)`` cell averages ``n_seeds`` replicate
    simulations over seeds ``seed, seed+1, ...``.

    Expected shape: MFG-CP has the highest utility and a low staleness
    cost everywhere; UDCS's *decisions* vary least with popularity (its
    cost-only objective ignores the market — the paper's "minimal
    variations"); higher popularity raises utility (more requests,
    more income).
    """
    base = default_config() if config is None else config
    seeds = tuple(seed + i for i in range(n_seeds))
    rows: List[Tuple[float, str, float, float, float]] = []
    for pop in popularity_values:
        # Higher popularity also means more requests for the content.
        cfg = replace(
            base,
            popularity=float(pop),
            n_requests=base.n_requests * (pop / base.popularity),
        )
        for name in schemes:
            summary = run_scheme_summary(
                name, cfg, n_edps, seeds=seeds, telemetry=telemetry,
                executor=executor,
            )
            rows.append(
                (
                    float(pop),
                    name,
                    summary["total"],
                    summary["staleness_cost"],
                    summary["mean_control"],
                )
            )
    return rows


def fig14_scheme_comparison(
    schemes: Sequence[str] = SCHEME_ORDER,
    n_edps: int = 100,
    config: Optional[MFGCPConfig] = None,
    seed: int = 7,
    n_seeds: int = 3,
    executor: ExecutorLike = None,
    telemetry: Optional[SolverTelemetry] = None,
) -> List[Tuple[str, float, float, float]]:
    """Rows ``(scheme, utility, trading income, staleness cost)``.

    Each scheme averages ``n_seeds`` replicate simulations over seeds
    ``seed, seed+1, ...``.

    Expected shape: MFG-CP utility exceeds every baseline (the paper
    reports 2.76x MPC and 1.57x UDCS on its testbed); MFG trades more
    but pays more staleness.
    """
    cfg = default_config() if config is None else config
    seeds = tuple(seed + i for i in range(n_seeds))
    rows: List[Tuple[str, float, float, float]] = []
    for name in schemes:
        summary = run_scheme_summary(
            name, cfg, n_edps, seeds=seeds, telemetry=telemetry,
            executor=executor,
        )
        rows.append(
            (
                name,
                summary["total"],
                summary["trading_income"],
                summary["staleness_cost"],
            )
        )
    return rows


# ----------------------------------------------------------------------
# Ablations (design-choice studies beyond the paper's figures)
# ----------------------------------------------------------------------
def ablation_exploitability(
    population_sizes: Sequence[int] = (10, 25, 50, 100),
    deviation_levels: Sequence[float] = (0.0, 0.5, 1.0),
    config: Optional[MFGCPConfig] = None,
    seed: int = 5,
) -> List[Tuple[int, float, float]]:
    """Rows ``(M, best deviation gain, equilibrium utility)``.

    Definition 3's epsilon-Nash property in the finite game: a tagged
    EDP deviating unilaterally from the mean-field policy should gain
    at most an epsilon that stays small relative to the equilibrium
    utility as the population grows.
    """
    from repro.game.nash import exploitability

    cfg = default_config() if config is None else config
    result = BestResponseIterator(cfg).solve()
    rows: List[Tuple[int, float, float]] = []
    for m in population_sizes:
        probes = exploitability(
            cfg, result, deviation_levels=deviation_levels, n_edps=m, seed=seed
        )
        best_gain = max(p.gain for p in probes)
        rows.append((int(m), float(best_gain), float(probes[0].equilibrium_utility)))
    return rows


def _meanfield_gap_sample(
    config: MFGCPConfig,
    result: EquilibriumResult,
    n_edps: int,
    seed: int,
) -> Tuple[float, float]:
    """Work-item body: one finite-population gap measurement."""
    from repro.analysis.metrics import mean_field_gap

    sim = GameSimulator(
        config,
        [(MFGCPScheme(equilibrium=result), n_edps)],
        rng=np.random.default_rng(seed),
    )
    gap = mean_field_gap(result, sim.run())
    return float(gap["mean_q_rmse"]), float(gap["price_rmse"])


def ablation_meanfield_gap(
    population_sizes: Sequence[int] = (25, 50, 100, 200),
    config: Optional[MFGCPConfig] = None,
    n_seeds: int = 3,
    seed: int = 11,
    executor: ExecutorLike = None,
) -> List[Tuple[int, float, float]]:
    """Rows ``(M, mean-q RMSE, price RMSE)`` of the mean-field gap.

    Propagation of chaos (the justification for Eq. (14)): the finite
    population under the equilibrium policy should track the FPK
    density better as ``M`` grows.  One equilibrium solve is shared;
    every ``(M, seed)`` pair is an independent work item and the gaps
    are averaged per ``M``.
    """
    cfg = default_config() if config is None else config
    result = BestResponseIterator(cfg).solve()
    pairs = [(m, seed + s) for m in population_sizes for s in range(n_seeds)]
    plan = ExecutionPlan.map(
        _meanfield_gap_sample,
        [(cfg, result, int(m), int(s)) for m, s in pairs],
        labels=[f"M{m}:seed{s}" for m, s in pairs],
    )
    gaps = as_executor(executor).run(plan)
    rows: List[Tuple[int, float, float]] = []
    for i, m in enumerate(population_sizes):
        chunk = gaps[i * n_seeds : (i + 1) * n_seeds]
        q_gaps = [g[0] for g in chunk]
        p_gaps = [g[1] for g in chunk]
        rows.append((int(m), float(np.mean(q_gaps)), float(np.mean(p_gaps))))
    return rows


def ablation_damping(
    damping_values: Sequence[float] = (0.25, 0.5, 0.75, 1.0),
    config: Optional[MFGCPConfig] = None,
) -> List[Tuple[float, bool, int, float]]:
    """Rows ``(damping, converged, iterations, final change)``.

    The relaxed update ``x <- (1 - beta) x + beta x_new`` implements the
    Theorem 2 contraction robustly; this ablation records how the
    relaxation factor trades off convergence speed against stability.
    """
    base = default_config() if config is None else config
    rows: List[Tuple[float, bool, int, float]] = []
    for beta in damping_values:
        # Heavier damping converges geometrically but slowly; give every
        # level enough headroom to reach the common fixed point.
        cfg = replace(base, damping=float(beta), max_iterations=80)
        result = BestResponseIterator(cfg).solve()
        rows.append(
            (
                float(beta),
                result.report.converged,
                result.report.n_iterations,
                result.report.final_policy_change,
            )
        )
    return rows


def ablation_grid_resolution(
    resolutions: Sequence[Tuple[int, int, int]] = (
        (30, 7, 19),
        (40, 9, 25),
        (60, 12, 35),
        (100, 15, 45),
    ),
    config: Optional[MFGCPConfig] = None,
) -> List[Tuple[str, float, float, float]]:
    """Rows ``(n_t x n_h x n_q, final mean q, total utility, solve iterations)``.

    The reproduction's headline statistics should be stable under grid
    refinement — a discretisation-convergence check on the coupled
    finite-difference solvers.
    """
    base = default_config() if config is None else config
    rows: List[Tuple[str, float, float, float]] = []
    for n_t, n_h, n_q in resolutions:
        cfg = replace(base, n_time_steps=int(n_t), n_h=int(n_h), n_q=int(n_q))
        result = BestResponseIterator(cfg).solve()
        acc = result.accumulated_utility()
        rows.append(
            (
                f"{n_t}x{n_h}x{n_q}",
                float(result.mean_field.mean_q[-1]),
                acc["total"],
                float(result.report.n_iterations),
            )
        )
    return rows


def ablation_sharing_price(
    sharing_prices: Sequence[float] = (0.0, 0.15, 0.3, 0.6),
    n_edps: int = 60,
    config: Optional[MFGCPConfig] = None,
    seed: int = 7,
    executor: ExecutorLike = None,
) -> List[Tuple[float, float, float, float]]:
    """Rows ``(p_bar, MFG-CP utility, MFG utility, sharing benefit)``.

    The usage-based sharing price ``p_bar_k`` sets how much money moves
    through the peer market; the ablation shows the MFG-CP-over-MFG
    advantage and the population's sharing-benefit volume across
    ``p_bar``.
    """
    base = default_config() if config is None else config
    rows: List[Tuple[float, float, float, float]] = []
    for p_bar in sharing_prices:
        cfg = replace(base, sharing_price=float(p_bar))
        mfgcp = run_scheme_summary(
            "MFG-CP",
            cfg,
            n_edps,
            seeds=(seed, seed + 1, seed + 2),
            executor=executor,
        )
        mfg = run_scheme_summary(
            "MFG",
            cfg,
            n_edps,
            seeds=(seed, seed + 1, seed + 2),
            executor=executor,
        )
        rows.append(
            (
                float(p_bar),
                mfgcp["total"],
                mfg["total"],
                mfgcp["sharing_benefit"],
            )
        )
    return rows


def _table2_timed_epoch(
    name: str,
    config: MFGCPConfig,
    catalog_size: int,
    n_edps: int,
    rep_seed: int,
    bind_scheme: bool,
    telemetry: SolverTelemetry = NULL_TELEMETRY,
) -> float:
    """Work-item body: one timed decision epoch for one scheme.

    The span must tick even when the run captures no telemetry — the
    measured duration IS the experiment's output — so a disabled
    injected telemetry is replaced by a throwaway in-memory recorder.
    """
    tele = telemetry if telemetry.enabled else SolverTelemetry.in_memory()
    rng = np.random.default_rng(rep_seed)
    scheme = make_scheme(name)
    if bind_scheme:
        scheme.bind_telemetry(tele)
    fading = np.full(n_edps, config.channel.mean)
    remaining = np.linspace(0.0, config.content_size, n_edps)
    with tele.span("table2_epoch") as span:
        scheme.prepare(config, rng)
        for t in config.time_axis():
            for _k in range(catalog_size):
                scheme.decide(float(t), fading, remaining)
    return float(span.duration)


def table2_computation_time(
    population_sizes: Sequence[int] = (50, 100, 200, 300),
    schemes: Sequence[str] = ("MFG-CP", "RR", "MPC"),
    config: Optional[MFGCPConfig] = None,
    catalog_size: int = 20,
    repeats: int = 3,
    seed: int = 7,
    telemetry: Optional[SolverTelemetry] = None,
    executor: ExecutorLike = None,
) -> List[Tuple[str, int, float]]:
    """Rows ``(scheme, M, seconds)`` for the per-epoch decision cost.

    Measures what Table II measures: the time a scheme needs to produce
    its decisions for one optimization epoch over the K-content
    catalog.  MFG-CP solves the generic-player mean-field problem once
    — a cost independent of ``M`` (the paper's O(K psi) vs
    O(M K psi) remark) — then answers per-content decisions with
    vectorised policy lookups.  RR and MPC decide per EDP and per
    content, so their cost grows linearly with the population.

    Timing runs through the :mod:`repro.obs` span layer: every
    ``(scheme, M, repeat)`` is one work item wrapping one
    ``table2_epoch`` span, and the reported number is the best span
    duration over ``repeats`` (best-of-N suppresses scheduler noise).
    Pass ``telemetry`` to also stream the spans to a sink.  Note that
    a parallel ``executor`` overlaps the repeats, so contending
    workers can inflate the measured wall times — time on the serial
    default, parallelise only for smoke runs.
    """
    cfg = default_config() if config is None else config
    if catalog_size < 1:
        raise ValueError(f"catalog_size must be positive, got {catalog_size}")
    if repeats < 1:
        raise ValueError(f"repeats must be positive, got {repeats}")
    tele = telemetry if telemetry is not None else NULL_TELEMETRY
    cells = [(name, m) for name in schemes for m in population_sizes]
    plan = ExecutionPlan.map(
        _table2_timed_epoch,
        [
            (name, cfg, int(catalog_size), int(m), seed + rep, telemetry is not None)
            for name, m in cells
            for rep in range(repeats)
        ],
        labels=[
            f"{name}:M{m}:rep{rep}"
            for name, m in cells
            for rep in range(repeats)
        ],
        accepts_telemetry=True,
    )
    durations = as_executor(executor).run(plan, telemetry=telemetry)
    rows: List[Tuple[str, int, float]] = []
    for i, (name, m) in enumerate(cells):
        best = min(durations[i * repeats : (i + 1) * repeats])
        tele.event(
            "table2_timing", scheme=name, n_edps=int(m), seconds=float(best)
        )
        rows.append((name, int(m), float(best)))
    return rows
