"""Shared fixtures for the serving-engine suite.

Per-content equilibrium solves cost a few hundred ms each, so the
suite shares one solved engine (session scope) and reuses its
equilibria wherever a test needs the mfg policy.
"""

import pytest

from repro.content.workloads import video_marketplace
from repro.serve import ServingEngine, workload_stream


@pytest.fixture(scope="session")
def workload():
    return video_marketplace(n_contents=4, seed=3)


@pytest.fixture(scope="session")
def engine(workload):
    """A small solved engine: 6 EDPs, 12 slots, 4 contents."""
    stream = workload_stream(workload, n_edps=6, n_slots=12, dt=1 / 12, seed=9)
    eng = ServingEngine(workload, n_edps=6, stream=stream)
    eng.solve_equilibria()
    return eng


@pytest.fixture(scope="session")
def equilibria(engine):
    return engine.solve_equilibria()
