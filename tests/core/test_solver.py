"""Tests for the Alg. 1 framework driver."""

import numpy as np
import pytest

from repro.content.catalog import ContentCatalog
from repro.content.requests import RequestProcess
from repro.content.timeliness import TimelinessModel
from repro.core.solver import MFGCPSolver
from repro.obs.telemetry import SolverTelemetry


class TestSingleContentSolve:
    def test_solve_delegates_to_best_response(self, fast_config):
        result = MFGCPSolver(fast_config).solve()
        assert result.report.converged
        assert result.config is fast_config


class TestPerContentConfig:
    def test_overrides(self, fast_config):
        solver = MFGCPSolver(fast_config)
        cfg = solver.per_content_config(
            content_size=60.0, popularity=0.4, timeliness=1.0, n_requests=8.0
        )
        assert cfg.content_size == 60.0
        assert cfg.popularity == 0.4
        assert cfg.n_requests == 8.0
        # Everything else inherited.
        assert cfg.w5 == fast_config.w5

    def test_popularity_clipped(self, fast_config):
        cfg = MFGCPSolver(fast_config).per_content_config(100.0, 1.7, 1.0, 5.0)
        assert cfg.popularity == 1.0


class TestEpochLoop:
    def make_inputs(self, n_contents=3, rate=40.0, seed=0):
        catalog = ContentCatalog.uniform(n_contents, size_mb=100.0)
        requests = RequestProcess(
            n_contents=n_contents,
            rate_per_edp=rate,
            timeliness_model=TimelinessModel(l_max=3.0),
            rng=np.random.default_rng(seed),
        )
        return catalog, requests

    def test_single_epoch(self, fast_config):
        catalog, requests = self.make_inputs()
        epochs = MFGCPSolver(fast_config).run_epochs(catalog, requests, n_epochs=1)
        assert len(epochs) == 1
        epoch = epochs[0]
        assert epoch.epoch == 0
        assert len(epoch.active_contents) >= 1
        for k in epoch.active_contents:
            assert epoch.equilibria[k].report.n_iterations >= 1
        assert epoch.popularity.shape == (3,)
        assert np.isfinite(epoch.total_utility())

    def test_active_contents_sorted_by_popularity(self, fast_config):
        catalog, requests = self.make_inputs()
        epoch = MFGCPSolver(fast_config).run_epochs(catalog, requests)[0]
        pops = [epoch.popularity[k] for k in epoch.active_contents]
        assert pops == sorted(pops, reverse=True)

    def test_max_active_contents_cap(self, fast_config):
        catalog, requests = self.make_inputs(rate=100.0)
        epoch = MFGCPSolver(fast_config).run_epochs(
            catalog, requests, max_active_contents=1
        )[0]
        assert len(epoch.active_contents) == 1

    def test_contents_without_requests_skipped(self, fast_config):
        catalog, requests = self.make_inputs(rate=0.0)
        epoch = MFGCPSolver(fast_config).run_epochs(catalog, requests)[0]
        assert epoch.active_contents == []
        assert epoch.total_utility() == 0.0

    def test_popularity_updates_across_epochs(self, fast_config):
        catalog, requests = self.make_inputs(rate=60.0, seed=1)
        epochs = MFGCPSolver(fast_config).run_epochs(
            catalog, requests, n_epochs=2, max_active_contents=1
        )
        # Eq. (3) keeps the vector a distribution each epoch.
        for epoch in epochs:
            assert epoch.popularity.sum() == pytest.approx(1.0)

    def test_validation(self, fast_config):
        catalog, requests = self.make_inputs()
        with pytest.raises(ValueError, match="n_epochs"):
            MFGCPSolver(fast_config).run_epochs(catalog, requests, n_epochs=0)
        bad_requests = RequestProcess(n_contents=5, rate_per_edp=1.0)
        with pytest.raises(ValueError, match="catalog"):
            MFGCPSolver(fast_config).run_epochs(catalog, bad_requests)

    @pytest.mark.parametrize("cap", [0, -1])
    def test_rejects_non_positive_active_cap(self, fast_config, cap):
        catalog, requests = self.make_inputs()
        with pytest.raises(ValueError, match="max_active_contents"):
            MFGCPSolver(fast_config).run_epochs(
                catalog, requests, max_active_contents=cap
            )

    def test_per_content_lanes_tag_their_own_content(self, fast_config):
        # Each per-content item's diag.* events must name that item's
        # content, so a numerics failure in content 3 says "content 3".
        catalog, requests = self.make_inputs(n_contents=4)
        telemetry = SolverTelemetry.buffered()
        (epoch,) = MFGCPSolver(fast_config, telemetry=telemetry).run_epochs(
            catalog, requests, n_epochs=1
        )
        assert sorted(epoch.active_contents) == [0, 1, 2, 3]
        tagged = {}
        for event in telemetry.sink.events:
            if event["ev"].startswith("diag.") and "lane" in event:
                tagged.setdefault(event["lane"], set()).add(event["content"])
        assert tagged == {f"content:{k}": {k} for k in range(4)}


class TestEpochCapacityAllocation:
    @pytest.fixture(scope="class")
    def epoch(self):
        from repro.core.parameters import MFGCPConfig

        catalog = ContentCatalog.uniform(3, size_mb=100.0)
        requests = RequestProcess(
            n_contents=3,
            rate_per_edp=60.0,
            timeliness_model=TimelinessModel(l_max=3.0),
            rng=np.random.default_rng(2),
        )
        return MFGCPSolver(MFGCPConfig.fast()).run_epochs(catalog, requests)[0]

    def test_desired_occupancy_positive(self, epoch):
        occupancy = epoch.desired_occupancy()
        assert set(occupancy) == set(epoch.active_contents)
        assert all(v >= 1.0 for v in occupancy.values())

    def test_unconstrained_passthrough(self, epoch):
        desired = epoch.desired_occupancy()
        granted = epoch.capacity_allocation(capacity=1e9)
        assert granted == desired

    def test_tight_capacity_scales_down(self, epoch):
        desired = epoch.desired_occupancy()
        capacity = 0.5 * sum(desired.values())
        granted = epoch.capacity_allocation(capacity)
        assert sum(granted.values()) <= capacity + 1e-9
        assert any(granted[k] < desired[k] for k in desired)

    def test_values_nonnegative(self, epoch):
        assert all(v >= 0.0 for v in epoch.content_values().values())
