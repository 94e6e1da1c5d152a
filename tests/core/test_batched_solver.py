"""Tests for the batched (content-axis) HJB–FPK pipeline.

The batched sweeps are the solver's only HJB/FPK implementation; a
single content is the batch of one lane.  Two independent checks pin
them down:

* ``scalar_reference`` keeps the single-content 2-D formulation (its
  own stencils, Godunov step and FPK step) as a test-only oracle, and
  every lane of a batched sweep must equal the reference sweep of that
  lane alone to rounding: the sweeps apply the control-free terms as
  one assembled sparse operator, whose rows sum the same stencil terms
  in another order;
* a lane's result must not depend on the batch it rides in: one batch
  of N lanes equals N one-lane solves — values, densities, policies,
  and iteration histories — bit for bit.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.best_response import (
    BatchedBestResponseIterator,
    BestResponseIterator,
    build_batch_grid,
    build_grid,
)
from repro.core.fpk import BatchedFPKSolver, batched_initial_density, initial_density
from repro.core.hjb import BatchedHJBSolver, validate_shared_lane_params
from repro.core.mean_field import MeanFieldEstimator
from repro.core.operators import (
    donor_cell_bands,
    donor_cell_divergence,
    donor_cell_faces,
    neumann_bands,
    upwind_bands,
    zero_flux_bands,
)
from repro.core.parameters import MFGCPConfig
from repro.obs.telemetry import SolverTelemetry, StrictNumericsError
from assembled import along_h, along_q
from scalar_reference import (
    ReferenceFPK,
    ReferenceHJB,
    conservative_advection,
    conservative_diffusion,
    second_derivative,
    upwind_gradient,
)


# Rounding-level bounds on a lane's distance to the reference: four
# times the largest distance measured over 600 drawn lane families (as
# in TestReferenceProperty) and the default grid.  Value and density
# are relative to the largest magnitude of the reference path
# (measured 6.2e-16 and 6.1e-16), the policy absolute (2.5e-14).  The
# assembled operators' products measured 3.1e-16 relative.
VALUE_RTOL = 2.5e-15
POLICY_ATOL = 1e-13
DENSITY_RTOL = 2.5e-15
OPERATOR_RTOL = 1.3e-15


def assert_close(got, want, rtol=0.0, atol=0.0):
    """``max |got - want| <= rtol max |want| + atol``."""
    distance = float(np.max(np.abs(got - want)))
    bound = rtol * float(np.max(np.abs(want))) + atol
    assert distance <= bound, f"distance {distance:.3e} > bound {bound:.3e}"


def tiny_config(**overrides):
    base = replace(
        MFGCPConfig.fast(), n_time_steps=12, n_h=5, n_q=11, max_iterations=15
    )
    return replace(base, **overrides)


def lane_configs():
    """Heterogeneous lanes: sizes, popularity, timeliness, demand vary.

    The last lane (large content, heavy demand) needs more best-response
    iterations than the others, so the convergence mask is exercised.
    """
    specs = [
        dict(content_size=4.0, popularity=0.9, timeliness=1.2, n_requests=25.0),
        dict(content_size=8.0, popularity=0.5, timeliness=2.0, n_requests=10.0),
        dict(content_size=20.0, popularity=0.3, timeliness=2.5, n_requests=40.0),
    ]
    return [tiny_config(**spec) for spec in specs]


class TestBatchedOperators:
    """Each assembled operator and the ``q`` stencil against the 2-D reference.

    Fading-axis stencils share one spacing across the lanes; cache-axis
    ones are unit-spacing bands scaled per lane, as in the sweeps.  An
    assembled product sums each row in another order than the
    reference stencil, so the two agree to rounding.  The ``q``
    donor-cell stencil the FPK sweep calls agrees exactly.
    """

    DH = 0.7

    @pytest.fixture()
    def fields(self):
        rng = np.random.default_rng(11)
        fields = rng.normal(size=(3, 6, 9))
        velocity = rng.normal(size=(3, 6, 9))
        spacing = np.array([0.2, 0.5, 1.3])
        return fields, velocity, spacing

    def lane_spacing(self, axis, spacing):
        return [self.DH] * 3 if axis == 0 else [float(dx) for dx in spacing]

    @pytest.mark.parametrize("axis", [0, 1])
    def test_upwind_gradient(self, fields, axis):
        f, v, s = fields
        # An assembled operator takes one velocity profile along its axis.
        if axis == 0:
            profile = v[0, :, 0]
            out = along_h(upwind_bands(profile, self.DH), f)
            velocity = profile[:, None]
        else:
            profile = v[0, 0, :]
            out = along_q(upwind_bands(profile, 1.0), f, 1.0 / s)
            velocity = profile[None, :]
        for b, dx in enumerate(self.lane_spacing(axis, s)):
            expected = upwind_gradient(f[b], dx, velocity, axis=axis)
            assert_close(out[b], expected, OPERATOR_RTOL)

    @pytest.mark.parametrize("axis", [0, 1])
    def test_second_derivative(self, fields, axis):
        f, _, s = fields
        bands = neumann_bands(f.shape[axis + 1])
        if axis == 0:
            out = along_h(bands / self.DH**2, f)
        else:
            out = along_q(bands, f, 1.0 / s**2)
        for b, dx in enumerate(self.lane_spacing(axis, s)):
            expected = second_derivative(f[b], dx, axis=axis)
            assert_close(out[b], expected, OPERATOR_RTOL)

    @pytest.mark.parametrize("axis", [0, 1])
    def test_conservative_advection(self, fields, axis):
        f, v, s = fields
        density = np.abs(f)
        if axis == 0:
            profile = v[0, :, 0]
            bands = donor_cell_bands(donor_cell_faces(profile), self.DH)
            out = along_h(bands, density)
            for b in range(3):
                expected = conservative_advection(
                    density[b], profile[:, None], self.DH, axis=0
                )
                assert_close(out[b], expected, OPERATOR_RTOL)
        else:
            # The policy-dependent q advection stays a stencil.
            out = donor_cell_divergence(density, donor_cell_faces(v), s)
            for b in range(3):
                expected = conservative_advection(
                    density[b], v[b], float(s[b]), axis=1
                )
                assert np.array_equal(out[b], expected)

    @pytest.mark.parametrize("axis", [0, 1])
    def test_conservative_diffusion(self, fields, axis):
        f, _, s = fields
        bands = zero_flux_bands(f.shape[axis + 1])
        if axis == 0:
            out = along_h(0.37 / self.DH**2 * bands, f)
        else:
            out = along_q(bands, f, 0.37 / s**2)
        for b, dx in enumerate(self.lane_spacing(axis, s)):
            expected = conservative_diffusion(f[b], 0.37, dx, axis=axis)
            assert_close(out[b], expected, OPERATOR_RTOL)

    def test_shared_scalar_spacing_accepted(self, fields):
        f, v, _ = fields
        density = np.abs(f)
        out = donor_cell_divergence(density, donor_cell_faces(v), 0.4)
        for b in range(3):
            expected = conservative_advection(density[b], v[b], 0.4, axis=1)
            assert np.array_equal(out[b], expected)

    def test_rejects_non_batched_rank(self):
        faces = donor_cell_faces(np.ones((4, 5)))
        with pytest.raises(ValueError, match="3-D"):
            donor_cell_divergence(np.zeros((4, 5)), faces, 0.1)


class TestBatchGrid:
    def test_batch_grid_stacks_lanes(self):
        configs = lane_configs()
        grids = [build_grid(cfg) for cfg in configs]
        batch = build_batch_grid(configs)
        assert batch.n_lanes == 3
        assert batch.shape == (3, grids[0].n_h, grids[0].n_q)
        for b, grid in enumerate(grids):
            lane = batch.select([b])
            assert np.array_equal(lane.t, grid.t)
            assert np.array_equal(lane.h, grid.h)
            assert np.array_equal(lane.q, grid.q)

    def test_batch_grid_rejects_mismatched_time_axes(self):
        configs = lane_configs()
        with pytest.raises(ValueError, match="different time axis"):
            build_batch_grid([configs[0], replace(configs[1], n_time_steps=9)])

    def test_integrate_matches_per_lane(self):
        # A lane's mass is, bit for bit, the 2-D trapezoid sum of its
        # sheet, so one-content reductions may run on (n_h, n_q) sheets.
        grids = [build_grid(cfg) for cfg in lane_configs()]
        batch = build_batch_grid(lane_configs())
        rng = np.random.default_rng(5)
        fields = rng.random(batch.shape)
        masses = batch.integrate(fields)
        for b, grid in enumerate(grids):
            assert masses[b] == (fields[b] * grid.cell_weights()[0]).sum()

    def test_select_subsets_lanes(self):
        batch = build_batch_grid(lane_configs())
        sub = batch.select(np.array([2, 0]))
        assert sub.n_lanes == 2
        assert np.array_equal(sub.q[0], batch.q[2])
        assert np.array_equal(sub.q[1], batch.q[0])

    def test_normalize_zero_mass_names_content(self):
        batch = build_batch_grid(lane_configs())
        density = np.ones(batch.shape)
        density[1] = 0.0
        with pytest.raises(ValueError, match="content 42"):
            batch.normalize(density, content_ids=[7, 42, 9])


class TestBatchedSweeps:
    """One batched sweep == N reference sweeps, to rounding."""

    @pytest.fixture(scope="class")
    def setup(self):
        configs = lane_configs()
        grids = [build_grid(cfg) for cfg in configs]
        batch = build_batch_grid(configs)
        mean_fields = [
            MeanFieldEstimator(cfg, grid).constant_guess()
            for cfg, grid in zip(configs, grids)
        ]
        return configs, grids, batch, mean_fields

    def test_hjb_backward_sweep_matches_reference(self, setup):
        configs, grids, batch, mean_fields = setup
        values, policies = BatchedHJBSolver(configs, batch).solve(mean_fields)
        for b, (cfg, grid) in enumerate(zip(configs, grids)):
            ref_values, ref_policies = ReferenceHJB(cfg, grid).solve(mean_fields[b])
            assert_close(values[b], ref_values, VALUE_RTOL)
            assert_close(policies[b], ref_policies, atol=POLICY_ATOL)

    def test_fpk_forward_sweep_matches_reference(self, setup):
        configs, grids, batch, _ = setup
        policy = np.full(batch.path_shape, 0.4)
        paths = BatchedFPKSolver(configs, batch).solve(policy)
        for b, (cfg, grid) in enumerate(zip(configs, grids)):
            expected = ReferenceFPK(cfg, grid).solve(policy[b])
            assert_close(paths[b], expected, DENSITY_RTOL)

    def test_batched_initial_density_matches_scalar(self, setup):
        configs, grids, batch, _ = setup
        stacked = batched_initial_density(batch, configs)
        for b, (cfg, grid) in enumerate(zip(configs, grids)):
            assert np.array_equal(stacked[b], initial_density(grid, cfg))

    def test_lane_subset_solve(self, setup):
        configs, grids, batch, mean_fields = setup
        hjb = BatchedHJBSolver(configs, batch)
        lanes = np.array([0, 2])
        values, policies = hjb.solve(
            [mean_fields[0], mean_fields[2]], lanes=lanes
        )
        full_values, full_policies = hjb.solve(mean_fields)
        assert np.array_equal(values, full_values[lanes])
        assert np.array_equal(policies, full_policies[lanes])

    def test_shared_param_validation_rejects_economics_mismatch(self):
        configs = lane_configs()
        configs[1] = replace(configs[1], eta2=configs[1].eta2 * 2)
        with pytest.raises(ValueError, match="economic parameters"):
            validate_shared_lane_params(configs)

    def test_fpk_rejects_lanes_with_different_caching_noise(self):
        # The forward sweep applies one diffusion and one caching drift
        # to the whole batch; a lane with its own caching process must
        # be refused rather than silently solved with lane 0's.
        base = lane_configs()[0]
        other = replace(
            base, caching=replace(base.caching, noise=3.0 * base.caching.noise)
        )
        batch = build_batch_grid([base, other])
        with pytest.raises(ValueError, match="caching process"):
            BatchedFPKSolver([base, other], batch)


lane_specs = st.fixed_dictionaries(
    dict(
        content_size=st.floats(5.0, 150.0),
        popularity=st.floats(0.0, 1.0),
        timeliness=st.floats(0.5, 3.0),
        n_requests=st.floats(1.0, 50.0),
    )
)


class TestReferenceProperty:
    """Drawn lane families: every batched lane equals the 2-D reference to rounding."""

    @given(
        specs=st.lists(lane_specs, min_size=1, max_size=4),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=25, deadline=None)
    def test_batched_sweeps_equal_reference_per_lane(self, specs, seed):
        configs = [tiny_config(**spec) for spec in specs]
        grids = [build_grid(cfg) for cfg in configs]
        batch = build_batch_grid(configs)
        rng = np.random.default_rng(seed)

        # HJB against a perturbed market, so price, peer state and
        # sharing benefit vary over time and across lanes.
        mean_fields = []
        for cfg, grid in zip(configs, grids):
            guess = MeanFieldEstimator(cfg, grid).constant_guess()
            n = grid.n_t + 1
            mean_fields.append(
                replace(
                    guess,
                    price=guess.price * rng.uniform(0.5, 1.5, n),
                    mean_q=rng.uniform(0.0, cfg.content_size, n),
                    sharing_benefit=rng.uniform(0.0, 1.0, n),
                )
            )
        values, policies = BatchedHJBSolver(configs, batch).solve(mean_fields)

        # FPK under a drawn policy table and a drawn initial density.
        policy = rng.uniform(0.0, 1.0, batch.path_shape)
        density0 = rng.uniform(0.0, 1.0, batch.shape)
        paths = BatchedFPKSolver(configs, batch).solve(policy, density0)

        for b, (cfg, grid) in enumerate(zip(configs, grids)):
            ref_values, ref_policies = ReferenceHJB(cfg, grid).solve(mean_fields[b])
            assert_close(values[b], ref_values, VALUE_RTOL)
            assert_close(policies[b], ref_policies, atol=POLICY_ATOL)
            ref_path = ReferenceFPK(cfg, grid).solve(policy[b], density0[b])
            assert_close(paths[b], ref_path, DENSITY_RTOL)


class TestBatchedBestResponse:
    @pytest.fixture(scope="class")
    def solved(self):
        configs = lane_configs()
        batched = BatchedBestResponseIterator(configs).solve()
        solo = [BestResponseIterator(cfg).solve() for cfg in configs]
        return configs, batched, solo

    def test_bit_identical_to_solo_solves(self, solved):
        _, batched, solo = solved
        for rb, rs in zip(batched, solo):
            assert np.array_equal(rb.value, rs.value)
            assert np.array_equal(rb.policy.table, rs.policy.table)
            assert np.array_equal(rb.density, rs.density)
            assert rb.report.converged == rs.report.converged
            assert rb.report.n_iterations == rs.report.n_iterations
            assert (
                rb.report.final_policy_change == rs.report.final_policy_change
            )

    def test_iteration_histories_identical(self, solved):
        _, batched, solo = solved
        for rb, rs in zip(batched, solo):
            assert len(rb.report.history) == len(rs.report.history)
            for hb, hs in zip(rb.report.history, rs.report.history):
                assert hb.policy_change == hs.policy_change
                assert hb.mean_field_change == hs.mean_field_change
                assert hb.mean_price == hs.mean_price
                assert hb.mean_control == hs.mean_control

    def test_masked_lane_is_bit_frozen(self, solved):
        # Lanes converge at different iterations; a lane that left the
        # batch early must carry exactly the state from its own last
        # iteration — bit-equal to the solo solve — even though other
        # lanes kept iterating afterwards.
        _, batched, solo = solved
        iteration_counts = [r.report.n_iterations for r in batched]
        assert len(set(iteration_counts)) > 1, (
            "test needs heterogeneous convergence orders; "
            f"got {iteration_counts}"
        )
        early = int(np.argmin(iteration_counts))
        assert np.array_equal(batched[early].value, solo[early].value)
        assert np.array_equal(batched[early].density, solo[early].density)
        assert np.array_equal(
            batched[early].policy.table, solo[early].policy.table
        )

    def test_rejects_mismatched_iteration_controls(self):
        configs = lane_configs()
        configs[1] = replace(configs[1], tolerance=configs[1].tolerance / 2)
        with pytest.raises(ValueError, match="iteration controls"):
            BatchedBestResponseIterator(configs)

    def test_rejects_empty_batch(self):
        with pytest.raises(ValueError, match="zero configs"):
            BatchedBestResponseIterator([])

    def test_rejects_content_id_count_mismatch(self):
        with pytest.raises(ValueError, match="content ids"):
            BatchedBestResponseIterator(lane_configs(), content_ids=[1, 2])


class TestPerLaneDiagnostics:
    CHECKS = (
        "diag.fpk.mass_drift",
        "diag.density.health",
        "diag.hjb.residual",
        "diag.cfl.margin",
        "diag.exploitability",
        "diag.exploitability.trend",
    )

    @staticmethod
    def diag_events(configs, content_ids):
        """Every diag.* event of one solve, without its sequence number."""
        telemetry = SolverTelemetry.buffered()
        BatchedBestResponseIterator(
            configs, content_ids=content_ids, telemetry=telemetry
        ).solve()
        return [
            {k: v for k, v in event.items() if k != "seq"}
            for event in telemetry.sink.events
            if event["ev"].startswith("diag.")
        ]

    @pytest.fixture(scope="class")
    def configs(self):
        # The trend probe needs three iterations; at the default
        # tolerance the first lane converges after two.
        return [replace(cfg, tolerance=1e-5) for cfg in lane_configs()]

    @pytest.fixture(scope="class")
    def batched(self, configs):
        return self.diag_events(configs, [11, 22, 33])

    def test_all_probes_emit_per_lane_events(self, batched):
        lanes_by_check = {}
        for event in batched:
            lanes_by_check.setdefault(event["ev"], set()).add(event.get("content"))
        for check in self.CHECKS:
            assert lanes_by_check.get(check) == {11, 22, 33}, check

    def test_lane_diag_values_equal_one_lane_solves(self, configs, batched):
        # The probes read a lane's own columns of the batched sweeps, so
        # every diag.* event of a lane — keys and values, bit for bit —
        # equals the same content's one-lane solve.
        for cfg, content in zip(configs, [11, 22, 33]):
            lane = [e for e in batched if e.get("content") == content]
            assert {e["ev"] for e in lane} >= set(self.CHECKS)
            assert lane == self.diag_events([cfg], [content]), content

    def test_strict_numerics_failure_names_content(self):
        # A lane-tagged telemetry escalation must say which content
        # lane tripped the check, so a batched abort is actionable.
        from repro.core.best_response import _LaneTelemetry

        telemetry = SolverTelemetry.buffered()
        telemetry.strict_numerics = True
        lane = _LaneTelemetry(telemetry, content=33)
        with pytest.raises(StrictNumericsError, match="content 33"):
            lane.diag("unit.check", "error", value=1.0, message="boom")
        events = [
            e for e in telemetry.sink.events if e["ev"] == "diag.unit.check"
        ]
        assert events and events[0]["content"] == 33

    def test_zero_mass_strict_failure_names_content(self):
        configs = lane_configs()
        batch = build_batch_grid(configs)
        telemetry = SolverTelemetry.buffered()
        telemetry.strict_numerics = True
        fpk = BatchedFPKSolver(
            configs, batch, telemetry=telemetry, content_ids=[5, 6, 7]
        )
        density0 = batched_initial_density(batch, configs)
        density0[1] = 0.0
        with pytest.raises((StrictNumericsError, ValueError), match="content 6"):
            fpk.solve(np.full(batch.path_shape, 0.5), density0)
