"""Tests for the finite-difference operators.

The solver stencils act on ``(B, n_h, n_q)`` lane stacks; every
analytic check runs on a single lane (B=1) and on a stack of lanes
with different per-lane spacings (B>1).  The two advection stencils
are checked in the two parts the sweeps call: ``upwind_sources`` then
``upwind_difference``, and ``donor_cell_faces`` then
``donor_cell_divergence``.
"""

import numpy as np
import pytest

from repro.core.operators import (
    batched_conservative_diffusion,
    batched_second_derivative,
    central_gradient,
    donor_cell_divergence,
    donor_cell_faces,
    stable_time_step,
    upwind_difference,
    upwind_sources,
)


def linear_field(nh=6, nq=8, ah=2.0, aq=3.0):
    h = np.arange(nh)[:, None] * 0.5
    q = np.arange(nq)[None, :] * 1.5
    return ah * h + aq * q


def lanes(field, n_lanes):
    """``n_lanes`` copies of a 2-D field as a ``(B, n_h, n_q)`` stack."""
    return np.repeat(np.asarray(field, dtype=float)[None], n_lanes, axis=0)


class TestGradients:
    def test_central_exact_on_linear(self):
        field = linear_field()
        gh = central_gradient(field, 0.5, axis=0)
        gq = central_gradient(field, 1.5, axis=1)
        assert np.allclose(gh, 2.0)
        assert np.allclose(gq, 3.0)

    def test_upwind_exact_on_linear_both_signs(self):
        for n_lanes in (1, 3):
            # Lane b is the linear field with its h spacing stretched by
            # (b + 1): the slope per unit h shrinks by the same factor.
            field = lanes(linear_field(), n_lanes)
            spacing = 0.5 * np.arange(1, n_lanes + 1)
            for vel in (+1.0, -1.0):
                sources = upwind_sources(np.full(field.shape, vel), 6, axis=0)
                gh = upwind_difference(field, spacing, sources, axis=0)
                for b in range(n_lanes):
                    assert np.allclose(gh[b], 2.0 / (b + 1))

    def test_upwind_selects_direction(self):
        for n_lanes in (1, 3):
            # A kinked field distinguishes forward from backward differences.
            field = np.zeros((n_lanes, 1, 5))
            field[:, 0] = [0.0, 0.0, 1.0, 0.0, 0.0]
            ones = np.ones(field.shape)
            back = upwind_difference(
                field, 1.0, upwind_sources(ones, 5, axis=1), axis=1
            )
            fwd = upwind_difference(
                field, 1.0, upwind_sources(-ones, 5, axis=1), axis=1
            )
            # At the peak: backward difference sees +1, forward sees -1.
            assert np.all(back[:, 0, 2] == pytest.approx(1.0))
            assert np.all(fwd[:, 0, 2] == pytest.approx(-1.0))

    def test_second_derivative_on_quadratic(self):
        for n_lanes in (1, 3):
            q = np.arange(9)[None, :] * 2.0
            field = lanes(np.tile(q**2, (3, 1)), n_lanes)
            lap = batched_second_derivative(field, np.full(n_lanes, 2.0), axis=1)
            # Interior exactly 2; boundaries use the Neumann closure.
            assert np.allclose(lap[:, :, 1:-1], 2.0)

    def test_rejects_bad_axis(self):
        with pytest.raises(ValueError, match="axis"):
            central_gradient(np.ones((3, 3)), 1.0, axis=2)
        with pytest.raises(ValueError, match="axis"):
            upwind_sources(np.ones((1, 3, 3)), 3, axis=-1)
        with pytest.raises(ValueError, match="axis"):
            upwind_difference(
                np.ones((1, 3, 3)), 1.0, np.zeros((3, 1), int), axis=-1
            )

    def test_rejects_bad_spacing(self):
        with pytest.raises(ValueError, match="spacing"):
            central_gradient(np.ones((3, 3)), 0.0, axis=0)
        with pytest.raises(ValueError, match="spacing"):
            batched_second_derivative(np.ones((2, 3, 3)), [1.0, -1.0], axis=0)

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError, match="2-D"):
            central_gradient(np.ones(5), 1.0, axis=0)
        with pytest.raises(ValueError, match="3-D"):
            batched_second_derivative(np.ones((3, 3)), 1.0, axis=0)


class TestConservativeOperators:
    def test_advection_conserves_mass(self):
        for n_lanes in (1, 4):
            rng = np.random.default_rng(0)
            density = rng.uniform(0, 1, (n_lanes, 6, 10))
            velocity = rng.uniform(-2, 2, (n_lanes, 6, 10))
            spacing = rng.uniform(0.3, 1.2, n_lanes)
            for axis in (0, 1):
                faces = donor_cell_faces(velocity, axis=axis)
                update = donor_cell_divergence(density, faces, spacing, axis=axis)
                assert np.all(np.abs(update.sum(axis=(1, 2))) < 1e-12)

    def test_advection_moves_mass_downstream(self):
        for n_lanes in (1, 3):
            density = np.zeros((n_lanes, 1, 9))
            density[:, 0, 4] = 1.0
            faces = donor_cell_faces(np.ones(density.shape), axis=1)
            update = donor_cell_divergence(density, faces, 1.0, axis=1)
            # Positive velocity drains cell 4 into cell 5.
            assert np.all(update[:, 0, 4] < 0)
            assert np.all(update[:, 0, 5] > 0)
            assert np.all(update[:, 0, 3] == 0.0)

    def test_diffusion_conserves_mass(self):
        for n_lanes in (1, 4):
            rng = np.random.default_rng(1)
            density = rng.uniform(0, 1, (n_lanes, 6, 10))
            spacing = rng.uniform(0.3, 1.2, n_lanes)
            for axis in (0, 1):
                update = batched_conservative_diffusion(
                    density, 0.5, spacing, axis=axis
                )
                assert np.all(np.abs(update.sum(axis=(1, 2))) < 1e-12)

    def test_diffusion_flattens_peak(self):
        for n_lanes in (1, 3):
            density = np.zeros((n_lanes, 1, 9))
            density[:, 0, 4] = 1.0
            update = batched_conservative_diffusion(density, 1.0, 1.0, axis=1)
            assert np.all(update[:, 0, 4] < 0)
            assert np.all(update[:, 0, 3] > 0) and np.all(update[:, 0, 5] > 0)

    def test_diffusion_zero_diffusivity_is_noop(self):
        density = np.random.default_rng(2).uniform(0, 1, (3, 4, 4))
        assert np.allclose(
            batched_conservative_diffusion(density, 0.0, 1.0, 1), 0.0
        )

    def test_validation(self):
        faces = donor_cell_faces(np.ones((1, 2, 2)), 1)
        with pytest.raises(ValueError, match="spacing"):
            donor_cell_divergence(np.ones((1, 2, 2)), faces, 0.0, 1)
        with pytest.raises(ValueError, match="diffusivity"):
            batched_conservative_diffusion(np.ones((1, 2, 2)), -1.0, 1.0, 1)
        with pytest.raises(ValueError, match="axis"):
            donor_cell_faces(np.ones((1, 2, 2)), 3)
        with pytest.raises(ValueError, match="axis"):
            donor_cell_divergence(np.ones((1, 2, 2)), faces, 1.0, 3)
        with pytest.raises(ValueError, match="per-lane spacing"):
            batched_conservative_diffusion(np.ones((2, 2, 2)), 1.0, [1.0], 1)


class TestStableTimeStep:
    def test_advection_limit(self):
        dt = stable_time_step(2.0, 0.0, 0.5, 1.0, 0.0, 0.0, safety=1.0)
        assert dt == pytest.approx(0.25)

    def test_diffusion_limit(self):
        dt = stable_time_step(0.0, 0.0, 0.5, 1.0, 1.0, 0.0, safety=1.0)
        assert dt == pytest.approx(0.125)

    def test_most_restrictive_wins(self):
        dt = stable_time_step(10.0, 10.0, 0.1, 0.1, 1.0, 1.0, safety=1.0)
        assert dt == pytest.approx(min(0.01, 0.005))

    def test_no_dynamics_unbounded(self):
        assert stable_time_step(0.0, 0.0, 1.0, 1.0, 0.0, 0.0) == np.inf

    def test_validation(self):
        with pytest.raises(ValueError, match="spacings"):
            stable_time_step(1.0, 1.0, 0.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="safety"):
            stable_time_step(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, safety=0.0)
