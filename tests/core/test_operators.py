"""Tests for the finite-difference operators.

The fixed stencils are checked as the sweeps use them: their bands
assembled into a :class:`KroneckerSum` and applied to ``(B, n_h, n_q)``
lane stacks, the fading-axis part shared by the lanes and the
cache-axis part scaled per lane.  The ``q`` donor-cell stencil is
checked in the two parts the FPK sweep calls, ``donor_cell_faces``
then ``donor_cell_divergence``.  Every analytic check runs on a single
lane (B=1) and on a stack of lanes (B>1).
"""

import numpy as np
import pytest

from repro.core.operators import (
    KroneckerSum,
    central_gradient,
    donor_cell_bands,
    donor_cell_divergence,
    donor_cell_faces,
    neumann_bands,
    stable_time_step,
    upwind_bands,
    zero_flux_bands,
)
from assembled import along_h, along_q, apply


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
            # Lane b is the linear field with its q spacing stretched by
            # (b + 1): the slope per unit q shrinks by the same factor.
            field = lanes(linear_field(), n_lanes)
            spacing = 1.5 * np.arange(1, n_lanes + 1)
            for vel in (+1.0, -1.0):
                gh = along_h(upwind_bands(np.full(6, vel), 0.5), field)
                gq = along_q(upwind_bands(np.full(8, vel), 1.0), field, 1.0 / spacing)
                assert np.allclose(gh, 2.0)
                for b in range(n_lanes):
                    assert np.allclose(gq[b], 3.0 / (b + 1))

    def test_upwind_selects_direction(self):
        for n_lanes in (1, 3):
            # A kinked field distinguishes forward from backward differences.
            field = np.zeros((n_lanes, 1, 5))
            field[:, 0] = [0.0, 0.0, 1.0, 0.0, 0.0]
            ones = np.ones(n_lanes)
            back = along_q(upwind_bands(np.ones(5), 1.0), field, ones)
            fwd = along_q(upwind_bands(-np.ones(5), 1.0), field, ones)
            # At the peak: backward difference sees +1, forward sees -1.
            assert np.all(back[:, 0, 2] == pytest.approx(1.0))
            assert np.all(fwd[:, 0, 2] == pytest.approx(-1.0))

    def test_second_derivative_on_quadratic(self):
        for n_lanes in (1, 3):
            q = np.arange(9)[None, :] * 2.0
            field = lanes(np.tile(q**2, (3, 1)), n_lanes)
            lap = along_q(neumann_bands(9), field, np.full(n_lanes, 1.0 / 4.0))
            # Interior exactly 2; boundaries use the Neumann closure.
            assert np.allclose(lap[:, :, 1:-1], 2.0)
            # Along h the same bands act on each cache column.
            lap_h = along_h(neumann_bands(3) / 2.0**2, np.swapaxes(field[:, :, :3], 1, 2))
            assert np.allclose(lap_h[:, 1:-1, :], 2.0)

    def test_rejects_bad_axis(self):
        with pytest.raises(ValueError, match="axis"):
            central_gradient(np.ones((3, 3)), 1.0, axis=2)

    def test_rejects_bad_spacing(self):
        with pytest.raises(ValueError, match="spacing"):
            central_gradient(np.ones((3, 3)), 0.0, axis=0)
        with pytest.raises(ValueError, match="spacing"):
            upwind_bands(np.ones(3), 0.0)
        with pytest.raises(ValueError, match="spacing"):
            donor_cell_bands(donor_cell_faces(np.ones(3)), -1.0)

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError, match="2-D"):
            central_gradient(np.ones(5), 1.0, axis=0)
        with pytest.raises(ValueError, match="3-D"):
            donor_cell_divergence(np.ones((3, 3)), donor_cell_faces(np.ones(3)), 1.0)


class TestConservativeOperators:
    def test_advection_conserves_mass(self):
        for n_lanes in (1, 4):
            rng = np.random.default_rng(0)
            density = rng.uniform(0, 1, (n_lanes, 6, 10))
            velocity = rng.uniform(-2, 2, (n_lanes, 6, 10))
            spacing = rng.uniform(0.3, 1.2, n_lanes)
            faces_h = donor_cell_faces(velocity[0, :, 0])
            updates = (
                along_h(donor_cell_bands(faces_h, 0.7), density),
                donor_cell_divergence(density, donor_cell_faces(velocity), spacing),
            )
            for update in updates:
                assert np.all(np.abs(update.sum(axis=(1, 2))) < 1e-12)

    def test_advection_moves_mass_downstream(self):
        for n_lanes in (1, 3):
            density = np.zeros((n_lanes, 1, 9))
            density[:, 0, 4] = 1.0
            faces = donor_cell_faces(np.ones(density.shape))
            update = donor_cell_divergence(density, faces, 1.0)
            # Positive velocity drains cell 4 into cell 5.
            assert np.all(update[:, 0, 4] < 0)
            assert np.all(update[:, 0, 5] > 0)
            assert np.all(update[:, 0, 3] == 0.0)
            # The same along h, assembled.
            column = np.swapaxes(density, 1, 2)
            update_h = along_h(donor_cell_bands(donor_cell_faces(np.ones(9)), 1.0), column)
            assert np.all(update_h[:, 4, 0] < 0)
            assert np.all(update_h[:, 5, 0] > 0)
            assert np.all(update_h[:, 3, 0] == 0.0)

    def test_diffusion_conserves_mass(self):
        for n_lanes in (1, 4):
            rng = np.random.default_rng(1)
            density = rng.uniform(0, 1, (n_lanes, 6, 10))
            spacing = rng.uniform(0.3, 1.2, n_lanes)
            op = KroneckerSum(0.5 / 0.7**2 * zero_flux_bands(6), zero_flux_bands(10))
            update = apply(op, density, 0.5 / spacing**2)
            assert np.all(np.abs(update.sum(axis=(1, 2))) < 1e-12)

    def test_diffusion_flattens_peak(self):
        for n_lanes in (1, 3):
            density = np.zeros((n_lanes, 1, 9))
            density[:, 0, 4] = 1.0
            update = along_q(zero_flux_bands(9), density, np.ones(n_lanes))
            assert np.all(update[:, 0, 4] < 0)
            assert np.all(update[:, 0, 3] > 0) and np.all(update[:, 0, 5] > 0)

    def test_diffusion_zero_diffusivity_is_noop(self):
        density = np.random.default_rng(2).uniform(0, 1, (3, 4, 4))
        op = KroneckerSum(0.0 * zero_flux_bands(4), zero_flux_bands(4))
        assert np.allclose(apply(op, density, np.zeros(3)), 0.0)

    def test_adds_into_c_ordered_out_only(self):
        op = KroneckerSum(zero_flux_bands(4), zero_flux_bands(5))
        density = np.random.default_rng(3).uniform(0, 1, (3, 4, 5))
        out = np.ones_like(density)
        assert op.add_to(out, density, np.ones(3)) is out
        assert np.allclose(out - 1.0, apply(op, density, np.ones(3)))
        lane_fastest = np.zeros((5, 4, 3)).T
        for bad in (lane_fastest, np.zeros((3, 4, 4))):
            with pytest.raises(ValueError, match="C-ordered"):
                op.add_to(bad, density, np.ones(3))

    def test_validation(self):
        faces = donor_cell_faces(np.ones((1, 2, 2)))
        with pytest.raises(ValueError, match="spacing"):
            donor_cell_divergence(np.ones((1, 2, 2)), faces, 0.0)
        with pytest.raises(ValueError, match="per-lane spacing"):
            donor_cell_divergence(np.ones((2, 2, 2)), faces, [1.0])
        with pytest.raises(ValueError, match="positive"):
            donor_cell_divergence(np.ones((2, 2, 2)), faces, [1.0, -1.0])


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
