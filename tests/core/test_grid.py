"""Tests for the discretised state space."""

import numpy as np
import pytest

from repro.core.grid import BatchGrid


def make(n_t=10, n_h=5, n_q=9, q_max=100.0):
    return BatchGrid.regular(
        horizon=1.0, n_time_steps=n_t, h_bounds=(4.0, 6.0), n_h=n_h,
        q_max=q_max, n_q=n_q,
    )


class TestConstruction:
    def test_regular_axes(self):
        grid = make()
        assert grid.n_lanes == 1
        assert grid.t[0] == 0.0 and grid.t[-1] == 1.0
        assert grid.h[0] == 4.0 and grid.h[-1] == 6.0
        assert grid.q[0, 0] == 0.0 and grid.q[0, -1] == 100.0

    def test_regular_lane_per_size(self):
        grid = make(q_max=[40.0, 100.0, 150.0])
        assert grid.n_lanes == 3
        assert grid.q[:, -1].tolist() == [40.0, 100.0, 150.0]
        # Each lane's axis is the one-lane grid's axis, bit for bit.
        for b, size in enumerate((40.0, 100.0, 150.0)):
            assert np.array_equal(grid.q[b], make(q_max=size).q[0])

    def test_shapes_and_spacings(self):
        grid = make(n_t=10, n_h=5, n_q=9)
        assert grid.n_t == 10
        assert grid.shape == (1, 5, 9)
        assert grid.path_shape == (1, 11, 5, 9)
        assert grid.dt == pytest.approx(0.1)
        assert grid.dh == pytest.approx(0.5)
        assert grid.dq == pytest.approx([12.5])

    def test_rejects_nonuniform_axes(self):
        with pytest.raises(ValueError, match="axis t must be uniform"):
            BatchGrid(
                t=np.array([0.0, 0.1, 0.3]),
                h=np.linspace(4, 6, 5),
                q=np.linspace(0, 100, 9)[None],
            )
        with pytest.raises(ValueError, match="axis h must be uniform"):
            BatchGrid(t=[0.0, 1.0, 2.0], h=[4.0, 4.5, 6.0], q=[[0.0, 1.0, 2.0]])

    def test_rejects_one_nonuniform_lane(self):
        with pytest.raises(ValueError, match="axis q must be uniform"):
            BatchGrid(
                t=[0.0, 1.0, 2.0],
                h=[4.0, 5.0, 6.0],
                q=[[0.0, 1.0, 2.0], [0.0, 1.0, 5.0]],
            )

    def test_rejects_decreasing_axis(self):
        with pytest.raises(ValueError, match="increasing"):
            BatchGrid(
                t=np.linspace(0, 1, 5),
                h=np.array([6.0, 4.0]),
                q=np.linspace(0, 100, 9)[None],
            )
        with pytest.raises(ValueError, match="axis t must be strictly increasing"):
            BatchGrid(t=[1.0, 0.5, 0.0], h=[4.0, 5.0], q=[[0.0, 1.0]])

    def test_rejects_bad_lane_shape(self):
        with pytest.raises(ValueError, match="n_lanes, n_q"):
            BatchGrid(t=[0.0, 1.0], h=[4.0, 5.0], q=[0.0, 1.0])

    def test_rejects_degenerate_bounds(self):
        with pytest.raises(ValueError, match="empty h range"):
            BatchGrid.regular(1.0, 5, (6.0, 4.0), 5, 100.0, 9)

    def test_rejects_bad_horizon(self):
        with pytest.raises(ValueError, match="horizon"):
            BatchGrid.regular(0.0, 5, (4.0, 6.0), 5, 100.0, 9)

    def test_rejects_bad_content_size(self):
        with pytest.raises(ValueError, match="q_max"):
            BatchGrid.regular(1.0, 5, (4.0, 6.0), 5, [100.0, 0.0], 9)


class TestMeshes:
    def test_h_mesh_constant_columns(self):
        mesh = make().h_mesh()[0]
        assert np.all(mesh[:, 0] == make().h)
        assert np.all(mesh[:, 0] == mesh[:, -1])

    def test_q_mesh_constant_rows(self):
        grid = make()
        mesh = grid.q_mesh()
        assert mesh.shape == grid.shape
        assert np.all(mesh[0, 0, :] == grid.q[0])
        assert np.all(mesh[0, 0, :] == mesh[0, -1, :])


class TestQuadrature:
    def test_weights_sum_to_area(self):
        grid = make()
        area = (grid.h[-1] - grid.h[0]) * (grid.q[0, -1] - grid.q[0, 0])
        assert grid.cell_weights().sum() == pytest.approx(area)

    def test_integrate_constant(self):
        grid = make()
        area = 2.0 * 100.0
        assert grid.integrate(np.ones(grid.shape)) == pytest.approx([area])

    def test_integrate_bilinear_exact(self):
        # Trapezoid integration is exact for bilinear functions.
        grid = make()
        field = grid.h_mesh() * grid.q_mesh()
        exact = (6.0**2 - 4.0**2) / 2 * (100.0**2) / 2
        assert grid.integrate(field) == pytest.approx([exact])

    def test_normalize_unit_mass(self):
        grid = make()
        density = grid.normalize(np.random.default_rng(0).uniform(0, 1, grid.shape))
        assert grid.integrate(density) == pytest.approx([1.0])

    def test_normalize_sheet_matches_normalize(self):
        grid = make()
        sheet = np.random.default_rng(2).uniform(0, 1, grid.shape[1:])
        assert np.array_equal(grid.normalize_sheet(sheet), grid.normalize(sheet[None])[0])

    def test_normalize_rejects_negative(self):
        grid = make()
        field = np.ones(grid.shape)
        field[0, 0, 0] = -1.0
        with pytest.raises(ValueError, match="non-negative"):
            grid.normalize(field)
        with pytest.raises(ValueError, match="non-negative"):
            grid.normalize_sheet(field[0])

    def test_normalize_rejects_zero_mass(self):
        grid = make()
        with pytest.raises(ValueError, match="zero mass"):
            grid.normalize(np.zeros(grid.shape))
        with pytest.raises(ValueError, match="zero mass"):
            grid.normalize_sheet(np.zeros(grid.shape[1:]))

    def test_expectation(self):
        grid = make()
        density = grid.normalize(np.ones(grid.shape))
        # E[q] under the uniform law is Q/2.
        assert grid.integrate(density * grid.q_mesh()) == pytest.approx(
            [50.0], rel=1e-6
        )

    def test_marginals_integrate_to_one(self):
        grid = make()
        density = grid.normalize(np.random.default_rng(1).uniform(0, 1, grid.shape))
        wq = np.full(grid.n_q, grid.dq[0])
        wq[0] = wq[-1] = grid.dq[0] / 2
        wh = np.full(grid.n_h, grid.dh)
        wh[0] = wh[-1] = grid.dh / 2
        mq = grid.marginal_q(density[0])
        mh = (density[0] * wq).sum(axis=1)  # integrating out q
        # Trapezoid over either marginal recovers total mass.
        assert (mq * wq).sum() == pytest.approx(1.0)
        assert (mh * wh).sum() == pytest.approx(1.0)

    def test_shape_validation(self):
        grid = make()
        with pytest.raises(ValueError, match="shape"):
            grid.integrate(np.ones((2, 2)))
        with pytest.raises(ValueError, match="shape"):
            grid.marginal_q(np.ones((2, 2)))
        with pytest.raises(ValueError, match="shape"):
            grid.normalize_sheet(np.ones(grid.shape))


class TestLookup:
    def test_nearest_time_index(self):
        grid = make(n_t=10)
        assert grid.nearest_time_index(0.0) == 0
        assert grid.nearest_time_index(0.51) == 5
        assert grid.nearest_time_index(2.0) == 10

    def test_locate_clips_to_grid(self):
        grid = make()
        assert grid.locate(4.0, 0.0) == (0, 0)
        assert grid.locate(100.0, 1e9) == (grid.n_h - 1, grid.n_q - 1)
        assert grid.locate(-100.0, -5.0) == (0, 0)

    def test_interp_weights_interior(self):
        grid = make(n_h=5, n_q=9)
        ih, iq, fh, fq = grid.interp_weights(4.25, 6.25)
        assert (ih, iq) == (0, 0)
        assert fh == pytest.approx(0.5)
        assert fq == pytest.approx(0.5)

    def test_interp_weights_clipped(self):
        grid = make()
        ih, iq, fh, fq = grid.interp_weights(1e9, 1e9)
        assert ih == grid.n_h - 2
        assert iq == grid.n_q - 2
        assert fh == pytest.approx(1.0, abs=1e-9)

    def test_interp_weights_vectorised_matches_scalar(self):
        grid = make()
        h = np.array([3.0, 4.3, 5.9, 7.0])
        q = np.array([-1.0, 17.0, 99.0, 1e3])
        ih, iq, fh, fq = grid.interp_weights(h, q)
        for k in range(h.size):
            assert (ih[k], iq[k], fh[k], fq[k]) == grid.interp_weights(h[k], q[k])

    def test_lookups_need_one_lane(self):
        grid = make(q_max=[50.0, 100.0])
        with pytest.raises(ValueError, match="one-lane"):
            grid.locate(5.0, 10.0)
        with pytest.raises(ValueError, match="one-lane"):
            grid.interp_weights(5.0, 10.0)
        with pytest.raises(ValueError, match="one-lane"):
            grid.marginal_q(np.ones(grid.shape[1:]))
