"""Property-based tests for the core solver machinery."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.grid import BatchGrid
from repro.core.knapsack import KnapsackItem, solve_01_knapsack, solve_fractional_knapsack
from repro.core.operators import (
    KroneckerSum,
    donor_cell_bands,
    donor_cell_divergence,
    donor_cell_faces,
    zero_flux_bands,
)
from repro.core.policy import optimal_control

finite = dict(allow_nan=False, allow_infinity=False)


class TestOptimalControlProperties:
    @given(
        grad=st.floats(-1e4, 1e4, **finite),
        w5=st.floats(1.0, 1e4, **finite),
        w4=st.floats(0.0, 1e3, **finite),
        eta2=st.floats(0.0, 100.0, **finite),
    )
    @settings(max_examples=300, deadline=None)
    def test_always_feasible(self, grad, w5, w4, eta2):
        x = optimal_control(grad, 100.0, 1.0, w4, w5, eta2, 20.0)
        assert 0.0 <= float(x) <= 1.0

    @given(
        g1=st.floats(-100.0, 100.0, **finite),
        g2=st.floats(-100.0, 100.0, **finite),
    )
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_gradient(self, g1, g2):
        lo, hi = sorted((g1, g2))
        x_lo = float(optimal_control(lo, 100.0, 1.0, 2.0, 90.0, 10.0, 20.0))
        x_hi = float(optimal_control(hi, 100.0, 1.0, 2.0, 90.0, 10.0, 20.0))
        assert x_lo >= x_hi - 1e-12


class TestKnapsackProperties:
    items_strategy = st.lists(
        st.tuples(st.floats(0.5, 10.0, **finite), st.floats(0.0, 10.0, **finite)),
        min_size=1,
        max_size=7,
    )

    @given(raw=items_strategy, capacity=st.floats(0.0, 30.0, **finite))
    @settings(max_examples=150, deadline=None)
    def test_fractional_feasible_and_dominates_01(self, raw, capacity):
        items = [
            KnapsackItem(content_id=i, weight=w, value=v)
            for i, (w, v) in enumerate(raw)
        ]
        fractions = solve_fractional_knapsack(items, capacity)
        used = sum(fractions[it.content_id] * it.weight for it in items)
        assert used <= capacity + 1e-9
        assert all(0.0 <= f <= 1.0 for f in fractions.values())
        frac_value = sum(fractions[it.content_id] * it.value for it in items)
        _, value01 = solve_01_knapsack(items, capacity, resolution=0.5)
        assert frac_value >= value01 - 1e-9

    @given(raw=items_strategy, capacity=st.floats(1.0, 30.0, **finite))
    @settings(max_examples=60, deadline=None)
    def test_01_never_beats_brute_force(self, raw, capacity):
        items = [
            KnapsackItem(content_id=i, weight=w, value=v)
            for i, (w, v) in enumerate(raw)
        ]
        _, dp_value = solve_01_knapsack(items, capacity, resolution=0.25)
        # Brute force on the *rounded* weights (what the DP solves).
        best = 0.0
        rounded = [max(1, int(np.ceil(it.weight / 0.25))) * 0.25 for it in items]
        slots = int(np.floor(capacity / 0.25)) * 0.25
        for r in range(len(items) + 1):
            for combo in itertools.combinations(range(len(items)), r):
                weight = sum(rounded[i] for i in combo)
                if weight <= slots + 1e-9:
                    best = max(best, sum(items[i].value for i in combo))
        assert dp_value == pytest.approx(best, abs=1e-9)


class TestConservationProperties:
    @given(
        seed=st.integers(0, 10_000),
        n_lanes=st.integers(1, 4),
        spacing=st.floats(0.1, 5.0, **finite),
        diffusivity=st.floats(0.0, 10.0, **finite),
    )
    @settings(max_examples=100, deadline=None)
    def test_operators_conserve_mass(self, seed, n_lanes, spacing, diffusivity):
        # Every lane of the stack conserves its own mass: the q
        # donor-cell stencil with per-lane spacings drawn around the
        # shared one, and the assembled fading advection and two
        # diffusions the sweeps apply.
        rng = np.random.default_rng(seed)
        density = rng.uniform(0.0, 1.0, size=(n_lanes, 5, 8))
        velocity = rng.uniform(-3.0, 3.0, size=(n_lanes, 5, 8))
        spacings = spacing * rng.uniform(0.5, 2.0, size=n_lanes)
        adv = donor_cell_divergence(density, donor_cell_faces(velocity), spacings)
        fixed = KroneckerSum(
            donor_cell_bands(donor_cell_faces(velocity[0, :, 0]), spacing)
            + diffusivity / spacing**2 * zero_flux_bands(5),
            zero_flux_bands(8),
        )
        linear = fixed.add_to(
            np.zeros(density.shape), density, diffusivity / spacings**2
        )
        for update in (adv, linear):
            assert np.all(np.abs(update.sum(axis=(1, 2))) < 1e-10)


class TestGridProperties:
    @given(
        a=st.floats(-5.0, 5.0, **finite),
        b=st.floats(-5.0, 5.0, **finite),
        c=st.floats(-5.0, 5.0, **finite),
    )
    @settings(max_examples=100, deadline=None)
    def test_integration_linear_in_field(self, a, b, c):
        grid = BatchGrid.regular(1.0, 4, (4.0, 6.0), 5, 100.0, 9)
        f = grid.h_mesh()
        g = grid.q_mesh()
        combined = grid.integrate(a * f + b * g + c)
        separate = a * grid.integrate(f) + b * grid.integrate(g) + c * grid.integrate(
            np.ones(grid.shape)
        )
        assert combined == pytest.approx(separate, rel=1e-9, abs=1e-9)
