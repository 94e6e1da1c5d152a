"""Property-based tests for convergence masking in the batched solver.

The convergence mask lets each content drop out of the batch at its
own iteration, so the per-content convergence *order* is an arbitrary
interleaving decided by the drawn parameters.  Whatever that order
turns out to be, every lane's final equilibrium must agree with a
one-lane solve of that lane alone — the mask may only change *when* a
lane stops, never *where* it stops.
"""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.best_response import BatchedBestResponseIterator, BestResponseIterator
from repro.core.parameters import MFGCPConfig

finite = dict(allow_nan=False, allow_infinity=False)

TOLERANCE = dict(rtol=1e-12, atol=1e-12)
"""The determinism-suite agreement bound.  The implementation promises
bit-identity (asserted in tests/core/test_batched_solver.py); the
property keeps the documented tolerance so hypothesis shrinking reports
genuine divergence rather than representation noise."""


def tiny_config(**overrides):
    base = replace(
        MFGCPConfig.fast(), n_time_steps=10, n_h=5, n_q=9, max_iterations=8
    )
    return replace(base, **overrides)


lane_spec = st.fixed_dictionaries(
    dict(
        content_size=st.floats(3.0, 24.0, **finite),
        popularity=st.floats(0.05, 1.0, **finite),
        timeliness=st.floats(1.0, 4.0, **finite),
        n_requests=st.floats(1.0, 60.0, **finite),
    )
)


class TestInterleavedConvergence:
    @given(specs=st.lists(lane_spec, min_size=2, max_size=4))
    @settings(max_examples=10, deadline=None)
    def test_any_interleaving_matches_solo_solves(self, specs):
        configs = [tiny_config(**spec) for spec in specs]
        batched = BatchedBestResponseIterator(configs).solve()
        for cfg, result in zip(configs, batched):
            solo = BestResponseIterator(cfg).solve()
            np.testing.assert_allclose(result.value, solo.value, **TOLERANCE)
            np.testing.assert_allclose(
                result.policy.table, solo.policy.table, **TOLERANCE
            )
            np.testing.assert_allclose(
                result.density, solo.density, **TOLERANCE
            )
            assert result.report.n_iterations == solo.report.n_iterations
            assert result.report.converged == solo.report.converged

    @given(
        specs=st.lists(lane_spec, min_size=3, max_size=3),
        order=st.permutations([0, 1, 2]),
    )
    @settings(max_examples=8, deadline=None)
    def test_lane_order_never_matters(self, specs, order):
        # Reordering the batch permutes the results and nothing else:
        # each lane's equilibrium is independent of its neighbours.
        configs = [tiny_config(**spec) for spec in specs]
        forward = BatchedBestResponseIterator(configs).solve()
        shuffled = BatchedBestResponseIterator(
            [configs[i] for i in order]
        ).solve()
        for slot, i in enumerate(order):
            assert np.array_equal(shuffled[slot].value, forward[i].value)
            assert np.array_equal(
                shuffled[slot].policy.table, forward[i].policy.table
            )
            assert np.array_equal(shuffled[slot].density, forward[i].density)
