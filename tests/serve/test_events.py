"""Tests for request-event generation on the canned-scenario path.

Canned workload scenarios replay through the ``fixed`` stream
(:func:`repro.serve.workload_stream`); these pin its per-EDP request
events — keying, slot geometry, policy-draw isolation, expected
volume — and the EDP partition replay shards are cut by.
"""

import pickle

import numpy as np
import pytest

from repro.content.timeliness import TimelinessModel
from repro.runtime import partition_indices
from repro.serve import FixedPopularityStream, make_stream


def make_source(n_edps=4, n_slots=6, seed=5, rate=20.0):
    return make_stream(
        "fixed",
        shares=(0.5, 0.3, 0.2),
        rate_per_edp=rate,
        timeliness=TimelinessModel(l_max=3.0),
        n_slots=n_slots,
        dt=0.1,
        seed=seed,
        n_edps=n_edps,
    )


def counts(stream, edp):
    return stream.materialize(edp).counts.tolist()


class TestSeedSequences:
    def test_children_reproducible(self):
        a, b = make_source(seed=7), make_source(seed=7)
        for edp in range(4):
            assert a.request_rng(edp, 3).random(4).tobytes() == (
                b.request_rng(edp, 3).random(4).tobytes()
            )

    def test_children_distinct(self):
        stream = make_source(n_edps=5, seed=7)
        draws = {stream.request_rng(edp, 0).random(4).tobytes() for edp in range(5)}
        assert len(draws) == 5

    def test_rejects_bad_population(self):
        with pytest.raises(ValueError, match="EDP"):
            make_source(n_edps=0)


class TestTraceSource:
    def test_slot_times_are_midpoints(self):
        source = make_source(n_slots=4)
        assert np.allclose(source.slot_times(), [0.05, 0.15, 0.25, 0.35])
        assert source.horizon == pytest.approx(0.4)

    def test_stream_covers_all_slots(self):
        chunk = make_source(n_slots=6).materialize(0)
        assert chunk.start_slot == 0
        assert chunk.counts.shape == (6, 3)

    def test_stream_reproducible_per_edp(self):
        source = make_source()
        assert counts(source, 2) == counts(source, 2)

    def test_streams_differ_across_edps(self):
        source = make_source(rate=100.0)
        assert counts(source, 0) != counts(source, 1)

    def test_request_stream_independent_of_policy_draws(self):
        """Burning policy draws must not perturb the request trace."""
        source = make_source()
        baseline = counts(source, 1)
        interleaved = []
        for slot in range(source.n_slots):
            source.policy_rng(1, slot).random(5)  # policy decisions draw elsewhere
            interleaved.append(source.sample_slot(1, slot)[0].tolist())
        assert interleaved == baseline

    def test_expected_total_requests(self):
        source = make_source(n_edps=4, n_slots=6, rate=20.0)
        # 20 req/unit-time x 0.6 units x 4 EDPs
        assert source.expected_measured_requests() == pytest.approx(48.0)
        # Warmup slots are served but never reported.
        warm = make_stream(
            "fixed", shares=(1.0,), rate_per_edp=20.0, n_slots=6, dt=0.1,
            n_edps=4, warmup_slots=2,
        )
        assert warm.expected_measured_requests() == pytest.approx(32.0)

    def test_pickle_roundtrip(self):
        source = make_source()
        clone = pickle.loads(pickle.dumps(source))
        assert counts(source, 0) == counts(clone, 0)

    def test_validation(self):
        with pytest.raises(ValueError, match="shares"):
            FixedPopularityStream(
                shares=(),
                rate_per_edp=1.0,
                n_slots=2,
                dt=0.1,
                n_edps=1,
            )
        with pytest.raises(IndexError, match="out of range"):
            make_source(n_edps=3).request_rng(3, 0)


class TestPartition:
    def test_covers_every_edp_once(self):
        shards = partition_indices(10, 3)
        flat = [e for shard in shards for e in shard]
        assert flat == list(range(10))

    def test_near_even_sizes(self):
        sizes = [len(s) for s in partition_indices(10, 3)]
        assert max(sizes) - min(sizes) <= 1

    def test_more_shards_than_edps_collapses(self):
        shards = partition_indices(3, 8)
        assert len(shards) == 3
        assert all(len(s) == 1 for s in shards)

    def test_single_shard(self):
        assert partition_indices(4, 1) == [(0, 1, 2, 3)]

    def test_zero_edps_yield_zero_shards(self):
        # An empty population shards to an empty plan — the engine
        # still refuses to *run* with no EDPs, but partitioning is
        # well defined (the fig-sweep runners rely on this).
        assert partition_indices(0, 2) == []

    def test_validation(self):
        with pytest.raises(ValueError, match="negative"):
            partition_indices(-1, 2)
        with pytest.raises(ValueError, match="group"):
            partition_indices(4, 0)
