"""Property suite for the serving miss path against independent oracles.

The MFG decision makers read their tables from Python row lists and
pick eviction victims with a lowest-score scan plus a tie-break, and
:class:`~repro.serve.cache.EdgeCache` keeps a running occupancy total.
Each is checked against the plain formulation it replaces, computed
here from the numpy tables and a fresh sum:

* **Victim** — ``min(cache, key=(score[slot, k], last_used, k))`` for
  the single-cache adapter and the network strategy alike, with scores
  and last-use times drawn from a few values so that ties are common.
* **Admit** — the score-guarded singleton rule on the numpy tables,
  consuming the same policy draws.
* **Refresh** — ``age > (1 - rate) * update_period``.
* **Occupancy** — after any store/evict sequence, ``used_mb`` is the
  left-to-right float sum of the surviving sizes in insertion order,
  bit for bit, and ``has_room`` agrees with it.
"""

import functools
import operator

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.cache import EdgeCache
from repro.serve.net.strategies import MFGNetworkStrategy
from repro.serve.policies import MFGPolicyAdapter

N_SLOTS = 3
N_CONTENTS = 8

# Few distinct values, so equal scores and equal last-use times are
# frequent and the tie-breaks carry the decision.
SCORE_VALUES = (0.0, 0.25, 0.5, 1.0)
TIME_VALUES = (0.0, 1.5, 3.0)
SIZE_VALUES = (10.0, 25.0, 40.0)


def fresh_sum(cache):
    """Occupancy recomputed from scratch, left to right."""
    return functools.reduce(operator.add, (e.size_mb for e in cache), 0.0)


def oracle_victim(score, slot, cache):
    return min(
        cache, key=lambda e: (score[slot, e.content], e.last_used, e.content)
    ).content


def oracle_admit(rate, score, sizes, slot, content, count, cache, rng):
    if count > 1:
        return True
    if not bool(rng.random() < rate[slot, content]):
        return False
    if sizes[content] <= cache.capacity_mb - fresh_sum(cache) + 1e-9:
        return True
    weakest = min(score[slot, e.content] for e in cache)
    return bool(score[slot, content] > weakest)


@st.composite
def scenarios(draw):
    """Decision tables plus a non-empty cache with tied scores and times."""
    n_cells = N_SLOTS * N_CONTENTS
    score = np.array(
        draw(st.lists(st.sampled_from(SCORE_VALUES),
                      min_size=n_cells, max_size=n_cells))
    ).reshape(N_SLOTS, N_CONTENTS)
    rate = np.array(
        draw(st.lists(st.sampled_from((0.0, 0.3, 0.7, 1.0)),
                      min_size=n_cells, max_size=n_cells))
    ).reshape(N_SLOTS, N_CONTENTS)
    sizes = tuple(
        draw(st.lists(st.sampled_from(SIZE_VALUES),
                      min_size=N_CONTENTS, max_size=N_CONTENTS))
    )
    periods = tuple(
        draw(st.lists(st.sampled_from((0.5, 1.0, 2.0)),
                      min_size=N_CONTENTS, max_size=N_CONTENTS))
    )
    cached = draw(
        st.lists(st.integers(0, N_CONTENTS - 1), min_size=1,
                 max_size=N_CONTENTS - 1, unique=True)
    )
    spare = draw(st.sampled_from((0.0, 5.0, 30.0, 100.0)))
    cache = EdgeCache(capacity_mb=sum(sizes[k] for k in cached) + spare)
    for k in cached:
        entry = cache.store(k, sizes[k], t=0.0)
        entry.last_used = draw(st.sampled_from(TIME_VALUES))
    adapter = MFGPolicyAdapter(
        rate=rate, score=score, update_periods=periods, sizes_mb=sizes
    )
    return adapter, cache


class TestVictim:
    @given(scenario=scenarios())
    @settings(max_examples=200, deadline=None)
    def test_adapter_victim_matches_oracle(self, scenario):
        adapter, cache = scenario
        for slot in range(N_SLOTS):
            assert adapter.victim(slot, cache, None) == oracle_victim(
                adapter.score, slot, cache
            )

    @given(scenario=scenarios())
    @settings(max_examples=200, deadline=None)
    def test_network_victim_matches_oracle(self, scenario):
        adapter, cache = scenario
        strategy = MFGNetworkStrategy(rate=adapter.rate, score=adapter.score)
        for slot in range(N_SLOTS):
            assert strategy.victim(slot, cache, None) == oracle_victim(
                strategy.score, slot, cache
            )

    @given(scenario=scenarios())
    @settings(max_examples=100, deadline=None)
    def test_eviction_sequence_matches_oracle(self, scenario):
        # Drain the cache victim by victim: every intermediate cache
        # (and its re-summed occupancy) must give the oracle's victim.
        adapter, cache = scenario
        while len(cache):
            expected = oracle_victim(adapter.score, 0, cache)
            assert adapter.victim(0, cache, None) == expected
            cache.evict(expected)
            assert cache.used_mb == fresh_sum(cache)


class TestAdmitAndRefresh:
    @given(scenario=scenarios(), seed=st.integers(0, 2**16),
           count=st.sampled_from((1, 1, 2)))
    @settings(max_examples=200, deadline=None)
    def test_admit_matches_oracle(self, scenario, seed, count):
        adapter, cache = scenario
        for slot in range(N_SLOTS):
            for content in range(N_CONTENTS):
                if content in cache:
                    continue
                rng = np.random.default_rng(seed)
                oracle_rng = np.random.default_rng(seed)
                got = adapter.admit(slot, content, count, cache, rng)
                want = oracle_admit(
                    adapter.rate, adapter.score, adapter.sizes_mb,
                    slot, content, count, cache, oracle_rng,
                )
                assert got is want
                # Both consumed the same number of policy draws.
                assert rng.random() == oracle_rng.random()

    @given(scenario=scenarios(),
           age=st.floats(0.0, 3.0, allow_nan=False, exclude_min=True))
    @settings(max_examples=200, deadline=None)
    def test_refresh_due_matches_oracle(self, scenario, age):
        adapter, _ = scenario
        rate = np.clip(adapter.rate, 0.0, 1.0)
        for slot in range(N_SLOTS):
            for content in range(N_CONTENTS):
                slack = (1.0 - rate[slot, content]) * adapter.update_periods[content]
                assert adapter.refresh_due(slot, content, age) == bool(age > slack)


operations = st.lists(
    st.tuples(
        st.booleans(),
        st.integers(0, 11),
        st.floats(0.01, 60.0, allow_nan=False, allow_infinity=False),
    ),
    max_size=60,
)


class TestOccupancy:
    @given(ops=operations, capacity=st.floats(50.0, 400.0))
    @settings(max_examples=300, deadline=None)
    def test_used_mb_is_a_fresh_left_to_right_sum(self, ops, capacity):
        cache = EdgeCache(capacity_mb=capacity)
        for is_store, content, size in ops:
            if is_store and content not in cache:
                fits = size <= capacity - fresh_sum(cache) + 1e-9
                assert cache.has_room(size) == fits
                if fits:
                    cache.store(content, size, t=0.0)
            elif not is_store and content in cache:
                cache.evict(content)
            assert cache.used_mb.hex() == fresh_sum(cache).hex()
            assert cache.free_mb == capacity - fresh_sum(cache)
