"""Tests for the serving policies."""

import pickle

import numpy as np
import pytest

from repro.serve import (
    EdgeCache,
    LFUPolicy,
    LRUPolicy,
    MFGPolicyAdapter,
    MostPopularPolicy,
    POLICY_NAMES,
    RandomEvictionPolicy,
    make_policy,
)


def filled_cache(times=(0.1, 0.3, 0.2)):
    """Three 100 MB copies with controllable last-used times."""
    cache = EdgeCache(capacity_mb=400.0)
    for k, t in enumerate(times):
        entry = cache.store(k, 100.0, t=0.0)
        entry.last_used = t
    return cache


class TestClassicalEviction:
    def test_lru_victim(self):
        cache = filled_cache(times=(0.1, 0.3, 0.2))
        assert LRUPolicy().victim(0, cache, None) == 0

    def test_lru_tie_breaks_by_content(self):
        cache = filled_cache(times=(0.2, 0.2, 0.5))
        assert LRUPolicy().victim(0, cache, None) == 0

    def test_lfu_victim(self):
        cache = filled_cache()
        cache.lookup(0).hits = 5
        cache.lookup(1).hits = 1
        cache.lookup(2).hits = 3
        assert LFUPolicy().victim(0, cache, None) == 1

    def test_random_victim_follows_rng(self):
        cache = filled_cache()
        rng1 = np.random.default_rng(0)
        rng2 = np.random.default_rng(0)
        picks1 = [RandomEvictionPolicy().victim(0, cache, rng1) for _ in range(10)]
        picks2 = [RandomEvictionPolicy().victim(0, cache, rng2) for _ in range(10)]
        assert picks1 == picks2
        assert set(picks1) <= {0, 1, 2}

    def test_default_admission_is_open(self):
        cache = filled_cache()
        assert LRUPolicy().admit(0, 9, 1, cache, None)
        assert not LRUPolicy().refresh_due(0, 0, age=99.0)


class TestMostPopular:
    def test_placement_greedy_by_popularity(self):
        policy = MostPopularPolicy(
            sizes_mb=(100.0, 100.0, 100.0, 100.0),
            popularity=(0.1, 0.4, 0.3, 0.2),
        )
        assert list(policy.placement(250.0)) == [1, 2]

    def test_placement_skips_oversized(self):
        policy = MostPopularPolicy(
            sizes_mb=(300.0, 100.0), popularity=(0.9, 0.1)
        )
        assert list(policy.placement(250.0)) == [1]

    def test_warm_fills_cache_and_reports_bytes(self):
        policy = MostPopularPolicy(
            sizes_mb=(100.0, 100.0, 100.0), popularity=(0.2, 0.5, 0.3)
        )
        cache = EdgeCache(capacity_mb=250.0)
        loaded = policy.warm(cache, t=0.0)
        assert loaded == pytest.approx(200.0)
        assert 1 in cache and 2 in cache and 0 not in cache

    def test_static_placement_never_admits(self):
        policy = MostPopularPolicy(sizes_mb=(100.0,), popularity=(1.0,))
        assert not policy.admit(0, 0, 5, EdgeCache(capacity_mb=100.0), None)
        with pytest.raises(RuntimeError, match="static"):
            policy.victim(0, EdgeCache(capacity_mb=100.0), None)

    def test_validation(self):
        with pytest.raises(ValueError, match="sizes"):
            MostPopularPolicy(sizes_mb=(1.0,), popularity=(0.5, 0.5))


def make_adapter(rate, score, periods=None, sizes=None):
    rate = np.asarray(rate, dtype=float)
    k = rate.shape[1]
    return MFGPolicyAdapter(
        rate=rate,
        score=np.asarray(score, dtype=float),
        update_periods=periods if periods is not None else (1.0,) * k,
        sizes_mb=sizes if sizes is not None else (100.0,) * k,
    )


class TestMFGAdapter:
    def test_burst_always_admitted(self):
        adapter = make_adapter([[0.0, 0.0]], [[0.5, 0.5]])
        cache = EdgeCache(capacity_mb=100.0)
        assert adapter.admit(0, 0, 2, cache, np.random.default_rng(0))

    def test_singleton_follows_rate(self):
        always = make_adapter([[1.0]], [[0.5]])
        never = make_adapter([[0.0]], [[0.5]])
        cache = EdgeCache(capacity_mb=100.0)
        rng = np.random.default_rng(0)
        assert always.admit(0, 0, 1, cache, rng)
        assert not never.admit(0, 0, 1, cache, rng)

    def test_singleton_score_guard(self):
        # Full cache; incoming content 1 scores below the cached copy.
        adapter = make_adapter([[1.0, 1.0]], [[0.8, 0.2]])
        cache = EdgeCache(capacity_mb=100.0)
        cache.store(0, 100.0, t=0.0)
        rng = np.random.default_rng(0)
        assert not adapter.admit(0, 1, 1, cache, rng)
        # Swap the scores and the same request is admitted.
        flipped = make_adapter([[1.0, 1.0]], [[0.2, 0.8]])
        assert flipped.admit(0, 1, 1, cache, rng)

    def test_victim_is_lowest_score(self):
        adapter = make_adapter([[1.0, 1.0, 1.0]], [[0.5, 0.1, 0.9]])
        cache = EdgeCache(capacity_mb=400.0)
        for k in range(3):
            cache.store(k, 100.0, t=0.0)
        assert adapter.victim(0, cache, None) == 1

    def test_refresh_schedule_tightens_with_rate(self):
        eager = make_adapter([[0.9]], [[0.5]], periods=(1.0,))
        lazy = make_adapter([[0.1]], [[0.5]], periods=(1.0,))
        assert eager.refresh_due(0, 0, age=0.2)       # slack 0.1
        assert not lazy.refresh_due(0, 0, age=0.2)    # slack 0.9

    def test_pickle_drops_and_rebuilds_rows(self):
        adapter = make_adapter([[0.9, 0.1]], [[0.8, 0.2]])
        assert "_score_rows" not in adapter.__getstate__()
        clone = pickle.loads(pickle.dumps(adapter))
        assert clone._score_rows == [[0.8, 0.2]]
        cache = EdgeCache(capacity_mb=100.0)
        cache.store(0, 100.0, t=0.0)
        rng1, rng2 = np.random.default_rng(1), np.random.default_rng(1)
        assert clone.admit(0, 1, 1, cache, rng1) == adapter.admit(0, 1, 1, cache, rng2)
        assert clone.refresh_due(0, 1, 0.95) == adapter.refresh_due(0, 1, 0.95)

    def test_validation(self):
        with pytest.raises(ValueError, match="matching"):
            make_adapter([[0.5]], [[0.5, 0.5]])
        with pytest.raises(ValueError, match="update periods"):
            make_adapter([[0.5, 0.5]], [[0.5, 0.5]], periods=(1.0,))
        with pytest.raises(ValueError, match="sizes"):
            make_adapter([[0.5, 0.5]], [[0.5, 0.5]], sizes=(100.0,))
        with pytest.raises(ValueError, match="0, 1"):
            make_adapter([[1.7]], [[0.5]])


class TestFromEquilibria:
    def test_tables_cover_all_slots_and_contents(self, engine, equilibria):
        slot_times = engine.stream.slot_times()
        adapter = MFGPolicyAdapter.from_equilibria(
            equilibria,
            sizes_mb=engine.sizes_mb,
            update_periods=engine.update_periods,
            slot_times=slot_times,
            horizon=engine.stream.horizon,
        )
        k = len(engine.sizes_mb)
        assert adapter.rate.shape == (len(slot_times), k)
        assert adapter.score.shape == (len(slot_times), k)
        assert np.all(adapter.rate >= 0.0) and np.all(adapter.rate <= 1.0)
        assert np.all(adapter.score >= 0.0) and np.all(adapter.score <= 1.0)

    def test_default_horizon_is_the_last_slot_end(self, engine, equilibria):
        # Slot midpoints (i + 1/2) dt end at n dt; the default must land
        # there, not half a slot later.
        kwargs = dict(
            sizes_mb=engine.sizes_mb,
            update_periods=engine.update_periods,
            slot_times=engine.stream.slot_times(),
        )
        default = MFGPolicyAdapter.from_equilibria(equilibria, **kwargs)
        explicit = MFGPolicyAdapter.from_equilibria(
            equilibria, horizon=engine.stream.horizon, **kwargs
        )
        np.testing.assert_allclose(default.rate, explicit.rate, rtol=0, atol=1e-12)
        np.testing.assert_allclose(default.score, explicit.score, rtol=0, atol=1e-12)

    def test_default_horizon_single_slot(self, equilibria):
        k = len(equilibria)
        kwargs = dict(sizes_mb=(100.0,) * k, update_periods=(1.0,) * k)
        default = MFGPolicyAdapter.from_equilibria(
            equilibria, slot_times=[0.25], **kwargs
        )
        explicit = MFGPolicyAdapter.from_equilibria(
            equilibria, slot_times=[0.25], horizon=0.5, **kwargs
        )
        assert np.array_equal(default.rate, explicit.rate)
        assert np.array_equal(default.score, explicit.score)

    def test_missing_equilibrium_raises(self, engine, equilibria):
        partial = {k: v for k, v in equilibria.items() if k != 1}
        with pytest.raises(ValueError, match="contents \\[1\\]"):
            MFGPolicyAdapter.from_equilibria(
                partial,
                sizes_mb=engine.sizes_mb,
                update_periods=engine.update_periods,
                slot_times=engine.stream.slot_times(),
            )


class TestFactory:
    def test_names_resolve(self, engine, equilibria):
        for name in POLICY_NAMES:
            kwargs = {}
            if name == "mfg":
                kwargs = dict(
                    equilibria=equilibria,
                    update_periods=engine.update_periods,
                    slot_times=engine.stream.slot_times(),
                    horizon=engine.stream.horizon,
                )
            policy = make_policy(
                name,
                sizes_mb=engine.sizes_mb,
                popularity=engine.stream.popularity,
                **kwargs,
            )
            assert policy.name == name

    def test_aliases(self):
        assert make_policy("rr", sizes_mb=(1.0,), popularity=(1.0,)).name == "random"
        assert (
            make_policy("MPC", sizes_mb=(1.0,), popularity=(1.0,)).name
            == "most-popular"
        )

    def test_mfg_requires_equilibria(self):
        with pytest.raises(ValueError, match="equilibria"):
            make_policy("mfg", sizes_mb=(1.0,), popularity=(1.0,))

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown serving policy"):
            make_policy("fifo", sizes_mb=(1.0,), popularity=(1.0,))
