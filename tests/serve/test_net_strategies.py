"""Placement-strategy semantics: LCE, LCD, ProbCache, edge-only, MFG."""

import math

import numpy as np
import pytest

from repro.serve.cache import EdgeCache
from repro.serve.net.strategies import (
    STRATEGY_NAMES,
    EdgeOnlyStrategy,
    LCDStrategy,
    LCEStrategy,
    MFGNetworkStrategy,
    PlacementSite,
    ProbCacheStrategy,
    make_strategy,
)


def site(**overrides):
    base = dict(
        node=2, slot=0, content=1, hops_from_server=1, hops_to_receiver=2,
        path_len=3, downstream_index=1, is_edge=False, depth=2, max_depth=3,
        path_capacity=4.0, node_capacity=2.0,
    )
    base.update(overrides)
    return PlacementSite(**base)


RNG = np.random.default_rng(0)


class FixedDraw:
    """An RNG stand-in whose every uniform draw is ``value``."""

    def __init__(self, value):
        self.value = value

    def random(self):
        return self.value


class TestPlacementSite:
    def test_keyword_and_positional_construction_agree(self):
        # The replay builds sites positionally, so the order is API.
        assert PlacementSite._fields == (
            "node", "slot", "content", "hops_from_server",
            "hops_to_receiver", "path_len", "downstream_index", "is_edge",
            "depth", "max_depth", "path_capacity", "node_capacity",
        )
        positional = PlacementSite(2, 0, 1, 1, 2, 3, 1, False, 2, 3, 4.0, 2.0)
        assert positional == site()

    def test_fields_are_read_only(self):
        s = site()
        with pytest.raises(AttributeError):
            s.depth = 1



class TestClassical:
    def test_lce_always_places(self):
        assert LCEStrategy().should_place(site(), RNG)
        assert LCEStrategy().should_place(site(downstream_index=3), RNG)

    def test_lcd_places_only_first_downstream(self):
        strategy = LCDStrategy()
        assert strategy.should_place(site(downstream_index=1), RNG)
        assert not strategy.should_place(site(downstream_index=2), RNG)

    def test_edge_places_only_at_edge(self):
        strategy = EdgeOnlyStrategy()
        assert strategy.should_place(site(is_edge=True), RNG)
        assert not strategy.should_place(site(is_edge=False), RNG)

    def test_default_victim_is_lru(self):
        cache = EdgeCache(capacity_mb=100.0)
        cache.store(0, 20.0, t=5.0)
        cache.store(1, 20.0, t=1.0)
        cache.store(2, 20.0, t=3.0)
        assert LCEStrategy().victim(0, cache, RNG) == 1


class TestProbCache:
    def test_probability_formula(self):
        # p = N/(t_tw*c_v) * (x/L)^L; make it 1 to remove randomness.
        strategy = ProbCacheStrategy(t_tw=1.0)
        sure = site(path_capacity=8.0, node_capacity=2.0,
                    hops_from_server=3, path_len=3)
        assert strategy.should_place(sure, np.random.default_rng(1))

    def test_far_from_server_unlikely(self):
        strategy = ProbCacheStrategy(t_tw=10.0)
        rng = np.random.default_rng(2)
        rare = site(path_capacity=2.0, node_capacity=2.0,
                    hops_from_server=1, path_len=6)
        hits = sum(strategy.should_place(rare, rng) for _ in range(500))
        # p = 0.1 * (1/6)^6 ~ 2e-6: essentially never.
        assert hits == 0

    def test_zero_capacity_never_places(self):
        assert not ProbCacheStrategy().should_place(
            site(node_capacity=0.0), RNG
        )

    def test_bad_t_tw_raises(self):
        with pytest.raises(ValueError, match="t_tw"):
            ProbCacheStrategy(t_tw=0.0)


class TestMFGStrategy:
    def test_admission_scales_with_depth(self):
        strategy = MFGNetworkStrategy(
            rate=np.full((2, 3), 0.6), score=np.zeros((2, 3))
        )
        edge = strategy.admission_probability(site(depth=3, max_depth=3))
        upstream = strategy.admission_probability(site(depth=1, max_depth=3))
        assert edge == pytest.approx(0.6)
        assert upstream == pytest.approx(0.2)

    def test_zero_max_depth_uses_full_rate(self):
        strategy = MFGNetworkStrategy(
            rate=np.full((1, 1), 0.5), score=np.zeros((1, 1))
        )
        p = strategy.admission_probability(
            site(slot=0, content=0, depth=0, max_depth=0)
        )
        assert p == pytest.approx(0.5)

    def test_should_place_compares_the_admission_probability(self):
        rate = np.random.default_rng(3).random((4, 5))
        strategy = MFGNetworkStrategy(rate=rate, score=np.zeros((4, 5)))
        for slot, content, depth, max_depth in [
            (0, 0, 3, 3), (1, 4, 1, 3), (3, 2, 2, 7), (2, 1, 0, 0),
        ]:
            s = site(slot=slot, content=content, depth=depth,
                     max_depth=max_depth)
            p = strategy.admission_probability(s)
            # A draw of exactly p is refused; the next float below it
            # is admitted, so should_place compares against p itself.
            assert not strategy.should_place(s, FixedDraw(p))
            assert strategy.should_place(s, FixedDraw(math.nextafter(p, 0.0)))

    def test_victim_prefers_lowest_score(self):
        score = np.array([[0.9, 0.1, 0.5]])
        strategy = MFGNetworkStrategy(rate=np.zeros((1, 3)), score=score)
        cache = EdgeCache(capacity_mb=100.0)
        for k in range(3):
            cache.store(k, 20.0, t=float(k))
        assert strategy.victim(0, cache, RNG) == 1

    def test_table_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match="matching"):
            MFGNetworkStrategy(rate=np.zeros((2, 3)), score=np.zeros((3, 2)))

    def test_rate_out_of_range_raises(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            MFGNetworkStrategy(rate=np.full((1, 1), 1.5),
                               score=np.zeros((1, 1)))


class TestFactory:
    @pytest.mark.parametrize("name", ["lce", "lcd", "probcache", "edge"])
    def test_classical_names(self, name):
        assert make_strategy(name).name == name

    def test_edge_only_alias(self):
        assert make_strategy("edge-only").name == "edge"

    def test_mfg_without_equilibria_raises(self):
        with pytest.raises(ValueError, match="equilibria"):
            make_strategy("mfg")

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown placement strategy"):
            make_strategy("belady")

    def test_names_constant_covers_factory(self):
        for name in STRATEGY_NAMES:
            if name == "mfg":
                continue
            assert make_strategy(name).name == name
