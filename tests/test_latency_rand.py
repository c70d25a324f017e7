"""Tests for the latency model and the random-stream utilities."""

from __future__ import annotations

import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.simnet.addresses import NetAddr
from repro.simnet.latency import LatencyConfig, LatencyModel
from repro.simnet.rand import RandomStreams, Stream, derive_seed, sample

from .conftest import make_addr


class TestLatencyModel:
    def setup_method(self):
        self.model = LatencyModel(seed=1, rng=random.Random(2))

    def test_symmetric_base(self):
        a, b = make_addr(1), make_addr(2)
        assert self.model.base_latency(a, b) == self.model.base_latency(b, a)

    def test_deterministic_base(self):
        a, b = make_addr(1), make_addr(2)
        other = LatencyModel(seed=1, rng=random.Random(99))
        assert self.model.base_latency(a, b) == other.base_latency(a, b)

    def test_within_bounds(self):
        config = LatencyConfig()
        for i in range(2, 50):
            value = self.model.base_latency(make_addr(1), make_addr(i))
            assert config.min_latency <= value <= config.max_latency

    def test_local_latency_same_group(self):
        a = NetAddr(ip=(7 << 16) | 1)
        b = NetAddr(ip=(7 << 16) | 2)
        assert self.model.base_latency(a, b) == LatencyConfig().local_latency

    def test_jitter_stays_close_to_base(self):
        a, b = make_addr(1), make_addr(2)
        base = self.model.base_latency(a, b)
        for _ in range(100):
            sample = self.model.sample(a, b)
            assert base * 0.89 <= sample <= base * 1.11

    def test_zero_jitter_exact(self):
        model = LatencyModel(LatencyConfig(jitter=0.0), seed=1, rng=random.Random(1))
        a, b = make_addr(1), make_addr(2)
        assert model.sample(a, b) == model.base_latency(a, b)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            LatencyConfig(min_latency=0.2, max_latency=0.1).validate()
        with pytest.raises(ValueError):
            LatencyConfig(jitter=1.5).validate()
        with pytest.raises(ValueError):
            LatencyConfig(local_latency=0.0).validate()


class TestStream:
    """A stream is a stock generator that pickles as its state words."""

    def test_draws_are_the_stock_generators(self):
        stock = random.Random(derive_seed(5, "a"))
        stream = RandomStreams(5).stream("a")
        assert type(stream) is Stream
        assert [stream.random() for _ in range(100)] == [
            stock.random() for _ in range(100)
        ]
        assert stream.getstate() == stock.getstate()

    @pytest.mark.parametrize("gauss", [False, True])
    def test_round_trip_keeps_state_and_the_next_draws(self, gauss):
        rng = RandomStreams(7).stream("x")
        rng.getrandbits(100)
        if gauss:
            rng.gauss(0.0, 1.0)  # leaves gauss_next set
        restored = pickle.loads(pickle.dumps(rng, protocol=4))
        assert type(restored) is Stream
        assert restored.getstate() == rng.getstate()
        assert [restored.random() for _ in range(1000)] == [
            rng.random() for _ in range(1000)
        ]

    def test_pickles_as_its_word_array_once_per_object(self):
        rng = RandomStreams(7).stream("x")
        stock = random.Random()
        stock.setstate(rng.getstate())
        assert len(pickle.dumps(rng, protocol=4)) < 2600
        assert len(pickle.dumps(stock, protocol=4)) > 3500
        first, second = pickle.loads(pickle.dumps([rng, rng], protocol=4))
        assert first is second

    def test_latency_fallback_is_a_stream(self):
        model = LatencyModel(seed=3)
        assert type(model._rng) is Stream
        assert model._rng.getstate() == random.Random(
            derive_seed(3, "latency-jitter")
        ).getstate()


class TestDeriveSeed:
    def test_stable(self):
        assert derive_seed(1, "a", "b") == derive_seed(1, "a", "b")

    def test_name_sensitivity(self):
        assert derive_seed(1, "a") != derive_seed(1, "b")

    def test_master_sensitivity(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_path_not_concatenation(self):
        # ("ab",) and ("a", "b") must differ.
        assert derive_seed(1, "ab") != derive_seed(1, "a", "b")

    def test_64_bit_range(self):
        value = derive_seed(123, "stream")
        assert 0 <= value < 2**64


#: ``Random.sample`` switches from the pool to the selected-set method
#: where the population outgrows ``21 + 4**ceil(log(3k, 4))`` (21 for
#: ``k <= 5``); the smallest ``k`` of each band, with its threshold.
_SETSIZE_BANDS = [(5, 21), (6, 85), (22, 277), (86, 1045), (342, 4117)]


class TestSampleMatchesStdlib:
    """``rand.sample`` is ``random.Random.sample`` draw for draw: every
    seeded digest in the repo rests on the two agreeing.  If a new Python
    changes how ``Random.sample`` draws, this is the test that fails."""

    @staticmethod
    def _assert_same(seed, n, k):
        ours, stdlib = random.Random(seed), random.Random(seed)
        population = list(range(n))
        assert sample(ours, population, k) == stdlib.sample(population, k)
        assert ours.getstate() == stdlib.getstate()

    @pytest.mark.parametrize("k, threshold", _SETSIZE_BANDS)
    def test_both_sides_of_every_setsize_threshold(self, k, threshold):
        for n in (threshold - 1, threshold, threshold + 1):
            for seed in range(5):
                self._assert_same(seed, n, k)

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        n=st.one_of(
            st.integers(min_value=0, max_value=5000),
            st.sampled_from(
                [t + d for _k, t in _SETSIZE_BANDS for d in (-1, 0, 1)]
            ),
        ),
        k=st.one_of(
            st.sampled_from([0, 1, 5, 6, None]),
            st.integers(min_value=0, max_value=5000),
        ),
    )
    def test_result_and_generator_state(self, seed, n, k):
        self._assert_same(seed, n, n if k is None else min(k, n))

    def test_population_is_left_alone(self, rng):
        population = list(range(50))
        sample(rng, population, 20)
        assert population == list(range(50))

    def test_out_of_range_k(self, rng):
        with pytest.raises(ValueError):
            sample(rng, [1, 2, 3], 4)
        with pytest.raises(ValueError):
            sample(rng, [1, 2, 3], -1)
