"""Tests for the addrman new/tried tables and eviction rules."""

from __future__ import annotations

import random

import pytest

from repro.bitcoin.addrman import AddrInfo, AddrMan
from repro.units import DAYS

from .conftest import make_addr


@pytest.fixture
def addrman():
    return AddrMan(rng=random.Random(5), key=77)


class TestAdd:
    def test_new_address_lands_in_new_table(self, addrman):
        addr = make_addr(1)
        assert addrman.add(addr, now=0.0) is True
        assert addrman.new_count == 1
        assert addrman.tried_count == 0
        assert addr in addrman

    def test_duplicate_add_refreshes_timestamp(self, addrman):
        addr = make_addr(1)
        addrman.add(addr, now=0.0, timestamp=0.0)
        assert addrman.add(addr, now=100.0, timestamp=100.0) is False
        assert addrman.info(addr).timestamp == 100.0

    def test_duplicate_add_never_regresses_timestamp(self, addrman):
        addr = make_addr(1)
        addrman.add(addr, now=100.0, timestamp=100.0)
        addrman.add(addr, now=200.0, timestamp=50.0)
        assert addrman.info(addr).timestamp == 100.0

    def test_future_timestamps_clamped(self, addrman):
        addr = make_addr(1)
        addrman.add(addr, now=0.0, timestamp=1e9)
        assert addrman.info(addr).timestamp <= 600.0

    def test_bucket_overflow_evicts(self):
        # One bucket of size 2: the third same-group address evicts one.
        addrman = AddrMan(
            rng=random.Random(5), new_buckets=1, tried_buckets=1, bucket_size=2
        )
        for index in range(3):
            addrman.add(make_addr(index), now=0.0)
        assert addrman.new_count == 2
        assert len(addrman) == 2


class TestGoodAndAttempt:
    def test_good_promotes_to_tried(self, addrman):
        addr = make_addr(1)
        addrman.add(addr, now=0.0)
        addrman.good(addr, now=10.0)
        assert addrman.tried_count == 1
        assert addrman.new_count == 0
        assert addrman.info(addr).in_tried

    def test_good_on_unknown_address_adopts_it(self, addrman):
        addr = make_addr(1)
        addrman.good(addr, now=0.0)
        assert addr in addrman
        assert addrman.info(addr).in_tried

    def test_good_resets_attempts(self, addrman):
        addr = make_addr(1)
        addrman.add(addr, now=0.0)
        for _ in range(5):
            addrman.attempt(addr, now=1.0)
        addrman.good(addr, now=2.0)
        assert addrman.info(addr).attempts == 0

    def test_attempt_counts(self, addrman):
        addr = make_addr(1)
        addrman.add(addr, now=0.0)
        addrman.attempt(addr, now=5.0)
        addrman.attempt(addr, now=6.0)
        info = addrman.info(addr)
        assert info.attempts == 2
        assert info.last_try == 6.0

    def test_tried_collision_displaces_back_to_new(self):
        addrman = AddrMan(
            rng=random.Random(5), new_buckets=4, tried_buckets=1, bucket_size=1
        )
        a, b = make_addr(1), make_addr(2)
        for addr in (a, b):
            addrman.add(addr, now=0.0)
            addrman.good(addr, now=1.0)
        # Only one tried slot exists: one of them was displaced to new.
        assert addrman.tried_count == 1
        assert addrman.new_count == 1
        assert len(addrman) == 2


class TestSelect:
    def test_select_from_empty_returns_none(self, addrman):
        assert addrman.select(now=0.0) is None

    def test_select_returns_known_address(self, addrman):
        for index in range(10):
            addrman.add(make_addr(index), now=0.0)
        for _ in range(20):
            assert addrman.select(now=1.0) in addrman

    def test_select_new_only(self, addrman):
        tried_addr, new_addr = make_addr(1), make_addr(2)
        addrman.add(tried_addr, now=0.0)
        addrman.good(tried_addr, now=0.0)
        addrman.add(new_addr, now=0.0)
        for _ in range(20):
            assert addrman.select(now=1.0, new_only=True) == new_addr

    def test_select_roughly_even_between_tables(self, addrman):
        tried_addr, new_addr = make_addr(1), make_addr(2)
        addrman.add(tried_addr, now=0.0)
        addrman.good(tried_addr, now=0.0)
        addrman.add(new_addr, now=0.0)
        picks = [addrman.select(now=1.0) for _ in range(400)]
        tried_share = picks.count(tried_addr) / len(picks)
        assert 0.35 < tried_share < 0.65

    def test_select_evicts_terrible(self, addrman):
        stale = make_addr(1)
        addrman.add(stale, now=0.0, timestamp=0.0)
        # 31 days later the entry is beyond the horizon.
        assert addrman.select(now=31 * DAYS) is None
        assert stale not in addrman


class TestIsTerrible:
    def _info(self, **kwargs):
        base = dict(addr=make_addr(1), source=None, timestamp=0.0)
        base.update(kwargs)
        return AddrInfo(**base)

    def test_fresh_is_fine(self):
        info = self._info(timestamp=1000.0)
        assert not info.is_terrible(now=1000.0, horizon=30 * DAYS)

    def test_horizon_eviction(self):
        info = self._info(timestamp=0.0)
        assert info.is_terrible(now=31 * DAYS, horizon=30 * DAYS)

    def test_shorter_horizon_evicts_sooner(self):
        """The §V refinement: 17-day horizon drops stale entries earlier."""
        info = self._info(timestamp=0.0)
        now = 20 * DAYS
        assert info.is_terrible(now, horizon=17 * DAYS)
        assert not info.is_terrible(now, horizon=30 * DAYS)

    def test_never_successful_after_retries(self):
        info = self._info(timestamp=1000.0, attempts=3)
        assert info.is_terrible(now=1000.0, horizon=30 * DAYS)

    def test_many_failures_after_week(self):
        info = self._info(
            timestamp=20 * DAYS, last_success=1.0, attempts=10
        )
        assert info.is_terrible(now=20 * DAYS, horizon=30 * DAYS)

    def test_recent_try_is_protected(self):
        info = self._info(timestamp=0.0, last_try=31 * DAYS - 30)
        assert not info.is_terrible(now=31 * DAYS, horizon=30 * DAYS)

    def test_future_timestamp_is_terrible(self):
        info = self._info(timestamp=5000.0)
        assert info.is_terrible(now=1000.0, horizon=30 * DAYS)


class TestGetAddr:
    def _fill(self, addrman, count, now=0.0):
        for index in range(count):
            addrman.add(make_addr(index), now=now, timestamp=now)

    def test_capped_at_23_percent(self, addrman):
        self._fill(addrman, 1000)
        response = addrman.get_addr(now=0.0)
        assert len(response) == 230

    def test_capped_at_1000(self, addrman):
        self._fill(addrman, 6000)
        response = addrman.get_addr(now=0.0)
        assert len(response) == 1000

    def test_tried_only_policy(self, addrman):
        self._fill(addrman, 50)
        good = make_addr(999)
        addrman.add(good, now=0.0)
        addrman.good(good, now=0.0)
        response = addrman.get_addr(now=0.0, tried_only=True)
        assert [record.addr for record in response] == [good]

    def test_no_duplicates(self, addrman):
        self._fill(addrman, 500)
        response = addrman.get_addr(now=0.0)
        addrs = [record.addr for record in response]
        assert len(addrs) == len(set(addrs))

    def test_terrible_excluded_and_evicted(self, addrman):
        self._fill(addrman, 10, now=0.0)
        response = addrman.get_addr(now=40 * DAYS)
        assert response == []
        assert len(addrman) == 0

    def test_empty_tables(self, addrman):
        assert addrman.get_addr(now=0.0) == []


class TestEvictTerrible:
    def test_sweep(self, addrman):
        """Eviction is lazy: a GETADDR walk that cannot fill its quota
        from good entries visits — and drops — every terrible one."""
        for index in range(10):
            addrman.add(make_addr(index), now=0.0, timestamp=0.0)
        fresh = make_addr(100)
        addrman.add(fresh, now=35 * DAYS, timestamp=35 * DAYS)
        response = addrman.get_addr(now=35 * DAYS)
        assert [record.addr for record in response] == [fresh]
        assert len(addrman) == 1
        assert list(addrman.all_addresses()) == [fresh]

    def test_remove_unknown_is_noop(self, addrman):
        addrman.remove(make_addr(1))
        assert len(addrman) == 0
