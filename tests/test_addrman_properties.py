"""Property-based tests for addrman invariants (hypothesis)."""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from repro.bitcoin.addrman import AddrMan
from repro.simnet.addresses import NetAddr

addr_strategy = st.builds(
    NetAddr,
    ip=st.integers(min_value=1, max_value=0xFFFFFF),
    port=st.just(8333),
)

op_strategy = st.lists(
    st.tuples(
        st.sampled_from(["add", "good", "attempt", "remove", "select"]),
        addr_strategy,
        st.floats(min_value=0, max_value=1e6),
    ),
    max_size=120,
)


def _check_invariants(addrman: AddrMan) -> None:
    # Tables are disjoint and their union is the info map.
    new_set = set(addrman._new.all_addresses())  # noqa: SLF001 - invariant check
    tried_set = set(addrman._tried.all_addresses())  # noqa: SLF001
    assert not (new_set & tried_set)
    assert new_set | tried_set == set(addrman.all_addresses())
    # in_tried flags agree with the table an address sits in.
    for addr in new_set:
        assert not addrman.info(addr).in_tried
    for addr in tried_set:
        assert addrman.info(addr).in_tried
    # Counts agree.
    assert addrman.new_count == len(new_set)
    assert addrman.tried_count == len(tried_set)
    assert len(addrman) == len(new_set) + len(tried_set)


@settings(max_examples=60, deadline=None)
@given(ops=op_strategy)
def test_invariants_hold_under_any_operation_sequence(ops):
    addrman = AddrMan(rng=random.Random(3), key=9)
    clock = 0.0
    for op, addr, dt in ops:
        clock += dt
        if op == "add":
            addrman.add(addr, now=clock)
        elif op == "good":
            addrman.good(addr, now=clock)
        elif op == "attempt":
            addrman.attempt(addr, now=clock)
        elif op == "remove":
            addrman.remove(addr)
        elif op == "select":
            selected = addrman.select(now=clock)
            assert selected is None or selected in addrman
    _check_invariants(addrman)


@settings(max_examples=40, deadline=None)
@given(addrs=st.lists(addr_strategy, min_size=1, max_size=80, unique=True))
def test_get_addr_returns_subset_without_duplicates(addrs):
    addrman = AddrMan(rng=random.Random(3), key=9)
    for addr in addrs:
        addrman.add(addr, now=0.0)
    response = addrman.get_addr(now=0.0)
    returned = [record.addr for record in response]
    assert len(returned) == len(set(returned))
    assert set(returned) <= set(addrs)


@settings(max_examples=40, deadline=None)
@given(addrs=st.lists(addr_strategy, min_size=1, max_size=60, unique=True))
def test_promotion_is_stable(addrs):
    """good() then good() again keeps exactly one tried entry per addr."""
    addrman = AddrMan(rng=random.Random(3), key=9)
    for addr in addrs:
        addrman.add(addr, now=0.0)
        addrman.good(addr, now=1.0)
        addrman.good(addr, now=2.0)
    _check_invariants(addrman)
    # Every surviving address must be tried (collisions may displace some
    # back to new, but never drop the flag inconsistently).
    assert addrman.tried_count >= 1


@settings(max_examples=30, deadline=None)
@given(
    addrs=st.lists(addr_strategy, min_size=5, max_size=60, unique=True),
    horizon_days=st.floats(min_value=1.0, max_value=60.0),
)
def test_eviction_sweep_is_complete(addrs, horizon_days):
    addrman = AddrMan(rng=random.Random(3), key=9, horizon_days=horizon_days)
    for addr in addrs:
        addrman.add(addr, now=0.0, timestamp=0.0)
    far_future = (horizon_days + 1) * 86400.0
    # Lazy eviction: with nothing good to return, one GETADDR walk
    # visits and drops every entry past the horizon.
    assert addrman.get_addr(now=far_future) == []
    assert len(addrman) == 0
