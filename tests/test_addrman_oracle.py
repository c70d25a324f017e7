"""``repro.bitcoin.addrman.AddrMan`` against ``tests/reference_addrman.py``.

Both managers are given the same operations and two RNGs seeded alike,
and after every operation they must agree on everything an observer or
a later draw could depend on: the value returned, each table's address
order (``select`` and ``get_addr`` index into it), each bucket's member
order (the victim of a full bucket is an index into it), every field of
``info()`` for every address either has heard of, and the RNG's state —
so the production layout may change freely as long as it makes the same
draws, in the same order, over the same rows.

Mutation checks (each was applied to ``src/repro/bitcoin/addrman.py``,
seen to turn the named test red, and reverted):

* a full bucket drops its victim and *appends* the newcomer instead of
  replacing the victim in place
  -> ``TestDirected::test_full_bucket_replaces_the_victim_in_place``
* an evicted row's attempt state is not dropped with it (``_tries``
  keeps the entry)
  -> ``TestDirected::test_an_evicted_row_takes_its_attempt_state_with_it``
* a record stamped more than ten minutes ahead is stored as received
  instead of clamped
  -> ``TestDirected::test_a_future_stamped_record_is_stored_clamped``
* swap-remove moves the last row into the hole without fixing its
  ``_pos`` entry
  -> ``TestDirected::test_swap_remove_keeps_the_moved_row_addressable``
* a bare slot that takes a second member becomes ``[addr, slot]``
  (newcomer first) instead of ``[slot, addr]``; or ``remove()`` leaves
  a one-member list instead of the bare address; or ``remove()`` on a
  bare slot leaves the address in it
  -> ``TestDirected::test_a_slot_goes_bare_then_list_and_back_in_arrival_order``
  (each also fails ``test_long_program``)
* a full bucket of one replaces its member without the victim draw,
  since the index can only be 0
  -> ``TestDirected::test_a_bucket_of_one_draws_once_per_eviction``
  (and ``TestAddrManMatchesReference``, in 38 s; not
  ``test_long_program``, whose buckets hold six)

The first four each also fail ``test_long_program``, and the first three
were seen to fail ``TestAddrManMatchesReference`` (under the fourth the
state machine was stopped after minutes of shrinking — run the directed
tests first);
the directed tests exist so a red run names the rule that broke.  Two
more of the second kind — ``good()`` and ``remove()`` keeping the
``_tries`` entry of the row they drop — fail
``test_a_displaced_tried_entry_evicts_a_whole_row_from_new`` and
``test_an_evicted_row_takes_its_attempt_state_with_it``.
"""

from __future__ import annotations

import random

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, rule

from repro.bitcoin.addrman import AddrInfo, AddrMan
from repro.simnet.addresses import NetAddr, TimestampedAddr
from repro.units import DAYS

from .reference_addrman import ReferenceAddrMan

INFO_FIELDS = (
    "addr", "source", "timestamp", "last_try", "last_success", "attempts",
    "in_tried",
)

#: Three /16 groups of five hosts, one of them also on a second port:
#: few enough that tiny tables collide, fill and evict all the time.
UNIVERSE = [
    NetAddr(ip=(group << 16) | host)
    for group in (1, 2, 3)
    for host in range(1, 6)
] + [NetAddr(ip=(1 << 16) | 1, port=18333)]
SOURCES = [None, NetAddr(ip=(7 << 16) | 1), NetAddr(ip=(8 << 16) | 1), UNIVERSE[0]]


class Pair:
    """The production manager and the oracle, driven in lockstep."""

    def __init__(self, seed: int = 7, universe=None, **sizes) -> None:
        self.real = AddrMan(random.Random(seed), **sizes)
        self.ref = ReferenceAddrMan(random.Random(seed), **sizes)
        self.universe = UNIVERSE if universe is None else universe

    def do(self, op: str, *args, check: bool = True, **kwargs):
        got = getattr(self.real, op)(*args, **kwargs)
        want = getattr(self.ref, op)(*args, **kwargs)
        assert got == want, (op, args, kwargs)
        if check:
            self.check()
        return got

    def check(self) -> None:
        real, ref = self.real, self.ref
        assert real._new.all_addresses() == ref.new.order  # noqa: SLF001
        assert real._tried.all_addresses() == ref.tried.order  # noqa: SLF001
        for table, oracle in ((real._new, ref.new), (real._tried, ref.tried)):  # noqa: SLF001
            assert [table.members(b) for b in range(table.bucket_count)] == [
                tuple(oracle.buckets.get(b, ())) for b in range(oracle.bucket_count)
            ]
        real.check()
        assert real.new_count == len(ref.new.order)
        assert real.tried_count == len(ref.tried.order)
        assert len(real) == len(ref)
        assert sorted(real.all_addresses()) == sorted(ref.infos)
        for addr in self.universe:
            got, want = real.info(addr), ref.info(addr)
            assert (addr in real) == (want is not None)
            if want is None:
                assert got is None, addr
                continue
            for field in INFO_FIELDS:
                assert getattr(got, field) == getattr(want, field), (addr, field)
        assert real._rng.getstate() == ref.rng.getstate()  # noqa: SLF001


addrs = st.sampled_from(UNIVERSE)
sources = st.sampled_from(SOURCES)
#: Last-seen time of a gossiped record, relative to the receiver's
#: clock: fresh, on either side of both horizons, and on either side of
#: the ten-minute future clamp.
offsets = st.sampled_from(
    [0.0, -3600.0, -16.5 * DAYS, -17.5 * DAYS, -29.5 * DAYS, -31 * DAYS,
     300.0, 600.0, 601.0, 5000.0]
)


class AddrManMachine(RuleBasedStateMachine):
    @initialize(
        seed=st.integers(0, 2**32),
        key=st.integers(0, 2**64 - 1),
        new_buckets=st.sampled_from([1, 2, 4]),
        tried_buckets=st.sampled_from([1, 2]),
        bucket_size=st.sampled_from([1, 2, 3]),
        horizon_days=st.sampled_from([30.0, 17.0]),
    )
    def build(self, seed, **sizes):
        self.pair = Pair(seed, **sizes)
        self.now = 0.0

    @rule(dt=st.sampled_from([1.0, 29.0, 61.0, 3600.0, DAYS, 8 * DAYS, 18 * DAYS]))
    def advance(self, dt):
        self.now += dt

    @rule(addr=addrs, source=sources, offset=st.none() | offsets)
    def add(self, addr, source, offset):
        timestamp = None if offset is None else self.now + offset
        self.pair.do("add", addr, self.now, source, timestamp)

    @rule(batch=st.lists(st.tuples(addrs, offsets), max_size=8), source=sources)
    def add_many(self, batch, source):
        records = [
            TimestampedAddr(addr, self.now + offset) for addr, offset in batch
        ]
        self.pair.do("add_many", records, self.now, source)

    @rule(addr=addrs)
    def attempt(self, addr):
        self.pair.do("attempt", addr, self.now)

    @rule(addr=addrs)
    def good(self, addr):
        self.pair.do("good", addr, self.now)

    @rule(addr=addrs)
    def remove(self, addr):
        self.pair.do("remove", addr)

    @rule(new_only=st.booleans(), tried_bias=st.sampled_from([0.5, 0.0, 0.9, 1.0]))
    def select(self, new_only, tried_bias):
        self.pair.do("select", self.now, new_only=new_only, tried_bias=tried_bias)

    @rule(
        tried_only=st.booleans(),
        max_count=st.sampled_from([1000, 2, 0]),
        max_pct=st.sampled_from([23, 100]),
    )
    def get_addr(self, tried_only, max_count, max_pct):
        self.pair.do(
            "get_addr", self.now,
            max_count=max_count, max_pct=max_pct, tried_only=tried_only,
        )


TestAddrManMatchesReference = AddrManMachine.TestCase
TestAddrManMatchesReference.settings = settings(
    max_examples=120, stateful_step_count=50, deadline=None
)


def test_long_program():
    """One long seeded program over tables big enough that a removal
    usually moves a row that is neither first nor last."""
    rng = random.Random(2021)
    population = [
        NetAddr(ip=(group << 16) | host)
        for group in range(1, 9)
        for host in range(1, 41)
    ]
    pair = Pair(
        11, universe=population,
        new_buckets=16, tried_buckets=4, bucket_size=6, key=99,
    )
    now = 0.0
    for step in range(4000):
        now += rng.choice([0.5, 5.0, 90.0, 7200.0, 2 * DAYS])
        addr = rng.choice(population)
        op = rng.choice(
            ["add_many"] * 4
            + ["attempt", "attempt", "good", "remove", "select", "select", "get_addr"]
        )
        if op == "add_many":
            records = [
                TimestampedAddr(
                    rng.choice(population),
                    now + rng.choice([0.0, -600.0, -20 * DAYS, 900.0]),
                )
                for _ in range(rng.randrange(12))
            ]
            args = (records, now, rng.choice(population))
        elif op == "remove":
            args = (addr,)
        elif op in ("select", "get_addr"):
            args = (now,)
        else:
            args = (addr, now)
        pair.do(op, *args, check=step % 25 == 0)
    pair.check()
    assert pair.real.tried_count and pair.real.new_count


A, B, C, D = UNIVERSE[0], UNIVERSE[5], UNIVERSE[10], UNIVERSE[1]


class TestDirected:
    """One rule each, so a red run names it (see the module docstring)."""

    def test_full_bucket_replaces_the_victim_in_place(self):
        pair = Pair(5, new_buckets=1, tried_buckets=1, bucket_size=3)
        for addr in UNIVERSE[:3]:
            pair.do("add", addr, 0.0)
        victims_not_last = 0
        for addr in UNIVERSE[3:]:
            before = pair.real._new.members(0)  # noqa: SLF001
            assert pair.do("add", addr, 0.0) is True
            after = pair.real._new.members(0)  # noqa: SLF001
            (slot,) = [i for i in range(3) if before[i] != after[i]]
            assert after[slot] == addr
            assert before[slot] not in pair.real
            victims_not_last += slot < 2
        assert victims_not_last  # else appending would have looked the same

    def test_an_evicted_row_takes_its_attempt_state_with_it(self):
        pair = Pair(5, new_buckets=1, tried_buckets=1, bucket_size=1)
        pair.do("add", A, 0.0)
        pair.do("attempt", A, 10.0)
        pair.do("attempt", A, 20.0)
        assert pair.real.info(A).attempts == 2
        pair.do("add", B, 30.0)  # the one slot: A is the victim
        assert A not in pair.real
        pair.do("add", A, 40.0)
        info = pair.real.info(A)
        assert (info.attempts, info.last_try, info.last_success) == (0, -1.0, -1.0)
        # ...and so does a row removed by name.
        pair.do("attempt", A, 50.0)
        pair.do("remove", A)
        pair.do("add", A, 60.0)
        assert pair.real.info(A).attempts == 0

    def test_a_displaced_tried_entry_evicts_a_whole_row_from_new(self):
        pair = Pair(5, new_buckets=2, tried_buckets=1, bucket_size=1)
        by_bucket = {0: [], 1: []}
        for addr in UNIVERSE:
            by_bucket[pair.ref.new_bucket(addr, None)].append(addr)
        (old_tried, bystander, *_), (promoted, *_) = sorted(
            by_bucket.values(), key=len, reverse=True
        )
        pair.do("good", old_tried, 0.0)
        pair.do("add", bystander, 10.0)
        pair.do("attempt", bystander, 20.0)
        pair.do("add", promoted, 30.0)
        pair.do("good", promoted, 40.0)
        # The one tried slot went to ``promoted``; ``old_tried`` fell
        # back into the new bucket ``bystander`` was filling.
        assert pair.real._tried.all_addresses() == [promoted]  # noqa: SLF001
        assert pair.real._new.all_addresses() == [old_tried]  # noqa: SLF001
        fallen = pair.real.info(old_tried)
        assert (fallen.in_tried, fallen.last_success) == (False, 0.0)
        pair.do("add", bystander, 50.0)
        assert pair.real.info(bystander).attempts == 0

    def test_a_future_stamped_record_is_stored_clamped(self):
        pair = Pair(5)
        now = 1000.0
        pair.do("add_many", [TimestampedAddr(A, now + 5000.0)], now)
        assert pair.real.info(A).timestamp == now + 600.0
        assert pair.do("get_addr", now) == [TimestampedAddr(A, now + 600.0)]
        # A later, honest announcement is older than the clamped one.
        pair.do("add_many", [TimestampedAddr(A, now + 100.0)], now + 50.0)
        assert pair.real.info(A).timestamp == now + 600.0
        # The clamp also bites on a refresh, and through add().
        pair.do("add_many", [TimestampedAddr(A, now + 9000.0)], now + 200.0)
        assert pair.real.info(A).timestamp == now + 800.0
        pair.do("add", B, now, None, now + 601.0)
        assert pair.real.info(B).timestamp == now + 600.0

    def test_swap_remove_keeps_the_moved_row_addressable(self):
        pair = Pair(5)
        source = SOURCES[1]
        for stamp, addr in enumerate((A, B, C, D)):
            pair.do("add", addr, 100.0, source, float(stamp))
        pair.do("remove", A)  # D, the last row, moves into row 0
        assert pair.real._new.all_addresses() == [D, B, C]  # noqa: SLF001
        info = pair.real.info(D)
        assert (info.timestamp, info.source) == (3.0, source)
        pair.do("add_many", [TimestampedAddr(D, 50.0)], 100.0)
        assert pair.real.info(D).timestamp == 50.0
        assert [pair.real.info(addr).timestamp for addr in (B, C)] == [1.0, 2.0]
        pair.do("remove", D)
        assert pair.real._new.all_addresses() == [C, B]  # noqa: SLF001
        pair.do("good", C, 200.0)
        pair.do("remove", B)
        assert len(pair.real) == 1 and pair.real.info(C).in_tried

    def test_a_slot_goes_bare_then_list_and_back_in_arrival_order(self):
        pair = Pair(5, new_buckets=1, tried_buckets=1, bucket_size=3)
        slots = pair.real._new._slots  # noqa: SLF001
        assert slots[0] is None
        pair.do("add", A, 0.0)
        assert slots[0] == A and slots[0].__class__ is not list
        pair.do("add", B, 1.0)
        pair.do("add", C, 2.0)
        assert slots[0] == [A, B, C]
        pair.do("remove", B)
        assert slots[0] == [A, C]
        pair.do("remove", A)
        assert slots[0] == C and slots[0].__class__ is not list
        pair.do("add", D, 3.0)
        assert slots[0] == [C, D]
        pair.do("remove", D)
        pair.do("remove", C)
        assert slots[0] is None and len(pair.real) == 0

    def test_a_bucket_of_one_draws_once_per_eviction(self):
        pair = Pair(5, new_buckets=1, tried_buckets=1, bucket_size=1)
        rng = pair.real._rng  # noqa: SLF001
        pair.do("add", A, 0.0)
        for stamp, addr in enumerate((B, C, D, A), start=1):
            expected = random.Random()
            expected.setstate(rng.getstate())
            expected.random()
            assert pair.do("add", addr, float(stamp)) is True
            assert rng.getstate() == expected.getstate(), addr
            assert pair.real._new.members(0) == (addr,)  # noqa: SLF001


class TestQuirks:
    def test_never_tried_address_cannot_be_terrible_in_the_first_minute(self):
        """``last_try == -1.0`` passes the "tried in the last 60 s" test
        while ``now <= 59``: recorded, not endorsed (ROADMAP item 1)."""
        pair = Pair(5)
        stale = -40 * DAYS
        assert not AddrInfo(addr=A, source=None, timestamp=stale).is_terrible(
            now=59.0, horizon=30 * DAYS
        )
        assert AddrInfo(addr=A, source=None, timestamp=stale).is_terrible(
            now=59.5, horizon=30 * DAYS
        )
        pair.do("add", A, 0.0, None, stale)
        assert pair.do("select", 30.0) == A
        assert pair.do("get_addr", 59.0) == [TimestampedAddr(A, stale)]
        assert pair.do("select", 59.5) is None
        assert A not in pair.real
