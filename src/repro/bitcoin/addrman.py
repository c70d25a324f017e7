"""The address manager (``addrMan``): Bitcoin Core's new/tried tables.

This reproduces the behaviours the paper's §IV-B analysis hinges on:

* addresses learned from ADDR gossip land in the **new** table, bucketed by
  (source netgroup, address netgroup); addresses we have successfully
  connected to move to the **tried** table;
* outbound-connection targets are drawn from new or tried with **equal
  probability** — with *no notion of reachability*, which is the protocol
  weakness the paper identifies;
* GETADDR responses sample up to 23% of the tables, capped at 1000
  addresses;
* "terrible" addresses are evicted: never-successful after 3 attempts,
  10 failures within a week, or not seen within the 30-day horizon — the
  horizon the §V refinement shortens to 17 days.

Deviation from Core noted here once: selection is uniform over addresses
rather than Core's uniform-over-buckets-with-freshness-bias.  The paper's
phenomena (success rate, pollution, eviction latency) do not depend on the
bias, and uniform keeps selection O(1).

Layout: an address is a *row*, not an object.  A table keeps the last
ADDR record heard for each address **as received** (``_rec``; a node
stores a record's timestamp and re-serves it as stored, so a GETADDR
reply is a list of pointers and one record is shared by every table and
message it passed through) beside the source it was learned from
(``_src``), with ``_pos`` mapping address to row (row numbers come from
one shared pool of ints).  Removal moves the last row into the hole.  A
bucket is a slot in a list: empty, one bare address, or a list of two or
more in arrival order.  Which table holds the row *is* ``in_tried``;
the bucket is recomputed from ``(key, addr, source)`` on the rare
remove; attempt state lives in the sparse ``AddrMan._tries``, only for
addresses ever dialled.  ``tests/reference_addrman.py`` is the
object-per-address layout this replaced, kept as the oracle: both make
the same RNG draws over the same row order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..simnet.addresses import NetAddr, TimestampedAddr
from ..units import DAYS
from . import config as cfg


def _mix64(x: int) -> int:
    """SplitMix64 finalizer: a fast, well-distributed 64-bit mixer.

    Bucket placement only needs a deterministic, seed-keyed uniform
    spread over bucket indices; three multiply-xor-shift rounds give
    that at a fraction of the keyed-SHA-256 cost that dominated ADDR
    ingest in paper-scale profiles.  Pure integer arithmetic — stable
    across platforms and interpreter runs (no ``hash()``).
    """
    x &= 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)


def is_terrible(
    timestamp: float, tries: Tuple[float, float, int], now: float, horizon: float
) -> bool:
    """Core's ``AddrInfo::IsTerrible`` eviction predicate, over a
    last-seen time and a ``(last_try, last_success, attempts)`` triple."""
    if tries[0] >= now - 60.0:
        return False  # tried in the last minute: leave it alone
    if timestamp > now + 10 * 60.0:
        return True  # timestamp from the future
    if timestamp < now - horizon:
        return True  # not seen within the horizon
    last_success = tries[1]
    if last_success < 0:
        return tries[2] >= cfg.ADDRMAN_RETRIES  # never succeeded
    return (
        last_success < now - cfg.ADDRMAN_MIN_FAIL_DAYS * DAYS
        and tries[2] >= cfg.ADDRMAN_MAX_FAILURES
    )


#: ``(last_try, last_success, attempts)`` of an address never dialled.
_NEVER_TRIED = (-1.0, -1.0, 0)


@dataclass(frozen=True, slots=True)
class AddrInfo:
    """What is known about one address: a snapshot, built by
    :meth:`AddrMan.info` for tests and analyses (the tables keep rows)."""

    addr: NetAddr
    source: Optional[NetAddr]
    #: Gossiped last-seen timestamp (from the ADDR record).
    timestamp: float
    #: Last time we attempted a connection.
    last_try: float = -1.0
    #: Last successful connection.
    last_success: float = -1.0
    #: Failed attempts since the last success.
    attempts: int = 0
    in_tried: bool = False

    def is_terrible(self, now: float, horizon: float) -> bool:
        """:func:`is_terrible` of this snapshot."""
        tries = (self.last_try, self.last_success, self.attempts)
        return is_terrible(self.timestamp, tries, now, horizon)


_Row = Tuple[TimestampedAddr, Optional[NetAddr]]

#: A bucket: empty, one member, or two or more members in arrival order.
_Slot = Union[None, NetAddr, List[NetAddr]]

#: Row numbers shared by every table in the process: ``_ROWS[i] is i``.
#: A row above 256 would otherwise box its own int per ``_pos`` entry;
#: the pool grows on demand to the largest table ever built.
_ROWS: List[int] = []


def _row_number(n: int) -> int:
    """``n`` from the shared pool, growing the pool to cover it."""
    _ROWS.extend(range(len(_ROWS), 2 * n + 1024))
    return _ROWS[n]


class _Table:
    """One addrman table: capped buckets over row columns.

    Row ``i`` is ``(_rec[i], _src[i])`` and ``_pos[_rec[i].addr] == i``;
    the columns are what ``select`` / ``get_addr`` index into.  Bucket
    ``b`` is ``_slots[b]``: ``None``, the one member's address, or a list
    of two or more in arrival order — most buckets hold one address, so
    none of them pays for a list.  A full bucket's victim is an index
    into that order and is replaced in place.
    """

    def __init__(self, bucket_count: int, bucket_size: int, rng: random.Random):
        self.bucket_count = bucket_count
        self.bucket_size = bucket_size
        self._rng = rng
        self._slots: List[_Slot] = [None] * bucket_count
        self._pos: Dict[NetAddr, int] = {}
        self._rec: List[TimestampedAddr] = []
        self._src: List[Optional[NetAddr]] = []

    def __len__(self) -> int:
        return len(self._rec)

    def __contains__(self, addr: NetAddr) -> bool:
        return addr in self._pos

    def members(self, bucket: int) -> Tuple[NetAddr, ...]:
        """The addresses in ``bucket``, in arrival order."""
        slot = self._slots[bucket]
        if slot is None:
            return ()
        if slot.__class__ is list:
            return tuple(slot)
        return (slot,)

    def insert(
        self, record: TimestampedAddr, source: Optional[NetAddr], bucket: int
    ) -> Optional[_Row]:
        """Append a row (its address in neither table); return the row a
        full bucket gave up for it, if any."""
        addr = record[0]
        evicted = None
        slots = self._slots
        slot = slots[bucket]
        if slot is None:
            slots[bucket] = addr
        elif slot.__class__ is list:
            if len(slot) < self.bucket_size:
                slot.append(addr)
            else:
                victim_index = int(self._rng.random() * len(slot))
                evicted = self._drop_row(slot[victim_index])
                slot[victim_index] = addr
        elif self.bucket_size > 1:
            slots[bucket] = [slot, addr]
        else:
            # A full bucket of one still makes the victim draw.
            self._rng.random()
            evicted = self._drop_row(slot)
            slots[bucket] = addr
        n = len(self._rec)
        self._pos[addr] = _ROWS[n] if n < len(_ROWS) else _row_number(n)
        self._rec.append(record)
        self._src.append(source)
        return evicted

    def remove(self, addr: NetAddr, bucket: int) -> None:
        slot = self._slots[bucket]
        if slot.__class__ is list:
            slot.remove(addr)
            if len(slot) == 1:
                self._slots[bucket] = slot[0]
        else:
            self._slots[bucket] = None
        self._drop_row(addr)

    def _drop_row(self, addr: NetAddr) -> _Row:
        rec, src = self._rec, self._src
        index = self._pos.pop(addr)
        row = rec[index], src[index]
        last_rec, last_src = rec.pop(), src.pop()
        if index < len(rec):
            rec[index] = last_rec
            src[index] = last_src
            self._pos[last_rec[0]] = index
        return row

    def all_addresses(self) -> List[NetAddr]:
        return [record[0] for record in self._rec]

    def check(self, bucket_of: Callable[[NetAddr, Optional[NetAddr]], int]) -> None:
        """Assert the bounds and the bucket/row correspondence, with
        ``bucket_of(addr, source)`` the bucket a row belongs in."""
        rows = len(self._rec)
        assert len(self._src) == len(self._pos) == rows
        seen = set()
        for bucket, slot in enumerate(self._slots):
            if slot.__class__ is list:
                assert 2 <= len(slot) <= self.bucket_size, (bucket, len(slot))
            for addr in self.members(bucket):
                assert addr not in seen, addr
                seen.add(addr)
                row = self._pos[addr]
                assert self._rec[row][0] == addr, (addr, row)
                assert bucket_of(addr, self._src[row]) == bucket, (addr, bucket)
        assert len(seen) == rows, (len(seen), rows)


class AddrMan:
    """The address manager of one node: two :class:`_Table` s of rows and
    the attempt state of the few addresses ever dialled."""

    def __init__(
        self,
        rng: random.Random,
        new_buckets: int = cfg.ADDRMAN_NEW_BUCKET_COUNT,
        tried_buckets: int = cfg.ADDRMAN_TRIED_BUCKET_COUNT,
        bucket_size: int = cfg.ADDRMAN_BUCKET_SIZE,
        horizon_days: float = cfg.ADDRMAN_HORIZON_DAYS,
        key: int = 0,
    ) -> None:
        self._rng = rng
        self._key = key
        self.horizon = horizon_days * DAYS
        self._new = _Table(new_buckets, bucket_size, rng)
        self._tried = _Table(tried_buckets, bucket_size, rng)
        #: addr -> (last_try, last_success, attempts); dropped with the row.
        self._tries: Dict[NetAddr, Tuple[float, float, int]] = {}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def new_count(self) -> int:
        """Addresses currently in the new table."""
        return len(self._new)

    @property
    def tried_count(self) -> int:
        """Addresses currently in the tried table."""
        return len(self._tried)

    def __len__(self) -> int:
        return len(self._new) + len(self._tried)

    def __contains__(self, addr: NetAddr) -> bool:
        return addr in self._new or addr in self._tried

    def info(self, addr: NetAddr) -> Optional[AddrInfo]:
        """A snapshot of what is known about ``addr``, or None if unknown."""
        for table in (self._new, self._tried):
            index = table._pos.get(addr)
            if index is not None:
                return AddrInfo(
                    addr,
                    table._src[index],
                    table._rec[index][1],
                    *self._tries.get(addr, _NEVER_TRIED),
                    in_tried=table is self._tried,
                )
        return None

    def all_addresses(self) -> List[NetAddr]:
        """Every address in either table."""
        return self._new.all_addresses() + self._tried.all_addresses()

    def check(self) -> None:
        """Assert the table invariants: no bucket over ``bucket_size``,
        bucket members and rows one to one, each member's ``_pos`` row
        holding it in the bucket its ``(key, addr, source)`` names, and
        attempt state only for rows.  Walks every bucket: for tests and
        end-of-run checks, never the hot path."""
        self._new.check(self._new_bucket)
        self._tried.check(lambda addr, source: self._tried_bucket(addr))
        assert self._tries.keys() <= self._new._pos.keys() | self._tried._pos.keys()

    # ------------------------------------------------------------------
    # Bucketing
    # ------------------------------------------------------------------
    def _new_bucket(self, addr: NetAddr, source: Optional[NetAddr]) -> int:
        # Keyed on (own key, address netgroup, source netgroup), as in
        # Core: the same address gossiped by different sources lands in
        # different buckets.  Both netgroups are 16-bit, so packing them
        # keeps distinct pairs distinct before mixing.
        source_group = (source[0] >> 16) if source is not None else 0
        # addr[0] & 0xFFFF0000 == group16 << 16 for 32-bit addresses,
        # without the group16 property call (this runs per gossiped
        # record at paper scale).
        return _mix64(
            self._key ^ (addr[0] & 0xFFFF0000) ^ source_group
        ) % self._new.bucket_count

    def _tried_bucket(self, addr: NetAddr) -> int:
        # (ip, port) packs injectively into 48 bits.
        return _mix64(
            self._key ^ (addr.ip << 16) ^ addr.port
        ) % self._tried.bucket_count

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add(
        self,
        addr: NetAddr,
        now: float,
        source: Optional[NetAddr] = None,
        timestamp: Optional[float] = None,
    ) -> bool:
        """Learn ``addr`` (ADDR gossip / DNS seed).  True if newly added."""
        record = TimestampedAddr(addr, now if timestamp is None else timestamp)
        return self.add_many((record,), now, source) == 1

    def add_many(
        self,
        records: Sequence[TimestampedAddr],
        now: float,
        source: Optional[NetAddr] = None,
    ) -> int:
        """Ingest a whole ADDR message.  Returns # newly added.

        An address already known only has its record replaced by a
        fresher one (Core applies a similar update rule); a new address
        lands in the new table, evicting a random occupant of a full
        bucket.  The record is stored as received — a new one is made
        only when its timestamp is more than ten minutes ahead and has
        to be clamped.  GETADDR replies carry up to 1000 records, so the
        lookups are hoisted out of the loop.
        """
        new_pos, new_rec = self._new._pos, self._new._rec
        tried_pos, tried_rec = self._tried._pos, self._tried._rec
        new_insert = self._new.insert
        forget_tries = self._tries.pop
        key = self._key
        bucket_count = self._new.bucket_count
        source_group = (source[0] >> 16) if source is not None else 0
        clamp = now + 600.0
        added = 0
        for record in records:
            addr, timestamp = record
            if timestamp > clamp:
                record = TimestampedAddr(addr, clamp)
                timestamp = clamp
            index = new_pos.get(addr)
            if index is not None:
                if timestamp > new_rec[index][1]:
                    new_rec[index] = record
                continue
            index = tried_pos.get(addr)
            if index is not None:
                if timestamp > tried_rec[index][1]:
                    tried_rec[index] = record
                continue
            # _new_bucket with _mix64 unrolled — arithmetic identical to
            # the method, sans two Python calls per new record.
            x = (key ^ (addr[0] & 0xFFFF0000) ^ source_group) & 0xFFFFFFFFFFFFFFFF
            x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
            x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
            evicted = new_insert(record, source, (x ^ (x >> 31)) % bucket_count)
            if evicted is not None:  # a (record, source) row
                forget_tries(evicted[0][0], None)
            added += 1
        return added

    def attempt(self, addr: NetAddr, now: float) -> None:
        """Record a connection attempt to ``addr``."""
        if addr in self:
            _, last_success, attempts = self._tries.get(addr, _NEVER_TRIED)
            self._tries[addr] = (now, last_success, attempts + 1)

    def good(self, addr: NetAddr, now: float) -> None:
        """Record a successful connection: promote ``addr`` to tried."""
        new, tried = self._new, self._tried
        record = TimestampedAddr(addr, now)
        if addr not in self:
            # Learned through an inbound path we never gossiped; adopt it.
            self.add_many((record,), now)
        self._tries[addr] = (now, now, 0)
        index = tried._pos.get(addr)
        if index is not None:
            tried._rec[index] = record
            return
        source = new._src[new._pos[addr]]
        new.remove(addr, self._new_bucket(addr, source))
        displaced = tried.insert(record, source, self._tried_bucket(addr))
        if displaced is not None:
            # Core moves the displaced tried entry back to new; we follow.
            back, back_source = displaced
            evicted = new.insert(
                back, back_source, self._new_bucket(back[0], back_source)
            )
            if evicted is not None:
                self._tries.pop(evicted[0][0], None)

    def remove(self, addr: NetAddr) -> None:
        """Forget ``addr`` entirely."""
        new = self._new
        index = new._pos.get(addr)
        if index is not None:
            new.remove(addr, self._new_bucket(addr, new._src[index]))
        elif addr in self._tried:
            self._tried.remove(addr, self._tried_bucket(addr))
        else:
            return
        self._tries.pop(addr, None)

    # ------------------------------------------------------------------
    # Selection (outbound targets)
    # ------------------------------------------------------------------
    def select(
        self, now: float, new_only: bool = False, tried_bias: float = 0.5
    ) -> Optional[NetAddr]:
        """Pick an outbound-connection candidate.

        Core's rule: with both tables non-empty, flip a fair coin between
        them — crucially *without* any reachability information.  Terrible
        entries encountered during selection are evicted and the draw
        retried a bounded number of times.  ``tried_bias`` is the coin's
        weight (policy variants skew selection toward proven addresses);
        any value makes the same single RNG draw.
        """
        new_rows, tried_rows = self._new._rec, self._tried._rec
        for _ in range(8):
            if new_only or not tried_rows:
                rows = new_rows
            elif not new_rows or self._rng.random() < tried_bias:
                rows = tried_rows
            else:
                rows = new_rows
            if not rows:
                return None
            addr, timestamp = rows[int(self._rng.random() * len(rows))]
            tries = self._tries.get(addr, _NEVER_TRIED)
            if not is_terrible(timestamp, tries, now, self.horizon):
                return addr
            self.remove(addr)
        return None

    # ------------------------------------------------------------------
    # GETADDR responses
    # ------------------------------------------------------------------
    def get_addr(
        self,
        now: float,
        max_count: int = cfg.ADDR_RESPONSE_MAX,
        max_pct: int = cfg.ADDR_RESPONSE_MAX_PCT,
        tried_only: bool = False,
    ) -> List[TimestampedAddr]:
        """Sample stored records for an ADDR response.

        ``tried_only`` implements the §V addressing refinement.  Terrible
        addresses discovered during sampling are evicted and skipped, so a
        GETADDR-heavy workload also ages the tables (as in Core) — which
        is why the walk runs over a copy of the record columns.
        """
        if tried_only:
            pool = self._tried._rec[:]
        else:
            pool = self._new._rec + self._tried._rec
        pool_len = len(pool)
        limit = min(max_count, max(1, pool_len * max_pct // 100)) if pool else 0
        # Lazy partial Fisher-Yates: step ``i`` draws a uniform element
        # from the un-picked tail, so stopping once ``limit`` good
        # entries are collected yields exactly the same distribution as
        # shuffling the whole pool and walking its prefix — at O(limit)
        # RNG draws instead of O(pool).  GETADDR pools grow with the
        # network, so the full shuffle was a dominant per-event cost in
        # paper-scale runs.
        rand = self._rng.random
        tries_get = self._tries.get
        horizon = self.horizon
        out: List[TimestampedAddr] = []
        for i in range(pool_len):
            if len(out) >= limit:
                break
            # int(random() * k) is a single C call per draw; see the
            # module docstring's uniform-selection deviation note.
            j = i + int(rand() * (pool_len - i))
            record = pool[j]
            pool[j] = pool[i]
            addr, timestamp = record
            if is_terrible(timestamp, tries_get(addr, _NEVER_TRIED), now, horizon):
                self.remove(addr)
            else:
                out.append(record)
        return out
