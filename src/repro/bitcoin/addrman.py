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
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..simnet.addresses import NetAddr, TimestampedAddr
from ..simnet import rand
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


@dataclass(slots=True)
class AddrInfo:
    """Bookkeeping for one known address.

    Slotted: a scale run holds hundreds of thousands of these per node
    population, and the per-instance ``__dict__`` of a plain dataclass
    roughly doubles their footprint.
    """

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
    bucket: int = -1
    #: Memoized GETADDR-response record for the current ``timestamp``
    #: (addresses are re-sampled across many responses, so reusing the
    #: record avoids re-allocating an identical tuple each time).
    record: Optional[TimestampedAddr] = None

    def is_terrible(self, now: float, horizon: float) -> bool:
        """Core's ``AddrInfo::IsTerrible`` eviction predicate."""
        if self.last_try >= now - 60.0:
            return False  # tried in the last minute: leave it alone
        if self.timestamp > now + 10 * 60.0:
            return True  # timestamp from the future
        if self.timestamp < now - horizon:
            return True  # not seen within the horizon
        if self.last_success < 0 and self.attempts >= cfg.ADDRMAN_RETRIES:
            return True  # never succeeded
        if (
            self.last_success >= 0
            and self.last_success < now - cfg.ADDRMAN_MIN_FAIL_DAYS * DAYS
            and self.attempts >= cfg.ADDRMAN_MAX_FAILURES
        ):
            return True
        return False


class _Table:
    """One addrman table: capped buckets plus a flat index for O(1) picks."""

    def __init__(self, bucket_count: int, bucket_size: int, rng: random.Random):
        self.bucket_count = bucket_count
        self.bucket_size = bucket_size
        self._rng = rng
        self._buckets: Dict[int, List[NetAddr]] = {}
        self._flat: List[NetAddr] = []
        self._pos: Dict[NetAddr, int] = {}

    def __len__(self) -> int:
        return len(self._flat)

    def __contains__(self, addr: NetAddr) -> bool:
        return addr in self._pos

    def bucket_len(self, bucket: int) -> int:
        return len(self._buckets.get(bucket, ()))

    def insert(self, addr: NetAddr, bucket: int) -> Optional[NetAddr]:
        """Insert ``addr``; return an evicted address if the bucket was full."""
        if addr in self._pos:
            return None
        slot = self._buckets.setdefault(bucket, [])
        evicted = None
        if len(slot) >= self.bucket_size:
            victim_index = int(self._rng.random() * len(slot))
            evicted = slot[victim_index]
            slot[victim_index] = addr
            self._remove_flat(evicted)
        else:
            slot.append(addr)
        self._pos[addr] = len(self._flat)
        self._flat.append(addr)
        return evicted

    def remove(self, addr: NetAddr, bucket: int) -> None:
        slot = self._buckets.get(bucket)
        if slot is not None:
            try:
                slot.remove(addr)
            except ValueError:
                pass
            if not slot:
                del self._buckets[bucket]
        self._remove_flat(addr)

    def _remove_flat(self, addr: NetAddr) -> None:
        index = self._pos.pop(addr, None)
        if index is None:
            return
        last = self._flat.pop()
        if last != addr:
            self._flat[index] = last
            self._pos[last] = index

    def random_addr(self) -> Optional[NetAddr]:
        flat = self._flat
        if not flat:
            return None
        return flat[int(self._rng.random() * len(flat))]

    def sample(self, count: int) -> List[NetAddr]:
        count = min(count, len(self._flat))
        return rand.sample(self._rng, self._flat, count)

    def all_addresses(self) -> List[NetAddr]:
        return list(self._flat)


class AddrMan:
    """The address manager of one node."""

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
        self._info: Dict[NetAddr, AddrInfo] = {}
        self._new = _Table(new_buckets, bucket_size, rng)
        self._tried = _Table(tried_buckets, bucket_size, rng)

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
        return len(self._info)

    def __contains__(self, addr: NetAddr) -> bool:
        return addr in self._info

    def info(self, addr: NetAddr) -> Optional[AddrInfo]:
        """The bookkeeping record for ``addr``, or None if unknown."""
        return self._info.get(addr)

    def all_addresses(self) -> List[NetAddr]:
        """Every address in either table."""
        return list(self._info)

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
        """Learn ``addr`` (ADDR gossip / DNS seed).  True if newly added.

        An address already known only has its gossiped timestamp refreshed
        (Core applies a similar update rule); a new address lands in the
        new table, evicting a random occupant of a full bucket.
        """
        stamp = now if timestamp is None else min(timestamp, now + 600.0)
        existing = self._info.get(addr)
        if existing is not None:
            if stamp > existing.timestamp:
                existing.timestamp = stamp
            return False
        info = AddrInfo(addr=addr, source=source, timestamp=stamp)
        info.bucket = self._new_bucket(addr, source)
        evicted = self._new.insert(addr, info.bucket)
        if evicted is not None:
            self._info.pop(evicted, None)
        self._info[addr] = info
        return True

    def add_many(
        self,
        records: Sequence[TimestampedAddr],
        now: float,
        source: Optional[NetAddr] = None,
    ) -> int:
        """Bulk :meth:`add` for a whole ADDR message.  Returns # added.

        Processing ADDR gossip record-by-record through :meth:`add` is
        the busiest addrman entry point in a scale run (GETADDR replies
        carry up to 1000 records), so the per-record loop is inlined
        here with the lookups hoisted.  Semantics are record-for-record
        identical to calling ``add(record.addr, now, source,
        record.timestamp)`` in order — including the timestamp clamp and
        the eviction draw order — so same-seed figures do not move.
        """
        info_map = self._info
        new_insert = self._new.insert
        key = self._key
        bucket_count = self._new.bucket_count
        source_group = (source[0] >> 16) if source is not None else 0
        clamp = now + 600.0
        added = 0
        for record in records:
            addr = record.addr
            timestamp = record.timestamp
            stamp = timestamp if timestamp < clamp else clamp
            existing = info_map.get(addr)
            if existing is not None:
                if stamp > existing.timestamp:
                    existing.timestamp = stamp
                continue
            info = AddrInfo(addr=addr, source=source, timestamp=stamp)
            # _new_bucket with _mix64 unrolled — arithmetic identical to
            # the method, sans two Python calls per new record.
            x = (key ^ (addr[0] & 0xFFFF0000) ^ source_group) & 0xFFFFFFFFFFFFFFFF
            x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
            x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
            info.bucket = bucket = (x ^ (x >> 31)) % bucket_count
            evicted = new_insert(addr, bucket)
            if evicted is not None:
                info_map.pop(evicted, None)
            info_map[addr] = info
            added += 1
        return added

    def attempt(self, addr: NetAddr, now: float) -> None:
        """Record a connection attempt to ``addr``."""
        info = self._info.get(addr)
        if info is None:
            return
        info.last_try = now
        info.attempts += 1

    def good(self, addr: NetAddr, now: float) -> None:
        """Record a successful connection: promote ``addr`` to tried."""
        info = self._info.get(addr)
        if info is None:
            # Learned through an inbound path we never gossiped; adopt it.
            self.add(addr, now)
            info = self._info[addr]
        info.last_success = now
        info.last_try = now
        info.timestamp = now
        info.attempts = 0
        if info.in_tried:
            return
        self._new.remove(addr, info.bucket)
        info.in_tried = True
        info.bucket = self._tried_bucket(addr)
        evicted = self._tried.insert(addr, info.bucket)
        if evicted is not None:
            # Core moves the displaced tried entry back to new; we follow.
            displaced = self._info.get(evicted)
            if displaced is not None:
                displaced.in_tried = False
                displaced.bucket = self._new_bucket(evicted, displaced.source)
                re_evicted = self._new.insert(evicted, displaced.bucket)
                if re_evicted is not None:
                    self._info.pop(re_evicted, None)

    def remove(self, addr: NetAddr) -> None:
        """Forget ``addr`` entirely."""
        info = self._info.pop(addr, None)
        if info is None:
            return
        table = self._tried if info.in_tried else self._new
        table.remove(addr, info.bucket)

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
        for _ in range(8):
            if new_only:
                use_tried = False
            elif len(self._tried) == 0:
                use_tried = False
            elif len(self._new) == 0:
                use_tried = True
            else:
                use_tried = self._rng.random() < tried_bias
            table = self._tried if use_tried else self._new
            addr = table.random_addr()
            if addr is None:
                return None
            info = self._info[addr]
            if info.is_terrible(now, self.horizon):
                self.remove(addr)
                continue
            return addr
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
        """Sample addresses for an ADDR response.

        ``tried_only`` implements the §V addressing refinement.  Terrible
        addresses discovered during sampling are evicted and skipped, so a
        GETADDR-heavy workload also ages the tables (as in Core).
        """
        if tried_only:
            pool = self._tried.all_addresses()
        else:
            pool = self._new.all_addresses() + self._tried.all_addresses()
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
        info_map = self._info
        horizon = self.horizon
        out: List[TimestampedAddr] = []
        i = 0
        while i < pool_len and len(out) < limit:
            # int(random() * k) is a single C call per draw; see the
            # module docstring's uniform-selection deviation note.
            j = i + int(rand() * (pool_len - i))
            addr = pool[j]
            pool[j] = pool[i]
            i += 1
            info = info_map[addr]
            if info.is_terrible(now, horizon):
                self.remove(addr)
                continue
            record = info.record
            if record is None or record.timestamp != info.timestamp:
                record = TimestampedAddr(addr=addr, timestamp=info.timestamp)
                info.record = record
            out.append(record)
        return out

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def evict_terrible(self, now: float) -> int:
        """Proactively evict every terrible address.  Returns the count.

        Core does this lazily; the explicit sweep exists for experiments
        that measure table composition after a horizon change (§V).
        """
        victims = [
            addr
            for addr, info in self._info.items()
            if info.is_terrible(now, self.horizon)
        ]
        for addr in victims:
            self.remove(addr)
        return len(victims)
