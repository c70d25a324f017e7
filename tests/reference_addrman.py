"""The reference address manager: a test oracle for ``repro.bitcoin.addrman``.

One ``ReferenceAddrInfo`` object per known address in one dict, and per
table a plain list of addresses plus one list per bucket — the layout
``src/`` retired, kept here because it is the layout the rules are
easiest to read in.  It is written from the paper's §IV-B description
and the constants in ``repro.bitcoin.config``:

* ADDR gossip lands in the **new** table, in the bucket keyed by (own
  key, address /16, source /16); a full bucket gives up one uniformly
  drawn occupant, whose slot the newcomer takes;
* a successful connection moves the address to the **tried** table,
  bucketed by (own key, ip, port); the occupant a full tried bucket
  gives up goes back to new under the source it was learned from;
* a re-announced address only has its last-seen time moved forward, and
  no announcement can claim to be more than ten minutes in the future;
* an address is *terrible* when its last-seen time is more than ten
  minutes ahead or past the horizon (30 days; 17 in the §V refinement),
  when it never succeeded in ``ADDRMAN_RETRIES`` attempts, or when it
  failed ``ADDRMAN_MAX_FAILURES`` times since a success more than
  ``ADDRMAN_MIN_FAIL_DAYS`` ago — unless it was tried in the last
  minute.  Terrible addresses are dropped when ``select`` or
  ``get_addr`` draws them, never by a sweep;
* ``select`` flips a coin (weight ``tried_bias``) between the tables
  when both hold something and draws uniformly inside the chosen one,
  at most eight times;
* ``get_addr`` answers with ``ADDR_RESPONSE_MAX_PCT`` percent of what is
  known, at most ``ADDR_RESPONSE_MAX``, drawn without replacement.

Nothing is hoisted, unrolled or indexed: membership is a dict lookup on
the one info map, positions are found with ``list.index``, the bucket
hash calls :func:`mix64`.  What *is* shared with production, because the
oracle is compared draw for draw (``tests/test_addrman_oracle.py``), is
the order things are kept in and the way a uniform index is drawn:
removal moves a table's last address into the hole, a bucket victim is
replaced in place, and every pick is ``int(rng.random() * n)``.
``get_addr`` draws by a partial Fisher-Yates walk over new-then-tried.

One quirk is recorded rather than repaired, because figures were made
with it: "never tried" is stored as ``last_try = -1.0``, and ``-1.0`` is
within a minute of any ``now`` below 59 s — so during the first
simulated minute a never-tried address passes for a just-tried one and
cannot be terrible (``TestQuirks`` in the oracle test pins it by name).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.bitcoin import config as cfg
from repro.simnet.addresses import NetAddr, TimestampedAddr
from repro.units import DAYS

MASK64 = 0xFFFFFFFFFFFFFFFF


def mix64(x: int) -> int:
    """SplitMix64's finalizer (Steele, Lea & Flood 2014)."""
    x &= MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
    return x ^ (x >> 31)


@dataclass
class ReferenceAddrInfo:
    addr: NetAddr
    source: Optional[NetAddr]
    timestamp: float
    last_try: float = -1.0
    last_success: float = -1.0
    attempts: int = 0
    in_tried: bool = False
    bucket: int = -1

    def is_terrible(self, now: float, horizon: float) -> bool:
        if self.last_try >= now - 60.0:
            return False
        if self.timestamp > now + 10 * 60.0:
            return True
        if self.timestamp < now - horizon:
            return True
        if self.last_success < 0 and self.attempts >= cfg.ADDRMAN_RETRIES:
            return True
        return (
            self.last_success >= 0
            and self.last_success < now - cfg.ADDRMAN_MIN_FAIL_DAYS * DAYS
            and self.attempts >= cfg.ADDRMAN_MAX_FAILURES
        )


class ReferenceTable:
    def __init__(self, bucket_count: int, bucket_size: int, rng: random.Random):
        self.bucket_count = bucket_count
        self.bucket_size = bucket_size
        self.rng = rng
        self.buckets: Dict[int, List[NetAddr]] = {}
        self.order: List[NetAddr] = []

    def insert(self, addr: NetAddr, bucket: int) -> Optional[NetAddr]:
        """Place ``addr``; the address a full bucket gave up, if any."""
        members = self.buckets.setdefault(bucket, [])
        evicted = None
        if len(members) >= self.bucket_size:
            victim = int(self.rng.random() * len(members))
            evicted = members[victim]
            members[victim] = addr
            self.drop_from_order(evicted)
        else:
            members.append(addr)
        self.order.append(addr)
        return evicted

    def remove(self, addr: NetAddr, bucket: int) -> None:
        members = self.buckets[bucket]
        members.remove(addr)
        if not members:
            del self.buckets[bucket]
        self.drop_from_order(addr)

    def drop_from_order(self, addr: NetAddr) -> None:
        index = self.order.index(addr)
        last = self.order.pop()
        if index < len(self.order):
            self.order[index] = last


class ReferenceAddrMan:
    def __init__(
        self,
        rng: random.Random,
        new_buckets: int = cfg.ADDRMAN_NEW_BUCKET_COUNT,
        tried_buckets: int = cfg.ADDRMAN_TRIED_BUCKET_COUNT,
        bucket_size: int = cfg.ADDRMAN_BUCKET_SIZE,
        horizon_days: float = cfg.ADDRMAN_HORIZON_DAYS,
        key: int = 0,
    ) -> None:
        self.rng = rng
        self.key = key
        self.horizon = horizon_days * DAYS
        self.infos: Dict[NetAddr, ReferenceAddrInfo] = {}
        self.new = ReferenceTable(new_buckets, bucket_size, rng)
        self.tried = ReferenceTable(tried_buckets, bucket_size, rng)

    def __len__(self) -> int:
        return len(self.infos)

    def __contains__(self, addr: NetAddr) -> bool:
        return addr in self.infos

    def info(self, addr: NetAddr) -> Optional[ReferenceAddrInfo]:
        return self.infos.get(addr)

    def new_bucket(self, addr: NetAddr, source: Optional[NetAddr]) -> int:
        source_group = source.group16 if source is not None else 0
        return mix64(
            self.key ^ (addr.group16 << 16) ^ source_group
        ) % self.new.bucket_count

    def tried_bucket(self, addr: NetAddr) -> int:
        return mix64(
            self.key ^ (addr.ip << 16) ^ addr.port
        ) % self.tried.bucket_count

    def add(
        self,
        addr: NetAddr,
        now: float,
        source: Optional[NetAddr] = None,
        timestamp: Optional[float] = None,
    ) -> bool:
        stamp = now if timestamp is None else min(timestamp, now + 600.0)
        known = self.infos.get(addr)
        if known is not None:
            known.timestamp = max(known.timestamp, stamp)
            return False
        info = ReferenceAddrInfo(addr=addr, source=source, timestamp=stamp)
        self.place_in_new(info)
        self.infos[addr] = info
        return True

    def add_many(
        self,
        records: Sequence[TimestampedAddr],
        now: float,
        source: Optional[NetAddr] = None,
    ) -> int:
        return sum(
            self.add(record.addr, now, source, record.timestamp)
            for record in records
        )

    def place_in_new(self, info: ReferenceAddrInfo) -> None:
        info.in_tried = False
        info.bucket = self.new_bucket(info.addr, info.source)
        evicted = self.new.insert(info.addr, info.bucket)
        if evicted is not None:
            del self.infos[evicted]

    def attempt(self, addr: NetAddr, now: float) -> None:
        info = self.infos.get(addr)
        if info is not None:
            info.last_try = now
            info.attempts += 1

    def good(self, addr: NetAddr, now: float) -> None:
        if addr not in self.infos:
            self.add(addr, now)
        info = self.infos[addr]
        info.last_success = info.last_try = info.timestamp = now
        info.attempts = 0
        if info.in_tried:
            return
        self.new.remove(addr, info.bucket)
        info.in_tried = True
        info.bucket = self.tried_bucket(addr)
        displaced = self.tried.insert(addr, info.bucket)
        if displaced is not None:
            self.place_in_new(self.infos[displaced])

    def remove(self, addr: NetAddr) -> None:
        info = self.infos.pop(addr, None)
        if info is not None:
            table = self.tried if info.in_tried else self.new
            table.remove(addr, info.bucket)

    def select(
        self, now: float, new_only: bool = False, tried_bias: float = 0.5
    ) -> Optional[NetAddr]:
        for _ in range(8):
            if new_only or not self.tried.order:
                table = self.new
            elif not self.new.order:
                table = self.tried
            elif self.rng.random() < tried_bias:
                table = self.tried
            else:
                table = self.new
            if not table.order:
                return None
            addr = table.order[int(self.rng.random() * len(table.order))]
            if not self.infos[addr].is_terrible(now, self.horizon):
                return addr
            self.remove(addr)
        return None

    def get_addr(
        self,
        now: float,
        max_count: int = cfg.ADDR_RESPONSE_MAX,
        max_pct: int = cfg.ADDR_RESPONSE_MAX_PCT,
        tried_only: bool = False,
    ) -> List[TimestampedAddr]:
        pool = list(self.tried.order)
        if not tried_only:
            pool = list(self.new.order) + pool
        if not pool:
            return []
        limit = min(max_count, max(1, len(pool) * max_pct // 100))
        out: List[TimestampedAddr] = []
        for picked in range(len(pool)):
            if len(out) >= limit:
                break
            drawn = picked + int(self.rng.random() * (len(pool) - picked))
            addr = pool[drawn]
            pool[drawn] = pool[picked]
            info = self.infos[addr]
            if info.is_terrible(now, self.horizon):
                self.remove(addr)
            else:
                out.append(TimestampedAddr(addr, info.timestamp))
        return out
