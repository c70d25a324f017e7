"""Network addresses for the simulated internet.

Addresses are IPv4-like ``(ip, port)`` pairs.  The ``ip`` is stored as a
32-bit integer, which keeps :class:`NetAddr` hashable and cheap — whole
simulations hold hundreds of thousands of them (the paper observed ~694K
unique unreachable addresses).

Both record types are tuple subclasses rather than dataclasses: an
address is hashed/compared millions of times per run (every dict/set of
peers, addrman tables, latency cache), and a tuple gets C-level
``__hash__``/``__eq__``/field access.  The hash VALUE is identical to
the frozen-dataclass ``hash((ip, port))`` these classes replaced —
set/dict iteration order feeds deterministic figure outputs, so the
representation change is observable only as speed.

``group16`` reproduces Bitcoin Core's notion of a *netgroup* (the /16
prefix), which drives addrman bucketing and outbound-diversity rules.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Iterable, List, NamedTuple

#: Bitcoin's default P2P port; 95.78% of reachable nodes in the paper's
#: measurement used it.
DEFAULT_PORT = 8333

_tuple_new = tuple.__new__


class NetAddr(namedtuple("_NetAddrBase", ("ip", "port"))):
    """An (ip, port) endpoint in the simulated network."""

    __slots__ = ()

    def __new__(cls, ip: int, port: int = DEFAULT_PORT) -> "NetAddr":
        if not 0 <= ip <= 0xFFFFFFFF:
            raise ValueError(f"ip must fit in 32 bits, got {ip}")
        if not 0 < port <= 0xFFFF:
            raise ValueError(f"port must be in 1..65535, got {port}")
        return _tuple_new(cls, (ip, port))

    @property
    def group16(self) -> int:
        """The /16 netgroup of the address (upper 16 bits of the IP)."""
        return self[0] >> 16

    @property
    def dotted(self) -> str:
        """Dotted-quad rendering of the IP."""
        ip = self[0]
        return f"{ip >> 24 & 0xFF}.{ip >> 16 & 0xFF}.{ip >> 8 & 0xFF}.{ip & 0xFF}"

    @classmethod
    def parse(cls, text: str) -> "NetAddr":
        """Parse ``"a.b.c.d"`` or ``"a.b.c.d:port"`` into a :class:`NetAddr`.

        Parsed addresses are interned through a bounded cache: repeated
        parses of the same text (config files, exported CSVs, fault-plan
        targets) return the *same* object, so large address sets loaded
        from disk share storage instead of duplicating tuples.

        >>> NetAddr.parse("10.0.0.1:8333").dotted
        '10.0.0.1'
        """
        cached = _parse_cache.get(text)
        if cached is not None:
            return cached
        host, sep, port_text = text.partition(":")
        port = int(port_text) if sep else DEFAULT_PORT
        parts = host.split(".")
        if len(parts) != 4:
            raise ValueError(f"not a dotted-quad address: {text!r}")
        ip = 0
        for part in parts:
            octet = int(part)
            if not 0 <= octet <= 255:
                raise ValueError(f"octet out of range in {text!r}")
            ip = (ip << 8) | octet
        addr = cls(ip=ip, port=port)
        if len(_parse_cache) >= _PARSE_CACHE_MAX:
            # Evict oldest insertions (FIFO): parse workloads are bursts
            # of distinct addresses, so plain insertion age is as good as
            # LRU here and needs no per-hit bookkeeping.
            for stale in list(_parse_cache)[: _PARSE_CACHE_MAX // 2]:
                del _parse_cache[stale]
        _parse_cache[text] = addr
        return addr

    def __str__(self) -> str:
        return f"{self.dotted}:{self.port}"


#: Bounded intern cache for :meth:`NetAddr.parse` (text -> NetAddr).
_PARSE_CACHE_MAX = 65536
_parse_cache: dict = {}


class TimestampedAddr(NamedTuple):
    """An address plus the freshness timestamp carried in ADDR messages.

    Bitcoin nodes gossip ``(address, last-seen-time)`` pairs; the timestamp
    influences relay decisions and addrman eviction.  It is when the
    *sender* last saw the address, not when it answered: a record is
    stored once and relayed as stored, so many tables and many responses
    may share one record object.
    """

    addr: NetAddr
    timestamp: float

    def __str__(self) -> str:
        return f"{self.addr}@{self.timestamp:.0f}"


def stamp(addrs: Iterable[NetAddr], when: float) -> List[TimestampedAddr]:
    """One ``(addr, when)`` record per address, in order."""
    return [TimestampedAddr(addr, when) for addr in addrs]
