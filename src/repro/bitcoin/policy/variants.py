"""The §V family: ``baseline`` (Core v0.20.1) and ``improved``.

These are the behaviors extracted from the pre-registry boolean flags.
The determinism contract is strict here: :class:`StandardAddrPolicy`,
:class:`StandardRelayPolicy`, and :class:`StandardConnPolicy` at
baseline knob values must make *exactly* the calls (and therefore RNG
draws) the inlined code made, so the ``baseline`` variant replays
bit-identically against the pre-refactor path.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional, Sequence

from ..config import ADDRMAN_HORIZON_DAYS
from ..relay import relay_order
from .base import AddrPolicy, ConnPolicy, RelayPolicy
from .registry import PolicyVariant, register

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from ...simnet.addresses import NetAddr, TimestampedAddr
    from ..addrman import AddrMan
    from ..node import BitcoinNode
    from ..peer import Peer

__all__ = [
    "StandardAddrPolicy",
    "StandardConnPolicy",
    "StandardRelayPolicy",
]


class StandardAddrPolicy(AddrPolicy):
    """Core's ADDR sourcing, with the §V tried-only/horizon knobs."""

    def __init__(self, knobs: Dict[str, Any]) -> None:
        self.tried_only: bool = knobs["addr_from_tried_only"]
        self.horizon_days: float = knobs["tried_horizon_days"]

    def getaddr_records(
        self, addrman: "AddrMan", now: float
    ) -> "List[TimestampedAddr]":
        return addrman.get_addr(now, tried_only=self.tried_only)

    def crawl_gossip(
        self,
        reachable: "List[TimestampedAddr]",
        unreachable: "List[TimestampedAddr]",
    ) -> "List[TimestampedAddr]":
        if self.tried_only:
            return reachable
        return reachable + unreachable


class StandardRelayPolicy(RelayPolicy):
    """Arrival-order relay; §V flips outbound-first + front-of-queue."""

    def __init__(self, knobs: Dict[str, Any]) -> None:
        prioritize: bool = knobs["prioritize_block_relay"]
        self.block_to_front: bool = prioritize
        self.outbound_first: bool = prioritize

    def block_order(self, peers: "Sequence[Peer]") -> "List[Peer]":
        return relay_order(peers, outbound_first=self.outbound_first)

    def tx_targets(self, node: "BitcoinNode") -> "Iterable[Peer]":
        return node.established_peer_list()


class StandardConnPolicy(ConnPolicy):
    """Core's fair new/tried coin flip, with the bias as a knob."""

    def __init__(self, knobs: Dict[str, Any]) -> None:
        self.tried_bias: float = knobs.get("tried_bias", 0.5)

    def select_target(
        self, node: "BitcoinNode", now: float
    ) -> "Optional[NetAddr]":
        return node.addrman.select(now, tried_bias=self.tried_bias)


register(
    PolicyVariant(
        name="baseline",
        description=(
            "Bitcoin Core v0.20.1 as the paper measured it: ADDR answered "
            "from new+tried, 30-day tried horizon, arrival-order relay"
        ),
        defaults={
            "addr_from_tried_only": False,
            "tried_horizon_days": ADDRMAN_HORIZON_DAYS,
            "prioritize_block_relay": False,
        },
        addr_factory=StandardAddrPolicy,
        relay_factory=StandardRelayPolicy,
        conn_factory=StandardConnPolicy,
    )
)

register(
    PolicyVariant(
        name="improved",
        description=(
            "All three §V refinements: tried-only ADDR, 17-day tried "
            "horizon, prioritized block relay"
        ),
        defaults={
            "addr_from_tried_only": True,
            "tried_horizon_days": 17.0,
            "prioritize_block_relay": True,
        },
        addr_factory=StandardAddrPolicy,
        relay_factory=StandardRelayPolicy,
        conn_factory=StandardConnPolicy,
    )
)
