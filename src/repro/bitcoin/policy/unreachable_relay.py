"""``unreachable-relay``: Franzoni & Daza's unreachable-node tx relay.

Their observation: the ~90% of the network that never accepts inbound
connections still *hears* every transaction, and letting it re-announce
what it hears adds propagation paths at zero infrastructure cost.  Here
a deterministic ``assist_fraction`` of the light cloud runs an "assist"
profile: the endpoint listens, completes the version handshake, and
relays transactions between its sessions (inv → getdata → tx), while
remaining a light-tier object — no addrman, no chain, no RNG draws.

Modeling deviation, noted once: real unreachable assists re-announce
over their existing *outbound* connections (they cannot accept).  The
light tier has no outbound machinery, so assists accept inbound instead
— full nodes dial the gossiped unreachable addresses anyway (the §IV-B
"no notion of reachability" selection), and an accepted dial puts the
assist exactly where a real assist's outbound link would be: an
established session between one full node and one unreachable host.
The propagation graph gains the same extra edges; only the SYN
direction differs.

Assist selection hashes the address (SplitMix64, no RNG draws), so
membership is a pure function of the address — stable across lazy
cloud materialization, churn re-targeting, and snapshot/restore.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Optional

from ..addrman import _mix64
from ..config import ADDRMAN_HORIZON_DAYS
from ..light import LightNodeProfile
from .base import LightTierPolicy
from .registry import PolicyVariant, register
from .variants import StandardAddrPolicy, StandardConnPolicy, StandardRelayPolicy

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ...simnet.addresses import NetAddr

__all__ = ["ASSIST_LIGHT_PROFILE", "UnreachableRelayLightPolicy"]

#: The assist profile, shared by every assist endpoint (frozen, one
#: instance — pickling dedupes it across the whole cloud).
ASSIST_LIGHT_PROFILE = LightNodeProfile(listen=True, relay_txs=True)

#: Salt keeping assist membership independent of the /16-netgroup and
#: addrman bucket hashes that also mix the raw IP.
_ASSIST_SALT = 0x9E3779B97F4A7C15


class UnreachableRelayLightPolicy(LightTierPolicy):
    """Mark a deterministic address slice of the cloud as relay assists."""

    def __init__(self, knobs: Dict[str, Any]) -> None:
        self.assist_fraction: float = knobs["assist_fraction"]
        #: ``_mix64`` spreads uniformly over 64 bits, so comparing the
        #: mixed address against ``fraction * 2**64`` selects the slice.
        self._threshold: int = int(self.assist_fraction * 2**64)

    def profile_for(self, addr: "NetAddr") -> Optional[LightNodeProfile]:
        if _mix64(addr.ip ^ _ASSIST_SALT) < self._threshold:
            return ASSIST_LIGHT_PROFILE
        return None


register(
    PolicyVariant(
        name="unreachable-relay",
        description=(
            "Franzoni & Daza: a deterministic fraction of unreachable "
            "(light-tier) endpoints assists transaction propagation"
        ),
        defaults={
            "addr_from_tried_only": False,
            "tried_horizon_days": ADDRMAN_HORIZON_DAYS,
            "prioritize_block_relay": False,
            "assist_fraction": 0.25,
        },
        addr_factory=StandardAddrPolicy,
        relay_factory=StandardRelayPolicy,
        conn_factory=StandardConnPolicy,
        light_factory=UnreachableRelayLightPolicy,
    )
)
