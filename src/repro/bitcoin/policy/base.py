"""The narrow decision interfaces behind the policy registry.

Every place the node stack used to branch on a ``PolicyConfig`` boolean
is now a call through one of these interfaces:

* :class:`AddrPolicy` — how ADDR responses are sourced and capped, and
  how long the tried table retains unseen addresses (the §V addressing
  and tried-table refinements live here);
* :class:`RelayPolicy` — in what order and with what queue priority
  blocks and transactions are relayed (§V block-relay prioritization);
* :class:`ConnPolicy` — how outbound-connection targets are selected
  under churn;
* :class:`LightTierPolicy` — which light-cloud endpoints deviate from
  the default unreachable profile (the hook the ``unreachable-relay``
  variant uses to turn a fraction of the cloud into relay assists).

Determinism contract (pinned by the digest-equivalence tests):

* a policy may only draw randomness through objects handed to it
  (``addrman``'s RNG, the node's stream) — never through module-level
  RNGs or wall clocks;
* the **baseline** implementations must make *exactly* the RNG draws,
  in exactly the order, of the pre-registry boolean-flag code paths, so
  the ``baseline`` variant replays bit-identically against historical
  runs;
* policy objects are stateless after construction (plain floats/bools
  from the resolved knob dict), which keeps them trivially picklable —
  they ride inside node snapshots.

Implementations take one positional argument: the *effective knob
dict* (variant defaults overlaid with the config's params), so the
registry can build any variant uniformly.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from ...simnet.addresses import NetAddr, TimestampedAddr
    from ..addrman import AddrMan
    from ..light import LightNodeProfile
    from ..node import BitcoinNode
    from ..peer import Peer

__all__ = ["AddrPolicy", "ConnPolicy", "LightTierPolicy", "RelayPolicy"]


class AddrPolicy:
    """ADDR sourcing, response caps, and the tried-table horizon."""

    #: Eviction horizon of the tried table, in days (§V shortens 30→17).
    horizon_days: float

    def getaddr_records(
        self, addrman: "AddrMan", now: float
    ) -> "List[TimestampedAddr]":
        """Sample the addrman for a GETADDR response."""
        raise NotImplementedError

    def crawl_gossip(
        self,
        reachable: "List[TimestampedAddr]",
        unreachable: "List[TimestampedAddr]",
    ) -> "List[TimestampedAddr]":
        """Compose a gossiped table at population scale.

        The longitudinal model materializes crawler-visible tables from
        a reachable and an unreachable sample of last-seen records; this
        hook decides what the population actually gossips.  The baseline
        concatenates both (addresses spread with no notion of
        reachability — the §IV-B weakness); tried-only gossip keeps just
        the reachable part.
        """
        raise NotImplementedError


class RelayPolicy:
    """Block/tx relay ordering and queue priority."""

    #: Jump block announcements ahead of queued replies in vSendMessage
    #: (the §V head-of-line fix).
    block_to_front: bool

    def block_order(self, peers: "Sequence[Peer]") -> "List[Peer]":
        """Order peers for one block-relay pass."""
        raise NotImplementedError

    def tx_targets(self, node: "BitcoinNode") -> "Iterable[Peer]":
        """Peers considered for a transaction inv (before exclusions)."""
        raise NotImplementedError


class ConnPolicy:
    """Outbound-connection target selection."""

    def select_target(self, node: "BitcoinNode", now: float) -> "Optional[NetAddr]":
        """Pick the next outbound candidate (or ``None`` to back off)."""
        raise NotImplementedError


class LightTierPolicy:
    """Per-endpoint profile override for the light cloud.

    ``profile_for`` must be a pure function of the address (no RNG
    draws, no clock reads): the cloud materializes and re-materializes
    endpoints lazily under churn, and the same address must get the
    same profile every time regardless of visit order.
    """

    def profile_for(self, addr: "NetAddr") -> "Optional[LightNodeProfile]":
        """Profile for ``addr``, or ``None`` for the cloud default."""
        raise NotImplementedError
