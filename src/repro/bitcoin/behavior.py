"""The node-behavior contract shared by every simulated peer tier.

A *node behavior* is anything the transport can hand a connection or a
message to.  Two tiers implement it:

* :class:`~repro.bitcoin.node.BitcoinNode` — the **full** tier: addrman,
  blockchain, mempool, the round-robin handler engine, relay.  One
  instance costs on the order of a hundred kilobytes; protocol scenarios
  use it for the measured vantage and the reachable network.
* :class:`~repro.bitcoin.light.LightNode` — the **light** tier: a thin
  version/verack/ping/addr/getaddr surface with O(1) per-node state,
  used for the statistical unreachable cloud that the paper only ever
  observes from the outside (probes and address gossip).

The split mirrors the paper's measurement reality: the vantage point and
its reachable peers are observed at protocol fidelity, while the ~24x
larger unreachable population is characterised purely by how it answers
unsolicited packets (Wang & Pustogarov; Grundmann et al.).  Calibration
metrics are therefore drawn only from full-tier nodes.

The contract is duck-typed — the transport never isinstance-checks — but
the base class pins the attribute names down and supplies the inert
defaults so a tier only overrides what it actually does:

* ``fidelity`` — ``"full"`` or ``"light"``; the transport's tier census
  reads this.
* ``running`` / ``start()`` / ``stop()`` — lifecycle; ``depart()`` is
  the stop a churn departure makes, after which the behavior never
  starts again and may release whatever only a running node needs.
* ``on_inbound_connection(socket) -> bool`` — accept or refuse.
* ``on_message(socket, message)`` / ``on_disconnect(socket)`` — the
  connection-handler half of the transport contract.
"""

from __future__ import annotations

from typing import Any

from ..simnet.transport import Socket

#: Tier tags, read by the transport's tier census.
FIDELITY_FULL = "full"
FIDELITY_LIGHT = "light"


class NodeBehavior:
    """Base class for per-address protocol behaviors (node tiers).

    Deliberately carries **no** instance state and declares empty
    ``__slots__``: the light tier packs its whole state into a handful
    of slots, and a ``__dict__`` smuggled in through the base class
    would silently cost more than everything else combined.
    """

    __slots__ = ()

    #: Tier tag; subclasses override.
    fidelity: str = FIDELITY_FULL

    # -- lifecycle ------------------------------------------------------
    def start(self) -> None:
        """Bring the behavior online (register with the transport)."""
        raise NotImplementedError

    def stop(self) -> None:
        """Take the behavior offline."""
        raise NotImplementedError

    def depart(self) -> None:
        """Take the behavior offline for good (a churn departure)."""
        self.stop()

    # -- transport contract ---------------------------------------------
    def on_inbound_connection(self, socket: Socket) -> bool:
        """Accept (True) or refuse an inbound connection."""
        return False

    def on_message(self, socket: Socket, message: Any) -> None:
        """A message arrived on an established connection."""

    def on_disconnect(self, socket: Socket) -> None:
        """The remote side (or the network) closed the connection."""


__all__ = [
    "FIDELITY_FULL",
    "FIDELITY_LIGHT",
    "NodeBehavior",
]
