"""Per-connection protocol state.

A :class:`Peer` is one side of one established connection, holding exactly
the structures the paper reverse-engineered from ``net.cpp`` (Fig. 9):

* ``process_queue`` — the per-peer ``vProcessMsg`` filled by the socket
  handler and drained one message per round-robin pass;
* ``send_queue`` — the per-peer ``vSendMessage`` filled by message
  processing and drained one message per socket-handler pass.

Everything else is handshake and relay bookkeeping (known inventory,
trickle timers, compact-block negotiation).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Optional, Set

from ..simnet.addresses import NetAddr
from ..simnet.simulator import canonical_sets
from ..simnet.transport import Socket
from .messages import Message

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .node import BitcoinNode


@canonical_sets(
    "known_blocks",
    "known_txs",
    "pending_tx_invs",
    "blocks_in_flight",
)
class Peer:
    """One established connection, from this node's point of view."""

    __slots__ = (
        "node",
        "socket",
        "remote_addr",
        "is_inbound",
        "version_received",
        "verack_received",
        "established",
        "remote_height",
        "process_queue",
        "send_queue",
        "known_blocks",
        "known_txs",
        "known_addrs",
        "pending_tx_invs",
        "next_tx_inv_at",
        "wants_cmpct_hb",
        "sent_getaddr",
        "served_getaddr",
        "addr_messages_received",
        "addrs_received",
        "reachable_addrs_received",
        "connected_at",
        "blocks_in_flight",
    )

    def __init__(
        self,
        socket: Socket,
        connected_at: float,
        node: Optional["BitcoinNode"] = None,
    ) -> None:
        #: The owning node; enqueues register this peer in its dirty maps
        #: so a handler pass only visits peers with queued work.
        self.node = node
        self.socket = socket
        self.remote_addr: NetAddr = socket.remote_addr
        self.is_inbound: bool = socket.is_inbound
        self.version_received = False
        self.verack_received = False
        self.established = False
        #: Chain height the peer claimed in its VERSION message.
        self.remote_height = -1
        #: vProcessMsg: messages received, awaiting the handler thread.
        self.process_queue: Deque[Message] = deque()
        #: vSendMessage: responses awaiting the socket handler.
        self.send_queue: Deque[Message] = deque()
        #: Inventory this peer is known to have (suppress re-announcement).
        self.known_blocks: Set[int] = set()
        self.known_txs: Set[int] = set()
        #: Core's ``m_addr_known``: one bit per address of the world's
        #: ``Network.addr_index``, set once the peer is known to have it.
        #: The node grows it as the index grows; a bit past its end is
        #: clear.
        self.known_addrs = bytearray()
        #: Transactions queued behind the Poisson trickle timer.
        self.pending_tx_invs: Set[int] = set()
        #: When the trickle timer next fires (absolute sim time).
        self.next_tx_inv_at: float = 0.0
        #: Peer negotiated high-bandwidth BIP152 (push CMPCTBLOCK directly).
        self.wants_cmpct_hb = False
        #: We already sent GETADDR on this connection.
        self.sent_getaddr = False
        #: We already answered a GETADDR from this peer (Core ignores repeats).
        self.served_getaddr = False
        #: ADDR accounting used by the malicious-peer detector (§IV-B).
        self.addr_messages_received = 0
        self.addrs_received = 0
        self.reachable_addrs_received = 0
        self.connected_at = connected_at
        #: Block ids we have requested from this peer and not yet received.
        self.blocks_in_flight: Set[int] = set()

    @property
    def direction(self) -> str:
        return "inbound" if self.is_inbound else "outbound"

    def enqueue_send(self, message: Message, to_front: bool = False) -> None:
        """Append a message to vSendMessage (front-insert for §V priority)."""
        if to_front:
            self.send_queue.appendleft(message)
        else:
            self.send_queue.append(message)
        node = self.node
        if node is not None:
            node.dirty_send[self] = None

    def enqueue_process(self, message: Message) -> None:
        """Append a received message to vProcessMsg (socket-handler side)."""
        self.process_queue.append(message)
        node = self.node
        if node is not None:
            node.dirty_process[self] = None

    def __repr__(self) -> str:
        state = "established" if self.established else "handshaking"
        return f"Peer({self.remote_addr}, {self.direction}, {state})"
