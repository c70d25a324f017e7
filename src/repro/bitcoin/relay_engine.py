"""Block and transaction relay, extracted from the node.

The :class:`RelayEngine` owns relay *mechanics*: BIP152 compact-block
push to high-bandwidth peers vs. INV/GETDATA announcement, and the
Poisson inv trickle (per-peer timers for outbound connections, one
shared timer for all inbound connections, as Bitcoin Core's
``PoissonNextSendInbound`` does to blunt timing-based topology
inference).  Relay *policy* — peer ordering, queue priority, inv
targets — comes from the node's registered
:class:`~repro.bitcoin.policy.RelayPolicy` variant.

Relay *measurement* (the :class:`~repro.bitcoin.relay.RelayTracker` and
``first_relay_at``) stays on the node — it is experiment surface, read
by the §IV-C/§IV-D drivers, not protocol state.

All RNG draws come from the owning node's stream in the same order the
pre-extraction node made them, and all queue callbacks are bound methods
(snapshot-picklable, lint-clean).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from .mempool import Transaction
from .messages import BlockMsg, CmpctBlock, Inv, InvItem, InvType, Message
from .peer import Peer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .blockchain import Block
    from .node import BitcoinNode


class RelayEngine:
    """Relay policy + trickle timers for one full-tier node."""

    __slots__ = ("node", "inbound_trickle_armed")

    def __init__(self, node: "BitcoinNode") -> None:
        self.node = node
        #: The shared inbound trickle timer is pending.
        self.inbound_trickle_armed = False

    # ------------------------------------------------------------------
    # Relay entry points
    # ------------------------------------------------------------------
    def relay_block(self, block: "Block") -> None:
        node = self.node
        policy = node.policy.relay
        to_front = policy.block_to_front
        tracker = node.relay_tracker
        # One INV per block, shared by every peer it is announced to: the
        # message is immutable in flight (as with forwarded ADDRs).
        announcement: Optional[Inv] = None
        for peer in policy.block_order(node.established_peers):
            if block.block_id in peer.known_blocks:
                continue
            peer.known_blocks.add(block.block_id)
            if node.config.compact_blocks and peer.wants_cmpct_hb:
                message: Message = CmpctBlock(block=block)
            else:
                if announcement is None:
                    announcement = Inv(items=(block.inv,))
                message = announcement
            peer.enqueue_send(message, to_front=to_front)
            if tracker is not None:
                tracker.enqueued(block.block_id)

    def relay_tx(self, tx: Transaction, exclude: Optional[Peer]) -> None:
        node = self.node
        tracker = node.relay_tracker
        for peer in node.policy.relay.tx_targets(node):
            if peer is exclude or tx.txid in peer.known_txs:
                continue
            peer.pending_tx_invs.add(tx.txid)
            if tracker is not None:
                tracker.enqueued(tx.txid)
            self.schedule_trickle(peer)

    # ------------------------------------------------------------------
    # Poisson inv trickle
    # ------------------------------------------------------------------
    def schedule_trickle(self, peer: Peer) -> None:
        """Arm the Poisson inv-trickle timer covering ``peer``."""
        node = self.node
        if peer.is_inbound:
            if self.inbound_trickle_armed:
                return
            mean = node.config.tx_inv_interval_inbound
            delay = node._rng.expovariate(1.0 / mean) if mean > 0 else 0.0
            self.inbound_trickle_armed = True
            node.sim.schedule(delay, self._flush_inbound_tx_invs)
            return
        if peer.next_tx_inv_at > node.sim.now:
            return  # timer already pending
        mean = node.config.tx_inv_interval_outbound
        delay = node._rng.expovariate(1.0 / mean) if mean > 0 else 0.0
        peer.next_tx_inv_at = node.sim.now + delay
        node.sim.schedule(delay, self._flush_tx_invs, peer)

    def _flush_inbound_tx_invs(self) -> None:
        self.inbound_trickle_armed = False
        node = self.node
        if not node.running:
            return
        for peer in list(node.peers.values()):
            if peer.is_inbound:
                self._flush_peer_invs(peer)

    def _flush_tx_invs(self, peer: Peer) -> None:
        peer.next_tx_inv_at = 0.0
        self._flush_peer_invs(peer)

    def _flush_peer_invs(self, peer: Peer) -> None:
        node = self.node
        if peer.socket not in node.peers or not peer.established:
            return
        if not peer.pending_tx_invs:
            return
        txids = sorted(peer.pending_tx_invs)
        peer.pending_tx_invs.clear()
        peer.known_txs.update(txids)
        peer.enqueue_send(
            Inv(items=tuple(InvItem(InvType.TX, txid) for txid in txids))
        )
        node._wake_handler()

    # ------------------------------------------------------------------
    # Measurement tap (called by the handler loop per completed send)
    # ------------------------------------------------------------------
    def note_relayed(self, message: Message, completed_at: float) -> None:
        """Record relay completions for the §IV-C measurement."""
        node = self.node
        if node.first_relay_at is None and isinstance(
            message, (BlockMsg, CmpctBlock)
        ):
            node.first_relay_at = completed_at
        tracker = node.relay_tracker
        if tracker is None:
            return
        if isinstance(message, (BlockMsg, CmpctBlock)):
            tracker.relayed(message.block_id, completed_at)
        elif isinstance(message, Inv):
            for item in message.items:
                tracker.relayed(item.object_id, completed_at)
