"""The round-robin message-handler engine (paper Fig. 9 / Alg. 3).

Extracted from the node so the loop — the hottest protocol code in the
simulator — lives in one place with its two pieces of state: the
"one pass already scheduled" latch and the uplink-serialization horizon.

Each pass services connections **round-robin, one message per peer**:
one receive from each ``vProcessMsg`` (dispatching into the node's
protocol handlers), then one send from each ``vSendMessage``.  Sends
serialize on the node's uplink, so a block queued behind pending replies
reaches the last connection late — the §IV-C relaying delay the paper
measures.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .node import BitcoinNode

#: Smallest gap between consecutive handler passes when work remains.
_MIN_PASS_GAP = 0.001


class HandlerLoop:
    """SocketHandler + ThreadMessageHandler for one full-tier node."""

    __slots__ = (
        "node",
        "scheduled",
        "uplink_free_at",
        "dirty_process",
        "dirty_send",
        "_clock",
        "_schedule_pass",
    )

    def __init__(self, node: "BitcoinNode") -> None:
        self.node = node
        #: True while a pass sits on the event queue (wake() latch).
        self.scheduled = False
        #: When the node's uplink finishes its last queued transmission.
        self.uplink_free_at = 0.0
        self._clock = node.sim.clock
        # Handler passes are never cancelled, so they ride the
        # scheduler's no-cancel lane (no EventHandle per pass).
        self._schedule_pass = node.sim.scheduler.lane_schedule
        # Peers with queued work, in enqueue order (dicts keep insertion
        # order, so iteration is deterministic).  A pass visits only
        # these instead of scanning every connection: typical passes
        # service one or two peers out of dozens, and the full scan was
        # the dominant per-event cost at paper scale.  Peers enter via
        # Peer.enqueue_send / Peer.enqueue_process and leave when a pass
        # drains their queue (or their socket is gone).
        self.dirty_process: "dict" = {}
        self.dirty_send: "dict" = {}

    def reset(self, now: float) -> None:
        """Re-arm the uplink horizon on node start."""
        self.uplink_free_at = now
        self.dirty_process.clear()
        self.dirty_send.clear()

    def wake(self) -> None:
        """Schedule a handler pass unless one is already pending."""
        if self.scheduled or not self.node.running:
            return
        self.scheduled = True
        self._schedule_pass(0.0, self.run_pass, None)

    def run_pass(self, _lane_payload=None) -> None:  # repro-lint: hot
        self.scheduled = False
        node = self.node
        if not node.running:
            return
        # This is the hottest protocol loop in the simulator (one pass per
        # message burst on every node), so the per-iteration constants —
        # config values, the dispatch table, and the clock, none of which
        # change mid-pass — are hoisted to locals.
        peers = node.peers
        config = node.config
        now = self._clock._now
        busy = 0.0
        # --- ThreadMessageHandler: one message per peer per pass ---
        # Round-robin over the peers with pending messages, one message
        # each (Alg. 3 fairness); a peer with a still-non-empty queue is
        # re-marked for the next pass.
        dirty_process = self.dirty_process
        if dirty_process:
            proc_time = config.proc_times.get
            default_proc_time = config.default_proc_time
            dispatch = node._DISPATCH.get
            batch = list(dirty_process)
            dirty_process.clear()
            for peer in batch:
                if peer.socket not in peers:
                    continue  # dropped by an earlier handler in this pass
                queue = peer.process_queue
                if not queue:
                    continue
                message = queue.popleft()
                busy += proc_time(message.command, default_proc_time)
                handler = dispatch(message.command)
                if handler is not None:
                    handler(node, peer, message)
                if queue:
                    dirty_process[peer] = None
        # --- SocketHandler: one send per peer per pass, uplink-serialized ---
        # Snapshot taken after phase 1 so sends enqueued by the handlers
        # above go out in this same pass, as with the full scan.
        dirty_send = self.dirty_send
        uplink_free_at = self.uplink_free_at
        if dirty_send:
            send_epoch = now + busy
            uplink_bandwidth = config.uplink_bandwidth
            note_relayed = node.relay.note_relayed
            deliver = node.sim.network._deliver
            batch = list(dirty_send)
            dirty_send.clear()
            for peer in batch:
                queue = peer.send_queue
                socket = peer.socket
                if not queue or not socket.open:
                    continue
                message = queue.popleft()
                # Socket.send inlined: its open-check already ran above,
                # and the wire size feeding the uplink delay doubles as
                # the byte accounting (one property read, not two).
                size = message.wire_size
                start = send_epoch if send_epoch > uplink_free_at else uplink_free_at
                done = start + size / uplink_bandwidth
                uplink_free_at = done
                deliver(socket, message, done - now)
                socket.bytes_sent += size
                socket.messages_sent += 1
                note_relayed(message, done)
                if queue:
                    dirty_send[peer] = None
        self.uplink_free_at = uplink_free_at
        # --- reschedule if work remains ---
        if dirty_process or dirty_send:
            self.scheduled = True
            self._schedule_pass(
                busy if busy > _MIN_PASS_GAP else _MIN_PASS_GAP,
                self.run_pass,
                None,
            )
