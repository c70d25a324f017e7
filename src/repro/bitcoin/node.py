"""The simulated Bitcoin node (full tier).

This is a Python rendering of the Bitcoin Core v0.20.1 architecture the
paper reverse-engineered (§IV-B, §IV-C), as one object:

* **Connections** — ThreadOpenConnections (one outbound attempt at a
  time, targets drawn from addrman's new/tried tables with *no
  reachability information*) and the ~2-minute feeler probes, with the
  Fig. 6/7 attempt log.
* **The handler pass** — SocketHandler / ThreadMessageHandler (paper
  Fig. 9, Alg. 3): round-robin passes, one message per peer, sends
  serialized on the node's uplink (the §IV-C relaying delay).
* **Protocol handlers** — one ``_handle_<command>`` method per message
  command; :attr:`BitcoinNode._DISPATCH` is built from those names, for
  this class and for every subclass, so an override is dispatched
  without being registered anywhere.
* **Relay** — BIP152 compact blocks with high-bandwidth peers, INV/GETDATA
  otherwise, Poisson inv trickle, and the §V relay-priority policies.

Around those sit identity (addr/config/RNG), the data planes (addrman,
chain, mempool, peers) and the measurement surface (tip history, relay
tracker, attempt log).  The :class:`~repro.bitcoin.light.LightNode` tier
implements the same :class:`~repro.bitcoin.behavior.NodeBehavior`
contract in O(1) memory for the unreachable cloud.

Every RNG call comes from the one ``("node", addr)`` stream, and callbacks
placed on the event queue are bound methods or ``functools.partial``
objects, never closures, so simulator snapshots keep pickling.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import ProtocolError
from ..simnet.addresses import NetAddr, TimestampedAddr, stamp
from ..simnet.rand import derive_seed
from ..simnet.simulator import Simulator
from ..simnet.transport import AddressIndex, Socket
from ..units import MiB
from . import config as cfg
from .addrman import AddrMan
from .behavior import FIDELITY_FULL, NodeBehavior
from .blockchain import Block, Blockchain
from .config import NodeConfig
from .mempool import Mempool, Transaction
from .messages import (
    GETADDR,
    PONG0,
    VERACK,
    Addr,
    BlockMsg,
    BlockTxn,
    CmpctBlock,
    GetAddr,
    GetBlocks,
    GetBlockTxn,
    GetData,
    Inv,
    InvItem,
    InvType,
    Message,
    Ping,
    Pong,
    SendCmpct,
    TxMsg,
    Verack,
    Version,
)
from .peer import Peer
from .relay import RelayTracker, relay_order

__all__ = ["BitcoinNode", "ConnectionAttempt"]

#: The messages :meth:`BitcoinNode._note_relayed` records; a send of
#: any other (an ADDR, most often) skips the call.
_RELAY_NOTED = frozenset((BlockMsg, CmpctBlock, Inv))

#: Bytes a known-address bitmap is regrown past the index's end, so
#: the next 512 new addresses do not each regrow it.
_BITMAP_SLACK = 64

#: Smallest gap between consecutive handler passes when work remains.
_MIN_PASS_GAP = 0.001

#: Pause between outbound connection attempts (ThreadOpenConnections
#: sleeps 500 ms between iterations).
CONNECT_RETRY_INTERVAL = 0.5
#: CPU cost charged per processed message, by command (seconds; the
#: message handler of paper Fig. 9 / Alg. 3).  A command absent here
#: costs ``DEFAULT_PROC_TIME``.
PROC_TIMES = {
    "block": 0.060,
    "cmpctblock": 0.015,
    "blocktxn": 0.030,
    "addr": 0.004,
    "getaddr": 0.006,
    "tx": 0.002,
}
DEFAULT_PROC_TIME = 0.001
#: Upload bandwidth serializing all sends (bytes/second).  1.25 MB/s
#: approximates the 10 Mbit/s uplink of a 2020 home node.
UPLINK_BANDWIDTH = 1.25 * MiB

_HANDLER_PREFIX = "_handle_"


def _dispatch_table(cls: type) -> Dict[str, Callable]:
    """``command -> handler`` from ``cls``'s ``_handle_<command>`` methods."""
    return {
        name[len(_HANDLER_PREFIX):]: getattr(cls, name)
        for name in dir(cls)
        if name.startswith(_HANDLER_PREFIX)
    }


@dataclass(slots=True)
class ConnectionAttempt:
    """One outbound connection attempt and its outcome (Fig. 7 data)."""

    started_at: float
    finished_at: float
    target: NetAddr
    outcome: str  # "success", "failed", or "feeler-success"/"feeler-failed"

    @property
    def succeeded(self) -> bool:
        return self.outcome.endswith("success")

    @property
    def duration(self) -> float:
        return self.finished_at - self.started_at


class _FeelerHandler:
    """Socket handler for feeler connections: connect, verify, drop."""

    def on_message(self, socket: Socket, message: Message) -> None:
        pass  # a feeler never processes protocol traffic

    def on_disconnect(self, socket: Socket) -> None:
        pass


def _widened(peer: Peer, index: AddressIndex) -> bytearray:
    """``peer``'s known-address bitmap, regrown past the index's end.

    Regrown by copy, not in place: ``bytearray.extend`` over-allocates
    by an eighth, and a copy keeps a peer at one bit per indexed address
    plus the fixed slack.
    """
    known = peer.known_addrs
    known = peer.known_addrs = known + bytes(
        (len(index) >> 3) + _BITMAP_SLACK - len(known)
    )
    return known


class BitcoinNode(NodeBehavior):
    """A Bitcoin peer: reachable (listening) or unreachable (NAT'd)."""

    fidelity = FIDELITY_FULL

    #: command -> ``_handle_<command>``; rebuilt for every subclass.
    _DISPATCH: Dict[str, Callable] = {}

    # A full node has more attributes than CPython keeps in an
    # instance's inline values (29 on CPython 3.11); past that every
    # instance grows a separate ``__dict__`` and every attribute read on
    # the hot path takes the slower dict route (≈ 4 % of a 150-node
    # gossip run's wall time).  Slots keep the state inline.  Subclasses
    # (the adversaries) add a ``__dict__`` for their own fields only.
    __slots__ = (
        "sim", "addr", "config", "_clock", "_rng", "addrman",
        "chain", "mempool", "peers", "_inbound", "_peer_addrs", "running",
        "started_at", "departed", "_addr_index",
        # connections
        "attempt_log", "active_feelers", "_attempt_in_flight",
        "_connect_event", "_feeler_task",
        # the handler pass
        "_pass_scheduled", "uplink_free_at", "_schedule_pass", "_run_pass",
        "dirty_process", "dirty_send",
        # relay and the periodic rounds
        "_inbound_trickle_armed", "_getaddr_task",
        "_established_cache", "_pending_cmpct",
        # measurement
        "relay_tracker", "first_relay_at", "tip_history", "on_tip_advanced",
    )

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        cls._DISPATCH = _dispatch_table(cls)

    def __init__(
        self,
        sim: Simulator,
        addr: NetAddr,
        config: Optional[NodeConfig] = None,
    ) -> None:
        self.sim = sim
        self.addr = addr
        self.config = config if config is not None else NodeConfig()
        self.config.validate()
        #: Hot-path alias for ``sim.clock`` (message handlers read the
        #: time once per delivered message).
        self._clock = sim.clock
        self._rng = sim.random.stream("node", str(addr))
        self.addrman = AddrMan(
            rng=self._rng,
            horizon_days=self.config.policies.tried_horizon_days,
            key=derive_seed(sim.seed, "addrman", str(addr)),
        )
        self.chain = Blockchain()
        self.mempool = Mempool()
        self.peers: Dict[Socket, Peer] = {}
        # Kept beside ``peers`` by _adopt_socket / _release_peer (the
        # only two places it changes) so the connection checks every
        # attempt makes are O(1): inbound peers, and peers per remote
        # address.
        self._inbound = 0
        self._peer_addrs: Dict[NetAddr, int] = {}
        #: The world's address numbering, which ``Peer.known_addrs``
        #: bitmaps are over (``sim.network.addr_index``).
        self._addr_index = sim.network.addr_index
        self.running = False
        self.started_at: Optional[float] = None
        #: Set by :meth:`depart`: the node left for good and this object
        #: is the record of it.
        self.departed = False
        # -- connections --
        #: Fig. 7 measurement: every logged attempt and its outcome.
        self.attempt_log: List[ConnectionAttempt] = []
        #: Feeler connections currently in flight (they occupy sockets
        #: but not outbound slots; polling counts them — Fig. 6).
        self.active_feelers = 0
        self._attempt_in_flight = False
        self._connect_event = None
        self._feeler_task = None
        # -- the handler pass --
        #: True while a pass sits on the event queue (the wake latch).
        self._pass_scheduled = False
        #: When the node's uplink finishes its last queued transmission.
        self.uplink_free_at = 0.0
        # Handler passes are never cancelled, so they ride the
        # scheduler's no-cancel lane (no EventHandle per pass).
        self._schedule_pass = sim.scheduler.lane_schedule
        # Bound once: a pass is scheduled per message burst, and each
        # ``self.run_pass`` read would make a fresh bound method.
        self._run_pass = self.run_pass
        # Peers with queued work, in enqueue order (dicts keep insertion
        # order, so iteration is deterministic).  A pass visits only
        # these instead of scanning every connection: typical passes
        # service one or two peers out of dozens, and the full scan was
        # the dominant per-event cost at paper scale.  Peers enter via
        # on_message / Peer.enqueue_send and leave when a pass drains
        # their queue (or their socket is gone).
        self.dirty_process: Dict[Peer, None] = {}
        self.dirty_send: Dict[Peer, None] = {}
        # -- relay --
        #: The shared inbound trickle timer is pending.
        self._inbound_trickle_armed = False
        self._getaddr_task = None
        # Cached list of established peers, in peers-dict (connection)
        # order; rebuilt lazily after any membership or handshake-state
        # change.  ADDR forwarding consults it per gossiped record, so
        # recomputing it by scanning every connection was an O(peers)
        # cost on every ADDR message at paper scale.
        self._established_cache: Optional[List[Peer]] = None
        # Compact blocks awaiting missing transactions: block_id -> Block.
        self._pending_cmpct: Dict[int, Block] = {}
        # Measurement hooks.
        self.relay_tracker: Optional[RelayTracker] = (
            RelayTracker() if self.config.track_relay_times else None
        )
        self.first_relay_at: Optional[float] = None
        #: (time, height) each time the tip advanced — lets monitors ask
        #: "what height did this node report when last polled at t".
        self.tip_history: List[Tuple[float, int]] = [(0.0, 0)]
        #: Invoked with (self, block) whenever our tip advances.
        self.on_tip_advanced: Optional[Callable[["BitcoinNode", Block], None]] = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def outbound_count(self) -> int:
        """Current outbound connections, excluding feelers."""
        return len(self.peers) - self._inbound

    @property
    def outbound_count_with_feelers(self) -> int:
        """What ``getconnectioncount``-style polling sees (Fig. 6)."""
        return self.outbound_count + self.active_feelers

    @property
    def inbound_count(self) -> int:
        return self._inbound

    def established_peer_list(self) -> List[Peer]:
        """Established peers in connection order.

        Cached (see ``__init__``) and shared by every caller: read it,
        never mutate it.  A membership change drops the cache instead of
        editing the list, so a caller iterating it is never disturbed.
        """
        cached = self._established_cache
        if cached is None:
            cached = self._established_cache = [
                peer for peer in self.peers.values() if peer.established
            ]
        return cached

    def height_at(self, when: float) -> int:
        """Chain height this node held at time ``when`` (tip history)."""
        index = bisect.bisect_right(self.tip_history, (when, float("inf")))
        return self.tip_history[index - 1][1] if index > 0 else 0

    def connection_success_rate(self) -> Optional[float]:
        """Fraction of logged non-feeler attempts that succeeded."""
        attempts = [
            a for a in self.attempt_log if not a.outcome.startswith("feeler")
        ]
        if not attempts:
            return None
        return sum(1 for a in attempts if a.succeeded) / len(attempts)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def bootstrap(self, addresses: Sequence[NetAddr]) -> int:
        """Seed the addrman (DNS-seeder bootstrap).  Returns # added."""
        self._refuse_if_departed("bootstrap")
        now = self.sim.now
        own = self.addr
        return self.addrman.add_many(
            stamp((addr for addr in addresses if addr != own), now), now
        )

    def start(self) -> None:
        """Bring the node online: listen, connect out, start feelers."""
        self._refuse_if_departed("start")
        if self.running:
            return
        self.running = True
        self.started_at = self.sim.now
        self.first_relay_at = None
        self.uplink_free_at = self.sim.now
        self.dirty_process.clear()
        self.dirty_send.clear()
        if self.config.listen:
            self.sim.network.listen(self.addr, self)
        self._ensure_connecting()
        if self.config.feelers_enabled:
            self._feeler_task = self.sim.call_every(
                cfg.FEELER_INTERVAL,
                self._try_feeler,
                start_delay=self._rng.uniform(0, cfg.FEELER_INTERVAL),
            )
        if self.config.getaddr_repeat_interval:
            self._getaddr_task = self.sim.call_every(
                self.config.getaddr_repeat_interval, self._send_getaddr_round
            )

    def stop(self) -> None:
        """Take the node offline, dropping every connection."""
        if not self.running:
            return
        self.running = False
        if self._getaddr_task is not None:
            self._getaddr_task.stop()
            self._getaddr_task = None
        if self._feeler_task is not None:
            self._feeler_task.stop()
            self._feeler_task = None
        if self._connect_event is not None:
            self._connect_event.cancel()
            self._connect_event = None
        self.active_feelers = 0
        self.sim.network.disconnect_host(self.addr)
        for socket in list(self.peers):
            self._release_peer(socket)
        self.dirty_process.clear()
        self.dirty_send.clear()
        self._pending_cmpct.clear()

    def restart(self) -> None:
        """Stop and immediately start again (the §IV-D resync experiment)."""
        self.stop()
        self.start()

    def depart(self) -> None:
        """Leave the network for good (a churn departure).

        A departure is final — a rejoining address gets a fresh
        ``BitcoinNode`` — so the node stops (peers and pending compact
        blocks go there) and then releases what only a running node
        needs: the addrman tables, the chain's block and orphan maps,
        the mempool.  What is left is the record monitors and figures
        read after the fact: ``addr``, ``name``, ``running``,
        ``started_at``, ``chain.height``, ``height_at``,
        ``tip_history``, ``attempt_log``,
        ``connection_success_rate()``, ``first_relay_at``,
        ``relay_tracker``.  :meth:`stop` alone (crash faults,
        :meth:`restart`) keeps all state.
        """
        self.stop()
        self.departed = True
        self.addrman = None
        self.chain.release()
        self.mempool = None

    def _refuse_if_departed(self, action: str) -> None:
        if self.departed:
            raise ProtocolError(
                f"{action} on departed node {self.addr}: a departure is "
                "final and released the node's state; a rejoining "
                "address gets a fresh BitcoinNode"
            )

    def lose_state(self) -> None:
        """Discard chain and mempool, as after an unclean crash.

        Used by crash faults (``repro.faults``): a node restarted after
        ``lose_state`` re-downloads the whole chain, the compressed
        analogue of a corrupted datadir forcing a full IBD.  Address
        tables survive (peers.dat outlives most crashes; losing it too
        would understate recovery).  Only legal while stopped.
        """
        if self.running:
            raise ProtocolError(f"lose_state on running node {self.addr}")
        self.chain = Blockchain()
        self.mempool = Mempool()
        self._pending_cmpct.clear()
        self.tip_history.append((self.sim.now, 0))

    # ------------------------------------------------------------------
    # ThreadOpenConnections
    # ------------------------------------------------------------------
    def _ensure_connecting(self) -> None:
        """Schedule the next outbound attempt if slots are unfilled."""
        if not self.running or self._attempt_in_flight:
            return
        if self.outbound_count >= self.config.max_outbound:
            return
        if self._connect_event is not None:
            return
        self._connect_event = self.sim.schedule(
            CONNECT_RETRY_INTERVAL, self._attempt_connection
        )

    def _attempt_connection(self) -> None:
        self._connect_event = None
        if not self.running or self.outbound_count >= self.config.max_outbound:
            return
        target = self.addrman.select(
            self.sim.now, tried_bias=self.config.policies.tried_bias
        )
        if target is None or target == self.addr or self._connected_to(target):
            self._ensure_connecting()
            return
        self.addrman.attempt(target, self.sim.now)
        self._attempt_in_flight = True
        started = self.sim.now
        self.sim.network.connect(
            self.addr,
            target,
            handler=self,
            # partial, not a lambda: the callback sits in the event queue
            # and must survive Simulator.snapshot() pickling.
            on_result=partial(self._connection_result, target, started),
        )

    def _connection_result(
        self, target: NetAddr, started: float, socket: Optional[Socket]
    ) -> None:
        self._attempt_in_flight = False
        if self.config.track_connection_attempts:
            self.attempt_log.append(
                ConnectionAttempt(
                    started_at=started,
                    finished_at=self.sim.now,
                    target=target,
                    outcome="success" if socket is not None else "failed",
                )
            )
        if not self.running:
            if socket is not None:
                socket.close()
            return
        if socket is None:
            self._ensure_connecting()
            return
        if self.outbound_count >= self.config.max_outbound:
            socket.close()  # slot got filled while we were handshaking
            self._ensure_connecting()
            return
        peer = self._adopt_socket(socket)
        peer.enqueue_send(
            Version(
                sender=self.addr,
                receiver=peer.remote_addr,
                start_height=self.chain.height,
            )
        )
        self._wake_handler()
        self._ensure_connecting()

    # Feelers (footnote 1 of the paper).
    def _try_feeler(self) -> None:
        if not self.running:
            return
        target = self.addrman.select(self.sim.now, new_only=True)
        if target is None or target == self.addr or self._connected_to(target):
            return
        self.addrman.attempt(target, self.sim.now)
        self.active_feelers += 1
        started = self.sim.now
        self.sim.network.connect(
            self.addr,
            target,
            handler=_FeelerHandler(),
            on_result=partial(self._feeler_result, target, started),
        )

    def _feeler_result(
        self, target: NetAddr, started: float, socket: Optional[Socket]
    ) -> None:
        self.active_feelers = max(0, self.active_feelers - 1)
        success = socket is not None
        if success:
            # A feeler can outlive its node's departure; the record has
            # no address tables left to credit.
            if not self.departed:
                self.addrman.good(target, self.sim.now)
            socket.close()
        if self.config.track_connection_attempts:
            self.attempt_log.append(
                ConnectionAttempt(
                    started_at=started,
                    finished_at=self.sim.now,
                    target=target,
                    outcome="feeler-success" if success else "feeler-failed",
                )
            )

    def _connected_to(self, target: NetAddr) -> bool:
        return target in self._peer_addrs

    def _adopt_socket(self, socket: Socket) -> Peer:
        peer = Peer(socket, connected_at=self.sim.now, node=self)
        socket.user_data = peer
        socket.handler = self
        self.peers[socket] = peer
        self._inbound += peer.is_inbound
        addrs = self._peer_addrs
        addrs[peer.remote_addr] = addrs.get(peer.remote_addr, 0) + 1
        return peer

    def _release_peer(self, socket: Socket) -> Optional[Peer]:
        """Take ``socket``'s peer out of ``peers``; None if it was not in.

        The node put the ``Peer`` in ``socket.user_data`` and takes it
        out again here: ``peer.socket`` points back, so a peer left in
        the slot is a cycle that keeps its ``known_*`` sets until a full
        collection, pinned meanwhile by whatever still holds the socket
        (its stale lifetime timer, for one).
        """
        peer = self.peers.pop(socket, None)
        if peer is not None:
            socket.user_data = None
            self._established_cache = None
            self._inbound -= peer.is_inbound
            addrs = self._peer_addrs
            left = addrs[peer.remote_addr] - 1
            if left:
                addrs[peer.remote_addr] = left
            else:
                del addrs[peer.remote_addr]
        return peer

    # ------------------------------------------------------------------
    # Transport callbacks
    # ------------------------------------------------------------------
    def on_inbound_connection(self, socket: Socket) -> bool:
        if not self.running or not self.config.listen:
            return False
        if self.inbound_count >= self.config.max_inbound:
            return False
        self._adopt_socket(socket)
        return True

    def on_message(self, socket: Socket, message: Message) -> None:
        peer = socket.user_data
        if peer is None or socket not in self.peers:
            return
        # vProcessMsg append + _wake_handler, inlined: this runs once
        # per delivered message, the single busiest protocol entry point
        # at paper scale.
        peer.process_queue.append(message)
        self.dirty_process[peer] = None
        if not self._pass_scheduled and self.running:
            self._pass_scheduled = True
            self._schedule_pass(0.0, self._run_pass, None)

    def on_disconnect(self, socket: Socket) -> None:
        peer = self._release_peer(socket)
        if peer is None:
            return
        if not peer.is_inbound:
            self._ensure_connecting()

    def _drop_connection(self, socket: Socket) -> None:
        """A spontaneous outbound-connection drop (lifetime expiry)."""
        peer = self._release_peer(socket)
        if peer is None or not self.running:
            return
        if socket.open:
            socket.close()
        self._ensure_connecting()

    # ------------------------------------------------------------------
    # SocketHandler + ThreadMessageHandler (paper Fig. 9 / Alg. 3)
    # ------------------------------------------------------------------
    def _wake_handler(self) -> None:
        """Schedule a handler pass unless one is already pending."""
        if self._pass_scheduled or not self.running:
            return
        self._pass_scheduled = True
        self._schedule_pass(0.0, self._run_pass, None)

    def run_pass(self, _lane_payload=None) -> None:  # repro-lint: hot
        """One round-robin pass: one receive, then one send, per peer."""
        self._pass_scheduled = False
        if not self.running:
            return
        # This is the hottest protocol loop in the simulator (one pass per
        # message burst on every node), so the per-iteration constants —
        # the cost and dispatch tables, and the clock, none of which
        # change mid-pass — are hoisted to locals.
        peers = self.peers
        now = self._clock._now
        busy = 0.0
        # --- ThreadMessageHandler: one message per peer per pass ---
        # Round-robin over the peers with pending messages, one message
        # each (Alg. 3 fairness); a peer with a still-non-empty queue is
        # re-marked for the next pass.
        dirty_process = self.dirty_process
        if dirty_process:
            proc_time = PROC_TIMES.get
            default_proc_time = DEFAULT_PROC_TIME
            dispatch = self._DISPATCH.get
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
                    handler(self, peer, message)
                if queue:
                    dirty_process[peer] = None
        # --- SocketHandler: one send per peer per pass, uplink-serialized ---
        # Snapshot taken after phase 1 so sends enqueued by the handlers
        # above go out in this same pass, as with the full scan.  Sends
        # serialize on the uplink, so a block queued behind pending
        # replies reaches the last connection late — the §IV-C relaying
        # delay the paper measures.
        dirty_send = self.dirty_send
        uplink_free_at = self.uplink_free_at
        if dirty_send:
            send_epoch = now + busy
            uplink_bandwidth = UPLINK_BANDWIDTH
            note_relayed = self._note_relayed
            relay_noted = _RELAY_NOTED
            deliver = self.sim.network._deliver
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
                if type(message) in relay_noted:
                    note_relayed(message, done, not peer.is_inbound)
                if queue:
                    dirty_send[peer] = None
        self.uplink_free_at = uplink_free_at
        # --- reschedule if work remains ---
        if dirty_process or dirty_send:
            self._pass_scheduled = True
            self._schedule_pass(
                busy if busy > _MIN_PASS_GAP else _MIN_PASS_GAP,
                self._run_pass,
                None,
            )

    # ------------------------------------------------------------------
    # Message processing: one ``_handle_<command>`` per command
    # ------------------------------------------------------------------
    def _handle_version(self, peer: Peer, message: Version) -> None:
        peer.version_received = True
        peer.remote_height = message.start_height
        if peer.is_inbound:
            peer.enqueue_send(
                Version(
                    sender=self.addr,
                    receiver=peer.remote_addr,
                    start_height=self.chain.height,
                )
            )
        peer.enqueue_send(VERACK)
        if peer.verack_received and not peer.established:
            self._on_established(peer)

    def _handle_verack(self, peer: Peer, message: Verack) -> None:
        peer.verack_received = True
        if not peer.established and peer.version_received:
            self._on_established(peer)

    def _on_established(self, peer: Peer) -> None:
        peer.established = True
        self._established_cache = None
        if not peer.is_inbound:
            self.addrman.good(peer.remote_addr, self.sim.now)
            if self.config.getaddr_on_connect:
                peer.enqueue_send(GETADDR)
                peer.sent_getaddr = True
            if self.config.connection_lifetime_mean:
                lifetime = self._rng.expovariate(
                    1.0 / self.config.connection_lifetime_mean
                )
                self.sim.schedule(lifetime, self._drop_connection, peer.socket)
        if self.config.listen:
            # Self-advertisement: "a node also sends its own IP address".
            peer.enqueue_send(
                Addr(addresses=(TimestampedAddr(self.addr, self.sim.now),))
            )
        high_bandwidth = self._rng.random() < self.config.hb_compact_fraction
        peer.enqueue_send(SendCmpct(high_bandwidth=high_bandwidth))
        self._maybe_sync_from(peer)

    def _handle_ping(self, peer: Peer, message: Ping) -> None:
        nonce = message.nonce
        peer.enqueue_send(PONG0 if nonce == 0 else Pong(nonce=nonce))

    def _handle_pong(self, peer: Peer, message: Pong) -> None:
        pass  # keepalive bookkeeping is irrelevant to the study

    def _handle_getaddr(self, peer: Peer, message: GetAddr) -> None:
        if peer.served_getaddr and not self.config.serve_repeated_getaddr:
            return
        peer.served_getaddr = True
        records = self.addrman.get_addr(
            self.sim.now,
            tried_only=self.config.policies.addr_from_tried_only,
        )
        response = self._build_addr_response(records)
        if response:
            peer.enqueue_send(Addr(addresses=tuple(response[:1000])))

    def _build_addr_response(
        self, records: List[TimestampedAddr]
    ) -> List[TimestampedAddr]:
        """Assemble the ADDR payload; subclasses (malicious nodes) override."""
        response = list(records)
        if self.config.listen:
            response.insert(0, TimestampedAddr(self.addr, self.sim.now))
        return response

    def _handle_addr(self, peer: Peer, message: Addr) -> None:
        records = message.addresses
        peer.addr_messages_received += 1
        peer.addrs_received += len(records)
        # Bulk path: addrman ingests the whole message in one call,
        # drawing the RNG exactly as the per-record loop it replaced.
        self.addrman.add_many(records, self._clock._now, peer.remote_addr)
        # Unsolicited small announcements are forwarded (Core relays fresh
        # addrs to a couple of peers); large getaddr replies are not.
        # Most carry a single record (forwarding re-wraps each record
        # individually, so chains stay single-record forever), and the
        # message is immutable, so such a one is relayed as-is instead
        # of allocating an identical copy.
        forward = 0 < len(records) <= cfg.ADDR_FORWARD_MAX
        reusable = message if len(records) == 1 else None
        # One index lookup per record serves the sender's bit and the
        # targets' test-and-set.
        index = self._addr_index
        known = peer.known_addrs
        for record in records:
            bit = index[record[0]]
            byte, mask = bit
            try:
                known[byte] |= mask
            except IndexError:
                known = _widened(peer, index)
                known[byte] |= mask
            if forward:
                self._forward_addr(peer, record, bit, reusable)

    def _forward_addr(
        self,
        origin: Peer,
        record: TimestampedAddr,
        bit: Tuple[int, int],
        reusable: Optional[Addr],
    ) -> None:
        """Relay ``record`` to up to two peers that do not know it yet."""
        pool = self.established_peer_list()
        count = len(pool)
        available = count - 1 if origin.established else count
        if available <= 0:
            return
        # Index draws use ``int(random() * n)``: one C-level call per
        # draw, against randrange()/sample()'s Python-level setup that
        # dominated ADDR forwarding in paper-scale profiles.  random()
        # carries 53 bits, so the rounding bias at protocol-size ``n``
        # is immeasurable.
        rand = self._rng.random
        # Draw fanout targets by rejection against the shared pool:
        # uniform without replacement over the non-origin established
        # peers — the same distribution as sampling from a dedicated
        # candidates list, without materialising that list per
        # message (an O(peers) scan per ADDR at paper scale).
        first = pool[int(rand() * count)]
        while first is origin:
            first = pool[int(rand() * count)]
        second = None
        if min(cfg.ADDR_FORWARD_FANOUT, available) >= 2:
            second = pool[int(rand() * count)]
            while second is origin or second is first:
                second = pool[int(rand() * count)]
        # Fanout is 1 or 2 (``ADDR_FORWARD_FANOUT``), fully unrolled:
        # no targets tuple, and Peer.enqueue_send inlined.  One ADDR
        # object per record, shared by both targets — the message is
        # immutable in flight, so relaying the same instance twice is
        # indistinguishable from two copies.  A bitmap too short for
        # the bit does not know the address.
        byte, mask = bit
        dirty_send = self.dirty_send
        forwarded = None
        known = first.known_addrs
        try:
            fresh = not known[byte] & mask
        except IndexError:
            known = _widened(first, self._addr_index)
            fresh = True
        if fresh:
            known[byte] |= mask
            forwarded = (
                reusable if reusable is not None else Addr(addresses=(record,))
            )
            first.send_queue.append(forwarded)
            dirty_send[first] = None
        if second is not None:
            known = second.known_addrs
            try:
                fresh = not known[byte] & mask
            except IndexError:
                known = _widened(second, self._addr_index)
                fresh = True
            if fresh:
                known[byte] |= mask
                if forwarded is None:
                    forwarded = (
                        reusable
                        if reusable is not None
                        else Addr(addresses=(record,))
                    )
                second.send_queue.append(forwarded)
                dirty_send[second] = None

    def _handle_inv(self, peer: Peer, message: Inv) -> None:
        # A GETBLOCKS reply names up to 500 blocks and at most
        # MAX_BLOCKS_IN_TRANSIT of them can be requested, so the
        # have-it-already tests run only while the window has room;
        # past that an announced block is just marked known.
        wanted: List[InvItem] = []
        block_type = InvType.BLOCK
        known_blocks = peer.known_blocks
        in_flight = peer.blocks_in_flight
        room = cfg.MAX_BLOCKS_IN_TRANSIT - len(in_flight)
        have = self.chain.blocks
        pending = self._pending_cmpct
        for item in message.items:
            object_id = item.object_id
            if item.type is block_type:
                known_blocks.add(object_id)
                if (
                    room > 0
                    and object_id not in have
                    and object_id not in in_flight
                    and object_id not in pending
                ):
                    in_flight.add(object_id)
                    wanted.append(item)
                    room -= 1
            else:
                peer.known_txs.add(object_id)
                if object_id not in self.mempool:
                    wanted.append(item)
        if wanted:
            peer.enqueue_send(GetData(items=tuple(wanted)))

    def _handle_getdata(self, peer: Peer, message: GetData) -> None:
        for item in message.items:
            if item.type is InvType.BLOCK:
                block = self.chain.get(item.object_id)
                if block is not None:
                    peer.known_blocks.add(block.block_id)
                    peer.enqueue_send(BlockMsg(block=block))
            else:
                tx = self.mempool.get(item.object_id)
                if tx is not None:
                    peer.known_txs.add(tx.txid)
                    peer.enqueue_send(TxMsg(txid=tx.txid, size=tx.size))

    def _handle_getblocks(self, peer: Peer, message: GetBlocks) -> None:
        items = self.chain.inv_above(message.from_height, limit=500)
        if items:
            peer.enqueue_send(Inv(items=items))

    def _handle_block(self, peer: Peer, message: BlockMsg) -> None:
        peer.blocks_in_flight.discard(message.block_id)
        self._accept_block(peer, message.block)

    def _handle_sendcmpct(self, peer: Peer, message: SendCmpct) -> None:
        peer.wants_cmpct_hb = message.high_bandwidth

    def _handle_cmpctblock(self, peer: Peer, message: CmpctBlock) -> None:
        block = message.block
        peer.known_blocks.add(block.block_id)
        if block.block_id in self.chain or block.block_id in self._pending_cmpct:
            return
        if self.relay_tracker is not None:
            self.relay_tracker.saw(block.block_id, "block", self.sim.now)
        missing = self.mempool.missing_from(block.txids)
        if not missing:
            self._accept_block(peer, block)
            return
        self._pending_cmpct[block.block_id] = block
        peer.enqueue_send(
            GetBlockTxn(block_id=block.block_id, txids=tuple(missing))
        )

    def _handle_getblocktxn(self, peer: Peer, message: GetBlockTxn) -> None:
        block = self.chain.get(message.block_id)
        if block is None:
            return
        total = 0
        for txid in message.txids:
            tx = self.mempool.get(txid)
            total += tx.size if tx is not None else 350
        peer.enqueue_send(
            BlockTxn(
                block_id=message.block_id,
                txids=tuple(message.txids),
                total_size=total,
            )
        )

    def _handle_blocktxn(self, peer: Peer, message: BlockTxn) -> None:
        block = self._pending_cmpct.pop(message.block_id, None)
        if block is None:
            return
        for txid in message.txids:
            self.mempool.add(Transaction(txid=txid, created_at=self.sim.now))
        self._accept_block(peer, block)

    def _handle_tx(self, peer: Peer, message: TxMsg) -> None:
        peer.known_txs.add(message.txid)
        tx = Transaction(txid=message.txid, size=message.size, created_at=self.sim.now)
        if not self.mempool.add(tx):
            return
        if self.relay_tracker is not None:
            self.relay_tracker.saw(tx.txid, "tx", self.sim.now)
        self.relay_tx(tx, exclude=peer)

    # ------------------------------------------------------------------
    # Block acceptance and local submissions
    # ------------------------------------------------------------------
    def _accept_block(self, peer: Optional[Peer], block: Block) -> None:
        """Accept a full (or reconstructed) block; relay on tip advance."""
        if self.relay_tracker is not None:
            self.relay_tracker.saw(block.block_id, "block", self.sim.now)
        if peer is not None:
            peer.known_blocks.add(block.block_id)
        if block.block_id in self.chain:
            return
        old_height = self.chain.height
        advanced = self.chain.add_block(block)
        self.mempool.remove_all(block.txids)
        if peer is not None and block.height > peer.remote_height:
            peer.remote_height = block.height
        if (
            not advanced
            and block.block_id not in self.chain
            and peer is not None
        ):
            # Stored as an orphan: we are missing ancestors.  Backfill
            # from the sender (headers-first recovery, simplified).
            if not peer.blocks_in_flight:
                peer.enqueue_send(GetBlocks(from_height=self.chain.height))
        if advanced:
            self.tip_history.append((self.sim.now, self.chain.height))
            # Relay every newly connected main-chain block (orphans may
            # connect several at once).
            for height in range(old_height + 1, self.chain.height + 1):
                connected = self.chain.block_at_height(height)
                if connected is not None:
                    self.relay_block(connected)
            if self.on_tip_advanced is not None:
                self.on_tip_advanced(self, self.chain.tip)
        if peer is not None:
            self._maybe_sync_from(peer)

    def submit_block(self, block: Block) -> None:
        """Inject a locally mined block (the mining process calls this)."""
        if self.relay_tracker is not None:
            self.relay_tracker.saw(block.block_id, "block", self.sim.now)
        self._accept_block(None, block)
        self._wake_handler()

    def submit_tx(self, tx: Transaction) -> None:
        """Inject a locally originated transaction (wallet behaviour)."""
        if not self.mempool.add(tx):
            return
        if self.relay_tracker is not None:
            self.relay_tracker.saw(tx.txid, "tx", self.sim.now)
        self.relay_tx(tx, exclude=None)
        self._wake_handler()

    def _send_getaddr_round(self) -> None:
        """Periodic GETADDR to every peer (request-load generation)."""
        if not self.running:
            return
        for peer in self.established_peer_list():
            peer.enqueue_send(GETADDR)
        self._wake_handler()

    # ------------------------------------------------------------------
    # Block and transaction relay
    # ------------------------------------------------------------------
    def relay_block(self, block: Block) -> None:
        """Push (BIP152 high-bandwidth) or announce ``block`` to every peer.

        §V prioritized relay (``PolicyConfig.prioritize_block_relay``)
        serves outbound peers first and jumps each send ahead of the
        queued replies.
        """
        prioritize = self.config.policies.prioritize_block_relay
        tracker = self.relay_tracker
        # One INV per block, shared by every peer it is announced to: the
        # message is immutable in flight (as with forwarded ADDRs).
        announcement: Optional[Inv] = None
        for peer in relay_order(self.established_peer_list(), prioritize):
            if block.block_id in peer.known_blocks:
                continue
            peer.known_blocks.add(block.block_id)
            if peer.wants_cmpct_hb:
                message: Message = CmpctBlock(block=block)
            else:
                if announcement is None:
                    announcement = Inv(items=(block.inv,))
                message = announcement
            peer.enqueue_send(message, to_front=prioritize)
            if tracker is not None:
                tracker.enqueued(block.block_id)

    def relay_tx(self, tx: Transaction, exclude: Optional[Peer]) -> None:
        """Queue ``tx`` behind each target peer's Poisson inv trickle."""
        tracker = self.relay_tracker
        for peer in self.established_peer_list():
            if peer is exclude or tx.txid in peer.known_txs:
                continue
            peer.pending_tx_invs.add(tx.txid)
            if tracker is not None:
                tracker.enqueued(tx.txid)
            self._schedule_trickle(peer)

    def _schedule_trickle(self, peer: Peer) -> None:
        """Arm the Poisson inv-trickle timer covering ``peer``.

        Per-peer timers for outbound connections, one shared timer for
        all inbound ones, as Bitcoin Core's ``PoissonNextSendInbound``
        does to blunt timing-based topology inference.
        """
        if peer.is_inbound:
            if self._inbound_trickle_armed:
                return
            mean = self.config.tx_inv_interval_inbound
            delay = self._rng.expovariate(1.0 / mean) if mean > 0 else 0.0
            self._inbound_trickle_armed = True
            self.sim.schedule(delay, self._flush_inbound_tx_invs)
            return
        if peer.next_tx_inv_at > self.sim.now:
            return  # timer already pending
        mean = self.config.tx_inv_interval_outbound
        delay = self._rng.expovariate(1.0 / mean) if mean > 0 else 0.0
        peer.next_tx_inv_at = self.sim.now + delay
        self.sim.schedule(delay, self._flush_tx_invs, peer)

    def _flush_inbound_tx_invs(self) -> None:
        self._inbound_trickle_armed = False
        if not self.running:
            return
        for peer in list(self.peers.values()):
            if peer.is_inbound:
                self._flush_peer_invs(peer)

    def _flush_tx_invs(self, peer: Peer) -> None:
        peer.next_tx_inv_at = 0.0
        self._flush_peer_invs(peer)

    def _flush_peer_invs(self, peer: Peer) -> None:
        if peer.socket not in self.peers or not peer.established:
            return
        if not peer.pending_tx_invs:
            return
        txids = sorted(peer.pending_tx_invs)
        peer.pending_tx_invs.clear()
        peer.known_txs.update(txids)
        peer.enqueue_send(
            Inv(items=tuple(InvItem(InvType.TX, txid) for txid in txids))
        )
        self._wake_handler()

    def _note_relayed(
        self, message: Message, completed_at: float, outbound: bool
    ) -> None:
        """Record a completed send for the §IV-C measurement
        (``outbound``: it went to an outbound peer)."""
        if self.first_relay_at is None and isinstance(
            message, (BlockMsg, CmpctBlock)
        ):
            self.first_relay_at = completed_at
        tracker = self.relay_tracker
        if tracker is None:
            return
        if isinstance(message, (BlockMsg, CmpctBlock)):
            tracker.relayed(message.block_id, completed_at, outbound)
        elif isinstance(message, Inv):
            for item in message.items:
                tracker.relayed(item.object_id, completed_at, outbound)

    # ------------------------------------------------------------------
    # Initial block download
    # ------------------------------------------------------------------
    def _maybe_sync_from(self, peer: Peer) -> None:
        """Ask ``peer`` for block inventory if it claims a longer chain."""
        if peer.remote_height > self.chain.height and not peer.blocks_in_flight:
            peer.enqueue_send(GetBlocks(from_height=self.chain.height))

    def __repr__(self) -> str:
        kind = "reachable" if self.config.listen else "unreachable"
        return (
            f"BitcoinNode({self.addr}, {kind}, height={self.chain.height}, "
            f"out={self.outbound_count}/{self.config.max_outbound}, "
            f"in={self.inbound_count})"
        )


BitcoinNode._DISPATCH = _dispatch_table(BitcoinNode)
