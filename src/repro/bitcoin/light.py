"""The light node tier: O(1)-memory peers for the statistical cloud.

The paper never observes the unreachable population from the inside —
it knows these hosts only by how they answer unsolicited packets (the
VER probe's FIN/RST/silence, §III-C) and by the addresses they gossip.
Wang & Pustogarov showed that a version/addr/ping surface is all an
unreachable peer ever presents; Grundmann et al. estimate the population
purely from such announcements.  A :class:`LightNode` is exactly that
surface and nothing more:

* **version/verack** — completes the handshake when it listens;
* **ping → pong**, **getaddr → addr** from a *shared* immutable table;
* a :class:`~repro.simnet.transport.ProbeBehavior` governing how the
  transport answers connects/probes while the node does not listen.

Memory discipline (the point of the tier):

* ``__slots__`` everywhere — no per-instance ``__dict__``;
* one frozen :class:`LightNodeProfile` shared by the whole cloud;
* the ADDR table is a shared tuple, never copied per node;
* per-connection state is a lazily created dict that stays ``None`` for
  cloud nodes (they never accept);
* replies are sent synchronously on the receiving socket — no handler
  loop, no send queues, no timers, and **zero RNG draws**, so adding a
  million light nodes to a world changes no full-tier event or draw.

The result is tens of full nodes' worth of state per *thousand* light
nodes, which is what lets protocol scenarios run at paper scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..simnet.addresses import NetAddr, TimestampedAddr
from ..simnet.simulator import Simulator
from ..simnet.transport import ProbeBehavior, Socket
from .behavior import FIDELITY_LIGHT, NodeBehavior
from .messages import (
    PONG0,
    VERACK,
    Addr,
    GetData,
    Inv,
    InvItem,
    InvType,
    Message,
    Pong,
    TxMsg,
    Version,
)

__all__ = ["DEFAULT_LIGHT_PROFILE", "LightNode", "LightNodeProfile"]


#: Bounded memo of timestamped GETADDR payloads, keyed by the shared
#: table and the sim time of the answer.  A cloud's nodes share one
#: ``addr_table`` tuple, so when several answer GETADDR in the same tick
#: (batched crawler traffic) they serve the *same* records tuple instead
#: of re-timestamping up to 999 records each.  Pure function of its key
#: — sharing is invisible to the protocol and to checkpoint digests.
_PAYLOAD_MEMO_MAX = 256
_payload_memo: Dict[Tuple[Tuple[NetAddr, ...], float], Tuple[TimestampedAddr, ...]] = {}


def shared_addr_records(
    addr_table: Tuple[NetAddr, ...], now: float
) -> Tuple[TimestampedAddr, ...]:
    """The table part of a GETADDR answer, interned per (table, time)."""
    key = (addr_table, now)
    cached = _payload_memo.get(key)
    if cached is not None:
        return cached
    if len(_payload_memo) >= _PAYLOAD_MEMO_MAX:
        # FIFO eviction, same policy as NetAddr.parse's intern cache:
        # payload reuse is a burst phenomenon (one crawler pass), so
        # insertion age approximates LRU without per-hit bookkeeping.
        for stale in list(_payload_memo)[: _PAYLOAD_MEMO_MAX // 2]:
            del _payload_memo[stale]
    records = tuple(TimestampedAddr(a, now) for a in addr_table[:999])  # repro-lint: disable=HOT001 (memo-miss branch: built once per (table, tick), then shared by every answering node)
    _payload_memo[key] = records
    return records


@dataclass(frozen=True, slots=True)
class LightNodeProfile:
    """Behavioral knobs shared (by reference) across a whole light tier.

    Frozen so one instance can safely back thousands of nodes; anything
    per-node lives in the node's slots.
    """

    #: Accept inbound connections (light *reachable* stub).  The
    #: unreachable cloud leaves this off and is reached only through its
    #: probe behavior.
    listen: bool = False
    max_inbound: int = 16
    #: Answer repeated GETADDRs (Core ignores repeats; so do we).
    serve_repeated_getaddr: bool = False
    #: Relay transactions between sessions (the ``unreachable-relay``
    #: assist profile): inv → getdata → tx, from a small bounded cache.
    relay_txs: bool = False


#: The shared default profile (module-level so pickling dedupes it).
DEFAULT_LIGHT_PROFILE = LightNodeProfile()

#: Handshake session flags (bit field kept as a small int per socket).
_GOT_VERSION = 1
_SERVED_GETADDR = 2


class LightNode(NodeBehavior):
    """A thin version/verack/ping/addr/getaddr peer."""

    fidelity = FIDELITY_LIGHT

    __slots__ = (
        "sim",
        "addr",
        "profile",
        "behavior",
        "running",
        "addr_table",
        "_sessions",
        "_relay",
    )

    #: Bound on the per-assist relay cache (txid -> size).  An assist
    #: only needs to bridge recent announcements between its sessions.
    RELAY_CACHE_MAX = 512

    def __init__(
        self,
        sim: Simulator,
        addr: NetAddr,
        behavior: ProbeBehavior = ProbeBehavior.FIN,
        profile: LightNodeProfile = DEFAULT_LIGHT_PROFILE,
        addr_table: Tuple[NetAddr, ...] = (),
    ) -> None:
        self.sim = sim
        self.addr = addr
        self.profile = profile
        #: How the transport answers unsolicited packets while we do not
        #: listen (``LightCloud`` sets and updates this).
        self.behavior = behavior
        self.running = False
        #: Shared, immutable gossip table served to GETADDR.
        self.addr_table = addr_table
        #: socket -> handshake flags; ``None`` until the first inbound
        #: connection so cloud nodes never pay for the dict.
        self._sessions: Optional[Dict[Socket, int]] = None
        #: txid -> size of relayed transactions; ``None`` until the
        #: first relayed tx so non-assist nodes never pay for the dict.
        self._relay: Optional[Dict[int, int]] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def probe_behavior(self) -> ProbeBehavior:
        """What the endpoint registry reports to connects and probes."""
        return self.behavior

    def start(self) -> None:
        if self.running:
            return
        self.running = True
        if self.profile.listen:
            self.sim.network.listen(self.addr, self)
        else:
            self.sim.network.register_endpoint(self.addr, self)

    def stop(self) -> None:
        if not self.running:
            return
        self.running = False
        # A listen-profile node may currently be in its churned-offline
        # state (endpoint registered, not listening) — ask the network
        # which teardown applies rather than trusting the profile.
        if self.sim.network.is_listening(self.addr):
            self.sim.network.disconnect_host(self.addr)
            self._sessions = None
        else:
            self.sim.network.unregister_endpoint(self.addr)

    def apply_behavior(self, behavior: ProbeBehavior) -> None:
        """Churn update that also syncs listen state (assist nodes).

        The transport resolves connects through the listener table
        *before* probe behaviors, so a listening endpoint churned to
        RST/SILENT would keep accepting if we only flipped
        ``behavior``.  For listen-profile nodes a churn event therefore
        transitions the transport registration too: FIN (host up) →
        listening; anything else → closed sockets, probe-behavior only.
        Plain cloud nodes only take the new ``behavior``.
        """
        self.behavior = behavior
        if not self.profile.listen or not self.running:
            return
        network = self.sim.network
        if behavior is ProbeBehavior.FIN:
            if not network.is_listening(self.addr):
                network.unregister_endpoint(self.addr)
                network.listen(self.addr, self)
        elif network.is_listening(self.addr):
            network.disconnect_host(self.addr)
            self._sessions = None
            network.register_endpoint(self.addr, self)

    # ------------------------------------------------------------------
    # Transport contract
    # ------------------------------------------------------------------
    def on_inbound_connection(self, socket: Socket) -> bool:
        if not self.running or not self.profile.listen:
            return False
        sessions = self._sessions
        if sessions is None:
            sessions = self._sessions = {}
        if len(sessions) >= self.profile.max_inbound:
            return False
        sessions[socket] = 0
        return True

    # repro-lint: hot
    def on_message(self, socket: Socket, message: Message) -> None:
        sessions = self._sessions
        if sessions is None or socket not in sessions:
            return
        command = message.command
        if command == "version":
            if not sessions[socket] & _GOT_VERSION:
                sessions[socket] |= _GOT_VERSION
                socket.send(
                    Version(
                        sender=self.addr,
                        receiver=socket.remote_addr,
                        start_height=0,
                    )
                )
                socket.send(VERACK)
        elif command == "ping":
            nonce = message.nonce
            socket.send(PONG0 if nonce == 0 else Pong(nonce=nonce))
        elif command == "getaddr":
            served = sessions[socket] & _SERVED_GETADDR
            if served and not self.profile.serve_repeated_getaddr:
                return
            sessions[socket] |= _SERVED_GETADDR
            now = self.sim.now
            # The answer advertises our own address ahead of the table.
            records = (TimestampedAddr(self.addr, now),) + shared_addr_records(
                self.addr_table, now
            )
            socket.send(Addr(addresses=records))
        elif self.profile.relay_txs:
            if command == "inv":
                self._relay_request(socket, message)
            elif command == "tx":
                self._relay_accept(socket, message)
            elif command == "getdata":
                self._relay_serve(socket, message)
        # verack / addr / anything else: accepted silently.  A default
        # light node keeps no inventory and relays nothing; the assist
        # profile (unreachable-relay) bridges tx announcements above.

    # ------------------------------------------------------------------
    # Assist relay (profile.relay_txs) — transitively hot via on_message
    # ------------------------------------------------------------------
    def _relay_request(self, socket: Socket, message: Inv) -> None:
        """Request announced transactions we have not bridged yet."""
        relay = self._relay
        wanted = None
        for item in message.items:
            if item.type is not InvType.TX:
                continue  # assists bridge transactions only
            if relay is not None and item.object_id in relay:
                continue
            if wanted is None:
                wanted = []  # repro-lint: disable=HOT001 (assist-only branch: one short list per inv carrying unseen txids)
            wanted.append(item)
        if wanted:
            socket.send(GetData(items=tuple(wanted)))

    def _relay_accept(self, socket: Socket, message: TxMsg) -> None:
        """Record a received tx and announce it to the other sessions."""
        relay = self._relay
        if relay is None:
            relay = self._relay = {}  # repro-lint: disable=HOT001 (first relayed tx only; stays None on non-assist nodes)
        txid = message.txid
        if txid in relay:
            return  # duplicate delivery; already announced
        if len(relay) >= self.RELAY_CACHE_MAX:
            # Same FIFO half-eviction as the payload memo: bridging is
            # a recency phenomenon, insertion age approximates LRU.
            for stale in list(relay)[: self.RELAY_CACHE_MAX // 2]:
                del relay[stale]
        relay[txid] = message.size
        sessions = self._sessions
        if sessions is None or len(sessions) < 2:
            return
        announcement = Inv(items=(InvItem(InvType.TX, txid),))
        for peer_socket, flags in sessions.items():
            if peer_socket is not socket and flags & _GOT_VERSION:
                peer_socket.send(announcement)

    def _relay_serve(self, socket: Socket, message: GetData) -> None:
        """Serve bridged transactions back out of the relay cache."""
        relay = self._relay
        if relay is None:
            return
        for item in message.items:
            if item.type is InvType.TX:
                size = relay.get(item.object_id)
                if size is not None:
                    socket.send(TxMsg(txid=item.object_id, size=size))

    def on_disconnect(self, socket: Socket) -> None:
        sessions = self._sessions
        if sessions is not None:
            sessions.pop(socket, None)

    def __repr__(self) -> str:
        mode = "listening" if self.profile.listen else self.behavior.value
        return f"LightNode({self.addr}, {mode})"
