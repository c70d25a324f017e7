"""Simulated TCP transport.

The transport layer provides:

* **listeners** — reachable endpoints register a handler and accept or
  refuse inbound connections;
* **connections** — bidirectional message pipes with per-packet latency
  drawn from the :class:`~repro.simnet.latency.LatencyModel`;
* **probes** — raw single-packet probes (the simulated analogue of the
  paper's Scapy VER probe) answered according to per-address
  :class:`ProbeBehavior`, which is how the NAT/firewall model expresses
  "unreachable but responsive" nodes.

Handlers are duck-typed.  A connection handler needs::

    on_message(socket, message)   # a message arrived on the socket
    on_disconnect(socket)         # the peer (or network) closed the socket

and a listener additionally needs::

    on_inbound_connection(socket) -> bool   # accept (True) or refuse

No real sockets are opened anywhere; "TCP" here means the behaviours the
paper's measurements depend on (connect timeouts vs. fast refusals, FIN
responses to unsolicited packets, in-order delivery per direction).
"""

from __future__ import annotations

import enum
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..errors import AddressInUseError, ConnectionClosedError, TransportError
from .addresses import NetAddr
from .clock import SimClock
from .events import Scheduler
from .latency import LatencyModel

#: Default TCP connect timeout, matching Bitcoin Core's 5-second default.
DEFAULT_CONNECT_TIMEOUT = 5.0

#: Extra handshake overhead on a successful connect (SYN/SYN-ACK/ACK).
HANDSHAKE_ROUND_TRIPS = 1.5


class ProbeBehavior(enum.Enum):
    """How an address answers unsolicited packets (probes and SYNs)."""

    #: No host, or a firewall that drops silently — probe times out.
    SILENT = "silent"
    #: Host refuses with RST — probe fails fast.
    RST = "rst"
    #: Host accepts the TCP handshake then closes with FIN on the Bitcoin
    #: VER payload.  This is the paper's *responsive unreachable* node.
    FIN = "fin"


class ProbeResult(enum.Enum):
    """Outcome of :meth:`Network.probe` as seen by the prober."""

    SILENT = "silent"
    RST = "rst"
    FIN = "fin"
    #: A full Bitcoin listener answered (the address is reachable).
    BITCOIN = "bitcoin"


class Socket:
    """One endpoint's view of an established connection."""

    __slots__ = (
        "_network",
        "local_addr",
        "remote_addr",
        "is_inbound",
        "handler",
        "_peer",
        "open",
        "opened_at",
        "last_arrival_at",
        "bytes_sent",
        "messages_sent",
        "user_data",
    )

    def __init__(
        self,
        network: "Network",
        local_addr: NetAddr,
        remote_addr: NetAddr,
        is_inbound: bool,
        opened_at: float,
    ) -> None:
        self._network = network
        self.local_addr = local_addr
        self.remote_addr = remote_addr
        self.is_inbound = is_inbound
        self.handler: Any = None
        self._peer: Optional["Socket"] = None
        self.open = True
        self.opened_at = opened_at
        #: Enforces per-direction FIFO delivery (TCP ordering): no packet
        #: arrives before one sent earlier on the same socket.
        self.last_arrival_at = opened_at
        self.bytes_sent = 0
        self.messages_sent = 0
        #: Free slot for protocol state (the Bitcoin layer stores its
        #: per-connection Peer object here).
        self.user_data: Any = None

    def send(self, message: Any, extra_delay: float = 0.0) -> None:
        """Deliver ``message`` to the remote endpoint after latency.

        ``extra_delay`` models sender-side serialization (transmission
        time); the caller computes it because uplink scheduling is the
        node's job, not the network's.
        """
        if not self.open:
            raise ConnectionClosedError(
                f"send on closed socket {self.local_addr}->{self.remote_addr}"
            )
        self._network._deliver(self, message, extra_delay)
        self.bytes_sent += getattr(message, "wire_size", 100)
        self.messages_sent += 1

    def close(self) -> None:
        """Close the connection.  The peer learns after one latency."""
        if not self.open:
            return
        self.open = False
        self._network._close_initiated(self)

    def __getstate__(self) -> Dict[str, Any]:
        # ``_peer`` is the one edge that crosses from node to node: left
        # in, pickling recurses BitcoinNode -> Socket -> Socket ->
        # BitcoinNode -> ... through the whole network and the depth
        # grows with node count.  Network state carries the pairs as a
        # flat list instead and re-links them on load.
        return {
            name: getattr(self, name)
            for name in self.__slots__
            if name != "_peer"
        }

    def __setstate__(self, state: Dict[str, Any]) -> None:
        for name, value in state.items():
            setattr(self, name, value)
        # Network.__setstate__ may already have linked this socket (when
        # the load reaches the network first); a dead pair stays
        # unlinked, as it was when dumped (see Network._unlink).
        if not hasattr(self, "_peer"):
            self._peer = None

    def __repr__(self) -> str:
        direction = "in" if self.is_inbound else "out"
        state = "open" if self.open else "closed"
        return f"Socket({self.local_addr}->{self.remote_addr}, {direction}, {state})"


class AddressIndex(dict):
    """One world's dense address numbering: ``NetAddr -> (byte, mask)``.

    Looking up an address the index has not seen numbers it next, so
    ids run in first-seen order.  The value is where the address's bit
    sits in a bitmap over the index: the byte to read and the mask to
    test in it.  That spares every known-address test a shift.  Ids are
    never reused or renumbered, so a bitmap sized for a smaller index
    stays valid; it is only shorter.  A dict keeps insertion order, so
    the index pickles with its world and a restore keeps every id.
    """

    __slots__ = ()

    def __missing__(self, addr: NetAddr) -> Tuple[int, int]:
        count = len(self)
        bit = self[addr] = (count >> 3, 1 << (count & 7))
        return bit


class Network:
    """The simulated internet: listeners, connections, probes, NAT."""

    def __init__(
        self,
        scheduler: Scheduler,
        clock: SimClock,
        latency: LatencyModel,
        connect_timeout: float = DEFAULT_CONNECT_TIMEOUT,
    ) -> None:
        self._scheduler = scheduler
        self._clock = clock
        self.latency = latency
        self.connect_timeout = connect_timeout
        self._listeners: Dict[NetAddr, Any] = {}
        #: Non-listening behaviors (light nodes) keyed by address.  An
        #: endpoint only needs a ``probe_behavior`` attribute, which
        #: connects and probes honor; an address with neither a listener
        #: nor an endpoint answers SILENT.
        self._endpoints: Dict[NetAddr, Any] = {}
        self._sockets_by_addr: Dict[NetAddr, List[Socket]] = {}
        #: Every address ADDR gossip has carried, numbered for the
        #: known-address bitmaps of the nodes that gossip it.
        self.addr_index = AddressIndex()
        # Monotone counters for whole-run accounting.
        self.connects_attempted = 0
        self.connects_succeeded = 0
        self.connects_refused = 0
        self.connects_timed_out = 0
        self.messages_delivered = 0
        self.probes_sent = 0
        # Pre-bound hot-path callables: _deliver runs once per message, so
        # it must not re-create the bound method / re-walk the attribute
        # chain on every send.
        self._arrive_cb = self._arrive
        # The light-endpoint answer path: one heap push per answer, no
        # EventHandle / closure allocation.
        self._lane = scheduler.lane_schedule
        # Message arrivals are never cancelled (a packet to a closed
        # socket is dropped at fire time), so they ride the lane too —
        # they are the majority of all events at paper scale, and the
        # lane spares each one an EventHandle.
        self._lane_at = scheduler.lane_schedule_at
        self._arrive_pair_cb = self._arrive_pair
        #: Optional fault-injection hook (see ``repro.faults``).  ``None``
        #: keeps the hot path fault-free at the cost of one identity check.
        self._fault_hook: Any = None

    def __getstate__(self) -> Dict[str, Any]:
        state = dict(self.__dict__)
        # The socket pairs Socket.__getstate__ leaves out, flat.  Every
        # open socket is in ``_sockets_by_addr``, so walking it reaches
        # each pair with an open end — the half-closed ones (closer
        # gone from the table, its peer not yet told) through that peer.
        # A both-open pair is listed once, from its outbound end.
        state["_socket_pairs"] = [
            (sock, sock._peer)
            for socks in self._sockets_by_addr.values()
            for sock in socks
            if not sock.is_inbound or not sock._peer.open
        ]
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        pairs = state.pop("_socket_pairs")
        for name, value in state.items():
            # setattr interns names as pickle's BUILD does; __dict__.update
            # would not (see simulator.canonical_sets).
            setattr(self, name, value)
        for sock, peer in pairs:
            sock._peer = peer
            peer._peer = sock

    def install_fault_hook(self, hook: Any) -> None:
        """Attach a fault injector consulted on every message/connect/probe.

        The hook needs ``message_fate(src, dst) -> (copies, extra_delay)``,
        ``blocks_connect(src, dst)`` and ``blocks_probe(src, dst)``.  Only
        one hook may be installed per network.
        """
        if self._fault_hook is not None:
            raise TransportError("a fault hook is already installed")
        self._fault_hook = hook

    # ------------------------------------------------------------------
    # Listeners
    # ------------------------------------------------------------------
    def listen(self, addr: NetAddr, handler: Any) -> None:
        """Register ``handler`` to accept inbound connections on ``addr``."""
        if addr in self._listeners:
            raise AddressInUseError(f"{addr} already has a listener")
        self._listeners[addr] = handler

    def stop_listening(self, addr: NetAddr) -> None:
        """Remove the listener on ``addr`` (no-op if absent)."""
        self._listeners.pop(addr, None)

    def is_listening(self, addr: NetAddr) -> bool:
        return addr in self._listeners

    # ------------------------------------------------------------------
    # Endpoint registry: how non-listening addresses answer (light nodes)
    # ------------------------------------------------------------------
    def probe_behavior(self, addr: NetAddr) -> ProbeBehavior:
        """How the non-listener ``addr`` answers unsolicited packets."""
        endpoint = self._endpoints.get(addr)
        if endpoint is not None:
            return endpoint.probe_behavior
        return ProbeBehavior.SILENT

    def register_endpoint(self, addr: NetAddr, endpoint: Any) -> None:
        """Attach a non-listening behavior object (light tier) to ``addr``.

        The endpoint's ``probe_behavior`` attribute governs how connects
        and probes answer.  Listening behaviors (full nodes, light
        listeners) use :meth:`listen` instead; the registry is for the
        unreachable cloud, which is observed but never accepts.
        """
        if addr in self._endpoints:
            raise AddressInUseError(f"{addr} already has an endpoint")
        self._endpoints[addr] = endpoint

    def unregister_endpoint(self, addr: NetAddr) -> None:
        """Remove the endpoint on ``addr`` (no-op if absent)."""
        self._endpoints.pop(addr, None)

    def tier_census(self) -> Dict[str, int]:
        """How many behaviors of each tier the transport currently hosts.

        Listeners default to the full tier unless they carry a
        ``fidelity`` attribute saying otherwise; registered endpoints
        default to light.
        """
        census = {"full": 0, "light": 0}
        for handler in self._listeners.values():
            tier = getattr(handler, "fidelity", "full")
            census[tier if tier in census else "full"] += 1
        for endpoint in self._endpoints.values():
            tier = getattr(endpoint, "fidelity", "light")
            census[tier if tier in census else "light"] += 1
        return census

    # ------------------------------------------------------------------
    # Connections
    # ------------------------------------------------------------------
    def connect(
        self,
        local_addr: NetAddr,
        remote_addr: NetAddr,
        handler: Any,
        on_result: Callable[[Optional[Socket]], None],
        timeout: Optional[float] = None,
    ) -> None:
        """Attempt a TCP connection from ``local_addr`` to ``remote_addr``.

        ``on_result`` is invoked exactly once: with the outbound
        :class:`Socket` on success, or ``None`` on refusal/timeout.  The
        failure *timing* differs — an RST refusal fails after one RTT, a
        silent drop only after ``timeout`` — because that difference is
        what makes unreachable-address-polluted addrman tables so costly
        (paper §IV-B).
        """
        self.connects_attempted += 1
        if timeout is None:
            timeout = self.connect_timeout
        if self._fault_hook is not None and self._fault_hook.blocks_connect(
            local_addr, remote_addr
        ):
            # Partitioned: the SYN vanishes, so the attempt times out
            # exactly like a silent drop (the slow failure mode).
            self._scheduler.schedule(timeout, self._timeout_connect, on_result)
            return
        rtt = 2.0 * self.latency.sample(local_addr, remote_addr)

        listener = self._listeners.get(remote_addr)
        if listener is not None:
            delay = rtt * HANDSHAKE_ROUND_TRIPS / 2.0 * 2.0  # ≈ 1.5 RTT
            self._scheduler.schedule(
                delay,
                self._complete_connect,
                local_addr,
                remote_addr,
                handler,
                on_result,
            )
            return

        behavior = self.probe_behavior(remote_addr)
        if behavior in (ProbeBehavior.RST, ProbeBehavior.FIN):
            # FIN-behaviour hosts accept the TCP handshake but close as
            # soon as Bitcoin speaks; either way the *connection attempt*
            # fails quickly rather than timing out.
            self._lane(rtt, self._refuse_connect, on_result)
        else:
            self._lane(timeout, self._timeout_connect, on_result)

    def _complete_connect(
        self,
        local_addr: NetAddr,
        remote_addr: NetAddr,
        handler: Any,
        on_result: Callable[[Optional[Socket]], None],
    ) -> None:
        listener = self._listeners.get(remote_addr)
        if listener is None:
            # Listener vanished mid-handshake (node departed).
            self.connects_timed_out += 1
            on_result(None)
            return
        now = self._clock.now
        out_sock = Socket(self, local_addr, remote_addr, False, now)
        in_sock = Socket(self, remote_addr, local_addr, True, now)
        out_sock._peer = in_sock
        in_sock._peer = out_sock
        out_sock.handler = handler
        accepted = listener.on_inbound_connection(in_sock)
        if not accepted:
            self.connects_refused += 1
            out_sock.open = False
            in_sock.open = False
            self._unlink(out_sock)
            on_result(None)
            return
        if in_sock.handler is None:
            in_sock.handler = listener
        self.connects_succeeded += 1
        self._sockets_by_addr.setdefault(local_addr, []).append(out_sock)
        self._sockets_by_addr.setdefault(remote_addr, []).append(in_sock)
        on_result(out_sock)

    def _refuse_connect(self, on_result: Callable[[Optional[Socket]], None]) -> None:
        self.connects_refused += 1
        on_result(None)

    def _timeout_connect(self, on_result: Callable[[Optional[Socket]], None]) -> None:
        self.connects_timed_out += 1
        on_result(None)

    # ------------------------------------------------------------------
    # Message delivery
    # ------------------------------------------------------------------
    def _deliver(self, sender: Socket, message: Any, extra_delay: float) -> None:
        peer = sender._peer
        if peer is None:
            raise TransportError("socket has no peer")
        if self._fault_hook is not None:
            copies, fault_extra = self._fault_hook.message_fate(
                sender.local_addr, sender.remote_addr
            )
            if copies == 0:
                return  # dropped or blackholed by a partition
            extra_delay += fault_extra
            # Duplicates each take their own latency sample (and the FIFO
            # clamp below), so a duplicate may land well after the original.
            for _ in range(copies - 1):
                self._schedule_arrival(sender, peer, message, extra_delay)
        delay = self.latency.sample(sender.local_addr, sender.remote_addr)
        arrive_at = self._clock._now + delay + extra_delay
        # TCP delivers in order per direction: jitter must not let a later
        # send overtake an earlier one (a VERACK arriving before its
        # VERSION would wedge the handshake).
        if arrive_at < peer.last_arrival_at:
            arrive_at = peer.last_arrival_at
        peer.last_arrival_at = arrive_at
        self._lane_at(arrive_at, self._arrive_pair_cb, (peer, message))

    def _schedule_arrival(
        self, sender: Socket, peer: Socket, message: Any, extra_delay: float
    ) -> None:
        delay = self.latency.sample(sender.local_addr, sender.remote_addr)
        arrive_at = self._clock._now + delay + extra_delay
        if arrive_at < peer.last_arrival_at:
            arrive_at = peer.last_arrival_at
        peer.last_arrival_at = arrive_at
        self._lane_at(arrive_at, self._arrive_pair_cb, (peer, message))

    def _arrive(self, receiver: Socket, message: Any) -> None:
        if not receiver.open:
            return  # packets to a closed socket are dropped
        self.messages_delivered += 1
        receiver.handler.on_message(receiver, message)

    def _arrive_pair(self, pair: tuple) -> None:
        """Lane-shaped :meth:`_arrive`: one payload slot, so the socket
        and message travel as a pair."""
        receiver = pair[0]
        if not receiver.open:
            return  # packets to a closed socket are dropped
        self.messages_delivered += 1
        receiver.handler.on_message(receiver, pair[1])

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------
    def _close_initiated(self, closer: Socket) -> None:
        self._forget(closer)
        peer = closer._peer
        if peer is None:
            return  # a bare socket, never paired
        if peer.open:
            delay = self.latency.sample(closer.local_addr, closer.remote_addr)
            self._scheduler.schedule(delay, self._peer_closed, peer)
        else:
            self._unlink(closer)

    def _peer_closed(self, sock: Socket) -> None:
        if not sock.open:
            return
        sock.open = False
        self._forget(sock)
        self._unlink(sock)
        if sock.handler is not None:
            sock.handler.on_disconnect(sock)

    @staticmethod
    def _unlink(sock: Socket) -> None:
        """Cut a pair whose second end just closed.

        A linked pair is a reference cycle, and each end holds its
        handler — a crawler with a whole snapshot's harvest — so a dead
        pair left linked is garbage only the cycle collector can free.
        Nothing reads the ``_peer`` of a closed socket, and a restored
        simulator never had dead pairs linked (``__getstate__`` lists
        only pairs with an open end), so fresh and restored worlds agree.
        """
        sock._peer._peer = None
        sock._peer = None

    def _forget(self, sock: Socket) -> None:
        socks = self._sockets_by_addr.get(sock.local_addr)
        if socks is not None:
            try:
                socks.remove(sock)
            except ValueError:
                pass
            if not socks:
                del self._sockets_by_addr[sock.local_addr]

    def disconnect_host(self, addr: NetAddr) -> int:
        """Abruptly take ``addr`` off the network (node departure).

        Closes every open socket bound to ``addr`` and removes its
        listener.  Returns the number of closed sockets.
        """
        self.stop_listening(addr)
        socks = list(self._sockets_by_addr.get(addr, ()))
        for sock in socks:
            sock.close()
        return len(socks)

    def open_sockets(self, addr: NetAddr) -> List[Socket]:
        """The currently open sockets bound to ``addr``."""
        return list(self._sockets_by_addr.get(addr, ()))

    # ------------------------------------------------------------------
    # Probing (the Scapy substitute)
    # ------------------------------------------------------------------
    def probe(
        self,
        local_addr: NetAddr,
        remote_addr: NetAddr,
        on_result: Callable[[ProbeResult], None],
        timeout: Optional[float] = None,
    ) -> None:
        """Send a single crafted VER packet and report what answers.

        Reachable addresses answer like Bitcoin nodes; non-listening
        addresses answer per their :class:`ProbeBehavior`.  The FIN result
        is the paper's *responsive* signal (§III-C).
        """
        self.probes_sent += 1
        if timeout is None:
            timeout = self.connect_timeout
        if self._fault_hook is not None and self._fault_hook.blocks_probe(
            local_addr, remote_addr
        ):
            # The probe packet is lost in the partition; the prober sees
            # silence, indistinguishable from a firewalled host.
            self._scheduler.schedule(timeout, on_result, ProbeResult.SILENT)
            return
        rtt = 2.0 * self.latency.sample(local_addr, remote_addr)
        if remote_addr in self._listeners:
            self._scheduler.schedule(rtt, on_result, ProbeResult.BITCOIN)
            return
        behavior = self.probe_behavior(remote_addr)
        if behavior is ProbeBehavior.FIN:
            self._lane(rtt, on_result, ProbeResult.FIN)
        elif behavior is ProbeBehavior.RST:
            self._lane(rtt, on_result, ProbeResult.RST)
        else:
            self._lane(timeout, on_result, ProbeResult.SILENT)
