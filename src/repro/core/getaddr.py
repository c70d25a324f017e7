"""Algorithm 1: harvesting addresses over iterative GETADDR requests.

The crawler connects to every target, completes the version handshake,
and sends GETADDR repeatedly.  The paper's stop rule — *"if a new message
contains all IP addresses that were sent in previous ADDR messages, we
stop"* — terminates cleanly against full-table responders but can spin
against samplers, so two rules are offered:

* ``"paper"`` — stop as soon as a response contributes nothing new
  (Algorithm 1 verbatim);
* ``"adaptive"`` — keep requesting while at least ``adaptive_threshold``
  of each response is new, bounded by ``max_rounds``.  This is what a
  practical crawler (and, effectively, the authors' reconnect-and-repeat
  campaign) converges to against Bitcoin Core's 23%-sample responses.

The crawler runs *inside* the simulation as a transport handler, with a
bounded number of concurrent connections, exactly like the measurement
node in Fig. 2.  The pass itself is
:class:`~repro.core.bounded_pass.BoundedPass`; this module holds the
session state machine, the stop rules and reconnect rounds (a requeue).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional, Set

from ..errors import ScenarioError
from ..simnet.addresses import NetAddr
from ..simnet.simulator import Simulator, canonical_sets
from ..simnet.transport import Socket
from ..bitcoin.messages import Addr, GetAddr, Message, Version
from .bounded_pass import BoundedPass


@dataclass
class GetAddrConfig:
    """Crawler parameters."""

    #: Concurrent connections (the paper's prober used 250 parallel).
    concurrency: int = 64
    stop_rule: str = "adaptive"  # "adaptive" or "paper"
    #: Minimum new-address fraction to keep requesting (adaptive rule).
    adaptive_threshold: float = 0.5
    #: Hard cap on GETADDR rounds per peer.
    max_rounds: int = 200
    #: Per-peer inactivity timeout (handshake or response stall).
    peer_timeout: float = 30.0
    connect_timeout: float = 5.0
    #: Reconnect to each responsive target this many extra times, asking
    #: again.  Bitcoin Core v0.20.1 ignores repeated GETADDR on one
    #: connection; the paper's crawler worked around it by reconnecting,
    #: pulling a fresh 23% sample per session.  0 = single session.
    reconnect_rounds: int = 0

    def validate(self) -> None:
        if self.stop_rule not in ("adaptive", "paper"):
            raise ScenarioError(f"unknown stop rule {self.stop_rule!r}")
        if self.concurrency < 1 or self.max_rounds < 1:
            raise ScenarioError("concurrency and max_rounds must be >= 1")
        if self.reconnect_rounds < 0:
            raise ScenarioError("reconnect_rounds must be >= 0")


@canonical_sets("addresses")
@dataclass
class PeerHarvest:
    """Everything collected from one target (input to §IV-B analyses)."""

    target: NetAddr
    connected: bool = False
    #: Completed crawl sessions against this target (reconnects).
    sessions: int = 0
    rounds: int = 0
    addr_messages: int = 0
    total_records: int = 0
    #: Unique addresses this peer sent (excluding none — self included).
    addresses: Set[NetAddr] = field(default_factory=set)
    #: Whether the peer ever advertised its own address (honest behaviour).
    sent_own_addr: bool = False


@dataclass
class CrawlResult:
    """Aggregate of one crawl pass over a target list."""

    harvests: Dict[NetAddr, PeerHarvest] = field(default_factory=dict)

    @property
    def connected_targets(self) -> List[NetAddr]:
        return [h.target for h in self.harvests.values() if h.connected]

    @property
    def all_addresses(self) -> Set[NetAddr]:
        out: Set[NetAddr] = set()
        for harvest in self.harvests.values():
            out |= harvest.addresses
        return out


class _PeerSession:
    """Per-connection crawl state machine."""

    __slots__ = ("harvest", "socket", "handshaken", "timeout_event")

    def __init__(self, harvest: PeerHarvest) -> None:
        self.harvest = harvest
        self.socket: Optional[Socket] = None
        self.handshaken = False
        self.timeout_event = None


class GetAddrCrawler(BoundedPass):
    """The network crawler node (Fig. 2 right box, Algorithm 1)."""

    config_type = GetAddrConfig

    def __init__(
        self,
        sim: Simulator,
        addr: NetAddr,
        config: Optional[GetAddrConfig] = None,
    ) -> None:
        super().__init__(sim, addr, config)
        self._sessions: Dict[Socket, _PeerSession] = {}

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def crawl(self, targets: List[NetAddr]) -> CrawlResult:
        """Start crawling ``targets``; returns the (live) result object.

        The result fills in as the simulation runs; use
        :meth:`run_to_completion` to drive the simulator until done.
        """
        return self._start(targets, CrawlResult())

    def run_to_completion(
        self, targets: List[NetAddr], max_seconds: float = 7200.0
    ) -> CrawlResult:
        """Crawl ``targets``, driving the simulator until the crawl ends."""
        self.crawl(targets)
        return self._drive(max_seconds)

    # ------------------------------------------------------------------
    # Connection management
    # ------------------------------------------------------------------
    def _launch(self, target: NetAddr) -> None:
        harvests = self._result.harvests
        harvest = harvests.get(target)
        if harvest is None:
            harvest = harvests[target] = PeerHarvest(target=target)
        self.sim.network.connect(
            self.addr,
            target,
            handler=self,
            # partial, not a lambda: pending connects must survive
            # checkpoint pickling (Simulator.snapshot()).
            on_result=partial(self._connected, harvest),
            timeout=self.config.connect_timeout,
        )

    def _connected(self, harvest: PeerHarvest, socket: Optional[Socket]) -> None:
        if socket is not None and self.aborted:
            socket.close()  # the pass is over: no session, no VERSION
            socket = None
        if socket is None:
            self._finished()
            return
        harvest.connected = True
        harvest.sessions += 1
        session = _PeerSession(harvest)
        session.socket = socket
        socket.handler = self
        self._sessions[socket] = session
        self._arm_timeout(session)
        socket.send(
            Version(sender=self.addr, receiver=socket.remote_addr, start_height=0)
        )

    def _release(self) -> None:
        for socket in list(self._sessions):
            self._close_session(socket)

    # ------------------------------------------------------------------
    # Timeouts
    # ------------------------------------------------------------------
    def _arm_timeout(self, session: _PeerSession) -> None:
        if session.timeout_event is not None:
            session.timeout_event.cancel()
        session.timeout_event = self.sim.schedule(
            self.config.peer_timeout, self._timed_out, session
        )

    def _timed_out(self, session: _PeerSession) -> None:
        if session.socket is not None and session.socket in self._sessions:
            self._close_session(session.socket)

    # ------------------------------------------------------------------
    # Transport callbacks
    # ------------------------------------------------------------------
    def on_message(self, socket: Socket, message: Message) -> None:
        session = self._sessions.get(socket)
        if session is None:
            return
        if message.command == "verack" and not session.handshaken:
            session.handshaken = True
            self._arm_timeout(session)
            self._send_getaddr(session)
        elif message.command == "addr":
            self._handle_addr(session, message)
        # version / sendcmpct / other chatter is ignored by the crawler.

    def on_disconnect(self, socket: Socket) -> None:
        session = self._sessions.pop(socket, None)
        if session is None:
            return
        if session.timeout_event is not None:
            session.timeout_event.cancel()
        self._finished()

    # ------------------------------------------------------------------
    # Algorithm 1 proper
    # ------------------------------------------------------------------
    def _send_getaddr(self, session: _PeerSession) -> None:
        session.harvest.rounds += 1
        session.socket.send(GetAddr())

    def _handle_addr(self, session: _PeerSession, message: Addr) -> None:
        harvest = session.harvest
        harvest.addr_messages += 1
        harvest.total_records += len(message.addresses)
        # Responses carry up to 1000 records and this runs once per ADDR
        # reply across a 60-day crawl, so the record scan stays in C: a
        # set comprehension plus one membership probe, not a Python loop
        # with a per-record equality test.
        response: Set[NetAddr] = {record.addr for record in message.addresses}
        if harvest.target in response:
            harvest.sent_own_addr = True
        new_addrs = response - harvest.addresses
        harvest.addresses |= response
        self._arm_timeout(session)

        if len(message.addresses) <= 1:
            # A bare self-advertisement, not a GETADDR response; wait for
            # the real reply without consuming a round.
            return
        if self._should_stop(harvest, response, new_addrs):
            self._close_session(session.socket)
        else:
            self._send_getaddr(session)

    def _should_stop(
        self,
        harvest: PeerHarvest,
        response: Set[NetAddr],
        new_addrs: Set[NetAddr],
    ) -> bool:
        if harvest.rounds >= self.config.max_rounds:
            return True
        if self.config.stop_rule == "paper":
            # Stop once a response contains no address we have not seen.
            return not new_addrs
        fraction_new = len(new_addrs) / len(response) if response else 0.0
        return fraction_new < self.config.adaptive_threshold

    def _close_session(self, socket: Socket) -> None:
        session = self._sessions.pop(socket, None)
        socket.close()
        if session is None:
            return
        if session.timeout_event is not None:
            session.timeout_event.cancel()
        # Reconnect-and-repeat (the paper's workaround for Core ignoring
        # repeated GETADDR): schedule another session against targets
        # that completed a handshake, up to the configured budget.
        harvest = session.harvest
        if (
            session.handshaken
            and harvest.sessions <= self.config.reconnect_rounds
        ):
            self._requeue(harvest.target)
        self._finished()
