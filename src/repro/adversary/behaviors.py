"""Deterministic adversarial node behaviors (the §IV-B attacker family).

Four misbehaving peers built on the full-tier
:class:`~repro.bitcoin.node.BitcoinNode` behavior interface:

* :class:`AddrFlooderNode` — serves fabricated unreachable addresses at
  a configured rate (the paper's 73-node attack, protocol fidelity);
* :class:`EclipseNode` — monopolizes a victim's connection slots, feeds
  it only attacker-cohort addresses, and withholds every block;
* :class:`SyncStallerNode` — advertises blocks it never delivers,
  trapping victims in retry loops that persist across restarts;
* :class:`InvSpammerNode` — announces bogus transaction inventory to
  every peer, burning request round-trips.

Determinism contract: every adversarial draw (pool repeats, bogus
object ids, cohort rotation) comes from the attacker's **own named
stream** ``("adversary", <name>)``, so a run replays bit-identically
and adding/removing one attacker never shifts another's draws.  The
inherited protocol plumbing keeps its usual ``("node", <addr>)``
stream.  All timers are ``sim.call_every`` with bound methods — no
lambdas — so attacks survive ``sim.snapshot()`` / ``restore``
mid-campaign.

None of this code runs inside the handler fast lane: adversarial sends
enqueue through ``Peer`` queues like any protocol traffic, so the hot
loop's allocation budget (HOT001) is untouched.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from ..simnet.addresses import NetAddr, TimestampedAddr
from ..simnet.simulator import Simulator
from ..simnet.transport import Socket
from ..bitcoin.config import NodeConfig
from ..bitcoin.messages import (
    VERACK,
    Addr,
    GetBlocks,
    GetData,
    Inv,
    InvItem,
    InvType,
    Version,
)
from ..bitcoin.node import BitcoinNode
from ..bitcoin.peer import Peer

__all__ = [
    "AddrFlooderNode",
    "AdversaryNode",
    "EclipseNode",
    "InvSpammerNode",
    "SyncStallerNode",
]

#: Seconds between an eclipse attacker's top-ups of its victim sockets.
GRIP_INTERVAL = 10.0


class AdversaryNode(BitcoinNode):
    """Base class: a full node with a private adversarial RNG stream."""

    kind = "adversary"

    def __init__(
        self,
        sim: Simulator,
        addr: NetAddr,
        config: Optional[NodeConfig] = None,
        name: Optional[str] = None,
    ) -> None:
        super().__init__(sim, addr, config=config)
        self.name = name if name is not None else f"node-{addr}"
        #: Every adversarial draw comes from here — never from the
        #: node-plumbing stream — so attackers replay independently.
        self.adv_rng = sim.random.stream("adversary", self.name)

    def stats(self) -> dict:
        """Per-attacker counters (aggregated by the AttackForce)."""
        return {}


class AddrFlooderNode(AdversaryNode):
    """The paper's ADDR flooder as a first-class behavior.

    GETADDR responses come entirely from a lazily minted pool of
    fabricated unreachable addresses (no self-advertisement — the tell
    the §V detector keys on), and every ``flood_interval`` seconds the
    node pushes small unsolicited ADDR announcements that honest peers
    forward, spreading the pollution.
    """

    kind = "addr_flooder"

    def __init__(
        self,
        sim: Simulator,
        addr: NetAddr,
        population: Any,
        flood_volume: int,
        config: Optional[NodeConfig] = None,
        flood_interval: float = 30.0,
        name: Optional[str] = None,
    ) -> None:
        super().__init__(sim, addr, config=config, name=name)
        self.population = population
        self.flood_volume = max(1, flood_volume)
        self.flood_interval = flood_interval
        self._flood_pool: List[NetAddr] = []
        self._flood_cursor = 0
        self._flood_task = None
        self.addrs_flooded = 0

    def _pool_addr(self) -> NetAddr:
        """Next fabricated address, minting lazily up to the volume."""
        if self._flood_cursor < len(self._flood_pool):
            addr = self._flood_pool[self._flood_cursor]
        elif len(self._flood_pool) < self.flood_volume:
            addr = self.population.mint_fake_address().addr
            self._flood_pool.append(addr)
        else:
            addr = self.adv_rng.choice(self._flood_pool)
        self._flood_cursor = (self._flood_cursor + 1) % max(
            1, min(self.flood_volume, len(self._flood_pool) + 1)
        )
        return addr

    def _build_addr_response(self, records) -> List[TimestampedAddr]:
        now = self.sim.now
        count = min(1000, self.flood_volume)
        flooded = [
            TimestampedAddr(self._pool_addr(), now) for _ in range(count)
        ]
        self.addrs_flooded += len(flooded)
        return flooded

    def start(self) -> None:
        super().start()
        if self._flood_task is None and self.flood_interval > 0:
            self._flood_task = self.sim.call_every(
                self.flood_interval, self._push_flood
            )

    def stop(self) -> None:
        if self._flood_task is not None:
            self._flood_task.stop()
            self._flood_task = None
        super().stop()

    def _push_flood(self) -> None:
        """Unsolicited ≤10-address announcements to every peer."""
        if not self.running:
            return
        now = self.sim.now
        for peer in self.established_peer_list():
            records = tuple(
                TimestampedAddr(self._pool_addr(), now) for _ in range(10)
            )
            peer.enqueue_send(Addr(addresses=records))
            self.addrs_flooded += len(records)
        self._wake_handler()

    def stats(self) -> dict:
        return {"addrs_flooded": self.addrs_flooded}


class EclipseNode(AdversaryNode):
    """Monopolize a victim's connection slots, feed it only attackers.

    Each attacker holds ``connections_target`` sockets open to the
    victim (the transport allows parallel sockets to one host; only the
    honest connection loop deduplicates), answers the victim's
    GETADDR with nothing but attacker-cohort addresses, and pushes the
    cohort as unsolicited ADDR gossip so the victim's addrman drains
    toward attacker-only entries — the Heilman-style slot monopoly the
    paper's §IV-B churn pressure makes cheap.  On the block plane it
    claims its real (synced) height but withholds every block, so a
    victim whose connections it controls stops synchronizing.
    """

    kind = "eclipse"

    def __init__(
        self,
        sim: Simulator,
        addr: NetAddr,
        victim: NetAddr,
        cohort: Tuple[NetAddr, ...],
        connections_target: int = 8,
        config: Optional[NodeConfig] = None,
        name: Optional[str] = None,
    ) -> None:
        super().__init__(sim, addr, config=config, name=name)
        self.victim = victim
        #: Every attacker address in this cohort (self included): the
        #: only thing the victim is ever told about.
        self.cohort: Tuple[NetAddr, ...] = cohort
        self.connections_target = connections_target
        self._grip_task = None
        self._pending_connects = 0
        self.eclipse_addrs_sent = 0
        self.blocks_withheld = 0

    # -- slot monopoly --------------------------------------------------
    def victim_links(self) -> int:
        """Open sockets this attacker holds to the victim."""
        return sum(
            1
            for peer in self.peers.values()
            if peer.remote_addr == self.victim and peer.socket.open
        )

    def start(self) -> None:
        super().start()
        if self._grip_task is None:
            self._grip_task = self.sim.call_every(
                GRIP_INTERVAL, self._tighten_grip
            )

    def stop(self) -> None:
        if self._grip_task is not None:
            self._grip_task.stop()
            self._grip_task = None
        super().stop()

    def _tighten_grip(self) -> None:
        """Top the victim-socket count back up to the target."""
        if not self.running:
            return
        deficit = (
            self.connections_target
            - self.victim_links()
            - self._pending_connects
        )
        for _ in range(max(0, deficit)):
            self._pending_connects += 1
            # Straight to the transport: the honest connection loop
            # would refuse a second socket to one host, which is exactly
            # the courtesy an eclipse attacker does not extend.
            self.sim.network.connect(
                self.addr,
                self.victim,
                handler=self,
                on_result=self._grip_result,
            )
        self._feed_victim()

    def _grip_result(self, socket: Optional[Socket]) -> None:
        self._pending_connects = max(0, self._pending_connects - 1)
        if socket is None or not self.running:
            if socket is not None:
                socket.close()
            return
        peer = self._adopt_socket(socket)
        peer.enqueue_send(
            Version(
                sender=self.addr,
                receiver=self.victim,
                start_height=self.chain.height,
            )
        )
        self._wake_handler()

    # -- address-plane takeover -----------------------------------------
    def _cohort_records(self, count: int) -> Tuple[TimestampedAddr, ...]:
        now = self.sim.now
        if count >= len(self.cohort):
            picks: List[NetAddr] = list(self.cohort)
        else:
            picks = self.adv_rng.sample(list(self.cohort), count)
        return tuple(TimestampedAddr(a, now) for a in picks)

    def _build_addr_response(self, records) -> List[TimestampedAddr]:
        response = list(self._cohort_records(len(self.cohort)))
        self.eclipse_addrs_sent += len(response)
        return response

    def _feed_victim(self) -> None:
        """Push cohort gossip down every victim-facing socket."""
        pushed = False
        for peer in self.peers.values():
            if peer.remote_addr != self.victim or not peer.established:
                continue
            records = self._cohort_records(min(10, len(self.cohort)))
            peer.enqueue_send(Addr(addresses=records))
            self.eclipse_addrs_sent += len(records)
            pushed = True
        if pushed:
            self._wake_handler()

    def _handle_addr(self, peer: Peer, message: Addr) -> None:
        # Swallow gossip: honest addresses must never transit the cohort
        # to a victim (the inherited forwarding would hand it an exit).
        peer.addr_messages_received += 1
        peer.addrs_received += len(message.addresses)

    # -- block-plane starvation ------------------------------------------
    # Controlling what the victim sees of the chain is the point of the
    # monopoly: the campaigner keeps a synced chain and claims its real
    # height, but never serves a block to anyone.  A peer whose every
    # connection is a campaigner can hold a conversation and still not
    # download a single block.
    def _handle_getblocks(self, peer: Peer, message: GetBlocks) -> None:
        self.blocks_withheld += 1

    def _handle_getdata(self, peer: Peer, message: GetData) -> None:
        self.blocks_withheld += sum(
            1 for item in message.items if item.type is InvType.BLOCK
        )

    def stats(self) -> dict:
        return {
            "blocks_withheld": self.blocks_withheld,
            "eclipse_links": self.victim_links(),
            "eclipse_addrs_sent": self.eclipse_addrs_sent,
        }


class SyncStallerNode(AdversaryNode):
    """Advertise a chain lead, never deliver a block.

    The staller claims ``height_lead`` blocks above its real tip and
    answers GETBLOCKS with stable bogus inventory, so a victim fills its
    per-peer ``blocks_in_flight`` window with downloads that never
    arrive and — because ``_maybe_sync_from`` skips peers with blocks in
    flight — stops asking that peer for anything useful.  The bogus ids
    are a deterministic function of the attacker's stream, so the trap
    re-arms identically after a victim restart (the §IV-D resync
    experiment's adversarial twin).
    """

    kind = "sync_staller"

    def __init__(
        self,
        sim: Simulator,
        addr: NetAddr,
        height_lead: int = 1000,
        announce_interval: float = 60.0,
        config: Optional[NodeConfig] = None,
        name: Optional[str] = None,
    ) -> None:
        super().__init__(sim, addr, config=config, name=name)
        self.height_lead = height_lead
        self.announce_interval = announce_interval
        self._announce_task = None
        self._bogus_ids: List[int] = []
        self.stalled_getdata = 0
        self.invs_advertised = 0

    def _phantom_height(self) -> int:
        return self.chain.height + self.height_lead

    def _bogus_id(self, index: int) -> int:
        """The ``index``-th phantom block id (stable across restarts)."""
        while len(self._bogus_ids) <= index:
            self._bogus_ids.append(self.adv_rng.getrandbits(63) | (1 << 63))
        return self._bogus_ids[index]

    def start(self) -> None:
        super().start()
        if self._announce_task is None and self.announce_interval > 0:
            self._announce_task = self.sim.call_every(
                self.announce_interval, self._announce_phantoms
            )

    def stop(self) -> None:
        if self._announce_task is not None:
            self._announce_task.stop()
            self._announce_task = None
        super().stop()

    def _phantom_inv(self, from_height: int, limit: int = 500) -> Inv:
        top = self._phantom_height()
        first = max(from_height, self.chain.height)
        count = min(limit, max(0, top - first))
        items = tuple(
            InvItem(InvType.BLOCK, self._bogus_id(first - self.chain.height + i))
            for i in range(count)
        )
        self.invs_advertised += len(items)
        return Inv(items=items)

    def _announce_phantoms(self) -> None:
        if not self.running:
            return
        sent = False
        for peer in self.established_peer_list():
            inv = self._phantom_inv(self.chain.height, limit=16)
            if inv.items:
                peer.enqueue_send(inv)
                sent = True
        if sent:
            self._wake_handler()

    # -- protocol overrides ---------------------------------------------
    def _handle_version(self, peer: Peer, message: Version) -> None:
        peer.version_received = True
        peer.remote_height = message.start_height
        if peer.is_inbound:
            peer.enqueue_send(
                Version(
                    sender=self.addr,
                    receiver=peer.remote_addr,
                    start_height=self._phantom_height(),
                )
            )
        peer.enqueue_send(VERACK)
        if peer.verack_received and not peer.established:
            self._on_established(peer)

    def _on_established(self, peer: Peer) -> None:
        super()._on_established(peer)
        # Outbound handshakes carry the node's real height (the
        # connection manager sent that Version before we were asked);
        # the first phantom announcement supplies the lead either way.
        inv = self._phantom_inv(self.chain.height, limit=16)
        if inv.items:
            peer.enqueue_send(inv)

    def _handle_getblocks(self, peer: Peer, message: GetBlocks) -> None:
        inv = self._phantom_inv(message.from_height)
        if inv.items:
            peer.enqueue_send(inv)

    def _handle_getdata(self, peer: Peer, message: GetData) -> None:
        # Count the trapped requests; deliver nothing, ever.
        self.stalled_getdata += sum(
            1 for item in message.items if item.type is InvType.BLOCK
        )

    def _build_addr_response(self, records) -> List[TimestampedAddr]:
        # Self-advertisement only: a staller that handed out its honest
        # addrman would offer every trapped victim an exit.  One real,
        # reachable address also keeps it invisible to the §V ADDR
        # heuristic — the detection gap the stall-peer tests document.
        return [TimestampedAddr(self.addr, self.sim.now)]

    def _handle_addr(self, peer: Peer, message: Addr) -> None:
        # Same blackout as the eclipse cohort: ingest nothing, forward
        # nothing — a trapped victim learns no honest address from here.
        peer.addr_messages_received += 1
        peer.addrs_received += len(message.addresses)

    def stats(self) -> dict:
        return {
            "stalled_getdata": self.stalled_getdata,
            "invs_advertised": self.invs_advertised,
        }


class InvSpammerNode(AdversaryNode):
    """Announce bogus transaction inventory it never serves.

    Victims answer each announcement with a GETDATA round-trip that
    returns nothing — pure request-plane load, invisible to the ADDR
    detection heuristic.
    """

    kind = "inv_spammer"

    def __init__(
        self,
        sim: Simulator,
        addr: NetAddr,
        spam_batch: int = 8,
        spam_interval: float = 20.0,
        config: Optional[NodeConfig] = None,
        name: Optional[str] = None,
    ) -> None:
        super().__init__(sim, addr, config=config, name=name)
        self.spam_batch = spam_batch
        self.spam_interval = spam_interval
        self._spam_task = None
        self.invs_spammed = 0

    def start(self) -> None:
        super().start()
        if self._spam_task is None and self.spam_interval > 0:
            self._spam_task = self.sim.call_every(
                self.spam_interval, self._spam_round
            )

    def stop(self) -> None:
        if self._spam_task is not None:
            self._spam_task.stop()
            self._spam_task = None
        super().stop()

    def _spam_round(self) -> None:
        if not self.running:
            return
        sent = False
        for peer in self.established_peer_list():
            items = tuple(
                InvItem(InvType.TX, self.adv_rng.getrandbits(63) | (1 << 62))
                for _ in range(self.spam_batch)
            )
            peer.enqueue_send(Inv(items=items))
            self.invs_spammed += len(items)
            sent = True
        if sent:
            self._wake_handler()

    def stats(self) -> dict:
        return {"invs_spammed": self.invs_spammed}
