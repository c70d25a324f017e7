"""Lightweight GETADDR responders for longitudinal crawls.

A 60-day crawl campaign does not need full protocol nodes for the ~10K
reachable population — only something that speaks the handshake and
answers GETADDR the way a Bitcoin Core addrman would.  :class:`AddrServer`
is that minimal listener: it holds a materialised address table (a sample
of the currently gossiped address pool) and serves 23%-capped-at-1000
samples of it, always prepending its own address (the paper's §IV-B
malicious-detection heuristic rests on that behaviour).

The table holds ``(address, last-seen)`` records, not bare addresses, and
a response relays them as stored — what a Core node does, and what a
passive last-seen estimator would read.  The scenario builds one record
per gossiped address per snapshot and every table that draws the address
shares it, so a response costs one sample and no per-record work; only
the server's own record is made per response, stamped with the response
time (a node has just seen itself).

A server built without a generator takes its ``("server", addr)``
stream from ``sim.random`` on the first draw: most servers of a campaign
are never asked before a checkpoint, and a stream not yet created
pickles as nothing.  Streams are keyed by name
(:func:`~repro.simnet.rand.derive_seed`), so the draws are those of a
stream made at construction.

Message processing is immediate (no round-robin engine): crawl
experiments measure *address content*, not queueing delay.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence

from ..simnet.addresses import NetAddr, TimestampedAddr
from ..simnet.rand import sample
from ..simnet.simulator import Simulator
from ..simnet.transport import Socket
from ..bitcoin import config as cfg
from ..bitcoin.messages import Addr, Message, Verack, Version


class AddrServer:
    """A reachable endpoint that serves addrman samples over GETADDR."""

    def __init__(
        self,
        sim: Simulator,
        addr: NetAddr,
        rng: Optional[random.Random] = None,
        table: Optional[Sequence[TimestampedAddr]] = None,
        max_inbound: int = cfg.MAX_INBOUND,
        response_max: int = cfg.ADDR_RESPONSE_MAX,
        response_pct: int = cfg.ADDR_RESPONSE_MAX_PCT,
    ) -> None:
        self.sim = sim
        self.addr = addr
        self._rng = rng
        self.table: List[TimestampedAddr] = (
            list(table) if table is not None else []
        )
        self.max_inbound = max_inbound
        self.response_max = response_max
        self.response_pct = response_pct
        self.listening = False
        self._inbound = 0
        self.getaddr_served = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self.listening:
            return
        self.sim.network.listen(self.addr, self)
        self.listening = True

    def stop(self) -> None:
        if not self.listening:
            return
        self.sim.network.disconnect_host(self.addr)
        self.listening = False
        self._inbound = 0
        # A departed node's table is dead weight until the next refresh
        # (a rejoining server is handed a new one before it starts).
        self.set_table(())

    def set_table(self, table: Sequence[TimestampedAddr]) -> None:
        """Re-materialise the served address table (per-snapshot refresh)."""
        self.table = list(table)

    def crawl_ended(self) -> None:
        """Drop the table once a crawl is over: the next refresh draws a
        new one before a GETADDR can read it.  Kept while an inbound
        connection is open, since a GETADDR still in flight on it would
        draw from the table."""
        if not self._inbound:
            self.set_table(())

    @property
    def rng(self) -> random.Random:
        """The generator responses draw from, created on first use."""
        rng = self._rng
        if rng is None:
            rng = self._rng = self.sim.random.stream("server", str(self.addr))
        return rng

    # ------------------------------------------------------------------
    # Transport callbacks
    # ------------------------------------------------------------------
    def on_inbound_connection(self, socket: Socket) -> bool:
        if not self.listening or self._inbound >= self.max_inbound:
            return False
        self._inbound += 1
        socket.handler = self
        return True

    def on_disconnect(self, socket: Socket) -> None:
        self._inbound = max(0, self._inbound - 1)

    def on_message(self, socket: Socket, message: Message) -> None:
        if not socket.open:
            return
        if message.command == "version":
            socket.send(
                Version(
                    sender=self.addr,
                    receiver=socket.remote_addr,
                    start_height=0,
                )
            )
            socket.send(Verack())
        elif message.command == "getaddr":
            self.getaddr_served += 1
            socket.send(Addr(addresses=tuple(self._sample_response())))

    # ------------------------------------------------------------------
    # ADDR response construction
    # ------------------------------------------------------------------
    def _sample_response(self) -> List[TimestampedAddr]:
        table = self.table
        response = [TimestampedAddr(self.addr, self.sim.now)]
        if table:
            limit = min(
                self.response_max,
                max(1, len(table) * self.response_pct // 100),
            )
            response += sample(self.rng, table, min(limit, len(table)))
        return response[: self.response_max]
