"""ThreadOpenConnections and feelers, extracted from the node.

The :class:`ConnectionManager` owns everything the paper's §IV-B
connection analysis measures: the one-at-a-time outbound attempt loop
paced by addrman draws (with no reachability information), the periodic
feeler probes that promote new-table addresses to tried, and the
per-attempt outcome log behind Fig. 7.

The manager shares its node's RNG stream and scheduler, so extracting it
from :class:`~repro.bitcoin.node.BitcoinNode` changes no draw order and
no event order — same seed, same figures, pinned by test.  Callbacks
placed on the event queue are bound methods or module-level
``functools.partial`` objects, never closures, so simulator snapshots
keep pickling.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, List, Optional

from ..simnet.addresses import NetAddr
from ..simnet.transport import Socket
from .messages import Message, Version

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .node import BitcoinNode


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


class ConnectionManager:
    """Outbound-connection state machine for one full-tier node."""

    __slots__ = (
        "node",
        "attempt_log",
        "active_feelers",
        "_attempt_in_flight",
        "_connect_event",
        "_feeler_task",
    )

    def __init__(self, node: "BitcoinNode") -> None:
        self.node = node
        #: Fig. 7 measurement: every logged attempt and its outcome.
        self.attempt_log: List[ConnectionAttempt] = []
        #: Feeler connections currently in flight (they occupy sockets
        #: but not outbound slots; polling counts them — Fig. 6).
        self.active_feelers = 0
        self._attempt_in_flight = False
        self._connect_event = None
        self._feeler_task = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin connecting out; arm the feeler timer if configured."""
        node = self.node
        self.ensure_connecting()
        if node.config.feelers_enabled:
            self._feeler_task = node.sim.call_every(
                node.config.feeler_interval,
                self.try_feeler,
                start_delay=node._rng.uniform(0, node.config.feeler_interval),
            )

    def stop(self) -> None:
        """Cancel the pending attempt and the feeler timer."""
        if self._feeler_task is not None:
            self._feeler_task.stop()
            self._feeler_task = None
        if self._connect_event is not None:
            self._connect_event.cancel()
            self._connect_event = None
        self.active_feelers = 0

    # ------------------------------------------------------------------
    # ThreadOpenConnections
    # ------------------------------------------------------------------
    def ensure_connecting(self) -> None:
        """Schedule the next outbound attempt if slots are unfilled."""
        node = self.node
        if not node.running or self._attempt_in_flight:
            return
        if node.outbound_count >= node.config.max_outbound:
            return
        if self._connect_event is not None:
            return
        self._connect_event = node.sim.schedule(
            node.config.connect_retry_interval, self._attempt_connection
        )

    def _attempt_connection(self) -> None:
        self._connect_event = None
        node = self.node
        if not node.running or node.outbound_count >= node.config.max_outbound:
            return
        target = node.policy.conn.select_target(node, node.sim.now)
        if target is None or target == node.addr or node._connected_to(target):
            self.ensure_connecting()
            return
        node.addrman.attempt(target, node.sim.now)
        self._attempt_in_flight = True
        started = node.sim.now
        node.sim.network.connect(
            node.addr,
            target,
            handler=node,
            # partial, not a lambda: the callback sits in the event queue
            # and must survive Simulator.snapshot() pickling.
            on_result=partial(self._connection_result, target, started),
            timeout=node.config.connect_timeout,
        )

    def _connection_result(
        self, target: NetAddr, started: float, socket: Optional[Socket]
    ) -> None:
        self._attempt_in_flight = False
        node = self.node
        if node.config.track_connection_attempts:
            self.attempt_log.append(
                ConnectionAttempt(
                    started_at=started,
                    finished_at=node.sim.now,
                    target=target,
                    outcome="success" if socket is not None else "failed",
                )
            )
        if not node.running:
            if socket is not None:
                socket.close()
            return
        if socket is None:
            self.ensure_connecting()
            return
        if node.outbound_count >= node.config.max_outbound:
            socket.close()  # slot got filled while we were handshaking
            self.ensure_connecting()
            return
        peer = node._adopt_socket(socket)
        peer.enqueue_send(
            Version(
                sender=node.addr,
                receiver=peer.remote_addr,
                start_height=node.chain.height,
            )
        )
        node._wake_handler()
        self.ensure_connecting()

    # ------------------------------------------------------------------
    # Feelers (footnote 1 of the paper)
    # ------------------------------------------------------------------
    def try_feeler(self) -> None:
        node = self.node
        if not node.running:
            return
        target = node.addrman.select(node.sim.now, new_only=True)
        if target is None or target == node.addr or node._connected_to(target):
            return
        node.addrman.attempt(target, node.sim.now)
        self.active_feelers += 1
        started = node.sim.now
        node.sim.network.connect(
            node.addr,
            target,
            handler=_FeelerHandler(),
            on_result=partial(self._feeler_result, target, started),
            timeout=node.config.connect_timeout,
        )

    def _feeler_result(
        self, target: NetAddr, started: float, socket: Optional[Socket]
    ) -> None:
        self.active_feelers = max(0, self.active_feelers - 1)
        node = self.node
        success = socket is not None
        if success:
            # A feeler can outlive its node's departure; the record has
            # no address tables left to credit.
            if not node.departed:
                node.addrman.good(target, node.sim.now)
            socket.close()
        if node.config.track_connection_attempts:
            self.attempt_log.append(
                ConnectionAttempt(
                    started_at=started,
                    finished_at=node.sim.now,
                    target=target,
                    outcome="feeler-success" if success else "feeler-failed",
                )
            )


class _FeelerHandler:
    """Socket handler for feeler connections: connect, verify, drop."""

    def on_message(self, socket: Socket, message: Message) -> None:
        pass  # a feeler never processes protocol traffic

    def on_disconnect(self, socket: Socket) -> None:
        pass
