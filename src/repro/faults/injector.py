"""Compiling a :class:`~repro.faults.plan.FaultPlan` onto a simulator.

The :class:`FaultInjector` is the runtime half of the fault subsystem.
At construction it validates the plan against the world it is given
(crash faults need a node provider, AS scopes need an ``asn_of``
resolver) and schedules one activation event per fault — plus a
deactivation event when the fault has a window — on the simulator's
ordinary event queue.  From then on everything is event-driven:

* the transport consults the injector once per message / connection
  attempt / probe through the three hook methods
  (:meth:`message_fate`, :meth:`blocks_connect`, :meth:`blocks_probe`);
* ``reset`` faults run their own exponential-interval close process;
* ``crash`` faults stop matching nodes and schedule their restarts.

Determinism and checkpoint safety are structural, not incidental:

* every random decision draws from a named stream
  (``sim.random.stream("faults", <fault-name>)``), so fault randomness
  is independent of — and does not perturb — every other stream, and
  the same ``(seed, plan)`` pair replays bit-identically;
* all scheduled callbacks are bound methods with plain arguments, so a
  mid-fault :meth:`~repro.simnet.simulator.Simulator.snapshot` pickles
  the injector, its active-fault set, and its pending activation events
  along with the rest of the world, and a restore resumes the exact
  fault timeline.

When the plan is empty the injector installs no transport hook at all,
so fault support costs the hot path nothing unless faults are in play
(and one ``is None`` check per message when they are).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import FaultInjectionError
from ..simnet.addresses import NetAddr
from ..simnet.simulator import canonical_sets
from .plan import (
    KIND_CRASH,
    KIND_DELAY,
    KIND_DROP,
    KIND_DUPLICATE,
    KIND_PARTITION,
    KIND_RESET,
    FaultPlan,
    FaultSpec,
)


@dataclass
class FaultStats:
    """Monotone counters of everything the injector did to the run."""

    messages_dropped: int = 0
    messages_duplicated: int = 0
    messages_delayed: int = 0
    partition_drops: int = 0
    connects_blocked: int = 0
    probes_blocked: int = 0
    connections_reset: int = 0
    crashes: int = 0
    restarts: int = 0
    #: Restarts skipped because the crashed node's address was recycled
    #: by churn while it was down.
    restarts_skipped: int = 0

    def as_dict(self) -> Dict[str, int]:
        import dataclasses

        return dataclasses.asdict(self)


@canonical_sets(frozen=("_addrs", "_prefixes", "_asns"))
class _ActiveFault:
    """Runtime state of one fault while its window is open."""

    def __init__(
        self,
        spec: FaultSpec,
        index: int,
        name: str,
        rng: random.Random,
        asn_of: Optional[Callable[[NetAddr], Optional[int]]],
    ) -> None:
        self.spec = spec
        self.index = index
        self.name = name
        self.rng = rng
        self._asn_of = asn_of
        self._addrs = frozenset(NetAddr.parse(text) for text in spec.scope.addrs)
        self._prefixes = frozenset(spec.scope.prefixes)
        self._asns = frozenset(spec.scope.asns)
        self._match_all = spec.scope.empty
        #: Per-address match results; scope membership is pure, so the
        #: cache is just a speedup for the per-message hot path.
        self._match_cache: Dict[NetAddr, bool] = {}

    def matches_addr(self, addr: NetAddr) -> bool:
        cached = self._match_cache.get(addr)
        if cached is not None:
            return cached
        if self._match_all:
            matched = True
        else:
            matched = addr in self._addrs or addr.group16 in self._prefixes
            if not matched and self._asns and self._asn_of is not None:
                matched = self._asn_of(addr) in self._asns
        self._match_cache[addr] = matched
        return matched

    def matches_link(self, src: NetAddr, dst: NetAddr) -> bool:
        return self.matches_addr(src) or self.matches_addr(dst)

    def crosses(self, src: NetAddr, dst: NetAddr) -> bool:
        """Whether the (src, dst) link crosses this partition's cut."""
        return self.matches_addr(src) is not self.matches_addr(dst)

    def draw_extra_delay(self) -> float:
        spec = self.spec
        if spec.jitter == 0.0:
            return spec.delay
        return spec.delay * (1.0 + self.rng.uniform(-spec.jitter, spec.jitter))


class FaultInjector:
    """Executes a fault plan against one simulator.

    Construct via :meth:`repro.simnet.simulator.Simulator.install_faults`
    (which also registers the injector as a component) or directly::

        injector = FaultInjector(sim, plan, asn_of=universe.asn_of,
                                 node_provider=scenario.running_nodes)

    ``asn_of`` resolves addresses to autonomous systems for AS-scoped
    faults; ``node_provider`` returns the current node population for
    crash faults (both optional — omitting one simply rejects plans that
    need it).
    """

    def __init__(
        self,
        sim: Any,
        plan: FaultPlan,
        asn_of: Optional[Callable[[NetAddr], Optional[int]]] = None,
        node_provider: Optional[Callable[[], Sequence[Any]]] = None,
    ) -> None:
        plan.validate()
        self.sim = sim
        self.plan = plan
        self.stats = FaultStats()
        self._asn_of = asn_of
        self._node_provider = node_provider
        self._active: List[_ActiveFault] = []
        #: Whether any active fault is a partition (fast-path gate for
        #: the connect/probe hooks).
        self._partitions: List[_ActiveFault] = []
        #: (sim time, event, fault name) — the fault timeline, for tests
        #: and reports.
        self.events: List[Tuple[float, str, str]] = []
        needs_nodes = [
            spec.kind for spec in plan.faults if spec.kind == KIND_CRASH
        ]
        if needs_nodes and node_provider is None:
            raise FaultInjectionError(
                "plan contains crash fault(s) but this scenario provides no "
                "node population to crash (node_provider is None)"
            )
        needs_asns = [
            spec.name or spec.kind
            for spec in plan.faults
            if spec.scope.asns and asn_of is None
        ]
        if needs_asns:
            raise FaultInjectionError(
                f"fault(s) {needs_asns} use AS-scoped matching but no asn_of "
                f"resolver was provided"
            )
        self._compile()
        if plan.faults:
            sim.network.install_fault_hook(self)

    # ------------------------------------------------------------------
    # Compilation: plan -> scheduled activation/deactivation events
    # ------------------------------------------------------------------
    def _compile(self) -> None:
        now = self.sim.clock.now
        for index, spec in enumerate(self.plan.faults):
            start = max(spec.start, now)
            self.sim.schedule_at(start, self._activate, index)
            if spec.kind != KIND_CRASH and spec.duration is not None:
                self.sim.schedule_at(
                    start + spec.duration, self._deactivate, index
                )

    def _fault_name(self, index: int, spec: FaultSpec) -> str:
        return spec.name if spec.name else f"{index}:{spec.kind}"

    def _activate(self, index: int) -> None:
        spec = self.plan.faults[index]
        name = self._fault_name(index, spec)
        fault = _ActiveFault(
            spec,
            index,
            name,
            self.sim.random.stream("faults", name),
            self._asn_of,
        )
        self.events.append((self.sim.clock.now, "activate", name))
        if spec.kind == KIND_CRASH:
            # Crashes are instantaneous: execute and never join the
            # active set (their "window" is the node downtime).
            self._execute_crash(fault)
            return
        self._active.append(fault)
        if spec.kind == KIND_PARTITION:
            self._partitions.append(fault)
        elif spec.kind == KIND_RESET:
            self._schedule_next_reset(index)

    def _deactivate(self, index: int) -> None:
        for position, fault in enumerate(self._active):
            if fault.index == index:
                self.events.append(
                    (self.sim.clock.now, "deactivate", fault.name)
                )
                del self._active[position]
                if fault in self._partitions:
                    self._partitions.remove(fault)
                return

    def _find_active(self, index: int) -> Optional[_ActiveFault]:
        for fault in self._active:
            if fault.index == index:
                return fault
        return None

    @property
    def active_faults(self) -> List[str]:
        """Names of the faults currently in their windows."""
        return [fault.name for fault in self._active]

    # ------------------------------------------------------------------
    # Transport hooks (called by Network when installed)
    # ------------------------------------------------------------------
    def message_fate(self, src: NetAddr, dst: NetAddr) -> Tuple[int, float]:
        """How many copies of a message to deliver, and with what extra delay.

        ``(0, _)`` means the message is blackholed; ``(2, extra)`` that a
        duplication fault struck.  Faults are consulted in activation
        order, so the decision sequence — and therefore every RNG draw —
        is deterministic given the event history.
        """
        copies = 1
        extra = 0.0
        stats = self.stats
        for fault in self._active:
            kind = fault.spec.kind
            if kind == KIND_PARTITION:
                if fault.crosses(src, dst):
                    stats.partition_drops += 1
                    return 0, 0.0
            elif not fault.matches_link(src, dst):
                continue
            elif kind == KIND_DROP:
                if fault.rng.random() < fault.spec.probability:
                    stats.messages_dropped += 1
                    return 0, 0.0
            elif kind == KIND_DUPLICATE:
                if fault.rng.random() < fault.spec.probability:
                    copies += 1
                    stats.messages_duplicated += 1
            elif kind == KIND_DELAY:
                extra += fault.draw_extra_delay()
                stats.messages_delayed += 1
        return copies, extra

    def blocks_connect(self, src: NetAddr, dst: NetAddr) -> bool:
        """Whether a new connection from src to dst is partitioned away."""
        for fault in self._partitions:
            if fault.crosses(src, dst):
                self.stats.connects_blocked += 1
                return True
        return False

    def blocks_probe(self, src: NetAddr, dst: NetAddr) -> bool:
        """Whether a probe from src to dst is partitioned away."""
        for fault in self._partitions:
            if fault.crosses(src, dst):
                self.stats.probes_blocked += 1
                return True
        return False

    # ------------------------------------------------------------------
    # Reset faults: an exponential-interval abrupt-close process
    # ------------------------------------------------------------------
    def _schedule_next_reset(self, index: int) -> None:
        fault = self._find_active(index)
        if fault is None:
            return
        delay = fault.rng.expovariate(fault.spec.rate)
        self.sim.schedule(delay, self._reset_once, index)

    def _reset_once(self, index: int) -> None:
        fault = self._find_active(index)
        if fault is None:
            return  # window closed while the event was in flight
        candidates: List[Any] = []
        # Dict iteration is insertion-ordered, hence deterministic given
        # the event history.  A connection whose both endpoints match the
        # scope appears twice (once per endpoint socket) and is twice as
        # likely to be chosen — acceptable for a stress process.
        for addr, sockets in self.sim.network._sockets_by_addr.items():
            if fault.matches_addr(addr):
                candidates.extend(sock for sock in sockets if sock.open)
        if candidates:
            victim = fault.rng.choice(candidates)
            victim.close()
            self.stats.connections_reset += 1
            self.events.append(
                (
                    self.sim.clock.now,
                    "reset",
                    f"{fault.name} {victim.local_addr}->{victim.remote_addr}",
                )
            )
        self._schedule_next_reset(index)

    # ------------------------------------------------------------------
    # Crash faults: stop matching nodes, restart after downtime
    # ------------------------------------------------------------------
    def _execute_crash(self, fault: _ActiveFault) -> None:
        spec = fault.spec
        nodes = list(self._node_provider()) if self._node_provider else []
        for node in nodes:
            if not getattr(node, "running", False):
                continue
            if not fault.matches_addr(node.addr):
                continue
            node.stop()
            if spec.state_loss and hasattr(node, "lose_state"):
                node.lose_state()
            self.stats.crashes += 1
            self.events.append(
                (self.sim.clock.now, "crash", f"{fault.name} {node.addr}")
            )
            if spec.downtime is not None:
                self.sim.schedule(spec.downtime, self._restart_node, node)

    def _restart_node(self, node: Any) -> None:
        if getattr(node, "running", False):
            return  # something else (churn) already brought it back
        # A churn replacement may have recycled the crashed node's
        # address while it was down; restarting would collide on the
        # listener, so the node stays dead (and is counted).
        listen = getattr(getattr(node, "config", None), "listen", False)
        if listen and self.sim.network.is_listening(node.addr):
            self.stats.restarts_skipped += 1
            return
        node.start()
        self.stats.restarts += 1
        self.events.append((self.sim.clock.now, "restart", str(node.addr)))

