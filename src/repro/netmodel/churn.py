"""Churn: node lifetimes, arrivals, departures, rejoins.

Two representations serve the two scenario fidelities:

* :class:`PresenceTimeline` — a precomputed online/offline schedule per
  address over the whole campaign.  Longitudinal experiments (Figs. 4, 5,
  12, 13 and Table I) read presence directly; no protocol traffic is
  simulated between snapshots.  Reachable nodes follow a renewal process —
  sessions and offline gaps with a per-session retirement probability,
  plus an always-on subset — calibrated to the paper's measured alive
  count, cumulative unique count, daily departures, and always-on count.
  Unreachable addresses get a single gossip-visibility interval sized to
  the measured per-snapshot/cumulative ratio.

* :class:`ChurnProcess` — a live process for protocol-fidelity scenarios:
  it stops running nodes at a configured rate and starts replacements that
  must re-bootstrap and catch up with the chain, which is exactly the
  §IV-D mechanism (departing synchronized nodes replaced by unsynchronized
  newcomers) behind the Fig. 1 deterioration.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import ScenarioError
from ..simnet.addresses import NetAddr
from ..simnet.simulator import Simulator
from ..units import DAYS
from . import calibration as cal
from .population import NodeRecord

#: One online interval: [start, end) in campaign seconds.
Interval = Tuple[float, float]


@dataclass
class ReachableChurnConfig:
    """Parameters of the reachable-node renewal process (days)."""

    mean_session_days: float = 6.0
    mean_gap_days: float = 2.5
    #: Probability a node retires for good after a session ends.
    retire_prob: float = 0.35
    #: Nodes online for the entire campaign (always-on), pre-scale.
    always_on: int = cal.ALWAYS_ON_NODES
    #: Nodes online at t=0 (the standing network), pre-scale.
    initial_alive: int = cal.BITNODES_ADDRS_PER_SNAPSHOT

    def validate(self) -> None:
        if self.mean_session_days <= 0 or self.mean_gap_days < 0:
            raise ScenarioError("session/gap means must be positive")
        if not 0 < self.retire_prob <= 1:
            raise ScenarioError("retire_prob must be in (0, 1]")
        if self.always_on > self.initial_alive:
            raise ScenarioError("always_on cannot exceed initial_alive")


class PresenceTimeline:
    """Online intervals per address, over a fixed campaign.

    Pickled as columns (:func:`_load_timeline`): the address list, an
    ``array("I")`` of per-address interval counts and one ``array("d")``
    of every interval's bounds, instead of a list and its tuples per
    address.  The addresses are the live objects the population holds.
    """

    def __init__(self, campaign_seconds: float) -> None:
        self.campaign_seconds = campaign_seconds
        self._intervals: Dict[NetAddr, List[Interval]] = {}

    def set_intervals(self, addr: NetAddr, intervals: Sequence[Interval]) -> None:
        cleaned = [
            (max(0.0, start), min(self.campaign_seconds, end))
            for start, end in intervals
            if end > 0 and start < self.campaign_seconds and end > start
        ]
        if cleaned:
            self._intervals[addr] = cleaned

    def intervals(self, addr: NetAddr) -> List[Interval]:
        return list(self._intervals.get(addr, ()))

    def alive_at(self, addr: NetAddr, when: float) -> bool:
        # A plain loop, not any(<genexpr>): this predicate runs per address
        # per snapshot across the whole population, and most addresses
        # have one or two intervals — the generator frame would dominate.
        for start, end in self._intervals.get(addr, ()):
            if start <= when < end:
                return True
        return False

    def alive_set(self, addrs: Sequence[NetAddr], when: float) -> List[NetAddr]:
        return [addr for addr in addrs if self.alive_at(addr, when)]

    def ever_seen(self, addr: NetAddr) -> bool:
        return addr in self._intervals

    def addresses(self) -> List[NetAddr]:
        return list(self._intervals)

    def __reduce__(self):
        spans = self._intervals.values()
        return _load_timeline, (
            self.campaign_seconds,
            list(self._intervals),
            array("I", map(len, spans)),
            array("d", chain.from_iterable(chain.from_iterable(spans))),
        )


def _load_timeline(
    campaign_seconds: float,
    addrs: List[NetAddr],
    counts: Sequence[int],
    bounds: Sequence[float],
) -> PresenceTimeline:
    """The timeline :meth:`PresenceTimeline.__reduce__` wrote."""
    timeline = PresenceTimeline(campaign_seconds)
    intervals = timeline._intervals
    flat = iter(bounds)
    pairs = list(zip(flat, flat))
    start = 0
    for addr, count in zip(addrs, counts):
        intervals[addr] = pairs[start:start + count]
        start += count
    return timeline


def build_reachable_timeline(
    rng: random.Random,
    records: Sequence[NodeRecord],
    config: ReachableChurnConfig,
    campaign_days: float,
    scale: float,
) -> PresenceTimeline:
    """Assign renewal-process schedules to the reachable records.

    Records are partitioned into always-on, initially-online, and
    later-arrivals; arrivals spread uniformly over the campaign (a Poisson
    arrival stream conditioned on the known total).
    """
    config.validate()
    horizon = campaign_days * DAYS
    timeline = PresenceTimeline(horizon)
    n_always = min(len(records), max(0, round(config.always_on * scale)))
    n_initial = min(len(records), max(n_always, round(config.initial_alive * scale)))

    session = config.mean_session_days * DAYS
    gap = config.mean_gap_days * DAYS

    def sessions_from(start: float) -> List[Interval]:
        intervals: List[Interval] = []
        cursor = start
        while cursor < horizon:
            length = rng.expovariate(1.0 / session)
            intervals.append((cursor, cursor + length))
            cursor += length
            if rng.random() < config.retire_prob:
                break
            cursor += rng.expovariate(1.0 / gap) if gap > 0 else 0.0
        return intervals

    for index, record in enumerate(records):
        if index < n_always:
            timeline.set_intervals(record.addr, [(0.0, horizon)])
        elif index < n_initial:
            # Stationary start: the node is mid-session at t=0.
            timeline.set_intervals(record.addr, sessions_from(0.0))
        else:
            arrival = rng.uniform(0.0, horizon)
            timeline.set_intervals(record.addr, sessions_from(arrival))
    return timeline


def build_unreachable_timeline(
    rng: random.Random,
    records: Sequence[NodeRecord],
    campaign_days: float,
    per_snapshot_fraction: float,
) -> PresenceTimeline:
    """Single gossip-visibility interval per unreachable address.

    ``per_snapshot_fraction`` is the measured alive-at-any-time share of
    the cumulative pool (≈0.28 for all unreachable, ≈0.33 for responsive);
    interval lengths are exponential with mean ``f*T/(1-f)`` so a uniform
    start yields that occupancy in expectation.
    """
    if not 0 < per_snapshot_fraction < 1:
        raise ScenarioError("per_snapshot_fraction must be in (0, 1)")
    horizon = campaign_days * DAYS
    timeline = PresenceTimeline(horizon)
    mean_length = per_snapshot_fraction * horizon / (1 - per_snapshot_fraction)
    for record in records:
        length = rng.expovariate(1.0 / mean_length)
        start = rng.uniform(-mean_length, horizon)
        timeline.set_intervals(record.addr, [(start, start + length)])
    return timeline


#: Mean delay (seconds) between a departure and its replacement's start.
REPLACEMENT_DELAY_MEAN = 30.0


class ChurnProcess:
    """Live departures/arrivals for protocol-fidelity scenarios.

    At exponential intervals a running node departs
    (:meth:`~repro.bitcoin.behavior.NodeBehavior.depart` — for good: what
    comes back is a new node); a replacement is started after a short
    delay, so the network size hovers around its initial value while the
    *synchronized* population is eroded — the §IV-D mechanism.  Rates
    are expressed per 10 minutes to match the paper's 2019-vs-2020
    comparison (3.9 vs 7.6 synchronized departures per 10 minutes,
    full-network scale).
    """

    def __init__(
        self,
        sim: Simulator,
        running_nodes: Callable[[], Sequence],
        start_replacement: Callable[[], None],
        departures_per_10min: float,
        protect: Optional[Callable[[object], bool]] = None,
    ) -> None:
        if departures_per_10min <= 0:
            raise ScenarioError("departures_per_10min must be positive")
        self.sim = sim
        self._running_nodes = running_nodes
        self._start_replacement = start_replacement
        self.rate = departures_per_10min / 600.0  # per second
        self._protect = protect
        self._rng = sim.random.stream("churn-process")
        self._running = False
        self._event = None
        #: (time, address) log of departures.  The address, not the node:
        #: the log must not be what keeps a departed record alive once
        #: its address has been recycled.
        self.departures: List[Tuple[float, NetAddr]] = []
        self.arrivals: List[float] = []

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self._schedule_next()

    def stop(self) -> None:
        self._running = False
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _schedule_next(self) -> None:
        delay = self._rng.expovariate(self.rate)
        self._event = self.sim.schedule(delay, self._churn_once)

    def _churn_once(self) -> None:
        if not self._running:
            return
        candidates = [
            node
            for node in self._running_nodes()
            if getattr(node, "running", False)
            and (self._protect is None or not self._protect(node))
        ]
        if candidates:
            victim = self._rng.choice(candidates)
            victim.depart()
            self.departures.append((self.sim.now, victim.addr))
            delay = self._rng.expovariate(1.0 / REPLACEMENT_DELAY_MEAN)
            self.sim.schedule(delay, self._arrive)
        self._schedule_next()

    def _arrive(self) -> None:
        if not self._running:
            return
        self.arrivals.append(self.sim.now)
        self._start_replacement()
