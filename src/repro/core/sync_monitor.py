"""Network-synchronization monitoring (Fig. 1, §IV-D).

Samples a live :class:`~repro.netmodel.scenario.ProtocolScenario` the way
Bitnodes samples the real network: at a fixed period, record the fraction
of running reachable nodes whose chain matches the best height, plus the
per-node heights and the alive set (inputs to the synchronized-departure
analysis of §IV-D).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from ..analysis.timeseries import Series
from ..errors import AnalysisError
from ..simnet.addresses import NetAddr
from ..simnet.simulator import canonical_sets
from ..netmodel.scenario import ProtocolScenario
from .churn_matrix import SyncDepartureStats, synchronized_departures


@canonical_sets("alive")
@dataclass
class SyncSnapshot:
    """One Bitnodes-style sample of the live network."""

    when: float
    best_height: int
    alive: Set[NetAddr]
    heights: Dict[NetAddr, int]

    @property
    def sync_percent(self) -> float:
        if not self.alive:
            return 0.0
        synced = sum(
            1
            for addr in self.alive
            if self.heights.get(addr, -1) >= self.best_height
        )
        return 100.0 * synced / len(self.alive)


class SyncMonitor:
    """Periodic sampler of a protocol scenario's synchronization."""

    def __init__(
        self,
        scenario: ProtocolScenario,
        period: float = 600.0,
        start_delay: Optional[float] = None,
        poll_spread: float = 480.0,
    ) -> None:
        self.scenario = scenario
        self.period = period
        #: Bitnodes does not observe all 10K nodes instantaneously: one
        #: crawl sweep takes minutes, so each node's reported height is
        #: stale by a random amount up to the sweep duration.  This is a
        #: property of the *measurement* the paper's Fig. 1 is built on,
        #: and it contributes a baseline "behind the tip" mass on top of
        #: the genuine churn/propagation effects.  0 = instantaneous.
        self.poll_spread = poll_spread
        self.snapshots: List[SyncSnapshot] = []
        self.sync_series = Series()
        self._rng = scenario.sim.random.stream("sync-monitor")
        self._task = scenario.sim.call_every(
            period, self.sample, start_delay=start_delay
        )

    def sample(self) -> SyncSnapshot:
        """Take one Bitnodes-style sweep now."""
        scenario = self.scenario
        now = scenario.sim.now
        running = scenario.running_nodes()
        heights: Dict[NetAddr, int] = {}
        for node in running:
            poll_age = self._rng.uniform(0.0, self.poll_spread)
            heights[node.addr] = node.height_at(max(0.0, now - poll_age))
        best = max(heights.values(), default=0)
        snapshot = SyncSnapshot(
            when=now,
            best_height=best,
            alive={node.addr for node in running},
            heights=heights,
        )
        self.snapshots.append(snapshot)
        self.sync_series.append(snapshot.when, snapshot.sync_percent)
        return snapshot

    def stop(self) -> None:
        self._task.stop()

    # ------------------------------------------------------------------
    # Derived statistics
    # ------------------------------------------------------------------
    def sync_percents(self) -> List[float]:
        """The Fig. 1 sample series (percent synchronized per snapshot)."""
        return list(self.sync_series.values)

    def departure_stats(self) -> SyncDepartureStats:
        """Synchronized departures across the recorded snapshots (§IV-D)."""
        if len(self.snapshots) < 2:
            raise AnalysisError("need at least two snapshots")
        return synchronized_departures(
            [snap.alive for snap in self.snapshots],
            [snap.heights for snap in self.snapshots],
            [snap.best_height for snap in self.snapshots],
        )

    def departures_per_10min(self) -> float:
        """Synchronized departures normalised to the paper's 10-min window."""
        stats = self.departure_stats()
        windows_per_10min = 600.0 / self.period
        return stats.sync_departures_per_window * windows_per_10min
