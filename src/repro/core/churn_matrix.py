"""Algorithm 4: the churn binary matrix and everything derived from it.

Given per-snapshot sets of connected reachable addresses, build the
``M[address, snapshot]`` presence matrix (Fig. 12) and derive:

* daily arrivals and departures (Fig. 13, ~708 nodes / 8.6% per day);
* always-on nodes (3,034 over the paper's campaign);
* per-node lifetimes (mean 16.6 days) and rejoin counts;
* synchronized-departure rates for the 2019-vs-2020 contrast (§IV-D).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Sequence, Set

from ..analysis.stats import mean
from ..errors import AnalysisError
from ..simnet.addresses import NetAddr

if TYPE_CHECKING:
    import numpy as np


@dataclass
class ChurnMatrix:
    """The Algorithm-4 binary matrix plus the row/column labels."""

    addresses: List[NetAddr]
    times: List[float]
    matrix: np.ndarray  # shape (len(addresses), len(times)), dtype bool

    @property
    def n_addresses(self) -> int:
        return len(self.addresses)

    @property
    def snapshot_interval(self) -> float:
        if len(self.times) < 2:
            raise AnalysisError("need at least two snapshots for an interval")
        return (self.times[-1] - self.times[0]) / (len(self.times) - 1)


def build_matrix(
    snapshots: Sequence[Set[NetAddr]], times: Sequence[float]
) -> ChurnMatrix:
    """Algorithm 4: rows are every address ever seen, columns snapshots."""
    if len(snapshots) != len(times):
        raise AnalysisError("snapshots and times must have equal length")
    if not snapshots:
        raise AnalysisError("need at least one snapshot")
    import numpy as np

    universe: Set[NetAddr] = set()
    for snapshot in snapshots:
        universe |= snapshot
    addresses = sorted(universe)
    index = {addr: row for row, addr in enumerate(addresses)}
    matrix = np.zeros((len(addresses), len(snapshots)), dtype=bool)
    for column, snapshot in enumerate(snapshots):
        for addr in snapshot:
            matrix[index[addr], column] = True
    return ChurnMatrix(addresses=addresses, times=list(times), matrix=matrix)


@dataclass
class ChurnStats:
    """Everything the paper reads off the matrix."""

    unique_nodes: int
    always_on: int
    mean_alive_per_snapshot: float
    #: Per-transition arrival and departure counts (Fig. 13 series).
    arrivals: List[int]
    departures: List[int]
    #: Mean departures per snapshot as a share of mean alive.
    departure_rate: float
    #: First-seen to last-seen span per node, in seconds (lifetime).
    lifetimes: List[float]
    mean_lifetime: float
    #: Nodes that left and reappeared at least once.
    rejoining_nodes: int

    def mean_daily_departures(self, snapshot_interval: float) -> float:
        """Departures per day, given the snapshot spacing in seconds."""
        if not self.departures:
            return 0.0
        per_snapshot = mean(self.departures)
        return per_snapshot * (86400.0 / snapshot_interval)


def analyze(matrix: ChurnMatrix) -> ChurnStats:
    """Derive the Fig. 12/13 statistics from the presence matrix."""
    import numpy as np

    presence = matrix.matrix
    if presence.shape[1] < 2:
        raise AnalysisError("need at least two snapshots to measure churn")
    alive_per_snapshot = presence.sum(axis=0)
    diffs = presence[:, 1:].astype(np.int8) - presence[:, :-1].astype(np.int8)
    arrivals = (diffs > 0).sum(axis=0)
    departures = (diffs < 0).sum(axis=0)
    always_on = int(presence.all(axis=1).sum())

    first_seen = presence.argmax(axis=1)
    last_seen = presence.shape[1] - 1 - presence[:, ::-1].argmax(axis=1)
    times = np.asarray(matrix.times)
    lifetimes = (times[last_seen] - times[first_seen]).astype(float)

    # A rejoin is any 0-run strictly inside the [first, last] span.
    gaps_inside = np.zeros(presence.shape[0], dtype=bool)
    for row in range(presence.shape[0]):
        span = presence[row, first_seen[row]: last_seen[row] + 1]
        gaps_inside[row] = not span.all()

    mean_alive = float(alive_per_snapshot.mean())
    mean_departures = float(departures.mean()) if departures.size else 0.0
    return ChurnStats(
        unique_nodes=presence.shape[0],
        always_on=always_on,
        mean_alive_per_snapshot=mean_alive,
        arrivals=[int(v) for v in arrivals],
        departures=[int(v) for v in departures],
        departure_rate=(mean_departures / mean_alive) if mean_alive else 0.0,
        lifetimes=[float(v) for v in lifetimes],
        mean_lifetime=float(lifetimes.mean()) if lifetimes.size else 0.0,
        rejoining_nodes=int(gaps_inside.sum()),
    )


def departures_between(
    previous: Set[NetAddr], current: Set[NetAddr]
) -> Set[NetAddr]:
    """Addresses present in ``previous`` but gone in ``current``."""
    return previous - current


@dataclass
class SyncDepartureStats:
    """§IV-D: how many *synchronized* nodes leave per window."""

    windows: int
    total_departures: int
    synchronized_departures: int

    @property
    def sync_departures_per_window(self) -> float:
        return self.synchronized_departures / self.windows if self.windows else 0.0


def synchronized_departures(
    snapshots: Sequence[Set[NetAddr]],
    heights: Sequence[Dict[NetAddr, int]],
    best_heights: Sequence[int],
) -> SyncDepartureStats:
    """Count synchronized departures across consecutive snapshots.

    ``heights[i]`` maps each address alive in ``snapshots[i]`` to its
    chain height; ``best_heights[i]`` is the network-best height then.  A
    departing node counts as synchronized if it held the best chain at the
    snapshot before it vanished.
    """
    if not (len(snapshots) == len(heights) == len(best_heights)):
        raise AnalysisError("snapshots/heights/best_heights length mismatch")
    if len(snapshots) < 2:
        raise AnalysisError("need at least two snapshots")
    total = 0
    synchronized = 0
    for i in range(len(snapshots) - 1):
        departed = departures_between(snapshots[i], snapshots[i + 1])
        total += len(departed)
        for addr in departed:
            height = heights[i].get(addr)
            if height is not None and height >= best_heights[i]:
                synchronized += 1
    return SyncDepartureStats(
        windows=len(snapshots) - 1,
        total_departures=total,
        synchronized_departures=synchronized,
    )
