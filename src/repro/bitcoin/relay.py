"""Relay-order policy and relay-time measurement.

``relay_order`` encodes the difference between baseline Bitcoin Core —
which iterates connections in arrival order, without distinguishing
inbound (possibly unreachable) from outbound (always reachable) peers —
and the §V refinement that serves outbound connections first.

:class:`RelayTracker` records, for each block or transaction a node
receives, the time of first receipt and the time each relay copy finished
leaving the uplink.  ``last - first`` is exactly the paper's "relaying
time" (Figs. 10 and 11): the window during which late connections sit
behind the blockchain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from .peer import Peer


def relay_order(peers: Iterable[Peer], outbound_first: bool) -> List[Peer]:
    """Order peers for a relay pass.

    Baseline: arrival order (the order the node's peer map yields).
    §V policy: all outbound peers first, then inbound — outbound links are
    guaranteed to be reachable nodes, which propagate further.
    """
    peer_list = list(peers)
    if not outbound_first:
        return peer_list
    return sorted(peer_list, key=lambda peer: peer.is_inbound)


@dataclass
class RelayRecord:
    """Timing of one item's journey through a node."""

    item_id: int
    kind: str  # "block" or "tx"
    first_seen: float
    #: Completion time of each relay copy (uplink departure).
    relay_times: List[float] = field(default_factory=list)
    #: Number of connections the item was queued to.
    enqueued_to: int = 0
    #: The subset of ``relay_times`` whose copy went to an outbound peer.
    outbound_relay_times: List[float] = field(default_factory=list)

    def relaying_time_within(
        self, cutoff: float, outbound: bool = False
    ) -> Optional[float]:
        """Relaying time over the initial relay wave only.

        Sends more than ``cutoff`` seconds after first receipt are serving
        late requests (a peer's initial block download, hours-later
        GETDATA), not the §IV-C relay wave, and are excluded.
        ``outbound`` times the wave to the last *outbound* peer — what
        the §V outbound-first relay order shortens.
        """
        times = self.outbound_relay_times if outbound else self.relay_times
        wave = [t for t in times if t - self.first_seen <= cutoff]
        return max(wave) - self.first_seen if wave else None


class RelayTracker:
    """Collects :class:`RelayRecord` per item for one node."""

    def __init__(self) -> None:
        self._records: Dict[int, RelayRecord] = {}

    def __len__(self) -> int:
        return len(self._records)

    def saw(self, item_id: int, kind: str, now: float) -> None:
        """Record first receipt of an item (idempotent)."""
        if item_id not in self._records:
            self._records[item_id] = RelayRecord(
                item_id=item_id, kind=kind, first_seen=now
            )

    def enqueued(self, item_id: int) -> None:
        record = self._records.get(item_id)
        if record is not None:
            record.enqueued_to += 1

    def relayed(self, item_id: int, now: float, outbound: bool = False) -> None:
        """Record one relay copy leaving the uplink (``outbound``: for an
        outbound peer)."""
        record = self._records.get(item_id)
        if record is not None:
            record.relay_times.append(now)
            if outbound:
                record.outbound_relay_times.append(now)

    def records(self, kind: Optional[str] = None) -> List[RelayRecord]:
        """All records, optionally filtered to "block" or "tx"."""
        out = list(self._records.values())
        if kind is not None:
            out = [record for record in out if record.kind == kind]
        return out

    def relaying_times(
        self,
        kind: Optional[str] = None,
        cutoff: float = 60.0,
        outbound: bool = False,
    ) -> List[float]:
        """Per-item relaying times (the Fig. 10/11 series).

        ``cutoff`` bounds the relay wave and ``outbound`` keeps only the
        copies sent to outbound peers; see
        :meth:`RelayRecord.relaying_time_within`.
        """
        out: List[float] = []
        for record in self.records(kind):
            value = record.relaying_time_within(cutoff, outbound)
            if value is not None and record.enqueued_to > 0:
                out.append(value)
        return out
