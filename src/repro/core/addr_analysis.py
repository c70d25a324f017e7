"""ADDR-payload composition analysis (§IV-A.2 / §IV-B).

The paper's headline addressing finding: an average ADDR message carries
14.9% reachable and 85.1% unreachable addresses — i.e. 85.1% of address
gossip provides no connectivity benefit and inflates the outgoing-
connection failure rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Set

from ..simnet.addresses import NetAddr
from .getaddr import CrawlResult, PeerHarvest


@dataclass(frozen=True)
class AddrComposition:
    """Reachable/unreachable split of harvested address gossip."""

    total_unique: int
    reachable_unique: int
    unreachable_unique: int
    #: Per-peer mean reachable share (the paper's per-message average).
    mean_reachable_share: float

    @property
    def reachable_share(self) -> float:
        return self.reachable_unique / self.total_unique if self.total_unique else 0.0

    @property
    def unreachable_share(self) -> float:
        return 1.0 - self.reachable_share if self.total_unique else 0.0


def classify_harvest(
    harvest: PeerHarvest, reachable_known: Set[NetAddr]
) -> Dict[str, int]:
    """Counts of reachable vs unreachable addresses one peer sent."""
    # C-level set intersection; harvests hold thousands of addresses and
    # every crawl snapshot classifies every harvest.
    reachable = len(harvest.addresses & reachable_known)
    return {
        "reachable": reachable,
        "unreachable": len(harvest.addresses) - reachable,
    }


def composition(
    result: CrawlResult,
    reachable_known: Set[NetAddr],
    all_addrs: Optional[Set[NetAddr]] = None,
) -> AddrComposition:
    """Aggregate ADDR composition over a crawl pass.

    ``reachable_known`` is the crawler's reachable ground view — the
    union of the Bitnodes and DNS source lists, as in the paper.
    ``all_addrs`` is ``result.all_addresses``, for a caller that has
    already built that union.
    """
    if all_addrs is None:
        all_addrs = result.all_addresses
    reachable_unique = len(all_addrs & reachable_known)
    per_peer_shares = []
    for harvest in result.harvests.values():
        if not harvest.addresses:
            continue
        counts = classify_harvest(harvest, reachable_known)
        per_peer_shares.append(
            counts["reachable"] / len(harvest.addresses)
        )
    mean_share = (
        sum(per_peer_shares) / len(per_peer_shares) if per_peer_shares else 0.0
    )
    return AddrComposition(
        total_unique=len(all_addrs),
        reachable_unique=reachable_unique,
        unreachable_unique=len(all_addrs) - reachable_unique,
        mean_reachable_share=mean_share,
    )
