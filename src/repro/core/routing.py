"""AS-level hosting and routing-attack analysis (§IV-A.1, Table I).

Given classified address sets and the AS ownership map, compute:

* the Table-I view: top-k ASes per node class with hosting percentages;
* the "k ASes host 50% of nodes" concentration statistic;
* the revisited partitioning attack: which ASes an adversary should
  hijack, and how the preferred targets *change* once unreachable and
  responsive nodes are taken into account (the paper's AS4134 example:
  20th by reachable nodes, 2nd by responsive nodes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..analysis.stats import k_to_cover
from ..errors import AnalysisError
from ..simnet.addresses import NetAddr


@dataclass(frozen=True)
class ASHostingRow:
    """One row of the Table-I style report."""

    rank: int
    asn: int
    count: int
    percent: float


@dataclass
class HostingReport:
    """Hosting distribution of one node class."""

    node_class: str
    total_nodes: int
    as_counts: Dict[int, int]

    @property
    def distinct_ases(self) -> int:
        return len(self.as_counts)

    def top(self, k: int = 20) -> List[ASHostingRow]:
        ordered = sorted(
            self.as_counts.items(), key=lambda item: (-item[1], item[0])
        )
        return [
            ASHostingRow(
                rank=rank,
                asn=asn,
                count=count,
                percent=100.0 * count / self.total_nodes,
            )
            for rank, (asn, count) in enumerate(ordered[:k], start=1)
        ]

    def k_to_cover_half(self) -> int:
        """ASes needed to host 50% of this class."""
        return k_to_cover(self.as_counts)

    def rank_of(self, asn: int) -> Optional[int]:
        """1-based rank of ``asn`` in this class, or None if absent."""
        ordered = sorted(
            self.as_counts.items(), key=lambda item: (-item[1], item[0])
        )
        for rank, (candidate, _count) in enumerate(ordered, start=1):
            if candidate == asn:
                return rank
        return None


def hosting_report(
    node_class: str,
    addrs: Iterable[NetAddr],
    asn_of: Callable[[NetAddr], Optional[int]],
) -> HostingReport:
    """Aggregate addresses into an AS hosting distribution."""
    counts: Dict[int, int] = {}
    total = 0
    for addr in addrs:
        asn = asn_of(addr)
        if asn is None:
            continue
        total += 1
        counts[asn] = counts.get(asn, 0) + 1
    if total == 0:
        raise AnalysisError(f"no addresses mapped to ASes for {node_class!r}")
    return HostingReport(node_class=node_class, total_nodes=total, as_counts=counts)


def common_top_ases(reports: Sequence[HostingReport]) -> Set[int]:
    """ASes present in every class's Table I top 20 (the paper found only 10)."""
    if not reports:
        raise AnalysisError("no reports given")
    sets = [
        {row.asn for row in report.top(20)} for report in reports
    ]
    common = sets[0]
    for other in sets[1:]:
        common &= other
    return common


@dataclass(frozen=True)
class HijackPlan:
    """A routing-attack plan: which ASes to take, what it isolates."""

    target_share: float
    hijacked_ases: Tuple[int, ...]
    isolated_nodes: int
    total_nodes: int

    @property
    def isolated_share(self) -> float:
        return self.isolated_nodes / self.total_nodes if self.total_nodes else 0.0


#: The share of a node class a :func:`plan_hijack` plan isolates.
HIJACK_SHARE = 0.5


def plan_hijack(report: HostingReport) -> HijackPlan:
    """Greedy AS-hijack plan isolating :data:`HIJACK_SHARE` of a node class.

    This is the attack model of [22] recomputed against our network view:
    hijack the largest hosting ASes until the isolated share is reached.
    """
    ordered = sorted(
        report.as_counts.items(), key=lambda item: (-item[1], item[0])
    )
    hijacked: List[int] = []
    isolated = 0
    goal = report.total_nodes * HIJACK_SHARE
    for asn, count in ordered:
        if isolated >= goal:
            break
        hijacked.append(asn)
        isolated += count
    return HijackPlan(
        target_share=HIJACK_SHARE,
        hijacked_ases=tuple(hijacked),
        isolated_nodes=isolated,
        total_nodes=report.total_nodes,
    )


@dataclass(frozen=True)
class TargetShift:
    """How one AS's attractiveness changes across network views."""

    asn: int
    rank_by_reachable: Optional[int]
    rank_by_responsive: Optional[int]


def target_shifts(
    reachable: HostingReport, responsive: HostingReport, k: int = 20
) -> List[TargetShift]:
    """ASes whose attack rank improves when responsive nodes count.

    Reproduces the paper's AS4134 observation: an AS marginal by
    reachable-node count can be a top target once the responsive
    unreachable population is acknowledged.
    """
    shifts: List[TargetShift] = []
    for row in responsive.top(k):
        shifts.append(
            TargetShift(
                asn=row.asn,
                rank_by_reachable=reachable.rank_of(row.asn),
                rank_by_responsive=row.rank,
            )
        )
    return shifts
