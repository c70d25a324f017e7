"""The end-to-end data-collection workflow (paper Fig. 2).

One :class:`CampaignRunner` drives a
:class:`~repro.netmodel.scenario.LongitudinalScenario` through its
snapshots.  Per snapshot it:

1. pulls the Bitnodes + DNS views and applies the blacklist
   (:mod:`~repro.core.crawler` — Fig. 3 statistics);
2. runs the Algorithm-1 GETADDR crawler against every target
   (:mod:`~repro.core.getaddr` — Figs. 4, 8, ADDR composition);
3. filters source-listed addresses out of the harvest to get the
   unreachable set and fires the Algorithm-2 VER prober at it
   (:mod:`~repro.core.prober` — Fig. 5);
4. records the connected reachable set (Algorithm 4 / Figs. 12-13).

A pass cut short by its time budget flags the snapshot ``truncated``;
its result stops changing when it returns (:mod:`~repro.core.bounded_pass`).

The accumulated :class:`CampaignResult` feeds every longitudinal table
and figure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from typing import Dict, List, Optional, Set, Tuple

from ..simnet.addresses import NetAddr
from ..simnet.simulator import canonical_sets
from ..netmodel.scenario import LongitudinalScenario
from .addr_analysis import AddrComposition, composition
from .churn_matrix import ChurnMatrix, ChurnStats, analyze, build_matrix
from .crawler import AddressCrawler, SourceStats
from .getaddr import GetAddrConfig, GetAddrCrawler
from .malicious_detect import DetectionReport, detect_flooders, merge_reports
from .prober import ProbeConfig, VerProber
from .routing import HostingReport, hosting_report

#: The measurement node's own address, outside every hosting profile.
CRAWLER_ADDR = NetAddr.parse("203.0.113.7:8333")


@dataclass
class SnapshotResult:
    """Everything measured in one snapshot.

    A finished snapshot is never grown again, so it keeps its address
    collections in their canonical form: sorted tuples, built once from
    whatever it is given.  That is what a checkpoint writes, so the live
    object pickles as it is and needs no ``canonical_sets`` hook; a
    reader that needs set algebra builds a set where it needs one.
    """

    index: int
    when: float
    source_stats: SourceStats
    connected: Tuple[NetAddr, ...]
    #: Connected via a DNS-only listing (Fig. 3d).
    dns_only_connected: int
    #: Unreachable addresses harvested this snapshot.
    unreachable: Tuple[NetAddr, ...]
    #: Newly seen unreachable addresses (vs the campaign so far).
    new_unreachable: int
    responsive: Tuple[NetAddr, ...]
    new_responsive: int
    addr_composition: AddrComposition
    detection: DetectionReport
    #: True when the crawl or probe pass hit its time budget and was cut
    #: short — the snapshot's sets are lower bounds, not full measurements.
    truncated: bool = False

    def __post_init__(self) -> None:
        self.connected = tuple(sorted(self.connected))
        self.unreachable = tuple(sorted(self.unreachable))
        self.responsive = tuple(sorted(self.responsive))


@canonical_sets(
    "cumulative_reachable", "cumulative_unreachable", "cumulative_responsive"
)
@dataclass
class CampaignResult:
    """Aggregate of a whole crawl campaign."""

    snapshots: List[SnapshotResult] = field(default_factory=list)
    cumulative_reachable: Set[NetAddr] = field(default_factory=set)
    cumulative_unreachable: Set[NetAddr] = field(default_factory=set)
    cumulative_responsive: Set[NetAddr] = field(default_factory=set)

    @property
    def truncated(self) -> bool:
        """True if any snapshot's measurement was cut short."""
        return any(snap.truncated for snap in self.snapshots)

    @property
    def truncated_snapshots(self) -> List[int]:
        """Indices of snapshots whose crawl/probe pass was cut short."""
        return [snap.index for snap in self.snapshots if snap.truncated]

    # ------------------------------------------------------------------
    # Figure series
    # ------------------------------------------------------------------
    def fig3_rows(self) -> List[Dict[str, float]]:
        """Per-snapshot Fig. 3 counters."""
        return [
            {
                "bitnodes": snap.source_stats.bitnodes_total,
                "dns": snap.source_stats.dns_total,
                "common": snap.source_stats.common_total,
                "excluded_bitnodes": snap.source_stats.excluded_bitnodes,
                "excluded_dns": snap.source_stats.excluded_dns,
                "excluded_common": snap.source_stats.excluded_common,
                "connected": len(snap.connected),
                "dns_only_connected": snap.dns_only_connected,
            }
            for snap in self.snapshots
        ]

    def fig4_series(self) -> Dict[str, List[int]]:
        """Per-snapshot unique and cumulative unreachable counts."""
        return {
            "per_snapshot": [len(snap.unreachable) for snap in self.snapshots],
            "cumulative": list(
                accumulate(snap.new_unreachable for snap in self.snapshots)
            ),
        }

    def fig5_series(self) -> Dict[str, List[int]]:
        """Per-snapshot unique and cumulative responsive counts."""
        return {
            "per_snapshot": [len(snap.responsive) for snap in self.snapshots],
            "cumulative": list(
                accumulate(snap.new_responsive for snap in self.snapshots)
            ),
        }

    def churn_matrix(self) -> ChurnMatrix:
        """Algorithm 4 over the connected-reachable snapshots."""
        return build_matrix(
            [snap.connected for snap in self.snapshots],
            [snap.when for snap in self.snapshots],
        )

    def churn_stats(self) -> ChurnStats:
        return analyze(self.churn_matrix())

    def merged_detection(self, asn_of=None) -> DetectionReport:
        return merge_reports(
            [snap.detection for snap in self.snapshots], asn_of=asn_of
        )

    def mean_addr_reachable_share(self) -> float:
        shares = [
            snap.addr_composition.mean_reachable_share
            for snap in self.snapshots
            if snap.addr_composition.total_unique
        ]
        return sum(shares) / len(shares) if shares else 0.0

    def hosting_reports(self, asn_of) -> Dict[str, HostingReport]:
        """Table-I inputs for the three classes."""
        return {
            "reachable": hosting_report(
                "reachable", self.cumulative_reachable, asn_of
            ),
            "unreachable": hosting_report(
                "unreachable", self.cumulative_unreachable, asn_of
            ),
            "responsive": hosting_report(
                "responsive", self.cumulative_responsive, asn_of
            ),
        }


#: Detection threshold, scaled by the scenario's population scale so
#: "1000 addresses" means the same network fraction at every scale.
DETECT_MIN_ADDRESSES = 1000


def scaled_threshold(scale: float) -> int:
    """The flooder-detection threshold at population ``scale``."""
    return max(10, round(DETECT_MIN_ADDRESSES * scale))


@dataclass
class CampaignConfig:
    """Pipeline knobs."""

    getaddr: GetAddrConfig = field(default_factory=GetAddrConfig)
    probe: ProbeConfig = field(default_factory=ProbeConfig)
    probe_enabled: bool = True

    def validate(self) -> None:
        self.getaddr.validate()
        self.probe.validate()


class CampaignRunner:
    """Drives the Fig. 2 pipeline over a longitudinal scenario."""

    def __init__(
        self,
        scenario: LongitudinalScenario,
        config: Optional[CampaignConfig] = None,
    ) -> None:
        self.scenario = scenario
        self.config = config if config is not None else CampaignConfig()
        self.address_crawler = AddressCrawler(self._is_blacklisted)
        self.result = CampaignResult()

    def _is_blacklisted(self, addr: NetAddr) -> bool:
        record = self.scenario.population.record(addr)
        return record is not None and record.critical

    # ------------------------------------------------------------------
    # Campaign execution
    # ------------------------------------------------------------------
    def run(self, snapshots: Optional[int] = None) -> CampaignResult:
        """Run the whole campaign (or its first ``snapshots`` snapshots)."""
        times = self.scenario.snapshot_times
        if snapshots is not None:
            times = times[:snapshots]
        for index, when in enumerate(times):
            self.run_snapshot(index, when)
        return self.result

    def run_snapshot(self, index: int, when: float) -> SnapshotResult:
        """Execute one full Fig. 2 pass at campaign time ``when``."""
        scenario = self.scenario
        scenario.materialize_snapshot(when)
        # Record the *scenario clock*, not the requested offset: the two
        # agree today (materialize lands the clock exactly on ``when``),
        # but the clock is what a checkpoint serializes, so stamping from
        # it guarantees resumed and fresh runs produce identical rows
        # even if the snapshot scheduling maths ever changes.
        when = scenario.sim.now
        views = scenario.oracles.snapshot(when)
        crawl_input = self.address_crawler.collect(views)

        # Flooders are reachable listeners outside the oracle views; the
        # crawler discovers them like any other reachable peer (they are
        # gossiped), so add them to the target list here.
        flooder_addrs = [f.addr for f in scenario.flooders]
        targets = crawl_input.targets + flooder_addrs

        crawler = GetAddrCrawler(scenario.sim, CRAWLER_ADDR, self.config.getaddr)
        crawl = crawler.run_to_completion(targets)
        truncated = crawler.aborted

        connected = set(crawl.connected_targets)
        dns_only = crawl_input.dns - crawl_input.bitnodes
        reachable_known = (
            crawl_input.known_source_addrs | connected | set(flooder_addrs)
        )
        # One union of every harvest serves the unreachable set and the
        # ADDR composition both; it is not kept through the probe pass.
        all_addrs = crawl.all_addresses
        unreachable = all_addrs - reachable_known
        comp = composition(crawl, reachable_known, all_addrs)
        del all_addrs

        responsive: Set[NetAddr] = set()
        if self.config.probe_enabled:
            prober = VerProber(scenario.sim, CRAWLER_ADDR, self.config.probe)
            probe_result = prober.run_to_completion(unreachable)
            responsive = probe_result.responsive
            truncated = truncated or prober.aborted
        scenario.crawl_ended()

        detection = detect_flooders(
            crawl,
            reachable_known,
            min_addresses=scaled_threshold(scenario.config.scale),
            asn_of=scenario.universe.asn_of,
        )

        snapshot = SnapshotResult(
            index=index,
            when=when,
            source_stats=crawl_input.stats,
            connected=connected,
            dns_only_connected=len(connected & dns_only),
            unreachable=unreachable,
            new_unreachable=len(
                unreachable - self.result.cumulative_unreachable
            ),
            responsive=responsive,
            new_responsive=len(
                responsive - self.result.cumulative_responsive
            ),
            addr_composition=comp,
            detection=detection,
            truncated=truncated,
        )
        self.result.snapshots.append(snapshot)
        self.result.cumulative_reachable |= connected
        self.result.cumulative_unreachable |= unreachable
        self.result.cumulative_responsive |= responsive
        return snapshot
