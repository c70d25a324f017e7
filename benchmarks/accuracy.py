"""The accuracy table: every paper number this reproduction is held to.

``python -m benchmarks.accuracy`` runs the experiments below, rewrites
the block of EXPERIMENTS.md between ``<!-- accuracy:begin -->`` and
``<!-- accuracy:end -->`` and exits 1 if any check fails.  It takes no
flags and reads no environment variable: one size, one row list, one
gate.

An experiment maps one seed to ``{row id: value}``.  The paper's
experiments run at their seed and the next four; the ablations at
their own seeds (once each, the chaos sweep at two).  A row is ``(id, figure, metric, paper value,
checks)``.  A check on an invariant (marked "every seed") must hold on
every seed; a check on an estimate holds on the five-seed median.  In a
check, ``x`` is the measured value and ``r`` its ratio to the paper's.
Counts are compared against paper values scaled by :data:`SCALE`;
shares, rates and delays directly.
"""

from __future__ import annotations

import math
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis import compare_densities
from repro.bitcoin import NodeConfig, PolicyConfig
from repro.core import (
    Axis,
    CampaignRunner,
    ConditionSweepPlan,
    GetAddrConfig,
    GetAddrCrawler,
    RelayExperimentConfig,
    SyncCampaignConfig,
    common_top_ases,
    conditions,
    plan_hijack,
    run_connection_stability,
    run_connection_success,
    run_relay_experiment,
    run_resync_experiment,
    run_sync_campaign,
    target_shifts,
    warm_world,
)
from repro.core.decode import decode_file
from repro.core.parallel import default_workers
from repro.core.propagation import PropagationTracker
from repro.core.supervisor import SupervisorConfig, run_supervised
from repro.faults import FaultPlan
from repro.netmodel import (
    LongitudinalConfig,
    LongitudinalScenario,
    ProtocolConfig,
    ProtocolScenario,
    topology_stats,
)
from repro.netmodel import calibration as cal
from repro.netmodel.addr_server import AddrServer
from repro.simnet import NetAddr, Simulator
from repro.simnet.addresses import stamp
from repro.units import DAYS

#: Population scale and snapshot count of the crawl campaign: the sizes
#: every bound below was written for.
SCALE = 0.02
SNAPSHOTS = 30
#: A paper experiment runs at its seed and the next ``PAPER_SEEDS - 1``.
PAPER_SEEDS = 5
#: The paper's Fig. 8 heavy-sender line (100K records), scaled.
FLOOD_THRESHOLD = int(100_000 * SCALE)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXPERIMENTS_MD = os.path.join(ROOT, "EXPERIMENTS.md")
CHAOS_PLAN = os.path.join(ROOT, "examples", "faultplan_chaos.json")
BEGIN, END = "<!-- accuracy:begin -->", "<!-- accuracy:end -->"

Values = Dict[str, float]


# ---------------------------------------------------------------------------
# Checks and rows
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Check:
    """One bound: ``text`` as printed, ``holds`` as evaluated."""

    text: str
    holds: Callable[[float], bool]
    of_ratio: bool = False
    every_seed: bool = False


def gt(bound: float) -> Check:
    return Check(f"x > {bound:g}", lambda x: x > bound)


def ge(bound: float) -> Check:
    return Check(f"x ≥ {bound:g}", lambda x: x >= bound)


def lt(bound: float) -> Check:
    return Check(f"x < {bound:g}", lambda x: x < bound)


def le(bound: float) -> Check:
    return Check(f"x ≤ {bound:g}", lambda x: x <= bound)


def eq(bound: float) -> Check:
    return Check(f"x = {bound:g}", lambda x: x == bound)


def between(lo: float, hi: float) -> Check:
    return Check(f"{lo:g} < x < {hi:g}", lambda x: lo < x < hi)


def within(lo: float, hi: float) -> Check:
    return Check(f"{lo:g} ≤ x ≤ {hi:g}", lambda x: lo <= x <= hi)


def near(centre: float, distance: float) -> Check:
    return Check(
        f"|x − {centre:g}| ≤ {distance:g}", lambda x: abs(x - centre) <= distance
    )


def ratio(check: Check) -> Check:
    """``check`` applied to the measured / paper ratio."""
    return replace(check, text=check.text.replace("x", "r"), of_ratio=True)


def every_seed(check: Check) -> Check:
    """``check`` as an invariant: it must hold on every seed."""
    return replace(check, text=f"{check.text} every seed", every_seed=True)


@dataclass(frozen=True)
class Row:
    id: str
    figure: str
    metric: str
    paper: Optional[float]
    checks: Tuple[Check, ...]


def row(id: str, figure: str, metric: str, paper: Optional[float], *checks: Check) -> Row:
    return Row(id, figure, metric, paper, checks)


ROWS: List[Row] = [
    row("fig01.mean_2019", "Fig. 1", "sync mean 2019 (%)", cal.SYNC_MEAN_2019, between(55.0, 90.0)),
    row("fig01.median_2019", "Fig. 1", "sync median 2019 (%)", cal.SYNC_MEDIAN_2019),
    row("fig01.mean_2020", "Fig. 1", "sync mean 2020 (%)", cal.SYNC_MEAN_2020, between(45.0, 80.0)),
    row("fig01.median_2020", "Fig. 1", "sync median 2020 (%)", cal.SYNC_MEDIAN_2020),
    row("fig01.mean_drop", "Fig. 1", "mean drop 2019→2020 (pts)",
        cal.SYNC_MEAN_2019 - cal.SYNC_MEAN_2020, gt(0), between(4.0, 25.0)),
    row("fig01.kde_mean_shift", "Fig. 1", "KDE mean shift 2019→2020 (pts)", None, gt(0)),
    row("fig03.bitnodes", "Fig. 3", "Bitnodes addrs / snapshot",
        cal.BITNODES_ADDRS_PER_SNAPSHOT * SCALE, ratio(between(0.5, 2.0))),
    row("fig03.dns", "Fig. 3", "DNS addrs / snapshot", cal.DNS_ADDRS_PER_SNAPSHOT * SCALE),
    row("fig03.common", "Fig. 3", "common addrs / snapshot", cal.COMMON_ADDRS_PER_SNAPSHOT * SCALE),
    row("fig03.bitnodes_minus_dns", "Fig. 3", "Bitnodes − DNS addrs",
        (cal.BITNODES_ADDRS_PER_SNAPSHOT - cal.DNS_ADDRS_PER_SNAPSHOT) * SCALE, gt(0)),
    row("fig03.dns_per_common", "Fig. 3", "DNS / common addrs",
        cal.DNS_ADDRS_PER_SNAPSHOT / cal.COMMON_ADDRS_PER_SNAPSHOT, gt(0.8)),
    row("fig03.common_per_dns", "Fig. 3", "common / DNS addrs",
        cal.COMMON_ADDRS_PER_SNAPSHOT / cal.DNS_ADDRS_PER_SNAPSHOT, gt(0.75)),
    row("fig03.excluded_bitnodes", "Fig. 3", "excluded Bitnodes", cal.EXCLUDED_BITNODES * SCALE),
    row("fig03.excluded_dns", "Fig. 3", "excluded DNS", cal.EXCLUDED_DNS * SCALE),
    row("fig03.excluded_common", "Fig. 3", "excluded common", cal.EXCLUDED_COMMON * SCALE),
    row("fig03.connected", "Fig. 3", "connected / snapshot",
        cal.CONNECTED_PER_SNAPSHOT * SCALE, ratio(between(0.5, 2.0))),
    row("fig03.dns_only_connected", "Fig. 3d", "DNS-only connected",
        cal.DNS_ONLY_CONNECTED * SCALE, gt(0)),
    row("fig04.per_snapshot", "Fig. 4", "unreachable / snapshot",
        cal.UNREACHABLE_PER_SNAPSHOT * SCALE, ratio(between(0.5, 2.0))),
    row("fig04.cumulative", "Fig. 4", "cumulative unreachable",
        cal.CUMULATIVE_UNREACHABLE * SCALE, ratio(between(0.5, 2.0))),
    row("fig04.cumulative_decreases", "Fig. 4", "cumulative series decreases", 0,
        every_seed(eq(0))),
    row("fig04.cumulative_per_first", "Fig. 4", "cumulative / first snapshot",
        cal.CUMULATIVE_UNREACHABLE / cal.UNREACHABLE_PER_SNAPSHOT, gt(1.5)),
    row("fig04.unreachable_per_reachable", "Fig. 4", "unreachable : reachable",
        cal.UNREACHABLE_TO_REACHABLE_RATIO, between(12.0, 48.0)),
    row("fig05.per_snapshot", "Fig. 5", "responsive / snapshot",
        cal.RESPONSIVE_PER_SNAPSHOT * SCALE, ratio(between(0.5, 2.0))),
    row("fig05.cumulative", "Fig. 5", "cumulative responsive",
        cal.CUMULATIVE_RESPONSIVE * SCALE, ratio(between(0.5, 2.0))),
    row("fig05.cumulative_decreases", "Fig. 5", "cumulative series decreases", 0,
        every_seed(eq(0))),
    row("fig05.share_cumulative", "Fig. 5", "responsive share (cumulative)",
        cal.RESPONSIVE_SHARE_CUMULATIVE, between(0.12, 0.45)),
    row("fig05.share_per_snapshot", "Fig. 5", "responsive share (per snapshot)",
        cal.RESPONSIVE_SHARE_PER_SNAPSHOT),
    row("table1.k50_reachable", "Table I", "ASes covering 50% of reachable",
        cal.AS_50PCT_REACHABLE, near(cal.AS_50PCT_REACHABLE, 12)),
    row("table1.k50_unreachable", "Table I", "ASes covering 50% of unreachable",
        cal.AS_50PCT_UNREACHABLE, near(cal.AS_50PCT_UNREACHABLE, 15)),
    row("table1.k50_responsive", "Table I", "ASes covering 50% of responsive",
        cal.AS_50PCT_RESPONSIVE, near(cal.AS_50PCT_RESPONSIVE, 12)),
    row("table1.common_top20", "Table I", "ASes common to all three top-20s", 10,
        within(5, 16)),
    row("table1.target_shifts", "Table I", "top-3 responsive ASes ranked lower by reachable",
        None, gt(0)),
    row("table1.hijack_isolated", "Table I", "share isolated by the 50% hijack plan", 0.5,
        every_seed(ge(0.5))),
    row("table1.hijack_excess_ases", "Table I", "hijack plan ASes − ASes covering 50%", 0,
        every_seed(eq(0))),
    row("fig06.mean", "Fig. 6", "mean outgoing connections",
        cal.MEAN_OUTGOING_CONNECTIONS, lt(8.0)),
    row("fig06.below_8", "Fig. 6", "time below 8 connections",
        cal.TIME_BELOW_8_CONNECTIONS, gt(0.2)),
    row("fig06.min", "Fig. 6", "min connections", cal.CONNECTION_RANGE[0], lt(8)),
    row("fig06.max", "Fig. 6", "max connections", cal.CONNECTION_RANGE[1],
        every_seed(le(10))),
    row("fig06.observer_up", "Fig. 6", "observer running at every sample", None,
        every_seed(eq(1))),
    row("fig07.success", "Fig. 7", "success rate (5 runs)",
        cal.CONNECTION_SUCCESS_RATE, between(0.04, 0.30)),
    row("fig07.failure", "Fig. 7", "failure rate", 1 - cal.CONNECTION_SUCCESS_RATE),
    row("fig07.worst_run", "Fig. 7", "worst-run rate",
        cal.CONNECTION_WORST_RUN[0] / cal.CONNECTION_WORST_RUN[1], lt(0.20)),
    row("fig07.min_attempts", "Fig. 7", "fewest attempts in a run", None, gt(30)),
    row("fig08.misflagged", "Fig. 8", "flagged ≠ planted flooders", 0, every_seed(eq(0))),
    row("fig08.detected", "Fig. 8", "flooders detected", cal.MALICIOUS_NODE_COUNT,
        every_seed(eq(cal.MALICIOUS_NODE_COUNT))),
    row("fig08.over_threshold", "Fig. 8", f"flooders over {FLOOD_THRESHOLD:,} records",
        cal.MALICIOUS_OVER_100K, within(1, 40)),
    row("fig08.max_flood", "Fig. 8", "max flood (records)",
        cal.MALICIOUS_MAX_FLOOD * SCALE, gt(FLOOD_THRESHOLD)),
    row("fig08.top8_share", "Fig. 8", "top-8 share of flood records", None, gt(0.3)),
    row("fig08.as3320_share", "Fig. 8", "flooder share in AS3320",
        cal.MALICIOUS_AS3320_SHARE, between(0.35, 0.85)),
    row("fig10.mean", "Fig. 10", "mean block relaying time (s)",
        cal.BLOCK_RELAY_MEAN, between(0.5, 3.5)),
    row("fig10.max", "Fig. 10", "max block relaying time (s)",
        cal.BLOCK_RELAY_MAX, ge(2.0), le(30.0)),
    row("fig10.blocks", "Fig. 10", "blocks measured", None, ge(15)),
    row("fig10.outbound", "Fig. 10", "outgoing connections at end",
        cal.RELAY_NODE_OUTGOING, eq(cal.RELAY_NODE_OUTGOING)),
    row("fig10.inbound", "Fig. 10", "incoming connections at end",
        cal.RELAY_NODE_INCOMING, eq(cal.RELAY_NODE_INCOMING)),
    row("fig11.mean", "Fig. 11", "mean tx relaying time (s)",
        cal.TX_RELAY_MEAN, between(0.1, 1.2)),
    row("fig11.max", "Fig. 11", "max tx relaying time (s)",
        cal.TX_RELAY_MAX, within(2.0, 25.0)),
    row("fig11.txs", "Fig. 11", "transactions measured", None, ge(500)),
    row("fig11.block_minus_tx_mean", "Fig. 11", "block − tx mean relaying time (s)",
        cal.BLOCK_RELAY_MEAN - cal.TX_RELAY_MEAN, gt(0)),
    row("fig12.unique", "Fig. 12", "unique reachable nodes",
        cal.CUMULATIVE_REACHABLE * SCALE, ratio(between(0.5, 2.0))),
    row("fig12.always_on", "Fig. 12", "always-on nodes",
        cal.ALWAYS_ON_NODES * SCALE, gt(0), ratio(between(0.4, 2.0))),
    row("fig12.lifetime_days", "Fig. 12", "mean node lifetime (days)",
        cal.MEAN_NODE_LIFETIME_DAYS, ratio(between(0.5, 2.0))),
    row("fig12.rejoining", "Fig. 12", "rejoining nodes", None, gt(0)),
    row("fig12.unique_per_alive", "Fig. 12", "unique / mean alive per snapshot", None,
        gt(2 * 0.9)),
    row("fig12.departed_share", "Fig. 12", "share of nodes that left", None, gt(0.5)),
    row("fig13.daily_departures", "Fig. 13", "daily departures",
        cal.DAILY_CHURN_NODES * SCALE, ratio(between(0.4, 2.2))),
    row("fig13.daily_arrivals", "Fig. 13", "daily arrivals", cal.DAILY_CHURN_NODES * SCALE),
    row("fig13.daily_rate", "Fig. 13", "daily churn rate",
        cal.DAILY_CHURN_RATE, ratio(between(0.4, 2.2))),
    row("fig13.arrival_gap", "Fig. 13", "|arrivals − departures| / departures", None,
        lt(0.35)),
    row("addr.reachable_share", "§IV-B", "reachable share of ADDR",
        cal.ADDR_REACHABLE_SHARE, between(0.08, 0.25)),
    row("addr.unreachable_share", "§IV-B", "unreachable share of ADDR",
        cal.ADDR_UNREACHABLE_SHARE, gt(0.75)),
    row("departures.2019", "§IV-D", "sync departures / 10 min (2019)",
        cal.SYNC_DEPARTURES_2019, gt(0), between(1.5, 8.0)),
    row("departures.2020", "§IV-D", "sync departures / 10 min (2020)",
        cal.SYNC_DEPARTURES_2020, between(4.0, 16.0)),
    row("departures.ratio", "§IV-D", "2020 : 2019 departures",
        cal.SYNC_DEPARTURES_2020 / cal.SYNC_DEPARTURES_2019, between(1.5, 3.5)),
    row("resync.relayed", "§IV-D", "restart relays again within 1 h", 1, eq(1)),
    row("resync.seconds", "§IV-D", "restart-to-relay time (s)",
        cal.RESYNC_TIME_SECONDS, between(30.0, 2400.0)),
    row("improvements.success_baseline", "§V", "success rate, baseline", None),
    row("improvements.success_tried_only", "§V", "success rate, tried-only", None),
    row("improvements.success_tried_only_17d", "§V", "success rate, tried-only+17d", None),
    row("improvements.tried_only_gain", "§V", "tried-only − baseline success rate", None,
        gt(0)),
    row("improvements.horizon_keep", "§V", "tried-only+17d / tried-only success rate",
        None, ge(0.8)),
    row("improvements.outbound_relay_baseline", "§V",
        "mean block relaying time to outbound peers (s), baseline", None),
    row("improvements.outbound_relay_prio", "§V",
        "mean block relaying time to outbound peers (s), block-prio", None),
    row("improvements.outbound_blocks_baseline", "§V", "blocks measured, baseline", None,
        ge(8)),
    row("improvements.outbound_blocks_prio", "§V", "blocks measured, block-prio", None,
        ge(8)),
    row("improvements.prio_relay_ratio", "§V", "block-prio / baseline outbound relaying",
        None, le(1.25)),
    row("improvements.sync_baseline", "§V", "sync mean at 2020 churn (%), baseline", None),
    row("improvements.sync_improved", "§V", "sync mean at 2020 churn (%), improved", None),
    row("improvements.sync_gain", "§V", "improved − baseline sync mean (pts)", None,
        gt(-2.0)),
    row("chaos.failed_seeds", "chaos", "failed seeds", 0, every_seed(eq(0))),
    row("chaos.baseline_cells", "chaos", "intensity-0 cells", 1, every_seed(eq(1))),
    row("chaos.baseline_faults", "chaos", "fault counters fired at intensity 0", 0,
        every_seed(eq(0))),
    row("chaos.dropped_at_2", "chaos", "messages dropped at intensity 2", None, gt(0)),
    row("chaos.sync_clean", "chaos", "sync mean at intensity 0 (%)", None),
    row("chaos.sync_at_2", "chaos", "sync mean at intensity 2 (%)", None),
    row("chaos.sync_loss", "chaos", "intensity 0 − intensity 2 sync mean (pts)", None,
        gt(0)),
    row("propagation.delay_8", "§IV-B", "90% propagation delay, outdegree 8 (s)", None),
    row("propagation.delay_4", "§IV-B", "90% propagation delay, outdegree 4 (s)", None),
    row("propagation.delay_2", "§IV-B", "90% propagation delay, outdegree 2 (s)", None),
    row("propagation.delay_8_per_4", "§IV-B", "delay at 8 / delay at 4", None, le(1.1)),
    row("propagation.delay_2_minus_8", "§IV-B", "delay at 2 − delay at 8 (s)", None, gt(0)),
    row("propagation.component_at_2", "§IV-B", "largest component share, outdegree 2",
        None, gt(0.9)),
    row("stoprule.coverage_adaptive", "Alg. 1", "table coverage, adaptive@0.5", None,
        ge(0.3)),
    row("stoprule.coverage_paper_minus_adaptive", "Alg. 1",
        "coverage, paper rule − adaptive@0.5", None, ge(0)),
    row("stoprule.coverage_greedy_minus_adaptive", "Alg. 1",
        "coverage, adaptive@0.2 − adaptive@0.5", None, ge(0)),
    row("stoprule.rounds_paper_minus_adaptive", "Alg. 1",
        "GETADDR rounds, paper rule − adaptive@0.5", None, ge(0)),
    row("stoprule.rounds_greedy_minus_adaptive", "Alg. 1",
        "GETADDR rounds, adaptive@0.2 − adaptive@0.5", None, ge(0)),
]


# ---------------------------------------------------------------------------
# Experiments: seed -> {row id: value}
# ---------------------------------------------------------------------------


def _decreases(series: Sequence[float]) -> int:
    return sum(1 for a, b in zip(series, series[1:]) if b < a)


def _campaign(seed: int, **overrides):
    """One 60-day crawl at :data:`SCALE`: its scenario and result."""
    scenario = LongitudinalScenario(
        LongitudinalConfig(scale=SCALE, snapshots=SNAPSHOTS, seed=seed, **overrides)
    )
    return scenario, CampaignRunner(scenario).run()


def crawl(seed: int) -> Values:
    """The 60-day crawl campaign (Figs. 3-5, 12, 13, Table I, ADDR), its
    flooder cohort the paper's share of this population."""
    scenario, result = _campaign(seed)
    asn_of = scenario.universe.asn_of

    fig3 = result.fig3_rows()
    mean = {key: float(np.mean([r[key] for r in fig3])) for key in fig3[0]}
    fig4, fig5 = result.fig4_series(), result.fig5_series()
    connected = float(np.mean([len(snap.connected) for snap in result.snapshots]))

    matrix, churn = result.churn_matrix(), result.churn_stats()
    per_day = 86400.0 / matrix.snapshot_interval
    departures = float(np.mean(churn.departures)) * per_day
    arrivals = float(np.mean(churn.arrivals)) * per_day

    hosting = result.hosting_reports(asn_of)
    reachable = hosting["reachable"]
    classes = [reachable, hosting["unreachable"], hosting["responsive"]]
    shifts = target_shifts(reachable, hosting["responsive"], k=3)
    hijack = plan_hijack(reachable)

    share = result.mean_addr_reachable_share()
    return {
        "fig03.bitnodes": mean["bitnodes"],
        "fig03.dns": mean["dns"],
        "fig03.common": mean["common"],
        "fig03.bitnodes_minus_dns": mean["bitnodes"] - mean["dns"],
        "fig03.dns_per_common": mean["dns"] / mean["common"],
        "fig03.common_per_dns": mean["common"] / mean["dns"],
        "fig03.excluded_bitnodes": mean["excluded_bitnodes"],
        "fig03.excluded_dns": mean["excluded_dns"],
        "fig03.excluded_common": mean["excluded_common"],
        "fig03.connected": mean["connected"],
        "fig03.dns_only_connected": mean["dns_only_connected"],
        "fig04.per_snapshot": float(np.mean(fig4["per_snapshot"])),
        "fig04.cumulative": fig4["cumulative"][-1],
        "fig04.cumulative_decreases": _decreases(fig4["cumulative"]),
        "fig04.cumulative_per_first": fig4["cumulative"][-1] / fig4["per_snapshot"][0],
        "fig04.unreachable_per_reachable": float(np.mean(fig4["per_snapshot"])) / connected,
        "fig05.per_snapshot": float(np.mean(fig5["per_snapshot"])),
        "fig05.cumulative": fig5["cumulative"][-1],
        "fig05.cumulative_decreases": _decreases(fig5["cumulative"]),
        "fig05.share_cumulative": (
            len(result.cumulative_responsive) / len(result.cumulative_unreachable)
        ),
        "fig05.share_per_snapshot": float(np.mean([
            len(snap.responsive) / len(snap.unreachable)
            for snap in result.snapshots
            if snap.unreachable
        ])),
        "table1.k50_reachable": reachable.k_to_cover_half(),
        "table1.k50_unreachable": hosting["unreachable"].k_to_cover_half(),
        "table1.k50_responsive": hosting["responsive"].k_to_cover_half(),
        "table1.common_top20": len(common_top_ases(classes)),
        "table1.target_shifts": sum(
            1
            for shift in shifts
            if shift.rank_by_reachable is None
            or shift.rank_by_reachable > shift.rank_by_responsive
        ),
        "table1.hijack_isolated": hijack.isolated_share,
        "table1.hijack_excess_ases": (
            len(hijack.hijacked_ases) - reachable.k_to_cover_half()
        ),
        "fig12.unique": churn.unique_nodes,
        "fig12.always_on": churn.always_on,
        "fig12.lifetime_days": churn.mean_lifetime / DAYS,
        "fig12.rejoining": churn.rejoining_nodes,
        "fig12.unique_per_alive": churn.unique_nodes / churn.mean_alive_per_snapshot,
        "fig12.departed_share": (churn.unique_nodes - churn.always_on) / churn.unique_nodes,
        "fig13.daily_departures": departures,
        "fig13.daily_arrivals": arrivals,
        "fig13.daily_rate": churn.departure_rate * per_day,
        "fig13.arrival_gap": abs(arrivals - departures) / departures,
        "addr.reachable_share": share,
        "addr.unreachable_share": 1 - share,
    }


def flood_crawl(seed: int) -> Values:
    """Fig. 8 from a crawl that plants the paper's full 73 flooders: the
    per-flooder rows need a cohort big enough to have a distribution;
    pools stay scale-proportional."""
    scenario, result = _campaign(seed, flooder_count=cal.MALICIOUS_NODE_COUNT)
    report = result.merged_detection(scenario.universe.asn_of)
    volumes = report.flood_volumes()
    planted = {flooder.addr for flooder in scenario.flooders}
    flagged = {finding.peer for finding in report.findings}
    return {
        "fig08.misflagged": len(planted ^ flagged),
        "fig08.detected": report.count,
        "fig08.over_threshold": report.count_over(FLOOD_THRESHOLD),
        "fig08.max_flood": report.max_flood,
        "fig08.top8_share": sum(volumes[:8]) / sum(volumes),
        "fig08.as3320_share": report.as_share_by_asn().get(cal.MALICIOUS_AS3320, 0.0),
    }


def sync_arms(seed: int) -> Values:
    """Fig. 1's 2019 and 2020 arms (and §IV-D's departure rates)."""
    base = SyncCampaignConfig(duration=3 * 3600.0, seed=seed)
    sweep = ConditionSweepPlan(
        "fig1", conditions(base, Axis.year()), [seed], workers=1
    ).run()
    arms = {cell.labels["year"]: cell.sweep for cell in sweep.cells}
    r2019, r2020 = arms["2019"], arms["2020"]
    d2019, d2020 = compare_densities(r2019.sync_samples, r2020.sync_samples)
    rate2019 = r2019.sync_departures_per_10min
    rate2020 = r2020.sync_departures_per_10min
    return {
        "fig01.mean_2019": r2019.mean,
        "fig01.median_2019": r2019.median,
        "fig01.mean_2020": r2020.mean,
        "fig01.median_2020": r2020.median,
        "fig01.mean_drop": r2019.mean - r2020.mean,
        "fig01.kde_mean_shift": d2019.mean - d2020.mean,
        "departures.2019": rate2019,
        "departures.2020": rate2020,
        "departures.ratio": rate2020 / rate2019 if rate2019 else math.nan,
    }


def relay(seed: int) -> Values:
    """The Fig. 10/11 measurement node (1 s log quantization)."""
    result = run_relay_experiment(
        RelayExperimentConfig(duration=4 * 3600.0, n_reachable=30, seed=seed)
    )
    blocks, txs = result.block_summary(), result.tx_summary()
    return {
        "fig10.mean": blocks.mean,
        "fig10.max": blocks.maximum,
        "fig10.blocks": blocks.count,
        "fig10.outbound": result.outbound_at_end,
        "fig10.inbound": result.inbound_at_end,
        "fig11.mean": txs.mean,
        "fig11.max": txs.maximum,
        "fig11.txs": txs.count,
        "fig11.block_minus_tx_mean": blocks.mean - txs.mean,
    }


def conn_stability(seed: int) -> Values:
    """Fig. 6: one observer's outgoing connections over 260 s."""
    world = warm_world(seed)
    result = run_connection_stability(world)
    return {
        "fig06.mean": result.mean_connections,
        "fig06.below_8": result.fraction_below_8,
        "fig06.min": result.min_connections,
        "fig06.max": result.max_connections,
        # No fault runs here, so only churn could have stopped it.
        "fig06.observer_up": float(not world.measurement_nodes[0].departed),
    }


def conn_success(seed: int) -> Values:
    """Fig. 7: five 5-minute runs of a restarted observer."""
    result = run_connection_success(warm_world(seed), runs=5)
    return {
        "fig07.success": result.overall_rate,
        "fig07.failure": 1 - result.overall_rate,
        "fig07.worst_run": result.worst_run.success_rate,
        "fig07.min_attempts": min(run.attempts for run in result.runs),
    }


def resync(seed: int) -> Values:
    """§IV-D: a synchronized node's restart-to-relay time."""
    seconds = run_resync_experiment(warm_world(seed)).resync_seconds
    return {
        "resync.relayed": float(seconds is not None),
        "resync.seconds": math.inf if seconds is None else seconds,
    }


_TRIED_ONLY = {"addr_from_tried_only": True}


def policy_success(seed: int) -> Values:
    """§V: tried-only ADDR (and the 17-day horizon) vs success rate."""

    def rate(policies: PolicyConfig) -> float:
        scenario = ProtocolScenario(
            ProtocolConfig(
                n_reachable=50,
                seed=seed,
                mining=False,
                node_config=NodeConfig(policies=policies),
            )
        )
        scenario.start(warmup=1500.0)
        return run_connection_success(
            scenario,
            runs=3,
            observer_config=NodeConfig(
                policies=policies, track_connection_attempts=True
            ),
        ).overall_rate

    baseline = rate(PolicyConfig())
    tried_only = rate(PolicyConfig(params=_TRIED_ONLY))
    tried_17d = rate(PolicyConfig(params={**_TRIED_ONLY, "tried_horizon_days": 17.0}))
    return {
        "improvements.success_baseline": baseline,
        "improvements.success_tried_only": tried_only,
        "improvements.success_tried_only_17d": tried_17d,
        "improvements.tried_only_gain": tried_only - baseline,
        "improvements.horizon_keep": tried_17d / tried_only,
    }


def policy_relay(seed: int) -> Values:
    """§V: block priority vs relaying time to the outbound peers."""
    values: Values = {}
    for label, prioritize in (("baseline", False), ("prio", True)):
        times = run_relay_experiment(
            RelayExperimentConfig(
                duration=2 * 3600.0,
                n_reachable=25,
                seed=seed,
                policies=PolicyConfig(params={"prioritize_block_relay": prioritize}),
            )
        ).outbound_block_relay_times
        values[f"improvements.outbound_relay_{label}"] = (
            float(np.mean(times)) if times else math.nan
        )
        values[f"improvements.outbound_blocks_{label}"] = len(times)
    values["improvements.prio_relay_ratio"] = (
        values["improvements.outbound_relay_prio"]
        / values["improvements.outbound_relay_baseline"]
    )
    return values


def policy_sync(seed: int) -> Values:
    """§V: all three refinements vs sync under 2020-like churn."""
    means = {
        label: run_sync_campaign(
            SyncCampaignConfig(
                n_reachable=60,
                churn_per_10min=12.0,
                duration=2 * 3600.0,
                seed=seed,
                policies=policies,
            )
        ).mean
        for label, policies in (
            ("baseline", PolicyConfig()),
            ("improved", PolicyConfig.improved()),
        )
    }
    return {
        "improvements.sync_baseline": means["baseline"],
        "improvements.sync_improved": means["improved"],
        "improvements.sync_gain": means["improved"] - means["baseline"],
    }


def chaos(seed: int) -> Values:
    """Sync under the shipped chaos plan at four intensities."""
    base = SyncCampaignConfig(
        n_reachable=16,
        churn_per_10min=3.0,
        pre_mined_blocks=30,
        sample_period=200.0,
        poll_spread=120.0,
        warmup=300.0,
        duration=3600.0,
        seed=seed,
    )
    plan = decode_file(FaultPlan, CHAOS_PLAN)
    result = ConditionSweepPlan(
        "chaos",
        conditions(base, Axis.intensity(plan, (0.0, 0.5, 1.0, 2.0))),
        [seed],
        workers=1,
    ).run()
    baseline, stressed = result.cell(intensity=0), result.cells[-1]
    return {
        "chaos.failed_seeds": sum(
            len(level["failed_seeds"]) for level in result.degradation_table(intensity=0)
        ),
        "chaos.baseline_cells": sum(
            1 for cell in result.cells if cell.labels["intensity"] == 0
        ),
        "chaos.baseline_faults": sum(
            1 for count in baseline.totals("fault_stats").values() if count
        ),
        "chaos.dropped_at_2": stressed.totals("fault_stats")["messages_dropped"],
        "chaos.sync_clean": baseline.sweep.mean,
        "chaos.sync_at_2": stressed.sweep.mean,
        "chaos.sync_loss": baseline.sweep.mean - stressed.sweep.mean,
    }


def propagation(seed: int) -> Values:
    """§IV-B: outdegree vs 90th-percentile block-propagation delay."""
    delay, component = {}, {}
    for outdegree in (8, 4, 2):
        scenario = ProtocolScenario(
            ProtocolConfig(
                n_reachable=40,
                seed=seed,
                block_interval=120.0,
                node_config=NodeConfig(max_outbound=outdegree),
            )
        )
        scenario.start(warmup=900.0)
        tracker = PropagationTracker(scenario)
        scenario.sim.run_for(1800.0)
        delays = tracker.percentile_delays()
        delay[outdegree] = float(np.mean(delays)) if delays else math.inf
        component[outdegree] = topology_stats(
            scenario.running_nodes()
        ).largest_component_share
    return {
        "propagation.delay_8": delay[8],
        "propagation.delay_4": delay[4],
        "propagation.delay_2": delay[2],
        "propagation.delay_8_per_4": delay[8] / delay[4],
        "propagation.delay_2_minus_8": delay[2] - delay[8],
        "propagation.component_at_2": component[2],
    }


_CRAWLER = NetAddr.parse("203.0.113.9:8333")


def stop_rule(seed: int) -> Values:
    """Algorithm 1's stop rule vs table coverage and request cost, over
    30 servers with 400-entry tables (DESIGN.md §5)."""

    def run(rule: str, threshold: float) -> Tuple[float, float]:
        sim = Simulator(seed=seed)
        rng = sim.random.stream("bench")
        servers = []
        for index in range(30):
            table = stamp(
                (NetAddr(ip=((index + 10) << 16) | (i + 1)) for i in range(400)), 0.0
            )
            server = AddrServer(sim, NetAddr(ip=((index + 1) << 8) | 1), rng, table=table)
            server.start()
            servers.append(server)
        crawler = GetAddrCrawler(
            sim,
            _CRAWLER,
            GetAddrConfig(stop_rule=rule, adaptive_threshold=threshold, max_rounds=100),
        )
        harvests = crawler.run_to_completion([s.addr for s in servers]).harvests
        coverages, rounds = [], []
        for server in servers:
            harvest = harvests[server.addr]
            table = {record.addr for record in server.table}
            coverages.append(len(harvest.addresses & table) / len(table))
            rounds.append(harvest.rounds)
        return float(np.mean(coverages)), float(np.mean(rounds))

    paper_cov, paper_rounds = run("paper", 0.5)
    adaptive_cov, adaptive_rounds = run("adaptive", 0.5)
    greedy_cov, greedy_rounds = run("adaptive", 0.2)
    return {
        "stoprule.coverage_adaptive": adaptive_cov,
        "stoprule.coverage_paper_minus_adaptive": paper_cov - adaptive_cov,
        "stoprule.coverage_greedy_minus_adaptive": greedy_cov - adaptive_cov,
        "stoprule.rounds_paper_minus_adaptive": paper_rounds - adaptive_rounds,
        "stoprule.rounds_greedy_minus_adaptive": greedy_rounds - adaptive_rounds,
    }


#: ``(experiment, first seed, seeds)``, longest first so the fan-out
#: finishes early.
PLAN: List[Tuple[Callable[[int], Values], int, int]] = [
    (crawl, 101, PAPER_SEEDS),
    (flood_crawl, 101, PAPER_SEEDS),
    (sync_arms, 21, PAPER_SEEDS),
    (relay, 11, PAPER_SEEDS),
    (policy_sync, 49, 1),
    (chaos, 21, 2),
    (policy_relay, 47, 1),
    (policy_success, 41, 1),
    (propagation, 61, 1),
    (resync, 5, PAPER_SEEDS),
    (conn_success, 5, PAPER_SEEDS),
    (conn_stability, 5, PAPER_SEEDS),
    (stop_rule, 5, 1),
]


# ---------------------------------------------------------------------------
# Running, judging, rendering
# ---------------------------------------------------------------------------


def _run_job(job: Tuple[Callable[[int], Values], int]) -> Values:
    experiment, seed = job
    return {key: float(value) for key, value in experiment(seed).items()}


def measure(plan: Sequence[Tuple[Callable[[int], Values], int, int]]) -> Dict[str, List[float]]:
    """Every job of ``plan`` in one supervised fan-out: ``{row id:
    per-seed values}``, in seed order.  A row id two experiments emit
    is refused: its median would pool two experiments' seeds."""
    jobs = [(fn, first + i) for fn, first, count in plan for i in range(count)]
    run = run_supervised(
        _run_job, jobs, default_workers(len(jobs)), config=SupervisorConfig(retries=0),
        labels=[f"{fn.__name__}({seed})" for fn, seed in jobs],
    )
    if not run.ok:
        raise SystemExit(
            "experiments failed: " + "; ".join(str(error) for error in run.failures)
        )
    samples: Dict[str, List[float]] = defaultdict(list)
    emitted_by: Dict[str, str] = {}
    for (fn, _), values in zip(jobs, run.results):
        for key, value in values.items():
            owner = emitted_by.setdefault(key, fn.__name__)
            if owner != fn.__name__:
                raise SystemExit(
                    f"row {key!r} is emitted by both {owner} and {fn.__name__}"
                )
            samples[key].append(value)
    return samples


@dataclass
class Verdict:
    row: Row
    values: List[float]

    @property
    def median(self) -> float:
        return float(np.median(self.values))

    @property
    def ratio(self) -> Optional[float]:
        if not self.row.paper:
            return None
        return self.median / self.row.paper

    def holds(self, check: Check) -> bool:
        values = self.values if check.every_seed else [self.median]
        if check.of_ratio:
            values = [value / self.row.paper for value in values]
        return all(check.holds(value) for value in values)

    @property
    def passed(self) -> Optional[bool]:
        if not self.row.checks:
            return None
        return all(self.holds(check) for check in self.row.checks)


def judge(samples: Dict[str, List[float]], rows: Sequence[Row] = ROWS) -> List[Verdict]:
    """One verdict per row; a row nothing measured, or a measurement no
    row shows, is an error in this file."""
    ids = [row.id for row in rows]
    if sorted(ids) != sorted(samples):
        raise SystemExit(
            f"rows without measurements: {sorted(set(ids) - set(samples))}; "
            f"measurements without rows: {sorted(set(samples) - set(ids))}"
        )
    return [Verdict(row, samples[row.id]) for row in rows]


def _fmt(value: Optional[float]) -> str:
    if value is None:
        return "—"
    if math.isnan(value) or math.isinf(value):
        return str(value)
    if abs(value) >= 1000:
        return f"{value:,.0f}"
    return f"{value:.3g}"


def render(verdicts: Sequence[Verdict]) -> str:
    """The generated block (markers excluded)."""
    lines = [
        "Generated by `python -m benchmarks.accuracy`; do not edit by hand.",
        f"Crawl scale {SCALE:g}, {SNAPSHOTS} snapshots.  Seeds: "
        + ", ".join(
            f"{fn.__name__} {first}" + (f"–{first + count - 1}" if count > 1 else "")
            for fn, first, count in PLAN
        )
        + ".",
        "",
        "| id | figure | metric | paper | median | [min, max] | ratio | check | |",
        "|---|---|---|---|---|---|---|---|---|",
    ]
    for verdict in verdicts:
        row = verdict.row
        cells = [
            row.id,
            row.figure,
            row.metric,
            _fmt(row.paper),
            _fmt(verdict.median),
            f"[{_fmt(min(verdict.values))}, {_fmt(max(verdict.values))}]",
            _fmt(verdict.ratio),
            "; ".join(check.text for check in row.checks) or "—",
            {None: "—", True: "pass", False: "**FAIL**"}[verdict.passed],
        ]
        lines.append("| " + " | ".join(c.replace("|", "\\|") for c in cells) + " |")
    return "\n".join(lines)


def rewrite(path: str, block: str) -> None:
    """Replace the text between the accuracy markers in ``path``."""
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    head, begin, rest = text.partition(BEGIN)
    _, end, tail = rest.partition(END)
    if not begin or not end:
        raise SystemExit(f"{path}: missing {BEGIN} / {END} markers")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"{head}{BEGIN}\n{block}\n{END}{tail}")


def main() -> int:
    started = time.perf_counter()
    verdicts = judge(measure(PLAN))
    rewrite(EXPERIMENTS_MD, render(verdicts))
    failed = [v.row.id for v in verdicts if v.passed is False]
    checks = sum(len(v.row.checks) for v in verdicts)
    print(
        f"{len(verdicts)} rows, {checks} checks, {len(failed)} failing row(s)"
        f"{': ' + ', '.join(failed) if failed else ''}; "
        f"{time.perf_counter() - started:.0f} s"
    )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
