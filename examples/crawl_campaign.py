#!/usr/bin/env python3
"""A miniature version of the paper's 60-day measurement campaign.

Reproduces the Fig. 2 workflow end to end: merge Bitnodes and DNS-seeder
views, drop the critical-infrastructure blacklist, crawl every reachable
node with iterative GETADDR (Algorithm 1), filter the harvest to the
unreachable set, probe it with crafted VER packets (Algorithm 2), detect
ADDR flooders, and derive the churn matrix (Algorithm 4) — then print
every headline statistic next to the paper's.

Run:  python examples/crawl_campaign.py  [--scale 0.01] [--snapshots 12]
"""

from __future__ import annotations

import argparse

import numpy as np

from repro.core import CampaignRunner
from repro.core.reports import comparison_table
from repro.netmodel import LongitudinalConfig, LongitudinalScenario
from repro.netmodel import calibration as cal
from repro.units import DAYS


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=0.01,
                        help="population scale vs the real network")
    parser.add_argument("--snapshots", type=int, default=12,
                        help="crawl snapshots over the 60-day campaign")
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args()
    s = args.scale

    print(f"Building the campaign world (scale {s})...")
    scenario = LongitudinalScenario(
        LongitudinalConfig(scale=s, snapshots=args.snapshots, seed=args.seed)
    )
    print(f"  population: {scenario.population.summary()}")
    print(f"  flooders planted: {len(scenario.flooders)}")

    runner = CampaignRunner(scenario)
    for index, when in enumerate(scenario.snapshot_times):
        snap = runner.run_snapshot(index, when)
        print(
            f"  snapshot {index + 1:>2}/{args.snapshots} (day {when / DAYS:4.1f}): "
            f"connected {len(snap.connected):>4}, "
            f"unreachable {len(snap.unreachable):>6} "
            f"({snap.new_unreachable} new), "
            f"responsive {len(snap.responsive):>5}"
        )
    result = runner.result

    fig4 = result.fig4_series()
    fig5 = result.fig5_series()
    stats = result.churn_stats()
    interval = result.churn_matrix().snapshot_interval
    detection = result.merged_detection(scenario.universe.asn_of)
    reports = result.hosting_reports(scenario.universe.asn_of)

    print()
    print(
        comparison_table(
            [
                ("unreachable / snapshot", cal.UNREACHABLE_PER_SNAPSHOT * s,
                 float(np.mean(fig4["per_snapshot"]))),
                ("cumulative unreachable", cal.CUMULATIVE_UNREACHABLE * s,
                 fig4["cumulative"][-1]),
                ("responsive / snapshot", cal.RESPONSIVE_PER_SNAPSHOT * s,
                 float(np.mean(fig5["per_snapshot"]))),
                ("cumulative responsive", cal.CUMULATIVE_RESPONSIVE * s,
                 fig5["cumulative"][-1]),
                ("ADDR reachable share", cal.ADDR_REACHABLE_SHARE,
                 result.mean_addr_reachable_share()),
                ("flooders detected", len(scenario.flooders),
                 detection.count),
                ("always-on nodes", cal.ALWAYS_ON_NODES * s, stats.always_on),
                ("daily departures", cal.DAILY_CHURN_NODES * s,
                 stats.mean_daily_departures(interval)),
                ("mean lifetime (days)", cal.MEAN_NODE_LIFETIME_DAYS,
                 stats.mean_lifetime / DAYS),
                ("k50 reachable ASes", cal.AS_50PCT_REACHABLE,
                 reports["reachable"].k_to_cover_half()),
                ("k50 responsive ASes", cal.AS_50PCT_RESPONSIVE,
                 reports["responsive"].k_to_cover_half()),
            ],
            title="Campaign summary (paper values scaled where counts)",
        )
    )


if __name__ == "__main__":
    main()
