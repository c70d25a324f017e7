#!/usr/bin/env python3
"""Revisiting the Bitcoin routing attack with a full network view (§IV-A.1).

Prior partitioning attacks [Apostolaki et al., Saad et al.] planned AS
hijacks against the *reachable* network only.  The paper shows the target
list changes once the unreachable and responsive populations count —
AS4134 hosts just 0.76% of reachable nodes (rank ~20) but 6.18% of
responsive nodes (rank 1-2), making it a far more attractive hijack
target than the reachable view suggests.

This example maps a scaled network, prints the Table-I style hosting
report, plans 50%-isolation hijacks against each view, and lists the ASes
whose attack rank improves the most.  It then flips from analysis to
attack: an AS-scoped :mod:`repro.adversary` plan launches ADDR flooders
from the top responsive-view AS and a second campaign shows the
detector attributing the flood to that AS (the paper found 59% of its
73 flooders in AS3320).

Run:  python examples/routing_attack.py  [--scale 0.02]
"""

from __future__ import annotations

import argparse

from repro.adversary import AttackPlan, AttackerSpec
from repro.core import (
    CampaignRunner,
    common_top_ases,
    plan_hijack,
    score_detection,
    target_shifts,
)
from repro.core.reports import format_table
from repro.faults import FaultScope
from repro.netmodel import LongitudinalConfig, LongitudinalScenario
from repro.netmodel import calibration as cal


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=0.02)
    parser.add_argument("--snapshots", type=int, default=6)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    print(f"Mapping the network (scale {args.scale}, {args.snapshots} snapshots)...")
    scenario = LongitudinalScenario(
        LongitudinalConfig(
            scale=args.scale, snapshots=args.snapshots, seed=args.seed
        )
    )
    result = CampaignRunner(scenario).run()
    reports = result.hosting_reports(scenario.universe.asn_of)
    reachable = reports["reachable"]
    unreachable = reports["unreachable"]
    responsive = reports["responsive"]

    rows = []
    for rank in range(1, 11):
        row = [rank]
        for report in (reachable, unreachable, responsive):
            top = report.top(10)
            entry = top[rank - 1]
            row.extend([entry.asn, round(entry.percent, 2)])
        rows.append(row)
    print()
    print(
        format_table(
            ("rank", "ASN(Rb)", "%Rb", "ASN(Urb)", "%Urb", "ASN(Resp)", "%Resp"),
            rows,
            title="Top-10 hosting ASes per node class (Table I style)",
        )
    )

    print()
    print(
        format_table(
            ("view", "distinct ASes", "ASes to host 50%", "paper"),
            [
                ("reachable", reachable.distinct_ases,
                 reachable.k_to_cover_half(), cal.AS_50PCT_REACHABLE),
                ("unreachable", unreachable.distinct_ases,
                 unreachable.k_to_cover_half(), cal.AS_50PCT_UNREACHABLE),
                ("responsive", responsive.distinct_ases,
                 responsive.k_to_cover_half(), cal.AS_50PCT_RESPONSIVE),
            ],
            title="Concentration per network view",
        )
    )
    common = common_top_ases([reachable, unreachable, responsive], k=20)
    print(f"ASes common to all three top-20 lists: {len(common)} (paper: 10)")

    print()
    plan_rb = plan_hijack(reachable, 0.5)
    plan_resp = plan_hijack(responsive, 0.5)
    print(
        f"Hijack plan vs reachable view:  {len(plan_rb.hijacked_ases)} ASes "
        f"isolate {plan_rb.isolated_share:.0%} of reachable nodes"
    )
    print(
        f"Hijack plan vs responsive view: {len(plan_resp.hijacked_ases)} ASes "
        f"isolate {plan_resp.isolated_share:.0%} of responsive nodes"
    )
    overlap = set(plan_rb.hijacked_ases) & set(plan_resp.hijacked_ases)
    print(f"Targets shared between the two plans: {len(overlap)}")

    print()
    shifts = [
        shift
        for shift in target_shifts(reachable, responsive, k=10)
        if shift.rank_by_reachable is None or shift.rank_by_reachable > 15
    ]
    if shifts:
        print("ASes that become priority targets only under the full view:")
        for shift in shifts[:5]:
            old = shift.rank_by_reachable or "absent"
            print(
                f"  AS{shift.asn}: reachable rank {old} → "
                f"responsive rank {shift.rank_by_responsive}"
            )
    # From target selection to execution: launch an ADDR-flooding cohort
    # out of the responsive view's top AS and watch the detector pin the
    # flood on that AS.
    top_asn = responsive.top(1)[0].asn
    attack = AttackPlan(
        attackers=(
            AttackerSpec(
                kind="addr_flooder",
                count=6,
                scope=FaultScope(asns=(top_asn,)),
                name="hijack-as-flood",
            ),
        )
    )
    print()
    print(
        f"Re-running the campaign with {attack.total_count} flooders "
        f"scoped to AS{top_asn} (the responsive view's top target)..."
    )
    attacked = LongitudinalScenario(
        LongitudinalConfig(
            scale=args.scale,
            snapshots=args.snapshots,
            seed=args.seed,
            attack=attack,
        )
    )
    attacked_result = CampaignRunner(attacked).run()
    detection = attacked_result.merged_detection(attacked.universe.asn_of)
    flooder_addrs = [flooder.addr for flooder in attacked.flooders]
    honest = [record.addr for record in attacked.population.reachable]
    metrics = score_detection(detection, flooder_addrs, honest)
    share = detection.as_share_by_asn().get(top_asn, 0.0)
    print(
        f"Detector: {len(metrics.detected)}/{len(flooder_addrs)} flooders "
        f"flagged (recall {metrics.recall:.2f}), "
        f"{len(metrics.false_positives)} false positives; "
        f"{share:.0%} of flagged peers sit in AS{top_asn} "
        f"(paper: 59% of flooders in AS3320)"
    )

    print()
    print(
        "Conclusion (paper §IV-A.1): attack plans built on the reachable "
        "view alone mis-rank targets; an accurate characterization of the "
        "unreachable network changes who the adversary should hijack — "
        "and AS-level attribution of an active flood singles the "
        "hijacked AS right back out."
    )


if __name__ == "__main__":
    main()
