#!/usr/bin/env python3
"""The ADDR-flooding attack and its detection (§IV-B, Fig. 8), live.

Loads the shipped :mod:`repro.adversary` attack plan
(``attackplan_flood.json``: three flooders placed in AS3320, the paper's
most flooder-heavy AS) and compiles it onto a live protocol network.
Shows (1) the honest nodes' addrmans filling with garbage, (2) a fresh
victim's outgoing-connection success rate collapsing, and (3) the
paper's detection heuristic — "an honest ADDR response always contains
at least one reachable address" — scored against the plan's ground
truth: full recall, zero false positives.

Run:  python examples/addr_flooding.py
"""

from __future__ import annotations

from pathlib import Path

from repro.adversary import AttackPlan
from repro.bitcoin import NodeConfig
from repro.core import (
    GetAddrConfig,
    GetAddrCrawler,
    detect_flooders,
    score_detection,
)
from repro.core.decode import decode_file
from repro.core.pipeline import CRAWLER_ADDR
from repro.core.reports import format_table
from repro.netmodel import ProtocolConfig, ProtocolScenario
from repro.netmodel.population import NodeClass

PLAN_FILE = Path(__file__).resolve().parent / "attackplan_flood.json"


def main() -> None:
    plan = decode_file(AttackPlan, PLAN_FILE)
    print(
        f"Building a 25-node network under {PLAN_FILE.name} "
        f"({plan.total_count} flooder(s) in AS3320)..."
    )
    scenario = ProtocolScenario(
        ProtocolConfig(
            n_reachable=25,
            seed=77,
            mining=False,
            node_config=NodeConfig(serve_repeated_getaddr=True),
            attack=plan,
        )
    )
    force = scenario.attack_force
    assert force is not None
    scenario.start(warmup=600.0)
    scenario.sim.run_for(900.0)

    stats = force.stats()
    print(f"  flooders pushed {stats['addrs_flooded']} fabricated records")

    # (1) How polluted did the network's address plane get?
    def fake_share(node) -> float:
        addrs = node.addrman.all_addresses()
        if not addrs:
            return 0.0
        fakes = sum(
            1
            for addr in addrs
            if scenario.population.classify(addr) is NodeClass.FAKE
        )
        return fakes / len(addrs)

    attacker_addrs = set(force.attacker_addrs())
    neighbours = [
        node
        for node in scenario.running_nodes()
        if any(p.remote_addr in attacker_addrs for p in node.peers.values())
    ]
    print()
    print(
        format_table(
            ("node", "addrman size", "fake share"),
            [
                (str(node.addr), len(node.addrman), round(fake_share(node), 3))
                for node in neighbours[:6]
            ],
            title="Addrman pollution at the flooders' neighbours",
        )
    )

    # (2) A fresh victim bootstrapping off a flooder.
    victim = scenario.make_observer_node(
        NodeConfig(track_connection_attempts=True)
    )
    victim.bootstrap([force.attackers[0].addr])
    victim.start()
    scenario.sim.run_for(600.0)
    rate = victim.connection_success_rate()
    print()
    print(
        f"Fresh victim after 10 minutes: {victim.outbound_count} outbound "
        f"connections, success rate {rate:.1%} "
        f"(paper's network-wide measurement: 11.2%)"
    )

    # (3) Run the detector over a crawl of every listener, then score it
    # against the plan's ground truth.
    honest = [node.addr for node in scenario.running_nodes()]
    targets = honest + sorted(attacker_addrs)
    crawler = GetAddrCrawler(
        scenario.sim, CRAWLER_ADDR, GetAddrConfig(max_rounds=20)
    )
    crawl = crawler.run_to_completion(targets)
    report = detect_flooders(
        crawl,
        reachable_known=set(honest),
        min_addresses=500,
        asn_of=scenario.universe.asn_of,
    )
    print()
    print(
        format_table(
            ("detected peer", "records sent", "unique", "ASN"),
            [
                (str(f.peer), f.unreachable_sent, f.unique_sent, f.asn)
                for f in report.findings
            ],
            title="Detection report (heuristic: no reachable addr in any ADDR)",
        )
    )
    metrics = score_detection(
        report, attackers=force.attacker_addrs(), honest=honest
    )
    print()
    print(
        f"Flooders caught: {len(metrics.detected)}/{plan.total_count} "
        f"(recall {metrics.recall:.2f}); "
        f"false positives: {len(metrics.false_positives)} "
        f"over {metrics.honest_scored} honest peers"
    )


if __name__ == "__main__":
    main()
