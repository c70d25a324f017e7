#!/usr/bin/env python3
"""Eclipsing a node out of synchronization, live.

Runs the same network twice with the same seed — once clean, once under
a :mod:`repro.adversary` plan that aims an eclipse cohort at one victim
while sync-stallers advertise blocks they never deliver.  The eclipse
campaigners monopolize the victim's inbound slots and feed it only
attacker addresses — a standing node shrugs this off because its honest
outbound connections survive.  The kill comes at *restart*: a reborn
node bootstraps from whatever its poisoned address book holds, dials
the stallers, and wedges at height 0 while its clean-run twin completes
initial block download.

Run:  python examples/eclipse_of_sync.py  [--duration-hours 0.5]
"""

from __future__ import annotations

import argparse

from repro.adversary import AttackPlan, AttackerSpec
from repro.core.reports import format_table
from repro.netmodel import ProtocolConfig, ProtocolScenario
from repro.units import HOURS


def build_scenario(args, attack):
    return ProtocolScenario(
        ProtocolConfig(
            n_reachable=args.nodes,
            seed=args.seed,
            mining=True,
            block_interval=120.0,
            pre_mined_blocks=30,
            attack=attack,
        )
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--duration-hours", type=float, default=0.5)
    parser.add_argument("--nodes", type=int, default=25)
    parser.add_argument("--seed", type=int, default=21)
    args = parser.parse_args()
    duration = args.duration_hours * HOURS

    # The victim is deterministic for a given seed: the scenario's first
    # standing node (also the eclipse plan's default target).
    plan = AttackPlan(
        attackers=(
            AttackerSpec(kind="eclipse", count=4, connections=7),
            AttackerSpec(
                kind="sync_staller", count=2, tier="reachable",
                height_lead=500, announce_interval=30.0,
            ),
        )
    )
    print(
        f"Running {args.nodes} nodes twice ({args.duration_hours}h each): "
        f"clean, then under {plan.total_count} attackers "
        f"(4 eclipse + 2 sync-staller)..."
    )

    heights = {}
    for label, attack in (("clean", AttackPlan()), ("eclipsed", plan)):
        scenario = build_scenario(args, attack)
        victim = scenario.nodes[0]
        scenario.start(warmup=600.0)
        scenario.sim.run_for(duration)

        if attack.attackers:
            force = scenario.attack_force
            assert force is not None
            attacker_addrs = set(force.attacker_addrs())
            inbound = [p for p in victim.peers.values() if p.is_inbound]
            grip = [p for p in inbound if p.remote_addr in attacker_addrs]
            stats = force.stats()
            print()
            print(
                format_table(
                    ("metric", "value"),
                    [
                        ("victim inbound slots held by attackers",
                         f"{len(grip)}/{len(inbound)}"),
                        ("cohort addresses pushed at victim",
                         stats.get("eclipse_addrs_sent", 0)),
                        ("phantom-block GETDATAs left hanging",
                         stats.get("stalled_getdata", 0)),
                    ],
                    title="Eclipse grip on the standing victim",
                )
            )

        # The restart: a reborn node with an empty address book
        # bootstraps from whatever it was last told about.  Clean run —
        # honest seeds; eclipsed run — the attacker addresses the cohort
        # spent the campaign pushing.
        from repro.bitcoin import BitcoinNode

        reborn = BitcoinNode(
            scenario.sim,
            scenario.universe.allocate_address(3320),
            scenario._clone_node_config(),
        )
        if not attack.attackers:
            contacts = [node.addr for node in scenario.nodes[1:9]]
        else:
            contacts = force.attacker_addrs()
        reborn.bootstrap(contacts)
        reborn.start()
        scenario.sim.run_for(900.0)
        heights[label] = (reborn.chain.height, scenario.best_height)

    print()
    rows = []
    for label in ("clean", "eclipsed"):
        reborn_height, best = heights[label]
        rows.append((label, reborn_height, best, best - reborn_height))
    print(
        format_table(
            ("run", "reborn height", "network best", "blocks behind"),
            rows,
            title="Restarted victim after 15 minutes, same seed",
        )
    )
    clean_lag = heights["clean"][1] - heights["clean"][0]
    eclipsed_lag = heights["eclipsed"][1] - heights["eclipsed"][0]
    print()
    print(
        f"The eclipse cost the restarted victim "
        f"{eclipsed_lag - clean_lag} blocks of synchronization it reaches "
        f"when bootstrapping from honest peers."
    )


if __name__ == "__main__":
    main()
