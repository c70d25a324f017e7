"""What ADDR forwarding decided, pinned as digests.

A node relays a fresh address to a peer only if that peer does not
already know it (Core's ``m_addr_known``), so every forwarding decision
reads ``Peer.known_addrs``.  These tests hash what those decisions
produced — per connection, how many messages and bytes went out and
how many addresses came in; the network's delivery count; every address
table; the clock — on two worlds: the ledger's ``gossip_scale`` shape at
40 full nodes, and one seed of the 16-node flooded sync campaign (the
shipped flood plan scaled to 8 attackers).  They read nothing of
``known_addrs`` itself, so they hold whatever its representation.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from repro.adversary import AttackPlan
from repro.core.condition_sweep import Axis, conditions
from repro.core.decode import decode_file
from repro.core.sync_experiments import SyncCampaignConfig, protocol_config
from repro.core.sync_monitor import SyncMonitor
from repro.netmodel.scenario import ProtocolScenario

from .test_churned_world import gossip_world

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"

#: ``forwarding_digest`` of ``gossip_world(events=20_000)``.
GOSSIP_FORWARDING = (
    "627a2b4d1e8d305fdc2a2bf7556e70eb9d321cde98f9da62cf5b1e8db56d639a"
)
#: ``forwarding_digest`` of ``flooded_world()``.
FLOODED_FORWARDING = (
    "21954241822df17e5b85c81d9445e9837e78efd58c6a4725e7789191526ace41"
)


def flooded_world() -> ProtocolScenario:
    """Seed 21 of ``test_flood_degrades_sync_monotonically``'s
    8-attacker cell, run as ``run_sync_campaign`` runs it, every address
    table checked, and kept."""
    base = SyncCampaignConfig(n_reachable=16, duration=0.3 * 3600.0, seed=21)
    plan = decode_file(AttackPlan, EXAMPLES / "attackplan_flood.json")
    (condition,) = conditions(base, Axis.attackers(plan, (8,)))
    config = condition.config
    scenario = ProtocolScenario(protocol_config(config))
    scenario.start(warmup=config.warmup)
    monitor = SyncMonitor(
        scenario, period=config.sample_period, poll_spread=config.poll_spread
    )
    scenario.sim.run_for(config.duration, max_events=config.max_events)
    monitor.stop()
    for node in full_nodes(scenario):
        node.addrman.check()
    return scenario


def full_nodes(scenario: ProtocolScenario) -> list:
    """Every running full node: the honest ones, then the attackers."""
    force = scenario.attack_force
    attackers = [] if force is None else force.attackers
    return scenario.running_nodes() + [node for node in attackers if node.running]


def forwarding_digest(scenario: ProtocolScenario) -> str:
    digest = hashlib.sha256()
    for node in full_nodes(scenario):
        peers = sorted(
            (
                peer.remote_addr,
                peer.socket.messages_sent,
                peer.socket.bytes_sent,
                peer.addrs_received,
            )
            for peer in node.peers.values()
        )
        digest.update(repr((node.addr, peers)).encode())
        digest.update(repr(sorted(node.addrman.all_addresses())).encode())
    digest.update(repr(scenario.sim.network.messages_delivered).encode())
    digest.update(repr(scenario.sim.now).encode())
    return digest.hexdigest()


def test_gossip_forwarding_did_not_move():
    assert forwarding_digest(gossip_world(events=20_000)) == GOSSIP_FORWARDING


@pytest.mark.slow
def test_flooded_forwarding_did_not_move():
    scenario = flooded_world()
    assert scenario.attack_force.stats()["addrs_flooded"] > 0
    assert forwarding_digest(scenario) == FLOODED_FORWARDING
