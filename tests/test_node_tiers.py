"""Node tiers and hybrid fidelity.

The contract under test: a hybrid-fidelity run — light-tier endpoints
standing in for the unreachable cloud — is *bit-identical* to the
full-fidelity run of the same seed, because the transport answers
connects and probes the same way for a probe-behavior table entry and a
registered light endpoint, and installing the cloud draws the RNG in the
same order either way.
"""

import pickle

import pytest

from repro.bitcoin import (
    BitcoinNode,
    LightNode,
    LightNodeProfile,
    NodeBehavior,
    NodeConfig,
    validate_fidelity,
)
from repro.bitcoin.messages import Message
from repro.core.pipeline import CampaignConfig, CampaignRunner
from repro.core.sync_experiments import SyncCampaignConfig, run_sync_campaign
from repro.errors import ScenarioError
from repro.netmodel.scenario import (
    LongitudinalConfig,
    LongitudinalScenario,
    ProtocolConfig,
    ProtocolScenario,
)
from repro.simnet.addresses import NetAddr
from repro.simnet.simulator import Simulator
from repro.simnet.transport import ProbeBehavior, ProbeResult
from repro.store.manifest import run_key


# ---------------------------------------------------------------------------
# The light tier itself
# ---------------------------------------------------------------------------


class TestLightNode:
    def test_no_instance_dict(self):
        sim = Simulator(seed=1)
        node = LightNode(sim, NetAddr.parse("10.0.0.1"))
        assert not hasattr(node, "__dict__")
        assert not hasattr(LightNodeProfile(), "__dict__")

    def test_tier_tags(self):
        sim = Simulator(seed=1)
        node = LightNode(sim, NetAddr.parse("10.0.0.1"))
        assert node.fidelity == "light"
        full = BitcoinNode(sim, NetAddr.parse("10.0.0.2"), NodeConfig())
        assert full.fidelity == "full"
        assert isinstance(full, NodeBehavior)

    def test_validate_fidelity(self):
        assert validate_fidelity("full") == "full"
        assert validate_fidelity("hybrid") == "hybrid"
        with pytest.raises(ValueError):
            validate_fidelity("light")  # a node tier, not a scenario knob

    def test_cloud_endpoint_answers_probes(self):
        sim = Simulator(seed=3)
        addr = NetAddr.parse("10.0.0.9")
        node = LightNode(sim, addr, behavior=ProbeBehavior.FIN)
        node.start()
        assert sim.network.tier_census() == {"full": 0, "light": 1}
        results = []
        sim.network.probe(NetAddr.parse("10.0.0.2"), addr, results.append)
        sim.run_for(30.0)
        assert results == [ProbeResult.FIN]
        node.set_behavior(ProbeBehavior.SILENT)
        sim.network.probe(NetAddr.parse("10.0.0.2"), addr, results.append)
        sim.run_for(30.0)
        assert results[1] is ProbeResult.SILENT
        node.stop()
        assert sim.network.tier_census() == {"full": 0, "light": 0}

    def test_listening_light_node_serves_handshake_and_gossip(self):
        sim = Simulator(seed=5)
        table = tuple(
            NetAddr.parse(f"172.16.0.{i}") for i in range(1, 21)
        )
        light = LightNode(
            sim,
            NetAddr.parse("10.1.0.1"),
            profile=LightNodeProfile(listen=True),
            addr_table=table,
        )
        light.start()
        full = BitcoinNode(sim, NetAddr.parse("10.2.0.1"), NodeConfig())
        full.bootstrap([light.addr])
        full.start()
        sim.run_for(300.0)
        # The full node completed the version handshake with the stub...
        assert any(
            peer.remote_addr == light.addr and peer.established
            for peer in full.peers.values()
        )
        # ...and its addrman learned the stub's gossip table (addrman
        # bucketing may evict a few same-/16 records; most must land).
        learned = set(table) & set(full.addrman.all_addresses())
        assert len(learned) >= len(table) // 2

    def test_light_node_pickles(self):
        sim = Simulator(seed=7)
        node = LightNode(sim, NetAddr.parse("10.0.0.3"))
        clone = pickle.loads(pickle.dumps(node))
        assert clone.addr == node.addr
        assert clone.behavior is node.behavior


def test_messages_are_slotted():
    # Hot protocol objects must not carry per-instance dicts (the light
    # tier's memory budget assumes it, and full tier allocates millions).
    assert Message.__slots__ == ()
    for cls in Message.__subclasses__():
        assert "__slots__" in cls.__dict__, f"{cls.__name__} missing slots"


# ---------------------------------------------------------------------------
# Fidelity equivalence: protocol scenarios
# ---------------------------------------------------------------------------


def _protocol_figures(fidelity):
    config = ProtocolConfig(
        seed=11,
        n_reachable=10,
        fidelity=fidelity,
        churn_per_10min=2.0,
        pre_mined_blocks=5,
        tx_rate=0.05,
    )
    scenario = ProtocolScenario(config)
    scenario.start(warmup=120.0)
    scenario.sim.run_for(600.0)
    return scenario, (
        scenario.sim.now,
        tuple(node.chain.height for node in scenario.nodes),
        tuple(
            (node.addr, node.outbound_count) for node in scenario.running_nodes()
        ),
        scenario.sync_fraction(),
    )


def test_protocol_fidelity_equivalence():
    full_scenario, full = _protocol_figures("full")
    hybrid_scenario, hybrid = _protocol_figures("hybrid")
    assert full == hybrid
    assert full_scenario.light_cloud is None
    census = hybrid_scenario.tier_census()
    assert census["light"] == len(hybrid_scenario.light_cloud.nodes) > 0


def test_paper_scale_hybrid_world_builds_and_runs():
    """Ten times the seed's ProtocolScenario: 1,500 full-tier reachable
    nodes over the proportional unreachable cloud, built, warmed up and
    run into the event cap.  No RSS or events/s assertion: a process-wide
    high-water mark inside a shared pytest process measures the other
    tests; memory per tier is TestGossipBudget's and the ledger's."""
    scenario = ProtocolScenario(
        ProtocolConfig(
            seed=5,
            n_reachable=1500,
            fidelity="hybrid",
            churn_per_10min=6.0,
            pre_mined_blocks=10,
        )
    )
    scenario.start(warmup=10.0)
    result = scenario.sim.run_for(10.0, max_events=50_000)
    assert scenario.tier_census() == {"full": 1500, "light": 28921}
    assert scenario.sync_fraction() == 1.0
    assert len(scenario.running_nodes()) == 1500
    assert result.truncated and int(result) == 50_000


def test_sync_campaign_fidelity_equivalence():
    base = dict(
        n_reachable=12,
        churn_per_10min=4.0,
        pre_mined_blocks=20,
        warmup=200.0,
        duration=1000.0,
        seed=33,
    )
    full = run_sync_campaign(SyncCampaignConfig(fidelity="full", **base))
    hybrid = run_sync_campaign(SyncCampaignConfig(fidelity="hybrid", **base))
    assert full.sync_samples == hybrid.sync_samples
    assert full.total_departures == hybrid.total_departures
    assert full.sync_departures_per_10min == hybrid.sync_departures_per_10min


# ---------------------------------------------------------------------------
# Fidelity equivalence: the crawl/probe campaign
# ---------------------------------------------------------------------------


def _campaign_figures(fidelity):
    config = LongitudinalConfig(
        scale=0.004, snapshots=2, campaign_days=2.0, seed=9, fidelity=fidelity
    )
    scenario = LongitudinalScenario(config)
    runner = CampaignRunner(scenario, CampaignConfig())
    result = runner.run()
    figures = [
        (
            snap.when,
            len(snap.connected),
            len(snap.unreachable),
            len(snap.responsive),
            snap.new_unreachable,
            snap.new_responsive,
        )
        for snap in result.snapshots
    ]
    return scenario, figures


def test_longitudinal_fidelity_equivalence():
    full_scenario, full = _campaign_figures("full")
    hybrid_scenario, hybrid = _campaign_figures("hybrid")
    assert full == hybrid
    assert hybrid_scenario.light_cloud is not None
    assert len(hybrid_scenario.light_cloud) > 0


# ---------------------------------------------------------------------------
# Mixed-tier snapshot/restore
# ---------------------------------------------------------------------------


def test_mixed_tier_snapshot_restore():
    config = ProtocolConfig(
        seed=17,
        n_reachable=8,
        fidelity="hybrid",
        churn_per_10min=2.0,
        pre_mined_blocks=3,
    )
    scenario = ProtocolScenario(config)
    scenario.start(warmup=60.0)
    blob = scenario.sim.snapshot()
    restored = Simulator.restore(blob)
    census = restored.network.tier_census()
    assert census == scenario.sim.network.tier_census()
    assert census["light"] > 0
    a = scenario.sim.run_for(300.0)
    b = restored.run_for(300.0)
    assert int(a) == int(b)
    assert scenario.sim.now == restored.now


# ---------------------------------------------------------------------------
# Run-store keys
# ---------------------------------------------------------------------------


def test_fidelity_is_part_of_run_keys():
    full = LongitudinalConfig(seed=5, fidelity="full")
    hybrid = LongitudinalConfig(seed=5, fidelity="hybrid")
    keys = {
        run_key("campaign", cfg, seed=5, snapshots_total=3)
        for cfg in (full, hybrid)
    }
    assert len(keys) == 2


def test_scenario_configs_reject_unknown_fidelity():
    with pytest.raises(ScenarioError):
        ProtocolConfig(fidelity="uhd").validate()
    with pytest.raises(ScenarioError):
        LongitudinalConfig(fidelity="uhd").validate()
