"""Node tiers: full-tier reachable nodes over a light-tier cloud.

The unreachable cloud is light-tier endpoints registered with the
transport, the only representation there is.  The figure pins below
were taken while a raw probe-behavior table was the default and the
light cloud an option that matched it bit for bit, so they hold the
single path to what both paths produced.
"""

import hashlib
import pickle

import pytest

from repro.bitcoin import (
    BitcoinNode,
    LightNode,
    LightNodeProfile,
    NodeBehavior,
    NodeConfig,
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
        assert ProtocolConfig().fidelity == "hybrid"
        assert LongitudinalConfig().fidelity == "hybrid"
        for config in (ProtocolConfig, LongitudinalConfig):
            for fidelity in ("full", "light"):
                with pytest.raises(ScenarioError, match=f"got '{fidelity}'"):
                    config(fidelity=fidelity).validate()

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
        node.apply_behavior(ProbeBehavior.SILENT)
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
# Figure pins: protocol scenarios
# ---------------------------------------------------------------------------


def _figures_digest(figures):
    return hashlib.sha256(repr(figures).encode()).hexdigest()


#: ``_figures_digest`` of ``_protocol_figures()``'s figures.
PROTOCOL_FIGURES = (
    "ee58307ea845113c7716c6220aef50dc85efbd6eb2af54a455e3e7831963353e"
)
#: ``_figures_digest`` of ``_sync_campaign_figures()``.
SYNC_CAMPAIGN_FIGURES = (
    "a2b685d91a79bb6d14a06083b505363b31a0b0122e29969e1035d4a0744fd5ff"
)
#: ``_figures_digest`` of ``_campaign_figures()``'s figures.  Moved once,
#: when the two-day campaign's reachable churn took its own horizon
#: instead of 60 days (old value in CHANGES.md).
CAMPAIGN_FIGURES = (
    "b0abbc3302ed5dc0792a0aa1add6821336df7f4b4c66cb9596681dd8d44cc061"
)


def _protocol_figures(**overrides):
    config = ProtocolConfig(
        seed=11,
        n_reachable=10,
        churn_per_10min=2.0,
        pre_mined_blocks=5,
        tx_rate=0.05,
        **overrides,
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


def test_protocol_figures_did_not_move():
    _, figures = _protocol_figures()
    assert _figures_digest(figures) == PROTOCOL_FIGURES


def test_the_light_cloud_is_the_light_census():
    scenario = ProtocolScenario(ProtocolConfig(seed=11, n_reachable=10))
    census = scenario.tier_census()
    assert census == {"full": 0, "light": len(scenario.light_cloud)}
    # Every silent address is forgotten: the cloud holds what answers.
    behaviors = {node.behavior for node in scenario.light_cloud.nodes.values()}
    assert behaviors == {ProbeBehavior.FIN, ProbeBehavior.RST}


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
            churn_per_10min=6.0,
            pre_mined_blocks=10,
        )
    )
    scenario.start(warmup=10.0)
    result = scenario.sim.run_for(10.0, max_events=50_000)
    assert scenario.tier_census() == {"full": 1500, "light": 17401}
    assert scenario.sync_fraction() == 1.0
    assert len(scenario.running_nodes()) == 1500
    assert result.truncated and int(result) == 50_000


def _sync_campaign_figures(**overrides):
    result = run_sync_campaign(
        SyncCampaignConfig(
            n_reachable=12,
            churn_per_10min=4.0,
            pre_mined_blocks=20,
            warmup=200.0,
            duration=1000.0,
            seed=33,
            **overrides,
        )
    )
    return (
        result.sync_samples,
        result.total_departures,
        result.sync_departures_per_10min,
    )


def test_sync_campaign_figures_did_not_move():
    figures = _sync_campaign_figures()
    assert _figures_digest(figures) == SYNC_CAMPAIGN_FIGURES


# ---------------------------------------------------------------------------
# Figure pins: the crawl/probe campaign
# ---------------------------------------------------------------------------


def _campaign_figures(**overrides):
    config = LongitudinalConfig(
        scale=0.004, snapshots=2, campaign_days=2.0, seed=9, **overrides
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


def test_campaign_figures_did_not_move():
    _, figures = _campaign_figures()
    assert _figures_digest(figures) == CAMPAIGN_FIGURES


def test_a_silent_address_is_forgotten():
    """A crawl snapshot marks the gone and the silent-class SILENT; the
    cloud keeps a node only for an address that answers."""
    scenario = LongitudinalScenario(
        LongitudinalConfig(scale=0.004, snapshots=2, campaign_days=2.0, seed=9)
    )
    for when in scenario.snapshot_times:
        scenario.materialize_snapshot(when)
        network = scenario.sim.network
        cloud = scenario.light_cloud
        assert len(cloud) == scenario.tier_census()["light"] > 0
        for record in scenario.population.silent:
            node = cloud.nodes.get(record.addr)
            behavior = network.probe_behavior(record.addr)
            if node is None:
                assert behavior is ProbeBehavior.SILENT
            else:
                assert behavior is node.behavior is ProbeBehavior.RST


# ---------------------------------------------------------------------------
# Mixed-tier snapshot/restore
# ---------------------------------------------------------------------------


def test_mixed_tier_snapshot_restore():
    config = ProtocolConfig(
        seed=17,
        n_reachable=8,
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


#: ``run_key`` of ``LongitudinalConfig(seed=5, fidelity="hybrid")`` at
#: 3 snapshots.  Taken while ``"full"`` was the default; moved when the
#: config lost ``flood_volume_model`` and when it lost the fields nothing
#: set (old keys in CHANGES.md).
HYBRID_CAMPAIGN_KEY = (
    "11b792160b5fdc593cc0770ab58d4b1997fb0934cae632a2d16a7385bb22bbfa"
)


def test_fidelity_is_part_of_run_keys():
    """The one fidelity is still keyed: the default config keys as
    ``fidelity="hybrid"`` always did."""
    key = run_key(
        "campaign", LongitudinalConfig(seed=5), seed=5, snapshots_total=3
    )
    assert key == HYBRID_CAMPAIGN_KEY


def test_scenario_configs_reject_unknown_fidelity():
    with pytest.raises(ScenarioError):
        ProtocolConfig(fidelity="uhd").validate()
    with pytest.raises(ScenarioError):
        LongitudinalConfig(fidelity="uhd").validate()
