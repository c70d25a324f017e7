"""Edge-case and failure-injection tests across layers."""

from __future__ import annotations

import pytest

from repro.bitcoin import NodeConfig, unreachable_config
from repro.bitcoin.messages import Verack, Version
from repro.netmodel import ProtocolConfig, ProtocolScenario
from repro.netmodel.churn import ChurnProcess
from repro.errors import ScenarioError

from .conftest import build_small_network, make_addr, make_node


class TestHandshakeEdgeCases:
    def test_verack_before_version_still_establishes(self, sim):
        """Defensive: establishment must be order-independent."""
        node = make_node(sim, 1)
        node.start()
        other = make_node(sim, 2)
        other.bootstrap([node.addr])
        other.start()
        sim.run_for(2.0)  # connection exists, handshake in flight
        peer = next(iter(other.peers.values()), None)
        if peer is None:
            sim.run_for(10.0)
            peer = next(iter(other.peers.values()))
        # Simulate the reordered arrival directly.
        fresh = make_node(sim, 3)
        fresh.start()
        fresh_out = make_node(sim, 4)
        fresh_out.bootstrap([fresh.addr])
        fresh_out.start()
        sim.run_for(1.0)
        target_peer = next(iter(fresh_out.peers.values()), None)
        if target_peer is not None and not target_peer.established:
            fresh_out._handle_verack(target_peer, Verack())  # noqa: SLF001
            fresh_out._handle_version(  # noqa: SLF001
                target_peer,
                Version(sender=fresh.addr, receiver=fresh_out.addr, start_height=0),
            )
            assert target_peer.established

    def test_node_restart_clears_connection_state(self, sim):
        nodes = build_small_network(sim, 6)
        sim.run_for(120.0)
        victim = nodes[0]
        assert victim.peers
        victim.restart()
        assert victim.running
        sim.run_for(120.0)
        assert victim.outbound_count > 0  # reconnected

    def test_double_start_is_noop(self, sim):
        node = make_node(sim, 1)
        node.start()
        node.start()
        assert node.running
        node.stop()
        node.stop()
        assert not node.running

    def test_stop_before_start(self, sim):
        node = make_node(sim, 1)
        node.stop()  # must not raise
        assert not node.running


class TestConnectionEdgeCases:
    def test_node_never_dials_itself(self, sim):
        node = make_node(sim, 1, NodeConfig(track_connection_attempts=True))
        node.addrman.add(node.addr, now=0.0)
        node.start()
        sim.run_for(60.0)
        assert all(a.target != node.addr for a in node.attempt_log)

    def test_no_duplicate_connection_to_same_peer(self, sim):
        a = make_node(sim, 1)
        b = make_node(sim, 2)
        a.bootstrap([b.addr])
        # Pathological addrman: only b, repeatedly selectable.
        a.start()
        b.start()
        sim.run_for(120.0)
        connections_to_b = [
            p for p in a.peers.values() if p.remote_addr == b.addr
        ]
        assert len(connections_to_b) == 1

    def test_unreachable_node_relays_nothing_inbound(self, sim):
        hidden = make_node(sim, 1, unreachable_config())
        target = make_node(sim, 2)
        target.start()
        hidden.bootstrap([target.addr])
        hidden.start()
        sim.run_for(60.0)
        # hidden connected out to target; target cannot dial hidden back.
        assert hidden.outbound_count == 1
        out = []
        sim.network.connect(
            make_addr(9), hidden.addr, object(), out.append, timeout=2.0
        )
        sim.run_for(5.0)
        assert out == [None]

    def test_connection_lifetime_drops_and_refills(self, sim):
        # Enough hubs that some are never inbound-connected to the flaky
        # node (one connection per pair), leaving dialable candidates.
        hub_nodes = build_small_network(sim, 25)
        sim.run_for(120.0)
        flaky = make_node(
            sim,
            99,
            NodeConfig(connection_lifetime_mean=20.0),
        )
        flaky.bootstrap([n.addr for n in hub_nodes])
        flaky.start()
        sim.run_for(60.0)
        first_peers = {p.remote_addr for p in flaky.peers.values()}
        sim.run_for(300.0)
        # Drops happened (lifetimes ~20 s) but slots keep refilling.
        assert flaky.outbound_count >= 4
        later_peers = {p.remote_addr for p in flaky.peers.values()}
        assert first_peers != later_peers or len(first_peers) < 8


class TestChurnProcessEdgeCases:
    def test_protected_nodes_never_churned(self, sim):
        nodes = build_small_network(sim, 8)
        protected = nodes[0]
        churn = ChurnProcess(
            sim,
            lambda: nodes,
            start_replacement=lambda: None,
            departures_per_10min=600.0,  # one per second
            protect=lambda node: node is protected,
        )
        churn.start()
        sim.run_for(10.0)
        churn.stop()
        assert protected.running
        assert any(not node.running for node in nodes[1:])

    def test_invalid_rate(self, sim):
        with pytest.raises(ScenarioError):
            ChurnProcess(sim, lambda: [], lambda: None, departures_per_10min=0)

    def test_stop_halts_departures(self, sim):
        nodes = build_small_network(sim, 6)
        churn = ChurnProcess(
            sim, lambda: nodes, lambda: None, departures_per_10min=600.0
        )
        churn.start()
        sim.run_for(5.0)
        churn.stop()
        departed = len(churn.departures)
        sim.run_for(60.0)
        assert len(churn.departures) == departed


class TestScenarioEdgeCases:
    def test_longitudinal_without_flooders(self):
        from repro.netmodel import LongitudinalConfig, LongitudinalScenario

        scenario = LongitudinalScenario(
            LongitudinalConfig(scale=0.002, snapshots=2, seed=3, flooder_count=0)
        )
        assert scenario.flooders == []
        from repro.core import CampaignRunner

        result = CampaignRunner(scenario).run()
        assert all(snap.detection.count == 0 for snap in result.snapshots)

    def test_mining_disabled_scenario(self):
        scenario = ProtocolScenario(
            ProtocolConfig(n_reachable=5, seed=3, mining=False)
        )
        scenario.start(warmup=300.0)
        assert scenario.mining is None
        assert scenario.best_height == 0
        assert scenario.sync_fraction() == 1.0  # everyone at genesis

    def test_premine_with_replacements_ibd(self):
        scenario = ProtocolScenario(
            ProtocolConfig(
                n_reachable=10, seed=4, pre_mined_blocks=25,
                block_interval=600.0,
            )
        )
        scenario.start(warmup=60.0)
        joiner = scenario.add_replacement_node()
        scenario.sim.run_for(1500.0)
        assert joiner.chain.height >= 25


class TestSyncCampaignConfigPropagation:
    def test_fields_reach_the_scenario(self):
        from repro.core import SyncCampaignConfig, run_sync_campaign

        config = SyncCampaignConfig(
            n_reachable=20,
            churn_per_10min=6.0,
            pre_mined_blocks=10,
            duration=600.0,
            warmup=120.0,
            sample_period=60.0,
            poll_spread=30.0,
            seed=5,
        )
        result = run_sync_campaign(config)
        assert result.config is config
        assert len(result.sync_samples) == 10
