"""Tests for the §IV experiment drivers (stability, success, relay, sync)."""

from __future__ import annotations

import hashlib

import pytest

from repro.bitcoin import NodeConfig
from repro.core import (
    RelayExperimentConfig,
    SyncCampaignConfig,
    SyncMonitor,
    build_relay_scenario,
    run_connection_stability,
    run_connection_success,
    run_relay_experiment,
    run_resync_experiment,
    run_sync_campaign,
    warm_world,
)
from repro.netmodel import ProtocolConfig, ProtocolScenario


@pytest.fixture(scope="module")
def warm_scenario():
    scenario = ProtocolScenario(
        ProtocolConfig(n_reachable=40, seed=9, block_interval=300.0)
    )
    scenario.start(warmup=600.0)
    return scenario


class TestConnectionStability:
    def test_fig6_shape(self, warm_scenario):
        result = run_connection_stability(warm_scenario, duration=120.0)
        assert len(result.series) >= 100
        assert 0 <= result.min_connections
        assert result.max_connections <= 10  # 8 outbound + 2 feelers
        assert result.mean_connections <= 8.5

    def test_observer_counts_feelers(self, warm_scenario):
        # The polled metric is outbound_count_with_feelers; it must never
        # exceed max_outbound + the 2 concurrent feeler slots.
        result = run_connection_stability(warm_scenario, duration=60.0)
        assert result.max_connections <= 10


class TestMeasurementNodes:
    """Churn never takes a node an experiment measures."""

    @pytest.mark.parametrize("seed", range(5, 10))
    def test_fig6_observer_never_departs(self, seed):
        world = warm_world(seed)
        config = NodeConfig()
        run_connection_stability(world, duration=260.0, observer_config=config)
        [observer] = [node for node in world.nodes if node.config is config]
        assert not observer.departed

    def test_resync_node_never_departs(self):
        world = warm_world(6, 15)
        node = next(n for n in world.running_nodes() if n.chain.height >= world.best_height)
        assert run_resync_experiment(world, node=node).resync_seconds is not None
        assert not node.departed


class TestConnectionSuccess:
    def test_fig7_shape(self, warm_scenario):
        result = run_connection_success(warm_scenario, runs=2, duration=120.0)
        assert len(result.runs) == 2
        for run in result.runs:
            assert run.attempts > 5
            assert 0 <= run.successes <= run.attempts
        # Polluted tables: the failure rate dominates (paper: 88.8%).
        assert result.overall_rate < 0.5

    def test_worst_run(self, warm_scenario):
        result = run_connection_success(warm_scenario, runs=2, duration=90.0)
        assert result.worst_run.success_rate <= result.overall_rate + 1e-9


class TestResync:
    def test_restart_eventually_relays(self):
        scenario = ProtocolScenario(
            ProtocolConfig(n_reachable=25, seed=10, block_interval=120.0)
        )
        scenario.start(warmup=900.0)
        result = run_resync_experiment(scenario, max_wait=3600.0)
        assert result.resync_seconds is not None
        assert result.resync_seconds > 0


#: sha256 of the repr of a small relay run's measurements: the block and
#: tx relay-time lists, then the target's outbound and inbound counts at
#: the end.  The run crosses one client refresh (1,800 s), so the
#: unreachable clients, their compact-block share and the target's
#: trickle timers all feed it.
RELAY_MEASUREMENTS = (
    "6a1a4f9a074874461e88f011584707f595056bbf5f090d35fe1a06a27494426d"
)


class TestRelayExperiment:
    def test_relay_measurements_did_not_move(self):
        result = run_relay_experiment(
            RelayExperimentConfig(
                n_reachable=12, n_clients=5, duration=2400.0, warmup=300.0,
                seed=4,
            )
        )
        measured = (
            result.block_relay_times,
            result.tx_relay_times,
            result.outbound_at_end,
            result.inbound_at_end,
        )
        assert len(result.block_relay_times) == 8
        digest = hashlib.sha256(repr(measured).encode()).hexdigest()
        assert digest == RELAY_MEASUREMENTS

    def test_builder_pins_clients(self):
        config = RelayExperimentConfig(
            n_reachable=12, n_clients=5, duration=60.0, warmup=60.0
        )
        scenario, target, clients = build_relay_scenario(config)
        assert len(clients) == 5
        assert target.config.max_inbound == 5
        scenario.start()
        target.start()
        for client in clients:
            client.start()
        scenario.sim.run_for(120.0)
        assert target.inbound_count == 5
        assert all(client.outbound_count == 1 for client in clients)

    def test_clients_generate_getaddr_load(self):
        config = RelayExperimentConfig(
            n_reachable=12, n_clients=3, client_getaddr_interval=5.0
        )
        scenario, target, clients = build_relay_scenario(config)
        scenario.start()
        target.start()
        for client in clients:
            client.start()
        scenario.sim.run_for(120.0)
        served = [
            peer.addr_messages_received
            for client in clients
            for peer in client.peers.values()
        ]
        assert sum(served) > 3  # repeated ADDR responses arrived


class TestSyncMonitor:
    def test_fully_synced_network_reads_high(self):
        scenario = ProtocolScenario(
            ProtocolConfig(n_reachable=20, seed=11, block_interval=600.0)
        )
        scenario.start(warmup=600.0)
        monitor = SyncMonitor(scenario, period=60.0, poll_spread=0.0)
        scenario.sim.run_for(600.0)
        values = monitor.sync_percents()
        assert values
        assert sum(values) / len(values) > 85.0

    def test_poll_spread_lowers_measured_sync(self):
        scenario = ProtocolScenario(
            ProtocolConfig(n_reachable=20, seed=11, block_interval=120.0)
        )
        scenario.start(warmup=600.0)
        instant = SyncMonitor(scenario, period=60.0, poll_spread=0.0)
        stale = SyncMonitor(scenario, period=60.0, poll_spread=300.0)
        scenario.sim.run_for(1800.0)
        mean_instant = sum(instant.sync_percents()) / len(instant.sync_percents())
        mean_stale = sum(stale.sync_percents()) / len(stale.sync_percents())
        assert mean_stale < mean_instant

    def test_departure_stats_requires_two_snapshots(self):
        scenario = ProtocolScenario(ProtocolConfig(n_reachable=10, seed=2, mining=False))
        monitor = SyncMonitor(scenario, period=1e9)
        from repro.errors import AnalysisError

        with pytest.raises(AnalysisError):
            monitor.departure_stats()


class TestSyncCampaign:
    def test_small_campaign_runs(self):
        result = run_sync_campaign(
            SyncCampaignConfig(
                n_reachable=25,
                churn_per_10min=4.0,
                pre_mined_blocks=30,
                duration=1800.0,
                warmup=300.0,
                sample_period=120.0,
                seed=13,
            )
        )
        assert len(result.sync_samples) >= 10
        assert 0.0 < result.mean <= 100.0
        assert result.total_departures > 0
        density = result.density()
        assert density.count == len(result.sync_samples)
