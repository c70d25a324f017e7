"""Tests for the two scenario builders."""

from __future__ import annotations

import pytest

from repro.bitcoin import NodeConfig
from repro.errors import ScenarioError
from repro.netmodel import (
    LongitudinalConfig,
    LongitudinalScenario,
    ProtocolConfig,
    ProtocolScenario,
)
from repro.units import DAYS


class TestLongitudinalScenario:
    @pytest.fixture(scope="class")
    def scenario(self):
        return LongitudinalScenario(
            LongitudinalConfig(scale=0.005, snapshots=6, seed=3)
        )

    def test_population_classes_built(self, scenario):
        summary = scenario.population.summary()
        assert summary["reachable"] > 0
        assert summary["responsive"] > 0
        assert summary["silent"] > summary["responsive"]

    def test_snapshot_times_cover_campaign(self, scenario):
        times = scenario.snapshot_times
        assert len(times) == 6
        assert times[0] > 0
        assert times[-1] < scenario.config.campaign_days * DAYS
        assert times == sorted(times)

    def test_reachable_churn_spans_a_short_campaign(self):
        """The reachable timeline shares the campaign's horizon: every
        reachable record of a one-day campaign is online somewhere inside
        that day (a 60-day horizon left 244 of these 345 offline for all
        of it)."""
        scenario = LongitudinalScenario(
            LongitudinalConfig(scale=0.01, snapshots=3, campaign_days=1.0)
        )
        timeline = scenario.reachable_timeline
        assert timeline.campaign_seconds == 1.0 * DAYS
        records = scenario.population.reachable
        assert len(records) == 345
        for record in records:
            intervals = timeline.intervals(record.addr)
            assert intervals and intervals[0][0] < 1.0 * DAYS

    def test_materialize_starts_alive_servers_only(self, scenario):
        when = scenario.snapshot_times[0]
        scenario.materialize_snapshot(when)
        alive = {record.addr for record in scenario.alive_reachable(when)}
        for addr, server in scenario.servers.items():
            assert server.listening == (addr in alive)

    def test_tables_have_configured_mixture(self, scenario):
        when = scenario.snapshot_times[1]
        scenario.materialize_snapshot(when)
        alive = scenario.alive_reachable(when)
        server = scenario.servers[alive[0].addr]
        reachable_in_table = sum(
            1
            for record in server.table
            if scenario.population.is_reachable_addr(record.addr)
        )
        share = reachable_in_table / len(server.table)
        assert share == pytest.approx(
            scenario.config.addr_reachable_share, abs=0.05
        )

    def test_snapshots_must_advance(self, scenario):
        with pytest.raises(ScenarioError):
            scenario.materialize_snapshot(0.0)

    def test_gossip_pool_is_unreachable_only(self, scenario):
        when = scenario.snapshot_times[2]
        pool = scenario.gossip_pool(when)
        assert pool
        assert not any(
            scenario.population.is_reachable_addr(addr) for addr in pool
        )

    def test_flooders_planted(self, scenario):
        assert scenario.flooders  # scale floor keeps at least one

    def test_tables_share_one_record_per_gossiped_address(self):
        scenario = LongitudinalScenario(
            LongitudinalConfig(scale=0.005, snapshots=6, seed=3)
        )
        when = scenario.snapshot_times[0]
        scenario.materialize_snapshot(when)
        tables = [s.table for s in scenario.servers.values() if s.listening]
        assert len(tables) > 1
        records = {}
        for table in tables:
            for record in table:
                # last seen at materialisation, and the same object
                # wherever the address was drawn
                assert record.timestamp == when
                assert records.setdefault(record.addr, record) is record
        assert len(records) < sum(len(table) for table in tables)


class TestProtocolScenario:
    def test_standing_network_syncs(self):
        scenario = ProtocolScenario(
            ProtocolConfig(n_reachable=30, seed=5, block_interval=120.0)
        )
        scenario.start(warmup=1800.0)
        assert scenario.best_height >= 4  # Poisson mean 15
        assert scenario.sync_fraction() > 0.9

    def test_pre_mined_chain_loaded_everywhere(self):
        scenario = ProtocolScenario(
            ProtocolConfig(n_reachable=10, seed=5, pre_mined_blocks=40)
        )
        assert scenario.best_height == 40
        assert all(node.chain.height == 40 for node in scenario.nodes)

    def test_replacement_node_starts_fresh(self):
        scenario = ProtocolScenario(
            ProtocolConfig(n_reachable=15, seed=5, pre_mined_blocks=20)
        )
        scenario.start(warmup=300.0)
        joiner = scenario.add_replacement_node()
        assert joiner is not None
        assert joiner.chain.height == 0
        scenario.sim.run_for(1200.0)
        assert joiner.chain.height >= 20  # caught up through IBD

    def test_replacement_pool_recycles_addresses(self):
        scenario = ProtocolScenario(ProtocolConfig(n_reachable=5, seed=5, mining=False))
        scenario.start()
        pool_size = len(scenario._replacement_pool)  # noqa: SLF001
        joiners = [scenario.add_replacement_node() for _ in range(pool_size)]
        assert all(j is not None for j in joiners)
        # Pool exhausted; stop one node and ask again: address recycled.
        victim = scenario.nodes[0]
        victim.stop()
        recycled = scenario.add_replacement_node()
        assert recycled is not None
        assert recycled.addr == victim.addr
        assert victim not in scenario.nodes

    def test_observer_node_tables_polluted(self):
        scenario = ProtocolScenario(ProtocolConfig(n_reachable=20, seed=5, mining=False))
        observer = scenario.make_observer_node()
        reachable = sum(
            1
            for addr in observer.addrman.all_addresses()
            if scenario.population.is_reachable_addr(addr)
        )
        total = len(observer.addrman)
        assert total > 0
        assert reachable / total == pytest.approx(
            scenario.config.addr_reachable_share, abs=0.08
        )

    def test_churn_process_replaces_nodes(self):
        scenario = ProtocolScenario(
            ProtocolConfig(
                n_reachable=20, seed=5, mining=False, churn_per_10min=30.0
            )
        )
        scenario.start(warmup=1800.0)
        assert scenario.churn is not None
        assert scenario.churn.departures
        assert scenario.churn.arrivals
        running = len(scenario.running_nodes())
        assert 12 <= running <= 28  # size hovers near 20

    def test_node_config_not_shared_between_nodes(self):
        scenario = ProtocolScenario(
            ProtocolConfig(
                n_reachable=4, seed=5, mining=False,
                node_config=NodeConfig(max_outbound=3),
            )
        )
        a, b = scenario.nodes[0], scenario.nodes[1]
        assert a.config is not b.config
        assert a.config.max_outbound == 3
        assert a.config.policies is not b.config.policies

    def test_validation(self):
        with pytest.raises(ScenarioError):
            ProtocolScenario(ProtocolConfig(n_reachable=1))
