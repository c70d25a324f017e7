"""Tests for topology metrics and block-propagation measurement."""

from __future__ import annotations

import pytest

from repro.bitcoin import Block, NodeConfig
from repro.core.propagation import PropagationTracker
from repro.errors import AnalysisError
from repro.netmodel import (
    ProtocolConfig,
    ProtocolScenario,
    connection_graph,
    topology_stats,
)

from .conftest import build_small_network


@pytest.fixture(scope="module")
def warm_nodes():
    from repro.simnet import Simulator

    sim = Simulator(seed=88)
    nodes = build_small_network(sim, 20)
    sim.run_for(300.0)
    return sim, nodes


class TestConnectionGraph:
    def test_edges_are_established_outbound(self, warm_nodes):
        _sim, nodes = warm_nodes
        graph = connection_graph(nodes)
        assert graph.number_of_nodes() == 20
        for u, v in graph.edges:
            node = next(n for n in nodes if n.addr == u)
            assert any(
                p.remote_addr == v and not p.is_inbound and p.established
                for p in node.peers.values()
            )

    def test_stopped_nodes_excluded(self, warm_nodes):
        sim, nodes = warm_nodes
        graph_before = connection_graph(nodes)
        assert graph_before.number_of_nodes() == 20
        # A non-running node disappears from the graph view.
        fake_stopped = list(nodes)
        fake_stopped[0].running = False
        try:
            graph = connection_graph(fake_stopped)
            assert graph.number_of_nodes() == 19
        finally:
            fake_stopped[0].running = True


class TestTopologyStats:
    def test_stats_shape(self, warm_nodes):
        _sim, nodes = warm_nodes
        stats = topology_stats(nodes)
        assert stats.nodes == 20
        assert 4.0 < stats.mean_outdegree <= 8.0
        assert stats.largest_component_share == 1.0  # well-connected
        assert stats.diameter is not None and stats.diameter <= 4

    def test_empty_raises(self):
        with pytest.raises(AnalysisError):
            topology_stats([])


class TestPropagationTracker:
    def test_records_arrivals_network_wide(self):
        scenario = ProtocolScenario(
            ProtocolConfig(n_reachable=15, seed=91, block_interval=120.0)
        )
        scenario.start(warmup=600.0)
        tracker = PropagationTracker(scenario)
        scenario.sim.run_for(900.0)
        completed = tracker.completed_blocks(min_coverage=0.9)
        assert completed
        population = len(scenario.running_nodes())
        for record in completed:
            assert record.coverage(population) >= 0.9
        delays = tracker.percentile_delays(90.0)
        assert delays
        assert all(delay >= 0 for delay in delays)
        assert tracker.mean_delay_to(90.0) < 60.0

    def test_percentile_none_when_not_reached(self):
        from repro.core.propagation import BlockPropagation

        record = BlockPropagation(block_id=1, created_at=0.0)
        record.arrivals = {"a": 1.0}
        assert record.delay_percentile(population=10, percentile=90) is None
        assert record.delay_percentile(population=1, percentile=90) == 1.0

    def test_chains_existing_callbacks(self):
        scenario = ProtocolScenario(
            ProtocolConfig(n_reachable=6, seed=92, mining=False)
        )
        hits = []
        scenario.nodes[0].on_tip_advanced = lambda node, block: hits.append(
            block.block_id
        )
        PropagationTracker(scenario)
        scenario.start(warmup=120.0)
        scenario.nodes[0].submit_block(
            Block(block_id=1, prev_id=0, height=1, created_at=0.0, size=100)
        )
        assert hits == [1]

    def test_attach_new_nodes_idempotent(self):
        scenario = ProtocolScenario(
            ProtocolConfig(n_reachable=6, seed=93, mining=False)
        )
        tracker = PropagationTracker(scenario)
        assert tracker.attach_new_nodes() == 0
        scenario.start()
        scenario.add_replacement_node()
        assert tracker.attach_new_nodes() == 1


class TestOutdegreeAblation:
    @pytest.mark.slow
    def test_lower_outdegree_slows_propagation(self):
        """The §IV-B argument: outdegree 2 propagates slower than 8."""

        def run(max_outbound):
            scenario = ProtocolScenario(
                ProtocolConfig(
                    n_reachable=40,
                    seed=94,
                    block_interval=120.0,
                    node_config=NodeConfig(max_outbound=max_outbound),
                )
            )
            scenario.start(warmup=900.0)
            tracker = PropagationTracker(scenario)
            scenario.sim.run_for(1500.0)
            delays = tracker.percentile_delays(90.0, min_coverage=0.85)
            return sum(delays) / len(delays) if delays else float("inf")

        fast = run(8)
        slow = run(2)
        assert slow > fast
