"""Tests for the mining/tx processes and the relay tracker."""

from __future__ import annotations

import pytest

from repro.bitcoin import (
    MiningProcess,
    RelayTracker,
    TransactionGenerator,
)
from repro.bitcoin.relay import relay_order
from repro.errors import ScenarioError

from .conftest import build_small_network


class TestMiningProcess:
    def test_blocks_extend_best_chain(self, sim):
        nodes = build_small_network(sim, 8)
        sim.run_for(60.0)
        mining = MiningProcess(sim, lambda: nodes, block_interval=30.0)
        mining.start()
        sim.run_for(600.0)
        assert mining.blocks_mined >= 5
        heights = [mined.block.height for mined in mining.history]
        assert heights == list(range(1, len(heights) + 1))

    def test_network_follows_miner(self, sim):
        nodes = build_small_network(sim, 8)
        sim.run_for(60.0)
        mining = MiningProcess(sim, lambda: nodes, block_interval=60.0)
        mining.start()
        sim.run_for(900.0)
        assert all(node.chain.height == mining.best_height for node in nodes)

    def test_stop_halts_production(self, sim):
        nodes = build_small_network(sim, 4)
        mining = MiningProcess(sim, lambda: nodes, block_interval=10.0)
        mining.start()
        sim.run_for(100.0)
        count = mining.blocks_mined
        mining.stop()
        sim.run_for(200.0)
        assert mining.blocks_mined == count

    def test_premine_builds_history(self, sim):
        mining = MiningProcess(sim, lambda: [], block_interval=10.0)
        blocks = mining.premine(50)
        assert len(blocks) == 50
        assert mining.best_height == 50
        assert [b.height for b in blocks] == list(range(1, 51))
        # Parent links form a chain from genesis.
        assert blocks[0].prev_id == 0
        for parent, child in zip(blocks, blocks[1:]):
            assert child.prev_id == parent.block_id

    def test_premine_after_mining_rejected(self, sim):
        nodes = build_small_network(sim, 4)
        sim.run_for(30.0)
        mining = MiningProcess(sim, lambda: nodes, block_interval=5.0)
        mining.start()
        sim.run_for(60.0)
        assert mining.blocks_mined > 0
        with pytest.raises(ScenarioError):
            mining.premine(10)

    def test_blocks_confirm_mempool_txs(self, sim):
        nodes = build_small_network(sim, 6)
        sim.run_for(60.0)
        mining = MiningProcess(
            sim, lambda: nodes, block_interval=60.0, txs_per_block=5
        )
        txgen = TransactionGenerator(sim, lambda: nodes, tx_rate=0.5)
        mining.start()
        txgen.start()
        sim.run_for(900.0)
        confirmed = [m for m in mining.history if m.block.txids]
        assert confirmed, "expected at least one non-empty block"

    def test_invalid_interval(self, sim):
        with pytest.raises(ScenarioError):
            MiningProcess(sim, lambda: [], block_interval=0.0)

    def test_stalled_network_mines_nothing(self, sim):
        mining = MiningProcess(sim, lambda: [], block_interval=5.0)
        mining.start()
        sim.run_for(60.0)
        assert mining.blocks_mined == 0


class TestTransactionGenerator:
    def test_generates_at_rate(self, sim):
        nodes = build_small_network(sim, 4)
        sim.run_for(30.0)
        txgen = TransactionGenerator(sim, lambda: nodes, tx_rate=1.0)
        txgen.start()
        sim.run_for(300.0)
        assert 200 < txgen.generated < 420  # Poisson around 300

    def test_invalid_rate(self, sim):
        with pytest.raises(ScenarioError):
            TransactionGenerator(sim, lambda: [], tx_rate=0.0)


class TestRelayTracker:
    def test_records_first_seen_once(self):
        tracker = RelayTracker()
        tracker.saw(1, "block", 10.0)
        tracker.saw(1, "block", 20.0)
        assert tracker.records("block")[0].first_seen == 10.0

    def test_relaying_time_is_last_minus_first(self):
        tracker = RelayTracker()
        tracker.saw(1, "block", 10.0)
        tracker.enqueued(1)
        tracker.relayed(1, 11.0)
        tracker.relayed(1, 14.5)
        assert tracker.relaying_times("block") == [4.5]

    def test_cutoff_excludes_late_serving(self):
        tracker = RelayTracker()
        tracker.saw(1, "block", 10.0)
        tracker.enqueued(1)
        tracker.relayed(1, 12.0)
        tracker.relayed(1, 500.0)  # an IBD request hours later
        assert tracker.relaying_times("block", cutoff=60.0) == [2.0]
        assert tracker.relaying_times("block", cutoff=1000.0) == [490.0]

    def test_outbound_times_the_last_outbound_copy(self):
        tracker = RelayTracker()
        tracker.saw(1, "block", 10.0)
        tracker.enqueued(1)
        tracker.relayed(1, 11.0, outbound=True)
        tracker.relayed(1, 14.5)  # an inbound peer, last overall
        assert tracker.relaying_times("block") == [4.5]
        assert tracker.relaying_times("block", outbound=True) == [1.0]

    def test_unenqueued_items_excluded(self):
        tracker = RelayTracker()
        tracker.saw(1, "block", 10.0)
        tracker.relayed(1, 11.0)
        assert tracker.relaying_times("block") == []

    def test_kind_filter(self):
        tracker = RelayTracker()
        tracker.saw(1, "block", 0.0)
        tracker.saw(2, "tx", 0.0)
        assert len(tracker.records("block")) == 1
        assert len(tracker.records("tx")) == 1
        assert len(tracker.records()) == 2

    def test_relayed_unknown_item_ignored(self):
        tracker = RelayTracker()
        tracker.relayed(99, 5.0)
        assert len(tracker) == 0


class TestRelayOrder:
    class _FakePeer:
        def __init__(self, is_inbound):
            self.is_inbound = is_inbound

    def test_baseline_preserves_order(self):
        peers = [self._FakePeer(True), self._FakePeer(False), self._FakePeer(True)]
        assert relay_order(peers, outbound_first=False) == peers

    def test_policy_puts_outbound_first(self):
        peers = [self._FakePeer(True), self._FakePeer(False), self._FakePeer(True)]
        ordered = relay_order(peers, outbound_first=True)
        assert [p.is_inbound for p in ordered] == [False, True, True]

    def test_policy_sort_is_stable(self):
        a, b = self._FakePeer(False), self._FakePeer(False)
        c, d = self._FakePeer(True), self._FakePeer(True)
        ordered = relay_order([c, a, d, b], outbound_first=True)
        assert ordered == [a, b, c, d]
