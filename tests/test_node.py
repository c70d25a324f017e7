"""Tests for BitcoinNode: handshake, connections, relay, IBD, policies."""

from __future__ import annotations

from repro.bitcoin import (
    BitcoinNode,
    Block,
    NodeConfig,
    PolicyConfig,
    Transaction,
    unreachable_config,
)
from repro.bitcoin.config import FEELER_INTERVAL
from repro.bitcoin.messages import Ping

from .conftest import build_small_network, make_addr, make_node


def two_connected_nodes(sim, config_a=None, config_b=None):
    a = make_node(sim, 1, config_a)
    b = make_node(sim, 2, config_b)
    a.bootstrap([b.addr])
    a.start()
    b.start()
    sim.run_for(30.0)
    return a, b


class TestHandshake:
    def test_outbound_connection_establishes(self, sim):
        a, b = two_connected_nodes(sim)
        assert a.outbound_count == 1
        assert b.inbound_count == 1
        assert all(peer.established for peer in a.peers.values())
        assert all(peer.established for peer in b.peers.values())

    def test_successful_peer_promoted_to_tried(self, sim):
        a, b = two_connected_nodes(sim)
        assert a.addrman.info(b.addr).in_tried

    def test_self_advertisement_reaches_peer(self, sim):
        a, b = two_connected_nodes(sim)
        # b learned a's address from a's ADDR self-announcement.
        assert a.addr in b.addrman

    def test_versions_carry_heights(self, sim):
        a, b = two_connected_nodes(sim)
        peer_on_a = next(iter(a.peers.values()))
        assert peer_on_a.remote_height == 0


class TestDispatchRule:
    COMMANDS = {
        "version", "verack", "ping", "pong", "getaddr", "addr", "inv",
        "getdata", "getblocks", "block", "sendcmpct", "cmpctblock",
        "getblocktxn", "blocktxn", "tx",
    }

    def test_every_command_is_its_handler_method(self):
        assert set(BitcoinNode._DISPATCH) == self.COMMANDS
        for command, handler in BitcoinNode._DISPATCH.items():
            assert handler is getattr(BitcoinNode, f"_handle_{command}")

    def test_an_override_is_dispatched_without_registering_it(self, sim):
        """A subclass that overrides one ``_handle_*`` and touches no
        table gets its override called by the handler pass, and the base
        class's table is left alone."""
        nonces = []

        class CountingNode(BitcoinNode):
            def _handle_ping(self, peer, message):
                nonces.append(message.nonce)
                super()._handle_ping(peer, message)

        assert CountingNode._DISPATCH["ping"] is CountingNode._handle_ping
        assert BitcoinNode._DISPATCH["ping"] is BitcoinNode._handle_ping
        counting = CountingNode(sim, make_addr(1))
        other = make_node(sim, 2)
        other.bootstrap([counting.addr])
        counting.start()
        other.start()
        sim.run_for(30.0)
        peer = next(iter(other.peers.values()))
        peer.enqueue_send(Ping(nonce=7))
        other._wake_handler()  # noqa: SLF001
        sim.run_for(5.0)
        assert 7 in nonces


class TestConnectionManagement:
    def test_fills_outbound_slots(self, sim):
        # 20 nodes make 8 outbound slots each feasible (one connection per
        # pair: 160 directed edges fit in C(20,2)=190 pairs), though the
        # random process may leave the last slot briefly unfilled.
        nodes = build_small_network(sim, 20)
        sim.run_for(300.0)
        assert all(
            node.outbound_count >= node.config.max_outbound - 1 for node in nodes
        )
        assert any(
            node.outbound_count == node.config.max_outbound for node in nodes
        )

    def test_does_not_exceed_max_outbound(self, sim):
        nodes = build_small_network(sim, 12)
        sim.run_for(300.0)
        for node in nodes:
            assert node.outbound_count <= node.config.max_outbound

    def test_inbound_cap_enforced(self, sim):
        hub = make_node(sim, 0, NodeConfig(max_inbound=2))
        hub.start()
        clients = []
        for index in range(1, 6):
            client = make_node(sim, index, unreachable_config(max_outbound=1))
            client.bootstrap([hub.addr])
            client.start()
            clients.append(client)
        sim.run_for(120.0)
        assert hub.inbound_count <= 2

    def test_unreachable_node_accepts_nothing(self, sim):
        hidden = make_node(sim, 1, unreachable_config())
        hidden.start()
        seeker = make_node(sim, 2)
        seeker.bootstrap([hidden.addr])
        seeker.start()
        sim.run_for(60.0)
        assert seeker.outbound_count == 0
        assert hidden.inbound_count == 0

    def test_reconnects_after_peer_departure(self, sim):
        nodes = build_small_network(sim, 20)
        sim.run_for(300.0)
        victim = nodes[0]
        affected = [
            node
            for node in nodes[1:]
            if any(
                p.remote_addr == victim.addr and not p.is_inbound
                for p in node.peers.values()
            )
        ]
        assert affected, "test needs at least one out-neighbour"
        before = {node.addr: node.outbound_count for node in affected}
        victim.stop()
        sim.run_for(300.0)
        for node in affected:
            # The lost slot is refilled (within one, since the departed
            # node shrank the candidate pool too).
            assert node.outbound_count >= before[node.addr] - 1

    def test_stop_closes_all_connections(self, sim):
        a, b = two_connected_nodes(sim)
        a.stop()
        sim.run_for(10.0)
        assert a.outbound_count == 0
        assert b.inbound_count == 0

    def test_failed_attempts_logged(self, sim):
        lonely = make_node(
            sim, 1, NodeConfig(track_connection_attempts=True)
        )
        lonely.bootstrap([make_addr(50), make_addr(51)])  # nobody listens
        lonely.start()
        sim.run_for(60.0)
        assert lonely.attempt_log
        assert all(not a.succeeded for a in lonely.attempt_log)
        assert lonely.connection_success_rate() == 0.0

    def test_silent_failures_take_the_tcp_timeout(self, sim):
        lonely = make_node(sim, 1, NodeConfig(track_connection_attempts=True))
        lonely.bootstrap([make_addr(50)])
        lonely.start()
        sim.run_for(30.0)
        attempts = [a for a in lonely.attempt_log if not a.outcome.startswith("feeler")]
        assert attempts
        assert attempts[0].duration >= lonely.config.connect_timeout * 0.99


class TestFeelers:
    def test_feeler_promotes_new_to_tried(self, sim):
        target = make_node(sim, 1)
        target.start()
        feeler_node = make_node(
            sim,
            2,
            NodeConfig(
                max_outbound=0,  # isolate the feeler path
                track_connection_attempts=True,
            ),
        )
        feeler_node.bootstrap([target.addr])
        feeler_node.start()
        sim.run_for(6 * FEELER_INTERVAL)
        assert feeler_node.addrman.info(target.addr).in_tried
        feeler_attempts = [
            a for a in feeler_node.attempt_log if a.outcome.startswith("feeler")
        ]
        assert feeler_attempts
        # Feelers disconnect after verifying: no standing connection.
        assert feeler_node.outbound_count == 0


class TestBlockRelay:
    def test_block_propagates_through_network(self, sim):
        nodes = build_small_network(sim, 10)
        sim.run_for(120.0)
        block = Block(block_id=1, prev_id=0, height=1, created_at=sim.now, size=5000)
        nodes[0].submit_block(block)
        sim.run_for(60.0)
        assert all(node.chain.height == 1 for node in nodes)

    def test_chain_of_blocks_propagates(self, sim):
        nodes = build_small_network(sim, 8)
        sim.run_for(120.0)
        for height in range(1, 6):
            block = Block(
                block_id=height,
                prev_id=height - 1,
                height=height,
                created_at=sim.now,
                size=2000,
            )
            nodes[height % len(nodes)].submit_block(block)
            sim.run_for(30.0)
        assert all(node.chain.height == 5 for node in nodes)

    def test_tip_history_records_progress(self, sim):
        nodes = build_small_network(sim, 6)
        sim.run_for(60.0)
        node = nodes[0]
        t_before = sim.now - 0.001  # strictly before the acceptance instant
        node.submit_block(
            Block(block_id=1, prev_id=0, height=1, created_at=sim.now, size=100)
        )
        sim.run_for(30.0)
        assert node.height_at(t_before) == 0
        assert node.height_at(sim.now) == 1

    def test_duplicate_block_not_rerelayed(self, sim):
        a, b = two_connected_nodes(sim)
        block = Block(block_id=1, prev_id=0, height=1, created_at=sim.now, size=100)
        a.submit_block(block)
        sim.run_for(30.0)
        sent_before = sum(sock.messages_sent for sock in sim.network.open_sockets(a.addr))
        a.submit_block(block)  # duplicate
        sim.run_for(30.0)
        sent_after = sum(sock.messages_sent for sock in sim.network.open_sockets(a.addr))
        assert sent_after == sent_before


class TestTxRelay:
    def test_tx_propagates(self, sim):
        nodes = build_small_network(sim, 8)
        sim.run_for(120.0)
        nodes[0].submit_tx(Transaction(txid=7, size=300))
        sim.run_for(120.0)
        assert all(7 in node.mempool for node in nodes)

    def test_tx_confirmed_by_block_leaves_mempool(self, sim):
        a, b = two_connected_nodes(sim)
        a.submit_tx(Transaction(txid=7))
        sim.run_for(60.0)
        assert 7 in b.mempool
        block = Block(
            block_id=1, prev_id=0, height=1, created_at=sim.now, txids=(7,), size=400
        )
        a.submit_block(block)
        sim.run_for(60.0)
        assert 7 not in a.mempool
        assert 7 not in b.mempool


class TestIBD:
    def test_late_joiner_catches_up(self, sim):
        nodes = build_small_network(sim, 8)
        sim.run_for(120.0)
        for height in range(1, 8):
            nodes[0].submit_block(
                Block(
                    block_id=height,
                    prev_id=height - 1,
                    height=height,
                    created_at=sim.now,
                    size=2000,
                )
            )
            sim.run_for(20.0)
        joiner = make_node(sim, 99)
        joiner.bootstrap([node.addr for node in nodes])
        joiner.start()
        sim.run_for(300.0)
        assert joiner.chain.height == 7

    def test_restart_resyncs(self, sim):
        nodes = build_small_network(sim, 8)
        sim.run_for(120.0)
        nodes[0].submit_block(
            Block(block_id=1, prev_id=0, height=1, created_at=sim.now, size=1000)
        )
        sim.run_for(60.0)
        victim = nodes[3]
        victim.restart()
        nodes[0].submit_block(
            Block(block_id=2, prev_id=1, height=2, created_at=sim.now, size=1000)
        )
        sim.run_for(300.0)
        assert victim.chain.height == 2


class TestPolicies:
    def test_priority_relay_puts_blocks_first(self, sim):
        config = NodeConfig(
            policies=PolicyConfig(params={"prioritize_block_relay": True})
        )
        node = make_node(sim, 1, config)
        node.start()
        other = make_node(sim, 2)
        other.bootstrap([node.addr])
        other.start()
        sim.run_for(30.0)
        peer = next(iter(node.peers.values()))
        from repro.bitcoin.messages import GetAddr

        peer.send_queue.clear()
        peer.enqueue_send(GetAddr())
        node.relay_block(  # exercising the relay path
            Block(block_id=9, prev_id=0, height=1, created_at=sim.now, size=100)
        )
        first = peer.send_queue[0]
        assert first.command in ("inv", "cmpctblock")

    def test_baseline_relay_queues_behind(self, sim):
        node = make_node(sim, 1)
        node.start()
        other = make_node(sim, 2)
        other.bootstrap([node.addr])
        other.start()
        sim.run_for(30.0)
        peer = next(iter(node.peers.values()))
        from repro.bitcoin.messages import GetAddr

        peer.send_queue.clear()
        peer.enqueue_send(GetAddr())
        node.relay_block(
            Block(block_id=9, prev_id=0, height=1, created_at=sim.now, size=100)
        )
        assert peer.send_queue[0].command == "getaddr"

    def test_tried_only_addr_response(self, sim):
        config = NodeConfig(
            policies=PolicyConfig(params={"addr_from_tried_only": True})
        )
        a, b = two_connected_nodes(sim, config_b=config)
        # a sent GETADDR on connect; b's new-table pollution must not leak.
        pollution = [make_addr(i + 100) for i in range(50)]
        b.bootstrap(pollution)
        # Force another getaddr cycle via a fresh connection from c.
        c = make_node(sim, 3)
        c.bootstrap([b.addr])
        c.start()
        sim.run_for(60.0)
        for addr in pollution:
            assert addr not in c.addrman

    def test_repeated_getaddr_ignored_by_default(self, sim):
        a, b = two_connected_nodes(sim)
        peer_on_a = next(iter(a.peers.values()))
        from repro.bitcoin.messages import GetAddr

        before = peer_on_a.socket.messages_sent
        peer_on_a.enqueue_send(GetAddr())
        peer_on_a.enqueue_send(GetAddr())
        a._wake_handler()  # noqa: SLF001
        sim.run_for(30.0)
        # b already served one GETADDR during the handshake; the repeats
        # produce no further ADDR traffic toward a.
        addr_msgs = peer_on_a.addr_messages_received
        sim.run_for(30.0)
        assert peer_on_a.addr_messages_received == addr_msgs


class TestGetAddrExchange:
    def test_addr_response_respects_cap(self, sim):
        b = make_node(sim, 2)
        b.bootstrap([make_addr(i + 200) for i in range(100)])
        b.start()
        a = make_node(sim, 1)
        a.bootstrap([b.addr])
        a.start()
        sim.run_for(60.0)
        # a's addrman should have learned a bounded sample, not everything.
        learned = sum(
            1 for i in range(100) if make_addr(i + 200) in a.addrman
        )
        assert 0 < learned < 100

    def test_small_addr_announcements_forwarded(self, sim):
        nodes = build_small_network(sim, 6)
        sim.run_for(120.0)
        # A brand-new listener announces itself to one peer only.
        newcomer = make_node(sim, 77)
        newcomer.bootstrap([nodes[0].addr])
        newcomer.start()
        sim.run_for(240.0)
        knowers = sum(1 for node in nodes if newcomer.addr in node.addrman)
        assert knowers >= 2  # the direct peer plus forwarded copies
