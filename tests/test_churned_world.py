"""A churned protocol world pays only for the living.

Fig. 1's unit cell is a network that loses and replaces nodes for hours,
so what a closed connection and a departed node leave behind decides how
its memory behaves over simulated time.  These tests pin that as counts,
not as RSS: a dead ``Peer`` dies by reference count, a departed node's
record holds nothing a running node needs, and the census of a world is
the census of its running nodes however many have come and gone.

``TestGossipBudget`` takes the same census on ``gossip_scale``'s shape
(``benchmarks/ledger``: hybrid tiers, steady ADDR gossip) as a budget of
GC-tracked objects — what the cycle collector has to walk: so many per
full node, one per light node, none per addrman row — and as a bytes
budget for what a peer knows of the address space: a bit per address.
"""

from __future__ import annotations

import gc
import sys
import types
import weakref
from collections import Counter

import pytest

from repro.bitcoin import Block, NodeConfig
from repro.bitcoin import addrman as addrman_module
from repro.bitcoin import node as node_module
from repro.bitcoin.addrman import AddrMan
from repro.bitcoin.blockchain import Blockchain
from repro.bitcoin.light import LightNode
from repro.bitcoin.peer import Peer
from repro.errors import ProtocolError
from repro.netmodel.churn import ChurnProcess
from repro.netmodel.scenario import ProtocolConfig, ProtocolScenario
from repro.simnet import NetAddr, Simulator, TimestampedAddr
from repro.simnet.transport import Socket

from .conftest import build_small_network, make_addr

N_NODES = 12
HISTORY = 40


def churned_world() -> ProtocolScenario:
    """Twelve full nodes born with a 40-block history and churned at a
    rate that keeps a joiner or two in initial block download most of
    the time.  Two things are held still so that a census moves with
    what the world *keeps* and not with the mood of the living: nothing
    is mined (the interval is out of reach), so a synchronized chain
    holds the same blocks whenever it is counted, and address tables are
    born near saturation (a 5 % reachable share draws almost the whole
    unreachable pool), so a node's table does not depend on its age."""
    scenario = ProtocolScenario(
        ProtocolConfig(
            seed=3,
            n_reachable=N_NODES,
            churn_per_10min=8.0,
            pre_mined_blocks=HISTORY,
            block_interval=1e9,
            addr_reachable_share=0.05,
        )
    )
    scenario.sim.register("scenario", scenario)
    scenario.start()
    return scenario


def joiners_in_ibd(scenario: ProtocolScenario) -> int:
    return sum(
        1 for node in scenario.running_nodes() if node.chain.height < HISTORY
    )


def run_until(scenario: ProtocolScenario, condition) -> None:
    while not condition():
        scenario.sim.run_for(1.0)


def settle_after(scenario: ProtocolScenario, departures: int) -> None:
    """Run past ``departures`` departures, on to the next moment every
    replacement has arrived and caught up: the two censuses then compare
    like with like (same running nodes, same chains)."""
    run_until(
        scenario,
        lambda: len(scenario.churn.departures) >= departures
        and len(scenario.running_nodes()) == N_NODES
        and joiners_in_ibd(scenario) == 0,
    )


_NOT_STATE = (
    type,
    types.ModuleType,
    types.FunctionType,
    types.BuiltinFunctionType,
)


def reachable(root) -> list:
    """Every object reachable from ``root`` through instance state."""
    seen = {id(root)}
    found = [root]
    for obj in found:
        for ref in gc.get_referents(obj):
            if id(ref) not in seen and not isinstance(ref, _NOT_STATE):
                seen.add(id(ref))
                found.append(ref)
    return found


def _chain_entries(chain: Blockchain) -> int:
    return len(chain.blocks) + len(chain._main) + chain.orphan_count  # noqa: SLF001


def census(scenario: ProtocolScenario) -> int:
    """Addrman rows + live ``Peer`` s + chain-map entries reachable from
    the scenario — through ``nodes``, the churn log, the mining history,
    the event queue and every socket still pinned by a timer."""
    total = 0
    for obj in reachable(scenario):
        if isinstance(obj, Peer):
            total += 1
        elif isinstance(obj, AddrMan):
            total += len(obj)
        elif isinstance(obj, Blockchain):
            total += _chain_entries(obj)
    return total


def census_of_the_living(scenario: ProtocolScenario) -> int:
    """The same count, taken from the running nodes alone (a peer whose
    connection just closed is still listed until its node's next handler
    pass; that pass is the only thing it may be waiting for)."""
    total = 0
    for node in scenario.running_nodes():
        awaiting_pass = {
            peer
            for peer in (*node.dirty_process, *node.dirty_send)
            if node.peers.get(peer.socket) is not peer
        }
        total += len(node.addrman) + len(node.peers) + len(awaiting_pass)
        total += _chain_entries(node.chain)
    return total


class TestNoGarbage:
    def test_closed_connections_leave_nothing_for_the_collector(self, monkeypatch):
        """``socket.user_data = peer`` <-> ``peer.socket`` is a cycle; cut
        when the peer leaves ``node.peers``, the ``Peer`` and its
        ``known_*`` sets die by reference count — at the latest when the
        handler pass that still lists them as dirty has run."""
        made = []

        class TrackedPeer(Peer):
            __slots__ = ("__weakref__",)

            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(weakref.ref(self))

        monkeypatch.setattr(node_module, "Peer", TrackedPeer)
        gc.collect()
        gc.disable()
        try:
            scenario = churned_world()
            seen_ibd = 0
            while len(scenario.churn.departures) < 10:
                scenario.sim.run_for(20.0)
                seen_ibd = max(seen_ibd, joiners_in_ibd(scenario))
            assert seen_ibd >= 1

            alive = _assert_alive_peers_are_connected_or_awaiting_a_pass(made)
            assert len(made) - alive > 100  # the world did close connections

            gc.set_debug(gc.DEBUG_SAVEALL)
            try:
                gc.collect()
                found = Counter(
                    type(obj).__name__
                    for obj in gc.garbage
                    if isinstance(obj, (Peer, Socket))
                )
            finally:
                gc.set_debug(0)
                gc.garbage.clear()
            assert not found, found
        finally:
            gc.enable()


def _assert_alive_peers_are_connected_or_awaiting_a_pass(made) -> int:
    alive = 0
    for ref in made:
        peer = ref()
        if peer is None:
            continue
        alive += 1
        node = peer.node
        assert (
            node.peers.get(peer.socket) is peer
            or peer in node.dirty_process
            or peer in node.dirty_send
        ), f"{peer} of a closed connection outlived its handler pass"
    return alive


N_GOSSIP = 40


def gossip_world(events: int = 5000) -> ProtocolScenario:
    """The ledger's ``gossip_scale`` world at 40 full nodes: built,
    warmed for 15 s, then run for ``events`` events, every address
    table checked."""
    scenario = ProtocolScenario(
        ProtocolConfig(
            seed=5,
            n_reachable=N_GOSSIP,
            churn_per_10min=6.0,
            pre_mined_blocks=10,
        )
    )
    scenario.start(warmup=15.0)
    scenario.sim.run_for(1e9, max_events=events)
    for node in scenario.running_nodes():
        node.addrman.check()
    return scenario


def tracked(scenario: ProtocolScenario) -> int:
    """GC-tracked objects reachable from the scenario."""
    gc.collect()
    return sum(1 for obj in reachable(scenario) if gc.is_tracked(obj))


class TestGossipBudget:
    #: Measured 210.8, of which 50.4 are bucket lists (a bucket of one
    #: holds its address bare); 370.6 (210.4 lists) with a dict of
    #: bucket lists, 804 when every address was an ``AddrInfo`` object.
    FULL_NODE_CEILING = 250
    #: Measured 1.005: the ``LightNode`` itself and nothing else.
    LIGHT_NODE_CEILING = 1.1
    #: Measured 103.3 over 13,751 rows (the slot lists are a fixed
    #: 10 KB a node); 133.2 with a dict of bucket lists.
    ROW_BYTES_CEILING = 115

    def test_tracked_objects_per_node_by_tier(self):
        """The census of one world, taken again after its light tier is
        dropped: the difference is what the light tier costs, and the
        rest is the full tier's."""
        world = gossip_world()
        cloud = world.light_cloud
        lights = len(cloud)
        assert lights > 10 * N_GOSSIP
        with_lights = tracked(world)
        for node in cloud.nodes.values():
            node.stop()
        cloud.nodes.clear()
        assert world.tier_census() == {"full": N_GOSSIP, "light": 0}
        in_full = tracked(world)
        per_full = in_full / N_GOSSIP
        per_light = (with_lights - in_full) / lights
        rows = sum(len(node.addrman) for node in world.running_nodes())
        assert rows > 300 * N_GOSSIP  # the tables the budget is about
        assert per_full <= self.FULL_NODE_CEILING, per_full
        assert 1.0 <= per_light <= self.LIGHT_NODE_CEILING, per_light

    def test_an_addrman_row_owns_nothing_but_its_record(self):
        """Ingesting N fresh addresses grows the collector's heap by the
        bucket lists they open — one per /16 here, all from one source
        — and by nothing per row: the record is the sender's."""
        scenario = gossip_world()
        node = scenario.running_nodes()[0]
        now = scenario.sim.now
        groups, hosts = 20, 60  # 60 < ADDRMAN_BUCKET_SIZE: nobody evicted
        records = [
            TimestampedAddr(NetAddr(ip=((0xF000 + group) << 16) | host), now)
            for group in range(groups)
            for host in range(1, hosts + 1)
        ]
        source = NetAddr(ip=0xEFFF0001)
        rows = len(node.addrman)
        gc.collect()
        before = len(gc.get_objects())
        added = node.addrman.add_many(records, now, source)
        grown = len(gc.get_objects()) - before
        assert added == groups * hosts
        assert len(node.addrman) > rows + groups * hosts // 2
        assert grown <= groups, grown

    def test_an_addrman_row_costs_a_hundred_bytes(self):
        """``getsizeof`` of every table's bucket slots and the lists in
        them, ``_pos``, ``_rec`` and ``_src``, per row — the records are
        the senders' and the row numbers the shared pool's."""
        held = rows = 0
        for node in gossip_world().running_nodes():
            for table in (node.addrman._new, node.addrman._tried):  # noqa: SLF001
                slots = table._slots  # noqa: SLF001
                held += sys.getsizeof(slots) + sum(
                    sys.getsizeof(slot) for slot in slots if slot.__class__ is list
                )
                held += sum(
                    sys.getsizeof(column)
                    for column in (table._pos, table._rec, table._src)  # noqa: SLF001
                )
                assert all(
                    row is addrman_module._ROWS[row]  # noqa: SLF001
                    for row in table._pos.values()  # noqa: SLF001
                )
                rows += len(table)
        assert rows > 300 * N_GOSSIP
        assert held / rows <= self.ROW_BYTES_CEILING, held / rows

    @staticmethod
    def _assert_known_addrs_within_budget(scenario: ProtocolScenario) -> None:
        """Every peer of every full node holds its known addresses in at
        most ``len(index) // 8 + 128`` bytes: a bit per indexed address,
        the bitmap's header and its regrowth slack."""
        from .test_known_addrs import full_nodes

        index = scenario.sim.network.addr_index
        cap = len(index) // 8 + 128
        for node in full_nodes(scenario):
            held = [sys.getsizeof(peer.known_addrs) for peer in node.peers.values()]
            assert max(held, default=0) <= cap, (node, max(held), cap)

    def test_known_addresses_cost_a_bit_each(self):
        """Measured on this world with 814 indexed addresses: 222 B per
        peer at most against a cap of 229.  As ``set`` s the same peers
        held up to 8,408 B (54,558 B per full node)."""
        self._assert_known_addrs_within_budget(gossip_world(events=20_000))

    @pytest.mark.slow
    def test_flooded_known_addresses_cost_a_bit_each(self):
        """Measured with 32,335 indexed addresses: 4,162 B per peer at
        most against a cap of 4,169.  As ``set`` s the same peers held
        up to 2,097,368 B (4.19 MB per full node)."""
        from .test_known_addrs import flooded_world

        self._assert_known_addrs_within_budget(flooded_world())

    def test_gossip_leaves_nothing_for_the_collector(self):
        """Set-up, warm-up, 20 K events and the first departures, all
        with the collector off: a full collection then finds nothing —
        which is why no ``gc`` knob is set anywhere under ``src/``."""
        gc.collect()
        gc.disable()
        try:
            scenario = gossip_world(events=20_000)
            assert scenario.churn.departures
            gc.set_debug(gc.DEBUG_SAVEALL)
            try:
                gc.collect()
                found = Counter(type(obj).__name__ for obj in gc.garbage)
            finally:
                gc.set_debug(0)
                gc.garbage.clear()
            assert not found, found
        finally:
            gc.enable()


class TestFlatCensus:
    def test_census_and_snapshot_do_not_grow_with_departures(self):
        """ROADMAP item 2's "memory does not grow with simulated time",
        as a count: what a world holds after 3 D departures is what it
        held after D — all of it a running node's — and so is what its
        snapshot weighs.  D is past the replacement pool (2 x the
        standing network), where departed addresses are recycled and the
        number of records has reached its ceiling."""
        scenario = churned_world()
        settle_after(scenario, 2 * N_NODES)
        departed_early = len(scenario.churn.departures)
        records = len(scenario.nodes)
        assert records == 3 * N_NODES
        held_early = census(scenario)
        assert held_early == census_of_the_living(scenario)
        snapshot_early = len(scenario.sim.snapshot())

        settle_after(scenario, 3 * departed_early)
        assert len(scenario.running_nodes()) == N_NODES
        assert len(scenario.nodes) == records
        held_late = census(scenario)
        assert held_late == census_of_the_living(scenario)
        snapshot_late = len(scenario.sim.snapshot())

        assert abs(held_late - held_early) <= 0.05 * held_early, (
            held_early, held_late,
        )
        assert snapshot_late <= 1.05 * snapshot_early, (
            snapshot_early, snapshot_late,
        )


class TestDepartedRecord:
    @staticmethod
    def _lived_in_node(sim: Simulator):
        def config():
            return NodeConfig(track_connection_attempts=True, track_relay_times=True)

        nodes = build_small_network(sim, 4, config_factory=config)
        sim.run_for(30.0)
        prev = 0
        for height in range(1, 4):
            block = Block(
                block_id=height, prev_id=prev, height=height, created_at=sim.now
            )
            nodes[0].submit_block(block)
            prev = height
            sim.run_for(10.0)
        node = nodes[1]
        assert node.chain.height == 3 and node.attempt_log and node.peers
        return node

    @staticmethod
    def _record_reads(node):
        return {
            "addr": node.addr,
            "running": node.running,
            "started_at": node.started_at,
            "height": node.chain.height,
            "height_at": [node.height_at(when) for when in (0.0, 35.0, 45.0, 1e9)],
            "tip_history": list(node.tip_history),
            "attempt_log": list(node.attempt_log),
            "success_rate": node.connection_success_rate(),
            "first_relay_at": node.first_relay_at,
            "relay_tracker": node.relay_tracker,
        }

    def test_record_keeps_what_monitors_read(self, sim):
        node = self._lived_in_node(sim)
        before = self._record_reads(node)
        node.depart()
        assert self._record_reads(node) == {**before, "running": False}
        assert node.departed
        # ...and nothing a running node needs.
        assert node.addrman is None and node.mempool is None
        assert len(node.chain) == 0 and node.chain.orphan_count == 0
        assert node.chain.inv_above(-1, 500) == ()
        assert not node.peers and not node._pending_cmpct  # noqa: SLF001
        sim.run_for(60.0)  # whatever was in flight finds a quiet record

    def test_departed_node_refuses_to_come_back(self, sim):
        node = self._lived_in_node(sim)
        node.depart()
        for comeback in (node.start, node.restart, lambda: node.bootstrap([])):
            with pytest.raises(ProtocolError, match="departed"):
                comeback()
        assert not node.running
        node.depart()  # idempotent
        node.stop()

    def test_stop_alone_keeps_all_state(self, sim):
        """A crash fault is ``stop()`` then ``start()``: addrman and chain
        survive it (peers.dat and the datadir outlive most crashes)."""
        node = self._lived_in_node(sim)
        known, height, blocks = len(node.addrman), node.chain.height, len(node.chain)
        node.stop()
        assert not node.departed
        assert (len(node.addrman), node.chain.height, len(node.chain)) == (
            known, height, blocks,
        )
        node.start()
        sim.run_for(30.0)
        assert node.running and node.peers
        assert len(node.addrman) >= known and node.chain.height == height

    def test_stop_cuts_every_peer_loose(self, sim):
        node = self._lived_in_node(sim)
        sockets = list(node.peers)
        assert all(sock.user_data is node.peers[sock] for sock in sockets)
        node.stop()
        assert all(sock.user_data is None for sock in sockets)

    def test_churn_departs_and_logs_addresses(self, sim):
        nodes = build_small_network(sim, 6)
        churn = ChurnProcess(
            sim, lambda: nodes, lambda: None, departures_per_10min=600.0
        )
        churn.start()
        sim.run_for(5.0)
        churn.stop()
        gone = [node for node in nodes if not node.running]
        assert gone and all(node.departed for node in gone)
        assert len(churn.departures) == len(gone)
        assert {addr for _when, addr in churn.departures} == {
            node.addr for node in gone
        }
        assert all(isinstance(addr, NetAddr) for _when, addr in churn.departures)

    def test_default_departure_is_a_stop(self, sim):
        light = LightNode(sim, make_addr(7))
        light.start()
        light.depart()
        assert not light.running
        light.start()  # the light tier holds nothing to release
        assert light.running


class TestSnapshotRestoreChurned:
    def test_round_trip_with_departed_record_and_joiner_in_ibd(self):
        scenario = churned_world()
        run_until(
            scenario,
            lambda: len(scenario.churn.departures) >= 3
            and joiners_in_ibd(scenario) >= 1,
        )
        sim = scenario.sim
        assert any(node.departed for node in scenario.nodes)

        restored = Simulator.restore(sim.snapshot())
        twin = restored.components["scenario"]
        assert _world_state(twin) == _world_state(scenario)
        _assert_one_inv_item_per_block(twin)

        a = sim.run_for(1e9, max_events=8000)
        b = restored.run_for(1e9, max_events=8000)
        assert int(a) == int(b) == 8000
        assert restored.now == sim.now
        assert len(scenario.churn.departures) > 3
        assert _world_state(twin) == _world_state(scenario)
        _assert_one_inv_item_per_block(twin)


class TestKnownAddrsAcrossASnapshot:
    def test_bitmaps_and_index_survive_a_round_trip(self):
        """Snapshot a 40-node gossip world at 5 K events and restore it:
        the restored twin holds the same address index and bitmaps, and
        5 K more events later both still agree, forwarding included."""
        from .test_known_addrs import forwarding_digest, full_nodes

        def bitmaps(scenario):
            return [
                sorted(
                    (peer.remote_addr, bytes(peer.known_addrs))
                    for peer in node.peers.values()
                )
                for node in full_nodes(scenario)
            ]

        def state(scenario):
            index = scenario.sim.network.addr_index
            assert all(node._addr_index is index for node in full_nodes(scenario))  # noqa: SLF001
            return list(index.items()), bitmaps(scenario), forwarding_digest(scenario)

        scenario = gossip_world(events=5000)
        scenario.sim.register("scenario", scenario)
        restored = Simulator.restore(scenario.sim.snapshot())
        twin = restored.components["scenario"]
        assert len(scenario.sim.network.addr_index) > 0
        assert state(twin) == state(scenario)

        a = scenario.sim.run_for(1e9, max_events=5000)
        b = restored.run_for(1e9, max_events=5000)
        assert int(a) == int(b) == 5000
        assert state(twin) == state(scenario)


def _world_state(scenario: ProtocolScenario):
    return (
        scenario.churn.departures,
        scenario.churn.arrivals,
        [
            (
                node.addr,
                node.running,
                node.departed,
                node.chain.height,
                node.tip_history,
                len(node.chain),
                sorted(
                    (peer.remote_addr, sorted(peer.blocks_in_flight))
                    for peer in node.peers.values()
                ),
                None if node.addrman is None else len(node.addrman),
            )
            for node in scenario.nodes
        ],
    )


def _assert_one_inv_item_per_block(scenario: ProtocolScenario) -> None:
    """Every chain names a (non-genesis) block with the same ``InvItem``
    object, the block's own — also on the far side of a restore, where
    only the pickle memo keeps it so."""
    items = {}
    for node in scenario.running_nodes():
        chain = node.chain
        for height in range(1, chain.height + 1):
            block = chain.block_at_height(height)
            (item,) = chain.inv_above(height - 1, 1)
            assert item is block.inv
            assert items.setdefault(block.block_id, item) is item
    assert len(items) == HISTORY
