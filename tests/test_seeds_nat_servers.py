"""Tests for the address oracles, NAT model, addr servers, and flooders."""

from __future__ import annotations

import random

import pytest

from repro.bitcoin.config import MAX_INBOUND
from repro.bitcoin.messages import GetAddr, Version
from repro.errors import ConfigurationError
from repro.netmodel.addr_server import AddrServer
from repro.netmodel.asmap import ASUniverse
from repro.netmodel.churn import PresenceTimeline
from repro.netmodel.malicious import (
    FloodVolumeModel,
    MaliciousAddrServer,
    paper_flooders,
)
from repro.netmodel.nat import LightCloud
from repro.netmodel.population import Population, PopulationConfig
from repro.netmodel.scenario import (
    LongitudinalConfig,
    LongitudinalScenario,
    ProtocolConfig,
)
from repro.netmodel.seeds import AddressOracles, DnsSeeder
from repro.simnet import ProbeBehavior
from repro.simnet.addresses import stamp
from repro.simnet.simulator import Simulator
from repro.units import DAYS

from .conftest import make_addr


class TestDnsSeeder:
    def test_register_query(self, rng):
        seeder = DnsSeeder(rng)
        addrs = [make_addr(i) for i in range(20)]
        for addr in addrs:
            seeder.register(addr)
        got = seeder.query(5)
        assert len(got) == 5
        assert set(got) <= set(addrs)

    def test_register_idempotent(self, rng):
        seeder = DnsSeeder(rng)
        addr = make_addr(1)
        seeder.register(addr)
        seeder.register(addr)
        assert len(seeder) == 1


def _timeline_world(rng, count=400):
    universe = ASUniverse(rng)
    population = Population(
        rng,
        universe,
        PopulationConfig(scale=0.02, cumulative_reachable=count / 0.02),
    )
    timeline = PresenceTimeline(60 * DAYS)
    # First half alive the whole campaign; second half departed at day 10.
    half = len(population.reachable) // 2
    for record in population.reachable[:half]:
        timeline.set_intervals(record.addr, [(0.0, 60 * DAYS)])
    for record in population.reachable[half:]:
        timeline.set_intervals(record.addr, [(0.0, 10 * DAYS)])
    return population, timeline


class TestAddressOracles:
    def test_views_cover_alive_at_expected_rate(self, rng):
        _, timeline = _timeline_world(rng)
        oracles = AddressOracles(rng, timeline)
        views = oracles.snapshot(30 * DAYS)
        alive = len(views.alive)
        coverage = len(views.bitnodes & views.alive) / alive
        assert 0.68 <= coverage <= 0.88  # configured 0.78

    def test_membership_is_sticky(self, rng):
        _, timeline = _timeline_world(rng)
        oracles = AddressOracles(rng, timeline)
        first = oracles.snapshot(20 * DAYS)
        second = oracles.snapshot(30 * DAYS)
        # Alive nodes keep their Bitnodes membership between snapshots.
        assert (first.bitnodes & first.alive) == (second.bitnodes & second.alive)

    def test_departed_nodes_age_out(self, rng):
        population, timeline = _timeline_world(rng)
        oracles = AddressOracles(rng, timeline)
        shortly_after = oracles.snapshot(12 * DAYS)
        long_after = oracles.snapshot(40 * DAYS)
        departed = {
            record.addr
            for record in population.reachable
            if not timeline.alive_at(record.addr, 12 * DAYS)
            and timeline.ever_seen(record.addr)
        }
        assert len(shortly_after.bitnodes & departed) > 0
        assert len(long_after.bitnodes & departed) == 0

    def test_dns_mostly_subset_of_bitnodes(self, rng):
        _, timeline = _timeline_world(rng)
        oracles = AddressOracles(rng, timeline)
        views = oracles.snapshot(30 * DAYS)
        assert len(views.common) / len(views.dns) > 0.7


class TestNatModel:
    """The NAT model: how the light cloud marks unreachable addresses."""

    def test_responsive_marked_fin(self, sim, rng):
        nat = LightCloud(sim, rng)
        addrs = [make_addr(i) for i in range(5)]
        nat.mark_responsive(addrs)
        for addr in addrs:
            assert sim.network.probe_behavior(addr) is ProbeBehavior.FIN

    def test_silent_mix_of_rst_and_silent(self, sim, rng):
        nat = LightCloud(sim, rng, rst_fraction=0.5)
        addrs = [make_addr(i) for i in range(200)]
        nat.mark_silent(addrs)
        behaviors = [sim.network.probe_behavior(addr) for addr in addrs]
        rst_share = behaviors.count(ProbeBehavior.RST) / len(behaviors)
        assert 0.35 < rst_share < 0.65
        # Only the RST answers are kept as nodes; silence is no node.
        assert len(nat) == behaviors.count(ProbeBehavior.RST)

    def test_mark_offline(self, sim, rng):
        nat = LightCloud(sim, rng)
        addr = make_addr(1)
        nat.mark_responsive([addr])
        node = nat.nodes[addr]
        nat.mark_offline(addr)
        assert sim.network.probe_behavior(addr) is ProbeBehavior.SILENT
        # The departed host is stopped and forgotten.
        assert len(nat) == 0 and not node.running
        assert sim.network.tier_census() == {"full": 0, "light": 0}

    def test_a_listening_assist_is_kept_through_silence(self, sim, rng):
        """Only a plain cloud node is forgotten when it goes silent: an
        assist must listen again when its host comes back."""
        nat = LightCloud(sim, rng, assist_fraction=1.0)
        addr = make_addr(1)
        nat.mark_silent([addr] * 20)  # some draw is SILENT, none forgets
        node = nat.nodes[addr]
        nat.mark_offline(addr)
        assert nat.nodes[addr] is node and node.running
        assert not sim.network.is_listening(addr)
        assert sim.network.probe_behavior(addr) is ProbeBehavior.SILENT
        nat.mark_responsive([addr])
        assert nat.nodes[addr] is node and sim.network.is_listening(addr)

    def test_invalid_fraction(self):
        """Refused by either config, by name, before a scenario is built."""
        for config in (LongitudinalConfig, ProtocolConfig):
            for fraction in (2.0, -0.1):
                with pytest.raises(ConfigurationError, match="rst_fraction"):
                    config(rst_fraction=fraction).validate()


class _Collector:
    def __init__(self):
        self.messages = []

    def on_message(self, socket, message):
        self.messages.append(message)

    def on_disconnect(self, socket):
        pass


def _getaddr_exchange(sim, server):
    collector = _Collector()
    out = []
    sim.network.connect(make_addr(900), server.addr, collector, out.append)
    sim.run_for(5.0)
    sock = out[0]
    sock.send(Version(make_addr(900), server.addr, 0))
    sim.run_for(5.0)
    sock.send(GetAddr())
    sim.run_for(5.0)
    addrs = [m for m in collector.messages if m.command == "addr"]
    return addrs[-1] if addrs else None


class TestAddrServer:
    def test_serves_sample_with_self_first(self, sim, rng):
        table = stamp((make_addr(i + 10) for i in range(100)), 0.0)
        server = AddrServer(sim, make_addr(1), rng, table=table)
        server.start()
        response = _getaddr_exchange(sim, server)
        assert response is not None
        assert response.addresses[0].addr == server.addr
        assert 0 < len(response.addresses) <= 1000
        assert set(response.addresses[1:]) <= set(table)

    def test_response_respects_23_percent(self, sim, rng):
        table = [make_addr(i + 10) for i in range(100)]
        server = AddrServer(sim, make_addr(1), rng, table=table)
        server.start()
        response = _getaddr_exchange(sim, server)
        assert len(response.addresses) <= 1 + 23

    def test_relays_stored_records_behind_a_fresh_own_record(self, sim, rng):
        table = stamp((make_addr(i + 10) for i in range(100)), 7.0)
        server = AddrServer(sim, make_addr(1), rng, table=table)
        server.start()
        response = _getaddr_exchange(sim, server)
        own, relayed = response.addresses[0], response.addresses[1:]
        # A node has just seen itself; everything else is relayed as
        # stored — the table's own record objects, last-seen time intact.
        assert own.addr == server.addr and 7.0 < own.timestamp <= sim.now
        stored = {id(record) for record in table}
        assert relayed and all(id(record) in stored for record in relayed)

    def test_stop_releases_the_table(self, sim, rng):
        server = AddrServer(
            sim, make_addr(1), rng, table=stamp([make_addr(10)], 0.0)
        )
        server.start()
        server.stop()
        assert server.table == []

    def test_takes_its_named_stream_on_the_first_draw(self, sim):
        """Without a generator a server makes none until a GETADDR
        draws, and then serves what the ``("server", addr)`` stream
        made at construction would have served."""
        table = stamp((make_addr(i + 10) for i in range(400)), 0.0)
        lazy = AddrServer(sim, make_addr(1), table=table)
        assert ("server", str(lazy.addr)) not in sim.random._streams
        twin = Simulator(seed=sim.seed)
        eager = AddrServer(
            twin,
            make_addr(1),
            twin.random.stream("server", str(make_addr(1))),
            table=table,
        )
        for server in (lazy, eager):
            server.start()
        served = [
            [record.addr for record in _getaddr_exchange(world, server).addresses]
            for world, server in ((sim, lazy), (twin, eager))
        ]
        assert len(served[0]) > 1 and served[0] == served[1]
        assert lazy.rng is sim.random.stream("server", str(lazy.addr))
        assert lazy.rng.getstate() == eager.rng.getstate()

    def test_crawl_ended_keeps_a_table_a_connection_can_read(self, sim, rng):
        table = stamp((make_addr(i + 10) for i in range(100)), 0.0)
        server = AddrServer(sim, make_addr(1), rng, table=table)
        server.start()
        out = []
        sim.network.connect(make_addr(900), server.addr, _Collector(), out.append)
        sim.run_for(5.0)
        server.crawl_ended()
        assert server.table == table  # a GETADDR may still arrive
        out[0].close()
        sim.run_for(5.0)
        server.crawl_ended()
        assert server.table == []

    def test_stop_refuses_connections(self, sim, rng):
        server = AddrServer(sim, make_addr(1), rng)
        server.start()
        server.stop()
        out = []
        sim.network.connect(make_addr(2), server.addr, _Collector(), out.append)
        sim.run_for(10.0)
        assert out == [None]

    def test_inbound_cap(self, sim, rng):
        server = AddrServer(sim, make_addr(1), rng)
        server.start()
        results = []
        for index in range(MAX_INBOUND + 1):
            sim.network.connect(
                make_addr(index + 2), server.addr, _Collector(), results.append
            )
        sim.run_for(10.0)
        assert sum(1 for sock in results if sock is not None) == MAX_INBOUND


class TestMaliciousAddrServer:
    def _flooder(self, sim, rng, volume=2500):
        universe = ASUniverse(rng)
        population = Population(rng, universe, PopulationConfig(scale=0.002))
        return MaliciousAddrServer(
            sim, make_addr(1), rng, population=population, flood_volume=volume
        )

    def test_never_includes_self(self, sim, rng):
        flooder = self._flooder(sim, rng)
        flooder.start()
        response = _getaddr_exchange(sim, flooder)
        assert all(record.addr != flooder.addr for record in response.addresses)

    def test_serves_fresh_fakes_up_to_volume(self, sim, rng):
        flooder = self._flooder(sim, rng, volume=2500)
        flooder.start()
        seen = set()
        for _ in range(5):
            response = _getaddr_exchange(sim, flooder)
            seen |= {record.addr for record in response.addresses}
        assert len(seen) == 2500  # pool exhausted, then repeats

    def test_set_table_does_not_clear_pool(self, sim, rng):
        flooder = self._flooder(sim, rng, volume=100)
        flooder.start()
        _getaddr_exchange(sim, flooder)
        flooder.set_table([make_addr(50)])
        assert len(flooder.table) == 100

    def test_stop_does_not_clear_pool(self, sim, rng):
        flooder = self._flooder(sim, rng, volume=100)
        flooder.start()
        response = _getaddr_exchange(sim, flooder)
        flooder.stop()
        # The pool is the minted records themselves, stamped once.
        assert len(flooder.table) == 100
        assert list(map(id, flooder.table)) == list(map(id, response.addresses))


class TestFloodVolumeModel:
    def test_scale_applies(self, rng):
        model = FloodVolumeModel()
        full = [model.sample(random.Random(i)) for i in range(50)]
        scaled = [model.sample(random.Random(i), scale=0.1) for i in range(50)]
        for f, s in zip(full, scaled):
            # Same seed, scaled draw — modulo the absolute floor of 30.
            assert s == max(30, int(f * 0.1), int(model.floor * 0.1)) or abs(
                s - f * 0.1
            ) <= max(1, f * 0.02)

    def test_heavy_tail_exists(self):
        model = FloodVolumeModel()
        rng = random.Random(0)
        draws = [model.sample(rng) for _ in range(500)]
        # Log-normal pools: most modest, a skewed tail of big ones.
        assert max(draws) > 8 * model.median
        typical = sum(1 for v in draws if v < 3 * model.median)
        assert typical / len(draws) > 0.7

    def test_tiny_scale_stays_detectable(self):
        model = FloodVolumeModel()
        rng = random.Random(0)
        draws = [model.sample(rng, scale=0.001) for _ in range(100)]
        assert min(draws) >= 30


class TestPlantFlooders:
    def test_count_and_as_clustering(self):
        scenario = LongitudinalScenario(
            LongitudinalConfig(scale=0.002, snapshots=1, flooder_count=73)
        )
        flooders = scenario.flooders
        assert len(flooders) == 73
        in_3320 = [scenario.universe.asn_of(f.addr) == 3320 for f in flooders]
        # 43 placed there; the hosting distribution may add a few.
        assert all(in_3320[:43])
        assert 0.4 < sum(in_3320) / len(flooders) < 0.8  # paper: 59%

    @pytest.mark.parametrize(
        "count, split", [(0, ()), (1, (1,)), (5, (3, 2)), (73, (43, 30))]
    )
    def test_paper_cohort_keeps_its_as3320_share(self, count, split):
        plan = paper_flooders(count)
        assert tuple(spec.count for spec in plan.attackers) == split
        for spec in plan.attackers:
            assert (spec.kind, spec.tier) == ("addr_flooder", "reachable")
        if plan.attackers:
            assert plan.attackers[0].scope.asns == (3320,)
        if len(plan.attackers) == 2:
            assert plan.attackers[1].scope is None
