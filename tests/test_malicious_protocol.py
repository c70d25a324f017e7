"""Tests for the protocol-mode malicious flooder node
(``repro.adversary.behaviors.AddrFlooderNode``)."""

from __future__ import annotations

import pytest

from repro.adversary.behaviors import AddrFlooderNode
from repro.bitcoin import NodeConfig
from repro.netmodel.asmap import ASUniverse
from repro.netmodel.population import NodeClass, Population, PopulationConfig

from .conftest import make_addr, make_node


@pytest.fixture
def world(sim, rng):
    universe = ASUniverse(rng)
    population = Population(rng, universe, PopulationConfig(scale=0.002))
    return universe, population


def _flooder(sim, population, volume=5000, interval=10.0):
    flooder = AddrFlooderNode(
        sim,
        make_addr(500),
        population=population,
        flood_volume=volume,
        flood_interval=interval,
    )
    flooder.start()
    return flooder


class TestMaliciousBitcoinNode:
    def test_getaddr_response_is_all_fake(self, sim, world):
        _universe, population = world
        flooder = _flooder(sim, population)
        victim = make_node(sim, 1)
        victim.bootstrap([flooder.addr])
        victim.start()
        sim.run_for(60.0)
        fakes = sum(
            1
            for addr in victim.addrman.all_addresses()
            if population.classify(addr) is NodeClass.FAKE
        )
        assert fakes > 50
        # The flooder never advertises itself in ADDR payloads; the victim
        # knows it only from its own bootstrap entry.
        info = victim.addrman.info(flooder.addr)
        assert info is not None  # bootstrap entry, promoted on connect

    def test_unsolicited_floods_push_fakes(self, sim, world):
        _universe, population = world
        flooder = _flooder(sim, population, interval=5.0)
        victim = make_node(sim, 1, NodeConfig(getaddr_on_connect=False))
        victim.bootstrap([flooder.addr])
        victim.start()
        sim.run_for(120.0)
        assert flooder.addrs_flooded > 0
        fakes = sum(
            1
            for addr in victim.addrman.all_addresses()
            if population.classify(addr) is NodeClass.FAKE
        )
        assert fakes > 10

    def test_flood_pool_bounded_by_volume(self, sim, world):
        _universe, population = world
        flooder = _flooder(sim, population, volume=50, interval=2.0)
        victim = make_node(sim, 1)
        victim.bootstrap([flooder.addr])
        victim.start()
        sim.run_for(300.0)
        assert len(flooder._flood_pool) <= 50  # noqa: SLF001

    def test_pollution_degrades_victim_success_rate(self, sim, world):
        """The attack's point: fake-filled tables make attempts fail."""
        _universe, population = world
        flooder = _flooder(sim, population, volume=2000, interval=3.0)
        honest = make_node(sim, 2)
        honest.start()
        victim = make_node(
            sim, 1, NodeConfig(track_connection_attempts=True)
        )
        victim.bootstrap([flooder.addr, honest.addr])
        victim.start()
        sim.run_for(600.0)
        rate = victim.connection_success_rate()
        assert rate is not None
        assert rate < 0.5

    def test_stop_cancels_flood_task(self, sim, world):
        _universe, population = world
        flooder = _flooder(sim, population, interval=5.0)
        sim.run_for(20.0)
        flooder.stop()
        flooded_before = flooder.addrs_flooded
        sim.run_for(60.0)
        assert flooder.addrs_flooded == flooded_before
