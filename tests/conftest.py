"""Shared fixtures: simulators, small worlds, helper factories."""

from __future__ import annotations

import random
import tracemalloc

import pytest

from repro.bitcoin import BitcoinNode, LightNode, NodeConfig
from repro.simnet import NetAddr, ProbeBehavior, Simulator


@pytest.fixture
def sim() -> Simulator:
    """A fresh deterministic simulator."""
    return Simulator(seed=1234)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(99)


def make_addr(index: int, port: int = 8333) -> NetAddr:
    """Distinct addresses across /16 groups (index < 65536)."""
    return NetAddr(ip=((index + 1) << 16) | 0x0101, port=port)


def traced_peak(call):
    """``(call(), peak bytes tracemalloc traced while it ran)``."""
    tracemalloc.start()
    try:
        value = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return value, peak


def answer_with(
    sim: Simulator, addr: NetAddr, behavior: ProbeBehavior
) -> LightNode:
    """Make the non-listening ``addr`` answer connects and probes with
    ``behavior``: a started light-tier endpoint, as in the cloud."""
    node = LightNode(sim, addr, behavior=behavior)
    node.start()
    return node


@pytest.fixture
def addr_factory():
    return make_addr


def make_node(
    sim: Simulator, index: int, config: NodeConfig = None
) -> BitcoinNode:
    return BitcoinNode(sim, make_addr(index), config=config)


@pytest.fixture
def node_factory():
    return make_node


def build_small_network(sim: Simulator, count: int, config_factory=None):
    """``count`` reachable nodes, mutually bootstrapped and started."""
    nodes = []
    for index in range(count):
        config = config_factory() if config_factory is not None else None
        nodes.append(make_node(sim, index, config))
    addrs = [node.addr for node in nodes]
    for node in nodes:
        node.bootstrap(addrs)
        node.start()
    return nodes


@pytest.fixture
def small_network_factory():
    return build_small_network
