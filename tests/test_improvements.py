"""Integration tests for the §V Bitcoin Core refinements.

Each policy is exercised against the baseline in a controlled world to
verify the *mechanism* improves what the paper claims it improves.  The
full quantitative ablation is the ``improvements.*`` rows of the accuracy
table (``benchmarks/accuracy.py``).
"""

from __future__ import annotations

import pytest

from repro.bitcoin import NodeConfig, PolicyConfig
from repro.bitcoin.config import ADDRMAN_HORIZON_DAYS
from repro.core import run_connection_success
from repro.netmodel import ProtocolConfig, ProtocolScenario
from repro.units import DAYS

from .conftest import make_addr, make_node


class TestPolicyConfig:
    def test_defaults_are_baseline(self):
        policy = PolicyConfig()
        assert policy.label() == "baseline"
        assert policy.tried_horizon_days == ADDRMAN_HORIZON_DAYS

    def test_improved_bundle(self):
        policy = PolicyConfig.improved()
        assert policy.addr_from_tried_only
        assert policy.tried_horizon_days == 17.0
        assert policy.prioritize_block_relay
        assert policy.label() == "tried-only+17d+block-prio"

    def test_partial_labels(self):
        assert PolicyConfig(
            params={"addr_from_tried_only": True}
        ).label() == "tried-only"
        assert PolicyConfig(
            params={"tried_horizon_days": 17.0}
        ).label() == "17d"


class TestTriedOnlyAddrPolicy:
    def _world(self, sim, policy):
        """An honest server with a polluted new table + a fresh client."""
        server = make_node(
            sim, 1, NodeConfig(policies=policy, serve_repeated_getaddr=True)
        )
        # Pollute the server's new table with dead addresses; its tried
        # table gains entries only through real connections.
        server.bootstrap([make_addr(i + 100) for i in range(80)])
        server.start()
        helper = make_node(sim, 2)
        helper.bootstrap([server.addr])
        helper.start()
        sim.run_for(60.0)  # helper connects; server promotes it to tried
        client = make_node(sim, 3)
        client.bootstrap([server.addr])
        client.start()
        sim.run_for(60.0)
        return server, client

    def test_baseline_gossips_pollution(self, sim):
        _server, client = self._world(sim, PolicyConfig())
        polluted = sum(
            1
            for index in range(80)
            if make_addr(index + 100) in client.addrman
        )
        assert polluted > 0

    def test_tried_only_gossips_clean(self, sim):
        server, client = self._world(
            sim, PolicyConfig(params={"addr_from_tried_only": True})
        )
        polluted = sum(
            1
            for index in range(80)
            if make_addr(index + 100) in client.addrman
        )
        assert polluted == 0
        # But real (tried) addresses still flow.
        learned = [
            addr
            for addr in client.addrman.all_addresses()
            if addr not in (server.addr,)
        ]
        assert learned  # the helper's address arrived


class TestHorizonPolicy:
    def test_17d_horizon_evicts_departed_sooner(self, sim):
        short = make_node(
            sim,
            1,
            NodeConfig(
                policies=PolicyConfig(params={"tried_horizon_days": 17.0})
            ),
        )
        long = make_node(sim, 2)  # 30-day baseline
        stale = make_addr(50)
        for node in (short, long):
            node.addrman.add(stale, now=0.0, timestamp=0.0)
        now = 20 * DAYS
        assert short.addrman.get_addr(now=now) == []
        assert [r.addr for r in long.addrman.get_addr(now=now)] == [stale]


class TestImprovedPoliciesEndToEnd:
    @pytest.mark.slow
    def test_improved_policies_raise_connection_success(self):
        """tried-only gossip should lift the §IV-B success rate."""

        def run(policy):
            scenario = ProtocolScenario(
                ProtocolConfig(
                    n_reachable=40,
                    seed=23,
                    mining=False,
                    node_config=NodeConfig(policies=policy),
                )
            )
            scenario.start(warmup=1200.0)
            observer_config = NodeConfig(
                policies=policy, track_connection_attempts=True
            )
            result = run_connection_success(
                scenario, runs=3, observer_config=observer_config
            )
            return result.overall_rate

        baseline = run(PolicyConfig())
        improved = run(PolicyConfig.improved())
        assert improved > baseline
