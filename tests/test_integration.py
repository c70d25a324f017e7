"""End-to-end integration tests crossing every layer."""

from __future__ import annotations

import pytest

from repro.bitcoin import NodeConfig
from repro.core import (
    CampaignRunner,
    GetAddrConfig,
    GetAddrCrawler,
    VerProber,
    composition,
    detect_flooders,
)
from repro.core.pipeline import CRAWLER_ADDR
from repro.netmodel import (
    LongitudinalConfig,
    LongitudinalScenario,
    ProtocolConfig,
    ProtocolScenario,
)


@pytest.mark.slow
class TestCrawlAgainstFullNodes:
    """The Algorithm-1 crawler must work against real BitcoinNodes too,
    not just the lightweight AddrServers used in crawl campaigns."""

    def test_crawl_live_protocol_network(self):
        scenario = ProtocolScenario(
            ProtocolConfig(
                n_reachable=20,
                seed=31,
                mining=False,
                node_config=NodeConfig(serve_repeated_getaddr=True),
            )
        )
        scenario.start(warmup=600.0)
        crawler = GetAddrCrawler(
            scenario.sim, CRAWLER_ADDR, GetAddrConfig(max_rounds=10)
        )
        targets = [node.addr for node in scenario.nodes]
        result = crawler.run_to_completion(targets)
        assert len(result.connected_targets) >= 18
        reachable_known = set(targets)
        comp = composition(result, reachable_known)
        # Live tables carry the seeded 15/85-ish pollution.
        assert comp.unreachable_share > 0.5
        # Honest nodes advertise themselves.
        own_advertisers = sum(
            1 for h in result.harvests.values() if h.sent_own_addr
        )
        assert own_advertisers >= 15

    def test_prober_agrees_with_ground_truth(self):
        scenario = ProtocolScenario(
            ProtocolConfig(n_reachable=15, seed=32, mining=False)
        )
        scenario.start(warmup=300.0)
        responsive_truth = {
            record.addr for record in scenario.population.responsive
        }
        silent_truth = {record.addr for record in scenario.population.silent}
        sample = list(responsive_truth)[:40] + list(silent_truth)[:40]
        prober = VerProber(scenario.sim, CRAWLER_ADDR)
        result = prober.run_to_completion(sample)
        assert result.responsive == responsive_truth & set(sample)
        assert not (result.responsive & silent_truth)


@pytest.mark.slow
class TestDetectorAgainstLiveFlooder:
    def test_flooder_detected_in_live_crawl(self):
        from repro.adversary.behaviors import AddrFlooderNode

        scenario = ProtocolScenario(
            ProtocolConfig(
                n_reachable=15,
                seed=33,
                mining=False,
                node_config=NodeConfig(serve_repeated_getaddr=True),
            )
        )
        flooder = AddrFlooderNode(
            scenario.sim,
            scenario.universe.allocate_address(3320),
            population=scenario.population,
            flood_volume=3000,
        )
        scenario.nodes.append(flooder)
        scenario.start(warmup=600.0)
        flooder.start()
        scenario.sim.run_for(120.0)
        targets = [node.addr for node in scenario.nodes]
        crawler = GetAddrCrawler(
            scenario.sim, CRAWLER_ADDR, GetAddrConfig(max_rounds=20)
        )
        result = crawler.run_to_completion(targets)
        reachable_known = set(targets) - {flooder.addr}
        report = detect_flooders(
            result, reachable_known, min_addresses=500,
            asn_of=scenario.universe.asn_of,
        )
        flagged = {finding.peer for finding in report.findings}
        assert flooder.addr in flagged
        honest = set(targets) - {flooder.addr}
        assert not (flagged & honest)
        finding = next(f for f in report.findings if f.peer == flooder.addr)
        assert finding.asn == 3320


@pytest.mark.slow
class TestDeterministicReplays:
    def test_campaign_is_reproducible(self):
        def run():
            scenario = LongitudinalScenario(
                LongitudinalConfig(scale=0.002, snapshots=3, seed=55)
            )
            result = CampaignRunner(scenario).run()
            series = result.fig4_series()
            return (
                series["cumulative"],
                [len(s.connected) for s in result.snapshots],
            )

        assert run() == run()

    def test_protocol_scenario_is_reproducible(self):
        def run():
            scenario = ProtocolScenario(
                ProtocolConfig(n_reachable=12, seed=77, block_interval=120.0)
            )
            scenario.start(warmup=900.0)
            return (
                scenario.best_height,
                sorted(node.chain.height for node in scenario.nodes),
                scenario.sim.scheduler.fired,
            )

        assert run() == run()
