"""Tests for the address crawler (Fig. 2 left), Algorithm 1, Algorithm 2."""

from __future__ import annotations

import pytest

from repro.core.crawler import AddressCrawler
from repro.core.getaddr import GetAddrConfig, GetAddrCrawler
from repro.core.prober import ProbeConfig, VerProber
from repro.errors import ScenarioError
from repro.netmodel.addr_server import AddrServer
from repro.netmodel.seeds import AddressViews
from repro.simnet import ProbeBehavior
from repro.simnet.addresses import NetAddr, stamp

from .conftest import answer_with, make_addr

CRAWLER = make_addr(60000)


class TestAddressCrawler:
    def _views(self):
        bitnodes = {make_addr(i) for i in range(10)}
        dns = {make_addr(i) for i in range(5, 13)}
        return AddressViews(when=0.0, bitnodes=bitnodes, dns=dns, alive=bitnodes)

    def test_merges_sources(self):
        crawler = AddressCrawler(lambda addr: False)
        crawl_input = crawler.collect(self._views())
        assert crawl_input.stats.bitnodes_total == 10
        assert crawl_input.stats.dns_total == 8
        assert crawl_input.stats.common_total == 5
        assert crawl_input.stats.union_total == 13
        assert len(crawl_input.targets) == 13

    def test_blacklist_excluded(self):
        banned = {make_addr(0), make_addr(6)}
        crawler = AddressCrawler(lambda addr: addr in banned)
        crawl_input = crawler.collect(self._views())
        assert crawl_input.stats.excluded_bitnodes == 2
        assert crawl_input.stats.excluded_dns == 1
        assert crawl_input.stats.excluded_common == 1
        assert crawl_input.stats.provided == 11
        assert banned.isdisjoint(crawl_input.targets)

    def test_known_source_addrs(self):
        crawler = AddressCrawler(lambda addr: False)
        crawl_input = crawler.collect(self._views())
        assert len(crawl_input.known_source_addrs) == 13


class TestGetAddrCrawler:
    def _server(self, sim, rng, index, table_size=60):
        table = stamp(
            (make_addr(1000 + index * 1000 + i) for i in range(table_size)), 0.0
        )
        server = AddrServer(sim, make_addr(index), rng, table=table)
        server.start()
        return server

    def test_harvests_tables(self, sim, rng):
        servers = [self._server(sim, rng, i + 1) for i in range(4)]
        crawler = GetAddrCrawler(sim, CRAWLER, GetAddrConfig(max_rounds=30))
        result = crawler.run_to_completion([s.addr for s in servers])
        assert len(result.connected_targets) == 4
        # The adaptive crawl should harvest most of each table.
        for server in servers:
            harvest = result.harvests[server.addr]
            assert harvest.connected
            table = {record.addr for record in server.table}
            coverage = len(harvest.addresses & table) / len(table)
            assert coverage > 0.4
            assert harvest.sent_own_addr

    def test_dead_targets_counted_unconnected(self, sim, rng):
        server = self._server(sim, rng, 1)
        dead = make_addr(999)
        crawler = GetAddrCrawler(sim, CRAWLER)
        result = crawler.run_to_completion([server.addr, dead])
        assert result.harvests[dead].connected is False
        assert len(result.connected_targets) == 1

    def test_unreachable_filtering(self, sim, rng):
        server = self._server(sim, rng, 1)
        crawler = GetAddrCrawler(sim, CRAWLER)
        result = crawler.run_to_completion([server.addr])
        reachable_known = {server.addr}
        # The pipeline's filtering step (CampaignRunner.run_snapshot).
        unreachable = result.all_addresses - reachable_known
        assert server.addr not in unreachable
        assert unreachable  # the table contents are not source-listed

    def test_paper_stop_rule_terminates_on_full_table(self, sim, rng):
        # A tiny table fits in one response: round 2 repeats → stop.
        server = self._server(sim, rng, 1, table_size=5)
        crawler = GetAddrCrawler(
            sim, CRAWLER, GetAddrConfig(stop_rule="paper", max_rounds=50)
        )
        result = crawler.run_to_completion([server.addr])
        harvest = result.harvests[server.addr]
        assert harvest.rounds <= 5

    def test_max_rounds_bounds_work(self, sim, rng):
        server = self._server(sim, rng, 1, table_size=500)
        crawler = GetAddrCrawler(
            sim, CRAWLER, GetAddrConfig(max_rounds=3, adaptive_threshold=0.0)
        )
        result = crawler.run_to_completion([server.addr])
        assert result.harvests[server.addr].rounds <= 3

    def test_concurrency_bounded(self, sim, rng):
        servers = [self._server(sim, rng, i + 1) for i in range(10)]
        crawler = GetAddrCrawler(sim, CRAWLER, GetAddrConfig(concurrency=2))
        result = crawler.run_to_completion([s.addr for s in servers])
        assert len(result.connected_targets) == 10

    def test_empty_target_list(self, sim):
        crawler = GetAddrCrawler(sim, CRAWLER)
        result = crawler.run_to_completion([])
        assert crawler.done
        assert result.harvests == {}

    def test_an_aborted_crawl_serves_no_getaddr_after_it_returns(self, sim, rng):
        # 200 servers of 3,000 records: at 0.4 s the crawl is mid-way,
        # with sessions open and connects in flight.
        servers = [
            AddrServer(
                sim,
                make_addr(i + 1),
                rng,
                table=stamp(
                    (NetAddr(ip=0x0A000000 + i * 3000 + j) for j in range(3000)),
                    0.0,
                ),
            )
            for i in range(200)
        ]
        for server in servers:
            server.start()
        crawler = GetAddrCrawler(sim, CRAWLER)
        result = crawler.run_to_completion(
            [s.addr for s in servers], max_seconds=0.4
        )
        assert crawler.aborted and crawler.done
        sent = sum(h.rounds for h in result.harvests.values())
        measured = {
            addr: (h.connected, h.sessions, h.rounds, frozenset(h.addresses))
            for addr, h in result.harvests.items()
        }
        sim.run_for(60.0)
        # GETADDRs already on the wire at the deadline may still reach an
        # open socket; no new session asks for more.  Before the crawler
        # and prober shared one driver, 268 more were served here after
        # the crawl had returned.
        assert sum(s.getaddr_served for s in servers) <= sent
        assert not crawler._sessions
        assert {
            addr: (h.connected, h.sessions, h.rounds, frozenset(h.addresses))
            for addr, h in result.harvests.items()
        } == measured

    def test_invalid_config(self):
        with pytest.raises(ScenarioError):
            GetAddrConfig(stop_rule="bogus").validate()
        with pytest.raises(ScenarioError):
            GetAddrConfig(concurrency=0).validate()


class TestVerProber:
    def test_classifies_behaviours(self, sim):
        fin = [make_addr(i) for i in range(1, 6)]
        rst = [make_addr(i) for i in range(6, 9)]
        silent = [make_addr(i) for i in range(9, 12)]
        for addr in fin:
            answer_with(sim, addr, ProbeBehavior.FIN)
        for addr in rst:
            answer_with(sim, addr, ProbeBehavior.RST)
        prober = VerProber(sim, CRAWLER, ProbeConfig(concurrency=4))
        result = prober.run_to_completion(fin + rst + silent)
        assert result.responsive == set(fin)
        assert result.rst == set(rst)
        assert result.silent == set(silent)
        assert result.probed == 11
        assert result.responsive_share == pytest.approx(5 / 11)

    def test_reachable_targets_flagged_bitcoin(self, sim, rng):
        server = AddrServer(sim, make_addr(1), rng, table=[])
        server.start()
        prober = VerProber(sim, CRAWLER)
        result = prober.run_to_completion([server.addr])
        assert result.bitcoin == {server.addr}

    def test_an_aborted_probe_pass_result_stays_as_returned(self, sim):
        targets = [make_addr(i) for i in range(1, 3001)]
        for addr in targets:
            answer_with(sim, addr, ProbeBehavior.FIN)
        prober = VerProber(sim, CRAWLER)
        result = prober.run_to_completion(targets, max_seconds=0.05)
        assert prober.aborted and prober.done
        returned = (set(result.responsive), result.probed)
        assert 0 < returned[1] < len(targets)
        # Its late outcomes would land in a new pass.
        with pytest.raises(ScenarioError):
            prober.probe_all(targets)
        sim.run_for(60.0)
        # Before the shared driver the pass went on filling it: 25
        # responsive at return, 3,000 a minute later.
        assert (result.responsive, result.probed) == returned
        assert prober.run_to_completion(targets[:10]).probed == 10

    def test_empty_targets(self, sim):
        prober = VerProber(sim, CRAWLER)
        result = prober.run_to_completion([])
        assert result.probed == 0
        assert result.responsive_share == 0.0

    def test_invalid_config(self):
        with pytest.raises(ScenarioError):
            ProbeConfig(concurrency=0).validate()
        with pytest.raises(ScenarioError):
            ProbeConfig(timeout=0).validate()
