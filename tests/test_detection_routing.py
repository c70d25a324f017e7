"""Tests for ADDR composition, the malicious-peer detector, and routing."""

from __future__ import annotations

import pytest

from repro.core.addr_analysis import classify_harvest, composition
from repro.core.getaddr import CrawlResult, PeerHarvest
from repro.core.malicious_detect import detect_flooders, merge_reports
from repro.core.routing import (
    common_top_ases,
    hosting_report,
    plan_hijack,
    target_shifts,
)
from repro.errors import AnalysisError

from .conftest import make_addr


def harvest(target_index, addr_indices, connected=True, own=False):
    target = make_addr(target_index)
    addrs = {make_addr(i) for i in addr_indices}
    if own:
        addrs.add(target)
    record = PeerHarvest(
        target=target,
        connected=connected,
        rounds=1,
        addr_messages=1,
        total_records=len(addrs),
        addresses=addrs,
        sent_own_addr=own,
    )
    return record


def crawl_result(*harvests):
    result = CrawlResult()
    for record in harvests:
        result.harvests[record.target] = record
    return result


class TestComposition:
    def test_shares(self):
        reachable_known = {make_addr(i) for i in range(5)}
        result = crawl_result(
            harvest(100, range(10)),  # 5 reachable + 5 unreachable
        )
        comp = composition(result, reachable_known)
        assert comp.total_unique == 10
        assert comp.reachable_share == pytest.approx(0.5)
        assert comp.unreachable_share == pytest.approx(0.5)
        assert comp.mean_reachable_share == pytest.approx(0.5)

    def test_empty_result(self):
        comp = composition(crawl_result(), set())
        assert comp.total_unique == 0
        assert comp.unreachable_share == 0.0

    def test_classify_harvest(self):
        record = harvest(100, range(4))
        counts = classify_harvest(record, {make_addr(0)})
        assert counts == {"reachable": 1, "unreachable": 3}


class TestDetectFlooders:
    def test_flooder_detected(self):
        reachable_known = {make_addr(i) for i in range(10)}
        flooder = harvest(100, range(2000, 3200))  # all unreachable, >1000
        honest = harvest(101, range(5), own=True)
        report = detect_flooders(
            crawl_result(flooder, honest), reachable_known | {make_addr(101)}
        )
        assert report.count == 1
        assert report.findings[0].peer == make_addr(100)
        assert report.findings[0].unreachable_sent == 1200

    def test_honest_node_with_reachable_addr_not_flagged(self):
        reachable_known = {make_addr(0)}
        peer = harvest(100, list(range(2000, 3200)) + [0])
        report = detect_flooders(crawl_result(peer), reachable_known)
        assert report.count == 0

    def test_below_threshold_not_flagged(self):
        report = detect_flooders(
            crawl_result(harvest(100, range(2000, 2100))), set(), min_addresses=1000
        )
        assert report.count == 0

    def test_threshold_configurable(self):
        report = detect_flooders(
            crawl_result(harvest(100, range(2000, 2100))), set(), min_addresses=50
        )
        assert report.count == 1

    def test_unconnected_targets_skipped(self):
        record = harvest(100, range(2000, 3200), connected=False)
        report = detect_flooders(crawl_result(record), set())
        assert report.count == 0

    def test_count_over_and_max(self):
        reachable_known = set()
        big = harvest(100, range(10_000, 15_000))
        small = harvest(101, range(20_000, 21_100))
        report = detect_flooders(crawl_result(big, small), reachable_known)
        assert report.count == 2
        assert report.count_over(2000) == 1
        assert report.max_flood == 5000
        assert report.flood_volumes() == [5000, 1100]

    def test_asn_attribution(self):
        report = detect_flooders(
            crawl_result(harvest(100, range(2000, 3200))),
            set(),
            asn_of=lambda addr: 3320,
        )
        assert report.findings[0].asn == 3320
        assert report.as_share_by_asn() == {3320: 1.0}

    def test_merge_accumulates_records_keeps_max_unique(self):
        first = detect_flooders(
            crawl_result(harvest(100, range(2000, 3200))), set()
        )
        second = detect_flooders(
            crawl_result(harvest(100, range(2000, 3500))), set()
        )
        merged = merge_reports([first, second])
        assert merged.count == 1
        # Records sum across snapshots (1200 + 1500) ...
        assert merged.findings[0].unreachable_sent == 2700
        # ... while the unique count takes the larger session.
        assert merged.findings[0].unique_sent == 1500


class TestRouting:
    def _report(self):
        addrs = []
        asn_map = {}
        index = 0
        for asn, count in [(10, 50), (20, 30), (30, 15), (40, 5)]:
            for _ in range(count):
                addr = make_addr(index)
                asn_map[addr] = asn
                addrs.append(addr)
                index += 1
        return hosting_report("test", addrs, asn_map.get), asn_map

    def test_top_ranks(self):
        report, _ = self._report()
        top = report.top(2)
        assert [(row.asn, row.count) for row in top] == [(10, 50), (20, 30)]
        assert top[0].percent == pytest.approx(50.0)

    def test_k_to_cover_half(self):
        report, _ = self._report()
        assert report.k_to_cover_half() == 1  # AS10 alone hosts 50%

    def test_rank_of(self):
        report, _ = self._report()
        assert report.rank_of(30) == 3
        assert report.rank_of(999) is None

    def test_unmapped_addresses_skipped(self):
        report = hosting_report(
            "test", [make_addr(1), make_addr(2)], lambda a: 5 if a == make_addr(1) else None
        )
        assert report.total_nodes == 1

    def test_empty_raises(self):
        with pytest.raises(AnalysisError):
            hosting_report("test", [], lambda a: None)

    def test_plan_hijack(self):
        report, _ = self._report()
        plan = plan_hijack(report, target_share=0.5)
        assert plan.hijacked_ases == (10,)
        assert plan.isolated_share >= 0.5

    def test_plan_hijack_greedy_order(self):
        report, _ = self._report()
        plan = plan_hijack(report, target_share=0.9)
        assert plan.hijacked_ases == (10, 20, 30)

    def test_common_top_ases(self):
        report_a, _ = self._report()
        addrs = [make_addr(i + 500) for i in range(10)]
        report_b = hosting_report("other", addrs, lambda a: 10)
        common = common_top_ases([report_a, report_b], k=3)
        assert common == {10}

    def test_target_shifts_finds_rank_moves(self):
        # AS 99 is big for responsive but absent for reachable.
        reachable, _ = self._report()
        responsive = hosting_report(
            "responsive",
            [make_addr(i + 700) for i in range(20)],
            lambda a: 99,
        )
        shifts = target_shifts(reachable, responsive, k=1)
        assert shifts[0].asn == 99
        assert shifts[0].rank_by_responsive == 1
        assert shifts[0].rank_by_reachable is None
