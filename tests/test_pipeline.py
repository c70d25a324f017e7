"""Integration tests for the Fig. 2 campaign pipeline."""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.core import CampaignConfig, CampaignRunner, pipeline
from repro.netmodel import LongitudinalConfig, LongitudinalScenario, NodeClass


@pytest.fixture(scope="module")
def campaign():
    scenario = LongitudinalScenario(
        LongitudinalConfig(scale=0.004, snapshots=6, seed=17)
    )
    runner = CampaignRunner(scenario)
    result = runner.run()
    return scenario, result


class TestCampaignShape:
    def test_all_snapshots_ran(self, campaign):
        _scenario, result = campaign
        assert len(result.snapshots) == 6

    def test_fig3_counts_consistent(self, campaign):
        _scenario, result = campaign
        for row in result.fig3_rows():
            assert row["common"] <= min(row["bitnodes"], row["dns"])
            assert row["excluded_common"] <= min(
                row["excluded_bitnodes"], row["excluded_dns"]
            )
            assert row["connected"] > 0
            assert row["dns_only_connected"] <= row["connected"]

    def test_fig4_cumulative_monotone(self, campaign):
        _scenario, result = campaign
        series = result.fig4_series()
        cumulative = series["cumulative"]
        assert all(a <= b for a, b in zip(cumulative, cumulative[1:]))
        assert all(
            per <= cum for per, cum in zip(series["per_snapshot"], cumulative)
        )
        # New addresses keep appearing (the Fig. 4 gap).
        assert cumulative[-1] > series["per_snapshot"][0]

    def test_fig5_responsive_subset_of_unreachable(self, campaign):
        _scenario, result = campaign
        assert result.cumulative_responsive <= result.cumulative_unreachable

    def test_responsive_share_in_paper_ballpark(self, campaign):
        _scenario, result = campaign
        share = len(result.cumulative_responsive) / len(
            result.cumulative_unreachable
        )
        # Paper: 23.5% cumulative; generous band for a tiny scale.
        assert 0.10 < share < 0.45

    def test_unreachable_set_mostly_pure(self, campaign):
        """The measured unreachable set is view-filtered, not ground truth.

        Reachable nodes missed by both Bitnodes and the DNS database are
        (mis)classified unreachable — the paper acknowledges exactly this
        impurity (§IV-A: unreachable addresses "could be reachable or
        responsive nodes that are not running Bitcoin anymore").  The
        impurity must stay a small minority.
        """
        scenario, result = campaign
        mislabeled = sum(
            1
            for addr in result.cumulative_unreachable
            if scenario.population.classify(addr) is NodeClass.REACHABLE
        )
        assert mislabeled / len(result.cumulative_unreachable) < 0.10

    def test_addr_composition_dominated_by_unreachable(self, campaign):
        _scenario, result = campaign
        share = result.mean_addr_reachable_share()
        assert 0.05 < share < 0.35  # paper: 14.9%

    def test_flooders_detected(self, campaign):
        scenario, result = campaign
        report = result.merged_detection(scenario.universe.asn_of)
        assert report.count == len(scenario.flooders)
        detected = {finding.peer for finding in report.findings}
        assert detected == {flooder.addr for flooder in scenario.flooders}

    def test_honest_servers_not_flagged(self, campaign):
        scenario, result = campaign
        report = result.merged_detection()
        flagged = {finding.peer for finding in report.findings}
        honest = set(scenario.servers)
        assert not (flagged & honest)

    def test_churn_matrix_builds(self, campaign):
        _scenario, result = campaign
        stats = result.churn_stats()
        assert stats.unique_nodes > 0
        assert stats.mean_alive_per_snapshot > 0
        assert len(stats.arrivals) == 5

    def test_hosting_reports_cover_three_classes(self, campaign):
        scenario, result = campaign
        reports = result.hosting_reports(scenario.universe.asn_of)
        assert set(reports) == {"reachable", "unreachable", "responsive"}
        for report in reports.values():
            assert report.total_nodes > 0
            assert report.distinct_ases > 1


class TestCampaignConfig:
    def test_scaled_threshold(self):
        assert pipeline.scaled_threshold(1.0) == 1000
        assert pipeline.scaled_threshold(0.01) == 10
        assert pipeline.scaled_threshold(0.001) == 10  # floor

    def test_probe_can_be_disabled(self):
        scenario = LongitudinalScenario(
            LongitudinalConfig(scale=0.002, snapshots=2, seed=18)
        )
        config = CampaignConfig(probe_enabled=False)
        result = CampaignRunner(scenario, config).run()
        assert all(not snap.responsive for snap in result.snapshots)

    def test_partial_run(self):
        scenario = LongitudinalScenario(
            LongitudinalConfig(scale=0.002, snapshots=5, seed=19)
        )
        result = CampaignRunner(scenario).run(snapshots=2)
        assert len(result.snapshots) == 2


def test_campaign_leaves_no_cyclic_garbage(monkeypatch):
    """Each snapshot's crawler (with its harvest) and prober must die by
    reference count when the snapshot ends.  A closed connection left
    linked is a cycle through the crawler; the run would then lean on
    the cycle collector to bound its memory, and the collector on the
    allocation rate — which is how making ADDR records cheaper once
    *raised* peak RSS by a third."""
    made = []

    def tracked(cls):
        def make(*args, **kwargs):
            obj = cls(*args, **kwargs)
            made.append(weakref.ref(obj))
            return obj

        return make

    monkeypatch.setattr(pipeline, "GetAddrCrawler", tracked(pipeline.GetAddrCrawler))
    monkeypatch.setattr(pipeline, "VerProber", tracked(pipeline.VerProber))
    gc.collect()
    gc.disable()
    try:
        scenario = LongitudinalScenario(
            LongitudinalConfig(scale=0.004, snapshots=3, seed=9)
        )
        runner = CampaignRunner(scenario)  # kept: it ends the run alive
        assert len(runner.run().snapshots) == 3 and len(made) == 6
        assert [ref() for ref in made] == [None] * 6
        assert gc.collect() == 0
    finally:
        gc.enable()
