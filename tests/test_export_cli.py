"""Tests for CSV export and the command-line interface."""

from __future__ import annotations

import csv
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.core import export
from repro.core.churn_matrix import ChurnStats
from repro.core.malicious_detect import DetectionReport, MaliciousFinding
from repro.core.relay_experiments import RelayExperimentResult
from repro.core.routing import hosting_report
from repro.core.sync_experiments import SyncCampaignConfig, SyncCampaignResult
from repro.analysis.kde import GRID_POINTS, kde

from .conftest import make_addr


def read_csv(path: Path):
    with path.open() as handle:
        return list(csv.reader(handle))


class TestExport:
    def test_sync_samples(self, tmp_path):
        result = SyncCampaignResult(
            sync_samples=[70.0, 80.0],
            sync_departures_per_10min=4.0,
            total_departures=10,
            config=SyncCampaignConfig(),
        )
        path = export.export_sync_samples(result, tmp_path / "sync.csv", "2019")
        rows = read_csv(path)
        assert rows[0] == ["label", "sample_index", "sync_percent"]
        assert rows[1] == ["2019", "0", "70.0"]
        assert len(rows) == 3

    def test_density(self, tmp_path):
        density = kde([50.0, 60.0, 70.0])
        path = export.export_density(density, tmp_path / "kde.csv")
        rows = read_csv(path)
        assert rows[0] == ["x", "density"]
        assert len(rows) == GRID_POINTS + 1

    def test_churn_and_lifetimes(self, tmp_path):
        stats = ChurnStats(
            unique_nodes=3,
            always_on=1,
            mean_alive_per_snapshot=2.0,
            arrivals=[1, 0],
            departures=[0, 1],
            departure_rate=0.25,
            lifetimes=[100.0, 200.0],
            mean_lifetime=150.0,
            rejoining_nodes=0,
        )
        churn_path = export.export_churn(stats, tmp_path / "churn.csv")
        lifetimes_path = export.export_lifetimes(stats, tmp_path / "life.csv")
        assert read_csv(churn_path)[1] == ["0", "1", "0"]
        assert read_csv(lifetimes_path)[2] == ["1", "200.0"]

    def test_detection(self, tmp_path):
        report = DetectionReport(
            findings=[
                MaliciousFinding(
                    peer=make_addr(1),
                    unreachable_sent=5000,
                    unique_sent=1200,
                    addr_messages=5,
                    asn=3320,
                )
            ],
            min_addresses=1000,
        )
        path = export.export_detection(report, tmp_path / "flooders.csv")
        rows = read_csv(path)
        assert rows[1][1:] == ["5000", "1200", "5", "3320"]

    def test_hosting(self, tmp_path):
        report = hosting_report(
            "reachable",
            [make_addr(i) for i in range(10)],
            lambda addr: 10 if addr.group16 % 2 else 20,
        )
        path = export.export_hosting(report, tmp_path / "hosting.csv")
        rows = read_csv(path)
        assert rows[0] == ["rank", "asn", "nodes", "percent"]
        assert len(rows) == 3  # two ASes

    def test_relay_times(self, tmp_path):
        result = RelayExperimentResult(
            block_relay_times=[1.5],
            tx_relay_times=[0.2, 0.4],
            target_addr=make_addr(1),
            inbound_at_end=17,
            outbound_at_end=8,
        )
        path = export.export_relay_times(result, tmp_path / "relay.csv")
        rows = read_csv(path)
        assert rows[1] == ["block", "0", "1.5"]
        assert rows[3] == ["tx", "1", "0.4"]

    def test_creates_parent_directories(self, tmp_path):
        density = kde([1.0, 2.0])
        path = export.export_density(density, tmp_path / "a" / "b" / "kde.csv")
        assert path.exists()


class TestCli:
    def test_parser_has_all_commands(self):
        parser = build_parser()
        for command in ("campaign", "sync", "relay", "conn"):
            args = parser.parse_args([command])
            assert args.command == command

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    @pytest.mark.slow
    def test_campaign_command_runs(self, tmp_path, capsys):
        code = main(
            [
                "campaign",
                "--scale", "0.002",
                "--snapshots", "2",
                "--export", str(tmp_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Campaign" in out
        assert (tmp_path / "campaign_series.csv").exists()
        assert (tmp_path / "hosting_reachable.csv").exists()

    @pytest.mark.slow
    def test_conn_command_runs(self, capsys):
        code = main(["conn", "--nodes", "25", "--runs", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "connection success rate" in out
