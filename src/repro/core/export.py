"""CSV export of experiment results.

Every figure's underlying data can be dumped to plain CSV for external
plotting (the library deliberately has no plotting dependency).  Files
are written with ``csv`` from the standard library; each ``export_*``
function returns the path it wrote.  The campaign series is also a
stored *view* of a run (:meth:`repro.store.campaign.CampaignPlan.views`),
so it has a ``render_*`` twin that returns the file's bytes.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path
from typing import Iterable, List, Sequence, Union

from ..analysis.kde import DensityEstimate
from .churn_matrix import ChurnStats
from .malicious_detect import DetectionReport
from .pipeline import CampaignResult
from .relay_experiments import RelayExperimentResult
from .routing import HostingReport
from .sync_experiments import SyncCampaignResult

PathLike = Union[str, Path]


def _render_rows(header: Sequence[str], rows: Iterable[Sequence]) -> bytes:
    """The CSV file's bytes: ``csv``'s default dialect (``\\r\\n`` line
    ends), UTF-8 whatever the locale — stored views are content-addressed."""
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer)
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue().encode("utf-8")


def _write_bytes(path: PathLike, data: bytes) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data)
    return path


def _write_rows(
    path: PathLike, header: Sequence[str], rows: Iterable[Sequence]
) -> Path:
    return _write_bytes(path, _render_rows(header, rows))


def export_sync_samples(
    result: SyncCampaignResult, path: PathLike, label: str = ""
) -> Path:
    """Fig. 1 samples: one row per Bitnodes-style sweep."""
    return _write_rows(
        path,
        ("label", "sample_index", "sync_percent"),
        (
            (label, index, value)
            for index, value in enumerate(result.sync_samples)
        ),
    )


def export_density(density: DensityEstimate, path: PathLike) -> Path:
    """A KDE curve: grid point and density value per row."""
    return _write_rows(
        path,
        ("x", "density"),
        zip(density.grid.tolist(), density.density.tolist()),
    )


def render_campaign_series(result: CampaignResult) -> bytes:
    """Figs. 3/4/5 series, one row per snapshot, as the CSV file's bytes."""
    fig4 = result.fig4_series()
    fig5 = result.fig5_series()
    rows = []
    for index, snap in enumerate(result.snapshots):
        stats = snap.source_stats
        rows.append(
            (
                index,
                snap.when,
                stats.bitnodes_total,
                stats.dns_total,
                stats.common_total,
                stats.provided,
                len(snap.connected),
                snap.dns_only_connected,
                fig4["per_snapshot"][index],
                fig4["cumulative"][index],
                fig5["per_snapshot"][index],
                fig5["cumulative"][index],
                round(snap.addr_composition.mean_reachable_share, 4),
            )
        )
    return _render_rows(
        (
            "snapshot",
            "time_s",
            "bitnodes",
            "dns",
            "common",
            "targets",
            "connected",
            "dns_only_connected",
            "unreachable",
            "unreachable_cumulative",
            "responsive",
            "responsive_cumulative",
            "addr_reachable_share",
        ),
        rows,
    )


def export_campaign_series(result: CampaignResult, path: PathLike) -> Path:
    """:func:`render_campaign_series` written to ``path``."""
    return _write_bytes(path, render_campaign_series(result))


def export_churn(stats: ChurnStats, path: PathLike) -> Path:
    """Fig. 13 series: arrivals and departures per snapshot transition."""
    return _write_rows(
        path,
        ("transition", "arrivals", "departures"),
        (
            (index, arrivals, departures)
            for index, (arrivals, departures) in enumerate(
                zip(stats.arrivals, stats.departures)
            )
        ),
    )


def export_lifetimes(stats: ChurnStats, path: PathLike) -> Path:
    """Fig. 12 derived data: per-node lifetime spans in seconds."""
    return _write_rows(
        path,
        ("node_index", "lifetime_s"),
        ((index, value) for index, value in enumerate(stats.lifetimes)),
    )


def export_detection(report: DetectionReport, path: PathLike) -> Path:
    """Fig. 8: one row per detected flooder."""
    return _write_rows(
        path,
        ("peer", "records_sent", "unique_sent", "addr_messages", "asn"),
        (
            (
                str(finding.peer),
                finding.unreachable_sent,
                finding.unique_sent,
                finding.addr_messages,
                finding.asn if finding.asn is not None else "",
            )
            for finding in report.findings
        ),
    )


#: ASes per exported Table I.
HOSTING_ROWS = 50


def export_hosting(report: HostingReport, path: PathLike) -> Path:
    """Table I: one row per AS, ranked."""
    return _write_rows(
        path,
        ("rank", "asn", "nodes", "percent"),
        (
            (row.rank, row.asn, row.count, round(row.percent, 4))
            for row in report.top(HOSTING_ROWS)
        ),
    )


def export_relay_times(
    result: RelayExperimentResult, path: PathLike
) -> Path:
    """Figs. 10/11: one row per relayed item."""
    rows: List[Sequence] = [
        ("block", index, round(value, 4))
        for index, value in enumerate(result.block_relay_times)
    ]
    rows.extend(
        ("tx", index, round(value, 4))
        for index, value in enumerate(result.tx_relay_times)
    )
    return _write_rows(path, ("kind", "item_index", "relaying_time_s"), rows)
