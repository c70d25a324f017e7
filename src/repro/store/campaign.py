"""The Fig. 2 crawl campaign as a stored plan.

:class:`CampaignPlan` describes a
:class:`~repro.core.pipeline.CampaignRunner` campaign to
:func:`~repro.store.plan.run_stored`: one unit per snapshot, and the
runner itself as *carried state*.  It is the only state-carrying plan —
a snapshot continues a live simulation (event queue, clock, every RNG
stream position), which no list of earlier outputs can rebuild — so
after each snapshot but the last the whole runner is checkpointed
beside the snapshot's own result blob, and a resumed campaign is
bit-identical to an uninterrupted one (pinned by test).  The runner
holds live state only: RNG streams are the drawn streams only, each
pickled as its Mersenne-Twister word array
(:class:`~repro.simnet.rand.Stream`) — a server takes its stream on its
first GETADDR — and no served table, since a snapshot drops its tables
when its crawl ends and the next one redraws them.  The world's
build-time tables pickle as packed columns: the population as an
address list, an ``array("I")`` of ASNs and a ``bytes`` of critical
flags per class, each presence timeline as its address list, interval
counts and one ``array("d")`` of bounds, and the AS universe's hosting
tables as ASN and weight arrays.  So the pickler's memo, most of a
state write's peak, holds no per-record, per-interval or per-AS object
(after two units at scale 0.02: 117,144 → 52,499 objects, blob 2.44 →
1.85 MB, traced write peak 8.7 → 5.5 MB).  The addresses stay the
live, shared ``NetAddr`` objects: the memo aliases each one between the
population, the timelines, the servers, the light cloud and the
result, and a resumed runner shares it as a fresh one does (addresses
rebuilt from ip/port columns moved the result digest).  The last
snapshot's write is the completion write: a complete campaign keeps its
snapshots, its result and its views, and no runner.

The run key is a content hash of (scenario config, campaign config,
seed, snapshot count); re-running a completed key loads the stored
result without simulating anything.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Union

from ..core.export import render_campaign_series
from ..core.pipeline import (
    CampaignConfig,
    CampaignResult,
    CampaignRunner,
    SnapshotResult,
)
from ..errors import ConfigurationError
from ..netmodel.scenario import LongitudinalConfig, LongitudinalScenario
from .manifest import canonical_json, config_to_dict
from .plan import StoredPlan, StoredRun, run_stored
from .runstore import RunStore


class CampaignPlan(StoredPlan):
    """``snapshots`` (default: all of ``config``'s) daily crawl passes."""

    kind = "campaign"
    unit_kind = "snapshot-result"
    state_kind = "campaign-runner"
    result_kind = "campaign-result"
    result_type = CampaignResult

    def __init__(
        self,
        config: LongitudinalConfig,
        campaign_config: Optional[CampaignConfig] = None,
        snapshots: Optional[int] = None,
    ) -> None:
        self.scenario_config = config
        self.campaign_config = (
            campaign_config if campaign_config is not None else CampaignConfig()
        )
        # The crawler and prober would refuse a bad config mid-run.
        self.campaign_config.validate()
        self.seed = config.seed
        self.units = snapshots if snapshots is not None else config.snapshots
        if not 1 <= self.units <= config.snapshots:
            # The scenario schedules only its own snapshots; a longer
            # plan would fail at unit ``config.snapshots``, mid-run.
            raise ConfigurationError(
                f"snapshots must be between 1 and the scenario's "
                f"{config.snapshots}, got {self.units}"
            )

    def config(self) -> Dict[str, Any]:
        return {
            "scenario": config_to_dict(self.scenario_config),
            "campaign": config_to_dict(self.campaign_config),
        }

    def start(self) -> CampaignRunner:
        return CampaignRunner(
            LongitudinalScenario(self.scenario_config), self.campaign_config
        )

    def run_unit(self, state: CampaignRunner, index: int) -> SnapshotResult:
        return state.run_snapshot(index, state.scenario.snapshot_times[index])

    def record(self, index: int, out: SnapshotResult) -> Dict[str, Any]:
        return {"when": out.when, "truncated": out.truncated}

    def finish(
        self, state: CampaignRunner, outs: List[SnapshotResult]
    ) -> CampaignResult:
        return state.result

    @classmethod
    def views(cls, result: CampaignResult) -> Dict[str, bytes]:
        """The Figs. 3-5 series a reader is shown: ``summary.json`` (the
        result-derived fields of ``GET /v1/runs/{id}/result``) and
        ``campaign_series.csv`` (what ``--export`` writes)."""
        summary = {
            "fig4": result.fig4_series(),
            "fig5": result.fig5_series(),
            "mean_addr_reachable_share": result.mean_addr_reachable_share(),
            "cumulative_unreachable": len(result.cumulative_unreachable),
        }
        return {
            "summary.json": canonical_json(summary).encode("ascii"),
            "campaign_series.csv": render_campaign_series(result),
        }


def run_stored_campaign(
    store: Union[RunStore, str],
    config: LongitudinalConfig,
    campaign_config: Optional[CampaignConfig] = None,
    snapshots: Optional[int] = None,
    resume: Optional[str] = None,
    force: bool = False,
) -> StoredRun:
    """Run (or resume, or fetch) a crawl campaign through the store
    (see :func:`~repro.store.plan.run_stored`)."""
    return run_stored(
        store, CampaignPlan(config, campaign_config, snapshots), resume, force
    )
