"""Campaign submissions: config JSON -> one validated plan per seed.

The wire format is the :class:`Submission` dataclass, decoded by
:func:`repro.core.decode.decode` — the decoder every plan file goes
through too, so the rules are the ones docs/architecture.md ("Configs
from JSON") states once: a ``scenario`` object (``LongitudinalConfig``
fields, nested fault / attack / policy blocks included), an optional
``campaign`` object (``CampaignConfig`` fields), optional ``seeds`` (a
list; defaults to the scenario's own seed) and an optional
``snapshots`` override (at most the scenario's own count).  Unknown
fields and mistyped values are refused with the path that names them —
a typoed knob silently falling back to its default would submit the
*wrong experiment* and then cache it under the wrong experiment's key
forever.

Each seed becomes a :class:`~repro.store.campaign.CampaignPlan` here,
once; the service runs exactly those plans, and their run keys are the
CLI's — a campaign submitted over HTTP is a cache hit for the same
campaign run locally, and vice versa.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, List, Optional

from ..core.decode import decode
from ..core.pipeline import CampaignConfig
from ..errors import ConfigurationError
from ..netmodel.scenario import LongitudinalConfig
from ..store.campaign import CampaignPlan

#: Most seeds one submission may fan out (keeps one request from
#: monopolizing the worker slots for hours).
MAX_SEEDS = 64


@dataclass
class Submission:
    """The wire JSON of ``POST /v1/campaigns``."""

    scenario: LongitudinalConfig = field(default_factory=LongitudinalConfig)
    campaign: CampaignConfig = field(default_factory=CampaignConfig)
    #: ``None`` = the scenario's own seed.
    seeds: Optional[List[int]] = None
    #: ``None`` = every snapshot the scenario schedules.
    snapshots: Optional[int] = None

    def validate(self) -> None:
        # Fail on a bad scenario now, at submit time, not inside a worker.
        self.scenario.validate()
        if self.seeds is None:
            return
        if not self.seeds:
            raise ConfigurationError("seeds must be non-empty")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigurationError("seeds must be distinct")
        if len(self.seeds) > MAX_SEEDS:
            raise ConfigurationError(
                f"at most {MAX_SEEDS} seeds per submission, "
                f"got {len(self.seeds)}"
            )


@dataclass
class SubmissionSpec:
    """A parsed, validated campaign submission: one plan per seed, built
    once here and executed as built."""

    seeds: List[int]
    plans: List[CampaignPlan]


def parse_submission(data: Any) -> SubmissionSpec:
    """The wire JSON of ``POST /v1/campaigns`` as a :class:`SubmissionSpec`."""
    submission = decode(Submission, data)
    seeds = submission.seeds or [submission.scenario.seed]
    return SubmissionSpec(
        seeds=seeds,
        plans=[
            CampaignPlan(
                replace(submission.scenario, seed=seed),
                submission.campaign,
                submission.snapshots,
            )
            for seed in seeds
        ],
    )
