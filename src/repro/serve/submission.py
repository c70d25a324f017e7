"""Campaign submissions: config JSON -> one validated plan per seed.

The wire format mirrors the run-store manifest ``config`` block: a
``scenario`` object (``LongitudinalConfig`` fields), an optional
``campaign`` object (``CampaignConfig`` fields), optional ``seeds`` (a
list; defaults to the scenario's own seed) and optional ``snapshots``
override (at most the scenario's own count).  Unknown fields and
mistyped values are rejected loudly — a typoed knob silently
falling back to its default would submit the *wrong experiment* and then
cache it under the wrong-experiment's key forever.

Because the dataclasses themselves define the schema, anything a config
file can express (nested churn/seed-view/fault-plan/attack-plan blocks
included) is submittable — an ``attack`` block is parsed through
:meth:`~repro.adversary.plan.AttackPlan.from_dict` with the same strict
unknown-key rejection.  Each seed becomes a
:class:`~repro.store.campaign.CampaignPlan` here, once; the service
runs exactly those plans, and their run keys are the CLI's — a campaign
submitted over HTTP is a cache hit for the same campaign run locally,
and vice versa.
"""

from __future__ import annotations

import dataclasses
import json
import typing
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Type, TypeVar

from ..core.pipeline import CampaignConfig
from ..errors import ConfigurationError
from ..netmodel.scenario import LongitudinalConfig
from ..store.campaign import CampaignPlan

T = TypeVar("T")

#: Most seeds one submission may fan out (keeps one request from
#: monopolizing the worker slots for hours).
MAX_SEEDS = 64

_TOP_LEVEL_KEYS = frozenset({"scenario", "campaign", "seeds", "snapshots"})

#: What a scalar field's JSON value may be, by annotation.  ``bool`` is
#: not an ``int`` (``true`` would key another run than ``1``); an
#: ``int`` is a valid ``float``.
_SCALARS = {
    bool: ((bool,), "a boolean"),
    int: ((int,), "an integer"),
    float: ((int, float), "a number"),
    str: ((str,), "a string"),
}


def _check_scalar(where: str, value: Any, ftype: Any, optional: bool) -> None:
    """Refuse a JSON leaf its field's scalar annotation does not admit
    (``None`` only where the field is ``Optional``)."""
    if ftype not in _SCALARS or (value is None and optional):
        return
    accepted, name = _SCALARS[ftype]
    if isinstance(value, bool) != (ftype is bool) or not isinstance(
        value, accepted
    ):
        raise ConfigurationError(
            f"{where} must be {name}{' or null' if optional else ''}, "
            f"got {json.dumps(value)}"
        )


def dataclass_from_dict(cls: Type[T], data: Any, context: str = "") -> T:
    """Build dataclass ``cls`` from a JSON object, strictly.

    Unknown keys raise :class:`~repro.errors.ConfigurationError`, as
    does a scalar leaf of the wrong JSON type; nested dataclass fields
    recurse; classes with their own ``from_dict`` (e.g.
    :class:`~repro.faults.plan.FaultPlan`) use it.
    """
    where = context or cls.__name__
    if not isinstance(data, dict):
        raise ConfigurationError(
            f"{where} must be a JSON object, got {type(data).__name__}"
        )
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(key for key in data if key not in names)
    if unknown:
        raise ConfigurationError(
            f"unknown field(s) {unknown} for {where} "
            f"(allowed: {sorted(names)})"
        )
    hints = typing.get_type_hints(cls)
    kwargs: Dict[str, Any] = {}
    for f in dataclasses.fields(cls):
        if f.name not in data:
            continue
        value = data[f.name]
        ftype = hints.get(f.name)
        optional = False
        if typing.get_origin(ftype) is typing.Union:
            non_none = [
                arg for arg in typing.get_args(ftype)
                if arg is not type(None)
            ]
            optional = len(non_none) < len(typing.get_args(ftype))
            if len(non_none) == 1:
                ftype = non_none[0]
        _check_scalar(f"{where}.{f.name}", value, ftype, optional)
        if (
            value is not None
            and isinstance(ftype, type)
            and dataclasses.is_dataclass(ftype)
            and isinstance(value, dict)
        ):
            from_dict = getattr(ftype, "from_dict", None)
            if from_dict is not None:
                try:
                    value = from_dict(value)
                except (TypeError, ValueError) as exc:
                    raise ConfigurationError(
                        f"invalid {where}.{f.name}: {exc}"
                    ) from exc
            else:
                value = dataclass_from_dict(
                    ftype, value, context=f"{where}.{f.name}"
                )
        kwargs[f.name] = value
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"invalid {where}: {exc}") from exc


@dataclass
class SubmissionSpec:
    """A parsed, validated campaign submission: one plan per seed, built
    once here and executed as built."""

    seeds: List[int]
    plans: List[CampaignPlan]


def parse_submission(data: Any) -> SubmissionSpec:
    """The wire JSON of ``POST /v1/campaigns`` as a :class:`SubmissionSpec`."""
    if not isinstance(data, dict):
        raise ConfigurationError(
            f"submission must be a JSON object, got {type(data).__name__}"
        )
    unknown = sorted(key for key in data if key not in _TOP_LEVEL_KEYS)
    if unknown:
        raise ConfigurationError(
            f"unknown submission field(s) {unknown} "
            f"(allowed: {sorted(_TOP_LEVEL_KEYS)})"
        )
    scenario = dataclass_from_dict(
        LongitudinalConfig, data.get("scenario", {}), context="scenario"
    )
    campaign = dataclass_from_dict(
        CampaignConfig, data.get("campaign", {}), context="campaign"
    )
    # Fail on a bad scenario now, at submit time, not inside a worker.
    scenario.validate()

    seeds_raw = data.get("seeds")
    if seeds_raw is None:
        seeds = [scenario.seed]
    else:
        if (
            not isinstance(seeds_raw, list)
            or not seeds_raw
            or not all(isinstance(s, int) and not isinstance(s, bool)
                       for s in seeds_raw)
        ):
            raise ConfigurationError(
                "seeds must be a non-empty list of integers"
            )
        if len(set(seeds_raw)) != len(seeds_raw):
            raise ConfigurationError("seeds must be distinct")
        if len(seeds_raw) > MAX_SEEDS:
            raise ConfigurationError(
                f"at most {MAX_SEEDS} seeds per submission, "
                f"got {len(seeds_raw)}"
            )
        seeds = list(seeds_raw)

    snapshots = data.get("snapshots")
    if snapshots is not None and (
        not isinstance(snapshots, int) or isinstance(snapshots, bool)
    ):
        raise ConfigurationError("snapshots must be an integer")

    return SubmissionSpec(
        seeds=seeds,
        plans=[
            CampaignPlan(replace(scenario, seed=seed), campaign, snapshots)
            for seed in seeds
        ],
    )
