"""The one JSON-to-config decoder (``repro.core.decode``).

Four promises: a config survives ``asdict`` → JSON → ``decode``
unchanged; every malformed value is refused with the dotted path that
names it (``tests/test_serve.py``'s ``REFUSALS``, which it also POSTs);
one experiment has one spelling, so its equal configs share one run
key; and the pinned run keys move only when a config's spelling does
(old → new in CHANGES.md).
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from repro.adversary import AttackerSpec, AttackPlan
from repro.bitcoin import PolicyConfig
from repro.core.condition_sweep import (
    ConditionSweepPlan,
    attack_conditions,
    fault_conditions,
)
from repro.core.decode import decode, decode_file
from repro.core.sync_experiments import SyncCampaignConfig
from repro.errors import ConfigurationError
from repro.faults import FaultPlan, FaultScope, FaultSpec
from repro.netmodel import LongitudinalConfig
from repro.serve import parse_submission
from repro.serve.submission import Submission

from .test_serve import REFUSALS, TINY, in_scenario

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"

_FAULTS = FaultPlan(faults=(
    FaultSpec(kind="drop", probability=0.1, start=5.0, duration=50.0),
    FaultSpec(kind="partition", start=10.0, duration=20.0,
              scope=FaultScope(asns=(24940,), prefixes=(7,),
                               addrs=("1.2.3.4:8333",))),
    FaultSpec(kind="crash", scope=FaultScope(asns=(3320,)),
              downtime=60.0, state_loss=False, name="outage"),
))
_ATTACK = AttackPlan(attackers=(
    AttackerSpec(kind="addr_flooder", count=3, tier="reachable",
                 scope=FaultScope(asns=(3320,)), flood_volume=4000),
    AttackerSpec(kind="sync_staller", height_lead=500),
))
_POLICY = PolicyConfig(
    variant="unreachable-relay", params={"assist_fraction": 0.5}
)


@pytest.mark.parametrize(
    "config",
    [
        _FAULTS,
        _ATTACK,
        _POLICY,
        LongitudinalConfig(
            scale=0.004, fidelity="hybrid", faults=_FAULTS,
            attack=AttackPlan(attackers=_ATTACK.attackers[:1]),
            policies=_POLICY,
        ),
    ],
    ids=["FaultPlan", "AttackPlan", "PolicyConfig", "LongitudinalConfig"],
)
def test_round_trip(config):
    wire = json.loads(json.dumps(dataclasses.asdict(config)))
    assert decode(type(config), wire) == config


@pytest.mark.parametrize("body, path", REFUSALS.values(), ids=REFUSALS.keys())
def test_refusal_names_the_path(body, path):
    with pytest.raises(ConfigurationError) as excinfo:
        decode(Submission, body)
    assert path in str(excinfo.value)


def test_null_still_fills_every_optional_field():
    """What the parent accepted as ``null`` it still accepts."""
    spec = parse_submission(in_scenario(
        flooder_count=None,
        faults={"faults": [{"kind": "drop", "probability": 0.1,
                            "duration": None, "downtime": None}]},
        attack={"attackers": [{"kind": "addr_flooder", "scope": None}]},
        policies={"variant": "improved", "params": None},
    ))
    scenario = spec.plans[0].scenario_config
    assert scenario.faults.faults[0].duration is None
    assert scenario.attack.attackers[0].scope is None
    assert scenario.policies == PolicyConfig.improved()


def test_a_tuple_field_decodes_to_a_tuple_and_an_int_stays_an_int():
    plan = decode(FaultPlan, {"faults": [
        {"kind": "delay", "delay": 1, "scope": {"asns": [3320]}}
    ]})
    assert plan.faults[0].scope.asns == (3320,)
    assert type(plan.faults[0].delay) is int


# ---------------------------------------------------------------------------
# One experiment, one key: an empty plan or policy block is no block
# ---------------------------------------------------------------------------


def _submission_key(body):
    (plan,) = parse_submission(body).plans
    return plan.key


def _example(name):
    return json.loads((EXAMPLES / name).read_text())


@pytest.mark.parametrize(
    "scenario",
    [
        {"faults": {}, "attack": {}, "policies": {"variant": "baseline"}},
        {"faults": {"faults": []}, "attack": {"attackers": []},
         "policies": {"params": {}}},
    ],
    ids=["empty-objects", "empty-lists"],
)
def test_empty_blocks_key_as_no_blocks(scenario):
    assert _submission_key({"scenario": scenario}) == _submission_key({})
    assert _submission_key(in_scenario(**scenario)) == _submission_key(TINY)


# ---------------------------------------------------------------------------
# Run-key pins: re-pinned once when None stopped spelling an empty plan
# ---------------------------------------------------------------------------

_SWEEP_BASE = SyncCampaignConfig(n_reachable=40, duration=3600.0, seed=21)


@pytest.mark.parametrize(
    "key_of, key",
    [
        (lambda: _submission_key(TINY),
         "92cedca8a9b775f3cf526077a524c42b8aecae78042466d5bd87e61ce60e93fe"),
        (lambda: _submission_key(
            in_scenario(faults=_example("faultplan_partition.json"))),
         "d9d36e66ebb12fbc2f505e4c3ee1f0ecd51c612e11a879619b6a5a974c52b182"),
        (lambda: _submission_key(
            in_scenario(attack=_example("attackplan_flood.json"))),
         "8aad889db7e885a064d9188c8cb405ad49843df2f155ad61706d746b4440355c"),
        (lambda: _submission_key(in_scenario(policies={"variant": "improved"})),
         "cf8cb9eee33d95aad904e11bb63f740e2107897b53682281b366171e955f814b"),
        (lambda: ConditionSweepPlan("chaos", fault_conditions(
            decode_file(FaultPlan, EXAMPLES / "faultplan_chaos.json"),
            _SWEEP_BASE, [0, 0.5, 1, 1.5, 2]), [21, 22]).key,
         "428f6c9f1d4fd4d6d096882f87d52bc201f988c5164a5b39db734f0f9fbda98c"),
        (lambda: ConditionSweepPlan("attack", attack_conditions(
            decode_file(AttackPlan, EXAMPLES / "attackplan_flood.json"),
            _SWEEP_BASE, [0, 3]), [21, 22]).key,
         "65f3be16d8192f64d42ac2bbf0a39ebded6a0d0521e46c6f1e89467251d7b988"),
    ],
    ids=["tiny", "tiny-faults", "tiny-attack", "tiny-policies",
         "chaos-sweep", "attack-sweep"],
)
def test_run_keys_did_not_move(key_of, key):
    assert key_of() == key
