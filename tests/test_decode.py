"""The one JSON-to-config decoder (``repro.core.decode``).

Three promises: a config survives ``asdict`` → JSON → ``decode``
unchanged; every malformed value is refused with the dotted path that
names it (``tests/test_serve.py``'s ``REFUSALS``, which it also POSTs);
and the run keys computed before the decoder existed still hold, so no
stored run became a cache miss.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from repro.adversary import AttackerSpec, AttackPlan, AttackScope
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
                 scope=AttackScope(asns=(3320,)), flood_volume=4000),
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
# Run-key parity: the keys these configs had before the decoder existed
# ---------------------------------------------------------------------------

_SWEEP_BASE = SyncCampaignConfig(n_reachable=40, duration=3600.0, seed=21)


def _submission_key(body):
    (plan,) = parse_submission(body).plans
    return plan.key


def _example(name):
    return json.loads((EXAMPLES / name).read_text())


@pytest.mark.parametrize(
    "key_of, key",
    [
        (lambda: _submission_key(TINY),
         "2fa13d53579d20e0a79f0d417362bfa56e23b9ae53d9e16bff7e1edb21c83284"),
        (lambda: _submission_key(
            in_scenario(faults=_example("faultplan_partition.json"))),
         "0ecba7a6a1a105d0848c8e08dc6419c6ee73da624428828376c79f6ab9471570"),
        (lambda: _submission_key(
            in_scenario(attack=_example("attackplan_flood.json"))),
         "e224efd99c96c3def68d9025cdb226a17a26e2df23cb5c08d12b7d65fb8189b9"),
        (lambda: _submission_key(in_scenario(policies={"variant": "improved"})),
         "425d579e3ddf0d37a465c78f7f24599ef3034015a97502785e704e171adf80a9"),
        (lambda: ConditionSweepPlan("chaos", fault_conditions(
            decode_file(FaultPlan, EXAMPLES / "faultplan_chaos.json"),
            _SWEEP_BASE, [0, 0.5, 1, 1.5, 2]), [21, 22]).key,
         "a345f25dec1563a80f5e2c32038040b42fad45b50e6c998fce263adfca4f0a97"),
        (lambda: ConditionSweepPlan("attack", attack_conditions(
            decode_file(AttackPlan, EXAMPLES / "attackplan_flood.json"),
            _SWEEP_BASE, [0, 3]), [21, 22]).key,
         "069b6371acbba63fb86f662b7a19a987f48430bc978329668b9552c0390269e1"),
    ],
    ids=["tiny", "tiny-faults", "tiny-attack", "tiny-policies",
         "chaos-sweep", "attack-sweep"],
)
def test_run_keys_did_not_move(key_of, key):
    assert key_of() == key
