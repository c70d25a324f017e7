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
import typing
from pathlib import Path

import pytest

from repro.adversary import AttackerSpec, AttackPlan
from repro.bitcoin import PolicyConfig
from repro.core.condition_sweep import Axis, ConditionSweepPlan, conditions
from repro.core import decode as decode_module
from repro.core.decode import decode, decode_file
from repro.core.sync_experiments import SyncCampaignConfig
from repro.errors import ConfigurationError
from repro.faults import FaultPlan, FaultScope, FaultSpec
from repro.netmodel import LongitudinalConfig, ProtocolConfig
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
            scale=0.004, faults=_FAULTS,
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


@pytest.mark.parametrize("config", [LongitudinalConfig, ProtocolConfig])
def test_an_rst_fraction_outside_the_unit_interval_is_refused(config):
    """A JSON number, so the types pass; ``validate`` refuses it by
    name instead of the scenario build raising a bare ``ValueError``."""
    for fraction in (2.0, -0.5):
        with pytest.raises(ConfigurationError, match="rst_fraction"):
            decode(config, {"rst_fraction": fraction})
    assert decode(config, {"rst_fraction": 1.0}).rst_fraction == 1.0


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
# A class's annotations are resolved once, not on every decode
# ---------------------------------------------------------------------------


def test_decoding_twice_resolves_each_class_once(monkeypatch):
    resolved = []
    real = typing.get_type_hints

    def counting(cls, *args, **kwargs):
        resolved.append(cls)
        return real(cls, *args, **kwargs)

    monkeypatch.setattr(typing, "get_type_hints", counting)
    decode_module._field_types.cache_clear()
    body = in_scenario(
        attack={"attackers": [{"kind": "addr_flooder", "count": 2}]}
    )
    first = [plan.key for plan in parse_submission(body).plans]
    assert Submission in resolved and AttackerSpec in resolved
    assert len(resolved) == len(set(resolved))
    once = list(resolved)
    assert [plan.key for plan in parse_submission(body).plans] == first
    assert resolved == once


#: Refusals as the decoder worded them while it resolved every class's
#: annotations on each call.
_REFUSAL_TEXT = [
    ({"bogus": 1},
     "unknown field(s) ['bogus'] for Submission "
     "(allowed: ['campaign', 'scenario', 'seeds', 'snapshots'])"),
    ({"scenario": {"scale": "x"}}, 'scenario.scale must be a number, got "x"'),
    ({"campaign": {"probe": {"nope": 2}}},
     "unknown field(s) ['nope'] for campaign.probe "
     "(allowed: ['concurrency', 'timeout'])"),
    ({"scenario": {"attack": {"attackers": [{"count": True}]}}},
     "scenario.attack.attackers[0].count must be an integer, got true"),
    ({"seeds": [1, None]}, "seeds[1] must be an integer, got null"),
    ({"snapshots": 1.5}, "snapshots must be an integer or null, got 1.5"),
]


@pytest.mark.parametrize("body, text", _REFUSAL_TEXT)
def test_refusal_text_did_not_move(body, text):
    for _ in range(2):  # resolved, then cached
        with pytest.raises(ConfigurationError) as excinfo:
            decode(Submission, body)
        assert str(excinfo.value) == text


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
# Run-key pins: re-pinned when None stopped spelling an empty plan, and
# when the node-tier switch went (the campaign keys are now the ones
# ``fidelity="hybrid"`` had; the sweep configs lost the field); the four
# campaign keys once more when the crawl config lost
# ``flood_volume_model``, and again when the crawl and pipeline configs
# lost the fields nothing set (old keys in CHANGES.md)
# ---------------------------------------------------------------------------

_SWEEP_BASE = SyncCampaignConfig(n_reachable=40, duration=3600.0, seed=21)


@pytest.mark.parametrize(
    "key_of, key",
    [
        (lambda: _submission_key(TINY),
         "db5e2d9cbccf64aa28460586b78371d087396137d890aa9faeed686405f6f986"),
        (lambda: _submission_key(
            in_scenario(faults=_example("faultplan_partition.json"))),
         "fbab931b175b745e46c900cdf8465c6fa371286e9dd27fd9e0270c607a14bdb3"),
        (lambda: _submission_key(
            in_scenario(attack=_example("attackplan_flood.json"))),
         "029a73cf6c3d141ceeafd91758d3542b959e2ceffc2cb8ff8d82e2cbacc248ed"),
        (lambda: _submission_key(in_scenario(policies={"variant": "improved"})),
         "240b141c2f94bbff01513d541185b685c59987942cde78debdb7a3a97c2a0f6e"),
        (lambda: ConditionSweepPlan("chaos", conditions(_SWEEP_BASE, Axis.intensity(
            decode_file(FaultPlan, EXAMPLES / "faultplan_chaos.json"),
            [0, 0.5, 1, 1.5, 2])), [21, 22]).key,
         "9c829f890e5269f72296a33d5711ea167354de054298470938dacbcf3f984e75"),
        (lambda: ConditionSweepPlan("attack", conditions(_SWEEP_BASE, Axis.attackers(
            decode_file(AttackPlan, EXAMPLES / "attackplan_flood.json"),
            [0, 3])), [21, 22]).key,
         "04cb9893522cfe31f944fc32c7ac94d578c966006f648f0338114e5893e1d0e6"),
    ],
    ids=["tiny", "tiny-faults", "tiny-attack", "tiny-policies",
         "chaos-sweep", "attack-sweep"],
)
def test_run_keys_did_not_move(key_of, key):
    assert key_of() == key
