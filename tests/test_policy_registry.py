"""The pluggable policy registry: canonicalization and equivalence.

``PolicyConfig`` is a ``(variant, params)`` reference into
``repro.bitcoin.policy``, and every spelling of one behavior must
canonicalize onto one form — §V knobs that add up to ``improved`` *are*
``improved``: same dataclass fields, same label, same run-store
identity.  The retired boolean keywords are rejected by name.  Distinct
variants must stay distinct down to the snapshot digest.
"""

from __future__ import annotations

import dataclasses
import hashlib
import pickle

import pytest

from repro.bitcoin import NodeConfig, PolicyConfig
from repro.bitcoin.config import ADDRMAN_HORIZON_DAYS
from repro.bitcoin.policy import (
    LightTierPolicy,
    PolicyVariant,
    build_policies,
    get_variant,
    register,
    variant_names,
)
from repro.core import CampaignConfig, CampaignRunner
from repro.core.decode import decode
from repro.errors import ConfigurationError
from repro.netmodel import (
    LongitudinalConfig,
    LongitudinalScenario,
    ProtocolConfig,
    ProtocolScenario,
)


#: The three §V knobs at their ``improved`` values, spelled one by one.
_IMPROVED_KNOBS = {
    "addr_from_tried_only": True,
    "tried_horizon_days": 17,
    "prioritize_block_relay": True,
}


# ---------------------------------------------------------------------------
# Canonicalization
# ---------------------------------------------------------------------------


class TestCanonicalization:
    def test_default_is_baseline(self):
        config = PolicyConfig()
        assert config.variant == "baseline"
        assert config.params == {}
        assert config.addr_from_tried_only is False
        assert config.tried_horizon_days == ADDRMAN_HORIZON_DAYS
        assert config.prioritize_block_relay is False

    def test_legacy_improved_booleans_map_onto_improved(self):
        spelled_out = PolicyConfig(params=_IMPROVED_KNOBS)
        assert spelled_out.variant == "improved"
        assert spelled_out.params == {}
        assert spelled_out == PolicyConfig.improved()
        assert dataclasses.asdict(spelled_out) == dataclasses.asdict(
            PolicyConfig.improved()
        )

    def test_partial_legacy_stays_baseline_with_diffs(self):
        config = PolicyConfig(params={"addr_from_tried_only": True})
        assert config.variant == "baseline"
        assert config.params == {"addr_from_tried_only": True}
        assert config.label() == "tried-only"

    def test_labels_preserved(self):
        assert PolicyConfig().label() == "baseline"
        assert PolicyConfig(params={"tried_horizon_days": 17}).label() == "17d"
        assert (
            PolicyConfig(params=_IMPROVED_KNOBS).label()
            == "tried-only+17d+block-prio"
        )

    def test_numeric_params_coerced_for_key_stability(self):
        int_spelling = PolicyConfig(params={"tried_horizon_days": 17})
        float_spelling = PolicyConfig(params={"tried_horizon_days": 17.0})
        assert dataclasses.asdict(int_spelling) == dataclasses.asdict(
            float_spelling
        )
        assert isinstance(int_spelling.params["tried_horizon_days"], float)

    def test_default_equal_params_dropped(self):
        explicit = PolicyConfig(
            variant="unreachable-relay", params={"assist_fraction": 0.25}
        )
        assert explicit.params == {}
        assert dataclasses.asdict(explicit) == dataclasses.asdict(
            PolicyConfig(variant="unreachable-relay")
        )

    def test_variant_and_conflicting_legacy_rejected(self):
        """The retired boolean keywords are gone, not silently merged."""
        with pytest.raises(TypeError, match="addr_from_tried_only"):
            PolicyConfig(
                variant="improved",
                params={"addr_from_tried_only": True},
                addr_from_tried_only=False,
            )

    def test_unknown_variant_lists_known_names(self):
        with pytest.raises(ValueError, match="baseline"):
            PolicyConfig(variant="no-such-variant")

    def test_unknown_param_rejected(self):
        with pytest.raises(ValueError):
            PolicyConfig(variant="baseline", params={"mystery_knob": 1})

    def test_bool_knob_is_strict(self):
        with pytest.raises(ValueError):
            PolicyConfig(variant="baseline", params={"addr_from_tried_only": 1})

    def test_from_dict_rejects_retired_keys_by_name(self):
        with pytest.raises(ConfigurationError, match="tried_horizon_days"):
            decode(PolicyConfig, {"tried_horizon_days": 17})
        clone = decode(PolicyConfig, {"params": _IMPROVED_KNOBS})
        assert clone.variant == "improved"

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigurationError, match="bogus"):
            decode(PolicyConfig, {"variant": "baseline", "bogus": 1})

    def test_pickle_round_trip(self):
        config = PolicyConfig(variant="churn-resilient")
        clone = pickle.loads(pickle.dumps(config))
        assert clone == config
        assert clone.prioritize_block_relay is True


# ---------------------------------------------------------------------------
# The registry itself
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_builtins_registered(self):
        assert set(variant_names()) >= {
            "baseline",
            "improved",
            "unreachable-relay",
            "churn-resilient",
        }

    def test_duplicate_registration_rejected(self):
        existing = get_variant("baseline")
        with pytest.raises(ValueError):
            register(existing)

    def test_variant_must_cover_universal_knobs(self):
        with pytest.raises(ValueError):
            register(
                PolicyVariant(
                    name="half-baked",
                    description="missing the universal knobs",
                    defaults={"addr_from_tried_only": False},
                    addr_factory=get_variant("baseline").addr_factory,
                    relay_factory=get_variant("baseline").relay_factory,
                    conn_factory=get_variant("baseline").conn_factory,
                )
            )

    def test_build_policies_bundle(self):
        bundle = build_policies(PolicyConfig(variant="improved"))
        assert bundle.variant == "improved"
        assert bundle.addr.horizon_days == 17.0
        assert bundle.relay.block_to_front is True
        assert bundle.light is None

    def test_unreachable_relay_bundle_has_light_policy(self):
        bundle = build_policies(PolicyConfig(variant="unreachable-relay"))
        assert isinstance(bundle.light, LightTierPolicy)

    def test_bundle_pickles(self):
        bundle = build_policies(PolicyConfig(variant="unreachable-relay"))
        clone = pickle.loads(pickle.dumps(bundle))
        assert clone.variant == bundle.variant
        assert clone.knobs == bundle.knobs


# ---------------------------------------------------------------------------
# Digest distinctness: variants differ down to the snapshot
# ---------------------------------------------------------------------------


def _protocol_digest(policies):
    scenario = ProtocolScenario(
        ProtocolConfig(
            seed=11,
            n_reachable=8,
            fidelity="hybrid",
            churn_per_10min=2.0,
            pre_mined_blocks=3,
            tx_rate=0.05,
            node_config=NodeConfig(policies=policies),
        )
    )
    scenario.start(warmup=120.0)
    scenario.sim.run_for(400.0)
    return hashlib.sha256(scenario.sim.snapshot()).hexdigest()


def test_protocol_digest_baseline_distinct_from_improved():
    assert _protocol_digest(PolicyConfig()) != _protocol_digest(
        PolicyConfig(variant="improved")
    )


def _campaign_figures(policies):
    config = LongitudinalConfig(
        scale=0.004,
        snapshots=2,
        campaign_days=2.0,
        seed=9,
        fidelity="hybrid",
        policies=policies,
    )
    runner = CampaignRunner(LongitudinalScenario(config), CampaignConfig())
    result = runner.run()
    return [
        (
            snap.when,
            len(snap.connected),
            len(snap.unreachable),
            len(snap.responsive),
            snap.new_unreachable,
            snap.new_responsive,
        )
        for snap in result.snapshots
    ]


def test_longitudinal_no_policies_equals_baseline_variant():
    # ``policies=None`` keeps the pre-registry crawl path; the baseline
    # variant must compose the same gossip tables draw-for-draw.
    assert _campaign_figures(None) == _campaign_figures(PolicyConfig())
