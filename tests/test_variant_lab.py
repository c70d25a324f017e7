"""The §V protocol-variant lab and its run-store identity guarantees.

Covers the cross-product of the lab's three axes (`repro.core.Axis`), the
cache-collision guard the registry refactor promises — distinct
variants/params can never share a run key, and §V knobs that add up to
``improved`` key identically to it, on both the store and serve paths —
plus the light-tier behaviors the ``unreachable-relay`` variant switches
on: assist endpoints keep riding the no-cancel fast lane, and a
mixed-tier world snapshots/restores mid-run without drift.  (Matrix
kill-and-resume is pinned in ``tests/test_stored_plan.py``.)
"""

from __future__ import annotations

import hashlib

import pytest

from repro.bitcoin import NodeConfig, PolicyConfig, variant_names
from repro.core import (
    Axis,
    CampaignConfig,
    ConditionSweepPlan,
    SyncCampaignConfig,
    conditions,
)
from repro.errors import ConfigurationError, ScenarioError
from repro.netmodel import LongitudinalConfig, ProtocolConfig, ProtocolScenario
from repro.serve.submission import parse_submission
from repro.simnet import Simulator
from repro.store import CampaignPlan, run_stored

from .reference_scheduler import ReferenceScheduler, on_reference_scheduler


def tiny_campaign(seed: int = 7) -> SyncCampaignConfig:
    return SyncCampaignConfig(
        n_reachable=12,
        duration=600.0,
        warmup=300.0,
        pre_mined_blocks=40,
        sample_period=150.0,
        poll_spread=100.0,
        seed=seed,
    )


#: The three §V knobs at their ``improved`` values, spelled one by one.
_IMPROVED_KNOBS = {
    "addr_from_tried_only": True,
    "tried_horizon_days": 17,
    "prioritize_block_relay": True,
}


# ---------------------------------------------------------------------------
# The matrix
# ---------------------------------------------------------------------------


def lab(variants, churn_levels=(5.0, 15.0)):
    """The lab's variant x churn x faults conditions."""
    return conditions(
        tiny_campaign(), Axis.variant(variants), Axis.churn(churn_levels),
        Axis.faults(),
    )


def matrix(variants, churn_levels=(2.0, 6.0), seeds=(7,)) -> ConditionSweepPlan:
    return ConditionSweepPlan(
        "variants", lab(variants, churn_levels), seeds, workers=1
    )


class TestVariantMatrix:
    def test_axes_validation(self):
        with pytest.raises(ConfigurationError):
            lab([])
        with pytest.raises(ValueError):
            lab(["no-such-variant"])
        with pytest.raises(ConfigurationError):
            lab(["baseline"], churn_levels=())
        with pytest.raises(ConfigurationError):
            lab(["baseline"], churn_levels=(-1.0,))

    @pytest.mark.slow
    def test_cross_product_and_retention(self):
        result = matrix(["baseline", "improved"]).run()
        assert len(result.cells) == 4
        # Deterministic cell order: variant -> churn -> fault.
        assert [cell.labels for cell in result.cells] == [
            {"variant": variant, "churn": churn, "faults": "none"}
            for variant in ("baseline", "tried-only+17d+block-prio")
            for churn in (2.0, 6.0)
        ]
        table = result.retention_table(along="churn")
        assert len(table) == 2
        for row in table:
            assert set(row["mean_sync"]) == {"2", "6"}
            assert row["retention"] is not None
        # Same invocation replays bit-identically.
        again = matrix(["baseline", "improved"]).run()
        assert again.retention_table(along="churn") == table
        assert [
            cell.sweep.per_seed[0].sync_samples for cell in again.cells
        ] == [cell.sweep.per_seed[0].sync_samples for cell in result.cells]

    @pytest.mark.slow
    def test_stored_matrix_caches_by_key(self, tmp_path):
        first = run_stored(tmp_path / "store", matrix(["baseline"], (2.0,)))
        assert not first.cached
        second = run_stored(tmp_path / "store", matrix(["baseline"], (2.0,)))
        assert second.cached
        assert second.manifest.run_id == first.manifest.run_id
        assert second.result.retention_table(
            along="churn"
        ) == first.result.retention_table(along="churn")


# ---------------------------------------------------------------------------
# Cache-collision guard: variant identity in run keys
# ---------------------------------------------------------------------------


class TestRunKeyIdentity:
    def test_matrix_key_separates_axes(self):
        def key(variants, churn=(2.0, 6.0), seeds=(7,)):
            return matrix(variants, churn, seeds).key

        baseline = key(["baseline"])
        assert baseline != key(["improved"])
        assert baseline != key(["baseline", "improved"])
        assert baseline != key(["baseline"], churn=(2.0, 8.0))
        assert baseline != key(["baseline"], seeds=(8,))
        assert key(["unreachable-relay"]) != key(
            [
                PolicyConfig(
                    variant="unreachable-relay",
                    params={"assist_fraction": 0.5},
                )
            ]
        )
        # The knob-by-knob spelling keys identically to its variant.
        assert key(["improved"]) == key([PolicyConfig(params=_IMPROVED_KNOBS)])

    def test_campaign_key_carries_variant_identity(self):
        def key(policies):
            return CampaignPlan(
                LongitudinalConfig(scale=0.004, seed=5, policies=policies),
                CampaignConfig(),
            ).key

        keys = {
            key(PolicyConfig()),
            key(PolicyConfig(variant="improved")),
            key(PolicyConfig(variant="unreachable-relay")),
            key(
                PolicyConfig(
                    variant="unreachable-relay",
                    params={"assist_fraction": 0.5},
                )
            ),
        }
        assert len(keys) == 4
        assert key(PolicyConfig(params=_IMPROVED_KNOBS)) == key(
            PolicyConfig(variant="improved")
        )

    def test_serve_submission_keys_carry_variant_identity(self):
        def keys(policies):
            spec = parse_submission(
                {
                    "scenario": {
                        "scale": 0.004,
                        "snapshots": 2,
                        "policies": policies,
                    },
                    "seeds": [1, 2],
                }
            )
            return [plan.key for plan in spec.plans]

        improved = keys({"variant": "improved"})
        assert improved == keys({"params": _IMPROVED_KNOBS})
        assert set(improved).isdisjoint(keys({"variant": "unreachable-relay"}))
        assert set(keys({"variant": "unreachable-relay"})).isdisjoint(
            keys(
                {
                    "variant": "unreachable-relay",
                    "params": {"assist_fraction": 0.5},
                }
            )
        )

    def test_serve_rejects_unknown_variant_as_configuration_error(self):
        with pytest.raises(ConfigurationError, match="policies"):
            parse_submission(
                {"scenario": {"policies": {"variant": "no-such-variant"}}}
            )

    def test_serve_rejects_retired_boolean_keys_by_name(self):
        """A submission still using a pre-registry key gets a 400
        (``ConfigurationError``) that names it."""
        with pytest.raises(ConfigurationError, match="addr_from_tried_only"):
            parse_submission(
                {"scenario": {"policies": {"addr_from_tried_only": True}}}
            )


# ---------------------------------------------------------------------------
# unreachable-relay acts through the light cloud, which every world has
# ---------------------------------------------------------------------------

_RELAY = PolicyConfig(variant="unreachable-relay")


def _cli_variants_under_full():
    from repro.cli import build_parser

    build_parser().parse_args(
        ["variants", "--variants", "baseline,unreachable-relay",
         "--fidelities", "full", "--nodes", "10", "--hours", "0.2",
         "--seeds", "1", "--workers", "1"]
    )


@pytest.mark.parametrize(
    "entry",
    [
        lambda: ProtocolConfig(
            n_reachable=8, fidelity="full",
            node_config=NodeConfig(policies=_RELAY),
        ).validate(),
        lambda: LongitudinalConfig(
            scale=0.004, fidelity="full", policies=_RELAY
        ).validate(),
        lambda: conditions(
            tiny_campaign(), Axis.variant(["baseline", "unreachable-relay"]),
            Axis("fidelity", [("full", {"fidelity": "full"})]),
        ),
        _cli_variants_under_full,
        lambda: parse_submission(
            {"scenario": {"scale": 0.004, "fidelity": "full",
                          "policies": {"variant": _RELAY.variant}}}
        ),
    ],
    ids=["protocol-config", "longitudinal-config", "builder", "cli", "serve"],
)
def test_light_tier_variant_under_full_fidelity_is_refused_by_name(
    entry, capsys
):
    """There is no cloud-less ``fidelity="full"`` to run the variant as
    the baseline under another name: wherever it can still be spelled,
    it is refused, naming the fidelity, before anything simulates.  The
    configs refuse the value ``'full'``, ``conditions`` and the CLI the
    name (argparse exits 2).  (Over HTTP: ``tests/test_serve.py``.)"""
    refusals = (ConfigurationError, ScenarioError, SystemExit)
    with pytest.raises(refusals) as excinfo:
        entry()
    assert "fidelit" in str(excinfo.value) + capsys.readouterr().err


def test_variants_without_a_light_tier_run_under_either_fidelity():
    """Every registered variant, light tier or not, validates under the
    one fidelity there is."""
    for name in variant_names():
        policies = PolicyConfig(variant=name)
        ProtocolConfig(node_config=NodeConfig(policies=policies)).validate()
        LongitudinalConfig(policies=policies).validate()


def _events_fired(policies: PolicyConfig) -> int:
    scenario = ProtocolScenario(
        ProtocolConfig(
            seed=11, n_reachable=8, churn_per_10min=2.0,
            pre_mined_blocks=3, tx_rate=0.05,
            node_config=NodeConfig(policies=policies),
        )
    )
    scenario.start(warmup=120.0)
    scenario.sim.run_for(400.0)
    return scenario.sim.scheduler.fired


def test_unreachable_relay_differs_from_baseline_under_hybrid():
    """The positive half: with its cloud built, the variant's assists
    answer and relay — same seed, more events than the baseline."""
    assert _events_fired(_RELAY) > _events_fired(PolicyConfig())


# ---------------------------------------------------------------------------
# unreachable-relay: the light tier keeps its fast-lane contract
# ---------------------------------------------------------------------------

_ASSIST_ALL = {"assist_fraction": 1.0}


def _assist_figures():
    scenario = ProtocolScenario(
        ProtocolConfig(
            seed=23,
            n_reachable=10,
            churn_per_10min=2.0,
            pre_mined_blocks=5,
            tx_rate=0.05,
            node_config=NodeConfig(
                policies=PolicyConfig(
                    variant="unreachable-relay", params=_ASSIST_ALL
                )
            ),
        )
    )
    scenario.start(warmup=120.0)
    events = int(scenario.sim.run_for(600.0))
    relaying = sum(
        1
        for node in scenario.light_cloud.nodes.values()
        if getattr(node, "_relay", None)
    )
    return scenario, (
        events,
        scenario.sim.now,
        tuple(node.chain.height for node in scenario.nodes),
        scenario.sync_fraction(),
        relaying,
    )


def test_assist_tier_rides_fast_lane(monkeypatch):
    """The no-cancel lane must carry assist traffic unchanged.

    The lane moves *where* light-tier events are stored, never *when*
    they fire — so the assist variant must produce identical figures on
    the production scheduler and on the single-queue reference oracle,
    while actually relaying (non-empty relay caches prove the hot
    branch ran).
    """
    _, fast = _assist_figures()
    slow_scenario, slow = on_reference_scheduler(monkeypatch, _assist_figures)
    assert isinstance(slow_scenario.sim.scheduler, ReferenceScheduler)
    assert fast == slow
    assert fast[-1] > 0  # some assist endpoints cached and re-announced txs


def test_mixed_tier_snapshot_restore_under_assist():
    """Snapshot a mixed full/assist-light world mid-run; the restored
    sim must replay digest-identically (same events, clock, figures)."""
    scenario = ProtocolScenario(
        ProtocolConfig(
            seed=17,
            n_reachable=8,
            churn_per_10min=2.0,
            pre_mined_blocks=3,
            tx_rate=0.05,
            node_config=NodeConfig(
                policies=PolicyConfig(
                    variant="unreachable-relay", params=_ASSIST_ALL
                )
            ),
        )
    )
    scenario.start(warmup=60.0)
    scenario.sim.run_for(200.0)
    blob = scenario.sim.snapshot()
    restored = Simulator.restore(blob)
    assert restored.network.tier_census() == scenario.sim.network.tier_census()

    def digest(sim):
        figures = (
            int(sim.run_for(300.0)),
            sim.now,
            sim.network.tier_census(),
            sim.network.messages_delivered,
        )
        return hashlib.sha256(repr(figures).encode()).hexdigest()

    assert digest(scenario.sim) == digest(restored)
