"""Tests for the deterministic fault-injection subsystem (repro.faults)."""

import dataclasses
import json

import pytest

from repro.core.decode import decode, decode_file
from repro.errors import ConfigurationError, FaultInjectionError
from repro.faults import (
    FaultInjector,
    FaultPlan,
    FaultScope,
    FaultSpec,
    PLAN_FORMAT,
)
from repro.netmodel.scenario import (
    LongitudinalConfig,
    LongitudinalScenario,
    ProtocolConfig,
    ProtocolScenario,
)
from repro.simnet.simulator import Simulator


# ---------------------------------------------------------------------------
# Plan validation and (de)serialization
# ---------------------------------------------------------------------------
class TestFaultPlan:
    def test_file_round_trip(self, tmp_path):
        plan = FaultPlan(faults=(
            FaultSpec(kind="delay", delay=0.5, jitter=0.2),
        ))
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(dataclasses.asdict(plan)))
        assert decode_file(FaultPlan, path) == plan

    def test_unknown_kind_rejected(self):
        with pytest.raises(FaultInjectionError, match="unknown fault kind"):
            FaultPlan(faults=(FaultSpec(kind="meteor"),)).validate()

    def test_drop_needs_probability(self):
        with pytest.raises(FaultInjectionError, match="probability"):
            FaultPlan(faults=(FaultSpec(kind="drop"),)).validate()

    def test_delay_needs_positive_delay(self):
        with pytest.raises(FaultInjectionError, match="positive delay"):
            FaultPlan(faults=(FaultSpec(kind="delay"),)).validate()

    def test_partition_needs_scope(self):
        with pytest.raises(FaultInjectionError, match="non-empty scope"):
            FaultPlan(faults=(FaultSpec(kind="partition"),)).validate()

    def test_crash_needs_scope(self):
        with pytest.raises(FaultInjectionError, match="non-empty scope"):
            FaultPlan(faults=(FaultSpec(kind="crash"),)).validate()

    def test_bad_scope_address(self):
        spec = FaultSpec(kind="drop", probability=0.5,
                         scope=FaultScope(addrs=("not-an-addr",)))
        with pytest.raises(FaultInjectionError, match="not parseable"):
            FaultPlan(faults=(spec,)).validate()

    def test_unknown_plan_key_rejected(self):
        with pytest.raises(ConfigurationError, match=r"\['bogus'\] for FaultPlan"):
            decode(FaultPlan, {"faults": [], "bogus": 1})

    def test_unknown_fault_key_rejected(self):
        with pytest.raises(ConfigurationError, match=r"\['oops'\] for faults\[0\]"):
            decode(FaultPlan, {"faults": [{"kind": "drop", "oops": 2}]})

    def test_format_mismatch_rejected(self):
        with pytest.raises(FaultInjectionError, match="format"):
            decode(FaultPlan, {"faults": [], "format": PLAN_FORMAT + 1})

    def test_corrupt_json_rejected(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text("{nope")
        with pytest.raises(ConfigurationError, match="plan.json is not a readable"):
            decode_file(FaultPlan, path)

    def test_scaled_clips_probability(self):
        plan = FaultPlan(faults=(FaultSpec(kind="drop", probability=0.6),))
        assert plan.scaled(3.0).faults[0].probability == 1.0

    def test_scaled_is_linear_elsewhere(self):
        plan = FaultPlan(faults=(
            FaultSpec(kind="delay", delay=0.2, jitter=0.1),
            FaultSpec(kind="reset", rate=0.5),
            FaultSpec(kind="partition", duration=100.0,
                      scope=FaultScope(asns=(1,))),
            FaultSpec(kind="crash", downtime=60.0,
                      scope=FaultScope(asns=(1,))),
        ))
        doubled = plan.scaled(2.0)
        assert doubled.faults[0].delay == pytest.approx(0.4)
        assert doubled.faults[1].rate == pytest.approx(1.0)
        assert doubled.faults[2].duration == pytest.approx(200.0)
        assert doubled.faults[3].downtime == pytest.approx(120.0)

    def test_scaled_zero_is_empty(self):
        plan = FaultPlan(faults=(FaultSpec(kind="drop", probability=0.5),))
        assert len(plan.scaled(0.0)) == 0

    def test_scaled_negative_rejected(self):
        with pytest.raises(FaultInjectionError, match="intensity"):
            FaultPlan().scaled(-1.0)


# ---------------------------------------------------------------------------
# Injector compile-time checks
# ---------------------------------------------------------------------------
class TestInjectorCompile:
    def test_crash_without_node_provider_rejected(self):
        sim = Simulator(seed=1)
        plan = FaultPlan(faults=(
            FaultSpec(kind="crash", scope=FaultScope(asns=(1,))),
        ))
        with pytest.raises(FaultInjectionError, match="node population"):
            FaultInjector(sim, plan, asn_of=lambda addr: 1)

    def test_as_scope_without_resolver_rejected(self):
        sim = Simulator(seed=1)
        plan = FaultPlan(faults=(
            FaultSpec(kind="drop", probability=0.5,
                      scope=FaultScope(asns=(1,))),
        ))
        with pytest.raises(FaultInjectionError, match="AS-scoped"):
            FaultInjector(sim, plan)

    def test_longitudinal_scenario_rejects_crash_plans(self):
        plan = FaultPlan(faults=(
            FaultSpec(kind="crash", scope=FaultScope(asns=(3320,))),
        ))
        with pytest.raises(FaultInjectionError, match="node population"):
            LongitudinalScenario(
                LongitudinalConfig(seed=1, scale=0.002, snapshots=2,
                                   faults=plan)
            )

    def test_empty_plan_installs_no_hook(self):
        sim = Simulator(seed=1)
        sim.install_faults(FaultPlan())
        assert sim.network._fault_hook is None
        assert "faults" in sim.components


# ---------------------------------------------------------------------------
# Per-kind runtime behaviour on a small protocol world
# ---------------------------------------------------------------------------
def _scenario(plan, seed=9, n_reachable=10, pre_mined=5):
    scenario = ProtocolScenario(ProtocolConfig(
        seed=seed, n_reachable=n_reachable, pre_mined_blocks=pre_mined,
        faults=plan,
    ))
    return scenario


class TestInjectorBehaviour:
    def test_drop_all_blackholes_messages(self):
        plan = FaultPlan(faults=(
            FaultSpec(kind="drop", probability=1.0, start=0.0),
        ))
        scenario = _scenario(plan)
        scenario.start(warmup=120.0)
        stats = scenario.fault_injector.stats
        assert stats.messages_dropped > 0
        # With every message blackholed no handshake ever completes.
        assert scenario.sim.network.messages_delivered == 0

    def test_duplicate_delivers_extra_copies(self):
        plan = FaultPlan(faults=(
            FaultSpec(kind="duplicate", probability=1.0, start=0.0),
        ))
        baseline = _scenario(FaultPlan())
        baseline.start(warmup=120.0)
        duplicated = _scenario(plan)
        duplicated.start(warmup=120.0)
        stats = duplicated.fault_injector.stats
        assert stats.messages_duplicated > 0
        assert (
            duplicated.sim.network.messages_delivered
            > baseline.sim.network.messages_delivered
        )

    def test_delay_injects_latency(self):
        plan = FaultPlan(faults=(
            FaultSpec(kind="delay", delay=0.2, jitter=0.5, start=0.0),
        ))
        scenario = _scenario(plan)
        scenario.start(warmup=120.0)
        assert scenario.fault_injector.stats.messages_delayed > 0

    def test_reset_closes_connections(self):
        plan = FaultPlan(faults=(
            FaultSpec(kind="reset", rate=0.5, start=30.0, duration=300.0),
        ))
        scenario = _scenario(plan)
        scenario.start(warmup=400.0)
        assert scenario.fault_injector.stats.connections_reset > 0

    def test_partition_blocks_crossing_traffic(self):
        # One node's address on one side, everyone else on the other.
        scenario = _scenario(FaultPlan())
        victim = scenario.nodes[0].addr
        plan = FaultPlan(faults=(
            FaultSpec(kind="partition", start=60.0, duration=600.0,
                      scope=FaultScope(addrs=(str(victim),))),
        ))
        scenario = _scenario(plan)
        scenario.start(warmup=700.0)
        stats = scenario.fault_injector.stats
        assert stats.partition_drops + stats.connects_blocked > 0

    def test_window_deactivation(self):
        plan = FaultPlan(faults=(
            FaultSpec(kind="drop", probability=1.0, start=10.0,
                      duration=20.0, name="blip"),
        ))
        scenario = _scenario(plan)
        scenario.start(warmup=60.0)
        injector = scenario.fault_injector
        assert injector.active_faults == []
        assert (10.0, "activate", "blip") in injector.events
        assert (30.0, "deactivate", "blip") in injector.events
        # Traffic resumed after the window closed.
        assert scenario.sim.network.messages_delivered > 0

    def test_crash_stops_and_restarts_with_state_loss(self):
        scenario = _scenario(FaultPlan(), pre_mined=8)
        victim = scenario.nodes[0]
        plan = FaultPlan(faults=(
            FaultSpec(kind="crash", start=50.0, downtime=100.0,
                      scope=FaultScope(addrs=(str(victim.addr),))),
        ))
        scenario = _scenario(plan, pre_mined=8)
        victim = scenario.nodes[0]
        born_height = None
        scenario.start()
        born_height = victim.chain.height
        assert born_height > 0  # premined chain
        scenario.sim.run_until(60.0)
        assert not victim.running  # crashed at t=50
        assert victim.chain.height == 0  # state lost
        stats = scenario.fault_injector.stats
        assert stats.crashes == 1
        scenario.sim.run_until(200.0)
        assert victim.running  # restarted at t=150
        assert stats.restarts == 1

    def test_crash_without_state_loss_keeps_chain(self):
        scenario = _scenario(FaultPlan(), pre_mined=8)
        victim = scenario.nodes[0]
        plan = FaultPlan(faults=(
            FaultSpec(kind="crash", start=50.0, downtime=100.0,
                      state_loss=False,
                      scope=FaultScope(addrs=(str(victim.addr),))),
        ))
        scenario = _scenario(plan, pre_mined=8)
        victim = scenario.nodes[0]
        scenario.start()
        height = victim.chain.height
        scenario.sim.run_until(60.0)
        assert not victim.running
        assert victim.chain.height == height


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------
def _chaos_plan():
    return FaultPlan(faults=(
        FaultSpec(kind="drop", probability=0.1, start=0.0),
        FaultSpec(kind="delay", delay=0.1, jitter=0.5, start=20.0,
                  duration=300.0),
        FaultSpec(kind="reset", rate=0.2, start=50.0, duration=400.0),
        FaultSpec(kind="partition", start=100.0, duration=150.0,
                  scope=FaultScope(prefixes=tuple(range(0, 0x10000, 7)))),
    ))


def _digest(scenario):
    sim = scenario.sim
    injector = scenario.fault_injector
    return (
        sim.scheduler.fired,
        sim.now,
        sim.network.messages_delivered,
        sim.network.connects_succeeded,
        sim.network.connects_timed_out,
        None if injector is None else injector.stats.as_dict(),
        None if injector is None else tuple(injector.events),
        tuple(node.chain.height for node in scenario.nodes),
        scenario.sync_fraction(),
    )


class TestDeterminism:
    def test_same_seed_same_plan_bit_identical(self):
        runs = []
        for _ in range(2):
            scenario = _scenario(_chaos_plan(), seed=17)
            scenario.start(warmup=600.0)
            runs.append(_digest(scenario))
        assert runs[0] == runs[1]

    def test_different_seeds_diverge(self):
        first = _scenario(_chaos_plan(), seed=17)
        first.start(warmup=600.0)
        second = _scenario(_chaos_plan(), seed=18)
        second.start(warmup=600.0)
        assert _digest(first) != _digest(second)

    def test_fault_rng_streams_do_not_perturb_clean_run(self):
        # A run with a plan whose windows never open must be bit-identical
        # to a run with no plan at all: fault randomness lives on its own
        # named streams and draws nothing until a window activates.
        clean = _scenario(FaultPlan(), seed=23)
        clean.start(warmup=300.0)
        never = FaultPlan(faults=(
            FaultSpec(kind="drop", probability=0.9, start=1e9),
        ))
        gated = _scenario(never, seed=23)
        gated.start(warmup=300.0)
        assert _digest(clean)[:5] == _digest(gated)[:5]

    def test_snapshot_mid_partition_restore_identical(self):
        """Satellite: snapshot mid-partition; the restored remainder must
        be digest-identical to the uninterrupted run."""
        plan = _chaos_plan()
        scenario = _scenario(plan, seed=29)
        scenario.start(warmup=120.0)  # inside partition window at t=120
        blob = scenario.sim.snapshot()
        restored_sim = Simulator.restore(blob)
        # Continue the original ...
        scenario.sim.run_until(700.0)
        original = _digest(scenario)
        # ... and the restored copy over the same remainder.
        restored_sim.run_until(700.0)
        restored_injector = restored_sim.components["faults"]
        assert restored_sim.scheduler.fired == original[0]
        assert restored_sim.now == original[1]
        assert restored_sim.network.messages_delivered == original[2]
        assert restored_sim.network.connects_succeeded == original[3]
        assert restored_sim.network.connects_timed_out == original[4]
        assert restored_injector.stats.as_dict() == original[5]
        assert tuple(restored_injector.events) == original[6]

    def test_snapshot_restore_on_heap_engine(self):
        plan = _chaos_plan()
        scenario = ProtocolScenario(ProtocolConfig(
            seed=29, n_reachable=10, pre_mined_blocks=5, faults=plan,
        ))
        # Snapshot mid-fault, restore, run both on.
        scenario.start(warmup=130.0)
        blob = scenario.sim.snapshot()
        restored = Simulator.restore(blob)
        scenario.sim.run_until(500.0)
        restored.run_until(500.0)
        assert restored.scheduler.fired == scenario.sim.scheduler.fired
        assert (
            restored.components["faults"].stats.as_dict()
            == scenario.fault_injector.stats.as_dict()
        )


# ---------------------------------------------------------------------------
# Run-store integration
# ---------------------------------------------------------------------------
class TestFaultsThroughStore:
    def test_fault_plan_changes_run_key(self):
        from repro.store.manifest import run_key

        base = LongitudinalConfig(seed=1, scale=0.002, snapshots=2)
        faulted = LongitudinalConfig(
            seed=1, scale=0.002, snapshots=2,
            faults=FaultPlan(faults=(
                FaultSpec(kind="drop", probability=0.1),
            )),
        )
        clean_key = run_key("campaign", base, 1, 2)
        fault_key = run_key("campaign", faulted, 1, 2)
        assert clean_key != fault_key

    def test_faulted_campaign_digests_identical_across_stores(self, tmp_path):
        """Acceptance: same seed + same plan => bit-identical campaign
        digests across two independent stored runs."""
        from repro.store.campaign import run_stored_campaign

        plan = FaultPlan(faults=(
            FaultSpec(kind="drop", probability=0.05, start=0.0),
            FaultSpec(kind="delay", delay=0.2, jitter=0.4, start=3600.0,
                      duration=7200.0),
        ))
        config = LongitudinalConfig(
            seed=5, scale=0.002, snapshots=2, faults=plan
        )
        first = run_stored_campaign(tmp_path / "a", config)
        second = run_stored_campaign(tmp_path / "b", config)
        assert first.manifest.result_digest == second.manifest.result_digest
        assert [s.digest for s in first.manifest.snapshots] == [
            s.digest for s in second.manifest.snapshots
        ]

    def test_faulted_campaign_cache_hit(self, tmp_path):
        from repro.store.campaign import run_stored_campaign

        plan = FaultPlan(faults=(
            FaultSpec(kind="drop", probability=0.05),
        ))
        config = LongitudinalConfig(
            seed=5, scale=0.002, snapshots=2, faults=plan
        )
        first = run_stored_campaign(tmp_path / "s", config)
        again = run_stored_campaign(tmp_path / "s", config)
        assert not first.cached
        assert again.cached
        assert again.manifest.run_id == first.manifest.run_id


# ---------------------------------------------------------------------------
# The degradation experiment
# ---------------------------------------------------------------------------
class TestSyncUnderFaults:
    def test_degradation_sweep_shapes(self):
        from repro.core import Axis, ConditionSweepPlan, conditions
        from repro.core.sync_experiments import SyncCampaignConfig

        plan = FaultPlan(faults=(
            FaultSpec(kind="drop", probability=0.4, start=0.0),
        ))
        base = SyncCampaignConfig(
            n_reachable=8, churn_per_10min=2.0, pre_mined_blocks=10,
            sample_period=120.0, poll_spread=80.0, warmup=150.0,
            duration=600.0, seed=3,
        )
        result = ConditionSweepPlan(
            "chaos", conditions(base, Axis.intensity(plan, (0.0, 1.0))), [3, 4],
            workers=1,
        ).run()
        assert result.axis("intensity") == [0.0, 1.0]
        baseline, stressed = result.cells
        assert len(baseline.sweep.per_seed[0].config.faults) == 0
        assert all(
            value == 0 for value in baseline.totals("fault_stats").values()
        )
        assert stressed.totals("fault_stats")["messages_dropped"] > 0
        rows = result.degradation_table(intensity=0)
        assert rows[0]["delta_vs_baseline"] == 0
        assert rows[1]["delta_vs_baseline"] is not None
        assert all(row["failed_seeds"] == [] for row in rows)
