"""Scenario-level equivalence of the no-cancel lane.

The lane changes *where* hot events live — handler passes, message
arrivals and light-endpoint answers are bare tuples on the scheduler's
second heap — but never *when* anything fires or which RNG draw serves
it.  These tests pin that through every layer the lane touches: a world
built on the production scheduler and a world built on the naive
single-queue oracle (``tests/reference_scheduler.py``, where
``lane_schedule`` is plain ``schedule``) must produce bit-identical
figures for

* a live protocol scenario (chain heights, connection counts, sync),
* a sync campaign (the Fig. 1 pipeline end to end),

and a mixed-tier world snapshotted mid-batch (lane heap non-empty) must
restore and replay exactly.

They complement ``tests/test_engine_fastpath.py`` (scheduler-level
ordering against the same oracle).
"""

from __future__ import annotations

from repro.core.sync_experiments import SyncCampaignConfig, run_sync_campaign
from repro.netmodel.scenario import ProtocolConfig, ProtocolScenario
from repro.simnet.simulator import Simulator

from .reference_scheduler import on_reference_scheduler


def _protocol_figures():
    scenario = ProtocolScenario(
        ProtocolConfig(
            seed=23,
            n_reachable=10,
            churn_per_10min=2.0,
            pre_mined_blocks=5,
            tx_rate=0.05,
        )
    )
    scenario.start(warmup=120.0)
    events = int(scenario.sim.run_for(600.0))
    return (
        events,
        scenario.sim.now,
        tuple(node.chain.height for node in scenario.nodes),
        tuple(
            (node.addr, node.outbound_count)
            for node in scenario.running_nodes()
        ),
        scenario.sync_fraction(),
    )


def test_protocol_scenario_batched_equals_unbatched(monkeypatch):
    fast = _protocol_figures()
    slow = on_reference_scheduler(monkeypatch, _protocol_figures)
    assert fast == slow


def test_sync_campaign_batched_equals_unbatched(monkeypatch):
    config = SyncCampaignConfig(
        n_reachable=12,
        churn_per_10min=4.0,
        pre_mined_blocks=20,
        warmup=200.0,
        duration=1000.0,
        seed=33,
    )
    fast = run_sync_campaign(config)
    slow = on_reference_scheduler(
        monkeypatch, lambda: run_sync_campaign(config)
    )
    assert fast.sync_samples == slow.sync_samples
    assert fast.total_departures == slow.total_departures
    assert fast.sync_departures_per_10min == slow.sync_departures_per_10min


def test_snapshot_restore_mid_batch():
    """Snapshot with lane entries pending; restore must replay exactly."""
    scenario = ProtocolScenario(
        ProtocolConfig(
            seed=17,
            n_reachable=8,
            churn_per_10min=2.0,
            pre_mined_blocks=3,
        )
    )
    scenario.start(warmup=30.0)
    # Step in small increments until the snapshot would land mid-batch:
    # lane entries (handler passes / light answers) waiting to fire.
    sim = scenario.sim
    for _ in range(2000):
        if sim.scheduler._lane_heap:  # noqa: SLF001 - white-box probe
            break
        sim.run_for(0.05)
    assert sim.scheduler._lane_heap, "never caught the lane non-empty"  # noqa: SLF001
    blob = sim.snapshot()
    restored = Simulator.restore(blob)
    assert restored.scheduler._lane_heap  # noqa: SLF001 - survived the trip
    a = int(sim.run_for(300.0))
    b = int(restored.run_for(300.0))
    assert a == b
    assert sim.now == restored.now
