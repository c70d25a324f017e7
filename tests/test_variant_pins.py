"""Per-variant measurement pins: every policy knob, read where it acts.

The variant-matrix pins in ``tests/test_stored_plan.py`` cover sync
results only.  These cover the rest of what a variant decides: block
and tx relay (order, queue priority, assist relays in the light cloud),
outbound selection (the tried bias) and ADDR serving, through one small
churned world per variant with relay and attempt tracking on; and the
light cloud's assist membership, which is a pure function of the
address and the fraction.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.bitcoin import NodeConfig, PolicyConfig
from repro.core.sync_monitor import SyncMonitor
from repro.netmodel import ProtocolConfig, ProtocolScenario
from repro.simnet.addresses import NetAddr

#: sha256 of the repr of ``(sync samples, block relay times, tx relay
#: times, observer attempts)`` of :func:`_measure`, per variant.
VARIANT_MEASUREMENTS = {
    "baseline": (
        "b3f0e97c334c34c9aae1daf03bb11e963bf70938b1906c55f648a7532a41dce8"
    ),
    "improved": (
        "5a6352bfb47b7361f447267effc88411bbea933befa0290a1471cc066089cd89"
    ),
    "unreachable-relay": (
        "4a8f8534bd15a6a3167cda4acfe69c0e44fa3c5e231f90d3c432ec65018556ff"
    ),
    "churn-resilient": (
        "86d0f5162073ff6fd39c24a53ce2a016ef3fbb229fbe1bff941cf95834f3bd3f"
    ),
}

#: sha256 of the sorted assist addresses of :func:`_assists`, per
#: ``assist_fraction``.
ASSIST_MEMBERSHIP = {
    0.25: "70b9a44eb4bd092974e07a2382f5c35d7d83cc16187b130d810587216c51065a",
    1.0: "3a48acea8b8f3910f2de148da1ca4a5048b81c9cf1c06e73fcf1837bd2fcef8b",
}


def _sha(value: object) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def _measure(variant: str) -> str:
    policies = PolicyConfig(variant=variant)
    scenario = ProtocolScenario(
        ProtocolConfig(
            seed=11,
            n_reachable=8,
            churn_per_10min=2.0,
            pre_mined_blocks=3,
            block_interval=120.0,
            tx_rate=0.05,
            node_config=NodeConfig(policies=policies, track_relay_times=True),
        )
    )
    observer = scenario.make_observer_node(
        NodeConfig(
            policies=policies,
            track_relay_times=True,
            track_connection_attempts=True,
        )
    )
    monitor = SyncMonitor(scenario, period=60.0)
    scenario.start()
    scenario.sim.run_for(400.0)
    block_times = []
    tx_times = []
    for node in scenario.nodes:
        tracker = node.relay_tracker
        block_times.append(tracker.relaying_times("block"))
        tx_times.append(tracker.relaying_times("tx"))
    attempts = [
        (a.started_at, a.finished_at, a.target, a.outcome)
        for a in observer.attempt_log
    ]
    return _sha((monitor.sync_percents(), block_times, tx_times, attempts))


def _assists(fraction: float) -> str:
    """Assists among 2,000 fixed addresses in a cloud at ``fraction``."""
    policies = PolicyConfig(
        variant="unreachable-relay", params={"assist_fraction": fraction}
    )
    scenario = ProtocolScenario(
        ProtocolConfig(
            seed=3, n_reachable=4, mining=False,
            node_config=NodeConfig(policies=policies),
        )
    )
    cloud = scenario.light_cloud
    # 198.18.0.0/15 (benchmarking) is outside every allocated AS.
    addrs = [NetAddr(0xC6120000 + 31 * i) for i in range(2000)]
    cloud.mark_responsive(addrs)
    assists = sorted(
        addr for addr in addrs if cloud.nodes[addr].profile.listen
    )
    return _sha(assists)


@pytest.mark.parametrize("variant", sorted(VARIANT_MEASUREMENTS))
def test_variant_measurements_did_not_move(variant):
    assert _measure(variant) == VARIANT_MEASUREMENTS[variant]


@pytest.mark.parametrize("fraction", sorted(ASSIST_MEMBERSHIP))
def test_assist_membership_did_not_move(fraction):
    assert _assists(fraction) == ASSIST_MEMBERSHIP[fraction]
