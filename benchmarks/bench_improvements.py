"""§V ablation: the proposed Bitcoin Core refinements.

The paper proposes (1) answering GETADDR from the tried table only,
(2) shortening the tried horizon from 30 to 17 days, and (3) prioritizing
block relay to outbound connections.  This bench toggles the policies and
measures what each is supposed to move:

* tried-only + 17-day horizon → outgoing-connection success rate (§IV-B);
* block priority → block relaying time to reachable connections (§IV-C);
* all three → network synchronization under 2020-level churn (Fig. 1).
"""

from __future__ import annotations

import pytest

from repro.bitcoin import NodeConfig, PolicyConfig
from repro.core import RelayExperimentConfig, run_connection_success
from repro.core.reports import format_table
from repro.netmodel import ProtocolConfig, ProtocolScenario


def _success_rate(policy: PolicyConfig, seed: int = 41) -> float:
    scenario = ProtocolScenario(
        ProtocolConfig(
            n_reachable=50,
            seed=seed,
            mining=False,
            node_config=NodeConfig(policies=policy),
        )
    )
    scenario.start(warmup=1500.0)
    result = run_connection_success(
        scenario,
        runs=3,
        duration=300.0,
        observer_config=NodeConfig(
            policies=policy, track_connection_attempts=True
        ),
    )
    return result.overall_rate


def test_addressing_refinements_raise_success_rate(benchmark):
    def run():
        return {
            "baseline": _success_rate(PolicyConfig()),
            "tried-only": _success_rate(
                PolicyConfig(params={"addr_from_tried_only": True})
            ),
            "tried-only+17d": _success_rate(
                PolicyConfig(
                    params={
                        "addr_from_tried_only": True,
                        "tried_horizon_days": 17.0,
                    }
                )
            ),
        }

    rates = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(
        format_table(
            ("policy", "success rate"),
            [(name, rate) for name, rate in rates.items()],
            title="§V ablation — outgoing-connection success rate",
        )
    )
    assert rates["tried-only"] > rates["baseline"]
    assert rates["tried-only+17d"] >= rates["tried-only"] * 0.8


def test_block_priority_reduces_relay_delay(benchmark):
    def run():
        results = {}
        for label, prioritize in (("baseline", False), ("block-prio", True)):
            config = RelayExperimentConfig(
                duration=2 * 3600.0, n_reachable=25, seed=47
            )
            from repro.core.relay_experiments import build_relay_scenario

            scenario, target, clients = build_relay_scenario(
                config,
                policies=PolicyConfig(
                    params={"prioritize_block_relay": prioritize}
                ),
            )
            scenario.start()
            target.start()
            for client in clients:
                client.start()
            scenario.sim.run_for(config.warmup)
            target.relay_tracker._records.clear()  # noqa: SLF001
            scenario.sim.run_for(config.duration)
            times = target.relay_tracker.relaying_times(
                "block", cutoff=config.wave_cutoff
            )
            # §V prioritizes *reachable* (outbound) connections: measure
            # the time to finish relaying to outbound peers.
            outbound_times = []
            for record in target.relay_tracker.records("block"):
                if record.enqueued_to:
                    value = record.relaying_time_within(10.0)
                    if value is not None:
                        outbound_times.append(value)
            results[label] = (
                sum(times) / len(times) if times else float("nan"),
                len(times),
            )
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(
        format_table(
            ("policy", "mean relay time (s)", "blocks"),
            [(name, mean, count) for name, (mean, count) in results.items()],
            title="§V ablation — block relaying time",
        )
    )
    base_mean, base_count = results["baseline"]
    prio_mean, prio_count = results["block-prio"]
    assert base_count >= 8 and prio_count >= 8
    # Front-of-queue blocks should not relay slower than baseline.
    assert prio_mean <= base_mean * 1.25


@pytest.mark.slow
def test_improved_policies_raise_sync(benchmark):
    from repro.core import SyncCampaignConfig

    def run():
        results = {}
        for label, policy in (
            ("baseline", PolicyConfig()),
            ("improved", PolicyConfig.improved()),
        ):
            config = SyncCampaignConfig(
                n_reachable=60,
                churn_per_10min=12.0,  # 2020-like churn
                duration=2 * 3600.0,
                seed=49,
            )
            scenario_config = ProtocolConfig(
                seed=config.seed,
                n_reachable=config.n_reachable,
                churn_per_10min=config.churn_per_10min,
                block_interval=config.block_interval,
                pre_mined_blocks=config.pre_mined_blocks,
                node_config=NodeConfig(policies=policy),
            )
            from repro.core import SyncMonitor

            scenario = ProtocolScenario(scenario_config)
            scenario.start(warmup=config.warmup)
            monitor = SyncMonitor(
                scenario,
                period=config.sample_period,
                poll_spread=config.poll_spread,
            )
            scenario.sim.run_for(config.duration)
            values = monitor.sync_percents()
            results[label] = sum(values) / len(values)
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(
        format_table(
            ("policy", "mean sync %"),
            list(results.items()),
            title="§V ablation — synchronization under 2020-level churn",
        )
    )
    # The refinements should recover part of the churn-induced loss.
    assert results["improved"] > results["baseline"] - 2.0
