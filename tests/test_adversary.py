"""The adversarial sync-attack suite: plans, behaviors, sweeps, detection.

Four layers under test:

* **Plan layer** — eager validation with named-field errors, decoding
  from JSON, count redistribution for the sweep axis.
* **Behavior layer** — deterministic replay (same seed, bit-identical
  attacker counters and sync figures), snapshot/restore mid-attack,
  eclipse slot monopoly and restart starvation, the staller trap.
* **Experiment layer** — degradation sweeps and the run-store cache
  (same key → stored result, no simulation); kill-and-resume
  digest-equivalence is pinned in ``tests/test_stored_plan.py``.
* **Detection layer** — the acceptance pins: all 73 paper-parameter
  flooders flagged with zero false positives on an honest run, plus the
  documented blind spot (ADDR heuristics do not see sync-stallers).
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.adversary import (
    AttackPlan,
    AttackerSpec,
    install_attack,
)
from repro.bitcoin import BitcoinNode, NodeConfig
from repro.core import (
    Axis,
    ConditionSweepPlan,
    DetectionMetrics,
    GetAddrConfig,
    GetAddrCrawler,
    SyncCampaignConfig,
    conditions,
    detect_flooders,
    run_sync_campaign,
    score_detection,
    time_to_detection,
)
from repro.core.decode import decode, decode_file
from repro.core.getaddr import CrawlResult, PeerHarvest
from repro.core.malicious_detect import DetectionReport, MaliciousFinding
from repro.core.pipeline import CRAWLER_ADDR
from repro.errors import ConfigurationError
from repro.faults import FaultScope
from repro.netmodel import (
    LongitudinalConfig,
    ProtocolConfig,
    ProtocolScenario,
)
from repro.simnet import NetAddr, Simulator
from repro.store import run_stored


def flood_plan(count: int = 2, volume: int = 1500) -> AttackPlan:
    return AttackPlan(
        attackers=(
            AttackerSpec(
                kind="addr_flooder", count=count, flood_volume=volume
            ),
        )
    )


def small_scenario(attack, seed: int = 9, n: int = 12) -> ProtocolScenario:
    return ProtocolScenario(
        ProtocolConfig(
            n_reachable=n,
            seed=seed,
            fidelity="hybrid",
            mining=False,
            attack=attack,
        )
    )


class TestPlanValidation:
    """Satellite: eager ConfigurationError naming the offending field."""

    def test_empty_scope_rejected(self):
        with pytest.raises(ConfigurationError, match="scope is empty"):
            AttackPlan(
                attackers=(
                    AttackerSpec(kind="addr_flooder", scope=FaultScope()),
                )
            ).validate()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown attacker kind"):
            AttackPlan(attackers=(AttackerSpec(kind="ddos"),)).validate()

    def test_reachable_count_exceeding_network_rejected(self):
        plan = AttackPlan(
            attackers=(
                AttackerSpec(kind="addr_flooder", count=30, tier="reachable"),
            )
        )
        with pytest.raises(
            ConfigurationError, match="exceed the network size"
        ):
            plan.validate_for(12)
        plan.validate_for(30)  # exactly fitting is fine

    def test_unreachable_attackers_not_bounded_by_network(self):
        flood_plan(count=500).validate_for(12)

    def test_victim_overlapping_scope_rejected(self):
        with pytest.raises(ConfigurationError, match="cannot eclipse itself"):
            AttackerSpec(
                kind="eclipse",
                victim="0.9.0.1:8333",
                scope=FaultScope(addrs=("0.9.0.1:8333",)),
            ).validate()

    def test_victim_only_for_eclipse(self):
        with pytest.raises(ConfigurationError, match="only meaningful"):
            AttackerSpec(kind="addr_flooder", victim="0.9.0.1:8333").validate()

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigurationError, match=r"\['atackers'\] for AttackPlan"):
            decode(AttackPlan, {"atackers": []})
        with pytest.raises(ConfigurationError, match=r"\['countt'\] for attackers\[0\]"):
            decode(
                AttackPlan,
                {"attackers": [{"kind": "addr_flooder", "countt": 2}]},
            )
        with pytest.raises(
            ConfigurationError, match=r"\['asn'\] for attackers\[0\]\.scope"
        ):
            decode(
                AttackPlan,
                {
                    "attackers": [
                        {"kind": "addr_flooder", "scope": {"asn": [1]}}
                    ]
                },
            )

    def test_protocol_config_validates_plan_eagerly(self):
        plan = AttackPlan(
            attackers=(
                AttackerSpec(kind="addr_flooder", count=99, tier="reachable"),
            )
        )
        with pytest.raises(ConfigurationError, match="exceed the network"):
            ProtocolConfig(n_reachable=10, attack=plan).validate()

    def test_longitudinal_accepts_only_flooders(self):
        config = LongitudinalConfig(
            scale=0.005,
            attack=AttackPlan(attackers=(AttackerSpec(kind="eclipse"),)),
        )
        with pytest.raises(ConfigurationError, match="protocol fidelity"):
            config.validate()

    def test_install_rejects_victim_inside_cohort_placement(self):
        scenario = small_scenario(AttackPlan())
        plan = AttackPlan(
            attackers=(
                AttackerSpec(
                    kind="eclipse",
                    scope=FaultScope(addrs=("0.200.0.9:8333",)),
                    victim="0.200.0.9:8333",
                ),
            )
        )
        # The spec-level overlap is caught before install even starts.
        with pytest.raises(ConfigurationError, match="cannot eclipse itself"):
            install_attack(scenario, plan)

    def test_install_rejects_unknown_victim(self):
        scenario = small_scenario(AttackPlan())
        plan = AttackPlan(
            attackers=(
                AttackerSpec(kind="eclipse", victim="0.250.0.9:8333"),
            )
        )
        with pytest.raises(ConfigurationError, match="not a standing node"):
            install_attack(scenario, plan)


class TestPlanSerialization:
    def test_null_scope_means_hosting_placement(self):
        plan = decode(
            AttackPlan, {"attackers": [{"kind": "addr_flooder", "scope": None}]}
        )
        assert plan.attackers[0].scope is None
        # A present-but-empty scope object is a config mistake.
        with pytest.raises(ConfigurationError, match="scope is empty"):
            decode(
                AttackPlan, {"attackers": [{"kind": "addr_flooder", "scope": {}}]}
            )

    def test_shipped_example_plan_parses(self):
        path = (
            Path(__file__).resolve().parent.parent
            / "examples"
            / "attackplan_flood.json"
        )
        plan = decode_file(AttackPlan, path)
        assert plan.total_count == 3
        assert plan.attackers[0].scope.asns == (3320,)

    def test_with_total_largest_remainder(self):
        plan = AttackPlan(
            attackers=(
                AttackerSpec(kind="addr_flooder", count=2),
                AttackerSpec(kind="inv_spammer", count=1),
            )
        )
        scaled = plan.with_total(9)
        assert [s.count for s in scaled.attackers] == [6, 3]
        assert scaled.total_count == 9
        assert plan.with_total(0).attackers == ()
        # Specs rounding to zero are dropped, total preserved.
        one = plan.with_total(1)
        assert one.total_count == 1
        assert len(one.attackers) == 1


class TestDeterministicReplay:
    """Acceptance pin: same seed → bit-identical attack outcomes."""

    MIXED = AttackPlan(
        attackers=(
            AttackerSpec(kind="addr_flooder", count=2, flood_volume=800),
            AttackerSpec(kind="inv_spammer", count=1),
            AttackerSpec(kind="sync_staller", count=1, tier="reachable"),
        )
    )

    def _run(self):
        scenario = small_scenario(self.MIXED)
        scenario.start(warmup=300.0)
        scenario.sim.run_for(600.0)
        assert scenario.attack_force is not None
        return scenario.attack_force.stats(), scenario.sync_fraction()

    def test_same_seed_bit_identical(self):
        stats_a, sync_a = self._run()
        stats_b, sync_b = self._run()
        assert stats_a == stats_b
        assert sync_a == sync_b
        assert stats_a["addrs_flooded"] > 0
        assert stats_a["invs_spammed"] > 0

    def test_snapshot_restore_mid_attack(self):
        # Uninterrupted run to t=900.
        scenario = small_scenario(self.MIXED)
        scenario.start(warmup=300.0)
        scenario.sim.run_for(600.0)
        base = scenario.attack_force.stats()

        # Snapshot at t=450, restore into a fresh process-image, finish.
        scenario2 = small_scenario(self.MIXED)
        scenario2.start(warmup=300.0)
        scenario2.sim.run_for(150.0)
        blob = scenario2.sim.snapshot()
        restored = Simulator.restore(blob)
        restored.run_for(450.0)
        assert restored.now == scenario.sim.now
        # The force travels inside the snapshot: recover the attacker
        # nodes through the restored network (listeners for the
        # reachable tier, live sockets for the unreachable one).
        handlers = set(restored.network._listeners.values())
        for sockets in restored.network._sockets_by_addr.values():
            for sock in sockets:
                if sock.handler is not None:
                    handlers.add(sock.handler)
        stats = {}
        for handler in handlers:
            if hasattr(handler, "adv_rng"):
                for key, value in handler.stats().items():
                    stats[key] = stats.get(key, 0) + value
        assert stats["addrs_flooded"] == base["addrs_flooded"]
        assert stats["invs_spammed"] == base["invs_spammed"]
        for key, value in stats.items():
            assert base[key] == value, key


class TestEclipseAndStaller:
    PLAN = AttackPlan(
        attackers=(
            AttackerSpec(kind="eclipse", count=3, connections=6),
            AttackerSpec(
                kind="sync_staller",
                count=1,
                tier="reachable",
                height_lead=300,
                announce_interval=30.0,
            ),
        )
    )

    @pytest.fixture(scope="class")
    def attacked(self):
        scenario = ProtocolScenario(
            ProtocolConfig(
                n_reachable=12,
                seed=5,
                fidelity="hybrid",
                mining=True,
                block_interval=120.0,
                pre_mined_blocks=20,
                attack=self.PLAN,
            )
        )
        scenario.start(warmup=300.0)
        scenario.sim.run_for(1200.0)
        return scenario

    def test_eclipse_monopolizes_victim_slots(self, attacked):
        force = attacked.attack_force
        victim = attacked.nodes[0]
        attacker_addrs = set(force.attacker_addrs())
        grip = [
            p
            for p in victim.peers.values()
            if p.is_inbound and p.remote_addr in attacker_addrs
        ]
        # 3 attackers x 6 sockets each, held open in parallel.
        assert len(grip) >= 12
        assert force.stats()["eclipse_links"] >= 12
        assert force.stats()["eclipse_addrs_sent"] > 0

    def test_eclipsed_restart_cannot_sync(self, attacked):
        force = attacked.attack_force
        reborn = BitcoinNode(
            attacked.sim,
            attacked.universe.allocate_address(3320),
            attacked._clone_node_config(),
        )
        reborn.bootstrap(force.attacker_addrs())
        reborn.start()
        attacked.sim.run_for(900.0)
        # Connected to attackers only, the reborn node downloads nothing:
        # campaigners withhold every block, stallers deliver none.
        assert reborn.outbound_count > 0
        assert reborn.chain.height == 0
        assert attacked.best_height > 20
        stats = force.stats()
        assert stats["blocks_withheld"] + stats["stalled_getdata"] > 0

    def test_staller_traps_block_downloads(self, attacked):
        force = attacked.attack_force
        staller = force.by_kind("sync_staller")[0]
        assert staller.stats()["stalled_getdata"] > 0
        # Victims that asked it for blocks still have the requests in
        # flight — the staller never answered.
        trapped = [
            node
            for node in attacked.nodes
            for peer in node.peers.values()
            if peer.remote_addr == staller.addr and peer.blocks_in_flight
        ]
        assert trapped

    def test_addr_heuristic_blind_to_stallers(self, attacked):
        """Documented gap: sync-stallers never touch the ADDR plane."""
        force = attacked.attack_force
        staller = force.by_kind("sync_staller")[0]
        honest = [node.addr for node in attacked.running_nodes()]
        crawler = GetAddrCrawler(
            attacked.sim,
            CRAWLER_ADDR,
            GetAddrConfig(max_rounds=6),
        )
        crawl = crawler.run_to_completion(honest + [staller.addr])
        # The staller listens on the reachable tier, so any census the
        # detector consults (Bitnodes, DNS seeds) includes it.
        report = detect_flooders(
            crawl,
            reachable_known=set(honest) | {staller.addr},
            min_addresses=1,
        )
        flagged = {finding.peer for finding in report.findings}
        # It answered the crawl (self-advertisement only) yet is not
        # flaggable: its one ADDR record is a genuine reachable address.
        harvest = crawl.harvests[staller.addr]
        assert harvest.connected
        assert staller.addr not in flagged
        metrics = score_detection(report, [staller.addr], honest)
        assert metrics.recall == 0.0


class TestDetectionScoring:
    def _paper_crawl(self):
        """A synthetic Fig. 8 crawl at the paper's parameters."""
        result = CrawlResult()
        honest_pool = {NetAddr(ip=(900 << 16) | i, port=8333) for i in range(1, 40)}
        for i, addr in enumerate(sorted(honest_pool)):
            result.harvests[addr] = PeerHarvest(
                target=addr,
                connected=True,
                total_records=3000,
                addresses={addr} | set(list(honest_pool)[:5]),
            )
        attackers = []
        for i in range(73):
            addr = NetAddr(ip=(1000 << 16) | (i + 1), port=8333)
            attackers.append(addr)
            # Fig. 8 volumes: 8 above 100K, the top one above 400K.
            volume = 450_000 if i == 0 else (120_000 if i < 8 else 20_000)
            result.harvests[addr] = PeerHarvest(
                target=addr,
                connected=True,
                total_records=volume,
                addresses={
                    NetAddr(ip=(2000 + i) << 16 | j, port=8333)
                    for j in range(1, 50)
                },
            )
        return result, attackers, sorted(honest_pool)

    def test_paper_parameters_full_recall_zero_fp(self):
        """Acceptance pin: 73/73 flagged, 0 false positives."""
        crawl, attackers, honest = self._paper_crawl()
        report = detect_flooders(
            crawl, reachable_known=set(honest), min_addresses=1000
        )
        metrics = score_detection(report, attackers, honest)
        assert len(metrics.detected) == 73
        assert metrics.recall == 1.0
        assert metrics.false_positives == []
        assert metrics.false_positive_rate == 0.0
        assert metrics.precision == 1.0
        assert report.count == 73
        assert report.max_flood > 400_000
        assert report.count_over(100_000) == 8

    def test_honest_hybrid_run_zero_false_positives(self):
        """Acceptance pin: the heuristic is quiet on a clean network."""
        scenario = small_scenario(AttackPlan(), seed=31)
        scenario.start(warmup=300.0)
        scenario.sim.run_for(600.0)
        honest = [node.addr for node in scenario.running_nodes()]
        crawler = GetAddrCrawler(
            scenario.sim, CRAWLER_ADDR, GetAddrConfig(max_rounds=6)
        )
        crawl = crawler.run_to_completion(honest)
        # Even with the threshold floored, no honest peer is flagged:
        # every honest ADDR response carries a reachable address.
        report = detect_flooders(
            crawl, reachable_known=set(honest), min_addresses=1
        )
        assert report.findings == []
        metrics = score_detection(report, [], honest)
        assert metrics.false_positive_rate == 0.0
        assert metrics.honest_scored > 0

    def test_time_to_detection(self):
        a1 = NetAddr(ip=1 << 16, port=1)
        a2 = NetAddr(ip=2 << 16, port=1)
        finding = lambda addr: MaliciousFinding(  # noqa: E731
            peer=addr, unreachable_sent=5000, unique_sent=100, addr_messages=5
        )
        reports = [
            (100.0, DetectionReport(findings=[], min_addresses=1000)),
            (200.0, DetectionReport(findings=[finding(a1)], min_addresses=1000)),
            (
                300.0,
                DetectionReport(
                    findings=[finding(a1), finding(a2)], min_addresses=1000
                ),
            ),
        ]
        ttd = time_to_detection(reports, [a1, a2])
        assert ttd == {a1: 200.0, a2: 300.0}
        metrics = DetectionMetrics(
            detected=[a1, a2],
            missed=[],
            false_positives=[],
            honest_scored=10,
            time_to_detection=ttd,
        )
        assert metrics.mean_time_to_detection == 250.0
        assert metrics.as_dict()["recall"] == 1.0


def tiny_campaign(seed: int = 7) -> SyncCampaignConfig:
    return SyncCampaignConfig(
        n_reachable=12,
        fidelity="hybrid",
        duration=600.0,
        warmup=300.0,
        pre_mined_blocks=40,
        sample_period=150.0,
        poll_spread=100.0,
        seed=seed,
    )


def attack_sweep(plan, base, counts, seeds) -> ConditionSweepPlan:
    return ConditionSweepPlan(
        "attack", conditions(base, Axis.attackers(plan, counts)), seeds,
        workers=1,
    )


@pytest.mark.slow
class TestAttackSweep:
    def test_degradation_and_replay(self):
        plan = flood_plan(count=3, volume=2000)
        base = tiny_campaign()
        sweep = attack_sweep(plan, base, (0, 3), [7]).run()
        table = sweep.degradation_table(attackers=0)
        assert [row["attackers"] for row in table] == [0, 3]
        assert table[0]["delta_vs_baseline"] == 0.0
        assert sweep.cells[1].totals("attack_stats")["addrs_flooded"] > 0
        # Same seed → identical sync-fraction table, bit for bit.
        again = attack_sweep(plan, base, (0, 3), [7]).run()
        assert again.degradation_table(attackers=0) == table
        assert [
            cell.sweep.sync_samples for cell in again.cells
        ] == [cell.sweep.sync_samples for cell in sweep.cells]

    def test_count_zero_is_attack_free(self):
        base = tiny_campaign()
        clean = run_sync_campaign(base)
        sweep = attack_sweep(flood_plan(), base, (0,), [base.seed]).run()
        (only,) = sweep.cells[0].sweep.per_seed
        assert only.sync_samples == clean.sync_samples
        assert only.attack_stats is None
        assert sweep.cells[0].totals("attack_stats") == {}

    def test_stored_sweep_caches_by_key(self, tmp_path):
        plan = flood_plan(count=3, volume=2000)
        base = tiny_campaign()
        first = run_stored(
            tmp_path / "store", attack_sweep(plan, base, (0, 3), [7])
        )
        assert not first.cached
        second = run_stored(
            tmp_path / "store", attack_sweep(plan, base, (0, 3), [7])
        )
        # Acceptance pin: same run key → cache hit, identical table.
        assert second.cached
        assert second.manifest.run_id == first.manifest.run_id
        assert (
            second.result.degradation_table(attackers=0)
            == first.result.degradation_table(attackers=0)
        )

    def test_key_separates_plans_and_counts(self):
        base = tiny_campaign()

        def key(plan, counts, seeds):
            return attack_sweep(plan, base, counts, seeds).key

        same = key(flood_plan(), (0, 2), [7])
        assert same != key(flood_plan(volume=900), (0, 2), [7])
        assert same != key(flood_plan(), (0, 3), [7])
        assert same != key(flood_plan(), (0, 2), [8])
        assert same == key(flood_plan(), (0, 2), [7])
        # The key hashes what runs: a cohort declared at 4 and rescaled
        # to the same counts is the same experiment.
        assert same == key(flood_plan(4), (0, 2), [7])
