"""Checkpoints are canonical by construction: the inventory.

``dump_checkpoint`` uses the stock C pickler, which writes a ``set`` in
iteration (insertion-history) order.  Canonical bytes therefore rest on
one rule — *no raw set reaches a payload*: every class that owns state
in a set pickles it as a sorted tuple (``canonical_sets`` in
``repro.simnet.simulator``).  Nothing in the type system enforces that
rule, so this file does: it walks every
checkpoint kind the repo writes with ``tests/reference_pickler.py`` (the
retired sorted-set pickler, kept as an oracle) and asserts

(a) the oracle met **zero** raw sets,
(b) the C payload equals the oracle's payload byte for byte, and
(c) the oracle met **zero** stock ``random.Random`` generators: every
    generator in a checkpoint is a ``repro.simnet.rand.Stream``, which
    pickles as its 2.5 KB word array instead of a 625-int tuple.

A new set-holding class that forgets the decorator turns (a) red here
before it can un-pin a resumed-vs-fresh digest somewhere slower; a
component that seeds its own stock generator turns (c) red.
"""

from __future__ import annotations

import hashlib
import io
import os
import pickle
import re
from pathlib import Path

import pytest

from repro.adversary.plan import AttackerSpec, AttackPlan
from repro.bitcoin import BitcoinNode, LightNode, LightNodeProfile, NodeConfig
from repro.bitcoin.config import PolicyConfig
from repro.core.condition_sweep import ConditionCell, ConditionSweepResult
from repro.core.getaddr import GetAddrCrawler
from repro.core.parallel import SyncSweepResult
from repro.core.pipeline import (
    CRAWLER_ADDR,
    CampaignConfig,
    CampaignRunner,
)
from repro.core.prober import ProbeCampaignResult, VerProber
from repro.core.propagation import PropagationTracker
from repro.core.sync_experiments import SyncCampaignConfig, run_sync_campaign
from repro.core.sync_monitor import SyncMonitor
from repro.faults.plan import FaultPlan, FaultScope, FaultSpec
from repro.netmodel.population import NodeRecord
from repro.netmodel.scenario import (
    LongitudinalConfig,
    LongitudinalScenario,
    ProtocolConfig,
    ProtocolScenario,
)
from repro.simnet.addresses import NetAddr
from repro.simnet.simulator import Simulator
from repro.store import RunStore, dump_checkpoint, load_checkpoint
from repro.store.blobs import CHUNK
from repro.store.checkpoint import PICKLE_PROTOCOL

from .conftest import traced_peak
from .reference_pickler import checkpoint_payload, reference_dump

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: Every ``kind`` tag a ``dump_checkpoint`` call under ``src/`` writes.
KINDS = {
    "simulator",
    "campaign-runner",
    "snapshot-result",
    "campaign-result",
    "sync-sweep-cell",
    "sync-sweep-result",
}


def assert_canonical(obj, *, kind, aliasing=True):
    """(a) no raw set reached, (b) C payload == oracle payload, (c) no
    stock generator reached."""
    assert kind in KINDS
    blob = dump_checkpoint(obj, kind=kind, aliasing=aliasing)
    payload, raw_sets, stock_rngs = reference_dump(obj, aliasing=aliasing)
    assert raw_sets == [], (
        f"{kind}: {len(raw_sets)} raw set(s) reached the checkpoint — some "
        f"class holds a set without @canonical_sets: {raw_sets[:5]}"
    )
    assert checkpoint_payload(blob) == payload, (
        f"{kind}: C pickler and reference pickler disagree"
    )
    assert stock_rngs == [], (
        f"{kind}: {len(stock_rngs)} stock random.Random reached the "
        f"checkpoint — some component seeds its own generator instead "
        f"of drawing a repro.simnet.rand.Stream"
    )
    return blob


# ---------------------------------------------------------------------------
# Worlds
# ---------------------------------------------------------------------------

_FAULTS = FaultPlan(faults=(
    FaultSpec(kind="drop", probability=0.1, start=0.0),
    FaultSpec(kind="partition", start=100.0, duration=150.0,
              scope=FaultScope(prefixes=tuple(range(0, 0x10000, 7)))),
    FaultSpec(kind="delay", delay=0.1, start=20.0, duration=300.0,
              scope=FaultScope(addrs=("10.9.9.9:8333", "10.1.2.3:8333"),
                               asns=(64500, 3, 64499))),
))

_ATTACK = AttackPlan(attackers=(
    AttackerSpec(kind="addr_flooder", count=2, flood_volume=400),
    AttackerSpec(kind="inv_spammer", count=1),
    AttackerSpec(kind="sync_staller", count=1, tier="reachable"),
))


def _protocol_sim(fidelity):
    """A warmed protocol world with everything that can ride in a
    ``simulator`` checkpoint attached: churn, mining, a tx generator,
    an open fault window, attackers, a sampling sync monitor and a
    block-propagation tracker."""
    scenario = ProtocolScenario(
        ProtocolConfig(
            seed=17,
            n_reachable=10,
            fidelity=fidelity,
            churn_per_10min=3.0,
            pre_mined_blocks=3,
            tx_rate=0.05,
            faults=_FAULTS,
            attack=_ATTACK,
        )
    )
    tracker = PropagationTracker(scenario)
    scenario.sim.register("propagation", tracker)
    scenario.start(warmup=60.0)
    SyncMonitor(scenario, period=30.0, poll_spread=10.0)
    scenario.sim.run_for(90.0)  # t=150: inside the partition window
    return scenario.sim


def _light_sim():
    """Light tier only: a listening stub, cloud endpoints, one full peer."""
    sim = Simulator(seed=5)
    table = tuple(NetAddr.parse(f"172.16.0.{i}") for i in range(1, 21))
    light = LightNode(
        sim,
        NetAddr.parse("10.1.0.1"),
        profile=LightNodeProfile(listen=True),
        addr_table=table,
    )
    light.start()
    for addr in table[:5]:
        LightNode(sim, addr).start()
    full = BitcoinNode(sim, NetAddr.parse("10.2.0.1"), NodeConfig())
    full.bootstrap([light.addr])
    full.start()
    sim.run_for(120.0)
    return sim


@pytest.fixture(scope="module")
def campaign():
    """One snapshot into a crawl campaign (flooders planted)."""
    config = LongitudinalConfig(
        scale=0.004, snapshots=2, campaign_days=2.0, seed=9
    )
    runner = CampaignRunner(LongitudinalScenario(config), CampaignConfig())
    snap = runner.run_snapshot(0, runner.scenario.snapshot_times[0])
    return runner, snap


@pytest.fixture(scope="module")
def sync_result():
    """One tiny attacked, faulted sync campaign: the leaf of every
    attack-level and variant-cell checkpoint."""
    return run_sync_campaign(
        SyncCampaignConfig(
            n_reachable=12,
            duration=300.0,
            warmup=120.0,
            pre_mined_blocks=10,
            sample_period=100.0,
            poll_spread=50.0,
            seed=7,
            faults=_FAULTS,
            attack=_ATTACK,
            policies=PolicyConfig(variant="improved"),
        )
    )


# ---------------------------------------------------------------------------
# The inventory
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("fidelity", ["hybrid"])
def test_simulator_protocol_world(fidelity):
    sim = _protocol_sim(fidelity)
    snapshot = sim.snapshot()
    blob = assert_canonical(sim, kind="simulator")
    # what snapshot() itself writes is that payload
    assert checkpoint_payload(snapshot) == checkpoint_payload(blob)
    # The population pickles as columns and the churn's replacement pool
    # holds addresses, so no record is written twice or loads as a copy.
    assert b"_load_population" in blob and b"NodeRecord" not in blob


def test_simulator_light_world():
    assert_canonical(_light_sim(), kind="simulator")


def test_simulator_mid_crawl_and_mid_probe():
    """A ``simulator`` checkpoint taken while the GETADDR crawler and the
    VER prober have work in flight reaches their harvest and result
    sets."""
    scenario = LongitudinalScenario(
        LongitudinalConfig(scale=0.004, snapshots=2, campaign_days=2.0, seed=9)
    )
    sim = scenario.sim
    scenario.materialize_snapshot(scenario.snapshot_times[0])
    views = scenario.oracles.snapshot(sim.now)
    crawler = GetAddrCrawler(sim, CRAWLER_ADDR)
    crawler.crawl(sorted(views.union))
    prober = VerProber(sim, NetAddr.parse("203.0.113.8:8333"))
    # RST / FIN hosts answer within a round trip; the unassigned
    # addresses time out, so the campaign is still open at +0.5 s.
    dark = [NetAddr(ip=0x0B000000 + i) for i in range(50)]
    probing = prober.probe_all(list(scenario.light_cloud.nodes)[:250] + dark)
    sim.register("crawler", crawler)
    sim.register("prober", prober)
    sim.run_for(0.5)
    assert not crawler.done and not prober.done
    assert 0 < probing.probed < 300
    assert any(h.addresses for h in crawler._result.harvests.values())
    blob = assert_canonical(sim, kind="simulator")

    # The restored prober keeps filling its restored result's sets (it
    # looks each one up on ``_result`` by name), as the original does.
    restored = Simulator.restore(blob)
    restored_prober = restored.components["prober"]
    sim.run_for(120.0)
    restored.run_for(120.0)
    assert prober.done and restored_prober.done
    assert restored_prober._result.probed == probing.probed == 300
    assert restored_prober._result.responsive == probing.responsive
    assert restored_prober._result.silent == probing.silent
    assert (
        restored.components["crawler"]._result.all_addresses
        == crawler._result.all_addresses
    )


def test_campaign_kinds(campaign):
    runner, snap = campaign
    assert_canonical(runner, kind="campaign-runner")
    assert_canonical(snap, kind="snapshot-result")
    assert_canonical(runner.result, kind="campaign-result")


#: sha256 of each ``snapshot-result`` blob, then of the ``campaign-result``
#: blob, of the finished 3-snapshot campaign (scale 0.004, seed 9).
#: Taken while a snapshot held its address collections as live sets.
_FINISHED_CAMPAIGN_BLOBS = [
    "52278a35747c41b7617650cf734434fd8b18d0711d80c2e789d15b83acb3a8ca",
    "ded775dfb3a1d699b3d1233d3458d86413f097a0f6f88f6dca8356ea99cf96e9",
    "b85c231393e6f96ed6bf0349cd8d6a92ea60afea4c5ee1a2cf5f709d36049f02",
    "d4b08854ac290f8365b192888fba041ee2718a45b04f01729cf069db76bd4f74",
]


def test_finished_campaign_blobs_did_not_move():
    """The bytes a finished campaign's snapshot and result checkpoints
    write, independent of how a live snapshot holds its sets."""
    config = LongitudinalConfig(scale=0.004, snapshots=3, seed=9)
    result = CampaignRunner(LongitudinalScenario(config)).run()
    blobs = [
        dump_checkpoint(snap, kind="snapshot-result")
        for snap in result.snapshots
    ]
    blobs.append(dump_checkpoint(result, kind="campaign-result"))
    assert [
        hashlib.sha256(blob).hexdigest() for blob in blobs
    ] == _FINISHED_CAMPAIGN_BLOBS


@pytest.mark.parametrize("aliasing", [True, False])
def test_attack_and_variant_kinds(sync_result, aliasing):
    """Both are ``sync-sweep`` cells now: one labelled as an attacker
    count, one as a matrix cell, over a sweep whose campaigns carry the
    fault, attack and policy configs (``sync_result``)."""
    sweep = SyncSweepResult(seeds=[7, 8], per_seed=[sync_result, sync_result])
    level = ConditionCell(labels={"attackers": 4}, sweep=sweep)
    cell = ConditionCell(
        labels={
            "variant": "tried-only+17d+block-prio", "churn": 2.0,
            "faults": "none",
        },
        sweep=sweep,
    )
    for kind, obj in (
        ("sync-sweep-cell", level),
        ("sync-sweep-cell", cell),
        ("sync-sweep-result", ConditionSweepResult("attack", [level, level])),
        ("sync-sweep-result", ConditionSweepResult("variants", [cell])),
    ):
        assert_canonical(obj, kind=kind, aliasing=aliasing)


def test_every_dump_site_writes_an_inventoried_kind():
    """A new checkpoint kind tag under ``src/`` must come here and add
    its object graph to the walk above."""
    text = "\n".join(
        path.read_text() for path in sorted(SRC.rglob("*.py"))
    )
    # Kind tags are the ``unit_kind`` / ``state_kind`` / ``result_kind``
    # class attributes of the ``StoredPlan`` subclasses.
    tags = set(
        re.findall(r'\b(?:unit|state|result)_kind = "([a-z-]+)"', text)
    ) | {"simulator"}
    assert tags == KINDS


# ---------------------------------------------------------------------------
# Mutation check: the inventory notices a class that loses its decorator
# ---------------------------------------------------------------------------


def test_inventory_catches_a_class_without_canonical_state(
    campaign, monkeypatch
):
    """A prober's result rides in a ``simulator`` checkpoint mid-probe."""
    _, snap = campaign
    probing = ProbeCampaignResult(
        responsive=set(snap.responsive), silent=set(snap.unreachable)
    )
    assert_canonical(probing, kind="simulator")
    monkeypatch.delattr(ProbeCampaignResult, "__getstate__")
    monkeypatch.delattr(ProbeCampaignResult, "__setstate__")
    with pytest.raises(AssertionError, match="raw set"):
        assert_canonical(probing, kind="simulator")


def test_a_runner_dump_peaks_near_its_payload(campaign, tmp_path):
    """A ``campaign-runner`` write through the store holds what the
    pickler itself holds — the memo and whatever the reduces build — and
    no copy of the payload: its peak is that of pickling the runner into
    a null sink, 2.7x the 576 KB blob here (1.5 MB).  Built in memory
    (the pickle buffer, then the framed blob) the same dump peaks at
    3.7x.  While the population, the timelines and the AS universe
    pickled one object per row, the blob was 852 KB and the two peaks
    3.4x and 4.2x (2.9 MB streamed); it peaked at 3.8x a blob that
    still carried every server's stream and table, and at 6.5x with
    stock generators and a frame built from two more copies of the
    payload."""
    runner, _ = campaign
    store = RunStore(tmp_path)
    blob = dump_checkpoint(runner, kind="campaign-runner")  # warm caches
    with open(os.devnull, "wb") as null:
        _, bare = traced_peak(
            lambda: pickle.dump(runner, null, protocol=PICKLE_PROTOCOL)
        )
    _, streamed = traced_peak(
        lambda: store.put_checkpoint(runner, kind="campaign-runner")
    )
    _, in_memory = traced_peak(
        lambda: dump_checkpoint(runner, kind="campaign-runner")
    )
    assert streamed < bare + CHUNK, (streamed, bare)
    assert streamed < 3 * len(blob), (streamed, len(blob))
    assert in_memory < 4 * len(blob), (in_memory, len(blob))


def _records(scenario):
    population = scenario.population
    return population.reachable + population.unreachable_records


def _timelines(scenario):
    return (
        scenario.reachable_timeline,
        scenario.responsive_timeline,
        scenario.silent_timeline,
    )


def test_a_runner_write_memoizes_no_record_and_no_interval_list(campaign):
    """The population, the timelines and the AS universe pickle as packed
    columns, so no ``NodeRecord``, no interval list and no ``(asn,
    weight)`` pair reaches the C pickler's memo in a ``campaign-runner``
    write.  Here the memo holds 10,156 objects for 2,917 records (2,918
    ``NetAddr``); one object per row, it held 36,066 (2,917
    ``NodeRecord``, 24,470 tuples, 4,035 lists)."""
    runner, _ = campaign
    scenario = runner.scenario
    pickler = pickle.Pickler(io.BytesIO(), protocol=PICKLE_PROTOCOL)
    pickler.dump(runner)
    memo = pickler.memo.copy()  # id -> (index, object)
    records = _records(scenario)
    rows = (
        records
        + [
            spans
            for timeline in _timelines(scenario)
            for spans in timeline._intervals.values()
        ]
        + [
            pair
            for pairs in scenario.universe._class_pairs.values()
            for pair in pairs
        ]
    )
    assert len(records) == 2917
    assert [row for row in rows if id(row) in memo] == []
    assert not any(type(obj) is NodeRecord for _, obj in memo.values())
    assert len(memo) < 4 * len(records), len(memo)


def _one_object_per_address(runner):
    """How many addresses ``runner`` holds in its population, timelines,
    servers, light cloud and result, asserting that each is one
    object wherever it is held."""
    scenario = runner.scenario
    held = [record.addr for record in _records(scenario)]
    held += scenario.population._by_addr
    for timeline in _timelines(scenario):
        held += timeline.addresses()
    for addr, server in scenario.servers.items():
        held += (addr, server.addr)
    for addr, node in scenario.light_cloud.nodes.items():
        held += (addr, node.addr)
    result = runner.result
    held += result.cumulative_reachable
    held += result.cumulative_unreachable
    held += result.cumulative_responsive
    for snap in result.snapshots:
        held += snap.connected + snap.unreachable + snap.responsive
    first = {}
    for addr in held:
        assert first.setdefault(addr, addr) is addr, addr
    assert result.cumulative_unreachable <= first.keys()
    return len(first)


def test_a_loaded_runner_holds_one_object_per_address(campaign):
    """A loaded runner shares each address object between its
    population, timelines, servers, light cloud and result, as the
    runner it was dumped from does.  The columns carry the live
    ``NetAddr`` objects for this: rebuilt from ip/port columns, a
    resumed runner held two equal objects where a fresh one holds one,
    and its result blob — whose memo aliases what is shared — moved its
    digest."""
    runner, _ = campaign
    loaded = load_checkpoint(
        dump_checkpoint(runner, kind="campaign-runner"),
        expect_kind="campaign-runner",
    )
    assert runner.result.cumulative_unreachable
    assert (
        _one_object_per_address(loaded)
        == _one_object_per_address(runner)
        > len(_records(runner.scenario))
    )


def test_restored_state_has_real_sets(campaign):
    """A result's tuples are a pickled form only: loading rebuilds its
    ``set``s.  A finished snapshot holds its sorted tuples live, and
    loads as equal sorted tuples."""
    runner, snap = campaign
    result = load_checkpoint(
        dump_checkpoint(runner.result, kind="campaign-result"),
        expect_kind="campaign-result",
    )
    assert type(result.cumulative_unreachable) is set
    assert result.cumulative_unreachable == (
        runner.result.cumulative_unreachable
    )
    loaded = load_checkpoint(
        dump_checkpoint(snap, kind="snapshot-result"),
        expect_kind="snapshot-result",
    )
    assert result.snapshots[0] == loaded
    for name in ("connected", "unreachable", "responsive"):
        held = getattr(loaded, name)
        assert type(held) is tuple and held == getattr(snap, name)
        assert list(held) == sorted(held)
    assert loaded.unreachable
