"""Exact pins of the measurement passes and the resync experiment.

The crawl, the probe pass and the §IV-D resync wait each drive the
simulator until a condition holds, so how they drive it decides which
events fire.  These pins fix, for each, the dispatched-event count, the
clock it stops at and a digest of what it measured, as the tree read
before the passes moved into the scheduler's dispatch loop.  Any change
to that loop, to the order events fire in or to a pass's stop rules
shows up here.

A digest is the sha256 of the ``repr`` of a tuple of ints, floats,
bools and ``(ip, port)`` tuples, so it reads the same on every platform.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core import pipeline
from repro.core.conn_experiments import run_resync_experiment, warm_world
from repro.core.getaddr import GetAddrConfig, GetAddrCrawler
from repro.core.pipeline import CampaignRunner
from repro.core.prober import VerProber
from repro.netmodel.addr_server import AddrServer
from repro.netmodel.scenario import (
    LongitudinalConfig,
    LongitudinalScenario,
    ProtocolConfig,
    ProtocolScenario,
)
from repro.simnet import ProbeBehavior
from repro.simnet.addresses import NetAddr, stamp

from .conftest import answer_with, make_addr

CRAWLER = make_addr(60000)


def digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def harvests(result):
    """Every field of every harvest, in target order."""
    return tuple(
        (
            tuple(h.target), h.connected, h.sessions, h.rounds,
            h.addr_messages, h.total_records,
            tuple(sorted(map(tuple, h.addresses))), h.sent_own_addr,
        )
        for _, h in sorted(result.harvests.items())
    )


def probes(result):
    return tuple(
        tuple(sorted(map(tuple, getattr(result, name))))
        for name in ("responsive", "silent", "rst", "bitcoin")
    )


class _Recorded:
    """Wraps a pass class so a test sees each pass's result and the
    simulator's counters right after it returned."""

    def __init__(self, base):
        self.seen = []
        recorded = self

        class Pass(base):
            def run_to_completion(self, targets, *args, **kwargs):
                result = super().run_to_completion(targets, *args, **kwargs)
                scheduler = self.sim.scheduler
                recorded.seen.append(
                    (result, self.aborted, scheduler.fired, self.sim.now)
                )
                return result

        self.cls = Pass


def test_a_completed_crawl_and_probe_snapshot(monkeypatch):
    crawls = _Recorded(GetAddrCrawler)
    passes = _Recorded(VerProber)
    monkeypatch.setattr(pipeline, "GetAddrCrawler", crawls.cls)
    monkeypatch.setattr(pipeline, "VerProber", passes.cls)
    scenario = LongitudinalScenario(
        LongitudinalConfig(scale=0.02, snapshots=3, seed=9)
    )
    runner = CampaignRunner(scenario)
    snapshot = runner.run_snapshot(0, scenario.snapshot_times[0])
    [(crawl, crawl_aborted, crawl_fired, crawl_now)] = crawls.seen
    [(probe, probe_aborted, probe_fired, probe_now)] = passes.seen
    assert not (crawl_aborted or probe_aborted or snapshot.truncated)
    assert (crawl_fired, crawl_now) == (1641, 864006.8549100381)
    assert (probe_fired, probe_now) == (4676, 864033.4182993692)
    assert digest(harvests(crawl)) == "71591bfbad134017"
    assert digest(probes(probe)) == "b9cf4ce047ca02dc"
    assert digest((
        tuple(map(tuple, snapshot.connected)),
        tuple(map(tuple, snapshot.unreachable)),
        tuple(map(tuple, snapshot.responsive)),
        snapshot.new_unreachable, snapshot.new_responsive,
        snapshot.dns_only_connected,
    )) == "1cc020223cc07037"


def test_a_paper_rule_crawl_with_reconnects(sim, rng):
    servers = [
        AddrServer(
            sim,
            make_addr(i + 1),
            rng,
            table=stamp(
                (make_addr(1000 + i * 1000 + j) for j in range(600)), 0.0
            ),
        )
        for i in range(12)
    ]
    for server in servers:
        server.start()
    crawler = GetAddrCrawler(
        sim,
        CRAWLER,
        GetAddrConfig(stop_rule="paper", reconnect_rounds=2, concurrency=5),
    )
    result = crawler.run_to_completion([s.addr for s in servers])
    assert not crawler.aborted
    assert (sim.scheduler.fired, sim.now) == (747, 17.882240513056985)
    assert digest(harvests(result)) == "e14a3c67b4735313"


def test_a_crawl_aborted_at_its_deadline(sim, rng):
    servers = [
        AddrServer(
            sim,
            make_addr(i + 1),
            rng,
            table=stamp(
                (NetAddr(ip=0x0A000000 + i * 3000 + j) for j in range(3000)),
                0.0,
            ),
        )
        for i in range(200)
    ]
    for server in servers:
        server.start()
    crawler = GetAddrCrawler(sim, CRAWLER)
    result = crawler.run_to_completion(
        [s.addr for s in servers], max_seconds=0.4
    )
    assert crawler.aborted
    # The last event fired is the one at or past the deadline.
    assert (sim.scheduler.fired, sim.now) == (269, 0.400254684911589)
    assert digest(harvests(result)) == "84e9499ae8c661d0"


def test_a_probe_pass_aborted_at_its_deadline(sim):
    targets = [make_addr(i) for i in range(1, 3001)]
    for addr in targets:
        answer_with(sim, addr, ProbeBehavior.FIN)
    prober = VerProber(sim, CRAWLER)
    result = prober.run_to_completion(targets, max_seconds=0.05)
    assert prober.aborted
    assert (sim.scheduler.fired, sim.now) == (25, 0.05018288912796621)
    assert digest(probes(result)) == "0c9dd50fc7a673a9"


@pytest.mark.parametrize(
    "seed, n_reachable, pinned",
    [
        (6, 15, (1200.0, 1527.8246098765408, 24991, 1527.8095305308375)),
        (3, 12, (1200.0, 1357.76247507403, 18402, 1356.8874546882878)),
    ],
)
def test_resync_on_a_small_world(seed, n_reachable, pinned):
    world = warm_world(seed, n_reachable)
    result = run_resync_experiment(world)
    sim = world.sim
    assert (
        result.restart_at, result.first_relay_at, sim.scheduler.fired, sim.now
    ) == pinned


def test_resync_that_waits_out_its_deadline():
    # No block is mined after the warm-up, so the restarted node never
    # relays one: the wait ends on the first event at or past the
    # deadline, 3,600 s after the restart.
    world = ProtocolScenario(
        ProtocolConfig(n_reachable=12, seed=3, block_interval=1e9)
    )
    world.start(warmup=600.0)
    result = run_resync_experiment(world)
    sim = world.sim
    assert (result.restart_at, result.first_relay_at) == (600.0, None)
    assert (sim.scheduler.fired, sim.now) == (59377, 4200.137448429967)
