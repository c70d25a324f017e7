"""Direct probes: one layer on fixed synthetic input, public calls only.

Run after the timed region of the traced pass.  Their inputs do not
depend on ``--seed``, so each reads the layer's raw speed in isolation
from the workload around it; they are per-layer numbers, never gated.
``smoke`` shrinks the inputs tenfold for the self-test.
"""

from __future__ import annotations

import gc
import random
import tempfile
import time
import tracemalloc
from typing import Any, Callable, Dict, List

from repro.bitcoin.addrman import AddrMan
from repro.bitcoin.config import NodeConfig
from repro.bitcoin.light import LightNode
from repro.bitcoin.node import BitcoinNode
from repro.netmodel.scenario import ProtocolConfig, ProtocolScenario
from repro.simnet.addresses import NetAddr, TimestampedAddr
from repro.simnet.clock import SimClock
from repro.simnet.events import Scheduler
from repro.simnet.simulator import Simulator
from repro.store import BlobStore

_INF = float("inf")


def _noop(*_args: Any) -> None:
    pass


def _rate(count: int, work: Callable[[], Any]) -> float:
    t0 = time.perf_counter()
    work()
    return count / (time.perf_counter() - t0)


# ----------------------------------------------------------------------
# simnet.events
# ----------------------------------------------------------------------
def _sched_then_drain(method: str, n_events: int) -> float:
    sched = Scheduler(SimClock())
    schedule = getattr(sched, method)
    # Delays fan over 10 simulated seconds, inside the wheel horizon.
    delays = [(i % 10_000) * 1e-3 for i in range(n_events)]

    def work() -> None:
        for delay in delays:
            schedule(delay, _noop, None)
        sched.run_until(_INF, None)

    return _rate(n_events, work)


class _Rearm:
    """bench_engine's cancel-heavy pattern: each connection keeps one
    standing 5 s timeout that every activity event cancels and re-arms."""

    def __init__(self, sched: Scheduler, conns: int) -> None:
        self.sched = sched
        self.jitter = random.Random(0x9E3779B9)
        self.timeouts = [sched.schedule(5.0, _noop) for _ in range(conns)]
        for i in range(conns):
            sched.schedule(0.3 + self.jitter.random() * 0.4, self.activity, i)

    def activity(self, i: int) -> None:
        sched = self.sched
        self.timeouts[i].cancel()
        self.timeouts[i] = sched.schedule(5.0, _noop)
        sched.schedule(0.3 + self.jitter.random() * 0.4, self.activity, i)


def events_probes(smoke: bool) -> Dict[str, float]:
    n_events = 20_000 if smoke else 200_000
    sched = Scheduler(SimClock())
    _Rearm(sched, conns=n_events // 100)
    return {
        "simnet.events.probe_sched_per_s": _sched_then_drain("schedule", n_events),
        "simnet.events.probe_lane_per_s": _sched_then_drain("lane_schedule", n_events),
        "simnet.events.probe_rearm_per_s": _rate(
            n_events, lambda: sched.run_until(_INF, n_events)
        ),
    }


# ----------------------------------------------------------------------
# bitcoin.addrman, per-node memory
# ----------------------------------------------------------------------
def _bootstrap_table(rng: random.Random, reach: int = 60, unreach: int = 340) -> List[NetAddr]:
    """A scenario-shaped addrman seed: 15/85 reachable/unreachable mix
    (the table `bench_scale` prices a full node with)."""
    reachable = [NetAddr(ip=0x0A000000 + i) for i in range(1, 2 * reach)]
    unreachable = [NetAddr(ip=0xAC100000 + i) for i in range(1, 4 * unreach)]
    return rng.sample(reachable, reach) + rng.sample(unreachable, unreach)


def addrman_probes(smoke: bool, rounds: int = 50) -> Dict[str, float]:
    tables = 20 if smoke else 200
    rng = random.Random(1)
    source = NetAddr(ip=0xC0000001)
    batches = [
        [TimestampedAddr(addr=addr, timestamp=0.0) for addr in _bootstrap_table(rng)]
        for _ in range(tables)
    ]
    managers = [AddrMan(random.Random(i), key=i) for i in range(tables)]

    def add() -> None:
        for manager, batch in zip(managers, batches):
            manager.add_many(batch, 0.0, source)

    def select() -> None:
        for manager in managers:
            for _ in range(rounds):
                manager.select(1.0)

    def get_addr() -> None:
        for manager in managers:
            for _ in range(rounds // 5):
                manager.get_addr(1.0)

    return {
        "bitcoin.addrman.probe_add_per_s": _rate(tables * len(batches[0]), add),
        "bitcoin.addrman.probe_select_per_s": _rate(tables * rounds, select),
        "bitcoin.addrman.probe_get_addr_per_s": _rate(
            tables * (rounds // 5), get_addr
        ),
    }


def node_memory_probes(smoke: bool) -> Dict[str, float]:
    """tracemalloc bytes per bootstrapped full node and per light node."""
    full, light = (10, 200) if smoke else (100, 2000)
    rng = random.Random(1)
    sim = Simulator(seed=1)
    tables = [_bootstrap_table(rng) for _ in range(full)]
    addrs = [NetAddr(ip=0xC0000000 + i) for i in range(full + light)]
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        nodes: List[Any] = []
        for i in range(full):
            node = BitcoinNode(sim, addrs[i], NodeConfig())
            node.bootstrap(tables[i])
            nodes.append(node)
        after_full = tracemalloc.get_traced_memory()[0]
        nodes.extend(LightNode(sim, addrs[full + i]) for i in range(light))
        after_light = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return {
        "bitcoin.node.bytes_per_full_node": (after_full - before) / full,
        "bitcoin.light.bytes_per_light_node": (after_light - after_full) / light,
    }


# ----------------------------------------------------------------------
# store
# ----------------------------------------------------------------------
def store_probes(scratch_dir: str, smoke: bool) -> Dict[str, float]:
    """Checkpoint dump/load of a 40-node warmed protocol sim, and
    content-addressed blob put/get at 32 x 1 MiB.  (40 nodes because
    ``sim.snapshot()`` raises ``RecursionError`` from 60 warmed nodes up.)"""
    scenario = ProtocolScenario(
        ProtocolConfig(seed=17, n_reachable=10 if smoke else 40)
    )
    scenario.start(warmup=900.0)
    t0 = time.perf_counter()
    blob = scenario.sim.snapshot()
    dump_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    restored = Simulator.restore(blob)
    load_s = time.perf_counter() - t0
    restored.run_for(10.0)  # a restored world must actually run

    payloads = [bytes([i]) * (1 << 20) for i in range(4 if smoke else 32)]
    with tempfile.TemporaryDirectory(dir=scratch_dir) as tmp:
        blobs = BlobStore(tmp)
        t0 = time.perf_counter()
        digests = [blobs.put(payload) for payload in payloads]
        put_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        for digest in digests:
            blobs.get(digest)
        get_s = time.perf_counter() - t0
    return {
        "store.snapshot_mb": len(blob) / 1e6,
        "store.dump_mb_per_s": len(blob) / 1e6 / dump_s,
        "store.load_mb_per_s": len(blob) / 1e6 / load_s,
        "store.blob_put_mb_per_s": len(payloads) * (1 << 20) / 1e6 / put_s,
        "store.blob_get_mb_per_s": len(payloads) * (1 << 20) / 1e6 / get_s,
    }


def snapshot_failed(sim: Simulator) -> float:
    """1.0 if ``sim.snapshot()`` of the warmed workload sim raises
    ``RecursionError`` (it does today from 60 warmed full nodes up)."""
    try:
        sim.snapshot()
    except RecursionError:
        return 1.0
    return 0.0
