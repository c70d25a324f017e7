"""The §IV-C relay-delay experiments (Figs. 10-11).

Reconstruction of the paper's setup: a reachable measurement node with 8
outgoing and 17 incoming connections, logging (a) when it first receives
each block/transaction and (b) when the relayed copy finishes leaving for
the *last* connection.  The gap is the "relaying time"; round-robin
socket servicing plus request load queued in ``vSendMessage`` stretches
it (paper: blocks mean 1.39 s / max 17 s, transactions mean 0.45 s /
max 8 s).

The 17 inbound peers are dedicated client nodes (several of them
unreachable, as in reality) that also issue periodic GETADDR requests —
the queued traffic blocks sit behind.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import List, Optional

from ..analysis.stats import Summary, summarize
from ..errors import ScenarioError
from ..simnet.addresses import NetAddr
from ..bitcoin.config import NodeConfig, PolicyConfig, unreachable_config
from ..bitcoin.node import BitcoinNode
from ..netmodel.scenario import ProtocolConfig, ProtocolScenario


#: Fraction of the pinned clients that are unreachable nodes.
UNREACHABLE_CLIENT_SHARE = 0.6
#: The measurement node's (outbound, inbound) tx-trickle means.  They are
#: compressed relative to Core's 2.5/5 s so the measured relaying-time
#: distribution matches the paper's (which reflects their 1-second
#: debug.log methodology); see EXPERIMENTS.md.
TARGET_TX_TRICKLE = (0.25, 0.9)
#: Fraction of clients negotiating high-bandwidth compact blocks.
CLIENT_HB_FRACTION = 0.9
#: Every this many seconds one client is replaced by a fresh node that
#: must download the whole chain through the measurement node — the
#: uplink congestion behind the paper's 17-second outliers.
CLIENT_REFRESH_INTERVAL = 1800.0
#: The measured world's mining interval (seconds; compressed from 600 s
#: to collect more samples), transactions per block and transaction
#: arrival rate (tx/s).
BLOCK_INTERVAL = 300.0
TXS_PER_BLOCK = 25
TX_RATE = 0.4
#: Relay-wave cutoff: sends later than this after first receipt serve
#: block download, not the relay wave, and are excluded (seconds).
WAVE_CUTOFF = 30.0


@dataclass
class RelayExperimentConfig:
    """Shape of the Fig. 10/11 measurement run."""

    #: Reachable network around the measurement node.
    n_reachable: int = 40
    #: Inbound client connections pinned to the measurement node.
    n_clients: int = 17
    #: How often each client sends GETADDR (the request load).
    client_getaddr_interval: float = 8.0
    #: Measured duration after warm-up.
    duration: float = 4 * 3600.0
    warmup: float = 600.0
    seed: int = 11
    #: The measurement node's policy variant (relay ordering is what the
    #: §V ablation toggles); the surrounding network keeps the baseline.
    policies: PolicyConfig = field(default_factory=PolicyConfig)

    def validate(self) -> None:
        if self.n_clients < 1 or self.n_reachable < 4:
            raise ScenarioError("experiment too small to be meaningful")


@dataclass
class RelayExperimentResult:
    """Measured relaying-time distributions.

    The summaries floor each relaying time to whole seconds, reproducing
    the paper's measurement: the debug.log they parsed timestamps events
    at one-second granularity, so an item received and relayed within
    the same second reads as zero.
    """

    block_relay_times: List[float]
    tx_relay_times: List[float]
    target_addr: NetAddr
    inbound_at_end: int
    outbound_at_end: int
    #: Per-block relaying time to the last *outbound* peer (§V).
    outbound_block_relay_times: List[float] = field(default_factory=list)

    @staticmethod
    def _quantize(values: List[float]) -> List[float]:
        return [float(int(v)) for v in values]

    def block_summary(self) -> Summary:
        return summarize(self._quantize(self.block_relay_times))

    def tx_summary(self) -> Summary:
        return summarize(self._quantize(self.tx_relay_times))


def build_relay_scenario(
    config: RelayExperimentConfig,
) -> "tuple[ProtocolScenario, BitcoinNode, List[BitcoinNode]]":
    """Construct the world, the measurement node, and its pinned clients."""
    config.validate()
    scenario = ProtocolScenario(
        ProtocolConfig(
            seed=config.seed,
            n_reachable=config.n_reachable,
            mining=True,
            block_interval=BLOCK_INTERVAL,
            txs_per_block=TXS_PER_BLOCK,
            tx_rate=TX_RATE,
        )
    )
    target_config = NodeConfig(
        max_inbound=config.n_clients,
        track_relay_times=True,
        serve_repeated_getaddr=True,
        tx_inv_interval_outbound=TARGET_TX_TRICKLE[0],
        tx_inv_interval_inbound=TARGET_TX_TRICKLE[1],
        policies=config.policies,
    )
    target = scenario.make_observer_node(target_config)

    clients: List[BitcoinNode] = []
    for index in range(config.n_clients):
        unreachable = index < config.n_clients * UNREACHABLE_CLIENT_SHARE
        client = _make_client(scenario, target, config, unreachable)
        clients.append(client)
    return scenario, target, clients


def _make_client(
    scenario: ProtocolScenario,
    target: BitcoinNode,
    config: RelayExperimentConfig,
    unreachable: bool,
) -> BitcoinNode:
    """A node pinned to the measurement target (one outbound slot)."""
    client_config = unreachable_config(
        max_outbound=1,
        getaddr_repeat_interval=config.client_getaddr_interval,
        feelers_enabled=False,
        hb_compact_fraction=CLIENT_HB_FRACTION,
    )
    profile = "unreachable" if unreachable else "reachable"
    asn = scenario.universe.sample_asn(
        profile, scenario.sim.random.stream("relay-exp")
    )
    addr = scenario.universe.allocate_address(asn)
    client = BitcoinNode(scenario.sim, addr, client_config)
    client.bootstrap([target.addr])
    scenario.nodes.append(client)
    return client


def _refresh_one_client(
    scenario: ProtocolScenario,
    target: BitcoinNode,
    config: RelayExperimentConfig,
    clients: List[BitcoinNode],
    rng,
) -> None:
    """Replace one random client with a fresh one (churn during relay)."""
    victim = rng.choice(clients)
    clients.remove(victim)
    victim.stop()
    fresh = _make_client(
        scenario, target, config, unreachable=rng.random() < 0.5
    )
    fresh.start()
    clients.append(fresh)


def run_relay_experiment(
    config: Optional[RelayExperimentConfig] = None,
) -> RelayExperimentResult:
    """Run the full Fig. 10/11 measurement and return the distributions."""
    config = config if config is not None else RelayExperimentConfig()
    scenario, target, clients = build_relay_scenario(config)
    scenario.start()
    target.start()
    for client in clients:
        client.start()

    refresh_rng = scenario.sim.random.stream("client-refresh")
    scenario.sim.call_every(
        CLIENT_REFRESH_INTERVAL,
        # partial over a module-level function, not a closure: the
        # callback recurs on the event queue, so it must survive
        # Simulator.snapshot().
        functools.partial(
            _refresh_one_client, scenario, target, config, clients,
            refresh_rng,
        ),
    )

    scenario.sim.run_for(config.warmup)
    # Reset the tracker so warm-up traffic does not contaminate the data.
    target.relay_tracker._records.clear()  # noqa: SLF001 - measurement reset
    scenario.sim.run_for(config.duration)
    tracker = target.relay_tracker
    return RelayExperimentResult(
        block_relay_times=tracker.relaying_times("block", cutoff=WAVE_CUTOFF),
        tx_relay_times=tracker.relaying_times("tx", cutoff=WAVE_CUTOFF),
        target_addr=target.addr,
        inbound_at_end=target.inbound_count,
        outbound_at_end=target.outbound_count,
        outbound_block_relay_times=tracker.relaying_times(
            "block", cutoff=WAVE_CUTOFF, outbound=True
        ),
    )
